"""Volume-correlation subspace detector library.

Detects a known-subspace target signal buried in clutter from an unknown
low-rank subspace plus white noise, by tracking volumes of parallelotopes
spanned by streamed samples and the known target basis.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    sample_bound_target_absent,
    sample_bound_target_present,
    tau,
    validate_convergence,
)
from .detector import (
    Decision,
    DetectorConfig,
    DetectorState,
    Outcome,
    decide,
    detector_init,
    estimate_rank,
    ingest,
    noiseless_breakpoint,
    run_stream,
    write_trajectory_csv,
)
from .geometry import (
    SubspaceBasis,
    elementary_symmetric,
    incremental_volume_factor,
    log_volume,
    orthonormalize,
    principal_angles,
    projector_complement_apply,
    stacked_log_volume,
    volume,
    volume_correlation,
)
from .scenario import (
    Scenario,
    ScenarioConfig,
    config_from_json,
    config_to_json,
    draw_sample,
    make_scenario,
    population_eigenvalues,
    random_subspace,
    sample_stream,
    with_hypothesis,
)

__version__ = "0.1.0"
