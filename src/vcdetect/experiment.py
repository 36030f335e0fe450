"""Monte Carlo experiment runner: seeded trials, CSV trajectories, summaries.

Trial streams are seeded by mixing the master seed with (trial_id,
hypothesis) through splitmix64, so trials are independent of one another and
of execution order; parallel and serial runs produce identical records.
"""

from __future__ import annotations

import json
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .detector import DetectorConfig, Outcome, detector_init, ingest
from .scenario import ScenarioConfig, draw_sample, make_scenario, with_hypothesis

__all__ = [
    "ExperimentConfig",
    "TrajectoryRecord",
    "PRESETS",
    "load_experiment_config",
    "run_experiment",
    "write_records_csv",
    "summarize",
    "derive_trial_seed",
]

RECORD_FIELDS = ("trial_id", "hypothesis", "i", "T", "inv_T", "k_i", "decision")


@dataclass(frozen=True)
class TrajectoryRecord:
    trial_id: int
    hypothesis: str
    i: int
    T: float
    inv_T: float
    k_i: int
    decision: str


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    trials: int
    max_samples: int
    detector: dict = field(default_factory=dict)
    parallelism: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.trials < 1 or self.max_samples < 1 or self.parallelism < 1:
            raise ValueError("trials, max_samples and parallelism must be >= 1")


# Bundled presets. fig1_full is the full-scale geometry (n=1024, d1=40,
# d2=10, SNR=-10 dB, 100 trials); fig1_desk is the desk-scale variant.
# Both sets of detector thresholds were calibrated empirically (recorded
# regression baseline, see README).
PRESETS: dict[str, dict] = {
    "fig1_full": {
        "scenario": {"n": 1024, "d1": 40, "d2": 10, "snr_db": -10.0, "seed": 20240801},
        "trials": 100,
        "max_samples": 200,
        "detector": {
            "use_noise_hint": True,
            "rank_gap_factor": 2.0,
            "divergence_threshold": 4.0,
            "stall_epsilon": 0.016,
            "stall_patience": 7,
        },
        "parallelism": 1,
    },
    "fig1_desk": {
        "scenario": {"n": 256, "d1": 20, "d2": 5, "snr_db": -10.0, "seed": 20240802},
        "trials": 50,
        "max_samples": 100,
        "detector": {
            "use_noise_hint": True,
            "rank_gap_factor": 2.0,
            "divergence_threshold": 2.4,
            "stall_epsilon": 0.02,
            "stall_patience": 10,
        },
        "parallelism": 1,
    },
}


def load_experiment_config(doc: dict, master_seed: int | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document."""
    sc = doc["scenario"]
    scenario = ScenarioConfig(
        ambient_dim=int(sc["n"]),
        clutter_dim=int(sc["d1"]),
        target_dim=int(sc["d2"]),
        snr_db=float("inf") if sc["snr_db"] == "inf" else float(sc["snr_db"]),
        target_present=True,  # both hypotheses are run; this is a placeholder
        seed=int(sc.get("seed", 0)),
    )
    return ExperimentConfig(
        scenario=scenario,
        trials=int(doc["trials"]),
        max_samples=int(doc["max_samples"]),
        detector=dict(doc.get("detector", {})),
        parallelism=int(doc.get("parallelism", 1)),
        master_seed=int(master_seed if master_seed is not None else doc.get("seed", 0)),
    )


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_trial_seed(master_seed: int, trial_id: int, target_present: bool) -> int:
    """splitmix64 chain over (master_seed, trial_id, hypothesis)."""
    s = _splitmix64(master_seed & 0xFFFFFFFFFFFFFFFF)
    s = _splitmix64(s ^ trial_id)
    return _splitmix64(s ^ (1 if target_present else 2))


def _detector_config(cfg: ExperimentConfig, target_basis, noise_variance) -> DetectorConfig:
    opts = dict(cfg.detector)
    hint = noise_variance if opts.pop("use_noise_hint", True) else None
    return DetectorConfig(
        target_basis=target_basis,
        noise_variance_hint=hint,
        max_samples=cfg.max_samples,
        **opts,
    )


def _run_trial(args) -> list[TrajectoryRecord]:
    scenario, det_cfg, master_seed, trial_id = args
    present = scenario.config.target_present
    rng = np.random.default_rng(derive_trial_seed(master_seed, trial_id, present))
    state = detector_init(det_cfg)
    for i in range(1, det_cfg.max_samples + 1):
        ingest(state, draw_sample(scenario, i, rng))
        if state.decision.variant is not Outcome.UNDECIDED:
            break
    hyp = "target_present" if present else "target_absent"
    records = []
    for i, t, inv_t, k in state.trajectory:
        label = ""
        if state.decision.decided_at is not None and i == state.decision.decided_at:
            label = state.decision.variant.value
        records.append(TrajectoryRecord(trial_id, hyp, i, t, inv_t, k, label))
    return records


def run_experiment(cfg: ExperimentConfig) -> list[TrajectoryRecord]:
    """All trial trajectories under both hypotheses, in deterministic order.

    The geometry depends only on the hypothesis, so each hypothesis's
    scenario and detector config are built once and shared by its trials.
    """
    tasks = []
    for present in (True, False):
        scenario = make_scenario(with_hypothesis(cfg.scenario, present))
        det_cfg = _detector_config(cfg, scenario.target_basis, scenario.noise_std**2)
        tasks += [(scenario, det_cfg, cfg.master_seed, trial) for trial in range(cfg.trials)]
    if cfg.parallelism > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            per_trial = list(pool.map(_run_trial, tasks))
    else:
        per_trial = [_run_trial(t) for t in tasks]
    return [rec for rows in per_trial for rec in rows]


def write_records_csv(records, path) -> None:
    """CSV with repr-formatted floats (shortest round-trip, byte-stable)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        for r in records:
            fh.write(
                f"{r.trial_id},{r.hypothesis},{r.i},{r.T!r},{r.inv_T!r},{r.k_i},{r.decision}\n"
            )


def summarize(records) -> dict:
    """Per-m quantiles of 1/T and final decision counts, per hypothesis."""
    out: dict = {}
    for hyp in ("target_present", "target_absent"):
        rows = [r for r in records if r.hypothesis == hyp]
        if not rows:
            continue
        by_trial: dict[int, list[TrajectoryRecord]] = {}
        for r in rows:
            by_trial.setdefault(r.trial_id, []).append(r)
        finals = []
        decisions = {o.value: 0 for o in Outcome}
        for recs in by_trial.values():
            last = max(recs, key=lambda r: r.i)
            finals.append(last.inv_T)
            decisions[last.decision or Outcome.UNDECIDED.value] += 1
        depth = min(max(r.i for r in recs) for recs in by_trial.values())
        per_m = {
            str(q): [
                float(
                    np.quantile(
                        [r.inv_T for r in rows if r.i == m], q
                    )
                )
                for m in range(1, depth + 1)
            ]
            for q in (0.1, 0.5, 0.9)
        }
        out[hyp] = {
            "trials": len(by_trial),
            "decisions": decisions,
            "median_final_inv_t": statistics.median(finals),
            "inv_t_quantiles": per_m,
        }
    if "target_present" in out and "target_absent" in out:
        out["median_final_ratio"] = (
            out["target_present"]["median_final_inv_t"]
            / out["target_absent"]["median_final_inv_t"]
        )
    return out
