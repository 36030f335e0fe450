"""Monte Carlo experiment runner: seeded trials, CSV trajectories, summaries.

Trial streams are seeded by mixing the master seed with (trial_id,
hypothesis) through splitmix64, so trials are independent of one another and
of execution order; parallel and serial runs produce identical records.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .detector import DetectorConfig, Outcome, decision_label, run_stream
from .scenario import ScenarioConfig, config_from_json, draw_sample, make_scenario, with_hypothesis

__all__ = [
    "ExperimentConfig",
    "TrajectoryRecord",
    "PRESETS",
    "load_experiment_config",
    "run_experiment",
    "run_trial",
    "write_records_csv",
    "summarize",
    "derive_trial_seed",
]

RECORD_FIELDS = ("trial_id", "hypothesis", "i", "T", "inv_T", "k_i", "decision")

# Keys of an experiment's "detector" block and their types; an int is also a float.
_DETECTOR_OPTIONS = {"use_noise_hint": bool, "rank_gap_factor": float,
                     "divergence_threshold": float, "stall_epsilon": float, "stall_patience": int}


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
        for name in ("trials", "max_samples", "parallelism", "master_seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1 or self.max_samples < 1 or self.parallelism < 1:
            raise ValueError("trials, max_samples and parallelism must be >= 1")
        if not isinstance(self.detector, dict):
            raise ValueError(f"detector must be an object, got {type(self.detector).__name__}")
        for key, value in self.detector.items():
            kind = _DETECTOR_OPTIONS.get(key)
            if kind is None:
                raise ValueError(f"unknown detector option {key!r}")
            # bool is an int subclass: a flag must be a bool and a number must not.
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, (kind, int)):
                raise ValueError(f"detector option {key!r} must be {kind.__name__}, got {value!r}")


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
    """Build an ExperimentConfig from a parsed JSON document.

    The scenario block is read by ``config_from_json``; its hypothesis does
    not matter, since ``run_experiment`` runs both.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("scenario"), dict):
        raise ValueError("the config and its scenario block must be JSON objects")
    return ExperimentConfig(
        scenario=config_from_json(doc["scenario"]),
        trials=doc["trials"],
        max_samples=doc["max_samples"],
        detector=doc.get("detector", {}),
        parallelism=doc.get("parallelism", 1),
        master_seed=master_seed if master_seed is not None else doc.get("seed", 0),
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


def run_trial(args) -> list[TrajectoryRecord]:
    """One seeded trial: ``run_stream`` over the scenario's samples, as records.

    ``args`` is ``(scenario, detector config, master seed, trial id)``; the
    stream is seeded by ``derive_trial_seed`` and drawn lazily, so it stops
    where the detector does.
    """
    scenario, det_cfg, master_seed, trial_id = args
    present = scenario.config.target_present
    rng = np.random.default_rng(derive_trial_seed(master_seed, trial_id, present))
    decision, trajectory = run_stream(det_cfg, (draw_sample(scenario, rng) for _ in count()))
    hyp = "target_present" if present else "target_absent"
    return [
        TrajectoryRecord(trial_id, hyp, i, t, inv_t, k, decision_label(decision, i))
        for i, t, inv_t, k in trajectory
    ]


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
            per_trial = list(pool.map(run_trial, tasks))
    else:
        per_trial = [run_trial(t) for t in tasks]
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
        by_m: list[list[float]] = [[] for _ in range(depth)]
        for r in rows:
            if r.i <= depth:
                by_m[r.i - 1].append(r.inv_T)
        levels = (0.1, 0.5, 0.9)
        per_m = dict(zip(map(str, levels), np.quantile(by_m, levels, axis=1).tolist()))
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
