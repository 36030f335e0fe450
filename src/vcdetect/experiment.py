"""Monte Carlo experiment runner: seeded trials, CSV trajectories, summaries.

Trials run one at a time in the calling process. Each trial's stream is
seeded by mixing the master seed with (trial_id, hypothesis) through
splitmix64, so a trial's records do not depend on which trials ran before it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from itertools import count
from typing import NamedTuple

import numpy as np

from .detector import (_THRESHOLDS, DetectorConfig, Outcome, _check_fields, _write_csv,
                       decision_label, run_stream)
from .scenario import ScenarioConfig, draw_sample, make_scenario

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

# The top-level keys of an experiment config. "parallelism" selects nothing;
# it is checked and accepted because existing configs carry it.
_CONFIG_KEYS = {"scenario", "trials", "max_samples", "detector", "parallelism", "seed"}


class TrajectoryRecord(NamedTuple):
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
    master_seed: int = 0

    def __post_init__(self):
        for name in ("trials", "max_samples", "master_seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1 or self.max_samples < 1:
            raise ValueError("trials and max_samples must be >= 1")
        if not isinstance(self.detector, dict):
            raise ValueError(f"detector must be an object, got {type(self.detector).__name__}")
        # The budget is max_samples above, and the noise hint is the scenario's.
        opts = dict(self.detector)
        use_hint = opts.pop("use_noise_hint", True)
        if unknown := [key for key in opts if key not in _THRESHOLDS]:
            raise ValueError(f"unknown detector option {unknown[0]!r}")
        if type(use_hint) is not bool:
            raise ValueError(f"detector option 'use_noise_hint' must be bool, got {use_hint!r}")
        _check_fields(opts)


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
    },
}


def load_experiment_config(doc: dict, master_seed: int | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    The top level takes only the keys in ``_CONFIG_KEYS``. The scenario block
    takes ``n``, ``d1``, ``d2``, ``snr_db`` (a number or ``"inf"``) and
    ``seed`` (default 0); any other key is rejected. It sets no hypothesis,
    since ``run_experiment`` runs both. ``parallelism`` must be an integer
    >= 1 when given, and is otherwise ignored.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("scenario"), dict):
        raise ValueError("the config and its scenario block must be JSON objects")
    if unknown := set(doc) - _CONFIG_KEYS:
        raise ValueError(f"unknown config key {min(unknown)!r}")
    parallelism = doc.get("parallelism", 1)
    if type(parallelism) is not int or parallelism < 1:
        raise ValueError(f"parallelism must be an integer >= 1, got {parallelism!r}")
    block = dict(doc["scenario"])
    snr = block.pop("snr_db")
    scenario = ScenarioConfig(
        ambient_dim=block.pop("n"),
        clutter_dim=block.pop("d1"),
        target_dim=block.pop("d2"),
        snr_db=float("inf") if snr == "inf" else snr,
        target_present=False,
        seed=block.pop("seed", 0),
    )
    if block:
        raise ValueError(f"unknown scenario key {next(iter(block))!r}")
    return ExperimentConfig(
        scenario=scenario,
        trials=doc["trials"],
        max_samples=doc["max_samples"],
        detector=doc.get("detector", {}),
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


def run_experiment(cfg: ExperimentConfig) -> list[TrajectoryRecord]:
    """All trial trajectories under both hypotheses, in deterministic order.

    Each hypothesis's scenario and detector config are built once and shared
    by its trials. ``make_scenario`` draws the same bases for both hypotheses
    from the scenario seed; only the noise variance and the target term
    differ. A trial's stream is seeded by ``derive_trial_seed`` and drawn
    lazily, so it stops where the detector does.
    """
    opts = dict(cfg.detector)
    use_hint = opts.pop("use_noise_hint", True)
    records = []
    for present in (True, False):
        scenario = make_scenario(replace(cfg.scenario, target_present=present))
        hint = scenario.noise_std**2 if use_hint else None
        det_cfg = DetectorConfig(scenario.target_basis, hint, max_samples=cfg.max_samples, **opts)
        hyp = "target_present" if present else "target_absent"
        for trial in range(cfg.trials):
            rng = np.random.default_rng(derive_trial_seed(cfg.master_seed, trial, present))
            stream = (draw_sample(scenario, rng) for _ in count())
            decision, trajectory = run_stream(det_cfg, stream)
            records += [
                TrajectoryRecord(trial, hyp, i, t, inv_t, k, decision_label(decision, i))
                for i, t, inv_t, k in trajectory
            ]
    return records


def write_records_csv(records, path) -> None:
    """One row per record, in ``TrajectoryRecord`` field order (see ``_write_csv``)."""
    _write_csv(path, TrajectoryRecord._fields, records)


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
