"""Output checks: the program's decisions and 1/T trajectories against the reference.

Decisions and decision points must match exactly; each 1/T must lie within
``REL_TOL`` (relative) of the reference. Bytes are not compared: the last
digits of 1/T depend on the BLAS thread count.
"""

from __future__ import annotations

import csv
import json
from collections import Counter

from reference import Trajectory

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(got: dict, want: dict) -> list[str]:
    """Differences between two ``{stream key: Trajectory}`` maps (empty if none)."""
    errors = []
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        return [f"stream keys differ: missing {missing}, unexpected {extra}"]
    for key in sorted(want):
        g, w = got[key], want[key]
        if (g.decision, g.decided_at) != (w.decision, w.decided_at):
            errors.append(
                f"{key}: decision {g.decision or 'undecided'}@{g.decided_at}, "
                f"expected {w.decision or 'undecided'}@{w.decided_at}"
            )
        elif len(g.inv_t) != len(w.inv_t):
            errors.append(f"{key}: {len(g.inv_t)} samples, expected {len(w.inv_t)}")
        else:
            for i, (a, b) in enumerate(zip(g.inv_t, w.inv_t), start=1):
                if not _close(a, b):
                    errors.append(f"{key}: 1/T at sample {i} is {a!r}, expected {b!r}")
                    break
    return errors


def _trajectory(rows: list[dict], where: str) -> Trajectory:
    """Rows of one stream, in order; only the last may carry a decision label."""
    for pos, row in enumerate(rows, start=1):
        if int(row["i"]) != pos:
            raise ValueError(f"{where}: sample index {row['i']} at row {pos}")
        if row["decision"] and pos != len(rows):
            raise ValueError(f"{where}: decision label before the last sample")
    last = rows[-1]
    decided_at = int(last["i"]) if last["decision"] else None
    return Trajectory(last["decision"], decided_at, [float(r["inv_T"]) for r in rows])


def read_simulate(csv_path) -> dict:
    """``{(hypothesis, trial_id): Trajectory}`` from a ``simulate`` records CSV."""
    groups: dict = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault((row["hypothesis"], int(row["trial_id"])), []).append(row)
    return {key: _trajectory(rows, f"{key}") for key, rows in groups.items()}


def check_simulate(csv_path, summary_path, want: dict) -> list[str]:
    try:
        got = read_simulate(csv_path)
        with open(summary_path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable simulate output: {exc}"]
    errors = compare(got, want)
    for hyp in ("target_present", "target_absent"):
        expected = Counter(t.decision or "undecided" for (h, _), t in want.items() if h == hyp)
        counts = {k: v for k, v in summary.get(hyp, {}).get("decisions", {}).items() if v}
        if counts != dict(expected):
            errors.append(f"summary {hyp} decisions {counts}, expected {expected}")
    return errors


def check_detect(stdout: str, trace_path, want: Trajectory) -> list[str]:
    try:
        report = json.loads(stdout)
        with open(trace_path, newline="") as fh:
            got = _trajectory(list(csv.DictReader(fh)), "trace")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable detect output: {exc}"]
    errors = compare({"stream": got}, {"stream": want})
    if report.get("samples_seen") != len(want.inv_t):
        errors.append(f"samples_seen {report.get('samples_seen')}, expected {len(want.inv_t)}")
    if report.get("decision") != (want.decision or "undecided"):
        errors.append(f"report decision {report.get('decision')}, expected {want.decision or 'undecided'}")
    final = report.get("final_inv_T")
    if not isinstance(final, float) or not _close(final, want.inv_t[-1]):
        errors.append(f"report final_inv_T {final!r}, expected {want.inv_t[-1]!r}")
    return errors
