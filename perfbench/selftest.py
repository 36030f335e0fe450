#!/usr/bin/env python3
"""Self-test of the benchmark's output check and reference.

    python3 perfbench/selftest.py

Run from the root of a source checkout; exits 0 when every case holds:

1. The frozen reference reproduces ``seed0_outputs.json``, outputs of
   vcdetect 0.1.0 recorded for seed 0 (desk_sim trials 0-9 of each
   hypothesis, and the whole long_detect stream), within the check's
   tolerance.
2. The CLI's own output on desk_sim and long_detect at seed 0 passes the check.
3. A copy of that output with one decision flipped, or with one 1/T off by
   1e-6 relative, fails it; one 1/T off by 1e-11 relative still passes.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

import check
import reference as ref
import run

RECORDED = Path(__file__).resolve().parent / "seed0_outputs.json"


def _rewrite_csv(src: Path, dst: Path, edit) -> None:
    """Copy a CSV, applying ``edit(rows)`` to its data rows."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[1:], rows[0])
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _scale_inv_t(factor: float, at: int):
    def edit(rows, header):
        col = header.index("inv_T")
        rows[at][col] = repr(float(rows[at][col]) * factor)

    return edit


def _flip_decision(rows, header):
    col = header.index("decision")
    last = rows[-1] if not any(r[col] for r in rows) else next(r for r in rows if r[col])
    last[col] = "target_absent" if last[col] == "target_present" else "target_present"


def main() -> int:
    failures = []

    def expect(label: str, errors: list[str], should_fail: bool) -> None:
        ok = bool(errors) == should_fail
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {errors[0] if errors else 'passes'}")
        if not ok:
            failures.append(label)

    recorded = json.loads(RECORDED.read_text())
    desk = ref.simulate(run.DESK, run.DESK_TH, 10, 0)
    want = {(h, int(t)): ref.Trajectory(*v) for key, v in recorded["desk_sim"].items()
            for h, t in [key.split("/")]}
    expect("reference reproduces recorded desk_sim", check.compare(desk, want), False)

    deadline = time.monotonic() + 170.0
    for name, scaled_row in (("desk_sim", 5), ("long_detect", 300)):
        wl = run.WORKLOADS[name]()
        work = Path(__file__).resolve().parent / "out" / f"selftest-{name}"
        work.mkdir(parents=True, exist_ok=True)
        cli_args, expected = wl.prepare(work, 0)
        if name == "long_detect":
            rec = {("stream", 0): ref.Trajectory(*recorded["long_detect"])}
            expect("reference reproduces recorded long_detect", check.compare(expected, rec), False)
        res = run.launch(cli_args, work, False, deadline)
        out = work / ("records.csv" if name == "desk_sim" else "trajectory.csv")
        expect(f"{name}: CLI output", wl.check(work, res["stdout"], expected), False)

        pristine = work / "pristine.csv"
        out.replace(pristine)
        cases = (
            ("one decision flipped", _flip_decision, True),
            ("one 1/T off by 1e-6 relative", _scale_inv_t(1 + 1e-6, scaled_row), True),
            ("one 1/T off by 1e-11 relative", _scale_inv_t(1 + 1e-11, scaled_row), False),
        )
        for label, edit, should_fail in cases:
            _rewrite_csv(pristine, out, edit)
            expect(f"{name}: {label}", wl.check(work, res["stdout"], expected), should_fail)
    print("selftest", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
