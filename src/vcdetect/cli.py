"""Command-line front end: ``simulate``, ``detect`` and ``bound`` subcommands.

Exit codes: 0 success, 2 invalid input, 3 I/O failure.

A subcommand runs with numpy's OpenBLAS at one thread, and the caller's count
is put back when it returns. At the detector's sizes (n <= 1024, one sample
per step) a second thread only spins and starves a second run (README gives
the numbers). One thread also makes the output independent of the machine's
core count. Where ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` sets a
count, BLAS is left as the environment set it. Library calls
(``run_stream``, ``run_experiment``) never change the count.

``detect`` hands ``run_stream`` the whole sample array, which it may read
ahead (see ``run_stream``); the trace is the one-at-a-time loop's, byte for
byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bounds import BoundInputs, sample_bound_target_absent, sample_bound_target_present
from .detector import (_THRESHOLDS, DetectorConfig, _openblas_threads, run_stream,
                       write_trajectory_csv)
from .experiment import (
    PRESETS,
    load_experiment_config,
    run_experiment,
    summarize,
    write_records_csv,
)
from .geometry import SubspaceBasis

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _load_config_doc(spec: str) -> dict:
    if spec in PRESETS:
        return PRESETS[spec]
    try:
        with open(spec) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {spec!r} is not valid JSON: {exc}") from exc


def _cmd_simulate(args) -> int:
    doc = _load_config_doc(args.config)
    try:
        cfg = load_experiment_config(doc, master_seed=args.seed)
    except ValueError as exc:
        raise ValueError(f"invalid experiment config: {exc}") from exc
    records = run_experiment(cfg)
    summary = summarize(records)
    try:
        if args.out:
            write_records_csv(records, args.out)
            summary_path = args.out + ".summary.json"
            with open(summary_path, "w") as fh:
                json.dump(summary, fh, indent=2)
            print(f"wrote {len(records)} records to {args.out}")
            print(f"wrote summary to {summary_path}")
        else:
            json.dump(summary, sys.stdout, indent=2)
            print()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _load_matrix_csv(path: str, what: str) -> np.ndarray:
    try:
        rows = []
        width = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = [float(v) for v in line.split(",")]
                except ValueError as exc:
                    raise ValueError(f"{what} row {lineno}: {exc}") from exc
                if not all(np.isfinite(row)):
                    raise ValueError(f"{what} row {lineno} has a non-finite entry")
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ValueError(
                        f"{what} row {lineno} has {len(row)} entries, expected {width}"
                    )
                rows.append(row)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}") from exc
    if not rows:
        raise ValueError(f"{what} {path!r} is empty")
    return np.asarray(rows)


def _cmd_detect(args) -> int:
    samples = _load_matrix_csv(args.samples, "samples file")
    basis_mat = _load_matrix_csv(args.target_basis, "target basis file")
    if basis_mat.shape[0] != samples.shape[1]:
        raise ValueError(
            f"target basis has {basis_mat.shape[0]} rows but samples have "
            f"length {samples.shape[1]}"
        )
    try:
        target = SubspaceBasis(basis_mat)
    except ValueError as exc:
        raise ValueError(f"target basis: {exc}") from exc
    # A threshold flag left out takes DetectorConfig's default.
    given = {f: getattr(args, f) for f in _THRESHOLDS if getattr(args, f) is not None}
    cfg = DetectorConfig(
        target_basis=target,
        noise_variance_hint=args.sigma2,
        max_samples=args.max_samples if args.max_samples is not None else samples.shape[0],
        **given,
    )
    decision, trajectory = run_stream(cfg, samples)
    report = {
        "decision": decision.variant.value,
        "decided_at": decision.decided_at,
        "samples_seen": len(trajectory),
        "final_inv_T": trajectory[-1][2] if trajectory else None,
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    if args.trace:
        try:
            write_trajectory_csv(trajectory, decision, args.trace)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def _cmd_bound(args) -> int:
    try:
        eigs = tuple(float(v) for v in args.eigs.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --eigs value: {exc}") from exc
    rank = sum(1 for v in eigs if v > args.sigma2)
    # BoundInputs would name its signal_rank field, which no flag sets; a
    # non-finite value or sigma2 <= 0 is left to its own message.
    if rank == 0 and args.sigma2 > 0 and all(map(math.isfinite, (*eigs, args.sigma2))):
        raise ValueError(f"no --eigs value lies above --sigma2 {args.sigma2!r}")
    inputs = BoundInputs(
        eigenvalues=eigs,
        noise_variance=args.sigma2,
        ambient_dim=args.n,
        signal_rank=rank,
        delta=args.delta,
        epsilon=args.eps,
        target_dim=args.d2,
    )
    if args.hypothesis == "present":
        report = sample_bound_target_present(inputs)
    else:
        report = sample_bound_target_absent(inputs)
    print(report.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcdetect",
        description="Volume-correlation subspace detector: simulation, "
        "detection on sample files, and sample-size bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    sim.add_argument("--config", required=True, help="preset name or JSON config path")
    sim.add_argument("--seed", type=int, default=None, help="master seed override")
    sim.add_argument("--out", default=None, help="trajectory CSV output path")
    sim.set_defaults(func=_cmd_simulate)

    det = sub.add_parser("detect", help="run the detector over a CSV of samples")
    det.add_argument("--samples", required=True, help="CSV, one sample vector per row")
    det.add_argument("--target-basis", required=True, help="CSV, orthonormal n x d2 matrix")
    det.add_argument("--sigma2", type=float, default=None, help="noise variance hint")
    det.add_argument("--trace", default=None, help="write trajectory CSV here")
    det.add_argument("--gamma", dest="rank_gap_factor", type=float, default=None)
    det.add_argument("--t-div", dest="divergence_threshold", type=float, default=None)
    det.add_argument("--stall-epsilon", type=float, default=None)
    det.add_argument("--stall-patience", type=int, default=None)
    det.add_argument("--max-samples", type=int, default=None)
    det.set_defaults(func=_cmd_detect)

    bnd = sub.add_parser("bound", help="evaluate the sample-size bound")
    bnd.add_argument("--hypothesis", choices=("present", "absent"), required=True)
    bnd.add_argument("--eigs", required=True, help="comma-separated eigenvalues")
    bnd.add_argument("--sigma2", type=float, required=True)
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--delta", type=float, required=True)
    bnd.add_argument("--eps", type=float, required=True)
    bnd.add_argument("--d2", type=int, default=None, help="target dimension (present-case deviation)")
    bnd.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    threads = None if any(os.environ.get(v) for v in _THREAD_VARS) else _openblas_threads()
    if threads is not None:
        get, put = threads
        before = get()
        put(1)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if threads is not None:
            put(before)


if __name__ == "__main__":
    sys.exit(main())
