#!/usr/bin/env python3
"""Benchmark for vcdetect.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed generates the workload's
inputs; the program only sees the generated files. Each repetition runs the
``vcdetect`` CLI in a fresh child process and checks its outputs against the
frozen reference in ``reference.py``. The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones from a traced run (see README.md). The line before it
records the environment and per-repetition details.

BLAS thread variables are left as the caller set them, as a user runs the
CLI; the threads in effect are recorded with every result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 10  # set-up-only child launches per run, besides the repetitions
MIN_REPS = 3  # untraced repetitions (or traced/untraced pairs) per run, at least
DEADLINE_S = 165.0  # no repetition starts if it would end after this

DESK = ref.Geometry(n=256, d1=20, d2=5, snr_db=-10.0, seed=20240802)
DESK_TH = ref.Thresholds(2.0, 2.4, 0.02, 10, 100)
FULL = ref.Geometry(n=1024, d1=40, d2=10, snr_db=-10.0, seed=20240801)
# fig1_full's thresholds make each trial's length depend on its samples, so a
# run's work would vary ~2x between seeds. Passive thresholds (never decide)
# fix the work at the preset's 200-sample budget per trial.
FULL_TH = ref.Thresholds(2.0, 1e308, 0.016, 200, 200)
LONG_N = 256


class SimulateWorkload:
    """``vcdetect simulate`` on a preset, or on a JSON config the benchmark writes."""

    def __init__(self, geo, th, trials, preset=None, parallelism=1):
        self.geo, self.th, self.trials = geo, th, trials
        self.preset, self.parallelism = preset, parallelism

    def prepare(self, work: Path, seed: int) -> tuple[list[str], dict]:
        """Write the inputs; return the CLI arguments and the expected streams."""
        want = ref.simulate(self.geo, self.th, self.trials, seed)
        out = ["--out", str(work / "records.csv")]
        if self.preset:
            return ["simulate", "--config", self.preset, "--seed", str(seed), *out], want
        g, th = self.geo, self.th
        doc = {
            "scenario": {"n": g.n, "d1": g.d1, "d2": g.d2, "snr_db": g.snr_db, "seed": g.seed},
            "trials": self.trials,
            "max_samples": th.max_samples,
            "detector": {
                "use_noise_hint": True,
                "rank_gap_factor": th.rank_gap_factor,
                "divergence_threshold": th.divergence_threshold,
                "stall_epsilon": th.stall_epsilon,
                "stall_patience": th.stall_patience,
            },
            "parallelism": self.parallelism,
            "seed": seed,
        }
        (work / "config.json").write_text(json.dumps(doc, indent=2))
        return ["simulate", "--config", str(work / "config.json"), *out], want

    def check(self, work: Path, stdout: str, want: dict) -> list[str]:
        return check.check_simulate(work / "records.csv", work / "records.csv.summary.json", want)


class DetectWorkload:
    """``vcdetect detect`` on 2n generated samples with thresholds that never decide."""

    def prepare(self, work: Path, seed: int) -> tuple[list[str], dict]:
        """Write the inputs; return the CLI arguments and the expected stream."""
        geo = ref.Geometry(n=LONG_N, d1=20, d2=5, snr_db=-10.0, seed=seed)
        sc = ref.make_scenario(geo, present=True)
        rng = np.random.default_rng([seed, 1])
        samples = np.array([ref.draw_sample(sc, rng) for _ in range(2 * LONG_N)])
        sigma2 = geo.noise_variance(present=True)
        for name, mat in (("samples.csv", samples), ("basis.csv", sc.target)):
            # repr round-trips exactly, so the CLI's orthonormality check passes.
            (work / name).write_text("".join(",".join(map(repr, row)) + "\n" for row in mat.tolist()))
        th = ref.Thresholds(2.0, 1e308, 1e-3, 2 * LONG_N, 2 * LONG_N)
        want = ref.run_detector(samples, sc.target, sigma2, th)
        if want.decided_at is not None or len(want.inv_t) != 2 * LONG_N:
            raise RuntimeError("long_detect reference decided early; inputs are not passive")
        args = [
            "detect",
            "--samples", str(work / "samples.csv"),
            "--target-basis", str(work / "basis.csv"),
            "--sigma2", repr(sigma2),
            "--t-div", "1e308",
            "--stall-patience", str(2 * LONG_N),
            "--trace", str(work / "trajectory.csv"),
        ]
        return args, {("stream", 0): want}

    def check(self, work: Path, stdout: str, want: dict) -> list[str]:
        return check.check_detect(stdout, work / "trajectory.csv", want[("stream", 0)])


WORKLOADS = {
    "desk_sim": lambda: SimulateWorkload(DESK, DESK_TH, 50, preset="fig1_desk"),
    "full_sim": lambda: SimulateWorkload(FULL, FULL_TH, 1),
    "pool_sim": lambda: SimulateWorkload(DESK, DESK_TH, 50, parallelism=os.cpu_count() or 1),
    "long_detect": DetectWorkload,
}


def metric_units(section: str) -> dict:
    """Metric name -> unit, for one section of BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def environment() -> dict:
    """Machine, versions and BLAS threads in effect for this run's children."""
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = None
    env["blas_runtime_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                env["blas_runtime_threads"] = fn()
    with open("/proc/cpuinfo") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    env["cpu_model"] = models[0] if models else platform.processor()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    env["caches"] = caches
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(cli_args: list[str], work: Path, spans: bool, deadline: float) -> dict:
    """Run one child; return its exit code, timings and resource use."""
    timings = work / "timings.json"
    timings.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--timings", str(timings)]
    if spans:
        cmd += ["--spans", str(work / "spans.json")]
    if not cli_args:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(work / "stdout.txt", "w") as out, open(work / "stderr.txt", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([*cmd, "--", *cli_args], stdout=out, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)
        # Kill the child's whole process group (pool workers too) at the deadline.
        timer = threading.Timer(max(deadline - t0, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            _kill_group(proc.pid)  # workers a failed child left behind
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not timings.exists():
        raise SystemExit(f"child wrote no timings (exit {proc.returncode}): "
                         f"{(work / 'stderr.txt').read_text()[-2000:]}")
    t = json.loads(timings.read_text())
    if not Path(t["vcdetect_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported vcdetect from {t['vcdetect_file']}, not from {SRC}")
    res = {
        "rc": proc.returncode,
        "setup_s": t["t_imported"] - t0,
        "stdout": (work / "stdout.txt").read_text(),
    }
    if "t_end" in t:
        res["wall_s"] = t["t_end"] - t["t_start"]
        res["cpu_s"] = ru.ru_utime + ru.ru_stime - t["setup_cpu_s"]
        res["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    return res


def layer_metrics(doc: dict, wall_s: float, names) -> dict:
    """Per-layer counts, self times and latencies from one traced run.

    Counts and times are those of the spans named in spans.PATCHES; a layer
    the workload never calls reads 0.
    """
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_s):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + end - start - inner
    m = {}
    for key in names:
        base, _, stat = key.rpartition(".")
        if stat == "calls":
            m[key] = calls.get(base, 0)
        elif stat == "self_s":
            m[key] = self_s.get("cli.main" if base == "cli" else base, 0.0)
        elif stat == "s":
            m[key] = total.get(base, 0.0)
    for part in ("lt_n", "ge_n"):
        lat = [1e3 * x for x in doc["latency_s"][part]]
        m[f"detector.ingest.{part}.ms_p50"] = statistics.median(lat) if lat else 0.0
        m[f"detector.ingest.{part}.ms_p95"] = statistics.quantiles(lat, n=20)[18] if len(lat) > 1 else 0.0
    pool = doc["pool"]
    m["experiment.pool.cpu_s"] = pool["cpu_s"]
    m["experiment.pool.cpu_per_wall"] = pool["cpu_s"] / pool["wall_s"] if pool["wall_s"] else 0.0
    # Share of the traced wall outside every layer's self time: the trial and
    # stream loops' own time, and time outside cli.main.
    loops = ("experiment.run_experiment", "detector.run_stream")
    m["trace.unattributed_frac"] = 1.0 - sum(v for k, v in self_s.items() if k not in loops) / wall_s
    return m


def accuracy(want: dict) -> dict:
    """Share of trials decided correctly, per hypothesis (0 where there are none)."""
    out = {}
    for hyp, key in (("target_present", "present_correct_frac"), ("target_absent", "absent_correct_frac")):
        runs = [t for (h, _), t in want.items() if h == hyp]
        out[key] = sum(t.decision == hyp for t in runs) / len(runs) if runs else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    wl = WORKLOADS[workload]()
    work = HERE / "out" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli_args, want = wl.prepare(work, seed)
    ingests = sum(len(t.inv_t) for t in want.values())
    streams = len(want)

    launch([], work, False, deadline)  # warm-up: byte-compiles the sources
    setups = [launch([], work, False, deadline)["setup_s"] for _ in range(SETUP_LAUNCHES)]

    units = metric_units("per_layer" if trace else "end_to_end")
    reps, traced, errors = [], [], []
    t_measure = time.monotonic()
    while True:
        for spans in ((False, True) if trace else (False,)):
            res = launch(cli_args, work, spans, deadline)
            setups.append(res["setup_s"])
            stdout = res.pop("stdout")
            if res["rc"] or "wall_s" not in res:
                problems = [f"exit code {res['rc']}"]
            else:
                problems = wl.check(work, stdout, want)
            if problems:
                errors.append(problems[:3])
            res["ok"] = not problems
            if spans and "wall_s" in res:
                res["layers"] = layer_metrics(
                    json.loads((work / "spans.json").read_text()), res["wall_s"], units)
            (traced if spans else reps).append(res)
        elapsed = time.monotonic() - t_measure
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            break
        if time.monotonic() + per_rep > deadline:
            break

    attempted = len(reps) + len(traced)
    good = [r for r in reps if r["ok"]] or [r for r in reps if "wall_s" in r]
    good_t = [r for r in traced if r["ok"]] or [r for r in traced if "layers" in r]
    if not good or (trace and not good_t):
        raise SystemExit(f"no repetition of {workload} completed: {errors[:1]}")
    if trace:
        metrics = {
            key: statistics.median(r["layers"][key] for r in good_t)
            for key in units
            if key in good_t[0]["layers"]
        }
        metrics.update(accuracy(want))
        # Each traced run is compared with the untraced run just before it, so
        # drift of the machine between pairs cancels out.
        pairs = [(u, t) for u, t in zip(reps, traced) if u["ok"] and t["ok"]] or list(zip(good, good_t))
        metrics["trace_overhead_frac"] = statistics.median(t["wall_s"] / u["wall_s"] for u, t in pairs) - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in good),
            "cpu_s": statistics.median(r["cpu_s"] for r in good),
            "samples_per_s": statistics.median(ingests / r["wall_s"] for r in good),
            "trials_per_s": statistics.median(streams / r["wall_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "ingests": ingests,
        "streams": streams,
        "error_rate": len(errors) / attempted,
        "errors": errors[:5],
        **accuracy(want),
        "setup_s": setups,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps + traced],
        "run_s": time.monotonic() - started,
    }
    return result, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vcdetect" / "cli.py").is_file():
        print(f"error: no vcdetect sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "details": details}, indent=1))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
