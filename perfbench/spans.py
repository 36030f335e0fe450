"""In-memory span tracer for the traced benchmark run.

Wraps module attributes of vcdetect from outside the program: each call
through a wrapped attribute records a span ``[name, start, end, parent]``.
Spans stay in memory and are written out once, when the run ends. Calls made
inside forked pool workers are recorded in the workers' memory and lost, so
for a process pool only the spans of the calling process are reported.
"""

from __future__ import annotations

import importlib
import resource
import time

# (module, attribute path, span name). The attribute is patched where the
# caller looks it up: ``from .detector import ingest`` binds a name in the
# importing module, so both importers of ``ingest`` are patched. A missing
# attribute is skipped, so the trace keeps working when the program changes.
PATCHES = [
    ("vcdetect.cli", "run_experiment", "experiment.run_experiment"),
    ("vcdetect.cli", "summarize", "experiment.summarize"),
    ("vcdetect.cli", "write_records_csv", "experiment.write_records_csv"),
    ("vcdetect.cli", "run_stream", "detector.run_stream"),
    ("vcdetect.cli", "write_trajectory_csv", "detector.write_trajectory_csv"),
    ("vcdetect.experiment", "make_scenario", "scenario.make_scenario"),
    ("vcdetect.experiment", "draw_sample", "scenario.draw_sample"),
    ("vcdetect.experiment", "ingest", "detector.ingest"),
    ("vcdetect.detector", "ingest", "detector.ingest"),
    ("vcdetect.detector", "estimate_rank", "detector.estimate_rank"),
    ("vcdetect.detector", "decide", "detector.decide"),
    ("vcdetect.detector", "symmetric_eig", "geometry.symmetric_eig"),
    ("vcdetect.detector", "stacked_log_volume", "geometry.stacked_log_volume"),
    # The orthonormality check runs in __post_init__; wrapping the method
    # keeps the class itself (and pickling of its instances) unchanged.
    ("vcdetect.geometry", "SubspaceBasis.__post_init__", "geometry.SubspaceBasis"),
]


def _cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # Per-sample latency from the detect stream, split at sample index n.
        self.latency_s: dict[str, list[float]] = {"lt_n": [], "ge_n": []}
        # CPU and wall time of run_experiment: the caller plus its pool workers.
        self.pool = {"cpu_s": 0.0, "wall_s": 0.0}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _pool_meter(self, fn):
        def run_experiment(*args, **kwargs):
            cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.pool["wall_s"] += time.perf_counter() - t0
                self.pool["cpu_s"] += (
                    _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
                )

        return run_experiment

    def _stamped(self, fn):
        """run_stream with a sample iterator that timestamps each hand-over."""
        latency = self.latency_s

        def run_stream(cfg, samples):
            stamps: list[float] = []
            dims: list[int] = []

            def stamped():
                for y in samples:
                    if not dims:
                        dims.append(len(y))
                    stamps.append(time.perf_counter())
                    yield y

            try:
                return fn(cfg, stamped())
            finally:
                stamps.append(time.perf_counter())
                for i in range(1, len(stamps)):
                    latency["lt_n" if i < dims[0] else "ge_n"].append(stamps[i] - stamps[i - 1])

        return run_stream

    def install(self) -> None:
        for module_name, path, span in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            if span == "experiment.run_experiment":
                fn = self._pool_meter(fn)
            elif span == "detector.run_stream":
                fn = self._stamped(fn)
            setattr(owner, attr, self.wrap(span, fn))

    def dump(self) -> dict:
        return {"spans": self.spans, "latency_s": self.latency_s, "pool": self.pool}
