"""Timers, spans and per-module profiles around the benchmark's calls.

A `Recorder` times every call the benchmark makes into qnc4 and adds the
time to the current pass, under the name of the layer called.  With
tracing on it also keeps a span per call (name, start, end, parent span,
operation id) in memory, and runs a `cProfile.Profile` of its own for each
program layer while that layer's call is in progress, so module self time
can be read per layer as well as in total.  Tracing costs time, so
end-to-end numbers come from untraced passes only.

Every time is also scaled to a fixed host speed.  The host the benchmark
was tuned on changes speed by up to 1.7x for seconds at a time, and by
about 30% over tens of minutes, in wall and CPU time alike.  So a pass is
cut into segments of about SEGMENT_S seconds, and a fixed stdlib
`reference()` is timed at each cut.  When the run ends, every time is
multiplied by REFERENCE_S / (median of the NEAREST reference times taken
closest to it): it then reads as seconds on a host that runs
`reference()` in REFERENCE_S.  The median of several probes keeps the
jitter of a single probe out of the factor.  The raw times are kept beside
the scaled ones in the run record.
"""

import cProfile
import gc
import os
import pstats
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# modules whose self time and call counts the traced run reports
MODULES = (
    "qsim", "qcompiler", "efc", "qmath", "netgraph", "classical_eval",
    "fractions", "numpy",
)
_QNC4 = os.sep + "qnc4" + os.sep

# about the median seconds `reference()` takes on the tuning host; scaled
# times read as seconds on a host that runs it in exactly this long
REFERENCE_S = 0.03
# a pass is cut for a reference probe once a segment is this long
SEGMENT_S = 0.3
# reference probes whose median scales a time: those taken nearest to it,
# about 1.5 s of the run
NEAREST = 5


def reference() -> dict:
    """Fixed work of the kind the program does: exact rational arithmetic
    on growing denominators, and dict updates.  It uses only the stdlib,
    so no change to the program can change its cost."""
    acc: dict = {}
    x = Fraction(1, 3)
    step = Fraction(7, 9)
    for i in range(2000):
        x = x * step + Fraction(1, i + 2)
        if x.denominator.bit_length() > 256:
            x = Fraction(1, 3)
        acc[i & 31] = acc.get(i & 31, 0) + x
    return acc


def probe() -> float:
    """Seconds one `reference()` takes now, with the cyclic garbage
    collector held off so that it times the host and not a collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def module_of(filename: str, funcname: str) -> str:
    """Module a cProfile entry belongs to; C functions count toward numpy
    when numpy defines them, and toward no module otherwise."""
    if filename == "~":
        return "numpy" if "numpy" in funcname else "other"
    if _QNC4 in filename:
        return os.path.splitext(filename.rsplit(_QNC4, 1)[1])[0]
    if filename.endswith(os.sep + "fractions.py"):
        return "fractions"
    if os.sep + "numpy" + os.sep in filename:
        return "numpy"
    return "other"


def module_totals(profile: cProfile.Profile) -> dict[str, list]:
    """{module: [self seconds, calls]} summed over one profile."""
    out: dict[str, list] = {}
    for (filename, _, funcname), (_, calls, tottime, _, _) in (
        pstats.Stats(profile).stats.items()
    ):
        acc = out.setdefault(module_of(filename, funcname), [0.0, 0])
        acc[0] += tottime
        acc[1] += calls
    return out


class Recorder:
    """Per-pass layer timers, operation tallies and, when tracing, spans."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.passes: list[dict] = []
        self.attempted = 0
        self._failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.spans: list[dict] = []
        self.profiles: dict[str, cProfile.Profile] = {}
        self._stack: list[int] = []
        self._op = ""
        # (perf_counter() at the middle of a reference probe, its seconds)
        self.references: list[tuple[float, float]] = []
        # (pass, middle, raw seconds, {layer: seconds}, {layer: [call seconds]})
        # of every segment
        self.segments: list[tuple] = []

    # -- passes --------------------------------------------------------------

    def begin_pass(self, index: int) -> None:
        self.passes.append({
            "index": index, "pass_s": 0.0, "raw_pass_s": 0.0, "layer_s": {},
            "raw_layer_s": {}, "counts": {}, "samples": {}, "host_scale": [],
        })
        self._pass_span = self._open("pass", f"pass{index}")
        self._segment: dict[str, float] = {}
        self._segment_samples: dict[str, list] = {}
        self._probe()
        self._t_segment = time.perf_counter()

    def end_pass(self) -> None:
        self.calibrate()
        self._close(self._pass_span)

    def calibrate(self) -> None:
        """End the current segment of the pass and time `reference()`."""
        t = time.perf_counter()
        self.segments.append((
            len(self.passes) - 1, (self._t_segment + t) / 2, t - self._t_segment,
            self._segment, self._segment_samples,
        ))
        self._segment, self._segment_samples = {}, {}
        self._probe()
        self._t_segment = time.perf_counter()

    def _probe(self) -> None:
        span = self._open("host.reference", self._op)
        t0 = time.perf_counter()
        dt = probe()
        self._close(span)
        self.references.append((t0 + dt / 2, dt))

    def scale_at(self, t: float) -> float:
        """Factor that scales a time taken around perf_counter() `t` to the
        fixed host speed."""
        near = sorted(self.references, key=lambda r: abs(r[0] - t))[:NEAREST]
        return REFERENCE_S / statistics.median(dt for _, dt in near)

    def finish(self) -> None:
        """Add every segment's times to its pass, raw and scaled; call once,
        after the last pass."""
        for index, mid, raw, layers, samples in self.segments:
            scale = self.scale_at(mid)
            cur = self.passes[index]
            cur["raw_pass_s"] += raw
            cur["pass_s"] += raw * scale
            cur["host_scale"].append(scale)
            for name, dt in layers.items():
                cur["raw_layer_s"][name] = cur["raw_layer_s"].get(name, 0.0) + dt
                cur["layer_s"][name] = cur["layer_s"].get(name, 0.0) + dt * scale
            for name, xs in samples.items():
                cur["samples"].setdefault(name, []).extend(x * scale for x in xs)

    def _add(self, name: str, dt: float, sample: bool) -> None:
        self._segment[name] = self._segment.get(name, 0.0) + dt
        if sample:
            self._segment_samples.setdefault(name, []).append(dt)
        if time.perf_counter() - self._t_segment >= SEGMENT_S:
            self.calibrate()

    def count(self, name: str, n) -> None:
        counts = self.passes[-1]["counts"]
        counts[name] = counts.get(name, 0) + n

    # -- operations ------------------------------------------------------------

    def operation(self, op_id: str) -> None:
        """Name the operation that the following calls belong to."""
        self._op = op_id

    @property
    def failed(self) -> int:
        """Operations that failed; a failed check counts against the most
        recent operation, and each operation counts once."""
        return len(self._failed_ops)

    def fail(self, what: str) -> None:
        self._failed_ops.add(self.attempted)
        if len(self.failures) < 20:
            self.failures.append(f"{self._op}: {what}")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    @contextmanager
    def call(self, layer: str, profiled: bool = True):
        """Time one call into `layer`; it counts as one attempted operation.

        An exception escaping the call counts as a failed operation and is
        re-raised, so the caller can skip what depended on the result.
        """
        self.attempted += 1
        span = self._open(layer, self._op)
        prof = self.profiles.setdefault(layer, cProfile.Profile()) if (
            self.trace and profiled
        ) else None
        t0 = time.perf_counter()
        if prof is not None:
            prof.enable()
        try:
            yield
        except Exception as e:
            self.fail(f"{layer} raised {type(e).__name__}: {e}")
            raise
        finally:
            if prof is not None:
                prof.disable()
            dt = time.perf_counter() - t0
            self._close(span)
            self._add(layer, dt, sample=True)

    @contextmanager
    def check_span(self, name: str):
        """Time correctness checking, kept out of the module profiles.  A
        check that raises (say, on a missing result entry) counts as failed."""
        span = self._open(name, self._op)
        t0 = time.perf_counter()
        try:
            yield
        except Exception as e:
            self.fail(f"{name} raised {type(e).__name__}: {e}")
        finally:
            self._close(span)
            self._add(name, time.perf_counter() - t0, sample=False)

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str, op: str) -> int | None:
        if not self.trace:
            return None
        sid = len(self.spans)
        self.spans.append({
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
        })
        self._stack.append(sid)
        return sid

    def _close(self, sid: int | None) -> None:
        if sid is None:
            return
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def module_totals(self, layers=None) -> dict[str, list]:
        """{module: [self seconds, calls]} over the profiles of `layers`
        (all profiled layers by default)."""
        out: dict[str, list] = {}
        for layer, prof in self.profiles.items():
            if layers is not None and layer not in layers:
                continue
            for mod, (s, n) in module_totals(prof).items():
                acc = out.setdefault(mod, [0.0, 0])
                acc[0] += s
                acc[1] += n
        return out
