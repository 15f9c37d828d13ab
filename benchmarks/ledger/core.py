"""Shared machinery of the perf ledger: robust statistics, the host-speed
meter, the span recorder, the unit scheduler, scratch directories and
environment provenance.

Nothing here imports :mod:`repro`; the sections and probes do.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUTPUT = HERE / "output"

#: `--seconds` value the committed sizes were calibrated for on the 2-core
#: sizing box; other values scale the focus section's repetition counts
CALIBRATED_SECONDS = 20.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


def quartile_spread(xs) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) the way the driver takes them."""
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def trimmed_mean(xs) -> float:
    """Mean of ``xs`` without its lowest and highest eighth."""
    s = sorted(xs)
    k = len(s) // 8
    return float(statistics.fmean(s[k:len(s) - k]))


def lap(t0: float) -> tuple[float, float]:
    """(mid-time, duration) of an operation that started at ``t0``."""
    t1 = time.perf_counter()
    return 0.5 * (t0 + t1), t1 - t0


def columnwise_median_sum(rows: list[list[float]]) -> float:
    """Sum over positions of the median across repetitions.

    The adaptive run and the campaign are deterministic sequences of
    operations repeated a few times; composing the total from per-position
    medians keeps one multi-second slow burst of a noisy host from moving
    the total, which a median of whole-repetition sums would not.
    """
    n = min(len(r) for r in rows)
    return float(sum(median([r[i] for r in rows]) for i in range(n)))


# ---------------------------------------------------------------------------
# machine-speed index
# ---------------------------------------------------------------------------

class SpeedMeter:
    """How fast the host executes right now, next to a nominal quiet host.

    The sizing box does not run at one speed: for tens of seconds at a time
    interpreter-bound code is 1.3–1.8× slower and NumPy kernels 1.1–1.7×,
    while a large memcpy does not change and no steal time is charged — a
    neighbour on the core, not us.  That is several times the regression
    bounds and swamps run-to-run comparisons.  So a fixed reference kernel
    that does not touch the program under test (JSON round trips and an
    integer loop, about 1 ms) is sampled before and after every unit, and
    every timed operation is divided by the slow-down of the four samples
    nearest to it in time (the host can change speed from one second to the
    next): *reference seconds*, what the operation takes when the reference
    runs at its nominal speed.  A change to the program moves its
    reference-second timings exactly as it moves its wall-clock timings; a
    slow minute of the host moves neither.  The solver step, queue ops and
    request latencies all track this one kernel with exponents of 0.8–1.2;
    on the sizing box it cut the spread of ten runs from 13–39 % to 3–15 %.

    The host changes speed every 0.1–1 s, so readings taken before and
    after an operation of a tenth of a second or more say little about the
    speed inside it (repeats of one 0.9-second solver step, priced that
    way, scattered as much as unpriced).  :meth:`long_op` therefore reads
    the kernel *inside* such an operation, from an interval timer's signal
    handler every :attr:`TICK` seconds, takes the handler's own time off
    the operation, and prices it by the trimmed mean of those readings,
    which brought the scatter of those repeats from 6–9 % to 2–4 %.
    Readings inside an operation run cache-cold and come out about 1.2×
    slower than the warm ones between operations; every metric is always
    priced one way or always the other, so the factor is a constant of the
    metric.
    """

    #: quiet-host time of the kernel on the sizing box, seconds
    NOMINAL = 0.90e-3
    MIN_GAP = 0.02  # seconds: units shorter than this share a sample
    TICK = 0.02     # seconds between readings inside a long operation

    def __init__(self):
        self._doc = {f"k{i}": {"a": i, "b": [i, i + 1.5, str(i)],
                               "c": {"x": i * 0.5}} for i in range(40)}
        self.samples: list[tuple[float, float]] = []
        self._last = 0.0
        self._inside: dict[float, float] = {}  # long op mid-time → slow-down
        self._ticks: list[float] | None = None
        self._armed = False
        #: the traced run reads nothing inside operations, so that its spans
        #: hold the program's time only
        self.ticking = True

    def _kernel(self) -> int:
        x = 0
        for _ in range(6):
            x += len(json.loads(json.dumps(self._doc)))
        for i in range(6000):
            x += i * i
        return x

    def sample(self) -> None:
        """Median of three back-to-back calls after an untimed one, so the
        reading is a warm-cache one whatever unit ran just before."""
        start = time.perf_counter()
        self._kernel()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append((start, median(times)))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.MIN_GAP:
            self.sample()

    def index_near(self, t: float) -> float:
        """Slow-down factor at time ``t`` (1.0 on a quiet host): median of
        the two samples before it and the two after."""
        mid = bisect.bisect_left(self.samples, (t,))
        lo, hi = max(0, mid - 2), min(len(self.samples), mid + 2)
        return median([s[1] for s in self.samples[lo:hi]]) / self.NOMINAL

    def index_for(self, timed: tuple[float, float]) -> float:
        """Slow-down factor that prices one timed operation: the readings
        inside it if :meth:`long_op` took it, else those around it."""
        return self._inside.get(timed[0]) or self.index_near(timed[0])

    def _on_tick(self, signum, frame) -> None:
        ticks = self._ticks
        if ticks is None:  # a signal that was on its way when the op ended
            return
        self._ticks = None  # never two readings nested
        t0 = time.perf_counter()
        self._kernel()
        ticks.append(time.perf_counter() - t0)
        self._ticks = ticks

    def long_op(self, fn, *args, **kwargs):
        """Call ``fn`` — an operation of a tenth of a second or more, on
        the main thread — and return ``((mid-time, duration), result)``,
        the duration without the time of the readings taken inside it."""
        if not self._armed:
            signal.signal(signal.SIGALRM, self._on_tick)
            self._armed = True
        ticks = self._ticks = []
        t0 = time.perf_counter()
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, self.TICK, self.TICK)
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            t1 = time.perf_counter()
            self._ticks = None
        timed = (0.5 * (t0 + t1), t1 - t0 - sum(ticks))
        if len(ticks) >= 3:
            self._inside[timed[0]] = trimmed_mean(ticks) / self.NOMINAL
        return timed, result


# ---------------------------------------------------------------------------
# span recorder
# ---------------------------------------------------------------------------

class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """In-memory span recorder (name, start, end, parent, unit id).

    Disabled (the untraced run) it records nothing and installs no patch,
    so the end-to-end numbers never pay for it.  Spans nest through a
    per-thread stack; ``unit`` is the id shared by every span of one step,
    request or job.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.unavailable: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restores: list = []
        self.unit = ""

    # -- recording ---------------------------------------------------------
    def span(self, name: str, **args):
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name, args)

    @contextlib.contextmanager
    def _span(self, name: str, args: dict):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = {"name": name, "unit": self.unit, "tid": threading.get_ident(),
               "parent": stack[-1] if stack else None, "args": args,
               "t0": time.perf_counter(), "t1": None}
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            stack.pop()

    # -- patching ----------------------------------------------------------
    def wrap(self, module: str, attr: str, name: str) -> None:
        """Wrap ``module.attr`` (``Class.method`` allowed) in a span.

        An entry point that no longer exists is recorded in
        :attr:`unavailable`; the metrics that depend on it read ``null``
        instead of failing the run.
        """
        if not self.enabled:
            return
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError) as exc:
            self.unavailable[name] = f"{module}.{attr}: {exc}"
            return
        tracer = self

        def traced(*a, **kw):
            with tracer._span(name, {}):
                return fn(*a, **kw)

        traced.__wrapped__ = fn
        setattr(owner, leaf, traced)
        self._restores.append((owner, leaf, fn))

    def restore(self) -> None:
        while self._restores:
            owner, leaf, fn = self._restores.pop()
            setattr(owner, leaf, fn)

    # -- queries -----------------------------------------------------------
    def durations(self, name: str, *, unit_prefix: str = "") -> list[float]:
        return [s["t1"] - s["t0"] for s in self.spans
                if s["name"] == name and s["t1"] is not None
                and s["unit"].startswith(unit_prefix)]

    def _child_sums(self) -> dict[int, float]:
        """Span index → total duration of its direct children."""
        child_sum: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None and s["t1"] is not None:
                child_sum[s["parent"]] = (child_sum.get(s["parent"], 0.0)
                                          + s["t1"] - s["t0"])
        return child_sum

    def self_times(self, name: str, *, unit_prefix: str = "") -> list[float]:
        """Span duration minus the part its direct children cover."""
        child_sum = self._child_sums()
        return [s["t1"] - s["t0"] - child_sum.get(i, 0.0)
                for i, s in enumerate(self.spans)
                if s["name"] == name and s["t1"] is not None
                and s["unit"].startswith(unit_prefix)]

    def self_time_by_name(self, skip_units: tuple[str, ...]) -> dict:
        """Total self time per span name, leaving out the units whose id
        starts with one of ``skip_units`` (set-up, probes)."""
        child_sum = self._child_sums()
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s["t1"] is None or s["unit"].startswith(skip_units):
                continue
            out[s["name"]] = (out.get(s["name"], 0.0) + s["t1"] - s["t0"]
                              - child_sum.get(i, 0.0))
        return out

    def write_chrome_trace(self, path: pathlib.Path) -> None:
        t_base = min((s["t0"] for s in self.spans), default=0.0)
        events = [
            {"name": s["name"], "ph": "X", "pid": os.getpid(),
             "tid": s["tid"], "ts": (s["t0"] - t_base) * 1e6,
             "dur": (s["t1"] - s["t0"]) * 1e6,
             "args": {"unit": s["unit"], "span": i, "parent": s["parent"],
                      **s["args"]}}
            for i, s in enumerate(self.spans) if s["t1"] is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


# ---------------------------------------------------------------------------
# sections and the scheduler
# ---------------------------------------------------------------------------

class Section:
    """One measured path of the system at one size.

    ``setup`` builds everything through the first warm-up operation and may
    be called again after ``teardown``; ``units`` is a generator whose every
    ``next`` performs one small timed unit of work, so the scheduler can
    interleave sections; ``finish`` turns the samples into metrics.
    """

    name = ""

    def __init__(self, size_name: str, size: dict, ctx: "Context"):
        self.size_name = size_name
        self.size = size
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, label: str, ok, detail: str = "") -> None:
        self.checks.append((f"{self.name}: {label}", bool(ok), str(detail)))

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def planned_units(self) -> int:
        raise NotImplementedError

    def units(self):
        raise NotImplementedError

    def finish(self) -> tuple[dict, dict]:
        """(end-to-end metrics, per-layer metrics) of this section."""
        raise NotImplementedError


class Context:
    """What a section needs from the run: seed, tracer, scratch, scaling."""

    def __init__(self, *, seed: int, tracer: Tracer, meter: SpeedMeter,
                 scratch: pathlib.Path, scale: float, expected: dict):
        self.seed = seed
        self.tracer = tracer
        self.meter = meter
        self.scratch = scratch
        self.scale = scale
        self.expected = expected
        self._dirs = 0

    def fresh_dir(self, label: str) -> pathlib.Path:
        self._dirs += 1
        path = self.scratch / f"{label}-{self._dirs:03d}"
        path.mkdir(parents=True)
        return path

    def ref(self, timed: tuple[float, float]) -> float:
        """A timed operation in reference seconds (see :class:`SpeedMeter`)."""
        return timed[1] / self.meter.index_for(timed)

    def scaled(self, count: int, *, focus: bool, least: int = 1) -> int:
        """Repetition count for this run's ``--seconds`` (focus only)."""
        if not focus:
            return count
        return max(least, round(count * self.scale))


def interleave(sections: list[Section], meter: SpeedMeter) -> None:
    """Run every section's units, spread evenly over the whole window.

    Each tick advances the section that is furthest behind its plan, so a
    section with 12 units and one with 60 both have samples from the first
    to the last second of the run; a slow burst of the host then touches a
    minority of every metric's samples instead of all samples of one.
    """
    gens = [(s, s.units(), max(1, s.planned_units())) for s in sections]
    done = [0] * len(gens)
    live = set(range(len(gens)))
    while live:
        i = min(live, key=lambda j: (done[j] / gens[j][2], j))
        meter.maybe_sample()  # every unit is bracketed by two samples
        try:
            next(gens[i][1])
            done[i] += 1
        except StopIteration:
            live.discard(i)
    meter.sample()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def pin_to_one_cpu() -> int | None:
    """Keep this process, and the children that inherit its mask, on one
    CPU; returns it (None where the platform will not say or will not pin).

    Everything the ledger runs is single-threaded or takes turns (the load
    generator waits for the front, the front for the generator), so nothing
    is lost — and the host's cores change speed independently of each
    other, so a host-speed reading only prices the work that ran on the
    core it was taken on.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


@contextlib.contextmanager
def scratch_root():
    """One temp root inside the checkout, removed on exit."""
    root = OUTPUT / f"tmp-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def llc_bytes() -> int:
    """Largest cache the OS reports for cpu0 (the last-level cache)."""
    best = 0
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for size_file in base.glob("index*/size"):
            text = size_file.read_text().strip().upper()
            mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
            best = max(best, int(text.rstrip("KMG")) * mult)
    except (OSError, ValueError):
        pass
    return best


def env_info(backend_info: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": (sorted(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else None),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend_info": backend_info,
        "git_sha": _git_sha(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }
