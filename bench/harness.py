"""Timing, tracing and reporting shared by every benchmark workload.

A run times *passes*: one pass executes every operation of a workload once.
Inside a pass, ``Pass.op(phase)`` times a named phase (the end-to-end
metrics are sums of phases) and ``Pass.attempt(label)`` counts one checked
operation, so an exception or a failed check becomes a failure instead of a
crash.  ``HostClock`` runs a fixed calibration kernel between phases, so
that each phase time can be given at a reference host speed.  ``Tracer``
records spans around the benchmark's calls into ``hamlv`` when tracing is
on; when it is off, ``Tracer.call`` is a plain call.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

# The package's modules, which are the layers of the per-layer report.
MODULES = ("model", "canonical", "star", "persistence", "integrate",
           "averaging", "resonance", "ensemble", "cli", "util")
BENCH_LAYER = "bench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads():
    """Give BLAS one thread, so that ``parallel=2`` means two threads.

    numpy uses scipy-openblas, which is threaded; the setting only takes
    effect if it is made before numpy is first imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference or cross-check."""


# Seconds the calibration kernel takes at the reference host speed: about
# its median on the 2-vCPU Intel Xeon VM the baseline was measured on.
CALIBRATION_REF_S = 0.03
# A phase starts with a kernel sample if none was taken this recently (s).
SAMPLE_INTERVAL_S = 0.25
# After a phase of this length or more (s), the kernel runs several times.
LONG_PHASE_S = 1.0
LONG_PHASE_SAMPLES = 3
# Samples this close to a phase (s) set its host speed.
HALO_S = 1.0


class HostClock:
    """The host's speed, from a fixed calibration kernel run between phases.

    On a shared machine the same call can take twice as long from one
    minute to the next.  The kernel calls no hamlv code.  It runs
    pure-Python bytecode, small numpy array operations, a dense eigenvalue
    problem and a HiGHS LP on fixed data, the kinds of work the workloads
    do, so its time changes only with the host.  A phase's time at the
    reference speed is its measured time times ``CALIBRATION_REF_S`` over
    the median kernel time of the samples taken around it.
    """

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog
        self._np, self._linprog = np, linprog
        rng = np.random.default_rng(20151002)
        self._x = rng.uniform(-1.0, 1.0, 4)
        self._m = rng.uniform(-0.5, 0.5, (4, 4))
        self._dense = rng.uniform(-1.0, 1.0, (12, 12))
        self._lp = (rng.uniform(-1.0, 1.0, 30),
                    rng.uniform(0.1, 1.0, (20, 30)), np.ones(20))
        self.samples = []   # (midpoint, seconds) of every kernel run
        self._last = -math.inf
        self._kernel()      # first call pays for lazy set-up; not a sample

    def _kernel(self):
        np = self._np
        acc, table = 0, {}
        for i in range(25000):
            acc = (acc * 31 + i) % 1000003
            table[i % 97] = table.get(i % 97, 0) + acc
        x = self._x
        for _ in range(1200):
            x = np.tanh(self._m @ np.exp(np.clip(x, -5.0, 5.0))) + self._x
        for _ in range(50):
            np.linalg.eigvals(self._dense + x[0])
        c, A, b = self._lp
        for _ in range(4):
            self._linprog(c, A_ub=A, b_ub=b, bounds=(0, 1), method="highs")
        return acc

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.samples.append((0.5 * (t0 + t1), t1 - t0))
        self._last = time.perf_counter()

    def before_phase(self):
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def after_phase(self, seconds):
        if seconds >= LONG_PHASE_S:
            self.sample(LONG_PHASE_SAMPLES)

    def kernel_s(self, start=-math.inf, end=math.inf):
        """Median kernel time over the samples within HALO_S of [start, end].

        ``before_phase`` leaves a sample within SAMPLE_INTERVAL_S of the
        start of every phase, so a phase always has one.
        """
        return statistics.median(s for mid, s in self.samples
                                 if start - HALO_S <= mid <= end + HALO_S)

    def at_reference(self, seconds, start=-math.inf, end=math.inf):
        """``seconds`` measured over [start, end], at the reference speed."""
        return seconds * CALIBRATION_REF_S / self.kernel_s(start, end)


def metric(value, unit, **extra):
    """A metric as the report prints it: value, unit and any extra fields."""
    return {"value": value, "unit": unit, **extra}


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def layer_of(fn):
    """(module, qualified function name) of a hamlv callable."""
    module = getattr(fn, "__module__", "") or ""
    short = module.rsplit(".", 1)[-1] if module.startswith("hamlv") else module
    return short, getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))


def counts_of(result):
    """Counts a hamlv call returned: solver evaluations, steps, trials."""
    counts = {}
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        if "nfev" in meta:
            counts["nfev"] = int(meta["nfev"])
        if "n_steps" in meta:
            counts["steps"] = int(meta["n_steps"])
    config = getattr(result, "config", None)
    if config is not None and hasattr(config, "trials"):
        counts["trials"] = int(config.trials) * max(
            1, len(config.params.get("mix_grid", [None])))
    if isinstance(result, dict) and "trials" in result:
        counts["trials"] = int(result["trials"])
    if isinstance(result, int) and not isinstance(result, bool):
        counts["exit_code"] = result
    return counts


class Tracer:
    """In-memory spans around calls into hamlv; written out when the run ends.

    A span has an id, the id of the span that was open when it started, the
    workload, the pass, the module and function, start and end (seconds on
    ``time.perf_counter``) and the counts the call returned.  Spans are only
    opened from the main thread.
    """

    def __init__(self, workload):
        self.workload = workload
        self.enabled = False
        self.pass_index = None
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._lp_lock = threading.Lock()
        self.lp_calls = 0

    @contextmanager
    def span(self, module, function):
        """Open a span; yields the dict its counts go into."""
        if not self.enabled:
            yield {}
            return
        record = {"id": self._next_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload, "pass": self.pass_index,
                  "name": f"{module}.{function}", "module": module,
                  "function": function, "counts": {}}
        self._next_id += 1
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named after fn when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        module, function = layer_of(fn)
        with self.span(module, function) as counts:
            result = fn(*args, **kwargs)
            counts.update(counts_of(result))
        return result

    @contextmanager
    def patched(self, targets):
        """Route the named attributes through ``call`` while tracing.

        ``targets`` is a list of (owner, attribute) pairs.  The benchmark
        uses it only around ``cli.main``, whose subcommands look the layer
        functions up at call time, so the spans of one CLI run nest the
        layer calls it makes.  Attributes are restored on exit.
        """
        if not self.enabled:
            yield
            return
        saved = []
        try:
            for owner, attr in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._traced(original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _traced(self, fn):
        def traced(*args, **kwargs):
            return self.call(fn, *args, **kwargs)
        return traced

    @contextmanager
    def counting_lp(self, persistence_module):
        """Count ``linprog`` calls made by hamlv.persistence while tracing."""
        if not self.enabled:
            yield
            return
        original = persistence_module.linprog

        def counted(*args, **kwargs):
            with self._lp_lock:
                self.lp_calls += 1
            return original(*args, **kwargs)

        persistence_module.linprog = counted
        try:
            yield
        finally:
            persistence_module.linprog = original

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class Pass:
    """One execution of every operation of a workload."""

    def __init__(self, tracer, refs, traced, log, clock=None):
        self.tracer = tracer
        self.refs = refs
        self.traced = traced
        self.log = log
        self.clock = clock
        self.index = tracer.pass_index
        self.phases = {}
        self.intervals = []   # (phase, start, end) of every timed phase
        self.counts = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @property
    def wall(self):
        return sum(self.phases.values())

    def phases_at_reference(self):
        """Phase times at the reference host speed (needs a clock)."""
        out = {}
        for phase, start, end in self.intervals:
            out[phase] = out.get(phase, 0.0) + self.clock.at_reference(
                end - start, start, end)
        return out

    def call(self, fn, *args, **kwargs):
        return self.tracer.call(fn, *args, **kwargs)

    @contextmanager
    def op(self, phase):
        """Time a phase of the pass; a span of the bench layer when tracing.

        With a clock, the calibration kernel runs before and after the
        phase, outside its time.
        """
        if self.clock is not None:
            self.clock.before_phase()
        start = time.perf_counter()
        try:
            with self.tracer.span(BENCH_LAYER, phase):
                yield
        finally:
            end = time.perf_counter()
            self.phases[phase] = self.phases.get(phase, 0.0) + end - start
            self.intervals.append((phase, start, end))
            if self.clock is not None:
                self.clock.after_phase(end - start)

    @contextmanager
    def attempt(self, label):
        """One checked operation: any exception inside counts as a failure."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed operation must not stop the run
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CheckFailed):
                self.log(traceback.format_exc())

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def against_ref(self, key, value, rtol=None):
        """Compare with the stored reference; record it when regenerating."""
        self.refs.check(key, value, rtol)


class References:
    """Reference outputs of one workload and size, taken at a fixed commit.

    ``fixed`` entries belong to inputs that do not depend on the seed and
    apply to every run; ``seeded`` entries belong to the default seed only.
    With ``recording`` set, checks store the values instead.
    """

    def __init__(self, fixed, seeded, recording=False):
        self.fixed = fixed
        self.seeded = seeded
        self.recording = recording

    def check(self, key, value, rtol=None):
        table = self.fixed if key.startswith("fixed.") else self.seeded
        if self.recording:
            if table is not None:
                table[key] = value
            return
        if table is None or key not in table:
            return  # no stored reference: the cross-checks stand alone
        ref = table[key]
        if rtol is None:
            expect(value == ref, f"{key} = {value!r}, reference {ref!r}")
            return
        values, refs = (value, ref) if isinstance(ref, list) else ([value],
                                                                   [ref])
        expect(len(values) == len(refs), f"{key}: {len(values)} values, "
                                         f"reference has {len(refs)}")
        for v, r in zip(values, refs):
            expect(abs(v - r) <= rtol * abs(r),
                   f"{key} = {v!r}, reference {r!r} (rtol {rtol:g})")


def measure(run_pass, tracer, seconds, trace):
    """Run passes for about ``seconds``; returns the list of finished passes.

    Another pass (with tracing, another untraced and traced pair) starts only
    if it is expected to end within the budget, so a run measures at most
    ``seconds`` unless a single pass takes longer; there is always at least
    one.  In a traced run the untraced and traced passes alternate.
    """
    plan = (False, True) if trace else (False,)
    passes = []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for traced in plan:
            tracer.enabled = traced
            tracer.pass_index = len(passes)
            passes.append(run_pass(traced))
        tracer.enabled = False
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return passes


def tail_summary(values):
    """Median, and the highest percentile with ten or more samples above."""
    xs = sorted(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) >= 11:
        i = len(xs) - 11
        out["tail_pct"] = math.floor(100 * (i + 1) / len(xs))
        out["tail"] = xs[i]
    return out


def self_times(spans):
    """Per span id: its duration minus the durations of its direct children."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in spans}


def layer_table(spans):
    """Per module: calls, total time and self time, summed over the spans."""
    selfs = self_times(spans)
    table = {m: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
             for m in MODULES + (BENCH_LAYER,)}
    for s in spans:
        row = table.setdefault(s["module"],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return table


def covered_time(spans):
    """Length of the union of the module spans that run inside a phase.

    A module span counts when one of its ancestors is a phase (a bench
    span); calls made between phases are outside the pass's time.
    """
    by_id = {s["id"]: s for s in spans}

    def in_phase(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["module"] == BENCH_LAYER:
                return True
        return False

    intervals = sorted((s["start"], s["end"]) for s in spans
                       if s["module"] != BENCH_LAYER and in_phase(s))
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def source_loc(src):
    """Lines in the package's Python files (the ROADMAP's source LOC)."""
    total = 0
    for path in sorted(Path(src).glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def git_commit(root):
    """HEAD of the checkout read from .git without starting a process."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
        "src_loc": source_loc(Path(root) / "src" / "hamlv"),
    }
