"""Shared machinery of the benchmark: spans, checks, the host probe,
timed steps and the environment fingerprint.

Nothing here imports calderon at module level; the workload modules do.
"""

import importlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

STAGES = "stages"


# ---------------------------------------------------------------------------
# tracing


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name):
        return self._span

    def add(self, name, value):
        pass

    def maximum(self, name, value):
        pass


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        self.parent = tr._stack[-1] if tr._stack else None
        tr.spans.append(None)
        tr._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.sid] = (self.sid, self.name, self.parent, self.start, end, tr.pass_id)
        return False


class Tracer:
    """In-memory spans ``(id, name, parent, start, end, pass_id)`` plus
    per-pass counters recorded at the same call boundaries."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = None
        self.counters = {}
        self.absent = []

    def span(self, name):
        return _Span(self, name)

    def find(self, path):
        """The function at ``package.module.name``, or None when it no
        longer exists: a stage whose function is gone is listed in
        ``absent`` and skipped instead of failing the run."""
        module, _, name = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            if path not in self.absent:
                self.absent.append(path)
            return None

    def _bucket(self):
        return self.counters.setdefault(self.pass_id, {})

    def add(self, name, value):
        bucket = self._bucket()
        bucket[name] = bucket.get(name, 0) + value

    def maximum(self, name, value):
        bucket = self._bucket()
        bucket[name] = max(bucket.get(name, value), value)

    def busy(self):
        """{pass_id: {span name: summed duration}}."""
        out = {}
        for _, name, _, start, end, pid in self.spans:
            per = out.setdefault(pid, {})
            per[name] = per.get(name, 0.0) + (end - start)
        return out

    def self_times(self):
        """{pass_id: {layer: self time}}: a span's duration minus the part
        its child spans cover (children of one parent never overlap)."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for sid, name, _, start, end, pid in self.spans:
            layer = name.split(".", 1)[0]
            per = out.setdefault(pid, {})
            per[layer] = per.get(layer, 0.0) + (end - start) - child_time[sid]
        return out

    def calls(self):
        out = {}
        for _, name, _, _, _, pid in self.spans:
            per = out.setdefault(pid, {})
            per[name] = per.get(name, 0) + 1
        return out

    def dump(self, path):
        fields = ("id", "name", "parent", "start", "end", "pass")
        rows = [dict(zip(fields, s)) for s in self.spans]
        Path(path).write_text(json.dumps({"spans": rows, "counters": self.counters}) + "\n")


# ---------------------------------------------------------------------------
# correctness gate


class Checks:
    """Counts attempted and failed checks; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self._fail(1, what)
        return bool(ok)

    def error(self, n, what, exc):
        """A typed numerical error fails the ``n`` checks it prevented."""
        self.attempted += n
        self._fail(n, f"{what}: {type(exc).__name__}: {exc}")

    def _fail(self, n, what):
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# results


class HostProbe:
    """How fast the host runs right now, measured on fixed work.

    The host is shared: neighbours slow this process by up to 2.3x for
    stretches of seconds to minutes, and this process's CPU time slows
    with its wall time.  A chunk is a fixed mix of the kinds of work a
    pass does (small batched and single LAPACK calls, polynomial roots,
    Python loops over dicts) on a seeded pool of a few MB, and it uses
    numpy only, never calderon, so a change to the program leaves it
    alone.  Chunks run between the timed steps of a pass (see Steps);
    the slowdown factor of a sample is its mean chunk time over
    ``REF_CHUNK_S``, the chunk time of the reference host (2-core Xeon
    VM, numpy 2.4, one BLAS thread, chunks back to back) when nothing
    contends.  See README.md."""

    REF_CHUNK_S = 0.000275
    POOL = 4096
    BATCH = 32
    OBJECTS = 20000

    def __init__(self, warm=50):
        rng = np.random.default_rng(0)
        shape = (self.POOL, 4, 4)
        self._mats = rng.normal(size=shape) + 1j * rng.normal(size=shape) + 3 * np.eye(4)
        self._stacks = self._mats.reshape(-1, self.BATCH, 4, 4)
        self._shift = 4 * np.exp(2j * np.pi * np.arange(self.BATCH) / self.BATCH)[:, None, None]
        self._objs = [{"a": i, "b": float(i), "c": str(i)} for i in range(self.OBJECTS)]
        self._k = 0
        self.time = 0.0
        self.chunks = 0
        for _ in range(warm):
            self._chunk()

    def _chunk(self):
        k = self._k = self._k + 1
        stack = self._stacks[k % len(self._stacks)]
        acc = float(np.abs(np.linalg.inv(stack + self._shift * np.eye(4))).sum())
        for j in range(4):
            M = self._mats[(7 * k + 131 * j) % self.POOL]
            acc += float(np.linalg.eigvals(M).real.sum()) + float(np.roots(M[0]).real.sum())
        base = (997 * k) % (self.OBJECTS - 400)
        for obj in self._objs[base : base + 400 : 4]:
            acc += obj["b"] + len(obj["c"])
        return acc

    def sample(self, n):
        t0 = time.perf_counter()
        for _ in range(n):
            self._chunk()
        self.time += time.perf_counter() - t0
        self.chunks += n

    def take_factor(self):
        """Slowdown over the chunks sampled since the last call (1 = the
        reference host at rest); starts a new sample."""
        factor = self.time / self.chunks / self.REF_CHUNK_S if self.chunks else 1.0
        self.time, self.chunks = 0.0, 0
        return factor


class _Step:
    __slots__ = ("steps", "key", "start")

    def __init__(self, steps, key):
        self.steps = steps
        self.key = key

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.steps._done(self.key, time.perf_counter() - self.start)
        return False


class Steps:
    """Timed steps of a run's passes and the requests that carry modes to
    verified output.  A step has the same key in every pass; a request is
    a tuple of step keys and the modes it verifies, and its latency is
    the time of those steps.

    With a ``HostProbe``, ``chunks`` probe chunks run when a pass starts
    and after every ``every``-th step, outside the timed steps.  The
    steps between two probe samples are divided by the mean slowdown
    factor of those samples and of ``window`` more on either side, so the
    results are seconds on the reference host at rest."""

    def __init__(self, probe=None, every=1, chunks=1, window=0):
        self.probe, self.every, self.chunks, self.window = probe, every, chunks, window
        self.work = []  # per pass: summed step time, host-normalized
        self.factors = []  # per pass: mean host slowdown factor
        self.modes = []  # modes verified in each pass
        self.times = {}  # step key -> normalized time in each pass that ran it
        self.requests = {}  # step keys -> modes the request verifies

    def _sample(self):
        if self.probe is not None:
            self.probe.sample(self.chunks)
            self._factors.append(self.probe.take_factor())

    def new_pass(self):
        self._segments, self._factors = [[]], []
        self.modes.append(0)
        self._sample()

    def timed(self, key):
        return _Step(self, key)

    def _done(self, key, elapsed):
        segment = self._segments[-1]
        segment.append((key, elapsed))
        if len(segment) == self.every:
            self._sample()
            self._segments.append([])

    def request(self, keys, modes):
        self.requests[tuple(keys)] = modes
        self.modes[-1] += modes

    def solve_s(self):
        """Normalized time of a pass: the sum over its steps of each step's
        median over the passes.  A burst that slows one step of one pass
        moves this less than it moves that pass's sum."""
        return sum(median(v) for v in self.times.values())

    def latency_p50(self):
        """Mode-weighted median request latency, from the same per-step
        medians."""
        step = {key: median(v) for key, v in self.times.items()}
        latencies = [(sum(step[k] for k in keys), modes) for keys, modes in self.requests.items()]
        return weighted_percentile(latencies, 0.50) if latencies else 0.0

    def end_pass(self):
        if self._segments[-1]:
            self._sample()
        else:
            self._segments.pop()
        factors = np.asarray(self._factors or [1.0] * (len(self._segments) + 1))
        cum = np.concatenate([[0.0], np.cumsum(factors)])
        times = {}
        for j, segment in enumerate(self._segments):
            # samples j and j + 1 bracket segment j
            lo, hi = max(0, j - self.window), min(len(factors), j + 2 + self.window)
            factor = (cum[hi] - cum[lo]) / (hi - lo)
            for key, elapsed in segment:
                times[key] = times.get(key, 0.0) + elapsed / factor
        self.factors.append(float(factors.mean()))
        self.work.append(sum(times.values()))
        for key, elapsed in times.items():
            self.times.setdefault(key, []).append(elapsed)


def lattice(n, cutoff):
    """Integer modes with |m|_inf <= cutoff in ascending lex order, the
    order of ``calderon.projector.mode_lattice``."""
    axes = np.meshgrid(*[np.arange(-cutoff, cutoff + 1)] * (n - 1), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, n - 1)


def weighted_percentile(samples, q):
    """Smallest value whose cumulative weight reaches ``q`` of the total."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    acc = 0.0
    for value, weight in ordered:
        acc += weight
        if acc >= q * total:
            return value
    return ordered[-1][0]


def peak_rss_mb(children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def median(values):
    return statistics.median(values) if values else 0.0


def _git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root, nproc, cpu):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_text = None
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_imports": numba_imports,
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
    }


def metric_units(root):
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    BENCHMARK.json, the one place metric names and units are kept."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def emit(metrics, units):
    return {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()}
