"""Shared pieces of the repository benchmark: spans, statistics, pins.

Nothing here imports the package under test, so ``run.py`` can refuse a
bad environment before any simulator module is loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave their span files, result records and temp dirs.
OUT_DIR = ROOT / ".perfbench_out"

#: Simulated statistics recorded at the commit that defined the
#: benchmark; every run must reproduce them exactly.
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Layer (module) names spans are attributed to: the first dotted part
#: of a span name.  ``bench`` is the benchmark's own code.
LAYERS = ("bench", "compiler", "simulator", "parallel", "nn", "analytic",
          "shard", "serve")


class Tracer:
    """In-memory span recorder, written out once the run ends.

    A span is ``(name, start, end, parent, request)``.  Synchronous code
    nests spans with :meth:`span`; asynchronous code, whose spans
    interleave, records finished spans with :meth:`add` and names the
    parent explicitly.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        """Time the ``with`` body as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "request": request}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request=None) -> int:
        """Record an already finished span; returns its id."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "request": request})
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span minus what its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, span in enumerate(self.spans):
            covered = _union_length(children.get(index, ()),
                                    span["start"], span["end"])
            layer = span["name"].split(".", 1)[0]
            totals[layer] = (totals.get(layer, 0.0)
                             + span["end"] - span["start"] - covered)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


@contextmanager
def maybe_span(tracer: Tracer | None, name: str, request=None):
    """``tracer.span(...)`` when tracing, else a no-op."""
    if tracer is None:
        yield None
    else:
        with tracer.span(name, request) as index:
            yield index


@dataclass
class Outcome:
    """What one measured pass of a workload produced.

    Attributes:
        attempted / failed: requests (frames or jobs) tried and failed.
        metrics: end-to-end values other than ``setup_s`` and
            ``peak_rss_mb``, which ``run.py`` adds.
        layers: per-layer values; complete only for a traced pass.
        stats: simulated statistics, compared across the untraced and
            traced passes of one traced run.
        host_ms_per_request: the quantity the tracing overhead is
            measured on.
        notes: sample counts and other context for the result record.
    """

    attempted: int
    failed: int
    metrics: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    stats: object = None
    host_ms_per_request: float = 0.0
    notes: dict = field(default_factory=dict)


# Host-speed normalization.  A shared host's speed drifts: on the 2-core
# host the benchmark was defined on, median frame times moved by 20-80%
# between minutes, far more than any regression bound.  Intervals spent
# in the pure-Python simulator engine are bracketed by reference_kernel()
# probes and scaled by nominal_scale(), reporting them as if run on a
# host where the kernel takes exactly REFERENCE_KERNEL_S; on fc frames
# the 15 s-window spread fell from 0.20 to 0.06.  The kernel belongs to
# the benchmark, so a faster or slower package still shows in full.
# numpy-bound intervals are not scaled: the kernel does not track them.

#: What one reference-kernel call takes on the nominal host.
REFERENCE_KERNEL_S = 0.005


class _Item:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total & 7


def reference_kernel() -> float:
    """Seconds a fixed pure-Python kernel takes now: slot attribute
    access, method calls and dict updates, the simulator's own mix.
    About 5-6 ms on a 2-core x86-64 host."""
    started = time.perf_counter()
    items = [_Item() for _ in range(64)]
    counts: dict[int, int] = {}
    for i in range(20000):
        key = items[i & 63].add(i)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - started


def nominal_scale(before: float, after: float) -> float:
    """Factor taking an interval between two kernel probes to the
    nominal host."""
    return REFERENCE_KERNEL_S / ((before + after) / 2.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Max of this process's and its largest waited child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def load_pins(workload: str):
    return json.loads(PINS_PATH.read_text())[workload]


def _git_rev() -> str:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """sha256 over ``src/`` Python sources: identifies the code measured
    when the checkout is not a git repository."""
    feed = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        feed.update(str(path.relative_to(ROOT)).encode())
        feed.update(path.read_bytes())
    return feed.hexdigest()[:16]


def environment() -> dict:
    """Host and code identity recorded with every result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "argv": sys.argv[1:],
    }
