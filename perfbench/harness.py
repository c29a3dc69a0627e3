"""Measurement and checking helpers of the dtsim benchmark.

Nothing here imports dtsim at module level, so the statistics and the tracer
can be tested without the package; the output checks take dtsim objects as
arguments.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import heapq
import math
import mmap
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence


# --------------------------------------------------------------------------
# Tracing


@dataclass
class Span:
    """One timed call into a layer. `parent` is the index of the enclosing
    span in the tracer's list, None for a root; spans of one iteration share
    `trace_id`."""

    name: str
    trace_id: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; `spans` is written out when the run ends."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.trace_id = "setup"

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.trace_id, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str, trace_id: Optional[str] = None) -> List[int]:
        """Indices of the spans called `name` (within one trace when given)."""
        return [i for i, s in enumerate(self.spans)
                if s.name == name and (trace_id is None or s.trace_id == trace_id)]

    def total(self, name: str, trace_id: Optional[str] = None) -> float:
        """Summed duration of the spans called `name`."""
        return math.fsum(self.spans[i].duration for i in self.named(name, trace_id))

    def self_time(self, index: int) -> float:
        """Duration of span `index` minus the time its direct children cover.

        Children of one span never overlap (the benchmark is single-threaded),
        so their durations add up to the covered part of the interval.
        """
        children = math.fsum(s.duration for s in self.spans if s.parent == index)
        return self.spans[index].duration - children

    def as_rows(self) -> List[dict]:
        return [{"name": s.name, "trace_id": s.trace_id, "start": s.start,
                 "end": s.end, "parent": s.parent} for s in self.spans]


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    enabled = False
    spans: List[Span] = []
    trace_id = "setup"
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


# --------------------------------------------------------------------------
# Statistics


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. Of 100 distinct samples, 10 lie above the p90."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def unique_ratio(candidates: Sequence[tuple]) -> float:
    """Distinct candidates over candidates evaluated (1.0 when all differ)."""
    if not candidates:
        raise ValueError("no candidates")
    return len(set(candidates)) / len(candidates)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Core speed index
#
# The virtual cores of a shared machine change speed by up to 2x within
# seconds, and each core on its own. A time measured on such a core says as
# much about the neighbours as about the program. The speed index runs a
# fixed unit of pure-Python work (float math and heap operations, as the
# simulator does) in a second process at the lowest priority, pinned to the
# same core as the measured process, so it samples that core's speed all
# through the measured interval while taking about 1.5% of it.

# Speed-index reading taken as the reference, in pace_unit calls per second of
# the index's CPU time: about the typical reading on a shared 2-vCPU Xeon VM
# with Python 3.11. A time scaled by SpeedIndex.factor reads as seconds on a
# core with this reading.
REFERENCE_UNITS_PER_S = 28000.0
# Fewest units a speed reading may rest on.
MIN_UNITS = 16


def pace_unit() -> float:
    """One unit of fixed work; every call does exactly the same operations."""
    heap = []
    x = 0.5
    acc = 0.0
    for i in range(64):
        x = (x * 3.7 + 0.1) % 1.0
        heapq.heappush(heap, (x, i))
        acc += math.log1p(x)
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def _pace(fd: int, cpu: int, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    shared = memoryview(mmap.mmap(fd, 16)).cast("d")
    # Ends on its own if the measured process dies without stopping it.
    while os.getppid() == parent:
        for _ in range(256):
            pace_unit()
            shared[1] = time.process_time()
            shared[0] += 1.0


class SpeedIndex:
    """Samples the speed of the core this process is pinned to.

    `mark()` returns an opaque reading; `factor_since(mark)` is the core's
    speed from then until now relative to the reference machine, so
    `seconds * factor` is the time the same work takes there. The sampler is
    a plain child process sharing two doubles through a memfd; `close()`
    stops it and waits until it has ended.
    """

    def __init__(self):
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self._fd = os.memfd_create("perfbench-pace")
        os.ftruncate(self._fd, 16)
        self._buf = mmap.mmap(self._fd, 16)
        self._shared = memoryview(self._buf).cast("d")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--pace", str(self._fd),
             str(self.cpu), str(os.getpid())],
            pass_fds=(self._fd,), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while self._shared[0] < MIN_UNITS:
            if time.monotonic() > deadline or self._proc.poll() is not None:
                self.close()
                raise RuntimeError("speed index process did not start")
            time.sleep(0.01)

    def mark(self):
        return self._shared[1], self._shared[0]

    def factor_since(self, start) -> float:
        """Speed factor since `start`. An interval too short for MIN_UNITS
        samples is extended by idling until the sampler has them."""
        deadline = time.monotonic() + 2.0
        while self._shared[0] - start[1] < MIN_UNITS and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.factor(start, self.mark())

    @staticmethod
    def factor(start, end) -> float:
        cpu = end[0] - start[0]
        units = end[1] - start[1]
        if units < MIN_UNITS or cpu <= 0:
            raise RuntimeError(f"speed index sampled only {units:.0f} units")
        return units / cpu / REFERENCE_UNITS_PER_S

    def close(self) -> None:
        # A signal arriving meanwhile must not cut the wait for the sampler short.
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT})
        try:
            if self._proc.poll() is None:
                self._proc.terminate()
                try:
                    self._proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    self._proc.wait()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        self._shared.release()
        self._buf.close()
        os.close(self._fd)


# --------------------------------------------------------------------------
# Output checks


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_blocks_csv(path, blocks) -> List[str]:
    """Read blocks.csv back and compare every row with the sealed blocks."""
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["height", "tx_count", "occupied_nodes", "incentive", "seal_time"]:
        return [f"{path}: unexpected header {rows[:1]}"]
    if len(rows) - 1 != len(blocks):
        return [f"{path}: {len(rows) - 1} rows for {len(blocks)} sealed blocks"]
    for row, b in zip(rows[1:], blocks):
        want = [str(b.height), str(len(b.tx_ids)), str(b.occupied_nodes), repr(b.incentive),
                str(b.seal_time)]
        if row != want:
            problems.append(f"{path}: block {b.height} row {row} != {want}")
            break
    return problems


def check_run_result(result, leaf_capacity: int) -> List[str]:
    """Fate accounting and capacity invariants of one simulator run."""
    problems = []
    included = sum(len(b.tx_ids) for b in result.blocks)
    if included != result.included_count:
        problems.append(f"included {result.included_count} != {included} transactions in blocks")
    counted = (result.included_count + result.evicted_count + result.rejected_count
               + result.pending_count + result.unsealed_count)
    if counted != result.submitted_count:
        problems.append(f"fates count {counted} transactions, {result.submitted_count} submitted")
    fates = math.fsum([math.fsum(result.incentives), result.evicted_fees, result.rejected_fees,
                       result.pending_fees, result.unsealed_fees])
    if not math.isclose(fates, result.submitted_fees, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"fees across fates {fates!r} != submitted {result.submitted_fees!r}")
    over = [b.height for b in result.blocks if b.occupied_nodes > leaf_capacity]
    if over:
        problems.append(f"blocks {over[:5]} exceed leaf capacity {leaf_capacity}")
    return problems


def check_verkle_roots(result, branching_factor: int):
    """Rebuild every sealed block's tree from the assignments and compare its
    root with the block's; returns (problems, leaves hashed).

    Assignments are in block order and, within a block, in incorporation
    order, which is the leaf order the simulator commits to. One block's
    leaves are held at a time.
    """
    from itertools import groupby

    from dtsim import verkle

    roots = {}
    leaves = 0
    for height, rows in groupby(result.assignments, key=lambda row: row[1]):
        digests = [verkle.slot_digest(tx_id, slot)
                   for tx_id, _height, _fee, nodes in rows for slot in range(nodes)]
        leaves += len(digests)
        roots[height] = verkle.build_tree(digests, branching_factor).root
    bad = [b.height for b in result.blocks if roots.get(b.height) != b.verkle_root]
    if len(roots) != len(result.blocks) or bad:
        return [f"recomputed Verkle roots differ on blocks {bad[:5]}"], leaves
    return [], leaves


def check_expected(name: str, got, want) -> List[str]:
    return [] if got == want else [f"{name}: got {got!r}, recorded {want!r}"]


# --------------------------------------------------------------------------
# Machine facts


def _git_sha(root: Path) -> Optional[str]:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, to identify the code outside a git clone."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def machine_facts(root: Path) -> dict:
    import numpy

    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root / "src" / "dtsim"),
    }


if __name__ == "__main__":
    # The speed index's sampler: harness.py --pace FD CPU PARENT_PID
    if sys.argv[1:2] != ["--pace"] or len(sys.argv) != 5:
        sys.exit("usage: harness.py --pace FD CPU PARENT_PID")
    _pace(*map(int, sys.argv[2:]))
