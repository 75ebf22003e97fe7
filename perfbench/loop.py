"""The closed loop: run one operation, timed, then gate it, untimed."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import gate
from inputs import substitute

TAIL_BEYOND = 10        # the tail percentile keeps at least ten samples beyond it
OUT_SLOTS = 4           # output directories reused round-robin
REFERENCE_EVERY = 1.0   # seconds between samples of the reference kernel
# OpenBLAS helper threads spin for about 0.1 s after a threaded call; a sample
# taken while they spin would time them, not the machine
REFERENCE_PAUSE = 0.15
# Kernel passes per sample, back to back.  The machine switches between a
# fast and a slow state every few tens of milliseconds (one pass takes about
# 5 or 8 ms), so one pass is a coin toss; a burst of passes averages it.
REFERENCE_BURST = 8
REFERENCE_TRIM = 0.1    # share of the kernel times cut from each end
# The kernel's dense matrix: complex 48 x 48, the size of a cutoff-24 run.
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = (_REF_RNG.standard_normal((48, 48))
               + 1j * _REF_RNG.standard_normal((48, 48))) / 10


def reference_seconds() -> float:
    """Time one pass of a fixed kernel that does not use modrabi: a Python
    loop, small numpy element-wise arithmetic and a chain of dense complex
    matrix products, the three kinds of work the package does.

    The speed of this shared machine drifts by up to half within seconds and
    between runs; the kernel, timed between operations, measures that drift
    so the end-to-end metrics can be taken at a fixed reference speed.  The
    Python part follows the protocol calls, the matrix products (BLAS, on
    the run's BLAS threads) the sweeps and exact-frame runs: a kernel
    without them left the scaled op_p50_s of twelve effective_sweep runs
    spread by 0.14, against 0.10 with them (README.md).
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    a = np.arange(256.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 0.5
    x = np.eye(48, dtype=complex)
    for _ in range(60):
        x = _REF_MATRIX @ x
        x = x / np.abs(x).max()
    return time.perf_counter() - t0


def reference_burst() -> list[float]:
    """REFERENCE_BURST passes of the kernel, after a pause that lets spinning
    OpenBLAS helper threads go idle."""
    time.sleep(REFERENCE_PAUSE)
    return [reference_seconds() for _ in range(REFERENCE_BURST)]


def reference_level(refs: list[float]) -> float:
    """Trimmed mean of the kernel times: the mean follows the share of time
    the machine spends in its slow state, where the median of a two-state
    mixture jumps from one state to the other."""
    srt = sorted(refs)
    cut = int(REFERENCE_TRIM * len(srt))
    return statistics.fmean(srt[cut:len(srt) - cut])


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def children_cpu_seconds() -> float:
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return c.ru_utime + c.ru_stime


@dataclasses.dataclass
class Record:
    """One finished operation: its timings, its gate verdict, its output size."""

    index: int
    op: dict
    wall: float
    cpu: float
    verdict: gate.Verdict
    nbytes: int

    @property
    def ok(self) -> bool:
        return self.verdict.ok


class Runner:
    """Drives the package in this process, one operation at a time."""

    def __init__(self, program, workdir: Path):
        self.program = program
        self.workdir = workdir

    def run(self, index: int, op: dict, threads: int) -> Record:
        outdir = self.workdir / f"out{index % OUT_SLOTS}"
        if outdir.exists():
            shutil.rmtree(outdir)
        out, err = io.StringIO(), io.StringIO()
        result = None
        t0 = time.perf_counter()
        c0 = cpu_seconds()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if op["kind"] == "magnus":
                    p = op["params"]
                    space = self.program.hilbert.HilbertSpace(2, p["fock_cutoff"])
                    result = self.program.applications.magnus_propagator(
                        p["g_eff"], p["omega_eff"], p["t"], space)
                    rc = 0
                else:
                    rc = self.program.cli.main(substitute(
                        op["argv"], doc=op.get("doc_path", ""), out=str(outdir),
                        threads=str(threads)))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not a failed benchmark
                rc = f"{type(exc).__name__}: {exc}"
        cpu = cpu_seconds() - c0
        wall = time.perf_counter() - t0
        verdict = gate.check(op, rc, out.getvalue(), outdir, result)
        nbytes = sum(f.stat().st_size for f in outdir.iterdir()) if outdir.is_dir() else 0
        return Record(index, op, wall, cpu, verdict, nbytes)


def run_phase(runner: Runner, ops: list, threads: int, seconds: float,
              cycle: int, min_ops: int) -> tuple[list[Record], list[float]]:
    """Closed loop over ``ops`` in whole cycles of ``cycle`` operations, until
    ``seconds`` have passed and at least ``min_ops`` operations have run.

    Ending on a cycle boundary keeps the stratified mix of every run the
    same whatever the seed and the machine speed: ending on a block instead,
    one block more or less moved the median exact-frame run by up to 15 %,
    because the blocks of a cycle differ in coupling bins.  Between
    operations, about every
    REFERENCE_EVERY seconds, outside their timing, a burst of reference
    kernel passes is taken; their times are returned with the records.
    """
    records, refs = [], reference_burst()
    deadline = time.perf_counter() + seconds
    last = time.perf_counter()
    i = 0
    while i < min_ops or i % cycle or time.perf_counter() < deadline:
        records.append(runner.run(i, ops[i % len(ops)], threads))
        i += 1
        if time.perf_counter() - last >= REFERENCE_EVERY:
            refs += reference_burst()
            last = time.perf_counter()
    return records, refs


def tail_percentile(n: int) -> int:
    """The highest whole percentile (nearest rank) with TAIL_BEYOND of ``n``
    samples beyond it, at most p99.

    Whole percentiles stop at p99: with thousands of operations the 11th
    largest is set by the few calls a loaded machine stalls, not by the
    program, while p99 keeps tens of samples beyond it.
    """
    for pct in range(99, 0, -1):
        if n - math.ceil(pct * n / 100) >= TAIL_BEYOND:
            return pct
    return 100


def tail(walls: list[float], pct: int) -> float:
    """The ``pct`` percentile of ``walls``, nearest rank."""
    srt = sorted(walls)
    return srt[max(math.ceil(pct * len(srt) / 100), 1) - 1]
