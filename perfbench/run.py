#!/usr/bin/env python3
"""modrabi benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exact_open --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
package.  ``--trace 1`` runs each operation of a fixed slice once with span
and tally wrappers installed (see ``spans.py``) and once without, which
gives the tracing overhead, and reports the per-layer metrics.  Every
operation passes through the correctness gate (``gate.py``) in both modes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The workloads are closed loops with one client: the next operation starts
when the previous one has finished and been checked.  The program is driven
in this process through ``modrabi.cli.main`` (and, for ``magnus``
operations, ``modrabi.applications.magnus_propagator``); it receives only the
seeded scenario documents and argv lists of ``inputs.py``.  The benchmark
sets no BLAS thread variable, so the library's own threading shows, except
on ``protocols`` (see ``PINNED_BLAS``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

# The benchmark's own modules that import numpy (gate, loop, layers, machine)
# are imported only after set-up, so that set-up pays the package's imports.
import inputs  # noqa: E402

# Blocks generated and parsed during set-up; a run cycles through them.  A
# protocols run makes about 2700 calls, so its pool repeats: its p99 is the
# dearest few cat calls of the pool, and 1000 calls rather than 500 put twice
# as many distinct ones there (about 50 ms more set-up).
POOL_BLOCKS = {"exact_open": 16, "exact_unitary": 32, "effective_sweep": 16,
               "protocols": 200}
# Blocks the traced run covers: a fixed slice, so per-operation counts repeat
# exactly for a given seed.
TRACE_BLOCKS = {"exact_open": 4, "exact_unitary": 8, "effective_sweep": 2,
                "protocols": 50}
# Whole cycles (``inputs.cycle_ops``) every timed run covers, however fast the
# machine; at the baseline speed a 20 s run covers about 2-3, 7, 5 and 540.
# op_tail_s is the highest whole percentile with ten samples beyond it in a
# run of this minimum length (p75, p90, p80, p99), not in the run as it
# came: with the percentile following the run's length, a 60-operation
# exact_open run reported p83 where a 40-operation one reported p75, and the
# tail moved by 10 % with the machine speed.
MIN_CYCLES = {"exact_open": 2, "exact_unitary": 5, "effective_sweep": 5,
              "protocols": 200}
WORK_UNIT = {"exact_open": "scenario runs", "exact_unitary": "scenario runs",
             "effective_sweep": "sweep points", "protocols": "calls"}
ORACLE_OPS = 2          # operations re-run against an independent integration
SETUP_PROBES = 4        # extra set-ups in fresh interpreters, for the median
# Workloads run with one BLAS thread.  A protocols call takes 2-10 ms on small
# matrices; with OpenBLAS's default two threads every call also spins a helper
# thread (CPU time twice the wall time), and one busy process beside the
# benchmark tripled the p99 call time (11 ms to 33 ms) while one BLAS thread
# kept it at 10-11 ms.  The tail would measure the neighbours' load.  The
# other workloads keep the library's threading, where the BLAS helper threads
# of figure-size matrices are part of what is measured.
PINNED_BLAS = {"protocols"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKDIR = ".perfbench"
# Time of ``loop.reference_seconds`` at the speed the end-to-end metrics are
# quoted at: a typical level on the 2-vCPU machine of BASELINE.md.
REFERENCE_S = 0.0065

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and print it")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Program:
    """The package under test, imported from ``src/`` of the checkout."""

    def __init__(self, root: Path):
        src = root / "src"
        sys.path.insert(0, str(src))
        t0 = time.perf_counter()
        import modrabi
        import modrabi.applications
        import modrabi.cli
        import modrabi.hilbert
        import modrabi.scenarios
        self.import_s = time.perf_counter() - t0
        if not Path(modrabi.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"perfbench: imported modrabi from {modrabi.__file__}, "
                             f"not from {src}")
        self.cli = modrabi.cli
        self.scenarios = modrabi.scenarios
        self.applications = modrabi.applications
        self.hilbert = modrabi.hilbert


def setup(root: Path, workload: str, seed: int, workdir: Path):
    """Import the package, generate the inputs and parse them: this is setup_s."""
    t0 = time.perf_counter()
    program = Program(root)
    ops = inputs.generate(workload, seed, POOL_BLOCKS[workload])
    parser = program.cli.build_parser()
    for i, op in enumerate(ops):
        if "doc" in op:
            path = workdir / f"doc{i}.json"
            path.write_text(json.dumps(op["doc"], indent=1), encoding="utf-8")
            op["doc_path"] = str(path)
            program.scenarios.load_scenario(str(path))
        elif op["argv"] is not None:
            parser.parse_args(inputs.substitute(op["argv"], out=str(workdir)))
    return time.perf_counter() - t0, program, ops


def setup_probe(workload: str, seed: int, seconds: float) -> float:
    """One set-up in a fresh interpreter, so the imports are paid again."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_oracles(workload: str, records: list) -> list[float]:
    """Check the first ORACLE_OPS operations against an independent integration."""
    import gate
    devs = []
    for rec in records[:ORACLE_OPS]:
        table = rec.verdict.table
        if table is None:
            continue
        if workload in ("exact_open", "exact_unitary"):
            dev = gate.oracle_deviation(rec.op["doc"], table)
        elif workload == "effective_sweep":
            dev = gate.sweep_oracle_deviation(rec.op, table)
        else:
            continue
        devs.append(dev)
        rec.verdict.need(dev <= gate.ORACLE_LIMIT,
                         f"oracle deviation {dev:.3e} > {gate.ORACLE_LIMIT}")
    return devs


def min_ops(workload: str) -> int:
    return MIN_CYCLES[workload] * inputs.cycle_ops(workload)


def tail_pct(workload: str) -> int:
    from loop import tail_percentile
    return tail_percentile(min_ops(workload))


def end_to_end(workload: str, records: list,
               refs: list[float]) -> tuple[dict, float]:
    """The timed phase's metrics at the reference speed, and the speed factor.

    Times are multiplied, and rates divided, by REFERENCE_S over the run's
    level of reference-kernel times (``loop.reference_level``); peak memory
    is taken as read.  Read before any set-up probe adds a child process.
    """
    from loop import reference_level, tail
    factor = REFERENCE_S / reference_level(refs)
    walls = [r.wall for r in records]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "ops_per_s": sum(r.op["units"] for r in records) / sum(walls) / factor,
        "op_p50_s": statistics.median(walls) * factor,
        "op_tail_s": tail(walls, tail_pct(workload)) * factor,
        "cpu_s": sum(r.cpu for r in records) / len(records) * factor,
        "peak_rss_mb": max(self_rss, child_rss) / 1024.0,   # ru_maxrss is in KiB
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, factor


def summary_lines(workload: str, metrics: dict, records: list,
                  setup_samples: list[float], factor: float) -> list[str]:
    walls = [r.wall for r in records]
    failed = sum(not r.ok for r in records)
    notes = {"setup_s": f"median of {len(setup_samples)} set-ups, "
                        f"{len(setup_samples) - 1} in fresh interpreters",
             "ops_per_s": f"{WORK_UNIT[workload]} per second",
             "op_p50_s": f"median of {len(walls)} operations",
             "op_tail_s": f"p{tail_pct(workload)} of {len(walls)} operations",
             "cpu_s": "user+system of process and children, per operation",
             "peak_rss_mb": "max of process and children ru_maxrss"}
    lines = [f"reference kernel {1e3 * REFERENCE_S / factor:.4g} ms against "
             f"{1e3 * REFERENCE_S:.4g} ms: values below are at the reference "
             f"speed, raw ones in brackets"]
    for name, m in metrics.items():
        raw = m["value"] if name == "peak_rss_mb" else \
            m["value"] * factor if name == "ops_per_s" else m["value"] / factor
        lines.append(f"{workload:16s} {name:12s} {m['value']:.6g} {m['unit']}  "
                     f"[{raw:.6g}]  ({notes[name]})")
    lines.append(f"{workload:16s} {'fail_frac':12s} {failed / len(records):.6g} 1  "
                 f"({failed} of {len(records)} operations failed the gate)")
    return lines


def measure(args, root: Path, workdir: Path, setup_s: float, program, ops) -> int:
    import loop
    import machine
    record = machine.record(root, args.seed, args.workload)
    print("machine " + json.dumps(record, sort_keys=True))
    runner = loop.Runner(program, workdir)
    nproc = os.cpu_count() or 1
    if args.trace:
        import layers
        per_block = len(ops) // POOL_BLOCKS[args.workload]
        records, metrics, dump = layers.traced_run(
            args.workload, program, runner,
            ops[:TRACE_BLOCKS[args.workload] * per_block], nproc)
        layers.add_accuracy(metrics, records, run_oracles(args.workload, records))
        dump.update(machine=record, setup_s=setup_s)
        (root / WORKDIR / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(dump), encoding="utf-8")
        for name, m in metrics.items():
            print(f"{args.workload:16s} {name:38s} {m['value']:.6g} {m['unit']}")
    else:
        records, refs = loop.run_phase(runner, ops, 1, args.seconds,
                                       inputs.cycle_ops(args.workload),
                                       min_ops(args.workload))
        timed, factor = end_to_end(args.workload, records, refs)
        run_oracles(args.workload, records)
        samples = [setup_s] + [setup_probe(args.workload, args.seed, args.seconds)
                               for _ in range(SETUP_PROBES)]
        metrics = {"setup_s": {"value": statistics.median(samples) * factor,
                               "unit": "s"}, **timed}
        for line in summary_lines(args.workload, metrics, records, samples, factor):
            print(line)
    failed = [r for r in records if not r.ok]
    for r in failed[:5]:
        print(f"perfbench: operation {r.index} ({r.op['kind']}) failed: "
              f"{'; '.join(r.verdict.failures)}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "modrabi" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/modrabi; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload in PINNED_BLAS:     # before anything imports numpy
        os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    (root / WORKDIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORKDIR))
    try:
        setup_s, program, ops = setup(root, args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        return measure(args, root, workdir, setup_s, program, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
