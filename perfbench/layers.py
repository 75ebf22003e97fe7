"""The traced run and the per-layer metrics derived from its spans.

Each metric is normalized per traced operation unless its unit says
otherwise, and is listed with the hooks it needs.  When a hook is missing
(a later change renamed the function), the metric is dropped with a note.

Which end-to-end metric each layer metric should move, and on which
workload, is written down in README.md beside this file.
"""

from __future__ import annotations

import statistics
import time

import loop
import spans

# metric -> (unit, hooks it needs)
PER_LAYER = {
    "hamiltonians.evaluate_calls": ("count", ["hamiltonians.evaluate"]),
    "hamiltonians.evaluate_us": ("us", ["hamiltonians.evaluate"]),
    "hamiltonians.build_ms": ("ms", ["hamiltonians.rotated_hamiltonian",
                                     "hamiltonians.effective_hamiltonian"]),
    "dynamics.self_ms": ("ms", ["dynamics.evolve_master", "dynamics.evolve_schrodinger",
                                "hamiltonians.evaluate"]),
    "dynamics.self_us_per_eval": ("us", ["dynamics.evolve_master",
                                         "dynamics.evolve_schrodinger",
                                         "hamiltonians.evaluate"]),
    "dynamics.rk45_calls": ("count", ["dynamics.rk45"]),
    "dynamics.rk45_nfev": ("count", ["dynamics.rk45"]),
    "dynamics.rk45_ms": ("ms", ["dynamics.rk45"]),
    "dynamics.fidelity_ms": ("ms", ["dynamics.fidelity"]),
    "dynamics.max_obs_err": ("1", []),
    "dynamics.max_drift": ("1", []),
    "dynamics.min_eigenvalue": ("1", []),
    "dynamics.max_top_fock_pop": ("1", []),
    "dynamics.cutoff_ok_frac": ("1", []),
    "scenarios.parse_ms": ("ms", ["scenarios.parse_scenario"]),
    "scenarios.run_self_ms": ("ms", ["scenarios.run_simulation", "scenarios.run_sweep"]),
    "scenarios.write_ms": ("ms", ["scenarios.write_csv", "scenarios.write_json"]),
    "scenarios.write_bytes": ("B", []),
    "scenarios.pool_speedup": ("x", []),
    "scenarios.sweep_children_cpu_s": ("s", []),
    "modulation.calls": ("count", ["layer:modulation"]),
    "modulation.busy_ms": ("ms", ["layer:modulation"]),
    "bessel.calls": ("count", ["layer:bessel"]),
    "bessel.busy_ms": ("ms", ["layer:bessel"]),
    "hilbert.calls": ("count", ["layer:hilbert"]),
    "hilbert.busy_ms": ("ms", ["layer:hilbert"]),
    "applications.magnus_propagator_ms": ("ms", ["applications.magnus_propagator"]),
    "applications.cat_evolution_ms": ("ms", ["applications.cat_evolution"]),
    "applications.conditional_cat_ms": ("ms", ["applications.conditional_cat"]),
    "applications.cnot_equivalence_check_ms": ("ms", ["applications.cnot_equivalence_check"]),
    "cli.self_ms": ("ms", ["cli.main"]),
    "setup.import_s": ("s", []),
    "trace.overhead_frac": ("1", []),
    "machine.reference_ms": ("ms", []),
}

ACCURACY = ("dynamics.max_obs_err", "dynamics.max_drift", "dynamics.min_eigenvalue",
            "dynamics.max_top_fock_pop", "dynamics.cutoff_ok_frac")


class SpanStats:
    """Sums over the recorded spans and tallies of one traced run."""

    def __init__(self, tracer: spans.Tracer):
        self.tracer = tracer
        self.spans = tracer.spans
        self.selfs = spans.self_times(tracer.spans)

    def _layer(self, i: int) -> str:
        return self.spans[i].name.split(".")[0]

    def total(self, *names: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def self_time(self, match) -> float:
        return sum(t for s, t in zip(self.spans, self.selfs) if match(s.name))

    def layer_total(self, layer: str) -> float:
        """Time in outermost spans of a layer (nested same-layer spans not re-counted)."""
        out = 0.0
        for i, s in enumerate(self.spans):
            if self._layer(i) != layer:
                continue
            if s.parent is not None and self._layer(s.parent) == layer:
                continue
            out += s.end - s.start
        return out

    def tally(self, prefix: str) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for name, (c, t) in self.tracer.tallies.items():
            if name == prefix or name.startswith(prefix + "."):
                calls += c
                secs += t
        return calls, secs


POOL_PASS_SECONDS = 60.0   # pool sweeps can stall for seconds each; cap the pass


def traced_run(workload: str, program, runner: loop.Runner, slice_: list, nproc: int):
    """Each operation of a fixed slice traced, then at once untraced.

    Interleaving the two keeps drift of the machine's speed out of
    ``trace.overhead_frac``.  The sweep runs serially in both, so that its
    points run in this process where the wrappers are; a last pass runs the
    same sweeps on the worker pool, which gives the pool speed-up.
    """
    tracer = spans.Tracer()
    records, plain, refs = [], [], []
    for k, op in enumerate(slice_):
        tracer.op = k
        with spans.Hooks(tracer) as hooks:
            records.append(runner.run(k, op, 1))
        plain.append(runner.run(k, op, 1))
        refs += loop.reference_burst()
    for text in hooks.notes:
        spans.note(text)
    traced_wall = sum(r.wall for r in records)
    plain_wall = sum(r.wall for r in plain)
    pool_speedup = children_cpu = 0.0
    if workload == "effective_sweep":
        c0 = loop.children_cpu_seconds()
        deadline = time.perf_counter() + POOL_PASS_SECONDS
        pooled = []
        for k, op in enumerate(slice_):
            if time.perf_counter() > deadline:
                break
            pooled.append(runner.run(k, op, nproc))
        children_cpu = (loop.children_cpu_seconds() - c0) / len(pooled)
        serial = sum(r.wall for r in plain[:len(pooled)])
        pool_speedup = serial / sum(r.wall for r in pooled)
        plain += pooled
    n = len(slice_)
    st = SpanStats(tracer)
    eval_calls, eval_s = st.tally("hamiltonians.evaluate")
    evolve = ("dynamics.evolve_master", "dynamics.evolve_schrodinger")
    dyn_self = st.self_time(lambda name: name in evolve)
    values = {
        "hamiltonians.evaluate_calls": eval_calls / n,
        "hamiltonians.evaluate_us": 1e6 * eval_s / eval_calls if eval_calls else 0.0,
        "hamiltonians.build_ms": 1e3 * st.layer_total("hamiltonians") / n,
        "dynamics.self_ms": 1e3 * dyn_self / n,
        "dynamics.self_us_per_eval": 1e6 * dyn_self / eval_calls if eval_calls else 0.0,
        "dynamics.rk45_calls": st.calls("dynamics.rk45") / n,
        "dynamics.rk45_nfev": st.tally("dynamics.rk45_nfev")[0] / n,
        "dynamics.rk45_ms": 1e3 * st.total("dynamics.rk45") / n,
        "dynamics.fidelity_ms": 1e3 * st.tally("dynamics.fidelity")[1] / n,
        "scenarios.parse_ms": 1e3 * st.total("scenarios.parse_scenario") / n,
        "scenarios.run_self_ms": 1e3 * st.self_time(
            lambda name: name in ("scenarios.run_simulation", "scenarios.run_sweep")) / n,
        "scenarios.write_ms": 1e3 * st.total("scenarios.write_csv",
                                             "scenarios.write_json") / n,
        "scenarios.write_bytes": sum(r.nbytes for r in records) / n,
        "scenarios.pool_speedup": pool_speedup,
        "scenarios.sweep_children_cpu_s": children_cpu,
        "cli.self_ms": 1e3 * st.self_time(lambda name: name.startswith("cli.")) / n,
        "setup.import_s": program.import_s,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        "machine.reference_ms": 1e3 * loop.reference_level(refs),
    }
    for layer in ("modulation", "bessel", "hilbert"):
        calls, secs = st.tally(layer)
        values[f"{layer}.calls"] = calls / n
        values[f"{layer}.busy_ms"] = 1e3 * secs / n
    for fn in ("magnus_propagator", "cat_evolution", "conditional_cat",
               "cnot_equivalence_check"):
        name = f"applications.{fn}"
        c = st.calls(name)
        values[f"{name}_ms"] = 1e3 * st.total(name) / c if c else 0.0

    installed = set(hooks.installed)
    installed |= {f"layer:{name.split('.')[0]}" for name in hooks.installed}
    metrics = {}
    for name, (unit, needs) in PER_LAYER.items():
        if name in ACCURACY:
            continue
        missing = [h for h in needs if h not in installed]
        if missing:
            spans.note(f"hook {', '.join(missing)} not installed; dropping {name}")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    if tracer.spans_inside_tallies:
        spans.note(f"{tracer.spans_inside_tallies} spans opened inside a tally; "
                   "self times of their parents are understated")
    dump = tracer.dump()
    dump["wall"] = {"traced": traced_wall, "untraced": plain_wall}
    return records + plain, metrics, dump


def add_accuracy(metrics: dict, records: list, oracle_devs: list[float]):
    """Numeric margins from the gate and the oracle: not speed metrics."""
    v = [r.verdict for r in records]
    errs = [x.closed_form_err for x in v if x.closed_form_err is not None] + oracle_devs
    drifts = [x.drift for x in v if x.drift is not None]
    eigs = [x.min_eigenvalue for x in v if x.min_eigenvalue is not None]
    tops = [x.top_fock_pop for x in v if x.top_fock_pop is not None]
    oks = [x.cutoff_ok for x in v if x.cutoff_ok is not None]
    values = {
        "dynamics.max_obs_err": max(errs, default=0.0),
        "dynamics.max_drift": max(drifts, default=0.0),
        # a pure state's |psi><psi| has least eigenvalue 0
        "dynamics.min_eigenvalue": min(eigs, default=0.0),
        "dynamics.max_top_fock_pop": max(tops, default=0.0),
        "dynamics.cutoff_ok_frac": sum(oks) / len(oks) if oks else 0.0,
    }
    for name in ACCURACY:
        metrics[name] = {"value": values[name], "unit": PER_LAYER[name][0]}
