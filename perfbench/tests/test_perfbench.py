"""Tests of the benchmark itself: inputs, span arithmetic, correctness gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
from collections import Counter

import pytest

import gate
import inputs
import spans


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_repeat_per_seed_and_differ_across_seeds(workload):
    a = inputs.generate(workload, 7, 3)
    assert a == inputs.generate(workload, 7, 3)
    assert a != inputs.generate(workload, 8, 3)
    # more blocks extend the list without changing its start
    assert inputs.generate(workload, 7, 4)[:len(a)] == a


def _ratio_bin(doc):
    drive = doc["drive"]
    if "design" in drive:
        ratio = drive["design"]["g_r_over_omega_eff"]
    else:
        w1, w2 = drive["omega1_ghz"], drive["omega2_ghz"]
        eta1 = drive.get("eta1", drive.get("amp1_ghz", 0.0) / w1)
        eta2 = drive.get("eta2", drive.get("amp2_ghz", 0.0) / w2)
        g_r = inputs.SYSTEM["g_mhz"] * 1e-3 * abs(inputs.bessel_series(1, 2 * eta1)
                                                  * inputs.bessel_series(0, 2 * eta2))
        omega_eff = 0.5 * ((w1 - inputs.RED_GHZ) + (inputs.BLUE_GHZ - w2))
        ratio = g_r / omega_eff
    return next(rb for rb in inputs.RATIO_BINS if rb[0] <= ratio * (1 + 1e-9)
                and ratio <= rb[1] * (1 + 1e-9))


def test_every_exact_block_covers_every_cutoff_and_every_cycle_every_cell():
    nbins = len(inputs.RATIO_BINS)
    ops = inputs.generate("exact_open", 3, 2 * nbins)
    size = len(inputs.EXACT_CUTOFFS)
    for b in range(2 * nbins):
        block = ops[size * b:size * (b + 1)]
        assert sorted(op["doc"]["fock_cutoff"] for op in block) == sorted(inputs.EXACT_CUTOFFS)
        assert len({_ratio_bin(op["doc"]) for op in block}) == nbins
    cycle = inputs.cycle_ops("exact_open")
    assert cycle == size * nbins
    for c in (ops[:cycle], ops[cycle:]):
        cells = Counter((op["doc"]["fock_cutoff"], _ratio_bin(op["doc"])) for op in c)
        assert cells == Counter({(n, rb): 1 for n in inputs.EXACT_CUTOFFS
                                 for rb in inputs.RATIO_BINS})
        assert sum("design" in op["doc"]["drive"] for op in c) == cycle // 2
        assert Counter(op["doc"]["initial_state"] for op in c) == \
            Counter(vac_g=cycle // 2, vac_e=cycle // 2)


def test_protocol_argv_parses_for_tiny_negative_values():
    # seed 402 draws delta1 = -3.5e-05 MHz, which argparse took for an option
    # when it followed --delta1-mhz as a token of its own
    from modrabi.cli import build_parser
    ops = inputs.generate("protocols", 402, 200)
    tiny = [op for op in ops if op["kind"] == "design"
            and op["params"]["delta1_mhz"] is not None
            and abs(op["params"]["delta1_mhz"]) < 1e-4]
    assert tiny
    for op in tiny:
        ns = build_parser().parse_args(inputs.substitute(op["argv"], out="x"))
        assert ns.delta1_mhz == op["params"]["delta1_mhz"]


def test_every_protocol_block_holds_the_same_kinds():
    ops = inputs.generate("protocols", 5, 3)
    size = len(inputs.PROTOCOL_KINDS)
    for b in range(3):
        kinds = sorted(op["kind"] for op in ops[size * b:size * (b + 1)])
        assert kinds == sorted(inputs.PROTOCOL_KINDS)
        detuned = [op["params"]["delta1_mhz"] is not None
                   for op in ops[size * b:size * (b + 1)] if op["kind"] == "design"]
        assert sorted(detuned) == [False, True]


def test_explicit_tones_hit_their_coupling_bin():
    from modrabi.scenarios import effective_summary, parse_scenario
    from modrabi.modulation import effective_params
    for op in inputs.generate("exact_unitary", 11, 2):
        doc = op["doc"]
        if "design" in doc["drive"]:
            continue
        scn = parse_scenario(doc)
        ratio = effective_summary(effective_params(scn.system, scn.drive))["g_r_over_omega_eff"]
        assert 0.05 * (1 - 1e-9) <= ratio <= 1.2 * (1 + 1e-9)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None, 0, {"leaf": 1.0}),
        spans.Span("a", 1.0, 4.0, 0, 0),
        spans.Span("b", 3.0, 6.0, 0, 0),          # overlaps a: union is [1, 6]
        spans.Span("a.child", 2.0, 3.0, 1, 0, {"leaf": 0.25}),
        spans.Span("late", 9.0, 12.0, 0, 0),      # clipped to the parent's [9, 10]
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([10.0 - 5.0 - 1.0 - 1.0, 3.0 - 1.0, 3.0, 0.75, 3.0])


def test_tracer_self_times_add_up_to_the_root():
    tracer = spans.Tracer()

    def leaf(x):
        return sum(range(x))

    hot = tracer.tally_wrapper("layer.leaf", "layer", leaf)
    nested = tracer.tally_wrapper("layer.nested", "layer", lambda x: hot(x))
    inner = tracer.span_wrapper("inner", lambda: [hot(2000) for _ in range(5)])
    outer = tracer.span_wrapper("outer", lambda: (inner(), nested(3000), inner()))
    outer()
    selfs = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert root.name == "outer" and all(s >= 0.0 for s in selfs)
    assert sum(selfs) + tracer.tallies["layer.leaf"][1] \
        + tracer.tallies["layer.nested"][1] == pytest.approx(root.end - root.start)
    # a call nested inside its own layer is not counted again
    assert tracer.tallies["layer.leaf"][0] == 10
    assert tracer.tallies["layer.nested"][0] == 1


def test_hooks_wrap_where_the_caller_looks_up_and_restore():
    import modrabi.scenarios as scenarios
    import modrabi.dynamics as dynamics
    original = scenarios.rotated_hamiltonian
    with spans.Hooks(spans.Tracer()) as hooks:
        assert scenarios.rotated_hamiltonian is not original
        assert "dynamics.rk45" in hooks.installed
        assert "hamiltonians.evaluate" in hooks.installed
    assert scenarios.rotated_hamiltonian is original
    assert dynamics.solve_ivp.__module__.startswith("scipy")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _small_simulate_op(tmp_path, workload="exact_open"):
    ops = inputs.generate(workload, 2, 1)
    op = next(o for o in ops if o["doc"]["fock_cutoff"] == 8)
    op["doc"]["grid"] = {"t_end_ns": 0.3, "samples": 7}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(op["doc"]))
    out = tmp_path / "out"
    from modrabi import cli
    rc = cli.main(["simulate", str(path), "-o", str(out)])
    return op, rc, out


def _copy(out, tmp_path, name):
    dst = tmp_path / name
    shutil.copytree(out, dst)
    return dst


def test_gate_passes_real_output_and_flags_perturbed_copies(tmp_path):
    op, rc, out = _small_simulate_op(tmp_path)
    verdict = gate.check(op, rc, "", out)
    assert verdict.ok, verdict.failures
    assert gate.oracle_deviation(op["doc"], verdict.table) <= gate.ORACLE_LIMIT

    assert not gate.check(op, 3, "", out).ok

    drift = _copy(out, tmp_path, "drift")
    manifest = json.loads((drift / "manifest.json").read_text())
    manifest["diagnostics"]["exact"]["trace_drift"] = 1e-6
    (drift / "manifest.json").write_text(json.dumps(manifest))
    assert any("trace_drift" in f for f in gate.check(op, 0, "", drift).failures)

    header = _copy(out, tmp_path, "header")
    lines = (header / "timeseries.csv").read_text().splitlines()
    cols = lines[0].split(",")
    cols[1], cols[2] = cols[2], cols[1]
    (header / "timeseries.csv").write_text("\r\n".join([",".join(cols)] + lines[1:]))
    assert any("header" in f for f in gate.check(op, 0, "", header).failures)

    value = _copy(out, tmp_path, "value")
    lines = (value / "timeseries.csv").read_text().splitlines()
    row = lines[4].split(",")
    row[1] = repr(float(row[1]) + 1e-5)
    lines[4] = ",".join(row)
    (value / "timeseries.csv").write_text("\r\n".join(lines))
    perturbed = gate.check(op, 0, "", value)
    assert perturbed.ok     # only the oracle can see a plausible wrong value
    assert gate.oracle_deviation(op["doc"], perturbed.table) > gate.ORACLE_LIMIT


@pytest.mark.parametrize("workload", ["exact_open", "exact_unitary"])
@pytest.mark.parametrize("model", ["exact", "effective"])
def test_gate_flags_drift_of_either_model(tmp_path, workload, model):
    op, rc, out = _small_simulate_op(tmp_path, workload)
    assert gate.check(op, rc, "", out).ok
    manifest = json.loads((out / "manifest.json").read_text())
    diag = manifest["diagnostics"][model]
    # a lossy exact run is a density matrix; the others are state vectors
    key = "trace_drift" if (workload, model) == ("exact_open", "exact") else "norm_drift"
    assert diag[key] < gate.DRIFT_LIMIT
    diag[key] = 1e-6
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert any(f.startswith(f"{model}: {key}")
               for f in gate.check(op, 0, "", out).failures)


def test_gate_flags_a_cat_that_misses_the_closed_form(tmp_path):
    from modrabi import cli
    op = next(o for o in inputs.generate("protocols", 4, 2) if o["kind"] == "cat")
    out = tmp_path / "cat"
    rc = cli.main(inputs.substitute(op["argv"], out=str(out)))
    assert gate.check(op, rc, "", out).ok
    bad = _copy(out, tmp_path, "bad")
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["conditional"]["p_g_measured"] += 1e-6
    (bad / "manifest.json").write_text(json.dumps(manifest))
    assert any("closed form" in f for f in gate.check(op, 0, "", bad).failures)


def test_gate_flags_a_wrong_propagator():
    from modrabi.applications import magnus_propagator
    from modrabi.hilbert import HilbertSpace
    op = next(o for o in inputs.generate("protocols", 4, 2) if o["kind"] == "magnus")
    p = op["params"]
    space = HilbertSpace(2, p["fock_cutoff"])
    good = magnus_propagator(p["g_eff"], p["omega_eff"], p["t"], space)
    assert gate.check(op, 0, "", ".", good).ok
    other = magnus_propagator(p["g_eff"], p["omega_eff"], p["t"] + 1e-3, space)
    assert not gate.check(op, 0, "", ".", other).ok


@pytest.mark.parametrize("n, pct, beyond", [(40, 75, 10), (125, 92, 10), (2700, 99, 27)])
def test_tail_is_the_highest_whole_percentile_with_ten_beyond(n, pct, beyond):
    import loop
    assert loop.tail_percentile(n) == pct
    value = loop.tail([float(i) for i in range(n)][::-1], pct)
    assert n - 1 - value == beyond


@pytest.mark.parametrize("workload, pct", [("exact_open", 75), ("exact_unitary", 90),
                                           ("effective_sweep", 80), ("protocols", 99)])
def test_a_workload_tail_percentile_holds_ten_beyond_in_its_shortest_run(workload, pct):
    import loop
    import run
    n = run.min_ops(workload)
    assert n % inputs.cycle_ops(workload) == 0
    assert run.tail_pct(workload) == pct
    # a longer run keeps the percentile and has more samples beyond it
    for m in (n, n + inputs.cycle_ops(workload)):
        value = loop.tail([float(i) for i in range(m)][::-1], pct)
        assert m - 1 - value >= 10


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_the_generated_pool_holds_whole_cycles(workload):
    import run
    ops = inputs.generate(workload, 2, run.POOL_BLOCKS[workload])
    assert len(ops) % inputs.cycle_ops(workload) == 0
