import csv
import json
import math
import warnings

import numpy as np
import pytest

from modrabi.cli import build_parser, main
from modrabi.errors import NumericsError, ValidationError
from modrabi.scenarios import (apply_sweep_value, load_scenario,
                               load_scenario_document, packaged_scenarios,
                               parse_scenario, run_simulation, run_sweep)

TWO_PI = 2 * math.pi


def small_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "small",
        "system": {"epsilon_ghz": 5.4, "omega_ghz": 2.2, "g_mhz": 70,
                   "kappa_mhz": 0.05, "gamma_mhz": 0.012},
        "drive": {"omega1_ghz": 3.2, "amp1_ghz": 2.296,
                  "omega2_ghz": 6.759, "amp2_ghz": 4.849},
        "model": "both",
        "dissipation": False,
        "initial_state": "vac_g",
        "grid": {"t_end_ns": 2.0, "samples": 21},
        "fock_cutoff": 8,
    }
    doc.update(overrides)
    return doc


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_packaged_library_complete():
    names = packaged_scenarios()
    assert names == ["fig2a", "fig2d", "fig3a", "fig3d", "fig4ajc", "fig4jc", "fig5"]
    for name in names:
        scn = load_scenario(name)
        assert scn.samples >= 2


def test_amplitude_products_resolve_to_normalized_values():
    scn = load_scenario("fig2a")
    assert scn.drive.eta1 == pytest.approx(2.296 / 3.2, rel=1e-12)
    assert scn.drive.eta2 == pytest.approx(4.849 / 6.759, rel=1e-12)
    assert scn.system.g == pytest.approx(TWO_PI * 70e6, rel=1e-12)
    assert scn.system.kappa == pytest.approx(TWO_PI * 0.05e6, rel=1e-12)
    assert scn.system.gamma == pytest.approx(TWO_PI * 0.012e6, rel=1e-12)


@pytest.mark.parametrize("breaker, path", [
    ({"schema_version": 2}, "schema_version"),
    ({"model": "exact"}, "model"),
    ({"initial_state": "bell"}, "initial_state"),
    ({"grid": {"t_end_ns": 2.0, "samples": 0}}, "grid.samples"),
    ({"grid": {"t_end_ns": -1.0, "samples": 5}}, "grid.t_end_ns"),
    ({"fock_cutoff": 1}, "fock_cutoff"),
    ({"outputs": ["nope"]}, "outputs"),
    ({"integrator": {"method": "leapfrog"}}, "integrator.method"),
])
def test_validation_errors_carry_field_path(breaker, path):
    with pytest.raises(ValidationError) as err:
        parse_scenario(small_doc(**breaker))
    assert path in str(err.value)


def test_fidelity_output_requires_both_models():
    doc = small_doc(model="effective", outputs=["sigma_pop", "fidelity"])
    with pytest.raises(ValidationError) as err:
        parse_scenario(doc)
    assert "fidelity" in str(err.value)


def test_eta_and_amp_are_exclusive():
    doc = small_doc()
    doc["drive"]["eta1"] = 0.7
    with pytest.raises(ValidationError):
        parse_scenario(doc)


def test_run_simulation_shapes_and_fidelity():
    scn = parse_scenario(small_doc())
    res = run_simulation(scn)
    assert res.header == ["time_s", "sigma_pop", "photon_number", "fidelity",
                          "trace", "purity", "top_fock_pop",
                          "sigma_pop_eff", "photon_number_eff"]
    assert len(res.rows) == 21
    fid = [row[3] for row in res.rows]
    assert fid[0] == pytest.approx(1.0, abs=1e-12)
    assert min(fid) > 0.99


@pytest.mark.parametrize("model", ["both", "rotated_exact"])
def test_integrator_block_overrides_only_its_keys(model):
    # a block holding only dt_ns keeps the exact frame on fixed_dp5, at that step
    dt_ns = 0.003
    scn = parse_scenario(small_doc(model=model, integrator={"dt_ns": dt_ns}))
    res = run_simulation(scn)
    exact = res.manifest["diagnostics"]["exact"]
    assert exact["method"] == "fixed_dp5"
    times = np.linspace(0.0, 2e-9, 21)
    steps = [math.ceil((t1 - t0) / (dt_ns * 1e-9)) for t0, t1 in zip(times[:-1], times[1:])]
    assert steps == [34] * 20
    assert exact["rhs_evals"] == sum(6 * n + 1 for n in steps)    # FSAL: one restart a sample
    if model == "both":
        assert res.manifest["diagnostics"]["effective"]["method"] == "spectral"
        assert res.rows[0][3] == pytest.approx(1.0, abs=1e-12)


def test_dissipative_comparison_keeps_no_density_matrices():
    import tracemalloc
    scn = parse_scenario(small_doc(dissipation=True, fock_cutoff=20,
                                   grid={"t_end_ns": 0.5, "samples": 401}))
    stack_bytes = scn.samples * (2 * scn.fock_cutoff) ** 2 * 16     # one (T, d, d) stack
    tracemalloc.start()
    try:
        res = run_simulation(scn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.exact.states is None
    assert res.effective.states.shape == (401, 40)
    assert peak < stack_bytes
    assert res.header[3] == "fidelity"
    assert res.rows[0][3] == pytest.approx(1.0, abs=1e-12)


def test_sweep_values_and_manifest():
    doc = small_doc(model="effective")
    manifest, header, rows = run_sweep(doc, "drive.eta2", [0.0, 0.3, 0.6],
                                       threads=1)
    assert header == ["sweep_value", "time_s", "sigma_pop", "photon_number"]
    assert manifest["status"] == "complete"
    assert len(rows) == 3 * 21
    values = sorted({row[0] for row in rows})
    assert values == [0.0, 0.3, 0.6]


def test_sweep_worker_pool_matches_serial():
    doc = small_doc(model="effective")
    _, _, serial = run_sweep(doc, "drive.eta2", [0.0, 0.4, 0.8], threads=1)
    _, _, pooled = run_sweep(doc, "drive.eta2", [0.0, 0.4, 0.8], threads=2)
    assert serial == pooled


def _openblas_functions(verb):
    """The `*_{verb}_num_threads` function of every OpenBLAS this process has
    loaded, `verb` being "get" or "set"."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    functions = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
            if hasattr(lib, name.format(verb)):
                function = getattr(lib, name.format(verb))
                function.argtypes, function.restype = \
                    ([], ctypes.c_int) if verb == "get" else ([ctypes.c_int], None)
                functions.append(function)
    return functions


def _blas_threads():
    """The thread count of every OpenBLAS this process has loaded."""
    return [get() for get in _openblas_functions("get")]


def _set_blas_threads(counts):
    for put, count in zip(_openblas_functions("set"), counts):
        put(count)


def _report_blas_threads(job):
    """A sweep point whose sigma_pop is the largest BLAS thread count of the
    worker that ran it."""
    return {"value": job[0], "ok": True, "times": [0.0], "sigma_pop": [max(_blas_threads())],
            "photon_number": [0.0], "effective": None, "diagnostics": None,
            "reference_diagnostics": None}


def test_sweep_pool_workers_run_one_blas_thread(monkeypatch):
    import modrabi.scenarios as scenarios
    try:
        if not _blas_threads():
            pytest.skip("no OpenBLAS loaded")
    except OSError:
        pytest.skip("no /proc/self/maps to find OpenBLAS in")
    monkeypatch.setattr(scenarios, "_sweep_point", _report_blas_threads)
    _, _, rows = run_sweep(small_doc(model="effective"), "drive.eta2", [0.0, 0.4, 0.8],
                           threads=2)
    assert [row[2] for row in rows] == [1, 1, 1]


@pytest.fixture
def caller_blas_threads():
    """Every loaded OpenBLAS set to two threads, the caller's counts that a run
    must give back; the counts found are put back after the test."""
    try:
        before = _blas_threads()
    except OSError:
        pytest.skip("no /proc/self/maps to find OpenBLAS in")
    if not before:
        pytest.skip("no OpenBLAS loaded")
    _set_blas_threads([2] * len(before))
    yield [2] * len(before)
    _set_blas_threads(before)


@pytest.fixture
def blas_spy(monkeypatch):
    """The BLAS thread counts read as each integration of a run starts."""
    import modrabi.scenarios as scenarios
    seen = []
    for name in ("_master", "_schrodinger"):
        def spy(*args, _evolve=getattr(scenarios, name), **kwargs):
            seen.append(_blas_threads())
            return _evolve(*args, **kwargs)
        monkeypatch.setattr(scenarios, name, spy)
    return seen


def test_run_simulation_runs_one_blas_thread_and_restores_the_callers(
        caller_blas_threads, blas_spy):
    run_simulation(parse_scenario(small_doc(dissipation=True)))
    ones = [1] * len(caller_blas_threads)
    assert blas_spy == [ones, ones]    # the effective reference, then the exact run
    assert _blas_threads() == caller_blas_threads


@pytest.mark.parametrize("error", [NumericsError, ValidationError])
def test_run_simulation_restores_blas_threads_after_an_error(
        caller_blas_threads, blas_spy, monkeypatch, error):
    import modrabi.scenarios as scenarios

    def fail(*args, **kwargs):
        blas_spy.append(_blas_threads())
        raise error("injected")
    monkeypatch.setattr(scenarios, "_master", fail)
    with pytest.raises(error, match="injected"):
        run_simulation(parse_scenario(small_doc(dissipation=True)))
    assert blas_spy[-1] == [1] * len(caller_blas_threads)
    assert _blas_threads() == caller_blas_threads


def test_serial_sweep_keeps_one_blas_thread_across_points_and_restores_the_callers(
        caller_blas_threads, blas_spy):
    run_sweep(small_doc(model="effective"), "drive.eta2", [0.0, 0.4, 0.8], threads=1)
    assert blas_spy == [[1] * len(caller_blas_threads)] * 3
    assert _blas_threads() == caller_blas_threads


def test_concurrent_runs_keep_one_blas_thread_until_the_last_returns(
        caller_blas_threads, monkeypatch):
    """The second run reads its counts after the first has returned."""
    import threading
    import modrabi.scenarios as scenarios
    both_inside, first_done = threading.Barrier(2, timeout=60), threading.Event()
    seen, errors = {}, []
    evolve = scenarios._schrodinger

    def spy(*args, **kwargs):
        both_inside.wait()
        name = threading.current_thread().name
        if name == "second":
            assert first_done.wait(60)
        seen[name] = _blas_threads()
        return evolve(*args, **kwargs)

    def run(done=None):
        try:
            run_simulation(parse_scenario(small_doc(model="effective")))
        except BaseException as err:
            errors.append(err)
        if done is not None:
            done.set()

    monkeypatch.setattr(scenarios, "_schrodinger", spy)
    workers = [threading.Thread(target=run, args=(first_done,), name="first"),
               threading.Thread(target=run, name="second")]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(120)
        assert not worker.is_alive()
    assert errors == []
    ones = [1] * len(caller_blas_threads)
    assert seen == {"first": ones, "second": ones}
    assert _blas_threads() == caller_blas_threads


@pytest.mark.parametrize("argv", [["validate", "fig2a"],
                                  ["design", "--lambda", "1", "--gratio", "1.2"]])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, argv):
    # `modrabi validate fig2a | head -3`: the reader has gone before the
    # command writes, which then stops with no traceback on stderr
    import os
    import subprocess
    import sys
    from pathlib import Path

    import modrabi
    src = str(Path(modrabi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "modrabi.cli", *argv], cwd=tmp_path,
                              env=env, stdout=write, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_sweep_rejects_unknown_param_and_single_point():
    doc = small_doc()
    with pytest.raises(ValidationError):
        run_sweep(doc, "system.epsilon_ghz", [1.0, 2.0])
    with pytest.raises(ValidationError):
        run_sweep(doc, "drive.eta2", [0.5])


@pytest.mark.parametrize("threads, env, where", [
    (0, None, "--threads"), (-3, None, "--threads"), (0, "4", "--threads")])
def test_sweep_rejects_bad_thread_count_before_compute(monkeypatch, threads, env, where):
    import modrabi.scenarios as scenarios

    def no_compute(job):
        raise AssertionError("a sweep point ran")
    monkeypatch.setattr(scenarios, "_sweep_point", no_compute)
    if env is None:
        monkeypatch.delenv("MODRABI_THREADS", raising=False)
    else:
        monkeypatch.setenv("MODRABI_THREADS", env)
    with pytest.raises(ValidationError, match=where):
        run_sweep(small_doc(), "drive.eta2", [0.0, 0.4], threads=threads)


def test_cli_sweep_bad_thread_count_exits_2(tmp_path, capsys):
    scn_file = tmp_path / "small.json"
    scn_file.write_text(json.dumps(small_doc(model="effective")))
    args = ["sweep", str(scn_file), "--param", "drive.eta2", "--from", "0", "--to", "0.6",
            "--points", "2", "-o", str(tmp_path / "swp")]
    assert main(args + ["--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "swp").exists()


def test_cli_sweep_without_threads_runs_a_worker_per_cpu_whatever_the_environment(
        tmp_path, monkeypatch):
    import os
    scn_file = tmp_path / "small.json"
    scn_file.write_text(json.dumps(small_doc(model="effective")))
    monkeypatch.setenv("MODRABI_THREADS", "abc")
    assert main(["sweep", str(scn_file), "--param", "drive.eta2", "--from", "0",
                 "--to", "0.6", "--points", "2", "-o", str(tmp_path / "swp")]) == 0
    manifest = json.loads((tmp_path / "swp" / "manifest.json").read_text())
    assert manifest["sweep"]["threads"] == min(os.cpu_count() or 1, 2)


def test_apply_sweep_value_replaces_amplitude_spec():
    doc = small_doc()
    out = apply_sweep_value(doc, "drive.eta2", 0.9)
    assert out["drive"]["eta2"] == 0.9
    assert "amp2_ghz" not in out["drive"]
    out2 = apply_sweep_value(doc, "fock_cutoff", 12.2)
    assert out2["fock_cutoff"] == 12
    # a tone frequency in another unit is replaced the same way
    doc["drive"]["omega1_mhz"] = doc["drive"].pop("omega1_ghz") * 1e3
    out3 = apply_sweep_value(doc, "drive.omega1_ghz", 3.3)
    assert out3["drive"]["omega1_ghz"] == 3.3
    assert "omega1_mhz" not in out3["drive"]
    assert parse_scenario(out3).drive.omega1 == pytest.approx(TWO_PI * 3.3e9, rel=1e-12)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_sweep_non_finite_value_exits_2(value, tmp_path, capsys):
    out = tmp_path / "swp"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)    # rejected before any arithmetic
        assert main(["sweep", "fig5", "--param", "fock_cutoff", "--from", value, "--to", "10",
                     "--points", "2", "--threads", "1", "-o", str(out)]) == 2
    assert "fock_cutoff" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_amplitude_beyond_the_bessel_range_exits_2(tmp_path, capsys):
    out = tmp_path / "swp"
    assert main(["sweep", "fig5", "--param", "drive.eta1", "--from", "0.5", "--to", "30",
                 "--points", "2", "--threads", "1", "-o", str(out)]) == 2
    assert "drive.eta1" in capsys.readouterr().err
    assert not out.exists()


def test_amplitude_at_the_bessel_range_edge_parses():
    doc = small_doc()
    doc["drive"]["amp1_ghz"] = 3.2 * 25.0       # 2 eta1 = X_LIMIT exactly
    assert parse_scenario(doc).drive.eta1 == pytest.approx(25.0, rel=1e-12)


def test_cli_sweep_of_a_field_the_base_document_lacks(tmp_path):
    # every point sets drive.eta2, so the document without it is never parsed alone
    doc, _ = load_scenario_document("fig5")
    del doc["drive"]["eta2"]
    doc["grid"] = {"t_end_ns": 2.0, "samples": 11}
    scn_file = tmp_path / "no_eta2.json"
    scn_file.write_text(json.dumps(doc))
    out = tmp_path / "swp"
    assert main(["sweep", str(scn_file), "--param", "drive.eta2", "--from", "0",
                 "--to", "0.6", "--points", "2", "--threads", "1", "-o", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["sweep_value", "time_s", "sigma_pop", "photon_number"]
    assert len(rows) == 22
    assert json.loads((out / "manifest.json").read_text())["highlight"] == doc["highlight"]


def test_cli_sweep_amplitude_in_the_other_spelling(tmp_path):
    # fig5 spells the blue tone eta2; sweeping amp2_ghz replaces it
    out = tmp_path / "swp"
    assert main(["sweep", "fig5", "--param", "drive.amp2_ghz", "--from", "5.0",
                 "--to", "5.5", "--points", "2", "--threads", "1", "-o", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    effective = [p["effective"]["g_r_rad_s"] for p in manifest["points"]]
    assert effective[0] != effective[1]


def test_fock_cutoff_sweep_converges():
    # strong-ratio drive reaching <n> ~ 5: stored observables must be
    # insensitive to the ladder truncation well before cutoff 20
    doc, _ = load_scenario_document("fig3a")
    doc = dict(doc)
    doc["grid"] = {"t_end_ns": 20.0, "samples": 41}
    manifest, header, rows = run_sweep(doc, "fock_cutoff", [20.0, 30.0, 40.0],
                                       threads=1)
    assert manifest["status"] == "complete"
    by_cut = {}
    for cut, _, sig, pho in rows:
        by_cut.setdefault(cut, []).append((sig, pho))
    base = np.array(by_cut[20.0])
    for cut in (30.0, 40.0):
        assert np.max(np.abs(np.array(by_cut[cut]) - base)) < 1e-4


def test_exact_frame_rabi_period_end_to_end(packaged_runs):
    # the full pipeline (drive -> exact frame -> master equation) reproduces
    # the closed-form swap period of the rotating-only drive set
    import math
    from modrabi.dynamics import extract_period
    res = packaged_runs["fig4jc"]
    est = extract_period(res.exact.times, res.exact.observables["sigma_pop"])
    expected = math.pi / abs(res.manifest["resolved"]["effective"]["g_r_rad_s"])
    assert est.period == pytest.approx(expected, rel=0.02)
    fid = res.exact.observables["fidelity"]
    assert fid.min() > 0.95 and fid[0] == pytest.approx(1.0, abs=1e-12)


def test_design_target_scenario():
    doc = small_doc()
    doc["drive"] = {"design": {"anisotropy": 1.0, "g_r_over_omega_eff": 1.2,
                               "delta1_mhz": 0.0}}
    doc["model"] = "effective"
    scn = parse_scenario(doc)
    assert scn.drive.eta1 == pytest.approx(0.7173)
    assert scn.drive.eta2 == pytest.approx(0.7173, abs=2e-5)
    from modrabi.modulation import effective_params
    eff = effective_params(scn.system, scn.drive)
    assert abs(eff.g_r / eff.omega_eff) == pytest.approx(1.2, abs=1e-6)
    doc["drive"] = {"design": {"anisotropy": "inf"}}
    scn = parse_scenario(doc)
    assert scn.drive.eta2 == pytest.approx(1.2024, rel=1e-3)
    doc["drive"] = {"design": {"anisotropy": 1.0}, "omega1_ghz": 3.2}
    with pytest.raises(ValidationError):
        parse_scenario(doc)


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

def test_cli_simulate_writes_outputs(tmp_path):
    scn_file = tmp_path / "small.json"
    scn_file.write_text(json.dumps(small_doc()))
    rc = main(["simulate", str(scn_file), "-o", str(tmp_path / "out")])
    assert rc == 0
    header, rows = read_csv(tmp_path / "out" / "timeseries.csv")
    assert header[0] == "time_s"
    assert len(rows) == 21
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["resolved"]["effective"]["g_r_over_omega_eff"] == \
        pytest.approx(0.05, rel=1e-2)
    assert manifest["resolved"]["validity"]["ok"] is True
    # the static lossless reference is solved by one eigendecomposition
    assert manifest["diagnostics"]["exact"]["method"] == "fixed_dp5"
    assert manifest["diagnostics"]["effective"]["method"] == "spectral"


@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["022", "077"])
def test_output_files_take_the_umask_as_a_plain_open_would(tmp_path, mask):
    import os
    import stat
    from modrabi.scenarios import write_csv, write_json
    old = os.umask(mask)
    try:
        write_json(tmp_path / "manifest.json", {"a": 1})
        write_csv(tmp_path / "timeseries.csv", ["x"], [[1.0]])
        write_csv(tmp_path / "timeseries.csv", ["x"], [[2.0]])    # over an existing file
    finally:
        os.umask(old)
    for name in ("manifest.json", "timeseries.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~mask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "timeseries.csv"]


def test_write_csv_matches_the_csv_module_field_by_field(tmp_path):
    """The one-pass writer against csv.writer fed one formatted value at a time."""
    import io
    from modrabi.scenarios import write_csv

    def reference_field(value):
        return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)

    header = ["time_s", "n", "mixed", "note, quoted"]
    rows = [[np.float64(0.1 * k), k, [np.float32(0.5), 3, 2.5e-300, True][k],
             ['plain', 'a,b', 'say "hi"', 'two\nlines'][k]] for k in range(4)]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([reference_field(v) for v in row])
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == buf.getvalue().encode("utf-8")


def test_cli_simulate_is_deterministic(tmp_path):
    scn_file = tmp_path / "small.json"
    doc = small_doc(integrator={"method": "fixed_rk4"})
    scn_file.write_text(json.dumps(doc))
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "a")]) == 0
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "timeseries.csv").read_bytes()
    csv_b = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert csv_a == csv_b
    man_a = (tmp_path / "a" / "manifest.json").read_bytes()
    man_b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert man_a == man_b


@pytest.mark.parametrize("name", ["fig2a", "fig5"])
def test_trace_drift_is_the_largest_trace_defect_of_the_csv(name, tmp_path):
    # the manifest reads the trace off the series the CSV writes, not off a
    # second sum, so the two agree to the last bit
    assert main(["simulate", name, "-o", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "timeseries.csv")
    column = header.index("trace")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    primary = manifest["diagnostics"]["exact"] or manifest["diagnostics"]["effective"]
    assert primary["trace_drift"] == max(abs(float(row[column]) - 1.0) for row in rows)


def test_cli_simulate_exact_run_is_fixed_dp5_and_reproducible(tmp_path):
    scn_file = tmp_path / "small.json"
    scn_file.write_text(json.dumps(small_doc()))
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "a")]) == 0
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "b")]) == 0
    man_a = (tmp_path / "a" / "manifest.json").read_bytes()
    assert man_a == (tmp_path / "b" / "manifest.json").read_bytes()
    assert json.loads(man_a)["diagnostics"]["exact"]["method"] == "fixed_dp5"


def test_cli_simulate_validation_exit_code(tmp_path):
    scn_file = tmp_path / "bad.json"
    scn_file.write_text(json.dumps(small_doc(grid={"t_end_ns": 2.0, "samples": 0})))
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "out")]) == 2


def _with_drive(**fields):
    drive = dict(small_doc()["drive"])
    drive.update(fields)
    return {"drive": drive}


def _packaged(name, section, **fields):
    """The packaged scenario `name` with `fields` set in `section`; it sets
    every key small_doc sets, so it replaces the whole document."""
    doc, _ = load_scenario_document(name)
    doc[section] = {**doc[section], **fields}
    return doc


def test_cli_grid_over_the_evaluation_bound_exits_2_before_compute(tmp_path, capsys,
                                                                   monkeypatch):
    # fig4jc over 1e12 ns is about 1e15 right-hand sides: validate and
    # simulate both refuse it, naming the grid, and nothing is computed
    import modrabi.dynamics as dynamics

    def no_compute(*args):
        raise AssertionError("a run was propagated")
    monkeypatch.setattr(dynamics, "_propagate", no_compute)
    scn_file = tmp_path / "long.json"
    scn_file.write_text(json.dumps(_packaged("fig4jc", "grid", t_end_ns=1e12)))
    for argv in (["validate", str(scn_file)],
                 ["simulate", str(scn_file), "-o", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert "grid: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("breaker, path", [
    (_with_drive(phi1="x"), "drive.phi1"),
    (_with_drive(amp1_ghz="x"), "drive.amp1_ghz"),
    (_with_drive(omega1_ghz=0), "drive.omega1"),
    ({"drive": {"design": {"anisotropy": "abc"}}}, "drive.design.anisotropy"),
    ({"drive": {"design": {"anisotropy": 1.0, "g_r_over_omega_eff": "x"}}},
     "drive.design.g_r_over_omega_eff"),
    ({"drive": {"design": {"anisotropy": -1}}}, "drive.design"),
    ({"integrator": {"dt_ns": "x"}}, "integrator.dt_ns"),
    ({"outputs": 5}, "outputs"),
    ({"system": {"epsilon_ghz": 5.4, "omega_ghz": 2.2, "g_mhz": -70}}, "system.g_mhz"),
    ({"system": {"epsilon_ghz": 5.4, "omega_ghz": 1e300, "g_mhz": 70}}, "system.omega_ghz"),
    (_with_drive(amp2_ghz=-4.849), "drive.amp2_ghz"),
    ({"drive": {"omega1_ghz": 0, "eta1": 0.7, "omega2_ghz": 6.759, "eta2": 0.7}},
     "drive.omega1"),
    ({"integrator": {"metod": "fixed_rk4"}}, "integrator.metod"),
    ({"integrator": {"store_every": 2}}, "integrator.store_every"),
    # no run reads a tolerance, and every method takes fixed steps
    ({"integrator": {"rtol": 1e-10}}, "integrator.rtol"),
    ({"integrator": {"atol": 1e-12}}, "integrator.atol"),
    ({"integrator": {"method": "adaptive"}}, "integrator.method"),
    # a misspelled key is refused in every section, not ignored
    ({"fock_cuttoff": 30}, "fock_cuttoff"),
    ({"dissipaton": True}, "dissipaton"),
    ({"system": {"epsilon_ghz": 5.4, "omega_ghz": 2.2, "g_mhz": 70, "kapa_mhz": 0.05}},
     "system.kapa_mhz"),
    (_with_drive(phi_1=0.3), "drive.phi_1"),
    ({"drive": {"design": {"anisotropy": 1.0, "gratio": 1.2}}}, "drive.design.gratio"),
    ({"grid": {"t_end_ns": 2.0, "samples": 21, "sample": 5}}, "grid.sample"),
    ({"highlight": {"param": "drive.eta2", "value": 0.7, "colour": "red"}},
     "highlight.colour"),
    # 2 eta beyond the Bessel range X_LIMIT = 50, named by the key as given
    ({"drive": {"omega1_ghz": 3.2, "eta1": 30, "omega2_ghz": 6.759, "eta2": 0.7}},
     "drive.eta1"),
    (_with_drive(amp1_ghz=3.2 * 26), "drive.amp1_ghz"),
    ({"drive": {"omega1_ghz": 3.2, "eta1": 0.7, "omega2_ghz": 6.759,
                "amp2_mhz": 6759.0 * 25.5}}, "drive.amp2_mhz"),
    # refused by the run's plan: 1e300 ns at fig4jc's step is far more steps
    # than an index can count, and fig5's degenerate drive at g = 0 leaves
    # H = 0, which suggests no step
    (_packaged("fig4jc", "grid", t_end_ns=1e300), "grid: "),
    (_packaged("fig5", "system", g_mhz=0), "integrator.dt_ns"),
    # an integer literal past the float range is not finite
    ({"fock_cutoff": 10**400}, "fock_cutoff"),
    ({"grid": {"t_end_ns": 2.0, "samples": 10**400}}, "grid.samples"),
    ({"grid": {"t_end_ns": -10**400, "samples": 21}}, "grid.t_end_ns"),
    # delta1 has one spelling, in MHz
    ({"drive": {"design": {"anisotropy": 1.0, "delta1_hz": 0.0}}}, "drive.design.delta1_hz"),
    # the name goes into the manifest and the stdout line, as a string
    ({"name": ["x"]}, "name: must be a string"),
    ({"description": None}, "description: must be a string"),
])
def test_cli_malformed_values_exit_2_with_field_path(breaker, path, tmp_path, capsys):
    scn_file = tmp_path / "bad.json"
    scn_file.write_text(json.dumps(small_doc(**breaker)))
    for argv in (["validate", str(scn_file)],
                 ["simulate", str(scn_file), "-o", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_plans_both_sides_before_either_runs(tmp_path, capsys, monkeypatch):
    # fig4jc's exact side is refused by its plan; the lossless effective
    # reference, which runs first, must not be computed before that
    import modrabi.dynamics as dynamics
    calls = []

    def spy(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(dynamics, "_propagate", spy("_propagate", dynamics._propagate))
    monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
    scn_file = tmp_path / "long.json"
    scn_file.write_text(json.dumps(_packaged("fig4jc", "grid", t_end_ns=1e300)))
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "out")]) == 2
    assert "grid: " in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_sweep_with_a_refused_point_exits_2_before_any_point_runs(tmp_path, capsys,
                                                                      monkeypatch, threads):
    # the last point of this sweep is fig4jc over 1e12 ns, which its plan
    # refuses; the sweep exits 2 naming that point and the grid, and its
    # first point, which is fine, is not run either
    import modrabi.scenarios as scenarios
    runs = []
    for name in ("_schrodinger", "_master"):
        monkeypatch.setattr(scenarios, name, lambda *args, **kwargs: runs.append(1))
    argv = ["sweep", "fig4jc", "--param", "grid.t_end_ns", "--from", "2", "--to", "1e12",
            "--points", "2", "--threads", threads, "-o", str(tmp_path / "swp")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "grid.t_end_ns = 1000000000000.0: grid: " in err
    assert runs == []
    assert not (tmp_path / "swp").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_plans_each_point_once_and_pool_workers_do_not_replan(monkeypatch, threads):
    import os

    import modrabi.scenarios as scenarios
    parent, planned, plan = os.getpid(), [], scenarios._plan

    def plan_in_the_parent(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a pool worker planned a run")
        planned.append(1)
        return plan(*args, **kwargs)
    monkeypatch.setattr(scenarios, "_plan", plan_in_the_parent)
    manifest, _, rows = run_sweep(small_doc(), "drive.eta2", [0.0, 0.4, 0.8], threads=threads)
    assert manifest["status"] == "complete" and manifest["failures"] == []
    assert len(planned) == 3 * 2        # model 'both': two runs per point
    assert len(rows) == 3 * 21


def test_cli_unreadable_scenario_exit_code(tmp_path, capsys):
    scn_file = tmp_path / "bad.json"
    scn_file.write_text('{"schema_version": 1,')
    assert main(["validate", str(scn_file)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["validate", str(tmp_path)]) == 2     # a directory


def test_cli_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    scn_file = tmp_path / "bad.json"
    scn_file.write_bytes(b'{"name": "\xff"}')
    assert main(["validate", str(scn_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "not valid JSON" in err
    assert str(scn_file) in err


@pytest.mark.parametrize("argv", [
    ["simulate", "fig5"],
    ["sweep", "fig5", "--param", "drive.eta2", "--from", "0", "--to", "1", "--points", "2"],
    ["applications", "cat", "--g-ratio", "0.5"],
    ["applications", "gate"],
    ["design", "--lambda", "1", "--gratio", "1.2"]],
    ids=["simulate", "sweep", "cat", "gate", "design"])
@pytest.mark.parametrize("under", ["", "x"], ids=["a_file", "under_a_file"])
def test_cli_output_that_cannot_be_a_directory_exits_2_before_compute(
        tmp_path, capsys, monkeypatch, argv, under):
    # -o naming a file, or a path under one, is refused before any run
    import modrabi.cli as cli

    def no_compute(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(cli, "run_simulation", no_compute)
    monkeypatch.setattr(cli, "run_sweep", no_compute)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main([*argv, "-o", str(afile / under)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: --output: {afile} is not a directory\n"
    assert afile.read_text() == ""


def test_cli_missing_scenario_exit_code(tmp_path):
    assert main(["simulate", "no_such_scenario", "-o", str(tmp_path)]) == 2


def test_cli_design_round_trip(tmp_path, capsys):
    rc = main(["design", "--lambda", "1", "--gratio", "1.2",
               "-o", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "design.json").read_text())
    assert doc["drive"]["omega2_ghz"] == pytest.approx(7.565, rel=1e-2)
    assert doc["drive"]["eta2"] == pytest.approx(0.7173, rel=1e-2)
    assert doc["effective"]["g_r_over_omega_eff"] == pytest.approx(1.2, rel=1e-6)
    # feed the designed drive back through a simulation manifest
    scn = small_doc()
    scn["drive"] = {"omega1_ghz": doc["drive"]["omega1_ghz"],
                    "omega2_ghz": doc["drive"]["omega2_ghz"],
                    "eta1": doc["drive"]["eta1"], "eta2": doc["drive"]["eta2"]}
    scn["model"] = "effective"
    scn["grid"] = {"t_end_ns": 1.0, "samples": 3}
    scn_file = tmp_path / "designed.json"
    scn_file.write_text(json.dumps(scn))
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "sim")]) == 0
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["resolved"]["effective"]["g_r_over_omega_eff"] == \
        pytest.approx(1.2, abs=1e-6)


def test_cli_output_is_strict_json_at_zero_coupling(tmp_path, capsys):
    def strict(text):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        return json.loads(text, parse_constant=refuse)

    scn_file = tmp_path / "g0.json"
    scn_file.write_text(json.dumps(small_doc(system={"epsilon_ghz": 5.4, "omega_ghz": 2.2,
                                                     "g_mhz": 0})))
    assert main(["validate", str(scn_file)]) == 0
    assert strict(capsys.readouterr().out)["validity"]["rwa_margin"] == "inf"
    assert main(["design", "--lambda", "0.5", "--g-mhz", "0"]) == 0
    assert strict(capsys.readouterr().out)["validity"]["rwa_margin"] == "inf"
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "out")]) == 0
    manifest = strict((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["resolved"]["validity"]["rwa_margin"] == "inf"


def test_cli_design_pure_jc_path(capsys):
    rc = main(["design", "--lambda", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["drive"]["eta2"] == 0.0


def test_cli_design_anti_jc_path(capsys):
    rc = main(["design", "--lambda", "inf", "--delta1-mhz", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["drive"]["eta1"] == pytest.approx(0.7173)
    assert doc["drive"]["eta2"] == pytest.approx(1.2024, rel=1e-3)
    assert doc["effective"]["g_r_rad_s"] == pytest.approx(0.0, abs=1e-4)


def test_cli_negative_values_in_exponent_notation(capsys):
    # argparse's own pattern reads '-3.5e-05' as an option, not a value
    assert main(["design", "--lambda", "1", "--gratio", "0.3",
                 "--delta1-mhz", "-3.5e-05"]) == 0
    spaced = json.loads(capsys.readouterr().out)
    assert main(["design", "--lambda", "1", "--gratio", "0.3",
                 "--delta1-mhz=-3.5e-05"]) == 0
    assert json.loads(capsys.readouterr().out) == spaced
    parser = build_parser()
    assert parser.parse_args(["applications", "cat", "--g-ratio", "-1.2E+0"]).g_ratio == -1.2
    assert parser.parse_args(["applications", "gate", "--g-ratio", "-2.5e-1"]).g_ratio == -0.25
    args = parser.parse_args(["sweep", "s.json", "--param", "drive.eta2",
                              "--from", "-1e-3", "--to", "-.5e1", "--points", "2"])
    assert (args.start, args.stop) == (-1e-3, -5.0)
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "s.json", "--param", "drive.eta2",
                           "--from", "-1e-3x", "--to", "1", "--points", "2"])


def test_cli_design_takes_delta1_in_mhz_alone(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["design", "--lambda", "1", "--delta1-hz", "1"])
    assert exit_.value.code == 2
    assert "--delta1-hz" in capsys.readouterr().err


def test_cli_design_unreachable_exit_code(capsys):
    assert main(["design", "--lambda", "1", "--gr-mhz", "100"]) == 4


@pytest.mark.parametrize("flag, value", [("--epsilon-ghz", "nan"), ("--g-mhz", "nan"),
                                         ("--delta1-mhz", "nan"), ("--omega-ghz", "inf"),
                                         ("--epsilon-ghz", "1e300")])
def test_cli_design_non_finite_value_exits_2(flag, value, capsys):
    assert main(["design", "--lambda", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err and flag in captured.err


@pytest.mark.parametrize("argv", [
    ["--lambda", "1", "--delta1-mhz", "inf"],
    ["--lambda", "1", "--delta1-mhz=-inf"], ["--lambda", "nan"],
    ["--lambda", "1", "--gratio", "nan"], ["--lambda", "1", "--gratio=-inf"],
    ["--lambda", "1", "--gratio", "inf"], ["--lambda", "1", "--gr-mhz", "nan"],
    ["--lambda", "1", "--gr-mhz", "inf"]], ids=" ".join)
def test_cli_design_non_finite_target_exits_2_naming_the_flag(argv, capsys):
    # checked before any solve; --lambda inf stays a valid target
    assert main(["design", *argv]) == 2
    captured = capsys.readouterr()
    flag = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
    assert captured.out == "" and captured.err.startswith(f"validation error: {flag}: ")


@pytest.mark.parametrize("argv", [
    ["--lambda", "1", "--gratio", "-1"], ["--lambda", "1", "--gratio", "0"],
    ["--lambda", "1", "--gr-mhz", "-5"], ["--lambda", "1", "--gr-mhz", "0"],
    ["--lambda", "-1"], ["--lambda", "1", "--g-mhz", "-5"]], ids=" ".join)
def test_cli_design_out_of_range_target_exits_2_naming_the_flag(argv, capsys):
    # invalid input, as in a scenario's drive.design; a target above the
    # reachable coupling stays exit 4 (test_cli_design_unreachable_exit_code)
    assert main(["design", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"validation error: {argv[-2]}: ")


def test_design_at_coupling_null_is_unreachable(tmp_path, capsys):
    # lambda = inf nulls g_r; no detuning realizes |g_r|/omega_eff = 1 there
    assert main(["design", "--lambda", "inf", "--gratio", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "unreachable" in captured.err
    doc = small_doc(model="effective")
    doc["drive"] = {"design": {"anisotropy": "inf", "g_r_over_omega_eff": 1.0}}
    with pytest.raises(ValidationError, match="drive.design"):
        parse_scenario(doc)
    scn_file = tmp_path / "null.json"
    scn_file.write_text(json.dumps(doc))
    assert main(["validate", str(scn_file)]) == 2
    assert "drive.design" in capsys.readouterr().err


def test_cli_sweep_end_to_end(tmp_path):
    scn_file = tmp_path / "small.json"
    scn_file.write_text(json.dumps(small_doc(model="effective")))
    rc = main(["sweep", str(scn_file), "--param", "drive.eta2",
               "--from", "0", "--to", "0.6", "--points", "3",
               "--threads", "1", "-o", str(tmp_path / "swp")])
    assert rc == 0
    header, rows = read_csv(tmp_path / "swp" / "sweep.csv")
    assert header == ["sweep_value", "time_s", "sigma_pop", "photon_number"]
    assert len(rows) == 63
    manifest = json.loads((tmp_path / "swp" / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert len(manifest["points"]) == 3


def test_cli_warns_on_failed_cutoff_check(tmp_path, capsys):
    scn_file = tmp_path / "small.json"
    scn_file.write_text(json.dumps(small_doc(fock_cutoff=2)))
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "sim")]) == 0
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert [manifest["diagnostics"][side]["cutoff_ok"] for side in ("exact", "effective")] \
        == [False, False]
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2
    assert "exact run" in warnings[0] and "effective run" in warnings[1]
    assert all(w.startswith("warning: small:") and "Fock-cutoff" in w for w in warnings)
    # the line names the population reached, when, and the limit
    for w, side in zip(warnings, ("exact", "effective")):
        diag = manifest["diagnostics"][side]
        assert diag["max_top_fock_pop"] > 1e-6
        assert (f"reached {diag['max_top_fock_pop']:.3g} "
                f"at t = {diag['max_top_fock_pop_time']:.6g} s; limit 1e-06") in w
    # a sweep names the point; the adequate cutoff prints nothing
    assert main(["sweep", str(scn_file), "--param", "fock_cutoff", "--from", "2",
                 "--to", "8", "--points", "2", "--threads", "1",
                 "-o", str(tmp_path / "swp")]) == 0
    manifest = json.loads((tmp_path / "swp" / "manifest.json").read_text())
    assert [p["diagnostics"]["cutoff_ok"] for p in manifest["points"]] == [False, True]
    # the lossless effective reference of each point is kept and warned for too
    assert [p["reference_diagnostics"]["cutoff_ok"] for p in manifest["points"]] \
        == [False, True]
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2
    assert warnings[0].startswith("warning: fock_cutoff = 2.0: exact run")
    assert warnings[1].startswith("warning: fock_cutoff = 2.0: effective run")


def test_cli_passing_cutoff_check_prints_no_warning(tmp_path, capsys):
    scn_file = tmp_path / "small.json"
    scn_file.write_text(json.dumps(small_doc()))
    assert main(["simulate", str(scn_file), "-o", str(tmp_path / "sim")]) == 0
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["diagnostics"]["exact"]["cutoff_ok"] is True
    assert capsys.readouterr().err == ""


def test_cli_sweep_single_point_rejected(tmp_path):
    scn_file = tmp_path / "small.json"
    scn_file.write_text(json.dumps(small_doc()))
    rc = main(["sweep", str(scn_file), "--param", "drive.eta2",
               "--from", "0", "--to", "1", "--points", "1",
               "-o", str(tmp_path / "swp")])
    assert rc == 2


def test_cli_applications_cat(tmp_path):
    rc = main(["applications", "cat", "--g-ratio", "1.2",
               "--fock-cutoff", "40", "-o", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["displacement"]["xi_abs"] == pytest.approx(2.4, rel=1e-9)
    cond = manifest["conditional"]
    assert cond["p_g_measured"] == pytest.approx(cond["p_g_closed_form"], abs=1e-8)
    assert cond["even_cat_cross_parity"] < 1e-10
    header, rows = read_csv(tmp_path / "cat_path.csv")
    assert header == ["time_s", "xi_re", "xi_im", "xi_abs", "phase"]
    header, rows = read_csv(tmp_path / "cat_fock.csv")
    assert len(rows) == 40


def test_cli_applications_cat_negative_omega_default_time(tmp_path):
    # the default preparation time is half a period, pi / |omega_eff|, for either sign
    assert main(["applications", "cat", "--g-ratio", "1.2", "--omega-mhz", "-35",
                 "--samples", "21", "-o", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["params"]["t_end_s"] == pytest.approx(1.0 / (2 * 35e6), rel=1e-12)
    assert manifest["displacement"]["xi_abs"] == pytest.approx(2.4, rel=1e-9)
    _, rows = read_csv(tmp_path / "cat_path.csv")
    times = [float(r[0]) for r in rows]
    assert times[0] == 0.0 and all(b > a for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("flag, value", [("--omega-mhz", "0"), ("--omega-mhz", "inf"),
                                         ("--omega-mhz", "nan"), ("--samples", "0"),
                                         ("--samples", "-1"), ("--g-ratio", "nan"),
                                         ("--g-ratio", "inf"), ("--g-ratio", "0"),
                                         ("--g-ratio", "1e154"), ("--g-ratio", "-1e200"),
                                         ("--time-ns", "nan"), ("--time-ns", "inf"),
                                         ("--time-ns", "0"), ("--time-ns", "-1"),
                                         ("--fock-cutoff", "1"), ("--fock-cutoff", "0")])
def test_cli_applications_cat_bad_flag_exits_2(flag, value, tmp_path, capsys):
    out = tmp_path / "cat"
    assert main(["applications", "cat", "--g-ratio", "1.2", flag, value,
                 "-o", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_cli_applications_cat_without_odd_outcome_is_refused_before_compute(
        tmp_path, capsys, monkeypatch):
    # P(e) = (1 - e^{-2|xi|^2}) / 2 at or below what conditional_cat refuses
    # is refused by its flag, before the state is built; a tiny nonzero
    # displacement still heralds both outcomes
    import modrabi.cli as cli

    def no_compute(*args):
        raise AssertionError("the cat state was built")
    monkeypatch.setattr(cli, "cat_evolution", no_compute)
    for ratio in ("0", "-0", "1e-170"):
        assert main(["applications", "cat", "--g-ratio", ratio,
                     "-o", str(tmp_path / "cat")]) == 2
        assert "--g-ratio" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["applications", "cat", "--g-ratio", "1e-140", "--samples", "3",
                 "-o", str(tmp_path / "tiny")]) == 0
    cond = json.loads((tmp_path / "tiny" / "manifest.json").read_text())["conditional"]
    assert cond["p_e_closed_form"] == pytest.approx(cond["p_e_measured"], rel=1e-12)


@pytest.mark.parametrize("value", ["nan", "inf", "1e200", "-1e154"])
def test_cli_applications_gate_non_finite_g_ratio_exits_2(value, tmp_path, capsys):
    out = tmp_path / "gate"
    assert main(["applications", "gate", "--g-ratio", value, "-o", str(out)]) == 2
    assert "--g-ratio" in capsys.readouterr().err
    assert not out.exists()


def test_cli_applications_gate(tmp_path):
    rc = main(["applications", "gate", "--g-ratio", "0.25", "-o", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["entangling_power"] == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert manifest["cnot_equivalence"]["equivalent"] is True
    assert manifest["cnot_equivalence"]["residual"] < 1e-9
    rc = main(["applications", "gate", "--g-ratio", "0.5", "-o", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["entangling_power"] < 1e-30
    assert manifest["cnot_equivalence"]["equivalent"] is False


def test_cli_validate(capsys):
    rc = main(["validate", "fig3d"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["effective"]["g_r_over_omega_eff"] == pytest.approx(1.2, rel=1e-2)
    assert doc["validity"]["ok"] is True
    # the manifest's resolved parameters, and each run's plan: 400 sample
    # intervals of 44 DP5 steps, 6 evaluations each plus 1
    assert doc["fock_cutoff"] == 40 and doc["grid"]["samples"] == 401
    assert doc["plans"] == {
        "effective": {"method": "spectral", "rhs_evals": 0, "blocks": [40]},
        "exact": {"method": "fixed_dp5", "rhs_evals": 400 * (44 * 6 + 1), "blocks": [40, 40]}}
