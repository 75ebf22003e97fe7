"""Correctness gate: decides whether one benchmark operation succeeded.

An operation fails if its exit code is not 0, if a CSV header differs from
the column order the README documents, if a manifest reports
``trace_drift >= 1e-8`` (``norm_drift`` for a state-vector run) or
``min_eigenvalue < -1e-6`` (the limits of
acceptance criterion 10), or if a protocol output misses its closed form.
The references here are computed by the benchmark itself, not taken from the
program, except where the issue names a library function as the reference.

``oracle_deviation`` re-runs an exact-frame scenario with fixed-step RK4 at
half the step and returns the largest deviation of the stored observables;
``sweep_oracle_deviation`` does the same for one sweep point with a fine
fixed step against the adaptive RK45 run.  Both run outside the timed phase.
"""

from __future__ import annotations

import cmath
import copy
import csv
import json
import math
from pathlib import Path

import numpy as np

DRIFT_LIMIT = 1e-8
MIN_EIGENVALUE_LIMIT = -1e-6
ORACLE_LIMIT = 1e-6
CUTOFF_POP_LIMIT = 1e-6
PROBABILITY_TOL = 1e-8
CNOT_RESIDUAL_LIMIT = 1e-9
SWEEP_ORACLE_REFINE = 16     # fixed RK4 at suggested_dt / 16 for sweep points

HEADERS = {
    "simulate_both": ["time_s", "sigma_pop", "photon_number", "fidelity",
                      "trace", "purity", "top_fock_pop", "sigma_pop_eff",
                      "photon_number_eff"],
    "sweep": ["sweep_value", "time_s", "sigma_pop", "photon_number"],
    "cat_path": ["time_s", "xi_re", "xi_im", "xi_abs", "phase"],
    "cat_fock": ["n", "pop_even", "pop_odd"],
}


class Verdict:
    """Failure reasons of one operation plus the numeric margins it showed."""

    def __init__(self):
        self.failures: list[str] = []
        self.closed_form_err: float | None = None
        self.drift: float | None = None
        self.min_eigenvalue: float | None = None
        self.top_fock_pop: float | None = None
        self.cutoff_ok: bool | None = None
        self.table: tuple[list, list] | None = None   # (header, rows) of the main CSV

    @property
    def ok(self) -> bool:
        return not self.failures

    def need(self, cond: bool, reason: str):
        if not cond:
            self.failures.append(reason)

    def err(self, value: float):
        self.closed_form_err = max(self.closed_form_err or 0.0, value)


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _check_header(v: Verdict, path: Path, expected: list) -> list | None:
    if not path.is_file():
        v.failures.append(f"{path.name} missing")
        return None
    header, rows = read_csv(path)
    v.need(header == expected, f"{path.name} header {header} != {expected}")
    v.need(all(math.isfinite(x) for row in rows for x in row),
           f"{path.name} holds a non-finite value")
    return rows


def _check_diagnostics(v: Verdict, diag: dict | None, where: str):
    if not diag:
        return
    # a density-matrix run reports trace_drift, a state-vector run norm_drift
    for key in ("trace_drift", "norm_drift"):
        if key in diag:
            v.need(diag[key] < DRIFT_LIMIT, f"{where}: {key} {diag[key]:.3e}")
            v.drift = max(v.drift or 0.0, diag[key])
    if "min_eigenvalue" in diag:
        lo = diag["min_eigenvalue"]
        v.need(lo >= MIN_EIGENVALUE_LIMIT, f"{where}: min_eigenvalue {lo:.3e}")
        v.min_eigenvalue = lo if v.min_eigenvalue is None else min(v.min_eigenvalue, lo)
    if diag.get("cutoff_ok") is not None:
        v.cutoff_ok = bool(diag["cutoff_ok"]) and v.cutoff_ok is not False


def check(op: dict, rc, stdout: str, outdir: Path, result=None) -> Verdict:
    """Gate one finished operation; ``result`` is the return of a library call."""
    v = Verdict()
    v.need(rc == 0, f"exit code {rc}")
    if rc != 0:
        return v
    try:
        CHECKS[op["kind"]](v, op, stdout, Path(outdir), result)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as err:
        v.failures.append(f"unreadable output: {type(err).__name__}: {err}")
    return v


def _check_simulate(v, op, stdout, outdir, result):
    doc = op["doc"]
    rows = _check_header(v, outdir / "timeseries.csv", HEADERS["simulate_both"])
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    v.need(manifest.get("csv_columns") == HEADERS["simulate_both"],
           "manifest csv_columns differ from the README order")
    for model in ("exact", "effective"):
        v.need(manifest["diagnostics"][model] is not None, f"no {model} diagnostics")
        _check_diagnostics(v, manifest["diagnostics"][model], model)
    if rows is not None:
        v.need(len(rows) == doc["grid"]["samples"],
               f"{len(rows)} rows for {doc['grid']['samples']} samples")
        top = HEADERS["simulate_both"].index("top_fock_pop")
        v.top_fock_pop = max(row[top] for row in rows)
        v.table = (HEADERS["simulate_both"], rows)


def _check_sweep(v, op, stdout, outdir, result):
    rows = _check_header(v, outdir / "sweep.csv", HEADERS["sweep"])
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    v.need(manifest["status"] == "complete", f"sweep status {manifest['status']}")
    points = manifest["points"]
    v.need(len(points) == op["sweep"]["points"],
           f"{len(points)} sweep points for {op['sweep']['points']}")
    for pt in points:
        _check_diagnostics(v, pt["diagnostics"], f"point {pt['value']}")
    if rows is not None:
        expected = op["sweep"]["points"] * op["doc"]["grid"]["samples"]
        v.need(len(rows) == expected, f"{len(rows)} sweep rows for {expected}")
        v.table = (HEADERS["sweep"], rows)


def _check_design(v, op, stdout, outdir, result):
    p = op["params"]
    doc = json.loads(stdout)
    eff = doc["effective"]
    lam = float(eff["anisotropy"])
    lam_err = abs(lam - p["lambda"]) / max(1.0, p["lambda"] ** 2)
    ratio_err = abs(float(eff["g_r_over_omega_eff"]) - p["gratio"]) / p["gratio"]
    v.err(max(lam_err, ratio_err))
    v.need(lam_err < 1e-8, f"anisotropy {lam} misses target {p['lambda']}")
    v.need(ratio_err < 1e-9,
           f"g_r/omega_eff {eff['g_r_over_omega_eff']} misses {p['gratio']}")
    written = json.loads((outdir / "design.json").read_text(encoding="utf-8"))
    v.need(written == doc, "design.json differs from the printed document")


def _check_cat(v, op, stdout, outdir, result):
    p = op["params"]
    path_rows = _check_header(v, outdir / "cat_path.csv", HEADERS["cat_path"])
    fock_rows = _check_header(v, outdir / "cat_fock.csv", HEADERS["cat_fock"])
    m = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    xi_abs = m["displacement"]["xi_abs"]
    xi_err = abs(xi_abs - 2.0 * abs(p["g_ratio"])) / (2.0 * abs(p["g_ratio"]))
    v.need(xi_err < 1e-12, f"|xi| = {xi_abs} at the half period, "
                           f"closed form {2.0 * abs(p['g_ratio'])}")
    xi = complex(m["displacement"]["xi_re"], m["displacement"]["xi_im"])
    overlap = math.exp(-2.0 * abs(xi) ** 2)
    cond = m["conditional"]
    p_err = max(abs(cond["p_g_measured"] - 0.5 * (1.0 + overlap)),
                abs(cond["p_e_measured"] - 0.5 * (1.0 - overlap)))
    v.err(max(xi_err, p_err))
    v.need(p_err < PROBABILITY_TOL, f"P(g)/P(e) miss the closed form by {p_err:.3e}")
    if path_rows is not None:
        v.need(len(path_rows) == p["samples"], "cat_path.csv row count")
    if fock_rows is not None:
        v.need(len(fock_rows) == p["fock_cutoff"], "cat_fock.csv row count")
        v.top_fock_pop = max(fock_rows[-1][1], fock_rows[-1][2])
        v.cutoff_ok = v.top_fock_pop < CUTOFF_POP_LIMIT


def _check_gate(v, op, stdout, outdir, result):
    ratio = op["params"]["g_ratio"]
    m = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    gate = np.array(m["gate_re"]) + 1j * np.array(m["gate_im"])
    uni = float(np.max(np.abs(gate @ gate.conj().T - np.eye(4))))
    theta = 4.0 * math.pi * ratio * ratio
    power_err = abs(m["entangling_power"] - 2.0 / 9.0 * math.sin(2.0 * theta) ** 2)
    residual = m["cnot_equivalence"]["residual"]
    v.err(max(uni, power_err, residual))
    v.need(uni < 1e-12, f"gate unitarity defect {uni:.3e}")
    v.need(power_err < 1e-12, f"entangling power off by {power_err:.3e}")
    v.need(residual < CNOT_RESIDUAL_LIMIT and m["cnot_equivalence"]["equivalent"],
           f"CNOT residual {residual:.3e}")


def _coherent(alpha: complex, n: int) -> np.ndarray:
    out = np.empty(n, dtype=complex)
    out[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for k in range(1, n):
        out[k] = out[k - 1] * alpha / math.sqrt(k)
    return out


def _check_magnus(v, op, stdout, outdir, result):
    # einsum, not BLAS: a threaded BLAS call here would leave OpenBLAS helper
    # threads spinning into the next timed operation (4N = 96 is past the
    # gemv threading threshold)
    p = op["params"]
    u = np.asarray(result.matrix)
    n = p["fock_cutoff"]
    r = p["g_eff"] / p["omega_eff"]
    wt = p["omega_eff"] * p["t"]
    xi = r * (1.0 - cmath.exp(1j * wt))
    phi = r * r * (wt - math.sin(wt))
    gram = np.einsum("ki,kj->ij", u.conj(), u)
    uni = float(np.max(np.abs(gram - np.eye(u.shape[0]))))
    vac = np.zeros(n)
    vac[0] = 1.0
    plus = np.full(2, 1.0 / math.sqrt(2.0))
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    # |++> has Jx = 2: exp(4 i phi) |++> (x) |2 xi>; |+-> has Jx = 0: unchanged
    got = np.einsum("ij,j->i", u, np.kron(np.kron(plus, plus), vac))
    want = cmath.exp(4j * phi) * np.kron(np.kron(plus, plus), _coherent(2.0 * xi, n))
    low = np.tile(np.arange(n) < n // 2, 4)
    err_pp = float(np.max(np.abs(got - want)[low]))
    pm = np.kron(np.kron(plus, minus), vac)
    err_pm = float(np.max(np.abs(np.einsum("ij,j->i", u, pm) - pm)))
    v.err(max(uni, err_pp, err_pm))
    v.need(uni < 1e-10, f"propagator unitarity defect {uni:.3e}")
    v.need(err_pp < 1e-8 and err_pm < 1e-12,
           f"propagator misses exp(i phi Jx^2) D(xi Jx) by {max(err_pp, err_pm):.3e}")


CHECKS = {"simulate": _check_simulate, "sweep": _check_sweep,
          "design": _check_design, "cat": _check_cat, "gate": _check_gate,
          "magnus": _check_magnus}


def oracle_deviation(doc: dict, table: tuple[list, list]) -> float:
    """Largest deviation of stored columns from fixed RK4 at half the step."""
    from modrabi.hamiltonians import rotated_hamiltonian
    from modrabi.hilbert import HilbertSpace
    from modrabi.scenarios import parse_scenario, run_simulation
    scn = parse_scenario(doc)
    dt = rotated_hamiltonian(scn.system, scn.drive,
                             HilbertSpace(1, scn.fock_cutoff)).descriptor["suggested_dt"]
    fine = copy.deepcopy(doc)
    fine["integrator"] = {"method": "fixed_rk4", "dt_ns": 0.5 * dt / 1e-9}
    ref = run_simulation(parse_scenario(fine))
    return _table_deviation(table, ref.header, ref.rows)


def sweep_oracle_deviation(op: dict, table: tuple[list, list]) -> float:
    """Deviation of the first sweep point from a fine fixed-step RK4 run."""
    from modrabi.hamiltonians import effective_hamiltonian
    from modrabi.hilbert import HilbertSpace
    from modrabi.modulation import effective_params
    from modrabi.scenarios import parse_scenario, run_simulation
    value = float(np.linspace(op["sweep"]["start"], op["sweep"]["stop"],
                              op["sweep"]["points"])[0])
    doc = copy.deepcopy(op["doc"])
    for key in ("amp2_ghz", "amp2_mhz"):
        doc["drive"].pop(key, None)
    doc["drive"]["eta2"] = value
    scn = parse_scenario(doc)
    dt = effective_hamiltonian(effective_params(scn.system, scn.drive),
                               HilbertSpace(1, scn.fock_cutoff)).descriptor["suggested_dt"]
    doc["integrator"] = {"method": "fixed_rk4",
                         "dt_ns": dt / SWEEP_ORACLE_REFINE / 1e-9}
    ref = run_simulation(parse_scenario(doc))
    header, rows = table
    mine = [row[1:] for row in rows if row[0] == value]
    ref_cols = [ref.header.index(c) for c in header[1:]]
    ref_rows = [[row[i] for i in ref_cols] for row in ref.rows]
    if len(mine) != len(ref_rows):
        return math.inf
    return float(np.max(np.abs(np.array(mine) - np.array(ref_rows))))


def _table_deviation(table: tuple[list, list], ref_header: list, ref_rows: list) -> float:
    header, rows = table
    if header != ref_header or len(rows) != len(ref_rows):
        return math.inf
    a = np.array(rows, dtype=float)[:, 1:]
    b = np.array(ref_rows, dtype=float)[:, 1:]
    return float(np.max(np.abs(a - b)))
