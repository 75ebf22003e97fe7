"""Scenario files: parsing, validation, execution, and file output.

A scenario is a JSON document with explicit units in the key names
(``*_ghz``, ``*_mhz``, ``*_khz`` are ordinary frequencies and are multiplied
by 2 pi on ingestion; ``*_ns`` are nanoseconds).  Drive amplitudes may be
given either normalized (``eta1``) or as the modulation amplitude product
(``amp1_ghz``, i.e. eta1 * Omega1), matching how hardware settings are
usually quoted.

``run_simulation`` executes one scenario: the frame-exact generator under
the master equation (or Schrodinger equation when dissipation is off),
and/or the constant effective model.  When both are requested, the lossless
effective run goes first and its states are the reference whose overlap
fidelity the exact run records as it goes, so no run keeps a density-matrix
stack.  ``run_sweep`` repeats it over one scalar parameter, optionally on a
forked pool bounded by MODRABI_THREADS.  Both hold every loaded OpenBLAS at
one thread while they run, which the pool's workers inherit: on these small
matrices a second BLAS thread doubled the CPU time and saved no wall time
(``_one_blas_thread``).

Output files are written atomically (temp + rename).  CSV is RFC 4180 with
a header row and shortest round-trip decimals, so identical scenarios with
fixed-step integration reproduce byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import (IntegratorConfig, Trajectory, evolve_master,
                       evolve_schrodinger, loss_dissipators)
from .errors import UnreachableTargetError, ValidationError
from .hamiltonians import effective_hamiltonian, rotated_hamiltonian
from .hilbert import HilbertSpace, basis_state
from .modulation import (DriveParams, SystemParams, detunings,
                         drive_for_targets, effective_params,
                         solve_amplitudes, validity_report)

SCHEMA_VERSION = 1
TWO_PI = 2.0 * math.pi
NS = 1e-9

_UNIT_SCALE = {"ghz": TWO_PI * 1e9, "mhz": TWO_PI * 1e6, "khz": TWO_PI * 1e3}

MODELS = ("rotated_exact", "effective", "both")
INITIAL_STATES = ("vac_g", "vac_e")
OUTPUT_NAMES = ("sigma_pop", "photon_number", "fidelity", "trace", "purity",
                "top_fock_pop")
SWEEPABLE = ("drive.eta1", "drive.eta2", "drive.phi1", "drive.phi2",
             "drive.omega1_ghz", "drive.omega2_ghz",
             "drive.amp1_ghz", "drive.amp2_ghz",
             "fock_cutoff", "grid.t_end_ns")


@dataclass(frozen=True)
class Scenario:
    name: str
    system: SystemParams
    drive: DriveParams
    model: str
    dissipation: bool
    initial_state: str
    t_end: float          # seconds
    samples: int
    integrator: dict      # IntegratorConfig overrides, laid over each side's default
    fock_cutoff: int
    highlight: dict | None
    raw: dict


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _number(section: dict, key: str, path: str, default=_REQUIRED,
            integer: bool = False):
    """section[key] as a finite float (an int if `integer`), or `default`
    when the key is absent; anything else fails naming the field path
    (`path` is '' at the top level)."""
    where = f"{path}.{key}" if path else key
    if key not in section:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: required")
        return default
    value = section[key]
    kinds = int if integer else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not math.isfinite(value)):
        raise ValidationError(
            f"{where}: must be {'an integer' if integer else 'a finite number'}")
    return value if integer else float(value)


def _angular(section: dict, field: str, path: str, required: bool = True,
             default: float = 0.0) -> float:
    keys = [f"{field}_{suffix}" for suffix in _UNIT_SCALE if f"{field}_{suffix}" in section]
    if not keys:
        if required:
            raise ValidationError(
                f"{path}.{field}: exactly one of "
                + "/".join(f"{field}_{s}" for s in _UNIT_SCALE) + " required")
        return default
    if len(keys) > 1:
        raise ValidationError(f"{path}.{field}: multiple unit spellings given")
    value = _number(section, keys[0], path) * _UNIT_SCALE[keys[0].rsplit("_", 1)[1]]
    if not 0 <= value < math.inf:
        raise ValidationError(f"{path}.{keys[0]}: must be a finite frequency >= 0")
    return value


def _amplitude(drive: dict, tone: int, omega: float) -> float:
    eta_key = f"eta{tone}"
    amp = _angular(drive, f"amp{tone}", "drive", required=False, default=None)
    if omega <= 0:
        raise ValidationError(f"drive.omega{tone}: must be > 0")
    if eta_key not in drive:
        if amp is None:
            raise ValidationError(f"drive.eta{tone}: eta{tone} or amp{tone}_ghz required")
        return amp / omega
    if amp is not None:
        raise ValidationError(f"drive.{eta_key}: give eta or amp, not both")
    val = _number(drive, eta_key, "drive")
    if val < 0:
        raise ValidationError(f"drive.{eta_key}: must be a number >= 0")
    return val


def _drive_from_targets(design: dict, system: SystemParams) -> DriveParams:
    """Resolve a drive from model targets instead of explicit tone settings.

    Accepted keys: anisotropy (required; 'inf' allowed), g_r_over_omega_eff,
    delta1_hz / delta1_mhz (default 0).
    """
    if not isinstance(design, dict) or "anisotropy" not in design:
        raise ValidationError("drive.design: needs at least {anisotropy}")
    if design["anisotropy"] == "inf":
        lam = math.inf
    else:
        lam = _number(design, "anisotropy", "drive.design")
    if "delta1_hz" in design and "delta1_mhz" in design:
        raise ValidationError("drive.design: give delta1_hz or delta1_mhz, not both")
    if "delta1_hz" in design:
        delta1 = _number(design, "delta1_hz", "drive.design") * TWO_PI
    else:
        delta1 = _number(design, "delta1_mhz", "drive.design", 0.0) * _UNIT_SCALE["mhz"]
    gratio = _number(design, "g_r_over_omega_eff", "drive.design", None)
    try:
        eta1, eta2 = solve_amplitudes(lam)
        return drive_for_targets(system, eta1, eta2, delta1, gratio)
    except UnreachableTargetError as err:
        raise ValidationError(f"drive.design: {err}") from err


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ValidationError("scenario: top level must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    sys_doc = doc.get("system")
    if not isinstance(sys_doc, dict):
        raise ValidationError("system: required object")
    system = SystemParams(
        epsilon=_angular(sys_doc, "epsilon", "system"),
        omega=_angular(sys_doc, "omega", "system"),
        g=_angular(sys_doc, "g", "system"),
        kappa=_angular(sys_doc, "kappa", "system", required=False),
        gamma=_angular(sys_doc, "gamma", "system", required=False))

    drv_doc = doc.get("drive")
    if not isinstance(drv_doc, dict):
        raise ValidationError("drive: required object")
    if "design" in drv_doc:
        if len(drv_doc) != 1:
            raise ValidationError("drive.design: replaces explicit tone settings")
        drive = _drive_from_targets(drv_doc["design"], system)
    else:
        omega1 = _angular(drv_doc, "omega1", "drive")
        omega2 = _angular(drv_doc, "omega2", "drive")
        drive = DriveParams(
            omega1=omega1, omega2=omega2,
            eta1=_amplitude(drv_doc, 1, omega1),
            eta2=_amplitude(drv_doc, 2, omega2),
            phi1=_number(drv_doc, "phi1", "drive", 0.0),
            phi2=_number(drv_doc, "phi2", "drive", 0.0))

    model = doc.get("model", "both")
    if model not in MODELS:
        raise ValidationError(f"model: must be one of {MODELS}, got {model!r}")
    dissipation = doc.get("dissipation", False)
    if not isinstance(dissipation, bool):
        raise ValidationError("dissipation: must be true or false")
    initial = doc.get("initial_state", "vac_g")
    if initial not in INITIAL_STATES:
        raise ValidationError(f"initial_state: must be one of {INITIAL_STATES}")

    grid = doc.get("grid")
    if not isinstance(grid, dict):
        raise ValidationError("grid: required object")
    t_end_ns = _number(grid, "t_end_ns", "grid")
    if t_end_ns <= 0:
        raise ValidationError("grid.t_end_ns: must be a number > 0")
    samples = _number(grid, "samples", "grid", integer=True)
    if samples < 2:
        raise ValidationError("grid.samples: must be an integer >= 2")

    cutoff = _number(doc, "fock_cutoff", "", 30, integer=True)
    if cutoff < 2:
        raise ValidationError("fock_cutoff: must be an integer >= 2")

    integ_doc = doc.get("integrator", {})
    if not isinstance(integ_doc, dict):
        raise ValidationError("integrator: must be an object")
    integrator = {}
    for key in integ_doc:
        if key not in ("method", "dt_ns", "rtol", "atol"):
            raise ValidationError(f"integrator.{key}: not one of method/dt_ns/rtol/atol")
        integrator[key] = (integ_doc[key] if key == "method"
                           else _number(integ_doc, key, "integrator"))
    if "dt_ns" in integrator:
        integrator["dt"] = integrator.pop("dt_ns") * NS
    try:    # check the values now, before any compute
        IntegratorConfig(**integrator)
    except ValidationError as err:
        raise ValidationError(f"integrator: {err}") from err

    outputs = doc.get("outputs", [])
    if not isinstance(outputs, (list, tuple)):
        raise ValidationError("outputs: must be a list of observable names")
    for out in outputs:
        if out not in OUTPUT_NAMES:
            raise ValidationError(f"outputs: unknown observable {out!r}")
        if out == "fidelity" and model != "both":
            raise ValidationError("outputs: fidelity needs model == 'both'")

    highlight = doc.get("highlight")
    if highlight is not None:
        if not (isinstance(highlight, dict)
                and isinstance(highlight.get("param"), str) and "value" in highlight):
            raise ValidationError("highlight: needs {param: str, value: number}")
        _number(highlight, "value", "highlight")

    return Scenario(name=doc.get("name", name), system=system, drive=drive,
                    model=model, dissipation=dissipation, initial_state=initial,
                    t_end=t_end_ns * NS, samples=samples,
                    integrator=integrator, fock_cutoff=cutoff, highlight=highlight, raw=doc)


def load_scenario_document(ref: str) -> tuple[dict, str]:
    """Read a scenario JSON from a path or from the packaged library."""
    p = Path(ref)
    if p.is_file():
        with open(p, "r", encoding="utf-8") as fh:
            try:
                return json.load(fh), p.stem
            except json.JSONDecodeError as err:
                raise ValidationError(f"scenario {ref!r}: not valid JSON ({err})") from err
    name = ref[:-5] if ref.endswith(".json") else ref
    packaged = resources.files("modrabi").joinpath("data", f"{name}.json")
    if packaged.is_file():
        return json.loads(packaged.read_text(encoding="utf-8")), name
    raise ValidationError(f"scenario {ref!r}: no such file and no packaged scenario")


def load_scenario(ref: str) -> Scenario:
    doc, name = load_scenario_document(ref)
    return parse_scenario(doc, name=name)


def packaged_scenarios() -> list[str]:
    data = resources.files("modrabi").joinpath("data")
    return sorted(p.name[:-5] for p in data.iterdir() if p.name.endswith(".json"))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _integrator_for(scn: Scenario, side: str) -> IntegratorConfig:
    """The side's default integrator with the scenario's overrides laid over it."""
    # multi-GHz phases on the exact side: uniform small steps beat adaptivity
    method = "fixed_dp5" if side == "exact" else "adaptive"
    return IntegratorConfig(**{"method": method, **scn.integrator})


_blas_lock = threading.Lock()
_blas_controls = None    # (get, set) of each loaded OpenBLAS, found on first entry
_blas_depth = 0          # runs inside _one_blas_thread, over all threads
_blas_saved = []         # the caller's counts, restored when the last run leaves


def _find_openblas() -> list:
    """The (get, set) thread-count functions of every OpenBLAS this process
    has loaded; none without /proc/self/maps to find them in."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    controls = []
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # plain OpenBLAS and the builds numpy and scipy ship; "64_" if ILP64
        for name in ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS runs one thread inside; the caller's counts come
    back when the outermost entry in the process leaves, also on an error.

    Every matrix of a scenario run is small (d <= 80 for the packaged ones),
    and there a second BLAS thread saves no wall time but spins beside the
    run.  On 2 vCPUs one thread cut the CPU time of the benchmark's
    effective_sweep operation from 0.213 s to 0.119 s at the same rate, and
    fig3d at cutoff 40 and at cutoff 100 ran no slower.  Forked sweep
    workers inherit the count.  Setting OPENBLAS_NUM_THREADS would do
    nothing here, as OpenBLAS reads it when numpy loads it.  The libraries
    are found once, on the first entry; without OpenBLAS, or /proc/self/maps
    to find it in, nothing changes."""
    global _blas_controls, _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_controls is None:
            _blas_controls = _find_openblas()
        if _blas_depth == 0:
            _blas_saved = [get() for get, _ in _blas_controls]
            for _, put in _blas_controls:
                put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, put), count in zip(_blas_controls, _blas_saved):
                    put(count)


@dataclass
class SimulationResult:
    manifest: dict
    header: list
    rows: list
    exact: Trajectory | None
    effective: Trajectory | None


@_one_blas_thread()
def run_simulation(scn: Scenario) -> SimulationResult:
    space = HilbertSpace(1, scn.fock_cutoff)
    eff = effective_params(scn.system, scn.drive)
    det = detunings(scn.system, scn.drive)
    validity = validity_report(scn.system, scn.drive)
    times = np.linspace(0.0, scn.t_end, scn.samples)
    psi0 = basis_state(space, "g" if scn.initial_state == "vac_g" else "e", 0)

    exact_traj = eff_traj = None
    if scn.model in ("effective", "both"):
        H_eff = effective_hamiltonian(eff, space)
        cfg_eff = _integrator_for(scn, "effective")
        if scn.model == "effective" and scn.dissipation:
            eff_traj = evolve_master(H_eff, loss_dissipators(scn.system, space),
                                     psi0.density_matrix(), times, cfg_eff)
        else:
            # in 'both' mode the effective run is the ideal (lossless)
            # reference whose states the exact run records its fidelity to
            eff_traj = evolve_schrodinger(H_eff, psi0, times, cfg_eff)
    if scn.model in ("rotated_exact", "both"):
        H = rotated_hamiltonian(scn.system, scn.drive, space)
        cfg = _integrator_for(scn, "exact")
        reference = eff_traj.states if scn.model == "both" else None
        if scn.dissipation:
            exact_traj = evolve_master(H, loss_dissipators(scn.system, space),
                                       psi0.density_matrix(), times, cfg,
                                       reference=reference)
        else:
            exact_traj = evolve_schrodinger(H, psi0, times, cfg, reference=reference)

    primary = exact_traj if exact_traj is not None else eff_traj
    # the CSV columns in file order: every recorded series of the primary run
    columns = {"time_s": primary.times}
    columns.update((name, primary.observables[name]) for name in OUTPUT_NAMES
                   if name in primary.observables)
    if scn.model == "both":
        columns["sigma_pop_eff"] = eff_traj.observables["sigma_pop"]
        columns["photon_number_eff"] = eff_traj.observables["photon_number"]
    header = list(columns)
    rows = [list(row) for row in zip(*columns.values())]

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scn.raw,
        "name": scn.name,
        "resolved": {
            "system_rad_s": {"epsilon": scn.system.epsilon, "omega": scn.system.omega,
                             "g": scn.system.g, "kappa": scn.system.kappa,
                             "gamma": scn.system.gamma},
            "drive_rad_s": {"omega1": scn.drive.omega1, "omega2": scn.drive.omega2,
                            "eta1": scn.drive.eta1, "eta2": scn.drive.eta2,
                            "phi1": scn.drive.phi1, "phi2": scn.drive.phi2},
            "detunings_rad_s": {"delta1": det.delta1, "delta2": det.delta2,
                                "delta_minus": det.delta_minus,
                                "delta_plus": det.delta_plus},
            "effective": effective_summary(eff),
            "validity": validity.as_dict(),
            "fock_cutoff": scn.fock_cutoff,
            "initial_state": scn.initial_state,
            "model": scn.model,
            "dissipation": scn.dissipation,
            "grid": {"t_end_s": scn.t_end, "samples": scn.samples},
        },
        "diagnostics": {
            "exact": None if exact_traj is None else exact_traj.diagnostics,
            "effective": None if eff_traj is None else eff_traj.diagnostics,
        },
        "csv_columns": header,
    }
    return SimulationResult(manifest=manifest, header=header, rows=rows,
                            exact=exact_traj, effective=eff_traj)


def effective_summary(eff) -> dict:
    ratio_r = abs(eff.g_r / eff.omega_eff) if eff.omega_eff else math.inf
    ratio_cr = abs(eff.g_cr / eff.omega_eff) if eff.omega_eff else math.inf
    return {
        "g_r_rad_s": eff.g_r, "g_cr_rad_s": eff.g_cr,
        "omega_eff_rad_s": eff.omega_eff, "epsilon_eff_rad_s": eff.epsilon_eff,
        "theta": eff.theta, "anisotropy": json_float(eff.anisotropy),
        "delta1_rad_s": eff.delta1, "delta2_rad_s": eff.delta2,
        "g_r_over_omega_eff": json_float(ratio_r),
        "g_cr_over_omega_eff": json_float(ratio_cr),
    }


def json_float(x: float):
    """x, or its JSON-safe spelling "nan", "inf" or "-inf"."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def apply_sweep_value(doc: dict, param: str, value: float) -> dict:
    if param not in SWEEPABLE:
        raise ValidationError(f"sweep param must be one of {SWEEPABLE}, got {param!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{param}: sweep value must be finite, got {value}")
    out = json.loads(json.dumps(doc))  # deep copy
    section, _, field = param.partition(".")
    if param == "fock_cutoff":
        out["fock_cutoff"] = int(round(value))
        return out
    target = out.setdefault(section, {})
    if field.startswith(("eta", "amp")):    # the swept spelling replaces the tone's others
        tone = field[3]
        for key in (f"eta{tone}", *(f"amp{tone}_{unit}" for unit in _UNIT_SCALE)):
            target.pop(key, None)
    target[field] = value
    return out


def _sweep_point(args):
    value, scn = args
    try:
        res = run_simulation(scn)
        primary = res.exact or res.effective
        obs = primary.observables
        return {"value": value, "ok": True,
                "times": primary.times.tolist(),
                "sigma_pop": obs["sigma_pop"].tolist(),
                "photon_number": obs["photon_number"].tolist(),
                "effective": res.manifest["resolved"]["effective"],
                "diagnostics": primary.diagnostics,
                # the lossless effective reference behind the fidelity
                "reference_diagnostics": (res.effective.diagnostics
                                          if scn.model == "both" else None)}
    except Exception as err:  # per-point failure is data, not a crash
        return {"value": value, "ok": False,
                "error": f"{type(err).__name__}: {err}"}


def _worker_count(threads: int | None) -> int:
    """`threads`, else MODRABI_THREADS, else the CPU count; a count that is
    set must be an integer >= 1."""
    where, raw = "--threads", threads
    if raw is None:
        where, raw = "MODRABI_THREADS", os.environ.get("MODRABI_THREADS", os.cpu_count() or 1)
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValidationError(f"{where}: must be an integer >= 1, got {raw!r}")
    return count


@_one_blas_thread()
def run_sweep(doc: dict, param: str, values: list[float], name: str = "sweep",
              threads: int | None = None) -> tuple[dict, list, list]:
    """Run one scenario per value; returns (manifest, header, rows)."""
    if len(values) < 2:
        raise ValidationError("sweep needs at least 2 points")
    # validate the thread count and parse every point, once, before any compute
    threads = min(_worker_count(threads), len(values))
    jobs = [(v, parse_scenario(apply_sweep_value(doc, param, v), name=name))
            for v in values]
    if threads == 1:
        points = [_sweep_point(j) for j in jobs]
    else:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(threads) as pool:
            points = pool.map(_sweep_point, jobs)

    header = ["sweep_value", "time_s", "sigma_pop", "photon_number"]
    rows = []
    failures = []
    point_meta = []
    for pt in points:
        if not pt["ok"]:
            failures.append({"value": pt["value"], "error": pt["error"]})
            continue
        for t, sig, pho in zip(pt["times"], pt["sigma_pop"], pt["photon_number"]):
            rows.append([pt["value"], t, sig, pho])
        point_meta.append({"value": pt["value"], "effective": pt["effective"],
                           "diagnostics": pt["diagnostics"],
                           "reference_diagnostics": pt["reference_diagnostics"]})
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "sweep": {"param": param, "values": list(values), "threads": threads},
        "scenario": doc,
        "highlight": jobs[0][1].highlight,    # no sweepable parameter changes it
        "points": point_meta,
        "failures": failures,
        "status": "complete" if not failures else "partial",
        "csv_columns": header,
    }
    return manifest, header, rows


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, writer):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def write_csv(path: Path, header: list, rows: list):
    def do(fh):
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    _atomic_write(Path(path), do)


def write_json(path: Path, obj: dict):
    def do(fh):
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _atomic_write(Path(path), do)
