"""Scenario files: parsing, validation, execution, and file output.

A scenario is a JSON document with explicit units in the key names
(``*_ghz``, ``*_mhz``, ``*_khz`` are ordinary frequencies and are multiplied
by 2 pi on ingestion; ``*_ns`` are nanoseconds).  Drive amplitudes may be
given either normalized (``eta1``) or as the modulation amplitude product
(``amp1_ghz``, i.e. eta1 * Omega1), matching how hardware settings are
usually quoted.

``run_simulation`` executes one scenario: the frame-exact generator under
the master equation (or Schrodinger equation when dissipation is off),
and/or the constant effective model; with both, the lossless effective run
goes first as the reference whose fidelity the exact run records as it
goes, so no run keeps a density-matrix stack.  ``validation_report`` plans
the same runs without running them.  ``run_sweep`` repeats a run over one
scalar parameter, planning every point before any runs, optionally on a
forked pool of at most ``threads`` workers (default: the CPU count).
All three hold at one thread every OpenBLAS loaded when the process's first
run starts, which the pool's workers inherit: on these small matrices a
second BLAS thread doubled the CPU time and saved no wall time
(``_one_blas_thread``).

Output files are written atomically (temp + rename).  CSV is RFC 4180 with
a header row and shortest round-trip decimals, so identical scenarios with
fixed-step integration reproduce byte-identical files.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import os
import threading
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .bessel import X_LIMIT
from .dynamics import (METHODS, IntegratorConfig, Trajectory, _master, _plan, _schrodinger,
                       loss_dissipators)
from .errors import UnreachableTargetError, ValidationError
from .hamiltonians import effective_hamiltonian, rotated_hamiltonian
from .hilbert import HilbertSpace, basis_state
from .modulation import (DriveParams, SystemParams, detunings,
                         drive_for_targets, effective_params, json_float,
                         solve_amplitudes, validity_report)

SCHEMA_VERSION = 1
TWO_PI = 2.0 * math.pi
NS = 1e-9
_FLOAT_MAX = float(np.finfo(float).max)

_UNIT_SCALE = {"ghz": TWO_PI * 1e9, "mhz": TWO_PI * 1e6, "khz": TWO_PI * 1e3}

MODELS = ("rotated_exact", "effective", "both")
INITIAL_STATES = ("vac_g", "vac_e")
OUTPUT_NAMES = ("sigma_pop", "photon_number", "fidelity", "trace", "purity",
                "top_fock_pop")
SWEEPABLE = ("drive.eta1", "drive.eta2", "drive.phi1", "drive.phi2",
             "drive.omega1_ghz", "drive.omega2_ghz",
             "drive.amp1_ghz", "drive.amp2_ghz",
             "fock_cutoff", "grid.t_end_ns")


def _spellings(*fields: str) -> set:
    return {f"{field}_{unit}" for field in fields for unit in _UNIT_SCALE}


# every key the parser reads, per section ('' is the top level); any other
# key is refused, so a misspelled one cannot pass unread
_KEYS = {
    "": {"schema_version", "name", "description", "system", "drive", "model",
         "dissipation", "initial_state", "grid", "fock_cutoff", "integrator",
         "outputs", "highlight"},
    "system": _spellings("epsilon", "omega", "g", "kappa", "gamma"),
    "drive": _spellings("omega1", "omega2", "amp1", "amp2")
             | {"eta1", "eta2", "phi1", "phi2", "design"},
    "drive.design": {"anisotropy", "g_r_over_omega_eff", "delta1_mhz"},
    "grid": {"t_end_ns", "samples"},
    "integrator": {"method", "dt_ns"},
    "highlight": {"param", "value"},
}


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
    integrator: IntegratorConfig      # both sides'; each run resolves a method of None
    fock_cutoff: int
    highlight: dict | None
    raw: dict


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _known_keys(section: dict, path: str):
    """Refuse a key of `section` that the parser does not read, naming it."""
    for key in section:
        if key not in _KEYS[path]:
            where = f"{path}.{key}" if path else key
            raise ValidationError(f"{where}: unknown key; {path or 'the top level'} takes "
                                  + "/".join(sorted(_KEYS[path])))


def _number(section: dict, key: str, path: str, default=_REQUIRED,
            integer: bool = False):
    """section[key] as a finite float (an int within the float range if
    `integer`), or `default` when the key is absent; anything else fails
    naming the field path (`path` is '' at the top level)."""
    where = f"{path}.{key}" if path else key
    if key not in section:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: required")
        return default
    value = section[key]
    kinds = int if integer else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not abs(value) <= _FLOAT_MAX):      # an int past it has no float
        kind = "an integer within the float range" if integer else "a finite number"
        raise ValidationError(f"{where}: must be {kind}")
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
    """eta<tone>, given as is or as amp<tone>_<unit> / omega; 2 eta must lie
    in the Bessel factors' range X_LIMIT."""
    eta_key = f"eta{tone}"
    amp = _angular(drive, f"amp{tone}", "drive", required=False, default=None)
    if omega <= 0:
        raise ValidationError(f"drive.omega{tone}: must be > 0")
    if eta_key not in drive:
        if amp is None:
            raise ValidationError(f"drive.eta{tone}: eta{tone} or amp{tone}_ghz required")
        key = next(f"amp{tone}_{unit}" for unit in _UNIT_SCALE if f"amp{tone}_{unit}" in drive)
        val = amp / omega
    else:
        if amp is not None:
            raise ValidationError(f"drive.{eta_key}: give eta or amp, not both")
        key = eta_key
        val = _number(drive, eta_key, "drive")
        if val < 0:
            raise ValidationError(f"drive.{eta_key}: must be a number >= 0")
    if 2 * val > X_LIMIT:
        raise ValidationError(f"drive.{key}: eta{tone} = {val} puts 2 eta{tone} "
                              f"above the Bessel range {X_LIMIT}")
    return val


def _drive_from_targets(design: dict, system: SystemParams) -> DriveParams:
    """Resolve a drive from model targets instead of explicit tone settings.

    Accepted keys: anisotropy (required; 'inf' allowed), g_r_over_omega_eff,
    delta1_mhz (the red-sideband detuning delta1 / 2 pi in MHz, default 0).
    """
    if not isinstance(design, dict) or "anisotropy" not in design:
        raise ValidationError("drive.design: needs at least {anisotropy}")
    _known_keys(design, "drive.design")
    if design["anisotropy"] == "inf":
        lam = math.inf
    else:
        lam = _number(design, "anisotropy", "drive.design")
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
    _known_keys(doc, "")
    for key in ("name", "description"):
        if key in doc and not isinstance(doc[key], str):
            raise ValidationError(f"{key}: must be a string, got {doc[key]!r}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    sys_doc = doc.get("system")
    if not isinstance(sys_doc, dict):
        raise ValidationError("system: required object")
    _known_keys(sys_doc, "system")
    system = SystemParams(
        epsilon=_angular(sys_doc, "epsilon", "system"),
        omega=_angular(sys_doc, "omega", "system"),
        g=_angular(sys_doc, "g", "system"),
        kappa=_angular(sys_doc, "kappa", "system", required=False),
        gamma=_angular(sys_doc, "gamma", "system", required=False))

    drv_doc = doc.get("drive")
    if not isinstance(drv_doc, dict):
        raise ValidationError("drive: required object")
    _known_keys(drv_doc, "drive")
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
    _known_keys(grid, "grid")
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
    _known_keys(integ_doc, "integrator")
    method = integ_doc.get("method")
    if "method" in integ_doc and method not in METHODS:
        raise ValidationError(f"integrator.method: must be one of {METHODS}, got {method!r}")
    dt_ns = _number(integ_doc, "dt_ns", "integrator", None)
    dt = None if dt_ns is None else dt_ns * NS
    if dt is not None and not dt > 0:
        raise ValidationError("integrator.dt_ns: must be a number > 0")
    integrator = IntegratorConfig(method=method, dt=dt)

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
        _known_keys(highlight, "highlight")
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
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
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

_blas_lock = threading.Lock()
_blas_depth = 0          # runs inside _one_blas_thread, over all threads
_blas_saved = {}         # path -> the caller's count, restored when the last run leaves


@functools.cache
def _find_openblas() -> dict:
    """path -> (get, set) thread-count functions of every OpenBLAS this
    process has loaded, looked for once; none without /proc/self/maps to
    find them in."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return {}
    controls = {}
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
                controls[path] = get, put
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Every OpenBLAS the process had loaded at its first entry runs one
    thread inside; the caller's counts come back when the outermost entry in
    the process leaves, also on an error.

    Every matrix of a scenario run is small (d <= 80 for the packaged ones),
    and there a second BLAS thread saves no wall time but spins beside the
    run.  On 2 vCPUs one thread cut the CPU time of the benchmark's
    effective_sweep operation from 0.213 s to 0.119 s at the same rate, and
    fig3d at cutoff 40 and at cutoff 100 ran no slower.  Forked sweep
    workers inherit the count.  Setting OPENBLAS_NUM_THREADS would do
    nothing here, as OpenBLAS reads it when numpy loads it.

    The libraries are looked for once, at the first entry.  numpy's loads
    with numpy, and a run calls no other: its BLAS and LAPACK calls are
    numpy's, and the scipy.sparse it loads maps no OpenBLAS.  So a library
    that loads later, such as scipy's with `scipy.linalg`, keeps its count.
    Without OpenBLAS, or /proc/self/maps to find it in, nothing changes."""
    global _blas_depth
    with _blas_lock:
        if _blas_depth == 0:
            for path, (get, put) in _find_openblas().items():
                _blas_saved[path] = get()
                put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for path, (_, put) in _find_openblas().items():
                    put(_blas_saved[path])


@dataclass
class SimulationResult:
    manifest: dict
    header: list
    rows: list
    exact: Trajectory | None
    effective: Trajectory | None


def _runs(scn: Scenario) -> tuple:
    """The effective parameters, and side -> (H, initial state, loss channels
    or None for a Schrodinger run, plan) of each run, the effective one first:
    in 'both' mode it is the lossless reference whose states the exact run
    records its fidelity to.  Every run is planned here, so a scenario that
    one run's plan refuses fails before any run computes."""
    eff = effective_params(scn.system, scn.drive)
    space = HilbertSpace(1, scn.fock_cutoff)
    psi0 = basis_state(space, "g" if scn.initial_state == "vac_g" else "e", 0)
    times = np.linspace(0.0, scn.t_end, scn.samples)
    sides = {}
    if scn.model in ("effective", "both"):
        sides["effective"] = effective_hamiltonian(eff, space), scn.model == "effective"
    if scn.model in ("rotated_exact", "both"):
        sides["exact"] = rotated_hamiltonian(scn.system, scn.drive, space), True
    runs = {side: (H, psi0.density_matrix(), loss_dissipators(scn.system, space))
            if scn.dissipation and takes_loss else (H, psi0, None)
            for side, (H, takes_loss) in sides.items()}
    return eff, {side: (H, state, channels, _plan(H, state, times, scn.integrator, channels))
                 for side, (H, state, channels) in runs.items()}


def _resolved(scn: Scenario, eff) -> dict:
    """Every parameter the scenario resolves to, as its manifest and
    `validate` report them."""
    return {
        "system_rad_s": asdict(scn.system),
        "drive_rad_s": asdict(scn.drive),
        "detunings_rad_s": asdict(detunings(scn.system, scn.drive)),
        "effective": effective_summary(eff),
        "validity": validity_report(scn.system, scn.drive).as_dict(),
        "fock_cutoff": scn.fock_cutoff,
        "initial_state": scn.initial_state,
        "model": scn.model,
        "dissipation": scn.dissipation,
        "grid": {"t_end_s": scn.t_end, "samples": scn.samples},
    }


@_one_blas_thread()
def validation_report(scn: Scenario) -> dict:
    """The resolved parameters of `scn` and, under "plans", the method,
    `rhs_evals` and `blocks` of each run, planned as `run_simulation` plans
    them: it raises what a run would raise, before any run computes."""
    eff, runs = _runs(scn)
    return {**_resolved(scn, eff), "plans": {side: plan.summary()
                                             for side, (*_, plan) in runs.items()}}


@_one_blas_thread()
def run_simulation(scn: Scenario) -> SimulationResult:
    return _simulate(scn, *_runs(scn))


def _simulate(scn: Scenario, eff, planned: dict) -> SimulationResult:
    """Carry out the runs `_runs(scn)` planned; every caller, pool workers
    too, is inside `_one_blas_thread`."""
    runs = {}
    for side, (H, state, channels, plan) in planned.items():
        # the effective run, when it went first, is the exact run's reference
        reference = runs["effective"].states if "effective" in runs else None
        if channels is None:
            runs[side] = _schrodinger(H, state, plan, reference)
        else:
            runs[side] = _master(H, channels, state, plan, reference=reference)
    exact_traj, eff_traj = runs.get("exact"), runs.get("effective")

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
        "resolved": _resolved(scn, eff),
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
    if field.startswith(("eta", "amp", "omega")):
        # the swept spelling replaces the tone's others
        tone = field.split("_")[0][-1]
        if field.startswith("omega"):
            others = [f"omega{tone}_{unit}" for unit in _UNIT_SCALE]
        else:
            others = [f"eta{tone}", *(f"amp{tone}_{unit}" for unit in _UNIT_SCALE)]
        for key in others:
            target.pop(key, None)
    target[field] = value
    return out


def _sweep_point(job):
    """One planned point (value, scenario, its effective parameters, its runs)."""
    value, scn, eff, planned = job
    try:
        res = _simulate(scn, eff, planned)
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


_inherited = []      # a forked sweep worker's planned points, empty elsewhere


def _inherited_point(i: int):
    return _sweep_point(_inherited[i])


def _worker_count(threads: int | None) -> int:
    """`threads`, else the CPU count; a count that is set must be an integer >= 1."""
    if threads is None:
        return os.cpu_count() or 1
    try:
        count = int(threads)
    except ValueError:
        count = 0
    if count < 1:
        raise ValidationError(f"--threads: must be an integer >= 1, got {threads!r}")
    return count


@_one_blas_thread()
def run_sweep(doc: dict, param: str, values: list[float], name: str = "sweep",
              threads: int | None = None) -> tuple[dict, list, list]:
    """Run one scenario per value; returns (manifest, header, rows)."""
    if len(values) < 2:
        raise ValidationError("sweep needs at least 2 points")
    # validate the thread count, then parse and plan every point, once,
    # before any compute: a point that is refused names its value
    threads = min(_worker_count(threads), len(values))
    jobs = []
    for v in values:
        point = apply_sweep_value(doc, param, v)      # names the parameter itself
        try:
            scn = parse_scenario(point, name=name)
            jobs.append((v, scn, *_runs(scn)))
        except ValidationError as err:
            raise ValidationError(f"{param} = {v}: {err}") from err
    if threads == 1:
        points = [_sweep_point(j) for j in jobs]
    else:
        import multiprocessing as mp
        # a rotated H holds closures, which do not pickle: each worker's
        # initializer keeps the planned points the fork copied, by index
        with mp.get_context("fork").Pool(threads, _inherited.extend, (jobs,)) as pool:
            points = pool.map(_inherited_point, range(len(jobs)))

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

def _atomic_write(path: Path, text: str):
    """Write `text` to `path` through a new file beside it and a rename, so a
    reader finds the old file or the new one, never a part.  The new file is
    created with mode 0666 less the umask, as a plain open would create it,
    and the rename keeps that mode."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _field(value) -> str:
    """One CSV field: the shortest round-trip decimal of a float, str() of
    anything else, quoted where RFC 4180 asks."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(values) -> list[str]:
    """The fields of one CSV column; a column of floats is formatted in one pass."""
    if all(issubclass(t, (float, np.floating)) for t in set(map(type, values))):
        return list(map(repr, map(float, values)))
    return list(map(_field, values))


def write_csv(path: Path, header: list, rows: list):
    """Header and rows as CSV lines ending in CRLF, written in one piece."""
    lines = [",".join(map(_field, header)), *map(",".join, zip(*map(_column, zip(*rows))))]
    _atomic_write(Path(path), "\r\n".join(lines) + "\r\n")


def write_json(path: Path, obj: dict):
    _atomic_write(Path(path), json.dumps(obj, indent=2, sort_keys=True) + "\n")
