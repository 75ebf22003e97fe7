"""Command-line front end.

Subcommands: simulate, design, sweep, applications (cat | gate), validate.
Exit codes: 0 success, 1 standard output closed early, 2 validation failure,
3 numerical failure, 4 unreachable design target.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .applications import (MIN_PROBABILITY, cat_evolution, cnot_equivalence_check,
                           conditional_cat, conditional_probability,
                           cross_parity_population, entangling_power,
                           gate_at_period, magnus_phase,
                           theta_from_coupling_ratio)
from .dynamics import CUTOFF_POP_LIMIT
from .errors import NumericsError, UnreachableTargetError, ValidationError
from .hilbert import HilbertSpace
from .modulation import (SystemParams, amplitudes_for_coupling, drive_for_targets,
                         effective_params, json_float, solve_amplitudes,
                         validity_report)
from .scenarios import (_UNIT_SCALE, NS, SCHEMA_VERSION, effective_summary, load_scenario,
                        load_scenario_document, packaged_scenarios, run_simulation,
                        run_sweep, validation_report, write_csv, write_json)

GHZ, MHZ = _UNIT_SCALE["ghz"], _UNIT_SCALE["mhz"]


class _Parser(argparse.ArgumentParser):
    """Reads '-3.5e-05' as a number, not an option (argparse's own pattern
    misses exponents); subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing does
    not change it."""
    p = _Parser(
        prog="modrabi",
        description="Two-tone frequency-modulation simulator for tunable "
                    "anisotropic Rabi models.")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and write CSV + manifest")
    sim.set_defaults(run=cmd_simulate)
    sim.add_argument("scenario", help="scenario JSON path or packaged name "
                     f"({', '.join(packaged_scenarios())})")
    sim.add_argument("-o", "--output", default="out", help="output directory")

    des = sub.add_parser("design", help="solve drive settings for a target model")
    des.set_defaults(run=cmd_design)
    des.add_argument("--lambda", dest="anisotropy", type=float, required=True,
                     help="target coupling ratio g_cr/g_r (inf allowed)")
    des.add_argument("--gratio", type=float, default=None,
                     help="target |g_r|/omega_eff")
    des.add_argument("--gr-mhz", type=float, default=None,
                     help="target |g_r|/2pi in MHz (solved over the amplitude family)")
    des.add_argument("--delta1-mhz", type=float, default=0.0,
                     help="red-sideband detuning delta1/2pi in MHz (default 0)")
    des.add_argument("--epsilon-ghz", type=float, default=5.4)
    des.add_argument("--omega-ghz", type=float, default=2.2)
    des.add_argument("--g-mhz", type=float, default=70.0)
    des.add_argument("-o", "--output", default=None,
                     help="also write design.json into this directory")

    swp = sub.add_parser("sweep", help="repeat a scenario over one parameter")
    swp.set_defaults(run=cmd_sweep)
    swp.add_argument("scenario")
    swp.add_argument("--param", required=True, help="e.g. drive.eta2")
    swp.add_argument("--from", dest="start", type=float, required=True)
    swp.add_argument("--to", dest="stop", type=float, required=True)
    swp.add_argument("--points", type=int, required=True)
    swp.add_argument("--threads", type=int, default=None,
                     help="worker processes, at most one per point (default: CPU count)")
    swp.add_argument("-o", "--output", default="out")

    app = sub.add_parser("applications", help="closed-form protocol outputs")
    app_sub = app.add_subparsers(dest="which", required=True)

    cat = app_sub.add_parser("cat", help="cat-state preparation data")
    cat.set_defaults(run=cmd_applications_cat)
    cat.add_argument("--g-ratio", type=float, required=True,
                     help="effective coupling over effective frequency")
    cat.add_argument("--omega-mhz", type=float, default=35.03,
                     help="effective frequency omega_eff/2pi in MHz")
    cat.add_argument("--time-ns", type=float, default=None,
                     help="preparation time (default: half period, max displacement)")
    cat.add_argument("--samples", type=int, default=201)
    cat.add_argument("--fock-cutoff", type=int, default=40)
    cat.add_argument("-o", "--output", default="out")

    gat = app_sub.add_parser("gate", help="two-qubit gate at one full period")
    gat.set_defaults(run=cmd_applications_gate)
    gat.add_argument("--g-ratio", type=float, default=0.25)
    gat.add_argument("-o", "--output", default="out")

    val = sub.add_parser("validate", help="check a scenario file and report")
    val.set_defaults(run=cmd_validate)
    val.add_argument("scenario")

    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _warn_failed(where: str, side: str, diagnostics: dict | None):
    """One stderr line when a run's Fock-cutoff check failed."""
    if diagnostics is not None and diagnostics.get("cutoff_ok") is False:
        print(f"warning: {where}: {side} run failed its Fock-cutoff check "
              f"(top-level population reached {diagnostics['max_top_fock_pop']:.3g} "
              f"at t = {diagnostics['max_top_fock_pop_time']:.6g} s; "
              f"limit {CUTOFF_POP_LIMIT:g})", file=sys.stderr)


def _require(args, rule: str, ok, *dests: str):
    """Refuse a set value of any option in `dests` that fails ok(value), naming its flag."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and not ok(value):
            raise ValidationError(f"--{dest.replace('_', '-')}: must be {rule}, got {value}")


def cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    res = run_simulation(scn)
    out = Path(args.output)
    write_json(out / "manifest.json", res.manifest)
    write_csv(out / "timeseries.csv", res.header, res.rows)
    ratio = res.manifest["resolved"]["effective"]["g_r_over_omega_eff"]
    print(f"{scn.name}: wrote {out / 'timeseries.csv'} "
          f"({len(res.rows)} rows), |g_r/omega_eff| = {ratio}")
    for side, diagnostics in res.manifest["diagnostics"].items():
        _warn_failed(scn.name, side, diagnostics)
    return 0


def cmd_design(args) -> int:
    if not args.anisotropy >= 0:      # NaN included
        raise ValidationError(f"--lambda: must be a number in [0, inf], got {args.anisotropy}")
    _require(args, "finite", math.isfinite, "gratio")
    # frequencies in rad/s, where a huge finite value overflows
    _require(args, "finite", lambda v: math.isfinite(v * MHZ), "gr_mhz", "delta1_mhz")
    _require(args, "> 0", lambda v: v > 0, "gratio", "gr_mhz")
    _require(args, "finite and >= 0", lambda v: 0 <= v * GHZ < math.inf, "epsilon_ghz", "omega_ghz")
    _require(args, "finite and >= 0", lambda v: 0 <= v * MHZ < math.inf, "g_mhz")
    _require(args, "different from --epsilon-ghz, as the model presupposes the dispersive "
             "regime", lambda v: v * GHZ != args.epsilon_ghz * GHZ, "omega_ghz")
    delta1 = args.delta1_mhz * MHZ
    sys_params = SystemParams(epsilon=args.epsilon_ghz * GHZ, omega=args.omega_ghz * GHZ,
                              g=args.g_mhz * MHZ)
    lam = args.anisotropy
    if args.gr_mhz is not None:
        eta1, eta2 = amplitudes_for_coupling(args.gr_mhz * MHZ, lam, sys_params.g)
    else:
        eta1, eta2 = solve_amplitudes(lam)
    drive = drive_for_targets(sys_params, eta1, eta2, delta1, args.gratio)
    eff = effective_params(sys_params, drive)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "targets": {"anisotropy": json_float(lam), "g_r_over_omega_eff": args.gratio,
                    "g_r_mhz": args.gr_mhz, "delta1_rad_s": delta1},
        "drive": {
            "omega1_ghz": drive.omega1 / GHZ, "omega2_ghz": drive.omega2 / GHZ,
            "eta1": drive.eta1, "eta2": drive.eta2,
            "amp1_ghz": drive.eta1 * drive.omega1 / GHZ,
            "amp2_ghz": drive.eta2 * drive.omega2 / GHZ,
            "phi1": drive.phi1, "phi2": drive.phi2,
        },
        "effective": effective_summary(eff),
        "validity": validity_report(sys_params, drive).as_dict(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.output is not None:
        write_json(Path(args.output) / "design.json", doc)
    return 0


def cmd_sweep(args) -> int:
    doc, name = load_scenario_document(args.scenario)
    if args.points < 2:
        raise ValidationError("--points must be >= 2")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ValidationError(f"{args.param}: --from and --to must be finite, "
                              f"got {args.start} and {args.stop}")
    values = np.linspace(args.start, args.stop, args.points).tolist()
    manifest, header, rows = run_sweep(doc, args.param, values,
                                       name=f"{name}_{args.param.replace('.', '_')}",
                                       threads=args.threads)
    out = Path(args.output)
    write_json(out / "manifest.json", manifest)
    write_csv(out / "sweep.csv", header, rows)
    print(f"sweep {args.param}: {args.points} points, status {manifest['status']}, "
          f"wrote {out / 'sweep.csv'}")
    # run_sweep has validated the model; absent, it is 'both', whose primary is exact
    side = "effective" if doc.get("model") == "effective" else "exact"
    for point in manifest["points"]:
        where = f"{args.param} = {point['value']}"
        _warn_failed(where, side, point["diagnostics"])
        _warn_failed(where, "effective", point["reference_diagnostics"])
    if manifest["status"] != "complete":
        for failure in manifest["failures"]:
            print(f"  failed at {failure['value']}: {failure['error']}",
                  file=sys.stderr)
        return 3
    return 0


def cmd_applications_cat(args) -> int:
    _require(args, "finite, with 4 pi g_ratio^2 finite",    # it bounds |xi|^2
             lambda v: math.isfinite(theta_from_coupling_ratio(v)), "g_ratio")
    # in rad/s and s, where a huge value overflows and a tiny one underflows;
    # pi / |omega_eff| is the default time
    _require(args, "finite and > 0", lambda v: 0.0 < v * NS < math.inf, "time_ns")
    _require(args, "finite and nonzero, with pi / |omega_eff| finite",
             lambda v: v != 0.0 and 0.0 < math.pi / abs(v * MHZ) < math.inf, "omega_mhz")
    _require(args, ">= 1", lambda v: v >= 1, "samples")
    _require(args, ">= 2", lambda v: v >= 2, "fock_cutoff")
    omega_eff = args.omega_mhz * MHZ
    g_eff = args.g_ratio * omega_eff
    t_end = args.time_ns * NS if args.time_ns is not None else math.pi / abs(omega_eff)
    _require(args, "finite, with g_ratio omega_eff finite",
             lambda v: math.isfinite(g_eff), "g_ratio")
    # omega_eff t, then phi = (g/w)^2 (w t - sin w t): finite at t_end, so at
    # every sample; at the default time phi = pi (g/w)^2, finite by --g-ratio
    _require(args, "finite, with the Magnus phase at it finite",
             lambda v: math.isfinite(omega_eff * t_end)
             and math.isfinite(magnus_phase(g_eff, omega_eff, t_end).phi), "time_ns")
    xi_end = magnus_phase(g_eff, omega_eff, t_end).xi
    if conditional_probability(xi_end, "e") <= MIN_PROBABILITY:
        raise ValidationError(f"--g-ratio: {args.g_ratio} leaves outcome 'e' no "
                              f"probability at t = {t_end:.6g} s")
    space = HilbertSpace(1, args.fock_cutoff)
    times = np.linspace(0.0, t_end, args.samples)
    rows = []
    for t in times:
        ph = magnus_phase(g_eff, omega_eff, float(t))
        rows.append([float(t), ph.xi.real, ph.xi.imag, abs(ph.xi), ph.phi])
    try:
        psi = cat_evolution(g_eff, omega_eff, t_end, space)
    except ValidationError as err:   # |xi| <= 2 |g_ratio|: its displacement overflowed
        raise ValidationError(f"--g-ratio: {args.g_ratio} displaces the resonator too far "
                              f"to compute the state ({err})") from err
    cat_g, p_g = conditional_cat(psi, "g")
    cat_e, p_e = conditional_cat(psi, "e")
    fock_rows = [[n, float(np.abs(cat_g.state.amplitudes[n]) ** 2),
                  float(np.abs(cat_e.state.amplitudes[n]) ** 2)]
                 for n in range(args.fock_cutoff)]
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "params": {"g_ratio": args.g_ratio, "omega_eff_rad_s": omega_eff,
                   "g_eff_rad_s": g_eff, "t_end_s": t_end,
                   "fock_cutoff": args.fock_cutoff},
        "displacement": {"xi_re": xi_end.real, "xi_im": xi_end.imag,
                         "xi_abs": abs(xi_end),
                         "xi_abs_max_possible": 2.0 * abs(args.g_ratio)},
        "conditional": {
            "p_g_measured": p_g, "p_e_measured": p_e,
            "p_g_closed_form": conditional_probability(xi_end, "g"),
            "p_e_closed_form": conditional_probability(xi_end, "e"),
            "even_cat_cross_parity": cross_parity_population(cat_g),
            "odd_cat_cross_parity": cross_parity_population(cat_e),
        },
        "csv_files": {"cat_path.csv": ["time_s", "xi_re", "xi_im", "xi_abs", "phase"],
                      "cat_fock.csv": ["n", "pop_even", "pop_odd"]},
    }
    out = Path(args.output)
    write_json(out / "manifest.json", manifest)
    for (name, header), body in zip(manifest["csv_files"].items(), (rows, fock_rows)):
        write_csv(out / name, header, body)
    print(f"cat: |xi| = {abs(xi_end)} at t = {t_end} s, P(g) = {p_g}, "
          f"wrote {out / 'cat_path.csv'}")
    return 0


def cmd_applications_gate(args) -> int:
    _require(args, "finite, with 4 pi g_ratio^2 finite",
             lambda v: math.isfinite(theta_from_coupling_ratio(v)), "g_ratio")
    gate = gate_at_period(args.g_ratio, 1.0)
    theta = theta_from_coupling_ratio(args.g_ratio)
    power = entangling_power(theta)
    check = cnot_equivalence_check(gate)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "params": {"g_ratio": args.g_ratio, "theta": theta},
        "gate_re": np.real(gate).tolist(),
        "gate_im": np.imag(gate).tolist(),
        "entangling_power": power,
        "cnot_equivalence": {
            "equivalent": check.equivalent,
            "residual": check.residual,
            "ordering": check.ordering,
            "residuals": check.residuals,
        },
    }
    out = Path(args.output)
    write_json(out / "manifest.json", manifest)
    print(f"gate: theta = {theta}, entangling power = {power}, "
          f"CNOT residual = {check.residual}")
    return 0


def cmd_validate(args) -> int:
    scn = load_scenario(args.scenario)
    report = {"schema_version": SCHEMA_VERSION, "name": scn.name, "valid": True,
              **validation_report(scn)}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _check_output(output: str):
    """Refuse an output directory that cannot be made, before any compute:
    its nearest existing ancestor, itself included, must be a directory.
    Nothing is created here, so a refused command leaves no directory."""
    out = Path(output)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ValidationError(f"--output: {path} is not a directory")
            return


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "output", None) is not None:
            _check_output(args.output)
        code = args.run(args)
        sys.stdout.flush()          # a reader that has left fails here, not at exit
        return code
    except BrokenPipeError:         # `modrabi validate fig2a | head -3`: stop quietly,
        # on a stdout that cannot fail when Python flushes it again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        if err.diagnostics:
            print(json.dumps(err.diagnostics, indent=2, default=str), file=sys.stderr)
        return 3
    except UnreachableTargetError as err:
        print(f"unreachable target: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
