"""Seeded inputs for the benchmark workloads.

Everything here is drawn from ``random.Random(seed)`` and depends on nothing
else, so the same seed gives the same inputs.  The program under test sees
only what this module builds: scenario documents (written to files) and argv
lists.  This module imports nothing from ``modrabi``.

Inputs come in blocks.  A block visits every stratum of the property that
sets the cost of an operation most (Fock cutoff, or operation kind) exactly
once, in a seeded order, so any whole number of blocks carries the same mix
of work whatever the seed; the seed moves values only inside a stratum.
That keeps run-to-run spread across seeds small.  Exact-frame and sweep
blocks hold one operation per cutoff and cover the coupling bins (the eta2
ranges) over a cycle of four (two) blocks.  An odd number of strata per
block puts the median operation inside a stratum.

Varied input properties and why:

* coupling ratio |g_r / omega_eff| in four bins across 0.05-1.2 (weak,
  strong, ultra-strong, deep-strong, like fig2a-fig3d): sets omega_eff and
  how far up the Fock ladder the state climbs, hence cutoff adequacy;
* drive form: ``drive.design`` targets (anisotropy, g_r_over_omega_eff,
  red detuning), which run the inverse-design bisection while parsing,
  against explicit tones, spelled as ``eta`` or as ``amp_ghz`` and carrying
  random drive phases, which enter the exact generator's coefficients;
* initial state ``vac_g`` / ``vac_e``: which parity sector is populated;
* Fock cutoff: the matrix size d = 2N, which sets the cost of the dense
  generator products, the jump appliers and ``eigvalsh`` at every sample,
  and whether OpenBLAS runs them multi-threaded;
* grid length and sample count: step count and recording count.
"""

from __future__ import annotations

import math
import random

SYSTEM = {"epsilon_ghz": 5.4, "omega_ghz": 2.2, "g_mhz": 70,
          "kappa_mhz": 0.05, "gamma_mhz": 0.012}
RED_GHZ = SYSTEM["epsilon_ghz"] - SYSTEM["omega_ghz"]     # red sideband
BLUE_GHZ = SYSTEM["epsilon_ghz"] + SYSTEM["omega_ghz"]    # blue sideband
ETA_NULL = 1.2024                                         # J0(2 eta) ~ 0

RATIO_BINS = ((0.05, 0.1), (0.1, 0.5), (0.5, 1.0), (1.0, 1.2))
# an odd number of cutoffs puts the median operation inside a stratum, not
# on the cost gap between two.  30 is the cutoff of the packaged figures
# (d = 60); 24 and 30 are past OpenBLAS's threading threshold, so BLAS helper
# threads run there as they do behind fig3d.
EXACT_CUTOFFS = (8, 12, 18, 24, 30)
# 12 keeps every matrix below OpenBLAS's threading threshold; 16-28 do not,
# which is where forked sweep workers and BLAS threads contend.
SWEEP_CUTOFFS = (12, 16, 20, 24, 28)
SWEEP_STOP_BINS = ((0.6, 0.9), (0.9, ETA_NULL))   # where the eta2 sweep ends
# Timed sweeps run serially: on the fork pool two BLAS-threaded points in
# flight at once take 0.5-6 s for what takes 0.39 s serially, a spread no
# bound can hold.  The traced run times the same sweeps on the pool.
SWEEP_POINTS = 2
# theta = 4 pi r^2 = pi/4 + k pi: every one of these is CNOT-equivalent
GATE_RATIOS = tuple(math.sqrt(1.0 / 16.0 + k / 4.0) for k in range(4))
# Costs order magnus < gate < design < cat; two designs put the median
# operation in the middle of the design stratum, not on a gap between kinds.
PROTOCOL_KINDS = ("magnus", "gate", "design", "design", "cat")


def bessel_series(n: int, x: float) -> float:
    """J_n(x) by its ascending series; accurate to ~1e-15 for |x| < 3."""
    total = 0.0
    term = (x / 2.0) ** n / math.factorial(n)
    k = 0
    while True:
        total += term
        k += 1
        term *= -(x / 2.0) ** 2 / (k * (k + n))
        if abs(term) < 1e-18:
            return total + term


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _exact_doc(rng: random.Random, ratio_bin, designed: bool, cutoff: int,
               initial: str, dissipation: bool, name: str) -> dict:
    ratio = _log_uniform(rng, *ratio_bin)
    if designed:
        drive = {"design": {"anisotropy": _log_uniform(rng, 0.5, 2.0),
                            "g_r_over_omega_eff": ratio,
                            "delta1_mhz": rng.uniform(-5.0, 5.0)}}
    else:
        eta1 = rng.uniform(0.55, 0.85)
        eta2 = rng.uniform(0.55, 0.85)
        g_r = SYSTEM["g_mhz"] * 1e-3 * abs(bessel_series(1, 2 * eta1)
                                          * bessel_series(0, 2 * eta2))
        omega_eff = g_r / ratio                     # GHz
        epsilon_eff = rng.uniform(-0.5, 0.5) * omega_eff
        delta1, delta2 = omega_eff - epsilon_eff, omega_eff + epsilon_eff
        omega1, omega2 = RED_GHZ + delta1, BLUE_GHZ - delta2
        drive = {"omega1_ghz": omega1, "omega2_ghz": omega2,
                 "phi1": rng.uniform(0.0, 2 * math.pi),
                 "phi2": rng.uniform(0.0, 2 * math.pi)}
        if rng.random() < 0.5:
            drive.update(eta1=eta1, eta2=eta2)
        else:
            drive.update(amp1_ghz=eta1 * omega1, amp2_ghz=eta2 * omega2)
    return {"schema_version": 1, "name": name, "system": dict(SYSTEM),
            "drive": drive, "model": "both", "dissipation": dissipation,
            "initial_state": initial,
            "grid": {"t_end_ns": rng.uniform(1.9, 2.1),
                     "samples": rng.randint(21, 41)},
            "fock_cutoff": cutoff,
            "outputs": ["sigma_pop", "photon_number", "fidelity", "trace",
                        "purity", "top_fock_pop"]}


def _balanced_bits(rng: random.Random, n: int) -> list[bool]:
    bits = [True, False] * (n // 2)
    rng.shuffle(bits)
    return bits


def _cycle_cells(rng: random.Random, cutoffs: tuple, bins: tuple) -> list[tuple]:
    """One cycle of (cell index, cutoff, bin), block by block.

    Each block holds one cell per cutoff, so every block holds every matrix
    size once; the bins rotate across ``len(bins)`` blocks (a Latin square),
    so a cycle, where a run ends, covers every (cutoff, bin) cell once.
    """
    bins = list(bins)
    rng.shuffle(bins)
    blocks = list(range(len(bins)))
    rng.shuffle(blocks)
    cells = []
    for g in blocks:
        order = list(range(len(cutoffs)))
        rng.shuffle(order)
        cells += [(j * len(bins) + g, cutoffs[j], bins[(g + j) % len(bins)])
                  for j in order]
    return cells


def _exact_cycle(rng: random.Random, dissipation: bool, c: int) -> list[dict]:
    # the ratio bins rotate because the cost of the effective RK45 reference
    # depends on both the bin and the cutoff, through omega_eff * N
    ncells = len(EXACT_CUTOFFS) * len(RATIO_BINS)
    designed = _balanced_bits(rng, ncells)
    initials = _balanced_bits(rng, ncells)
    ops = []
    for k, cutoff, ratio_bin in _cycle_cells(rng, EXACT_CUTOFFS, RATIO_BINS):
        doc = _exact_doc(rng, ratio_bin, designed[k], cutoff,
                         "vac_e" if initials[k] else "vac_g", dissipation,
                         f"exact_{c}_{k}")
        ops.append({"kind": "simulate", "doc": doc, "units": 1,
                    "argv": ["simulate", "{doc}", "-o", "{out}"]})
    return ops


def _sweep_cycle(rng: random.Random, c: int) -> list[dict]:
    initials = _balanced_bits(rng, len(SWEEP_CUTOFFS) * len(SWEEP_STOP_BINS))
    ops = []
    for k, cutoff, stop_bin in _cycle_cells(rng, SWEEP_CUTOFFS, SWEEP_STOP_BINS):
        eta1 = rng.uniform(0.6, 0.8)
        drive = {"omega1_ghz": RED_GHZ, "omega2_ghz": BLUE_GHZ, "eta2": 0.0,
                 "phi1": rng.choice((0.0, rng.uniform(0.0, 2 * math.pi))),
                 "phi2": rng.choice((0.0, rng.uniform(0.0, 2 * math.pi)))}
        if rng.random() < 0.5:
            drive["eta1"] = eta1
        else:
            drive["amp1_ghz"] = eta1 * RED_GHZ
        doc = {"schema_version": 1, "name": f"sweep_{c}_{k}",
               "system": dict(SYSTEM), "drive": drive, "model": "effective",
               "dissipation": True,
               "initial_state": "vac_e" if initials[k] else "vac_g",
               "grid": {"t_end_ns": rng.uniform(18.0, 22.0),
                        "samples": rng.randint(161, 201)},
               "fock_cutoff": cutoff,
               "outputs": ["sigma_pop", "photon_number", "trace", "purity",
                           "top_fock_pop"]}
        start = rng.uniform(0.0, 0.3)
        stop = rng.uniform(*stop_bin)
        ops.append({"kind": "sweep", "doc": doc, "units": SWEEP_POINTS,
                    "sweep": {"param": "drive.eta2", "start": start,
                              "stop": stop, "points": SWEEP_POINTS},
                    "argv": ["sweep", "{doc}", "--param", "drive.eta2",
                             "--from", repr(start), "--to", repr(stop),
                             "--points", str(SWEEP_POINTS),
                             "--threads", "{threads}", "-o", "{out}"]})
    return ops


def _protocol_op(rng: random.Random, kind: str, k: int) -> dict:
    if kind == "design":
        lam = _log_uniform(rng, 0.2, 5.0)
        gratio = _log_uniform(rng, 0.05, 1.5)
        argv = ["design", "--lambda", repr(lam), "--gratio", repr(gratio)]
        delta1 = None
        if k % 2:
            delta1 = rng.uniform(-5.0, 5.0)
            # one token with "=": argparse reads "-3.5e-05" after a flag as
            # an option, not a value, and the run would stop in set-up
            argv += [f"--delta1-mhz={delta1!r}"]
        return {"kind": "design", "units": 1, "argv": argv + ["-o", "{out}"],
                "params": {"lambda": lam, "gratio": gratio,
                           "delta1_mhz": delta1}}
    if kind == "cat":
        ratio = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.2)
        omega_mhz = rng.uniform(20.0, 50.0)
        samples = rng.randint(101, 201)
        cutoff = rng.randint(30, 40)
        return {"kind": "cat", "units": 1,
                "argv": ["applications", "cat", f"--g-ratio={ratio!r}",
                         "--omega-mhz", repr(omega_mhz),
                         "--samples", str(samples),
                         "--fock-cutoff", str(cutoff), "-o", "{out}"],
                "params": {"g_ratio": ratio, "samples": samples,
                           "fock_cutoff": cutoff}}
    if kind == "gate":
        ratio = rng.choice((-1.0, 1.0)) * rng.choice(GATE_RATIOS)
        return {"kind": "gate", "units": 1,
                "argv": ["applications", "gate", f"--g-ratio={ratio!r}",
                         "-o", "{out}"],
                "params": {"g_ratio": ratio}}
    ratio = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.3)
    return {"kind": "magnus", "units": 1, "argv": None,
            "params": {"g_eff": ratio, "omega_eff": 1.0,
                       "t": rng.uniform(0.0, 2 * math.pi),
                       "fock_cutoff": rng.randint(16, 24)}}


def _protocol_block(rng: random.Random) -> list[dict]:
    # k counts the operations of a kind, so one design per block is detuned
    kinds = [(kind, PROTOCOL_KINDS[:i].count(kind)) for i, kind in enumerate(PROTOCOL_KINDS)]
    rng.shuffle(kinds)
    return [_protocol_op(rng, kind, k) for kind, k in kinds]


def substitute(argv: list, **values) -> list:
    """Replace the ``{name}`` tokens of an argv template."""
    return [values[a[1:-1]] if a.startswith("{") and a.endswith("}") else a
            for a in argv]


WORKLOADS = ("exact_open", "exact_unitary", "effective_sweep", "protocols")


def cycle_ops(workload: str) -> int:
    """Operations in one cycle, the smallest run in which every stratum, and
    for the exact and sweep workloads every (cutoff, bin) cell and the
    balanced initial states and drive forms, occur equally often."""
    if workload == "protocols":
        return len(PROTOCOL_KINDS)
    if workload == "effective_sweep":
        return len(SWEEP_CUTOFFS) * len(SWEEP_STOP_BINS)
    return len(EXACT_CUTOFFS) * len(RATIO_BINS)


def generate(workload: str, seed: int, blocks: int) -> list[dict]:
    """The first ``blocks`` blocks of the workload's seeded operation list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "protocols":
        return [op for _ in range(blocks) for op in _protocol_block(rng)]
    cutoffs, bins = (SWEEP_CUTOFFS, SWEEP_STOP_BINS) if workload == "effective_sweep" \
        else (EXACT_CUTOFFS, RATIO_BINS)
    ops = []
    for c in range(-(-blocks // len(bins))):
        ops += _sweep_cycle(rng, c) if workload == "effective_sweep" \
            else _exact_cycle(rng, workload == "exact_open", c)
    return ops[:blocks * len(cutoffs)]
