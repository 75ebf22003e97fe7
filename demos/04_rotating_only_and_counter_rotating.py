"""Suppress one coupling exactly and watch the surviving dynamics.

Driving a tone at twice the amplitude where J0 vanishes (eta = 1.2024...)
nulls one of the two effective couplings.  With only the rotating term the
excited qubit swaps a photon back and forth; with only the counter-rotating
term qubit and resonator are excited out of the vacuum together, with equal
populations, and the oscillation picks up the blue detuning.
"""

import math

import numpy as np

from modrabi import (ETA_NULL, HilbertSpace, SystemParams, basis_state,
                     drive_for_detunings, effective_hamiltonian, effective_params,
                     evolve_schrodinger, extract_period)

TWO_PI = 2 * math.pi
GHZ = TWO_PI * 1e9
MHZ = TWO_PI * 1e6
NS = 1e-9

system = SystemParams(epsilon=5.4 * GHZ, omega=2.2 * GHZ, g=70 * MHZ)
space = HilbertSpace(1, 8)

# rotating-only: red tone at the J0 null, resonant red sideband
drive_jc = drive_for_detunings(0.0, 35.03 * MHZ, system,
                               eta1=ETA_NULL, eta2=0.7173)
eff = effective_params(system, drive_jc)
print(f"rotating-only model: g_r/2pi = {eff.g_r / MHZ:.2f} MHz, "
      f"g_cr/g = {abs(eff.g_cr) / system.g:.1e}")
H = effective_hamiltonian(eff, space)
period = math.pi / abs(eff.g_r)
times = np.linspace(0, 2.5 * period, 1001)
traj = evolve_schrodinger(H, basis_state(space, "e", 0), times)
est = extract_period(traj.times, traj.observables["sigma_pop"])
print(f"  excitation swap period: measured {est.period / NS:.2f} ns, "
      f"pi/|g_r| = {period / NS:.2f} ns")

# counter-rotating-only: blue tone at the J0 null
drive_ajc = drive_for_detunings(0.0, 35.03 * MHZ, system,
                                eta1=0.7173, eta2=ETA_NULL)
eff = effective_params(system, drive_ajc)
print(f"\ncounter-rotating-only model: g_cr/2pi = {eff.g_cr / MHZ:.2f} MHz, "
      f"g_r/g = {abs(eff.g_r) / system.g:.1e}")
H = effective_hamiltonian(eff, space)
expected = TWO_PI / math.hypot(2 * eff.g_cr, eff.delta2)
times = np.linspace(0, 2.5 * expected, 1001)
traj = evolve_schrodinger(H, basis_state(space, "g", 0), times)
est = extract_period(traj.times, traj.observables["sigma_pop"])
gap = np.max(np.abs(traj.observables["photon_number"]
                    - traj.observables["sigma_pop"]))
print(f"  vacuum-pair period: measured {est.period / NS:.2f} ns, "
      f"2pi/sqrt(4 g_cr^2 + delta2^2) = {expected / NS:.2f} ns")
print(f"  qubit and resonator excitations track each other to {gap:.1e}")
