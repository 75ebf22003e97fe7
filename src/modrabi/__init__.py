"""modrabi: two-tone frequency-modulation synthesis of tunable anisotropic
Rabi models from a dispersively coupled qubit-resonator system.

The package is organized bottom-up:

* :mod:`modrabi.hilbert` - truncated qubit(s) x resonator spaces, operators
  and states: the ladder, qubit, displacement and coherent-state
  constructors, and the basis labels diagonal operators are written from;
* :mod:`modrabi.bessel` - first-kind Bessel functions of every order to 64
  from one trapezoid sum, numpy alone, on a checked domain;
* :mod:`modrabi.modulation` - drive settings <-> effective model constants,
  sideband series, approximation audit, inverse design (amplitudes, and the
  one drive solve behind the CLI and scenario design targets);
* :mod:`modrabi.hamiltonians` - lab frame, exact rotating frame, and the one
  effective (anisotropic Rabi/Dicke) builder behind the specializations and
  the collective-qubit forms;
* :mod:`modrabi.dynamics` - Schrodinger and Lindblad propagation,
  observables, fidelity, period extraction;
* :mod:`modrabi.applications` - closed-form propagator, cat states,
  two-qubit gate, CNOT equivalence;
* :mod:`modrabi.scenarios` / :mod:`modrabi.cli` - JSON scenario runner and
  the ``modrabi`` command-line front end.
"""

from .bessel import J0_FIRST_ZERO, bessel_j, bessel_orders
from .errors import (NumericsError, TruncationWarning, UnreachableTargetError,
                     ValidationError)
from .hilbert import (DensityMatrix, HilbertSpace, Operator, PureState,
                      annihilation, basis_state, coherent_state, displacement,
                      qubit_operator)
from .modulation import (ETA_BALANCED, ETA_NULL, Detunings, DriveParams,
                         EffectiveParams, SidebandTerm, SystemParams,
                         ValidityReport, amplitudes_for_coupling,
                         coupling_ratio, detunings, drive_for_detunings,
                         drive_for_targets, effective_params, sideband_amplitudes,
                         solve_amplitudes, validity_report)
from .hamiltonians import (FramePhases, TimeDependentHamiltonian,
                           dicke_hamiltonian, effective_hamiltonian,
                           frame_phases, jx_field_hamiltonian, lab_hamiltonian,
                           model, rotated_hamiltonian)
from .dynamics import (DEFAULT_OBSERVABLES, Dissipator, IntegratorConfig,
                       PeriodEstimate, Trajectory, dissipator_frame_defect,
                       evolve_master, evolve_schrodinger, extract_period,
                       fidelity, loss_dissipators)
from .applications import (CatState, CnotEquivalence, MagnusPhase,
                           cat_evolution, cnot_equivalence_check,
                           conditional_cat, conditional_probability,
                           cross_parity_population, entangling_power,
                           gate_at_period, magnus_phase, magnus_propagator,
                           theta_from_coupling_ratio)

__version__ = "0.1.0"
