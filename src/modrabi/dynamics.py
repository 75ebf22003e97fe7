"""Time evolution: Schrodinger and Lindblad propagation, observables, periods.

Both equations run through one propagation loop over arrays; a state vector
is the (n,) case and a density matrix a stack of diagonal blocks.  A
Schrodinger run keeps its states, one (T, d) array; a Lindblad run keeps
its (T, d, d) stack only when asked (`store_states`).  The loop takes
fixed steps of one Runge-Kutta stepper driven by a Butcher tableau
(`_propagate`): Dormand-Prince 5(4) (`fixed_dp5`, the default of every run
that is stepped) or classical RK4 (`fixed_rk4`, the oracle).  A Schrodinger
run with a static Hamiltonian and no method named skips the loop: one
eigendecomposition H = V diag(lam) V+ gives psi(t) = V exp(-i lam (t - t0))
V+ psi0 exactly at every time of the grid, all in one product, and the run
reports method "spectral".  The Lindblad right-hand side is

    d rho / dt = K rho + rho K+  +  sum_j r_j L_j rho L_j+,
    K = -i H(t) - sum_j (r_j / 2) L_j+ L_j,

with the (rate/2)(2 L rho L+ - rho L+L - L+L rho) normalization, so a pure
decay run gives <n>(t) = e^{-gamma t} exactly.  K keeps the Hamiltonian's
form, a static part plus scalar coefficients times fixed sparse matrices,
and all jump terms together are one fixed sparse superoperator on the
row-major vec(rho), J = sum_j r_j L_j (x) conj(L_j), whatever the channels.
Both products call scipy's compiled CSR kernels directly, into preallocated
buffers (`_csr_kernel`); `scipy.sparse` loads when the first run builds its
generator, not with this module.

`_plan` resolves a run before any compute into its `RunPlan` (the checked
grid, the method, the steps of each interval, the parity blocks and
`rhs_evals`) and raises every ValidationError the run can raise; `evolve_*`
carry the plan out through `_schrodinger` and `_master`, to which a caller
that plans several runs before any of them computes hands its plans.  Each
run reports its plan's `summary` in its diagnostics.  Every generator here
conserves the parity (n + excited qubits) mod 2, and a run carries only the
parity sectors its initial state holds (`_parity_blocks`).

Every run records the series `DEFAULT_OBSERVABLES`, in that order, each but
the purity a set of diagonal weights on |psi|^2 or diag(rho), and reports
`cutoff_ok`: whether the top-Fock population stayed below
`CUTOFF_POP_LIMIT`.  A Lindblad run records each sample as it steps.  A
vector run copies each sample aside, and after the run takes its series,
norms and normalized states in a few array calls.  A run handed `reference`
vectors, one per time of the grid, also records `fidelity`: |<ref|psi>|^2,
or <ref|rho|ref> taken block by block as each sample is recorded, so
comparing a Lindblad run with a reference keeps no density matrices.  A
sample holding NaN or inf aborts either equation at that sample, before the
run steps on.  Every state a Lindblad run holds is exactly Hermitian with no
repair: each stage writes M + M+ and every combination of the stack has real
weights.  Its positivity is monitored, not projected: an eigenvalue below
`POSITIVITY_FLOOR` aborts, because it is evidence of a cutoff or step-size
misconfiguration, and so does a trace that leaves 1 by more than
`TRACE_TOL`; `eigvalsh` takes only the blocks of a sample for which one
Cholesky call on the stack cannot rule out a new least eigenvalue (`_above`),
and the run reports when the least one occurred (`min_eigenvalue_time`).
`extract_period` counts the maxima whose prominence is at least
`MIN_PROMINENCE` of the series' range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericsError, ValidationError
from .hamiltonians import TimeDependentHamiltonian
from .hilbert import (DensityMatrix, HilbertSpace, Operator, PureState,
                      annihilation, basis_labels, qubit_operator)
from .modulation import SystemParams

METHODS = ("fixed_rk4", "fixed_dp5")

TRACE_TOL = 1e-6            # largest |Tr rho - 1| a Lindblad run accepts
POSITIVITY_FLOOR = -1e-6    # least eigenvalue of rho a Lindblad run accepts
# Shift of the Cholesky test that skips `eigvalsh` for a block.  If a
# block A = rho_s - (m + margin) I factors, A + dA is positive definite with
# ||dA||_2 <= N gamma_{N+1} ||A||_2, gamma_k = k u / (1 - k u) (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 10.1).  A
# sample that is kept has unit trace within TRACE_TOL and no eigenvalue
# below POSITIVITY_FLOOR, so ||A||_2 is about 1 and that bound is 1.8e-13 at
# N = 40, the largest packaged block; it reaches the margin only near
# N = 95.  The errors met in practice, of the factorization and of
# `eigvalsh`, are below 1e-15 up to N = 95.  So every eigenvalue `eigvalsh`
# would return for a block that factors lies above m, and `eigvalsh` of the
# other blocks alone returns their slice of the whole stack's eigenvalues.
CHOLESKY_MARGIN = 1e-12
CUTOFF_POP_LIMIT = 1e-6     # largest top-Fock population of a run with cutoff_ok
HERMITIAN_RTOL = 1e-12      # largest |H - H+| / max |H| the spectral path accepts
MIN_PROMINENCE = 0.05       # least peak prominence extract_period counts, of the range
MAX_RHS_EVALS = 10 ** 9     # most right-hand sides a plan accepts: ~3 h at 10 us each

# the series every run records, in this order
DEFAULT_OBSERVABLES = ("sigma_pop", "photon_number", "trace", "purity", "top_fock_pop")


def __getattr__(name: str):
    """scipy's `solve_ivp`, imported on first access (PEP 562).

    No run calls it: every run is spectral or takes fixed steps.  It stays
    only because the benchmark harness under `perfbench/` hooks
    `dynamics.solve_ivp` and its tests check that the hook installs; it goes
    with ROADMAP item 1, which rewrites that harness.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    """How a run is propagated.

    `method` None (the default) is chosen from the run: a Schrodinger run
    under a static Hamiltonian (no coupling terms) is solved exactly by one
    eigendecomposition and reports method "spectral", and every other run
    takes `fixed_dp5` steps.  `fixed_dp5` is Dormand-Prince 5(4) at steps
    <= `dt` (default: 2.5 times the Hamiltonian's `suggested_dt`); a step
    longer than every sample interval reads the samples off its continuous
    extension.  `fixed_rk4`, the oracle, is classical RK4 at steps <= `dt`
    (default: `suggested_dt`).  An explicit `dt` is used as given.
    """

    method: str | None = None
    dt: float | None = None          # fixed-step target; default from the Hamiltonian

    def __post_init__(self):
        if self.method is not None and self.method not in METHODS:
            raise ValidationError(f"integrator method must be one of {METHODS}")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValidationError("dt must be finite and > 0")


@dataclass(frozen=True)
class Dissipator:
    """Lindblad channel: jump operator and rate."""

    jump: Operator
    rate: float

    def __post_init__(self):
        if self.rate < 0:
            raise ValidationError("dissipator rate must be >= 0")


def loss_dissipators(sys: SystemParams, space: HilbertSpace) -> list[Dissipator]:
    """Qubit decay (sigma-, rate kappa) and resonator loss (a, rate gamma)."""
    out = []
    if sys.kappa > 0:
        out.append(Dissipator(qubit_operator(space, 0, "sm"), sys.kappa))
    if sys.gamma > 0:
        out.append(Dissipator(annihilation(space), sys.gamma))
    return out


@dataclass
class Trajectory:
    """Time grid, named real observable series, and the states at its times:
    None, (T, d) normalized vectors or (T, d, d) density matrices."""

    times: np.ndarray
    observables: dict[str, np.ndarray]
    states: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

_DIAGONAL_WEIGHTS = {    # series -> its operator's diagonal, from space s and its Fock labels
    # qubit 0 leads the basis order, so its excited states are the first half
    "sigma_pop": lambda s, fock: np.arange(s.dim) < s.fock_cutoff * (s.qubit_dim // 2),
    "photon_number": lambda s, fock: fock,
    "trace": lambda s, fock: np.ones(s.dim),
    "top_fock_pop": lambda s, fock: fock == s.fock_cutoff - 1,
}


class _ObservableSet:
    """The DEFAULT_OBSERVABLES series over the samples of one run.

    Every series but the purity is <M> for an M diagonal in the product
    basis, so they are one (K, d) weight matrix applied to |psi|^2 or
    diag(rho); the purity is the one nonlinear series.  Entry k of a state
    handed in is basis state order[k].
    """

    def __init__(self, space: HilbertSpace, samples: int, order=slice(None)):
        fock, _ = basis_labels(space)
        self.weights = np.array([w(space, fock) for w in _DIAGONAL_WEIGHTS.values()],
                                dtype=float)[:, order]
        self.table = np.empty((len(_DIAGONAL_WEIGHTS), samples))
        self.purity = np.empty(samples)
        rows = dict(zip(_DIAGONAL_WEIGHTS, self.table), purity=self.purity)
        self.series = {name: rows[name] for name in DEFAULT_OBSERVABLES}

    def cutoff_report(self, times: np.ndarray) -> dict:
        """`cutoff_ok` and the largest top-Fock population with its time."""
        top = self.series["top_fock_pop"]
        i = int(np.argmax(top))
        return {"cutoff_ok": bool(top[i] < CUTOFF_POP_LIMIT),
                "max_top_fock_pop": float(top[i]), "max_top_fock_pop_time": float(times[i])}

    def from_vectors(self, pop: np.ndarray, norm2: np.ndarray):
        """Every sample of a vector run: its (T, n) |psi|^2 and (T,) |psi|^2 sums."""
        np.matmul(self.weights, pop.T, out=self.table)
        np.square(norm2, out=self.purity)

    def from_blocks(self, i: int, rho: np.ndarray):
        """Sample i of a block-diagonal rho, given as its (S, N, N) blocks."""
        self.table[:, i] = self.weights @ np.real(np.diagonal(rho, axis1=1, axis2=2)).ravel()
        # Tr(rho^2) = sum |rho_ij|^2, rho Hermitian
        self.purity[i] = np.real(np.vdot(rho, rho))


# ---------------------------------------------------------------------------
# generator, right-hand sides and stepper
# ---------------------------------------------------------------------------

_MAX_BLOCK = 64     # steps whose stage nonzeros are evaluated in one call


def _csr_kernel(a, x_shape: tuple, out_shape: tuple):
    """kernel(data, x, out) adds A x to out, for the CSR matrix A with the
    pattern of `a` and nonzeros `data`.

    x holds prod(x_shape) / a.shape[1] columns in C order (a vector is one),
    and out as many a.shape[0]-long ones.  The kernel is scipy's compiled one,
    called directly: its `@` allocates the result and re-checks the operands
    on every call, which costs more than the product at these sizes.  So the
    operand sizes are checked here, once; every call must pass C-contiguous
    complex arrays of these sizes and `data` of a.indices.size entries.
    """
    from scipy.sparse import _sparsetools     # private: the CSR kernels behind `@`
    n_row, n_col = a.shape
    vecs = math.prod(x_shape) // n_col
    if math.prod(x_shape) != vecs * n_col or math.prod(out_shape) != vecs * n_row:
        raise ValueError(f"operands of shapes {x_shape} and {out_shape} do not fit "
                         f"a {n_row} x {n_col} matrix")
    if vecs == 1:
        return functools.partial(_sparsetools.csr_matvec, n_row, n_col, a.indptr, a.indices)
    return functools.partial(_sparsetools.csr_matvecs, n_row, n_col, vecs,
                             a.indptr, a.indices)


class _Generator:
    """K(t) = -i H(t) - damping as one CSR pattern, in the basis `order`.

    The static part, the damping and every coupling term share one sparsity
    pattern, held by `matrix`.  Row 0 of `weights` holds the static
    nonzeros and row k those of term k, so the nonzeros of c K at time t are
    c [1, coefficients(t)] @ weights, one row of `data`.
    Basis state k of the generator is state order[k] of the space.
    """

    def __init__(self, H: TimeDependentHamiltonian, damping=0.0, order=slice(None)):
        from scipy import sparse
        static = (-1j * np.asarray(H.static) - damping)[order][:, order]
        terms = [-1j * m[order][:, order] for m in H.terms]
        rows, cols = np.nonzero(np.logical_or.reduce([static != 0]
                                                     + [m != 0 for m in terms]))
        dim = static.shape[0]
        self.weights = np.array([m[rows, cols] for m in [static, *terms]])
        self.coefficients = H.coefficients
        indptr = np.searchsorted(rows, np.arange(dim + 1))
        self.matrix = sparse.csr_array(    # int32 indices, the faster kernel; nnz <= d^2
            (self.weights[0], cols.astype(np.int32), indptr.astype(np.int32)),
            shape=(dim, dim))

    def data(self, times: np.ndarray, scale=1.0) -> np.ndarray:
        """Nonzeros of scale * K at each time, shape (T, nnz); `scale` is one
        number or one per time."""
        c = np.empty((len(times), len(self.weights)), dtype=complex)
        c[:, 0] = scale
        if self.coefficients is not None:
            np.multiply(self.coefficients(times), c[:, :1], out=c[:, 1:])
        return c @ self.weights


def _vector_stage(generator: _Generator, shape: tuple):
    """stage(data, jump_data, psi, out): out += c K psi, with the nonzeros
    `data` of c K; `jump_data` is unused."""
    apply = _csr_kernel(generator.matrix, shape, shape)

    def stage(data, jump_data, psi, out):
        apply(data, psi, out)
    return stage


def _block_stage(generator: _Generator, jumps, shape: tuple):
    """stage(data, jump_data, rho, out): out = M + M+ per sector, for a zeroed
    out, with M = c K rho + c J rho / 2, `data` the nonzeros of c K and
    `jump_data` those of c J / 2.

    rho is the (S, N, N) stack of the sectors' blocks and `jumps` is J / 2,
    restricted to them.  For Hermitian rho, which every stage of the flow
    preserves, M + M+ is c (K rho + rho K+ + sum_j r_j L_j rho L_j+), and it
    is Hermitian by construction whatever the channels.  A stage never
    symmetrizes its input, so a stepper bug cannot hide behind it.
    """
    apply_k = _csr_kernel(generator.matrix, shape, shape)
    apply_j = _csr_kernel(jumps, shape, shape)
    m_h = np.empty(shape, dtype=complex)
    m_h_t = m_h.transpose(0, 2, 1)

    def stage(data, jump_data, rho, out):
        apply_k(data, rho, out)         # out holds M
        apply_j(jump_data, rho, out)
        np.conjugate(out, out=m_h)
        out += m_h_t
    return stage


@dataclass(frozen=True)
class Tableau:
    """An explicit Runge-Kutta method: stage i evaluates k_i = f(t + c_i h, x_i)
    at x_i = y + h sum_j a_ij k_j (row i of `a` lists a_i1 .. a_i,i-1) and
    the step is y <- y + h sum_j b_j k_j.  `step` is the default step as a
    multiple of the Hamiltonian's `suggested_dt`.  A method with a continuous
    extension gives it as `p`: y(t + theta h) = y + h sum_i b_i(theta) k_i
    with b_i(theta) = sum_j p_ij theta^(j+1), so b_i(1) = b_i.  A tableau
    whose last stage is not at the new y (c_s = 1, b_s = 0, a_s = b) is refused."""

    a: tuple
    b: tuple
    c: tuple
    step: float
    p: tuple | None = None

    def __post_init__(self):
        if not (self.c[-1] == 1.0 and self.b[-1] == 0.0 and self.a[-1] == self.b[:-1]):
            raise ValueError("a tableau must take its last stage at the new y")


# Classical RK4 with a fifth stage at the new y, which is the next step's first
RK4 = Tableau(a=((), (1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
              b=(1 / 6, 1 / 3, 1 / 3, 1 / 6, 0.0), c=(0.0, 1 / 2, 1 / 2, 1.0, 1.0), step=1.0)

# Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980): fifth order, with
# the seventh stage at the new y (first same as last).
# At 2.5 suggested_dt it beats RK4 at suggested_dt on every packaged figure.
DP5 = Tableau(
    a=((),
       (1 / 5,),
       (3 / 40, 9 / 40),
       (44 / 45, -56 / 15, 32 / 9),
       (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
       (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
       (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
    b=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
    c=(0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    step=2.5,
    # the fourth-order continuous extension of Hairer, Norsett & Wanner,
    # Solving ODEs I, sec. II.6 (Shampine, Math. Comp. 46, 135 (1986))
    p=((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
        -12715105075 / 11282082432),
       (0.0, 0.0, 0.0, 0.0),
       (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
        87487479700 / 32700410799),
       (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
        -10690763975 / 1880347072),
       (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
        701980252875 / 199316789632),
       (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
       (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)))

TABLEAUS = {"fixed_rk4": RK4, "fixed_dp5": DP5}


def _propagate(generator: _Generator, stage, y0: np.ndarray, plan: RunPlan, record,
               jump_data: np.ndarray = np.zeros(0, dtype=complex)):
    """Step y0 along the plan in fixed steps of its method's tableau, handing
    record(k, state at times[k]) for every time of its grid; the state
    handed over is a buffer the next step overwrites.

    stage(data, jump_data, x, out) adds c f(t, x) to out, which the stepper
    zeroes: `data` holds the nonzeros of c K(t) (`generator.data(times, c)`)
    and `jump_data` those of c J / 2, c times the `jump_data` given here (a
    state vector has no J).  Interval k of the plan (a sample interval, or
    the whole grid when `dense`) takes plan.steps[k] equal steps of its own
    h.  y and the scaled slopes h k_i are the rows of one stack
    z = [y, h k_1, ..., h k_s], so a stage input x_i = y + sum_j a_ij h k_j
    is one real dot of [1, a_i1, .., a_i,i-1] with rows 0 .. i-1 of z, and a
    state inside a step one of [1, b(theta)] with all of z.  The last stage
    is at the new y (c_s = 1, a_s = b), so its slope is the next step's
    first: a step costs s - 1 evaluations and each interval one more.  The
    nonzeros of h K for up to _MAX_BLOCK steps, across the intervals' bounds,
    come from one call.  A run that restarts at each sample records the new y
    at the end of each interval; a dense run reads each sample off the
    continuous extension in the step that covers it, before y moves on.
    """
    tableau = TABLEAUS[plan.method]
    s = len(tableau.b)
    z = np.zeros((s + 1, *y0.shape), dtype=complex)
    x = np.empty(y0.shape, dtype=complex)
    sample = np.empty(y0.shape, dtype=complex)
    # float views: the weights are real, so each combination is one real dot
    zf = z.reshape(s + 1, -1).view(float)
    xf = x.reshape(-1).view(float)
    sf = sample.reshape(-1).view(float)
    # the times of the stages taken every step; stage 1 is taken once per interval
    c = np.array(tableau.c[1:])
    # stages 2 .. s: (index into those times, the weights of y and
    # h k_1 .. h k_i, those rows of z, the output row h k_i+1)
    stages = [(i - 1, np.array([1.0, *tableau.a[i]]), zf[:i + 1], z[i + 1])
              for i in range(1, s)]
    times, dense = plan.times, plan.dense
    y, k1, ks = z[0], z[1], z[-1]
    fresh = z[2:]                           # the rows a step's stages write
    edges = times[[0, -1]] if dense else times
    h = np.diff(edges) / plan.steps
    ends = np.cumsum(plan.steps)
    begins = ends - plan.steps
    total = int(ends[-1])

    def load(first):
        """The nonzeros of h K for the steps first .. first + _MAX_BLOCK - 1
        (first a multiple of _MAX_BLOCK), one (c, nnz) array per step, and an
        iterator over those of the first stage of each interval that begins
        among them."""
        n = np.arange(first, min(first + _MAX_BLOCK, total))
        k = np.searchsorted(ends, n, side="right")      # the interval of each step
        hs = h[k]
        starts = edges[k] + (n - begins[k]) * hs
        new = k[n == begins[k]]
        t = np.concatenate([(starts[:, None] + hs[:, None] * c).ravel(), edges[new]])
        data = generator.data(t, np.concatenate([np.repeat(hs, c.size), h[new]]))
        return data[:n.size * c.size].reshape(n.size, c.size, -1), iter(data[n.size * c.size:])

    if dense:
        p = np.array(tableau.p)
        u = (times - times[0]) / h[0]
        in_step = np.clip(np.ceil(u).astype(int) - 1, 0, total - 1)
        theta = (u - in_step)[:, None] ** np.arange(1, p.shape[1] + 1)
        weights = np.hstack([np.ones((u.size, 1)), theta @ p.T])
        # step n reads samples reads[n] .. reads[n + 1] - 1
        reads = np.searchsorted(in_step, np.arange(total + 1)).tolist()
    np.copyto(y, y0)
    if not dense:
        record(0, y)
    for k, (first, last) in enumerate(zip(begins.tolist(), ends.tolist())):
        h_jump_data = h[k] * jump_data
        for n in range(first, last):
            if n % _MAX_BLOCK == 0:
                rows, first_rows = load(n)
            if n == first:              # the interval's first stage, afresh
                k1.fill(0.0)
                stage(next(first_rows), h_jump_data, y, k1)
            d = rows[n % _MAX_BLOCK]
            fresh.fill(0.0)
            for i, w, zrows, out in stages:
                np.dot(w, zrows, out=xf)
                stage(d[i], h_jump_data, x, out)
            if dense:
                for j in range(reads[n], reads[n + 1]):
                    np.dot(weights[j], zf, out=sf)
                    record(j, sample)
            np.copyto(y, x)             # the last stage's input is the new y
            np.copyto(k1, ks)
        if not dense:
            record(k + 1, y)


@dataclass(frozen=True)
class RunPlan:
    """How one run is carried out, resolved by `_plan` before any compute.

    A stepped run takes `steps[k]` equal steps over its interval k: sample
    interval k, or the whole grid when the samples come from DP5's
    continuous extension (`dense`, one interval).  `blocks` holds the basis
    states of each parity block the run carries."""

    times: np.ndarray
    method: str
    dense: bool
    steps: tuple
    blocks: list
    rhs_evals: int

    def summary(self) -> dict:
        """The plan's part of a run's diagnostics."""
        return {"method": self.method, "rhs_evals": self.rhs_evals,
                "blocks": [b.size for b in self.blocks]}


def _plan(H: TimeDependentHamiltonian, state: PureState | DensityMatrix,
          times: np.ndarray, cfg: IntegratorConfig | None = None,
          dissipators: Sequence[Dissipator] | None = None,
          reference: np.ndarray | None = None) -> RunPlan:
    """The plan of a Schrodinger run of a PureState, or with `dissipators` a
    Lindblad run of a DensityMatrix, under `cfg` as `IntegratorConfig` says;
    it raises every ValidationError a run can raise, before any generator,
    stepper or eigendecomposition is built."""
    if state.space != H.space:
        raise ValidationError("initial state and Hamiltonian spaces differ")
    if any(d.jump.space != H.space for d in dissipators or ()):
        raise ValidationError("dissipator and Hamiltonian spaces differ")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValidationError("time grid must contain at least two points")
    if not np.all(np.isfinite(times)):
        raise ValidationError("time grid must be finite")
    if np.any(times[1:] <= times[:-1]):
        raise ValidationError("time grid must be strictly increasing")
    if reference is not None and np.shape(reference) != (times.size, H.space.dim):
        raise ValidationError(f"reference: shape {np.shape(reference)}, expected "
                              f"one vector per time of the grid, {(times.size, H.space.dim)}")
    cfg = cfg or IntegratorConfig()
    method = cfg.method or ("spectral" if dissipators is None and not H.terms else "fixed_dp5")
    dense, steps, rhs_evals = False, (), 0
    if method == "spectral":
        static = np.asarray(H.static, dtype=complex)
        if np.max(np.abs(static - static.conj().T)) > HERMITIAN_RTOL * np.max(np.abs(static)):
            raise ValidationError("spectral propagation needs a Hermitian static Hamiltonian")
    else:
        tableau = TABLEAUS[method]
        dt = cfg.dt or tableau.step * H.descriptor.get("suggested_dt", math.inf)
        if not math.isfinite(dt):
            raise ValidationError("integrator.dt_ns: required, as H suggests no step")
        span = float(times[-1]) - float(times[0])
        if not span / dt <= MAX_RHS_EVALS:     # each step evaluates at least once; refuses inf
            raise ValidationError(f"grid: {span / dt:.6g} steps of {dt:.6g}, more than "
                                  f"the {MAX_RHS_EVALS:,} evaluations a run may take")
        dense = tableau.p is not None and dt > np.max(np.diff(times))
        steps = tuple(max(1, math.ceil(d / dt)) for d in ([span] if dense else np.diff(times)))
        rhs_evals = sum(steps) * (len(tableau.b) - 1) + len(steps)
        if rhs_evals > MAX_RHS_EVALS:
            raise ValidationError(f"grid: {rhs_evals:,} evaluations, more than {MAX_RHS_EVALS:,}")
    blocks = _parity_blocks(H, [d for d in dissipators or () if d.rate != 0.0],
                            state.amplitudes if dissipators is None else state.matrix)
    return RunPlan(times, method, dense, steps, blocks, rhs_evals)


def _check_finite(value: float, t: float, what: str):
    """Abort the run when `value`, a scalar that every entry of the state at
    time t reaches, is NaN or inf."""
    if not math.isfinite(value):
        raise NumericsError(f"{what} is not finite at t = {t:.6g}",
                            diagnostics={"time": float(t)})


# ---------------------------------------------------------------------------
# Schrodinger propagation
# ---------------------------------------------------------------------------

def evolve_schrodinger(H: TimeDependentHamiltonian, psi0: PureState,
                       times: np.ndarray, cfg: IntegratorConfig | None = None,
                       reference: np.ndarray | None = None) -> Trajectory:
    """Propagate |psi> under H; norm is a monitored quality metric, not
    enforced, and a sample holding NaN or inf aborts.

    The run keeps its normalized states, one (T, d) array.  When H keeps the
    parity sector that holds psi0, the run carries that sector alone and the
    states are exactly 0 outside it.  With no method named, a static H
    (no coupling terms) is propagated exactly by one eigendecomposition and
    must be Hermitian.  Given `reference`, one vector per time of the grid,
    the run also records `fidelity`, |<ref|psi>|^2.
    """
    return _schrodinger(H, psi0, _plan(H, psi0, times, cfg, reference=reference), reference)


def _schrodinger(H: TimeDependentHamiltonian, psi0: PureState, plan: RunPlan,
                 reference: np.ndarray | None = None) -> Trajectory:
    """The run of `evolve_schrodinger`, carrying out `plan`, which `_plan`
    made for it."""
    times, [order] = plan.times, plan.blocks
    raw = np.empty((len(times), order.size), complex)     # the sector's samples

    def record(i, psi):
        raw[i] = psi
        _check_finite(np.vdot(psi, psi).real, times[i], "state vector")

    psi0_sector = psi0.amplitudes[order]
    if plan.method == "spectral":
        # psi(t) = V exp(-i lam (t - t0)) V+ psi0, H = V diag(lam) V+ in the sector
        lam, V = np.linalg.eigh(np.asarray(H.static, dtype=complex)[np.ix_(order, order)])
        c0 = V.conj().T @ psi0_sector
        np.matmul(np.exp(-1j * lam * (times - times[0])[:, None]) * c0, V.T, out=raw)
    else:
        generator = _Generator(H, order=order)
        _propagate(generator, _vector_stage(generator, order.shape), psi0_sector, plan, record)
    pop = raw.real ** 2 + raw.imag ** 2
    norm2 = pop.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(norm2))   # a stepped run has stopped at its first
    if bad.size:
        _check_finite(norm2[bad[0]], times[bad[0]], "state vector")
    norms = np.sqrt(norm2)
    obs = _ObservableSet(H.space, len(times), order)
    obs.from_vectors(pop, norm2)
    states = np.zeros((len(times), H.space.dim), complex)
    states[:, order] = raw / norms[:, None]
    if reference is not None:
        obs.series["fidelity"] = fidelity(reference, states)
    return Trajectory(times=times, observables=obs.series, states=states,
                      diagnostics={"norm_drift": float(np.max(np.abs(norms - 1.0))),
                                   **obs.cutoff_report(times), **plan.summary()})


# ---------------------------------------------------------------------------
# Lindblad propagation
# ---------------------------------------------------------------------------

def _lindblad(H: TimeDependentHamiltonian, dissipators: Sequence[Dissipator],
              blocks: list[np.ndarray]):
    """(generator, stage, jump_data, layout) of a Lindblad run, two sparse
    products per stage, for `_propagate`.

    rho is carried as the (S, N, N) stack of its diagonal `blocks`, the
    parity sectors (S = 2) or the one (1, d, d) block when the run does not
    keep rho block diagonal.  `layout[s, i, j]` is the index in the row-major
    vec(rho) of entry (i, j) of block s.  K = -i H - sum_j (r_j/2) L_j+ L_j is
    built in sector order, so K is block diagonal and one CSR product on the
    (d, N) stack gives every K_s rho_s.  Every channel enters one CSR
    superoperator J on vec(rho), restricted to the entries in `layout`: a jump
    maps each sector into one sector, so a block-diagonal rho has a
    block-diagonal image.
    """
    dim = H.space.dim
    damping = sum((0.5 * d.rate * (d.jump.matrix.conj().T @ d.jump.matrix)
                   for d in dissipators), np.zeros((dim, dim)))
    generator = _Generator(H, damping, np.concatenate(blocks))
    sectors = np.array(blocks)
    layout = sectors[:, :, None] * dim + sectors[:, None, :]
    jumps = _jump_superoperator(dissipators, layout.reshape(-1), dim)
    return generator, _block_stage(generator, jumps, layout.shape), jumps.data, layout


def _jump_superoperator(dissipators: Sequence[Dissipator], live: np.ndarray, dim: int):
    """J / 2 = sum_j (r_j / 2) L_j (x) conj(L_j) on the row-major vec(rho),
    restricted to the entries `live`, as one CSR matrix: bit for bit what
    scipy's `kron`, `+` and `[live][:, live]` give, with no d^2 x d^2 operand.
    Entry (r1 d + r2, c1 d + c2) of L (x) conj(L) is L[r1, c1] conj(L[r2, c2]),
    so each channel's live entries are products over pairs of its nonzeros,
    rounded as `kron` rounds them; the channels are summed by scipy's `+`."""
    from scipy import sparse
    where = np.full(dim * dim, -1)          # index in `live` of each entry of vec(rho)
    where[live] = np.arange(live.size)
    jumps = sparse.csr_array((live.size, dim * dim), dtype=complex)
    for d in dissipators:
        rows, cols = np.nonzero(d.jump.matrix)
        v, k = d.jump.matrix[rows, cols], rows.size
        row, col = where[rows[:, None] * dim + rows], cols[:, None] * dim + cols
        kept = (row >= 0) & (where[col] >= 0)
        products = (v.repeat(k).reshape(k, k) * v.conj())[kept] * (0.5 * d.rate)
        jumps = jumps + sparse.csr_array((products, (row[kept], col[kept])), shape=jumps.shape)
    return sparse.csr_array((jumps.data, where[jumps.indices].astype(np.int32),
                             jumps.indptr.astype(np.int32)), shape=(live.size, live.size))


def _parity_blocks(H: TimeDependentHamiltonian, dissipators: Sequence[Dissipator],
                   state: np.ndarray) -> list[np.ndarray]:
    """Index sets of the parity sectors that hold the state, a vector psi0 or
    a matrix rho0, for the whole run.

    Each basis state is labelled by (n + number of excited qubits) mod 2.
    The flow keeps the labels when K = -i H - sum_j (r_j/2) L_j+ L_j (static
    part, every term and every L_j+ L_j) has no entry between them and every
    jump maps each label into a single label.  A psi0 within one label then
    stays in its sector, the one block the run carries.  A rho0 with no entry
    between the labels stays block diagonal in the two sectors, which
    `_lindblad` propagates as two N x N blocks and whose spectrum is that of
    the blocks.  Any other run is one block, the whole space, and so is a rho0
    whose sectors differ in size (no qubit and an odd cutoff), since the
    blocks of the stack share one shape.
    """
    space = H.space
    label = sum(basis_labels(space)) % 2

    def within(rows, cols):
        return np.array_equal(label[rows], label[cols])

    def into_one(jump):
        rows, cols = np.nonzero(jump)
        return all(np.unique(label[rows[label[cols] == s]]).size <= 1 for s in (0, 1))

    entries = [np.nonzero(H.static), *(np.nonzero(m) for m in H.terms),
               *(np.nonzero(d.jump.matrix.conj().T @ d.jump.matrix) for d in dissipators)]
    keeps = (all(within(*e) for e in entries)
             and all(into_one(d.jump.matrix) for d in dissipators))
    if keeps and state.ndim == 1:
        held = np.unique(label[np.flatnonzero(state)])
        if held.size == 1:
            return [np.flatnonzero(label == held[0])]
    elif keeps and 2 * np.count_nonzero(label) == space.dim and within(*np.nonzero(state)):
        return [np.flatnonzero(label == s) for s in (0, 1)]
    return [np.arange(space.dim)]


def _above(blocks: np.ndarray, m: float) -> list[bool]:
    """Per block: does Cholesky factor block - (m + CHOLESKY_MARGIN) I, so
    that each eigenvalue `eigvalsh` finds for it lies above m?  A non-finite
    entry need not make it fail.  `np.linalg.cholesky`'s gufunc (numpy's
    private `_umath_linalg`) writes NaN over each factor that fails."""
    shifted = blocks.copy()
    # every (N + 1)-th entry of a C-ordered N x N block is on its diagonal
    shifted.reshape(len(blocks), -1)[:, ::blocks.shape[-1] + 1] -= m + CHOLESKY_MARGIN
    with np.errstate(invalid="ignore"):
        factor = np.linalg._umath_linalg.cholesky_lo(shifted, signature="D->D")
    return (~np.isnan(factor[:, 0, 0])).tolist()


def evolve_master(H: TimeDependentHamiltonian, dissipators: Sequence[Dissipator],
                  rho0: DensityMatrix, times: np.ndarray,
                  cfg: IntegratorConfig | None = None,
                  store_states: bool = False,
                  reference: np.ndarray | None = None) -> Trajectory:
    """Propagate rho under H plus Lindblad loss channels; abort when an
    eigenvalue of rho falls below POSITIVITY_FLOOR, its trace leaves 1 by
    more than TRACE_TOL or a sample holds NaN or inf.

    The (T, d, d) stack of rho at the times of the grid is kept only with
    `store_states`.  Given `reference`, one vector per time, the run records
    `fidelity`, <ref|rho|ref>, as it goes: the sum over the blocks it
    carries of <ref_s|rho_s|ref_s>.
    """
    return _master(H, dissipators, rho0, _plan(H, rho0, times, cfg, dissipators, reference),
                   store_states, reference)


def _master(H: TimeDependentHamiltonian, dissipators: Sequence[Dissipator],
            rho0: DensityMatrix, plan: RunPlan, store_states: bool = False,
            reference: np.ndarray | None = None) -> Trajectory:
    """The run of `evolve_master`, carrying out `plan`, which `_plan` made
    for it."""
    times = plan.times
    generator, stage, jump_data, layout = _lindblad(H, dissipators, plan.blocks)
    rows = np.array(plan.blocks)                # basis state of each row, (S, N)
    obs = _ObservableSet(H.space, len(times), rows.reshape(-1))
    if reference is not None:
        obs.series["fidelity"] = np.empty(len(times))
    states = np.zeros((len(times), *rho0.matrix.shape), complex) if store_states else None
    trace_drift = 0.0
    min_eig, min_eig_time = math.inf, None

    def record(i, rho):
        nonlocal trace_drift, min_eig, min_eig_time
        obs.from_blocks(i, rho)
        # the purity sums |rho_ij|^2 over every entry, so a NaN or inf reaches it
        _check_finite(obs.purity[i], times[i], "density matrix")
        # eigvalsh takes every block at the first sample, then those the gate fails
        passed = [False] * len(rho) if min_eig == math.inf else _above(rho, min_eig)
        if not all(passed):
            lo = float(np.min(np.linalg.eigvalsh(rho[np.logical_not(passed)])[:, 0]))
            if lo < min_eig:
                min_eig, min_eig_time = lo, float(times[i])
            if lo < POSITIVITY_FLOOR:
                raise NumericsError(
                    f"density matrix lost positivity at t = {times[i]:.6g}",
                    diagnostics={"time": float(times[i]), "min_eigenvalue": lo,
                                 "positivity_floor": POSITIVITY_FLOOR})
        trace = float(obs.series["trace"][i])
        if abs(trace - 1.0) > TRACE_TOL:
            raise NumericsError(
                f"density matrix trace drifted to {trace:.9g} at t = {times[i]:.6g}",
                diagnostics={"time": float(times[i]), "trace": trace,
                             "trace_tol": TRACE_TOL})
        trace_drift = max(trace_drift, abs(trace - 1.0))
        if reference is not None:
            obs.series["fidelity"][i] = fidelity(reference[i][rows], rho).sum()
        if states is not None:
            states[i].reshape(-1)[layout] = rho

    _propagate(generator, stage, rho0.matrix.reshape(-1)[layout], plan, record, jump_data)
    return Trajectory(times=times, observables=obs.series, states=states,
                      diagnostics={"trace_drift": trace_drift, "min_eigenvalue": min_eig,
                                   "min_eigenvalue_time": min_eig_time,
                                   **obs.cutoff_report(times), **plan.summary()})


# ---------------------------------------------------------------------------
# scalar diagnostics
# ---------------------------------------------------------------------------

def fidelity(psi: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Overlap of each vector in `psi`, shape (..., d), with `state`.

    A `state` of the same ndim holds vectors u and gives |<psi|u>|^2; one of
    ndim + 1 holds density matrices rho and gives |<psi|rho|psi>|, so a
    (T, d) stack with T == d is not ambiguous.  Other shapes are rejected.
    """
    psi, state = np.asarray(psi), np.asarray(state)
    bra = psi.conj()[..., None, :]
    if state.shape == psi.shape:
        return np.abs(bra @ state[..., None])[..., 0, 0] ** 2
    if state.shape == psi.shape + psi.shape[-1:]:
        return np.abs(bra @ (state @ psi[..., None]))[..., 0, 0]
    raise ValidationError(f"fidelity: state shape {state.shape} does not match "
                          f"vectors of shape {psi.shape}")


@dataclass(frozen=True)
class PeriodEstimate:
    period: float
    spread: float
    peak_times: tuple


def extract_period(times: np.ndarray, series: np.ndarray) -> PeriodEstimate:
    """Oscillation period from the mean spacing of interpolated maxima.

    Maxima are selected by prominence (at least MIN_PROMINENCE of the full
    range), which keeps sideband micromotion ripples riding on a slow
    oscillation from being counted as cycles, then refined with a
    three-point parabola.  The spread of the gaps is the uncertainty.
    """
    from scipy.signal import find_peaks

    t = np.asarray(times, dtype=float)
    s = np.asarray(series, dtype=float)
    if t.shape != s.shape or t.size < 5:
        raise ValidationError("need matching series with at least 5 samples")
    lo, hi = float(s.min()), float(s.max())
    if hi - lo <= 0:
        raise ValidationError("no oscillation detected: series is constant")
    idx, _ = find_peaks(s, prominence=MIN_PROMINENCE * (hi - lo))
    peaks = []
    for i in idx:
        if i == 0 or i == len(s) - 1:
            continue
        denom = s[i - 1] - 2.0 * s[i] + s[i + 1]
        shift = 0.0 if denom == 0 else 0.5 * (s[i - 1] - s[i + 1]) / denom
        peaks.append(t[i] + shift * (t[i] - t[i - 1]))
    if len(peaks) < 2:
        raise ValidationError("no oscillation detected: fewer than 2 interior maxima")
    gaps = np.diff(peaks)
    return PeriodEstimate(period=float(np.mean(gaps)),
                          spread=float(np.max(gaps) - np.min(gaps)) if len(gaps) > 1 else 0.0,
                          peak_times=tuple(float(p) for p in peaks))


def dissipator_frame_defect(u_diag: np.ndarray, jump: np.ndarray,
                            rate: float = 1.0) -> float:
    """Max entrywise difference between the superoperators of L and U+ L U.

    U = diag(u_diag).  Builds both dim^2 x dim^2 superoperators explicitly
    (row-major vec), so keep the dimension small.  A diagonal frame leaves the
    loss channels of this model invariant; this measures the defect directly.
    """
    L = np.asarray(jump, dtype=complex)
    Lp = (u_diag.conj()[:, None] * L) * u_diag[None, :]

    def superop(M):
        MdM = M.conj().T @ M
        eye = np.eye(M.shape[0])
        return 0.5 * rate * (2.0 * np.kron(M, M.conj())
                             - np.kron(MdM, eye) - np.kron(eye, MdM.T))

    return float(np.max(np.abs(superop(Lp) - superop(L))))
