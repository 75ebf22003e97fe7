"""Property tests: the Lindblad right-hand side on random channels, the
per-parity-block positivity check and the Cholesky test that skips it, and
scenario parsing on mutated packaged documents."""

import copy
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from modrabi.dynamics import (CHOLESKY_MARGIN, Dissipator, IntegratorConfig, _above,
                              _lindblad, _parity_blocks, evolve_master)
from modrabi.errors import ValidationError
from modrabi.hamiltonians import TimeDependentHamiltonian, effective_hamiltonian
from modrabi.hilbert import DensityMatrix, HilbertSpace, Operator, annihilation, qubit_operator
from modrabi.modulation import EffectiveParams
from modrabi.scenarios import (load_scenario_document, packaged_scenarios,
                               parse_scenario)
from oracles import number_operator


def _rhs(flow, t, y, out):
    """out = f(t, y), for a zeroed out: one stage of the run's (generator,
    stage, jump_data) with step 1."""
    generator, stage, jump_data = flow
    stage(generator.data(np.array([t]))[0], jump_data, y, out)


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _jump(rng, space, kind):
    if kind == "sm":
        return qubit_operator(space, int(rng.integers(space.n_qubits)), "sm").matrix
    if kind == "a":
        return annihilation(space).matrix
    mat = _random_complex(rng, (space.dim, space.dim))
    if kind == "sparse":
        mat *= rng.random((space.dim, space.dim)) < 0.15
    return mat


MIXING_JUMPS = ("sz+a", "kick")


def _parity_jump(space, kind):
    """A jump that maps each parity label into one label, or (MIXING_JUMPS) not.

    'kick' = (|g..g,0> + |e g..g,0>)<g..g,0| mixes the labels while its L+L
    does not, so only the check on the jump itself can see it.
    """
    if kind == "kick":
        ground = space.index("g" * space.n_qubits, 0)
        kick = np.zeros((space.dim, space.dim), dtype=complex)
        kick[[ground, space.index("e" + "g" * (space.n_qubits - 1), 0)], ground] = 1.0
        return kick
    a = annihilation(space).matrix
    return {"sm": lambda: qubit_operator(space, space.n_qubits - 1, "sm").matrix,
            "a": lambda: a, "sz": lambda: qubit_operator(space, 0, "sz").matrix,
            "n": lambda: number_operator(space).matrix,
            "sz+a": lambda: qubit_operator(space, 0, "sz").matrix + a}[kind]()


@settings(max_examples=30)
@given(n_qubits=st.integers(1, 2), fock=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["sm", "a", "sz", "n", *MIXING_JUMPS]), max_size=3),
       parity_start=st.booleans(),
       method=st.sampled_from(["fixed_rk4", "fixed_dp5"]))
def test_block_positivity_matches_full_spectrum(n_qubits, fock, seed, kinds, parity_start,
                                                method):
    rng = np.random.default_rng(seed)
    space = HilbertSpace(n_qubits, fock)
    g_r, g_cr, omega, eps = rng.uniform(-1.0, 1.0, size=4)
    H = effective_hamiltonian(EffectiveParams(g_r=g_r, g_cr=g_cr, omega_eff=omega,
                                              epsilon_eff=eps, theta=0.0, anisotropy=0.0,
                                              phi1=rng.uniform(0, 6), phi2=rng.uniform(0, 6)),
                              space)
    channels = [Dissipator(Operator(space, _parity_jump(space, kind)), rng.uniform(0.1, 1.0))
                for kind in kinds]
    v = _random_complex(rng, (space.dim, space.dim))
    rho = v @ v.conj().T
    qubits, n = np.divmod(np.arange(space.dim), space.fock_cutoff)
    label = (n + np.array([int(q).bit_count() for q in qubits])) % 2
    if parity_start:                 # keep the parity-diagonal part, still positive
        rho = rho * (label[:, None] == label[None, :])
    rho0 = DensityMatrix(space, rho / np.trace(rho).real)

    blocks = _parity_blocks(H, channels, rho0.matrix)
    assert len(blocks) == (2 if parity_start and not set(MIXING_JUMPS) & set(kinds) else 1)
    traj = evolve_master(H, channels, rho0, np.linspace(0.0, 1.0, 5),
                         IntegratorConfig(method=method, dt=0.02), store_states=True)
    full = min(float(np.linalg.eigvalsh(state)[0]) for state in traj.states)
    assert abs(traj.diagnostics["min_eigenvalue"] - full) <= 1e-14


@settings(max_examples=100)
@given(n_qubits=st.integers(0, 2), fock=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["sm", "a", "sz", "n", *MIXING_JUMPS]), max_size=3))
def test_sector_rhs_matches_dense_formula(n_qubits, fock, seed, kinds):
    """On a parity-diagonal rho under a parity-keeping H, the right-hand side
    in the sector layout is the dense Lindblad formula on the blocks, which
    hold all of it; a label-mixing channel, or no qubit with an odd cutoff,
    leaves one block that holds all of rho."""
    rng = np.random.default_rng(seed)
    space = HilbertSpace(n_qubits, fock)
    kinds = [kind for kind in kinds if n_qubits or kind in ("a", "n")]
    qubits, n = np.divmod(np.arange(space.dim), space.fock_cutoff)
    label = (n + np.array([int(q).bit_count() for q in qubits])) % 2
    same = label[:, None] == label[None, :]
    h = _random_complex(rng, (space.dim, space.dim)) * same
    coupling = _random_complex(rng, (space.dim, space.dim)) * same
    rate = rng.uniform(0.5, 2.0)
    H = TimeDependentHamiltonian(
        space=space, static=h + h.conj().T,
        terms=(sparse.csr_array(coupling), sparse.csr_array(coupling.conj().T)),
        coefficients=lambda t: np.exp(1j * rate * np.outer(t, [1.0, -1.0])))
    jumps = [(_parity_jump(space, kind), rng.uniform(0.1, 1.0)) for kind in kinds]
    v = _random_complex(rng, (space.dim, space.dim))
    rho = v @ v.conj().T * same
    rho /= np.trace(rho).real

    dissipators = [Dissipator(Operator(space, L), r) for L, r in jumps]
    *flow, layout = _lindblad(H, dissipators, _parity_blocks(H, dissipators, rho))
    mixing = set(MIXING_JUMPS) & set(kinds) or (n_qubits == 0 and fock % 2)
    assert len(layout) == (1 if mixing else 2)
    t = rng.uniform(0.0, 5.0)
    hm = H.evaluate(t)
    expected = -1j * (hm @ rho - rho @ hm)
    for L, r in jumps:
        LdL = L.conj().T @ L
        expected += r * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    out = np.zeros(layout.shape, dtype=complex)
    _rhs(flow, t, rho.reshape(-1)[layout], out)
    scale = np.max(np.abs(hm @ rho)) + np.max(np.abs(expected))    # > 0 when expected is 0
    assert np.max(np.abs(out - expected.reshape(-1)[layout])) <= 1e-12 * scale
    assert np.array_equal(out, out.conj().transpose(0, 2, 1))
    outside = np.delete(expected.reshape(-1), layout.reshape(-1))
    assert np.max(np.abs(outside), initial=0.0) <= 1e-12 * scale


@settings(max_examples=100)
@given(n_qubits=st.integers(1, 2), fock=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       channels=st.lists(st.tuples(st.sampled_from(["sm", "a", "sparse", "dense"]),
                                   st.floats(0.0, 2.0)), min_size=1, max_size=4))
def test_lindblad_rhs_matches_dense_formula_on_random_channels(n_qubits, fock, seed, channels):
    rng = np.random.default_rng(seed)
    space = HilbertSpace(n_qubits, fock)
    h = _random_complex(rng, (space.dim, space.dim))
    H = TimeDependentHamiltonian(space=space, static=h + h.conj().T)
    jumps = [(_jump(rng, space, kind), rate) for kind, rate in channels]
    v = _random_complex(rng, (space.dim, space.dim))
    rho = v @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real      # exactly Hermitian
    dissipators = [Dissipator(Operator(space, L), r) for L, r in jumps]
    *flow, layout = _lindblad(H, dissipators, _parity_blocks(H, dissipators, rho))
    assert layout.shape == (1, space.dim, space.dim)       # rho mixes the sectors

    hm = H.static
    expected = -1j * (hm @ rho - rho @ hm)
    for L, r in jumps:
        LdL = L.conj().T @ L
        expected += r * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    out = np.zeros_like(rho)
    _rhs(flow, 0.0, rho[None], out[None])
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.array_equal(out, out.conj().T)
    assert abs(np.trace(out)) <= 1e-12 * np.sum(np.abs(out))


def _unitary(rng, n):
    q, r = np.linalg.qr(_random_complex(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=300)
@given(n=st.integers(2, 16), ranks=st.tuples(st.integers(1, 3), st.integers(0, 3)),
       seed=st.integers(0, 2**32 - 1), m=st.floats(-1e-13, 0.0),
       shifts=st.tuples(*2 * [st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 10.0])]),
       spread=st.sampled_from([0.0, 1e-16, 1e-14, 1e-13, 1e-12]))
@example(n=4, ranks=(1, 1), seed=0, m=0.0, shifts=(-1.0, 10.0), spread=0.0)
def test_cholesky_gate_never_hides_a_new_minimum(n, ranks, seed, m, shifts, spread):
    """Near-pure and rank-deficient (2, N, N) stacks whose small eigenvalues
    cluster within `spread` of m + shift * CHOLESKY_MARGIN, one shift per
    block, so that in some stacks one block fails and the other passes, m a
    roundoff-size least eigenvalue so far: each block the gate lets through
    has its least eigenvalue above m, and a block clearly above m gets
    through.  The verdict is the gufunc's: a block that `np.linalg.cholesky`
    factors is reported passing, and one it refuses comes back all NaN."""
    rng = np.random.default_rng(seed)
    ranks = [min(rank, n) for rank in ranks]
    large = rng.dirichlet(np.ones(sum(ranks)))
    blocks, least = [], []
    for rank, weights, shift in zip(ranks, np.split(large, [ranks[0]]), shifts):
        small = m + shift * CHOLESKY_MARGIN + spread * rng.uniform(-1.0, 1.0, n - rank)
        lam = np.concatenate([weights, small])
        least.append(lam.min())
        u = _unitary(rng, n)
        rho = (u * lam) @ u.conj().T
        blocks.append(0.5 * (rho + rho.conj().T))
    blocks = np.array(blocks)
    verdict = _above(blocks, m)
    assert len(verdict) == 2 and all(isinstance(passed, bool) for passed in verdict)
    for block, passed, low in zip(blocks, verdict, least):
        if passed:
            assert np.linalg.eigvalsh(block).min() > m
        if low >= m + 5 * CHOLESKY_MARGIN:
            assert passed
    shifted = blocks - (m + CHOLESKY_MARGIN) * np.eye(n)     # as `_above` shifts them
    with np.errstate(invalid="ignore"):
        factor = np.linalg._umath_linalg.cholesky_lo(shifted, signature="D->D")
    for block, passed, lower in zip(shifted, verdict, factor):
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            assert not passed and np.all(np.isnan(lower))
        else:
            assert passed and np.all(np.isfinite(lower))


def _documents():
    docs = [load_scenario_document(name)[0] for name in packaged_scenarios()]
    designed = copy.deepcopy(docs[0])
    designed["drive"] = {"design": {"anisotropy": 1.0, "g_r_over_omega_eff": 1.2,
                                    "delta1_mhz": 0.0}}
    return docs + [designed]


DOCUMENTS = _documents()
# optional fields the packaged documents leave out, beside every field they hold
EXTRA_PATHS = {("integrator", "method"), ("integrator", "dt_ns"), ("drive", "phi1"),
               ("drive", "amp2_khz"), ("drive", "design"), ("highlight",), ("outputs",),
               ("fock_cutoff",)}


def _paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


EXTRA_PATHS |= {path[:k] for path in EXTRA_PATHS for k in range(1, len(path))}
SITES = [(i, path) for i, doc in enumerate(DOCUMENTS)
         for path in sorted(set(_paths(doc)) | EXTRA_PATHS)]
DELETE = object()
VALUES = st.one_of(
    st.sampled_from([DELETE, None, True, "x", "", "inf", "nan", "-1", [], {}, ["x"], -1, 0,
                     1e308, float("nan"), float("inf"), 10**400, -10**400, "vac_e", "both",
                     "fixed_rk4"]),
    st.integers(-10**6, 10**6), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.sampled_from(["sigma_pop", "fidelity", "x", 3]), max_size=3),
    st.dictionaries(st.sampled_from(["anisotropy", "g_r_over_omega_eff", "delta1_mhz",
                                     "param", "value", "method"]),
                    st.one_of(st.floats(allow_nan=True), st.text(max_size=3)), max_size=3))


@settings(max_examples=600)
@given(site=st.sampled_from(SITES), value=VALUES)
def test_parse_scenario_raises_only_validation_error(site, value):
    """One field of a packaged document set to a malformed value, or removed:
    the only error is a ValidationError that names a field path."""
    index, path = site
    doc = copy.deepcopy(DOCUMENTS[index])
    section = doc
    for key in path[:-1]:
        if not isinstance(section.get(key), dict):
            section[key] = {}
        section = section[key]
    if value is DELETE:
        section.pop(path[-1], None)
    else:
        section[path[-1]] = value
    try:
        parse_scenario(doc, name="fuzz")
    except ValidationError as err:
        assert re.match(r"[\w.]+: ", str(err)), f"no field path in {err}"


def test_null_is_refused_at_every_field_site():
    """No key takes JSON null: at every field site of the documents above it
    is refused, naming a field path, and never read as an absent key."""
    accepted = []
    for index, path in SITES:
        doc = copy.deepcopy(DOCUMENTS[index])
        section = doc
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = None
        try:
            parse_scenario(doc, name="null")
        except ValidationError as err:
            assert re.match(r"[\w.]+: ", str(err)), f"no field path in {err}"
        else:
            accepted.append((index, path))
    assert accepted == []
