import itertools
import tracemalloc

import numpy as np
import pytest

from quditgates import geometry
from quditgates.errors import (BadLength, NotDiagonal, NotTracePreserving, NotUnitary,
                               SymmetryViolation)
from quditgates.geometry import (
    KrausChannel,
    basis_expectations,
    choi_of_channel,
    choi_of_unitary,
    clifford_eigenphase,
    depolarized_choi,
    depolarized_state,
    depolarizing_gate_channel,
    edge_facet,
    edge_scan,
    edge_spectra_classes,
    facet_operator,
    gate_state,
    inject_gate,
    negativity,
    partial_trace,
    phase_damped_state,
    phase_damping_gate_channel,
    simulate_dilution,
    state_from_diagonal,
)
from quditgates.hierarchy import GateParams, gate_exponents, root_order
from quditgates.hull import ROBUST_GATE_PARAMS, threshold_depol_state
from quditgates.weylheis import mub_projectors, pauli_x, pauli_z

QUTRIT_SECOND_TYPE = sorted([
    (1 - 3 * np.sin(np.pi / 18) - np.sqrt(3) * np.cos(np.pi / 18)) / 9,
    (1 + 3 * np.sin(np.pi / 18) - np.sqrt(3) * np.cos(np.pi / 18)) / 9,
    (1 + 2 * np.sqrt(3) * np.cos(np.pi / 18)) / 9,
])


def test_state_from_diagonal():
    psi = state_from_diagonal(np.diag([1, 1j]))
    assert np.allclose(psi, [1 / np.sqrt(2), 1j / np.sqrt(2)])
    with pytest.raises(NotDiagonal):
        state_from_diagonal(np.ones((2, 2)))
    with pytest.raises(NotUnitary, match="unit modulus"):
        state_from_diagonal(np.diag([1.0, 0.5]))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_facet_operator_trace(p):
    u = tuple(range(p + 1))
    a = facet_operator(p, u)
    assert abs(np.trace(a) - 1.0 / p) < 1e-12
    e = edge_facet(p, tuple(range(p)))
    assert abs(np.trace(e) - 1.0 / p) < 1e-12
    with pytest.raises(BadLength):
        facet_operator(p, (0,) * p)
    with pytest.raises(BadLength):
        edge_facet(p, (0,) * (p + 1))


@pytest.mark.parametrize("u", [(0.5, 1, 2, 0), ("1", 1, 2, 0)], ids=["half", "string"])
def test_facet_operator_refuses_non_integer_indices(u):
    """An index is read as ``GateParams`` reads its residues: 0.5 is not
    taken as 0, nor the string "1" as 1."""
    with pytest.raises(ValueError, match="u must hold integer indices"):
        facet_operator(3, u)
    assert np.array_equal(facet_operator(3, np.array([0, 1, 2, 0])), facet_operator(3, (0, 1, 2, 0)))


def test_edge_facet_is_z_average_qutrit():
    """A_edge(u) must equal the average of A(u0, u) over the Z index."""
    p = 3
    for u in itertools.product(range(p), repeat=p):
        avg = sum(facet_operator(p, (u0,) + u) for u0 in range(p)) / p
        assert np.max(np.abs(avg - edge_facet(p, u))) < 1e-13


@pytest.mark.parametrize("p", (2, 3, 5))
def test_edge_facet_equals_direct_sum(p):
    """The Z average of the full facets against the direct sum
    (1/p) (sum_j Pi_XZ^(j-1)[u_j] - (p-1)/p I), for every label."""
    projs = mub_projectors(p)
    for u in itertools.product(range(p), repeat=p):
        acc = -((p - 1) / p) * np.eye(p, dtype=complex)
        for j, k in enumerate(u):
            acc = acc + projs[j + 1, k]
        assert np.max(np.abs(acc / p - edge_facet(p, u))) <= 1e-15


def negativity_exhaustive(p, psi):
    """Oracle: the least expectation of every one of the p^(p+1) facet
    operators, scanned one by one."""
    rho = np.outer(psi, psi.conj())
    best = min(np.trace(facet_operator(p, u) @ rho).real
               for u in itertools.product(range(p), repeat=p + 1))
    return max(0.0, -best)


@pytest.mark.parametrize("p", (2, 3))
def test_negativity_against_exhaustive_oracle(p):
    rng = np.random.default_rng(p * 11)
    states = [gate_state(p, ROBUST_GATE_PARAMS[p])]
    for _ in range(10):
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        states.append(v / np.linalg.norm(v))
    for psi in states:
        fast = negativity(p, psi).value
        slow = negativity_exhaustive(p, psi)
        assert abs(fast - slow) < 1e-12


def test_negativity_canonical_values():
    assert abs(negativity(2, gate_state(2, GateParams(0, 1, 0))).value
               - (np.sqrt(2) - 1) / 4) < 1e-12
    n3 = negativity(3, gate_state(3, GateParams(1, 2, 0))).value
    assert abs(n3 - (-QUTRIT_SECOND_TYPE[0])) < 1e-12
    assert abs(negativity(5, gate_state(5, GateParams(1, 4, 0))).value - 0.16) < 1e-10


def test_negativity_stabilizer_state_inside():
    plus = np.full(3, 3 ** -0.5)
    res = negativity(3, plus)
    assert res.inside and res.value == 0.0


NOT_QUTRIT_STATES = [
    (np.array([1, np.exp(2j), np.exp(1j)]), "norm 1"),
    (np.array([1, 0, 0, 0]), r"shape \(3,\)"),
    (np.array([np.nan, 0, 0]), "norm 1"),
    (np.eye(3), "unit trace"),
    (np.eye(2) / 2, r"3 x 3, got shape \(2, 2\)"),
    (np.array([[0.5, 0.5j, 0], [0.5j, 0.5, 0], [0, 0, 0]]), "Hermitian"),
    (np.full((3, 3, 3), 1 / 3), r"3 x 3, got shape \(3, 3, 3\)"),
    (np.array(1.0), r"3 x 3, got shape \(\)"),
]


@pytest.mark.parametrize("state, defect", NOT_QUTRIT_STATES)
def test_negativity_rejects_what_is_not_a_state(state, defect):
    """A ket must be a unit (p,) vector and a density matrix a Hermitian
    p x p matrix of unit trace; negativity and the closed-form threshold
    read basis_expectations, which refuses anything else."""
    with pytest.raises(ValueError, match=defect):
        basis_expectations(3, state)
    with pytest.raises(ValueError, match=defect):
        negativity(3, state)
    with pytest.raises(ValueError, match=defect):
        threshold_depol_state(3, state)


@pytest.mark.parametrize("state, defect", NOT_QUTRIT_STATES)
def test_noisy_state_builders_reject_what_is_not_a_state(state, defect):
    """Both builders refuse what basis_expectations refuses: unchecked, the
    unnormalised ket [1, e^{2i}, e^{i}] gives a matrix of trace 2.0
    (depolarised) or 1.5 (phase-damped)."""
    with pytest.raises(ValueError, match=defect):
        depolarized_state(3, state, 0.5)
    with pytest.raises(ValueError, match=defect):
        phase_damped_state(3, state, 0.5)


@pytest.mark.parametrize("builder", (depolarized_state, phase_damped_state))
def test_noisy_state_builders_take_a_ket_or_its_density_matrix(builder):
    psi = gate_state(5, ROBUST_GATE_PARAMS[5])
    rho = builder(5, psi, 0.3)
    assert np.array_equal(builder(5, np.outer(psi, psi.conj()), 0.3), rho)
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_basis_expectations_pure_vs_density():
    rng = np.random.default_rng(2)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    v /= np.linalg.norm(v)
    q1 = basis_expectations(5, v)
    q2 = basis_expectations(5, np.outer(v, v.conj()))
    assert np.max(np.abs(q1 - q2)) < 1e-12
    assert np.max(np.abs(q1.sum(axis=1) - 1.0)) < 1e-12


def test_edge_spectra_qutrit_classes():
    classes = edge_spectra_classes(3, decimals=9)
    assert sum(classes.values()) == 27
    first = tuple(np.round([-2 / 9, 1 / 9, 4 / 9], 9))
    second = tuple(np.round(QUTRIT_SECOND_TYPE, 9))
    assert classes[first] == 9
    assert classes[second] == 18
    # the corrected second-type spectrum keeps the trace at 1/p
    assert abs(sum(QUTRIT_SECOND_TYPE) - 1 / 3) < 1e-12


def test_edge_spectra_p5_distinguished_count():
    classes = edge_spectra_classes(5, decimals=5)
    assert sum(classes.values()) == 5 ** 5
    target = np.array([-0.16, -0.08361, 0.04, 0.04, 0.36361])
    hits = sum(v for k, v in classes.items()
               if np.max(np.abs(np.array(k) - target)) < 2e-5)
    assert hits == 100


def test_edge_scan_p3_matches_classes():
    scan = edge_scan(3, target=float(QUTRIT_SECOND_TYPE[0]), window=1e-9)
    assert scan.n_edges == 27
    assert abs(scan.min_eigenvalue + 2 / 9) < 1e-12
    assert scan.window_count == 18
    assert scan.window_flat_count == 18


def test_edge_spectra_p7_classes():
    for decimals in (9, 6, 5):
        classes = edge_spectra_classes(7, decimals=decimals)
        assert len(classes) == 244
        assert sum(classes.values()) == 7 ** 7
        lowest = min(k[0] for k in classes)
        assert abs(lowest + 6 / 49) <= 0.5 * 10.0 ** -decimals



# ---------------------------------------------------------------------------
# exhaustive oracle for the Pauli-orbit edge scan


def _all_edge_operators(p):
    """Every A_edge(u), u in Z_p^p, built one label at a time."""
    return np.array([edge_facet(p, u) for u in itertools.product(range(p), repeat=p)])


def _exhaustive_scan(p, target, window=1e-4, flat_tol=1e-6):
    lam, vecs = np.linalg.eigh(_all_edge_operators(p))
    lam1 = lam[:, 0]
    mask = np.abs(lam1 - target) <= window
    lead = np.abs(vecs[mask, :, 0])
    flat = int(np.sum(np.max(np.abs(lead - p ** -0.5), axis=1) <= flat_tol))
    return float(lam1.min()), int(mask.sum()), flat


EDGE_MINIMA = {2: -(np.sqrt(2) - 1) / 4, 3: -2 / 9, 5: -4 / 25}


@pytest.mark.parametrize("p,target,window", [
    (2, EDGE_MINIMA[2], 1e-4),
    (3, EDGE_MINIMA[3], 1e-9),
    (3, float(QUTRIT_SECOND_TYPE[0]), 1e-4),
    (3, 0.0, 0.2),
    (5, EDGE_MINIMA[5], 1e-4),
    (5, -0.16, 1e-9),
    (5, -0.15, 0.002),
])
def test_edge_scan_matches_exhaustive_oracle(p, target, window):
    lo, count, flat = _exhaustive_scan(p, target, window)
    scan = edge_scan(p, target=target, window=window)
    assert scan.n_edges == p ** p
    assert abs(scan.min_eigenvalue - lo) < 1e-12
    assert count > 0
    assert (scan.window_count, scan.window_flat_count) == (count, flat)


@pytest.mark.parametrize("p", (3, 5))
def test_edge_spectra_classes_match_exhaustive_oracle(p):
    lam = np.linalg.eigvalsh(_all_edge_operators(p))
    for decimals in (9, 6, 5):
        want: dict = {}
        for row in lam:
            key = tuple(np.round(row, decimals))
            want[key] = want.get(key, 0) + 1
        assert edge_spectra_classes(p, decimals=decimals) == want


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_pauli_conjugation_shifts_edge_labels(p):
    projs = mub_projectors(p)[1:]
    tx, tz = geometry._pauli_index_shifts(p)
    assert tx == tuple(range(p)) and tz == (p - 1,) * p
    for d, t in ((pauli_x(p), tx), (pauli_z(p), tz)):
        for j in range(p):
            for k in range(p):
                conj = d @ projs[j, k] @ d.conj().T
                assert np.max(np.abs(conj - projs[j, (k + t[j]) % p])) < 1e-10


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_pauli_orbits_partition_edge_labels(p):
    tx, tz = (np.array(t) for t in geometry._pauli_index_shifts(p))
    tails = list(itertools.product(range(p), repeat=p - 2))
    reps = np.zeros((len(tails), p), dtype=np.int64)
    reps[:, 2:] = np.array(tails, dtype=np.int64).reshape(len(tails), p - 2)
    moves = np.array([a * tx + b * tz for a in range(p) for b in range(p)])
    orbits = (reps[:, None, :] + moves[None, :, :]) % p
    codes = orbits @ (p ** np.arange(p, dtype=np.int64))
    assert codes.shape == (p ** (p - 2), p * p)
    assert all(len(set(row)) == p * p for row in codes.tolist())
    assert np.array_equal(np.sort(codes, axis=None), np.arange(p ** p))


def test_orbit_representatives_are_the_zero_zero_labels():
    p = 5
    ops = geometry._edge_orbit_representatives(p, np.arange(p ** (p - 2)))
    for i, tail in enumerate(itertools.product(range(p), repeat=p - 2)):
        label = (0, 0) + tail[::-1]
        assert np.max(np.abs(ops[i] - edge_facet(p, label))) < 1e-13


@pytest.mark.parametrize("block", (None, 7))
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_blocked_edge_eigenvalues_equal_one_batch(monkeypatch, p, block):
    """Each representative is built by the same additions and diagonalised
    alone, so the blocked spectra equal one ``eigvalsh`` over all of them."""
    whole = np.linalg.eigvalsh(geometry._edge_orbit_representatives(p, np.arange(p ** (p - 2))))
    if block is not None:
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", block)
    geometry._edge_orbit_eigenvalues.cache_clear()
    try:
        assert np.array_equal(geometry._edge_orbit_eigenvalues(p), whole)
    finally:
        geometry._edge_orbit_eigenvalues.cache_clear()


def test_edge_scan_working_set_stays_small():
    """The p = 7 scan holds one block of 585 representatives at a time
    (2.07 MB traced); all 16,807 of them and their eigenvectors at once
    take 26.8 MB."""
    geometry._edge_orbit_eigenvalues.cache_clear()
    tracemalloc.start()
    try:
        edge_scan(7, target=-0.1202)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def _swap_two_projectors(projs):
    projs[3, [0, 1]] = projs[3, [1, 0]]


def _repeat_a_basis(projs):
    projs[1] = projs[2]


@pytest.mark.parametrize("corrupt", (_swap_two_projectors, _repeat_a_basis))
def test_corrupted_pauli_shift_raises(monkeypatch, corrupt):
    projs = np.array(mub_projectors(5))
    corrupt(projs)
    monkeypatch.setattr(geometry, "mub_projectors", lambda p: projs)
    with pytest.raises(SymmetryViolation):
        edge_scan(5, target=-0.16)
    with pytest.raises(SymmetryViolation):
        edge_spectra_classes(5)

@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_clifford_eigenphase_all_gates_small(p):
    gps = [GateParams(z, g, e) for z in range(p) for g in range(p)
           for e in range(p)]
    if p == 7:
        gps = gps[:49]
    r = root_order(p)
    for gp in gps:
        k, order, phase = clifford_eigenphase(p, gp)
        assert order == r
        assert abs(phase - np.exp(2j * np.pi * k / r)) < 1e-8


def test_eigenphase_known_values():
    # exponent -eps mod p for p > 3, and the mod 9 form at p = 3
    assert clifford_eigenphase(5, GateParams(1, 4, 2))[0] == 3
    assert clifford_eigenphase(7, GateParams(1, 2, 0))[0] == 0
    k3, r3, _ = clifford_eigenphase(3, GateParams(1, 2, 0))
    assert (r3, k3) == (9, (-2 * 2 - 3 * 0) % 9)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_injection(p):
    rng = np.random.default_rng(p * 3)
    g = ROBUST_GATE_PARAMS[p]
    u = gate_exponents(p, g).matrix()
    ket0 = np.eye(p, dtype=complex)[0]
    for _ in range(5):
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        v /= np.linalg.norm(v)
        res = inject_gate(p, g, v)
        assert abs(res.success_prob - 1.0 / p) < 1e-12
        want = np.kron(u @ v, ket0)
        fidelity = abs(np.vdot(want, res.state)) ** 2
        assert fidelity > 1 - 1e-12


def _inject_loops(p, g, psi_in):
    """The injection circuit as index loops: project onto span{|jj>}, then
    send |a, b> to |a, b - a mod p>."""
    joint = np.kron(gate_state(p, g), psi_in)
    projected = np.zeros_like(joint)
    for j in range(p):
        projected[j * p + j] = joint[j * p + j]
    prob = float(np.linalg.norm(projected) ** 2)
    projected /= np.sqrt(prob)
    corrected = np.zeros_like(projected)
    for a in range(p):
        for b in range(p):
            corrected[a * p + ((b - a) % p)] = projected[a * p + b]
    return corrected, prob


def _dilution_loops(p, g, eps):
    """The dilution circuit with a dense correction permutation matrix,
    built by loops; returns the corrected two-qudit output and the success
    probability."""
    u = gate_exponents(p, g).matrix()
    choi = choi_of_channel(depolarizing_gate_channel(p, u, eps))
    mask = np.zeros(p * p, dtype=bool)
    mask[::p + 1] = True
    blocked = np.where(np.outer(mask, mask), choi, 0.0)
    prob = float(np.trace(blocked).real)
    blocked /= prob
    perm = np.zeros((p * p, p * p))
    for a in range(p):
        for b in range(p):
            perm[a * p + ((b - a) % p), a * p + b] = 1.0
    return perm @ blocked @ perm.T, prob


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_injection_gadget_equals_index_loops(monkeypatch, p):
    """One pair of index maps serves both circuits; the injected state and
    the corrected dilution output (read where it is traced out) equal the
    loop builds' bit for bit, and so do the success probabilities."""
    traced = []
    monkeypatch.setattr(geometry, "partial_trace",
                        lambda rho, d, keep: traced.append(rho) or partial_trace(rho, d, keep))
    rng = np.random.default_rng(p)
    for g in (GateParams(0, 1, 0), GateParams(1, 2, 3), ROBUST_GATE_PARAMS[p]):
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        v /= np.linalg.norm(v)
        state, prob = _inject_loops(p, g, v)
        res = inject_gate(p, g, v)
        assert np.array_equal(res.state, state) and res.success_prob == prob
        for eps in (0.0, 0.1, 0.37, 1.0):
            out, prob = _dilution_loops(p, g, eps)
            assert simulate_dilution(p, g, eps).success_prob == prob
            assert np.array_equal(traced.pop(), out)


def test_partial_trace():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ra = a @ a.conj().T
    ra /= np.trace(ra)
    rb = b @ b.conj().T
    rb /= np.trace(rb)
    joint = np.kron(ra, rb)
    assert np.max(np.abs(partial_trace(joint, 3, 0) - ra)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, 3, 1) - rb)) < 1e-12


@pytest.mark.parametrize("keep", (2, -1))
def test_partial_trace_refuses_a_factor_out_of_range(keep):
    with pytest.raises(ValueError, match="keep must be 0 or 1"):
        partial_trace(np.eye(9) / 9, 3, keep)


def test_choi_of_depolarizing_channel_matches_formula():
    p = 3
    u = gate_exponents(p, GateParams(1, 2, 0)).matrix()
    for eps in (0.0, 0.3, 1.0):
        ch = depolarizing_gate_channel(p, u, eps)
        assert np.max(np.abs(choi_of_channel(ch) - depolarized_choi(p, u, eps))) < 1e-12


def test_phase_damping_channel_matches_state_form():
    p = 5
    g = GateParams(1, 4, 0)
    u = gate_exponents(p, g).matrix()
    psi = gate_state(p, g)
    for eps in (0.2, 0.7):
        ch = phase_damping_gate_channel(p, u, eps)
        plus = np.full(p, p ** -0.5, dtype=complex)
        rho = ch.apply(np.outer(plus, plus.conj()))
        assert np.max(np.abs(rho - phase_damped_state(p, psi, eps))) < 1e-12


def test_kraus_channel_requires_trace_preservation():
    from quditgates.errors import NotTracePreserving
    with pytest.raises(NotTracePreserving):
        KrausChannel(((0.5, np.eye(2)),))
    # No terms: the empty sum is 0, not the identity.
    with pytest.raises(NotTracePreserving, match="resolve the identity"):
        KrausChannel(())


@pytest.mark.parametrize("p", (2, 3, 5))
def test_simulate_dilution_matches_formula(p):
    rng = np.random.default_rng(p * 7)
    gps = [GateParams(z, g, e) for z in range(p) for g in range(p)
           for e in range(p)]
    for _ in range(6):
        gp = gps[rng.integers(len(gps))]
        eps = float(rng.uniform(0, 1))
        res = simulate_dilution(p, gp, eps)
        want = eps / (p - (p - 1) * eps)
        assert abs(res.eps_out - want) < 1e-10
        assert abs(res.success_prob - ((1 - eps) + eps / p)) < 1e-10


def test_choi_of_unitary_is_pure():
    u = gate_exponents(3, GateParams(1, 2, 0)).matrix()
    j = choi_of_unitary(u)
    assert abs(np.trace(j) - 1.0) < 1e-12
    assert np.max(np.abs(j @ j - j)) < 1e-12


@pytest.mark.parametrize("target,window", [(-0.1, -1.0), (-0.1, np.nan), (-0.1, np.inf),
                                           (None, np.nan), (np.nan, 1e-4), (-np.inf, 1e-4)])
def test_edge_scan_refuses_a_window_or_target_that_matches_nothing(target, window):
    """A negative or NaN window, or a NaN target, used to give a window
    count of 0 without a word."""
    with pytest.raises(ValueError, match="finite window"):
        edge_scan(3, target=target, window=window)


def test_edge_scan_zero_window_counts_exact_matches():
    low = edge_scan(3).min_eigenvalue
    assert edge_scan(3, target=low, window=0.0).window_count > 0


def test_kraus_channel_refuses_a_negative_weight():
    with pytest.raises(NotTracePreserving, match="negative"):
        KrausChannel(((-0.5, np.eye(2)), (1.5, np.eye(2))))


def test_inject_gate_refuses_a_bad_input_state():
    g = ROBUST_GATE_PARAMS[3]
    with pytest.raises(BadLength):
        inject_gate(3, g, np.ones(2) / np.sqrt(2))
    with pytest.raises(NotUnitary, match="normalised"):
        inject_gate(3, g, np.ones(3))


@pytest.mark.parametrize("eps", [-0.1, 1.5, np.nan])
def test_simulate_dilution_refuses_eps_outside_the_unit_interval(eps):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        simulate_dilution(3, ROBUST_GATE_PARAMS[3], eps)
