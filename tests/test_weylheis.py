import numpy as np
import pytest

from quditgates.errors import ShapeMismatch, UnsupportedDim, ZeroLabel
from quditgates.kernel import equal_up_to_global_phase
from quditgates.weylheis import (
    SUPPORTED_PRIMES,
    CliffordLabel,
    _metaplectic_defects,
    check_dim,
    clifford_labels,
    clifford_unitary,
    compose_cliffords,
    displacement,
    mub_labels,
    mub_projectors,
    mub_vectors,
    omega,
    pauli_projector,
    pauli_x,
    pauli_z,
    sl2_matrices,
    symplectic_unitaries,
    symplectic_unitary,
    tau,
    tau_order,
)


def test_check_dim():
    for p in SUPPORTED_PRIMES:
        check_dim(p)
    for bad in (1, 4, 6, 11):
        with pytest.raises(UnsupportedDim):
            check_dim(bad)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_phase_orders(p):
    assert abs(omega(p) ** p - 1) < 1e-12
    assert abs(tau(p) ** tau_order(p) - 1) < 1e-12
    # tau squares to omega
    assert abs(tau(p) ** 2 - omega(p)) < 1e-12


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_weyl_commutation(p):
    x, z = pauli_x(p), pauli_z(p)
    assert np.allclose(x @ z, omega(p) ** -1 * z @ x)
    assert np.allclose(np.linalg.matrix_power(x, p), np.eye(p))
    assert np.allclose(np.linalg.matrix_power(z, p), np.eye(p))


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_pauli_x_and_z_equal_their_direct_builds(p):
    """X and Z are the read-only X^1 Z^0 and X^0 Z^1 of the displacement
    table, bit for bit the shifted identity and diag(omega^k)."""
    x, z = pauli_x(p), pauli_z(p)
    assert x.tobytes() == np.roll(np.eye(p, dtype=complex), 1, axis=0).tobytes()
    assert z.tobytes() == np.diag(omega(p) ** np.arange(p)).tobytes()
    assert not x.flags.writeable and not z.flags.writeable


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_displacement_composition_phase(p):
    """D_a D_b = tau^{symplectic form} D_{a+b}."""
    rng = np.random.default_rng(p)
    for _ in range(30):
        x1, z1, x2, z2 = rng.integers(0, p, size=4)
        left = displacement(p, x1, z1) @ displacement(p, x2, z2)
        phase = tau(p) ** ((z1 * x2 - x1 * z2) % (2 * p))
        # the summed label is deliberately left unreduced; at p=2 reducing
        # it mod p would shift the tau exponent
        right = phase * displacement(p, x1 + x2, z1 + z2)
        assert np.max(np.abs(left - right)) < 1e-12


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_sl2_count(p):
    mats = sl2_matrices(p)
    assert len(mats) == p * (p ** 2 - 1)
    for f in mats[:20]:
        det = (f[0][0] * f[1][1] - f[0][1] * f[1][0]) % p
        assert det == 1


def _entrywise_symplectic_unitary(p, f):
    """V_F entry by entry, each phase tau(p) ** (e mod order) on its own."""
    (alpha, beta), (gamma, delta) = f
    v = np.zeros((p, p), dtype=complex)
    if beta == 0:
        for k in range(p):
            v[(alpha * k) % p, k] = tau(p) ** ((alpha * gamma * k * k) % tau_order(p))
        return v
    inv_b = pow(beta, -1, p)
    for j in range(p):
        for k in range(p):
            e = inv_b * (alpha * k * k - 2 * j * k + delta * j * j)
            v[j, k] = tau(p) ** (e % tau_order(p))
    v /= np.sqrt(p)
    return v


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_symplectic_stack_matches_the_entrywise_formula(p):
    """The one phase table, indexed by every exponent at once, gives each
    V_F bit for bit; ``symplectic_unitary`` reads its row of the stack."""
    stack = symplectic_unitaries(p)
    assert not stack.flags.writeable
    want = np.array([_entrywise_symplectic_unitary(p, f) for f in sl2_matrices(p)])
    assert np.array_equal(stack, want)
    for i, f in enumerate(sl2_matrices(p)):
        assert np.array_equal(symplectic_unitary(p, f), stack[i])


def test_symplectic_unitary_reduces_f_and_rejects_non_sl2():
    assert np.array_equal(symplectic_unitary(5, ((1, 0), (-4, 6))),
                          symplectic_unitary(5, ((1, 0), (1, 1))))
    with pytest.raises(ShapeMismatch):
        symplectic_unitary(3, ((1, 1), (1, 1)))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_symplectic_conjugation_law(p):
    """V_F D_chi V_F^dag lands on D_{F chi} (exactly for odd p)."""
    rng = np.random.default_rng(41 + p)
    mats = sl2_matrices(p)
    for _ in range(200):
        f = mats[rng.integers(len(mats))]
        x, z = int(rng.integers(p)), int(rng.integers(p))
        v = symplectic_unitary(p, f)
        got = v @ displacement(p, x, z) @ v.conj().T
        fx = (f[0][0] * x + f[0][1] * z) % p
        fz = (f[1][0] * x + f[1][1] * z) % p
        want = displacement(p, fx, fz)
        if p == 2:
            ok, _ = equal_up_to_global_phase(got, want, tol=1e-10)
            assert ok
        else:
            assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("p", (2, 3, 5))
def test_clifford_composition_law(p):
    """Label composition tracks the unitary product up to global phase."""
    rng = np.random.default_rng(17 + p)
    labels = clifford_labels(p)
    for _ in range(200):
        l1 = labels[rng.integers(len(labels))]
        l2 = labels[rng.integers(len(labels))]
        l12 = compose_cliffords(l1, l2)
        u = clifford_unitary(l1) @ clifford_unitary(l2)
        ok, _ = equal_up_to_global_phase(u, clifford_unitary(l12), tol=1e-9)
        assert ok, (l1, l2)


def test_clifford_composition_metaplectic_case():
    # V_F^2 for F = [[1,0],[1,1]] at p=2 is the Z gate even though F^2 = 1,
    # so the composed label must pick up the displacement correction.
    f = ((1, 0), (1, 1))
    l1 = CliffordLabel(2, f, (1, 0))
    l2 = CliffordLabel(2, f, (0, 1))
    l12 = compose_cliffords(l1, l2)
    u = clifford_unitary(l1) @ clifford_unitary(l2)
    ok, _ = equal_up_to_global_phase(u, clifford_unitary(l12), tol=1e-12)
    assert ok


@pytest.mark.parametrize("p", (2, 3))
def test_metaplectic_defects_match_the_products(p):
    """For every pair (F1, F2), V_F1 V_F2 is D_kappa V_(F1 F2) up to a
    global phase, kappa the table entry, which is zero at odd p."""
    fs = sl2_matrices(p)
    kappa = _metaplectic_defects(p)
    assert kappa.shape == (len(fs), len(fs), 2) and kappa.any() == (p == 2)
    for i, f1 in enumerate(fs):
        for j, f2 in enumerate(fs):
            f12 = tuple(tuple(int(x) for x in row) for row in np.array(f1) @ f2 % p)
            want = displacement(p, *kappa[i, j]) @ symplectic_unitary(p, f12)
            ok, _ = equal_up_to_global_phase(symplectic_unitary(p, f1) @ symplectic_unitary(p, f2),
                                             want, tol=1e-12)
            assert ok, (f1, f2)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_clifford_label_count(p):
    labels = clifford_labels(p)
    assert len(labels) == p ** 3 * (p ** 2 - 1)


def test_clifford_unitaries_distinct_p2():
    us = [clifford_unitary(lab) for lab in clifford_labels(2)]
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            ok, _ = equal_up_to_global_phase(us[i], us[j], tol=1e-8)
            assert not ok, (i, j)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_pauli_projector_properties(p):
    with pytest.raises(ZeroLabel):
        pauli_projector(p, 0, 0, 0)
    rng = np.random.default_rng(5 + p)
    for _ in range(10):
        a, b = int(rng.integers(p)), int(rng.integers(p))
        if (a, b) == (0, 0):
            a = 1
        k = int(rng.integers(p))
        proj = pauli_projector(p, a, b, k)
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12
        assert abs(np.trace(proj) - 1.0) < 1e-12
        assert np.max(np.abs(proj - proj.conj().T)) < 1e-12


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_mub_unbiasedness(p):
    vecs = mub_vectors(p)
    assert vecs.shape == (p + 1, p, p)
    for b in range(p + 1):
        gram = vecs[b].conj() @ vecs[b].T
        assert np.max(np.abs(gram - np.eye(p))) < 1e-10
        for b2 in range(b + 1, p + 1):
            overlaps = np.abs(vecs[b].conj() @ vecs[b2].T) ** 2
            assert np.max(np.abs(overlaps - 1.0 / p)) < 1e-10


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_mub_projectors_resolve_identity(p):
    projs = mub_projectors(p)
    assert projs.shape == (p + 1, p, p, p)
    for b in range(p + 1):
        total = projs[b].sum(axis=0)
        assert np.max(np.abs(total - np.eye(p))) < 1e-12
    assert len(mub_labels(p)) == p + 1


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_stabilizer_state_count(p):
    states = mub_projectors(p).reshape(-1, p, p)
    assert states.shape == (p * (p + 1), p, p)
    traces = np.einsum("nii->n", states)
    assert np.max(np.abs(traces - 1.0)) < 1e-12
    # each is a rank-one projector
    for s in states:
        assert np.max(np.abs(s @ s - s)) < 1e-12


def test_clifford_label_refuses_f_outside_sl2():
    with pytest.raises(ShapeMismatch, match="SL"):
        CliffordLabel(3, ((1, 1), (1, 1)), (0, 0))


def test_compose_cliffords_refuses_labels_of_two_dimensions():
    one = ((1, 0), (0, 1))
    with pytest.raises(ShapeMismatch, match="different dimensions"):
        compose_cliffords(CliffordLabel(2, one, (0, 0)), CliffordLabel(3, one, (0, 0)))
