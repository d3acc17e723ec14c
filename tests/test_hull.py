import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from quditgates.errors import MissingConfig, NumericalInstability, SymmetryViolation
from quditgates.geometry import (
    choi_ket,
    choi_of_unitary,
    depolarized_choi,
    depolarized_state,
    gate_state,
    negativity,
    phase_damped_state,
)
from quditgates.hierarchy import GateParams, gate_exponents, gate_matrix, root_order
from quditgates import cli, geometry, hull
from quditgates.hull import (
    LP_TOL,
    LPOutcome,
    RECORDED_PD_GATE,
    ROBUST_GATE_PARAMS,
    cliff_polytope,
    dilution,
    dilution_inv,
    equatorial_polytope,
    herm_to_vec,
    load_distill_config,
    lp_membership,
    lp_threshold,
    optimize_equatorial,
    stab_polytope,
    threshold_depol_gate,
    threshold_depol_state,
    threshold_pd_gate,
    uqc_bounds,
    vec_to_herm,
    verify_certificate,
)
from quditgates.weylheis import (
    CliffordLabel,
    clifford_labels,
    clifford_unitary,
    pauli_x,
    pauli_z,
    sl2_matrices,
    symplectic_unitary,
)


def random_density(rng, d, mix=0.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (1 - mix) * rho + mix * np.eye(d) / d


def test_vectorization_is_isometric():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        a = random_density(rng, d)
        b = random_density(rng, d)
        assert np.max(np.abs(vec_to_herm(herm_to_vec(a)) - a)) < 1e-14
        assert abs(herm_to_vec(a) @ herm_to_vec(b)
                   - np.trace(a @ b).real) < 1e-12


def test_vec_to_herm_refuses_a_length_that_is_not_a_square():
    with pytest.raises(ValueError, match="perfect square"):
        vec_to_herm(np.zeros(5))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_polytope_vertex_counts(p):
    assert stab_polytope(p).n_vertices == p * (p + 1)
    assert equatorial_polytope(p).n_vertices == p ** 2


def test_cliff_vertex_counts():
    assert cliff_polytope(2).n_vertices == 24
    assert cliff_polytope(3).n_vertices == 216
    assert cliff_polytope(7).kets.shape == (16464, 49)


# The dense construction that kets replaced: every vertex built as a
# density matrix, every column of the LP system from it.

def _dense_herm_to_vec(h):
    iu = np.triu_indices(h.shape[0], k=1)
    return np.concatenate([np.diag(h).real, np.sqrt(2.0) * h[iu].real,
                           np.sqrt(2.0) * h[iu].imag])


def _dense_system(verts):
    cols = np.stack([_dense_herm_to_vec(v) for v in verts], axis=1)
    return np.vstack([cols, np.ones((1, len(verts)))])


def _dense_cliff_vertices(p):
    phi = np.zeros(p * p, dtype=complex)
    phi[::p + 1] = 1.0 / np.sqrt(p)
    out = []
    for lab in clifford_labels(p):
        v = np.kron(np.eye(p), clifford_unitary(lab)) @ phi
        out.append(np.outer(v, v.conj()))
    return out


def _dense_equatorial_vertices(p):
    out = []
    for z in range(p):
        for e in range(p):
            v = gate_state(p, GateParams(z, 0, e))
            out.append(np.outer(v, v.conj()))
    return out


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_cliff_kets_equal_one_clifford_unitary_per_label(p):
    """The broadcast D_chi V_F product gives, bit for bit and in
    ``clifford_labels`` order, the kets of one ``clifford_unitary`` each."""
    us = np.array([clifford_unitary(lab) for lab in clifford_labels(p)])
    assert np.array_equal(cliff_polytope(p).kets, choi_ket(us))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_cliff_system_equals_dense_construction(p):
    assert np.array_equal(cliff_polytope(p).system(), _dense_system(_dense_cliff_vertices(p)))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_equatorial_system_equals_dense_construction(p):
    assert np.array_equal(equatorial_polytope(p).system(),
                          _dense_system(_dense_equatorial_vertices(p)))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_equatorial_kets_are_the_diagonal_clifford_states(p):
    """The gamma = 0 family states are, one to one, the Clifford-label
    states D_(0|z) V_[[1,0],[gamma,1]] |+>; both sets have first amplitude
    p^-1/2, so the kets match with no phase."""
    plus = np.full(p, p ** -0.5, dtype=complex)
    labelled = np.array([clifford_unitary(CliffordLabel(p, ((1, 0), (gamma, 1)), (0, z))) @ plus
                         for gamma in range(p) for z in range(p)])
    dist = np.max(np.abs(equatorial_polytope(p).kets[:, None] - labelled[None]), axis=2)
    match = np.argmin(dist, axis=1)
    assert np.array_equal(np.sort(match), np.arange(p * p))
    assert dist[np.arange(p * p), match].max() <= 1e-12


@pytest.mark.parametrize("make", (stab_polytope, equatorial_polytope, cliff_polytope))
@pytest.mark.parametrize("p", (2, 3))
def test_vertices_are_ket_projectors(make, p):
    spec = make(p)
    assert np.array_equal(spec.vertices, np.array([np.outer(v, v.conj()) for v in spec.kets]))
    rng = np.random.default_rng(p)
    w = rng.uniform(size=spec.n_vertices)
    assert np.max(np.abs(spec.mixture(w) - np.einsum("n,nij->ij", w, spec.vertices))) < 1e-13


# The formulas ``system()`` and ``vertices`` used before they were built in
# their results' own storage: the projectors and their conjugates as two
# whole stacks, 1024 kets at a time.

def _stacked_projectors(kets):
    return kets[:, :, None] * kets[:, None, :].conj()


def _stacked_system(spec):
    system = np.ones((spec.dim ** 2 + 1, spec.n_vertices))
    for lo in range(0, spec.n_vertices, 1024):
        system[:-1, lo:lo + 1024] = herm_to_vec(_stacked_projectors(spec.kets[lo:lo + 1024])).T
    return system


@pytest.mark.parametrize("make, p", [(cliff_polytope, 5), (equatorial_polytope, 7),
                                     (stab_polytope, 7)])
def test_blocked_system_and_vertices_equal_stacked_formulas(monkeypatch, make, p):
    """With 7-row blocks ``system()`` fills its columns one ket at a time
    (d >= 7 rows each); every entry, and every entry of ``vertices``, is
    still the one the whole-stack formulas give."""
    spec = make(p)
    want_system, want_vertices = _stacked_system(spec), _stacked_projectors(spec.kets)
    for block in (geometry._BLOCK_ROWS, 7):
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", block)
        assert np.array_equal(spec.system(), want_system)
        assert np.array_equal(spec.vertices, want_vertices)


def _one_product_mixture(spec, w):
    return (spec.kets.T * w) @ spec.kets.conj()


@pytest.mark.parametrize("make, p", [(cliff_polytope, 2), (cliff_polytope, 3),
                                     (cliff_polytope, 5), (stab_polytope, 7),
                                     (equatorial_polytope, 7)])
def test_mixture_in_one_block_is_the_one_product(make, p):
    """Up to ``_BLOCK_ROWS`` kets the blocked sum is one block, and so bit
    for bit the one product over all kets."""
    spec = make(p)
    assert spec.n_vertices <= geometry._BLOCK_ROWS
    w = np.random.default_rng(p).dirichlet(np.ones(spec.n_vertices))
    assert np.array_equal(spec.mixture(w), _one_product_mixture(spec, w))


@pytest.mark.parametrize("p", (3, 5))
def test_mixture_by_small_blocks_matches_the_one_product(monkeypatch, p):
    """With 7-ket blocks (429 of them at p = 5) the sum moves only in its
    last bits."""
    spec = cliff_polytope(p)
    w = np.random.default_rng(p).dirichlet(np.ones(spec.n_vertices))
    want = _one_product_mixture(spec, w)
    monkeypatch.setattr(geometry, "_BLOCK_ROWS", 7)
    assert np.max(np.abs(spec.mixture(w) - want)) <= 1e-15


@pytest.mark.parametrize("n", (1, 5, 7))
def test_mixture_takes_one_weight_per_ket(n):
    """Six STAB kets at p = 2: a single weight used to broadcast over all
    of them, and blocks cut at the kets would drop a seventh."""
    with pytest.raises(ValueError, match="expected 6 weights"):
        stab_polytope(2).mixture(np.ones(n))


def _traced_excess(build):
    """Traced peak of ``build()`` above the size of what it returns."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


def test_system_and_vertices_working_set_stays_small():
    """At p = 5 ``system()`` (14.3 MiB) holds only the products of one
    163-ket block beside its result, 1.7 MB traced above it; a 163-ket
    block of projectors took 4.0 MB, and whole 1024-ket stacks of
    projectors and their ``herm_to_vec`` temporaries 24 MiB.  ``vertices``
    (28.6 MiB) makes no conjugate stack beside it, 0.3 MB."""
    spec = cliff_polytope(5)
    assert _traced_excess(spec.system) < 3e6
    assert _traced_excess(lambda: spec.vertices) < 0.5e6


def test_membership_working_set_stays_small():
    """One p = 5 membership over 180 Clifford orbits, the polytope built
    beforehand, peaks at 3.4 MB traced, the 0.9 MB of orbit columns it
    leaves on the spec included: its orbit averages are stacked 6 at a
    time.  163-orbit stacks took it to 5-6 MB."""
    spec = cliff_polytope(5)
    target = depolarized_choi(5, gate_matrix(5, ROBUST_GATE_PARAMS[5]), 0.94)
    tracemalloc.start()
    try:
        lp_membership(spec, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


@pytest.mark.parametrize("kets", [np.empty((0, 3)), np.empty((3, 0)), np.array([1.0, 0.0])],
                         ids=["no-kets", "zero-length", "one-dim"])
def test_polytope_rejects_kets_not_a_non_empty_matrix(kets):
    with pytest.raises(ValueError, match=r"\(n, d\) array, got shape"):
        hull.PolytopeSpec(kets)


@pytest.mark.parametrize("p", (2, 3))
def test_vertex_self_membership(p):
    spec = stab_polytope(p)
    for i in (0, spec.n_vertices // 2):
        out = lp_membership(spec, spec.vertices[i])
        assert out.feasible
        assert abs(out.weights[i] - 1.0) < 1e-7
        assert out.weights.sum() - out.weights[i] < 1e-7


def test_uniform_mixture_inside_cliff():
    spec = cliff_polytope(2)
    out = lp_membership(spec, np.eye(4) / 4)
    assert out.feasible
    resid = np.einsum("n,nij->ij", out.weights, spec.vertices) - np.eye(4) / 4
    assert np.max(np.abs(resid)) < 1e-8


def test_qubit_gate_choi_outside_cliff_with_certificate():
    spec = cliff_polytope(2)
    u = gate_exponents(2, GateParams(0, 1, 0)).matrix()
    target = choi_of_unitary(u)
    out = lp_membership(spec, target)
    assert not out.feasible
    margin = verify_certificate(spec, target, out.certificate)
    assert margin > 1e-3
    assert np.max(np.abs(np.linalg.eigvalsh(out.certificate))) <= 1 + 1e-9


def test_p5_cliff_membership_distance_is_the_gate_threshold():
    """The depolarised robust gate at eps=0.5, decided over the 180 orbits
    of the Clifford conjugations that fix it (Z and the shear); eps +
    (1 - eps) distance is the gate threshold 20/21."""
    spec = cliff_polytope(5)
    target = depolarized_choi(5, gate_matrix(5, ROBUST_GATE_PARAMS[5]), 0.5)
    out = lp_membership(spec, target)
    assert not out.feasible and out.weights is None and out.orbits == 180
    assert abs(0.5 + 0.5 * out.distance - 20 / 21) < 1e-12
    assert verify_certificate(spec, target, out.certificate) > 1e-3


@pytest.mark.parametrize("eps,inside", [(0.94, False), (0.9675, True)])
def test_p5_cliff_membership_of_the_benchmark_targets(eps, inside):
    """The two decisions of the p=5 benchmark, over 180 orbit columns;
    the weights are spread over, and checked against, all 3000 vertices."""
    spec = cliff_polytope(5)
    target = depolarized_choi(5, gate_matrix(5, ROBUST_GATE_PARAMS[5]), eps)
    out = lp_membership(spec, target)
    assert out.feasible == inside and out.orbits == 180
    if inside:
        assert out.weights.shape == (3000,) and out.weights.min() >= 0.0
        assert np.max(np.abs(spec.mixture(out.weights) - target)) <= 10 * LP_TOL
    else:
        assert abs(eps + (1 - eps) * out.distance - 20 / 21) < 1e-9
        assert verify_certificate(spec, target, out.certificate) > 0.0


@pytest.mark.parametrize("p,eps", [(2, 0.40), (2, 0.50), (3, 0.73), (3, 0.84)])
def test_cliff_membership_over_orbits_matches_full_lp(p, eps):
    """Either side of the gate threshold (45.31% at p=2, 78.63% at p=3),
    the orbit LP decides as the LP over every vertex does."""
    spec = cliff_polytope(p)
    target = depolarized_choi(p, gate_matrix(p, ROBUST_GATE_PARAMS[p]), eps)
    out = lp_membership(spec, target)
    full = lp_threshold(spec, target, spec.mixture(np.full(spec.n_vertices, 1 / spec.n_vertices)))
    assert full.orbits == spec.n_vertices and out.orbits < spec.n_vertices
    assert out.feasible == (full.epsilon_star == 0.0) == (eps > {2: 0.4531, 3: 0.7863}[p])
    assert abs(out.distance - full.epsilon_star) < 1e-9


def test_membership_evidence_is_read_only():
    """The weights inside and the certificate outside, as ``lp_threshold``
    returns them."""
    spec = stab_polytope(2)
    psi = gate_state(2, ROBUST_GATE_PARAMS[2])
    inside = lp_membership(spec, np.eye(2) / 2)
    outside = lp_membership(spec, np.outer(psi, psi.conj()))
    assert inside.feasible and not outside.feasible
    for a in (inside.weights, outside.certificate):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize("p", (2, 3))
def test_cliff_membership_of_a_random_mixture_uses_every_vertex(p):
    """No Clifford conjugation fixes a generic interior point."""
    spec = cliff_polytope(p)
    target = spec.mixture(np.random.default_rng(5).dirichlet(np.ones(spec.n_vertices)))
    out = lp_membership(spec, target)
    assert out.feasible and out.orbits == spec.n_vertices


def _membership_maps(spec, target):
    """What ``lp_membership`` hands ``lp_threshold`` after the spec: the
    target, the vertex barycentre and the spec's maps that fix the target."""
    n = spec.n_vertices
    maps = [g for g in spec.maps if hull._fixes(g, target)]
    return target, spec.mixture(np.full(n, 1.0 / n)), maps


def _assert_same_outcome(got, want):
    """Every ``LPOutcome`` field equal: floats by ``float.hex``, arrays by
    ``np.array_equal``."""
    for field in dataclasses.fields(LPOutcome):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray) or isinstance(a, np.ndarray):
            assert a is not None and b is not None and np.array_equal(a, b), field.name
        elif isinstance(b, float):
            assert float(a).hex() == b.hex(), field.name
        else:
            assert a == b, field.name


# Either side of the gate threshold, as in the benchmark at p = 5.
_MEMBERSHIP_SIDES = {2: (0.40, 0.50), 3: (0.73, 0.84), 5: (0.94, 0.9675)}


def _robust_targets(p):
    u = gate_matrix(p, ROBUST_GATE_PARAMS[p])
    return [depolarized_choi(p, u, eps) for eps in _MEMBERSHIP_SIDES[p]]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_memberships_on_one_spec_match_fresh_specs(p):
    """Outside then inside, and inside then outside, on one spec, whose
    second membership reuses the orbit columns and barycentre of the
    first: bit for bit the outcomes of a fresh spec each."""
    targets = _robust_targets(p)
    fresh = [lp_membership(cliff_polytope(p), t) for t in targets]
    assert [out.feasible for out in fresh] == [False, True]
    for order in ((0, 1), (1, 0)):
        spec = cliff_polytope(p)
        for i in order:
            _assert_same_outcome(lp_membership(spec, targets[i]), fresh[i])
        assert len(spec._lp_columns) == 1


def test_two_memberships_on_one_spec_search_the_orbits_once(monkeypatch):
    """The two p = 5 memberships of the benchmark share their maps (Z and
    the shear) and their 180 orbits: one orbit search, and one barycentre,
    beside the weight check of each LP."""
    searches, mixtures = [], []
    ket_orbits, mixture = hull._ket_orbits, hull.PolytopeSpec.mixture
    monkeypatch.setattr(hull, "_ket_orbits", lambda labels, n: searches.append(len(labels))
                        or ket_orbits(labels, n))
    monkeypatch.setattr(hull.PolytopeSpec, "mixture",
                        lambda spec, w: mixtures.append(np.ptp(w) == 0) or mixture(spec, w))
    spec = cliff_polytope(5)
    outs = [lp_membership(spec, t) for t in _robust_targets(5)]
    assert [out.orbits for out in outs] == [180, 180]
    assert searches == [2] and mixtures == [True, False, False]


def test_the_spec_keeps_the_columns_of_its_last_map_set_alone():
    """Memberships fixed by other map sets (Z and the shear, then all four
    generators, for I/9) replace the one entry, keyed by the labels of the
    last set.  A membership no map fixes, a column per vertex, is larger
    than the kets and is not kept."""
    spec = cliff_polytope(3)
    u = gate_matrix(3, ROBUST_GATE_PARAMS[3])
    sets = []
    for target in (depolarized_choi(3, u, 0.5), np.eye(9) / 9, depolarized_choi(3, u, 0.8)):
        maps = _membership_maps(spec, target)[2]
        lp_membership(spec, target)
        sets.append(tuple(tuple(map(hull._clifford_label, lr)) for lr in maps))
        assert list(spec._lp_columns) == [sets[-1]]
    assert len(sets[0]) == 2 and len(sets[1]) == 4 and sets[2] == sets[0]
    mixed = spec.mixture(np.random.default_rng(5).dirichlet(np.ones(spec.n_vertices)))
    assert lp_membership(spec, mixed).orbits == spec.n_vertices
    assert list(spec._lp_columns) == [sets[-1]]


def test_a_membership_inside_another_on_one_spec_keeps_its_own_columns(monkeypatch):
    """The cached columns are taken out of the spec while in use: a second
    membership that starts on the same spec before the first factorises its
    matrix, as a second thread could, builds its own columns, and neither
    overwrites the other's target.  Both match fresh specs bit for bit."""
    outside, inside = _robust_targets(5)
    want = [lp_membership(cliff_polytope(5), t) for t in (outside, inside)]
    spec = cliff_polytope(5)
    lp_membership(spec, outside)
    nested, svd = [], np.linalg.svd

    def svd_after_a_nested_membership(a, *args, **kwargs):
        if not nested:
            nested.append(None)
            nested.append(lp_membership(spec, inside))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_after_a_nested_membership)
    got = lp_membership(spec, outside)
    _assert_same_outcome(got, want[0])
    _assert_same_outcome(nested[1], want[1])


def test_threads_sharing_a_spec_decide_as_alone():
    """Four threads, more than the cores, run p = 3 memberships either side
    of the threshold on one spec, switching every microsecond: each
    outcome is bit for bit that of a fresh spec, as no two of them ever
    fill one cached matrix."""
    targets = _robust_targets(3)
    want = [lp_membership(cliff_polytope(3), t) for t in targets]
    spec = cliff_polytope(3)
    got = [[] for _ in range(4)]

    def run(k):
        for i in range(12):
            side = (i + k) % 2
            got[k].append((side, lp_membership(spec, targets[side])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for outcomes in got:
        assert len(outcomes) == 12
        for side, out in outcomes:
            _assert_same_outcome(out, want[side])


@pytest.mark.parametrize("make", (stab_polytope, equatorial_polytope, cliff_polytope))
def test_spec_kets_are_read_only(make):
    """A spec owns its kets, so nothing derived from them goes stale: a
    write through ``spec.kets`` raises, and a plain spec copies what it is
    given."""
    spec = make(3)
    with pytest.raises(ValueError, match="read-only"):
        spec.kets[0, 0] = 0.0
    kets = spec.kets.copy()
    plain = hull.PolytopeSpec(kets)
    kets[0] = kets[1]
    assert np.array_equal(plain.kets, spec.kets) and not np.shares_memory(plain.kets, kets)
    with pytest.raises(ValueError, match="read-only"):
        plain.kets[0, 0] = 0.0


@pytest.mark.parametrize("path", ("membership", "threshold"))
def test_lp_rejects_a_map_that_does_not_permute_the_vertices(path):
    """Conjugation by S = diag(1, e^0.3i), a diagonal phase gate off the
    Clifford group, fixes the Choi state of every diagonal gate but maps
    Clifford Choi kets off the polytope.  Added to the maps a membership
    of ``cliff_polytope(2)`` runs over, or alone on the path from J_T to
    I/4, the LP must raise rather than drop it."""
    spec = cliff_polytope(2)
    s = np.diag([1.0, np.exp(0.3j)])
    u = gate_matrix(2, ROBUST_GATE_PARAMS[2])
    if path == "membership":
        start, end, maps = _membership_maps(spec, depolarized_choi(2, u, 0.5))
        assert maps and lp_membership(spec, start).orbits < spec.n_vertices
    else:
        start, end, maps = choi_of_unitary(u), np.eye(4) / 4, []
    with pytest.raises(SymmetryViolation, match="does not permute"):
        lp_threshold(spec, start, end, maps + [(s.conj().T, s)])


def _rolled_kets(spec):
    return np.roll(spec.kets, 1, axis=0), spec.maps


def _subset_of_kets(spec):
    return spec.kets[:12], spec.maps


def _repeated_ket(spec):
    """The ket of D_(1|1) replaced by that of X, under the conjugation by Z
    alone, which fixes both up to a phase: no overlap of an image could
    tell, only the spec's type."""
    x = 4 * sl2_matrices(2).index(((1, 0), (0, 1))) + 2  # chi = (1, 0), then (1, 1)
    kets = spec.kets.copy()
    kets[x + 1] = kets[x]
    return kets, spec.maps[1:2]


def _non_clifford_left_factor(spec):
    """Conjugation by S = diag(1, e^0.3i), (L, R) = (S^dag, S): it fixes
    every diagonal gate's Choi state, and L is not a Clifford."""
    s = np.diag([1.0, np.exp(0.3j)])
    return spec.kets, spec.maps + ((s.conj().T, s),)


@pytest.mark.parametrize("corrupt", (_rolled_kets, _subset_of_kets, _repeated_ket,
                                     _non_clifford_left_factor))
def test_membership_fails_closed_on_a_broken_symmetry(corrupt):
    """Maps on hand-built kets raise: kets out of order, a ket list that is
    not the whole polytope, a ket given twice, and a non-Clifford L, each
    handed to ``lp_threshold`` with a plain spec of those kets."""
    spec = cliff_polytope(2)
    target = depolarized_choi(2, gate_matrix(2, ROBUST_GATE_PARAMS[2]), 0.5)
    assert lp_membership(spec, target).orbits < spec.n_vertices
    kets, maps = corrupt(spec)
    with pytest.raises(SymmetryViolation):
        lp_threshold(hull.PolytopeSpec(kets), target, np.eye(4) / 4, maps)


def test_maps_on_exact_kets_of_the_wrong_type_are_refused():
    """Only the spec ``cliff_polytope`` returns takes maps, even against
    a plain spec with the very same kets and the maps a membership of
    ``cliff_polytope(2)`` runs over."""
    spec = cliff_polytope(2)
    target, barycentre, maps = _membership_maps(
        spec, depolarized_choi(2, gate_matrix(2, ROBUST_GATE_PARAMS[2]), 0.5))
    assert maps
    with pytest.raises(SymmetryViolation, match="permute the kets of cliff_polytope alone"):
        lp_threshold(hull.PolytopeSpec(spec.kets), target, barycentre, maps)


def test_only_cliff_polytope_carries_maps():
    """A spec is its kets: a plain one, STAB's and EQ's carry no maps, and
    ``cliff_polytope``'s carries the conjugations (S^dag, S) by X, Z, the
    shear and the Fourier gate, in that order."""
    p = 3
    gens = (pauli_x(p), pauli_z(p), symplectic_unitary(p, ((1, 0), (1, 1))),
            symplectic_unitary(p, ((0, p - 1), (1, 0))))
    for spec in (stab_polytope(p), equatorial_polytope(p), hull.PolytopeSpec(np.eye(p))):
        assert spec.maps == () and not hasattr(spec, "name")
    spec = cliff_polytope(p)
    assert isinstance(spec.maps, tuple) and len(spec.maps) == len(gens)
    for (l, r), s in zip(spec.maps, gens):
        assert np.array_equal(l, s.conj().T) and np.array_equal(r, s)


def _threshold_maps(p, u, gate_pairs=(pauli_x,)):
    """The maps ``threshold_depol_gate`` runs over for the diagonal gate u:
    the pairs (U D^dag U^dag, D) for D in ``gate_pairs``, then the maps of
    ``cliff_polytope(p)`` that fix both ends of the path.  With D = X, Z it
    gives the four-map rule the tests hold the threshold's orbits to; its
    Z pair is, for a diagonal U, the polytope's own conjugation by Z."""
    spec = cliff_polytope(p)
    start, end = depolarized_choi(p, u, 0.0), depolarized_choi(p, u, 1.0)
    maps = [(u @ d(p).conj().T @ u.conj().T, d(p)) for d in gate_pairs]
    return maps + [g for g in spec.maps if hull._fixes(g, start) and hull._fixes(g, end)]


def _brute_force_orbits(kets, maps):
    """Orbit labels from the full n x n overlap matrix: each image
    (R^T x L) v_i, by ``np.kron``, is matched to the ket it overlaps most
    among all n, and orbits are numbered by their least member."""
    n = len(kets)
    perms = []
    for l, r in maps:
        overlap = np.abs(kets.conj() @ (kets @ np.kron(r.T, l).T).T) ** 2
        perm = np.argmax(overlap, axis=0)
        assert np.array_equal(np.sort(perm), np.arange(n)) and overlap.max(axis=0).min() > 1 - 1e-9
        perms.append(perm)
    return _orbit_labels(perms)


def _scanned_sl2_part(kets, c):
    """The SL(2) part of the Clifford Choi ket that c's Choi ket overlaps
    most, by a search over every ket."""
    d = kets.shape[1]
    return np.array(sl2_matrices(round(d ** 0.5)))[np.argmax(np.abs(kets @ choi_ket(c).conj())) // d]


def _per_ket_orbits(kets, maps):
    """Orbit labels from a search over every ket: F_L and F_R are the SL(2)
    parts of the kets L and R overlap most, and each image (R^T x L) v_i,
    by ``np.kron``, is matched to the ket it overlaps most among the p^2
    of block F_L F F_R."""
    n, d = kets.shape
    p = round(d ** 0.5)
    f = np.array(sl2_matrices(p))
    index = {m.tobytes(): i for i, m in enumerate(f)}
    blocks = kets.reshape(len(f), d, d)
    perms = []
    for l, r in maps:
        fl, fr = (_scanned_sl2_part(kets, c) for c in (l, r))
        to = np.array([index[(fl @ m @ fr % p).tobytes()] for m in f])
        img = (kets @ np.kron(r.T, l).T).reshape(len(f), d, d)
        overlap = np.abs(np.einsum("fkx,fix->fik", blocks[to].conj(), img)) ** 2  # [F, ket, target]
        perm = (to[:, None] * d + np.argmax(overlap, axis=2)).ravel()
        assert np.array_equal(np.sort(perm), np.arange(n)) and overlap.max(axis=2).min() > 1 - 1e-9
        perms.append(perm)
    return _orbit_labels(perms)


def _ket_orbits(kets, maps):
    """``hull._ket_orbits`` of the kets' count, with the labels ``lp_threshold``
    reads for the maps."""
    return hull._ket_orbits([tuple(map(hull._clifford_label, lr)) for lr in maps], len(kets))


def _orbit_labels(perms):
    """Orbit of each index under the permutations, numbered by least member."""
    n = len(perms[0])
    label = np.full(n, -1)
    for i in np.arange(n):
        if label[i] < 0:
            label[i], todo = label.max() + 1, [i]
            while todo:
                j = todo.pop()
                for perm in perms:
                    if label[perm[j]] < 0:
                        label[perm[j]] = label[i]
                        todo.append(perm[j])
    return label


def _orbit_map_sets(p):
    """The polytope's own maps and the threshold maps of every family gate
    at p = 2 and 3, of the robust gate at p = 5 and 7."""
    gates = ([GateParams(z, g, e) for z in range(p) for g in range(p) for e in range(p)]
             if p <= 3 else [ROBUST_GATE_PARAMS[p]])
    return [cliff_polytope(p).maps] + [_threshold_maps(p, gate_matrix(p, g)) for g in gates]


@pytest.mark.parametrize("p", (2, 3))
def test_ket_orbits_match_brute_force_overlaps(p):
    """The block matcher gives the orbits of a search over all kets, for
    the polytope's own maps and the threshold maps of every family gate;
    the ket map of each pair is ``np.kron`` bit for bit."""
    spec = cliff_polytope(p)
    for maps in _orbit_map_sets(p):
        assert all(np.array_equal(hull._ket_map(l, r), np.kron(r.T, l)) for l, r in maps)
        assert np.array_equal(_ket_orbits(spec.kets, maps), _brute_force_orbits(spec.kets, maps))


@pytest.mark.parametrize("p", (5, 7))
def test_ket_orbits_match_a_per_ket_search(p):
    """The orbits placed by label arithmetic from one image per block are
    those of matching every image within its block, for the polytope's
    own maps and the robust gate's threshold maps."""
    spec = cliff_polytope(p)
    for maps in (spec.maps, _threshold_maps(p, gate_matrix(p, ROBUST_GATE_PARAMS[p]))):
        assert np.array_equal(_ket_orbits(spec.kets, maps), _per_ket_orbits(spec.kets, maps))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_ket_orbits_depend_only_on_the_generated_group(p):
    """Orbits are numbered by their least member, so reversing the maps or
    giving one of them twice leaves every label as it was, for the
    polytope's own maps and the robust gate's threshold maps."""
    spec = cliff_polytope(p)
    for maps in (list(spec.maps), _threshold_maps(p, gate_matrix(p, ROBUST_GATE_PARAMS[p]))):
        want = _ket_orbits(spec.kets, maps)
        assert want.max() > 0 and want.max() + 1 < spec.n_vertices
        for same_group in (maps[::-1], maps + maps[:1], maps[1:] + maps):
            assert np.array_equal(_ket_orbits(spec.kets, same_group), want)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_label_sl2_parts_match_a_ket_scan(p):
    """F_L and F_R, read from how L and R conjugate X and Z, are the SL(2)
    parts of the kets their Choi kets overlap most, for every factor of
    the map sets ``_orbit_map_sets`` gives."""
    kets = cliff_polytope(p).kets
    for maps in _orbit_map_sets(p):
        for c in (c for lr in maps for c in lr):
            assert np.array_equal(np.array(hull._clifford_label(c).f), _scanned_sl2_part(kets, c))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_clifford_label_reads_back_every_label(p):
    """Every Clifford label (every 37th at p = 7) is read back from its
    unitary times a phase: F from the displacements that X and Z go to,
    chi from the phases, the p = 2 metaplectic signs included."""
    for lab in clifford_labels(p)[::37 if p == 7 else 1]:
        assert hull._clifford_label(np.exp(0.7j) * clifford_unitary(lab)) == lab


@pytest.mark.parametrize("c", [np.diag([1.0, np.exp(0.3j)]),
                               np.array([[1.0, 1.0], [1.0, -1.0]]) @ np.diag([1.0, np.exp(0.3j)])
                               / np.sqrt(2)], ids=["phase-gate", "hadamard-after-it"])
def test_clifford_label_refuses_a_non_clifford(c):
    """diag(1, e^0.3i) sends X to no displacement (its Z image is Z), and
    neither does H after it."""
    with pytest.raises(SymmetryViolation, match="does not permute"):
        hull._clifford_label(c)


def _threshold_gates(p):
    """Every family gate at p = 2 and 3; the robust gate and one gate per
    +-gamma class at p = 5 and 7."""
    if p <= 3:
        return [GateParams(z, g, e) for z in range(p) for g in range(p) for e in range(p)]
    return [ROBUST_GATE_PARAMS[p]] + [GateParams(0, g, 1) for g in range((p + 1) // 2)]


class _Captured(Exception):
    pass


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_threshold_passes_each_symmetry_once(monkeypatch, p):
    """``threshold_depol_gate`` hands ``lp_threshold`` the maps of
    ``_threshold_maps``: one map fewer than the rule with the pairs for
    both X and Z, and the same orbits.  For a gamma != 0 gate no two of
    its maps permute the kets alike; a gate Z^e, such as (0, 0, 1), keeps
    an X pair equal to the polytope's X conjugation."""
    seen = []

    def capture(spec, start, end, maps=()):
        seen.append(list(maps))
        raise _Captured

    monkeypatch.setattr(hull, "lp_threshold", capture)
    spec = cliff_polytope(p)
    for g in _threshold_gates(p):
        hull._depol_gate_threshold.cache_clear()
        with pytest.raises(_Captured):
            threshold_depol_gate(p, g)
        maps, u = seen.pop(), gate_matrix(p, g)
        mirror, four = _threshold_maps(p, u), _threshold_maps(p, u, (pauli_x, pauli_z))
        assert len(maps) == len(mirror) == len(four) - 1, g
        assert all(np.array_equal(a, b) for m, w in zip(maps, mirror) for a, b in zip(m, w)), g
        assert np.array_equal(_ket_orbits(spec.kets, maps),
                              _ket_orbits(spec.kets, four)), g
        if g.gamma % p:  # maps with other orbits of their own permute the kets apart
            alone = {_ket_orbits(spec.kets, [m]).tobytes() for m in maps}
            assert len(alone) == len(maps), g
    hull._depol_gate_threshold.cache_clear()


@pytest.mark.parametrize("p", (3, 5))
def test_results_do_not_depend_on_the_block(monkeypatch, p):
    """7-row blocks split every Clifford-ket pass at p = 3 and 5 (one V_F
    per block when p^2 > 7); kets, orbit labels and the depolarising-gate
    threshold come out as with the default block, which holds them whole."""
    u = gate_matrix(p, ROBUST_GATE_PARAMS[p])
    spec = cliff_polytope(p)
    map_sets = (spec.maps, _threshold_maps(p, u))
    orbits = [_ket_orbits(spec.kets, maps) for maps in map_sets]
    r = threshold_depol_gate(p, ROBUST_GATE_PARAMS[p])
    monkeypatch.setattr(geometry, "_BLOCK_ROWS", 7)
    assert np.array_equal(cliff_polytope(p).kets, spec.kets)
    for maps, want in zip(map_sets, orbits):
        assert np.array_equal(_ket_orbits(spec.kets, maps), want)
    hull._depol_gate_threshold.cache_clear()
    got = threshold_depol_gate(p, ROBUST_GATE_PARAMS[p])
    assert (got.epsilon_star, got.pivots, got.orbits, got.margin) == (
        r.epsilon_star, r.pivots, r.orbits, r.margin)
    assert np.array_equal(got.weights, r.weights) and np.array_equal(got.witness, r.witness)


def _factorised_lp_matrix(monkeypatch, run):
    """The (d^2, n + 2) matrix of orbit averages, start and end that
    ``lp_threshold`` factorises inside ``run()``: the argument of its SVD,
    or, for a wide matrix, the transpose of that of its QR."""
    seen = []
    for name in ("qr", "svd"):
        def record(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append((_name, np.array(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    run()
    assert [name for name, _ in seen] in (["svd"], ["qr", "svd"])
    name, a = seen[0]
    return a.T if name == "qr" else a


def _per_orbit_lp_matrix(spec, start, end, maps):
    """One ``herm_to_vec`` of k.T @ k.conj() / len(k) per orbit, its kets k
    in index order, then start and end."""
    orbit = _ket_orbits(spec.kets, maps)
    kets = (spec.kets[orbit == o] for o in range(orbit.max() + 1))
    return np.column_stack([herm_to_vec(k.T @ k.conj() / len(k)) for k in kets]
                           + [herm_to_vec(start), herm_to_vec(end)])


def _membership_case(spec, target):
    return (lambda: lp_membership(spec, target)), (spec, *_membership_maps(spec, target))


def _lp_matrix_cases():
    u5 = gate_matrix(5, ROBUST_GATE_PARAMS[5])
    for eps in (0.94, 0.9675):
        yield f"cliff5-{eps}", _membership_case(cliff_polytope(5), depolarized_choi(5, u5, eps))
    u7 = gate_matrix(7, ROBUST_GATE_PARAMS[7])
    path = (depolarized_choi(7, u7, 0.0), depolarized_choi(7, u7, 1.0))

    def depol7():
        hull._depol_gate_threshold.cache_clear()
        threshold_depol_gate(7, ROBUST_GATE_PARAMS[7])
    yield "depol7", (depol7, (cliff_polytope(7), *path, _threshold_maps(7, u7)))
    psi = gate_state(5, ROBUST_GATE_PARAMS[5])
    yield "stab5", _membership_case(stab_polytope(5), np.outer(psi, psi.conj()))


@pytest.mark.parametrize("block", (None, 7), ids=["default-block", "block-7"])
def test_lp_matrix_is_the_per_orbit_formula(monkeypatch, block):
    """The orbit averages are vectorised a block at a time; every entry of
    the matrix the LP factorises is still the one a ``herm_to_vec`` per
    orbit gives, bit for bit: p = 5 memberships either side of 95.24%
    (180 orbits), the p = 7 depolarising-gate threshold (66) and a STAB(5)
    membership with no maps (30, a wide matrix)."""
    if block is not None:
        monkeypatch.setattr(geometry, "_BLOCK_ROWS", block)
    for name, (run, args) in _lp_matrix_cases():
        with monkeypatch.context() as m:
            got = _factorised_lp_matrix(m, run)
        assert np.array_equal(got, _per_orbit_lp_matrix(*args)), name
    hull._depol_gate_threshold.cache_clear()


def test_target_off_the_vertex_span_is_outside_at_distance_one():
    """Every EQ vertex has a flat diagonal, so the path from |0><0| meets
    the hull only at its end, I/5."""
    spec = equatorial_polytope(5)
    target = np.diag([1.0, 0.0, 0.0, 0.0, 0.0])
    out = lp_membership(spec, target)
    assert not out.feasible
    assert abs(out.distance - 1.0) < 1e-12
    assert verify_certificate(spec, target, out.certificate) > 0.0


def test_non_hermitian_target_is_rejected_before_any_lp():
    """herm_to_vec reads only the upper triangle, so the LP would see a
    Hermitian target that is not this one."""
    spec = stab_polytope(2)
    bad = np.array([[0.5, 0.5j], [0.5j, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        lp_membership(spec, bad)
    with pytest.raises(ValueError, match="start must be Hermitian"):
        lp_threshold(spec, bad, np.eye(2) / 2)


def test_non_hermitian_path_end_is_rejected_by_name():
    with pytest.raises(ValueError, match="end must be Hermitian"):
        lp_threshold(stab_polytope(2), np.eye(2) / 2, [[0.5, 0.5j], [0.5j, 0.5]])


def test_nan_target_is_rejected_before_any_lp():
    target = np.eye(3, dtype=complex) / 3
    target[0, 1] = np.nan
    with pytest.raises(ValueError, match="target must be Hermitian"):
        lp_membership(stab_polytope(3), target)


def test_nan_ket_is_rejected():
    kets = stab_polytope(3).kets.copy()
    kets[4, 1] = np.nan
    with pytest.raises(ValueError, match="unit kets"):
        hull.PolytopeSpec(kets)


def test_nan_witness_does_not_pass_as_a_certificate():
    with pytest.raises(NumericalInstability):
        verify_certificate(stab_polytope(3), np.eye(3) / 3, np.full((3, 3), np.nan))


def test_witness_that_does_not_separate_is_refused():
    """The identity is >= 0 on every vertex, and on the target too."""
    with pytest.raises(NumericalInstability, match="does not separate the target"):
        verify_certificate(stab_polytope(3), np.eye(3) / 3, np.eye(3))


def test_threshold_weights_that_miss_the_target_are_refused(monkeypatch):
    """Halved simplex weights, eps* among them, are off the path at eps*."""
    real = hull._simplex

    def halved(*args):
        w, *rest = real(*args)
        return (w / 2, *rest)

    monkeypatch.setattr(hull, "_simplex", halved)
    u = gate_matrix(2, ROBUST_GATE_PARAMS[2])
    with pytest.raises(NumericalInstability, match="fail to reproduce the target"):
        lp_threshold(cliff_polytope(2), choi_of_unitary(u), np.eye(4) / 4)


def test_witness_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match=r"witness must be 3 x 3, got shape \(2, 2\)"):
        verify_certificate(stab_polytope(3), np.eye(3) / 3, np.eye(2))


@pytest.mark.parametrize("floor", [-2.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_verify_certificate_refuses_a_bad_floor(floor):
    """The identity does not separate I/2 (Tr[W rho] = 1): a negative floor
    used to pass it with margin -1, and a NaN or infinite one blamed the
    certificate (NumericalInstability) for a bad argument."""
    with pytest.raises(ValueError, match="floor must be finite and >= 0"):
        verify_certificate(stab_polytope(2), np.eye(2) / 2, np.eye(2), floor=floor)


def test_target_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match="target dimension"):
        verify_certificate(stab_polytope(3), np.eye(2) / 2, -np.eye(3))


def test_non_hermitian_witness_is_rejected():
    """A separating witness plus an anti-Hermitian part: its Hermitian part
    still separates the pure non-stabilizer state, but the witness itself
    must be refused, not judged by that part."""
    spec = stab_polytope(3)
    psi = np.exp(2j * np.pi / 9 * np.array([0, 1, -1])) / np.sqrt(3)
    target = np.outer(psi, psi.conj())
    witness = lp_membership(spec, target).certificate
    assert verify_certificate(spec, target, witness) > 0.0
    skew = np.zeros((3, 3))
    skew[0, 1], skew[1, 0] = 1e-3, -1e-3
    with pytest.raises(ValueError, match="witness must be Hermitian"):
        verify_certificate(spec, target, witness + skew)


def test_lp_agrees_with_facet_description():
    """STAB has a complete facet list; the LP must reproduce it."""
    rng = np.random.default_rng(31)
    spec = stab_polytope(3)
    inside = outside = 0
    for k in range(150):
        rho = random_density(rng, 3, mix=0.6 if k % 2 else 0.0)
        facet_in = negativity(3, rho).minimum >= -1e-7
        out = lp_membership(spec, rho)
        assert facet_in == out.feasible
        inside += out.feasible
        outside += not out.feasible
    assert inside > 10 and outside > 10


def test_membership_monotone_along_depolarizing_path():
    rng = np.random.default_rng(8)
    spec = stab_polytope(3)
    for _ in range(4):
        rho = random_density(rng, 3)
        flags = [lp_membership(spec, depolarized_state(3, rho, e)).feasible
                 for e in np.linspace(0, 1, 13)]
        assert flags == sorted(flags), flags


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_state_threshold_closed_vs_lp_probes(p):
    """Closed form must sit within 1e-5 of the LP membership switch for
    every gate in the family."""
    spec = stab_polytope(p)
    gps = [GateParams(z, g, e) for z in range(p) for g in range(p)
           for e in range(p)]
    for gp in gps:
        psi = gate_state(p, gp)
        star = threshold_depol_state(p, psi).epsilon_star
        rho = np.outer(psi, psi.conj())
        if star > 1e-5:
            below = lp_membership(spec, depolarized_state(p, rho, star - 1e-5))
            assert not below.feasible, gp
        above = lp_membership(spec, depolarized_state(p, rho, star + 1e-5))
        assert above.feasible, gp


@pytest.mark.parametrize("p,want_pct", [(2, 14.6447), (3, 36.7267),
                                        (5, 64.0), (7, 73.2697)])
def test_pd_gate_closed_form(p, want_pct):
    psi = gate_state(p, ROBUST_GATE_PARAMS[p])
    got = 100 * threshold_pd_gate(p, psi).epsilon_star
    assert abs(got - want_pct) < 5e-3


@pytest.mark.parametrize("p", (2, 3))
def test_pd_gate_lp_cross_check(p):
    """The dephasing path reaches I/p at eps = (p-1)/p, so the LP runs to
    I/p and its eps* is scaled by (p-1)/p."""
    psi = gate_state(p, ROBUST_GATE_PARAMS[p])
    closed = threshold_pd_gate(p, psi).epsilon_star
    lp = (p - 1) / p * lp_threshold(equatorial_polytope(p), phase_damped_state(p, psi, 0.0),
                                    np.eye(p) / p).epsilon_star
    assert abs(closed - lp) < 1e-4


@pytest.mark.parametrize("p", (2, 3))
def test_pd_gate_choi_route(p):
    """Dephasing threshold from the gate's own Choi state, no superposition
    image: the path runs from J_U to its output fully dephased over the
    Clifford polytope, and (p-1)/p eps* is the closed form.  At p=2 this is
    (2 - sqrt(2))/4 = 14.6447%, not the recorded 14.65%."""
    j = choi_of_unitary(gate_matrix(p, ROBUST_GATE_PARAMS[p]))
    zs = [np.kron(np.eye(p), np.linalg.matrix_power(pauli_z(p), k)) for k in range(p)]
    dephased = sum(z @ j @ z.conj().T for z in zs) / p
    r = lp_threshold(cliff_polytope(p), j, dephased)
    closed = threshold_pd_gate(p, gate_state(p, ROBUST_GATE_PARAMS[p])).epsilon_star
    assert abs((p - 1) / p * r.epsilon_star - closed) < 1e-6
    if p == 2:
        assert abs(closed - (2 - np.sqrt(2)) / 4) < 1e-12
        assert abs(closed - RECORDED_PD_GATE[2]) > 5e-5


def test_depol_gate_thresholds():
    r2 = threshold_depol_gate(2, ROBUST_GATE_PARAMS[2])
    assert abs(100 * r2.epsilon_star - 45.32) < 0.05
    r3 = threshold_depol_gate(3, ROBUST_GATE_PARAMS[3])
    assert abs(100 * r3.epsilon_star - 78.63) < 0.05
    assert r3.bracket <= 1e-4


def test_depol_gate_clifford_is_inside():
    spec = cliff_polytope(2)
    r = threshold_depol_gate(2, GateParams(0, 0, 0))
    assert r.epsilon_star == 0.0
    assert r.method == "lp" and r.witness is None and r.margin is None
    resid = np.einsum("n,nij->ij", r.weights, spec.vertices) - choi_of_unitary(np.eye(2))
    assert np.max(np.abs(resid)) <= 10 * LP_TOL


@pytest.mark.parametrize("p", (2, 3))
def test_lp_threshold_two_sided_evidence(p):
    """Weights put the target inside at eps*; the witness separates it,
    against every vertex, at eps* - bracket."""
    spec = cliff_polytope(p)
    u = gate_exponents(p, ROBUST_GATE_PARAMS[p]).matrix()
    r = lp_threshold(spec, depolarized_choi(p, u, 0.0), depolarized_choi(p, u, 1.0))
    assert r.method == "lp" and r.pivots > 0 and r.orbits == spec.n_vertices
    assert 0.0 < r.bracket <= 1e-6
    w = r.weights
    assert w.shape == (spec.n_vertices,) and w.min() >= 0.0
    resid = (np.einsum("n,nij->ij", w, spec.vertices)
             - depolarized_choi(p, u, r.epsilon_star))
    assert np.max(np.abs(resid)) <= 10 * LP_TOL
    wit = r.witness
    assert np.max(np.abs(wit - wit.conj().T)) < 1e-12
    assert abs(np.max(np.abs(np.linalg.eigvalsh(wit))) - 1.0) < 1e-12
    below = depolarized_choi(p, u, r.epsilon_star - r.bracket)
    margin = verify_certificate(spec, below, wit, floor=0.0)
    assert margin == pytest.approx(r.margin) and margin > 0.0


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_stab_lp_route_matches_closed_form(p):
    psi = gate_state(p, ROBUST_GATE_PARAMS[p])
    rho = np.outer(psi, psi.conj())
    closed = threshold_depol_state(p, psi)
    lp = lp_threshold(stab_polytope(p), depolarized_state(p, rho, 0.0),
                      depolarized_state(p, rho, 1.0))
    assert closed.method == "closed-form"
    assert lp.method == "lp" and lp.margin > 0.0 and lp.bracket <= 1e-6
    assert abs(lp.epsilon_star - closed.epsilon_star) < 1e-6


def test_lp_threshold_beyond_path_end_raises():
    """The path to the 30%-depolarised gate meets CLIFF only past its end,
    at eps* = 1.51."""
    u = gate_exponents(2, ROBUST_GATE_PARAMS[2]).matrix()
    with pytest.raises(NumericalInstability, match="beyond the path end"):
        lp_threshold(cliff_polytope(2), choi_of_unitary(u), depolarized_choi(2, u, 0.3))


@pytest.mark.parametrize("p", (2, 3))
def test_lp_threshold_matches_highs(p):
    """Independent oracle: the same LP solved by scipy's HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    spec = cliff_polytope(p)
    u = gate_exponents(p, ROBUST_GATE_PARAMS[p]).matrix()
    start, end = choi_of_unitary(u), np.eye(p * p) / p ** 2
    a = np.column_stack([
        np.stack([np.append(herm_to_vec(v), 1.0) for v in spec.vertices], axis=1),
        np.append(herm_to_vec(start - end), 0.0),
    ])
    b = np.append(herm_to_vec(start), 1.0)
    c = np.zeros(a.shape[1])
    c[-1] = 1.0
    res = optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0
    full = lp_threshold(spec, start, end).epsilon_star
    orbit = threshold_depol_gate(p, ROBUST_GATE_PARAMS[p]).epsilon_star
    assert abs(full - res.fun) < 1e-7
    assert abs(orbit - res.fun) < 1e-7


@pytest.mark.parametrize("p", (2, 3, 5))
def test_orbit_lp_matches_full_lp(p):
    """The full LP over every vertex is the oracle; at p=5 it takes 6.7-7.4 s
    (one BLAS thread, shared 2-vCPU Xeon)."""
    u = gate_matrix(p, ROBUST_GATE_PARAMS[p])
    orbit = threshold_depol_gate(p, ROBUST_GATE_PARAMS[p])
    full = lp_threshold(cliff_polytope(p), depolarized_choi(p, u, 0.0),
                        depolarized_choi(p, u, 1.0))
    assert abs(orbit.epsilon_star - full.epsilon_star) < 1e-9
    assert orbit.orbits < full.orbits == cliff_polytope(p).n_vertices


@pytest.mark.parametrize("p,orbits,pct", [(2, 5, 45.308184), (3, 14, 78.632683),
                                          (5, 36, 95.238095), (7, 66, 97.631108)])
def test_orbit_lp_counts_and_values(p, orbits, pct):
    """The pivot counts pin the orbit LP's coordinates: another basis or
    column order takes another pivot path."""
    r = threshold_depol_gate(p, ROBUST_GATE_PARAMS[p])
    assert r.method == "lp" and r.orbits == orbits
    assert r.pivots == {2: 5, 3: 7, 5: 12, 7: 15}[p]
    assert abs(100 * r.epsilon_star - pct) < 1e-5


def _sign_order(values):
    """Sign of every pairwise difference, ties to 1e-9 counting as 0."""
    return np.sign(np.subtract.outer(values, values).round(9))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_robust_gate_is_the_most_robust_in_its_family(p):
    """The depolarising-gate threshold depends on (z, gamma, eps) only
    through +-gamma: z and eps multiply the gate by a diagonal Clifford,
    and complex conjugation maps gamma to -gamma, leaving CLIFF and I/p^2
    in place.  Over the +-gamma classes ROBUST_GATE_PARAMS attains the
    largest threshold, and the thresholds are ordered as the negativities
    of the gate states: at p=5 every gamma != 0 ties at 20/21."""
    def eps_star(g):
        return threshold_depol_gate(p, g).epsilon_star

    classes = range(p // 2 + 1)
    if p <= 3:
        # the whole family
        sample = [GateParams(*g) for g in np.ndindex(p, p, p)]
    else:
        rng = np.random.default_rng(p)
        sample = [ROBUST_GATE_PARAMS[p]] + [GateParams(*map(int, rng.integers(0, p, 3)))
                                            for _ in range(2)]
    per_class = {c: eps_star(GateParams(0, c, 0)) for c in classes}
    got = {g: eps_star(g) for g in sample}
    for g, e in got.items():
        assert abs(e - per_class[min(g.gamma, p - g.gamma)]) < 1e-9, g
    assert abs(got[ROBUST_GATE_PARAMS[p]] - max(per_class.values())) < 1e-9
    neg = [negativity(p, gate_state(p, GateParams(0, c, 0))).value for c in classes]
    assert np.array_equal(_sign_order(list(per_class.values())), _sign_order(neg))
    if p == 5:
        assert all(abs(e - 20 / 21) < 1e-9 for c, e in per_class.items() if c)


def test_orbit_lp_evidence_over_every_p7_vertex():
    """Weights and witness of the 66-orbit LP, checked against all 16464
    Clifford Choi states rather than against the orbit averages."""
    spec = cliff_polytope(7)
    u = gate_matrix(7, ROBUST_GATE_PARAMS[7])
    r = threshold_depol_gate(7, ROBUST_GATE_PARAMS[7])
    w = r.weights
    assert w.shape == (16464,) and w.min() >= 0.0 and abs(w.sum() - 1.0) < 1e-12
    resid = spec.mixture(w) - depolarized_choi(7, u, r.epsilon_star)
    assert np.max(np.abs(resid)) <= 10 * LP_TOL
    assert 0.0 < r.bracket <= 1e-7
    below = depolarized_choi(7, u, r.epsilon_star - r.bracket)
    margin = verify_certificate(spec, below, r.witness, floor=0.0)
    assert margin == pytest.approx(r.margin) and margin > 0.0


@pytest.mark.parametrize("p,u", [(2, np.diag([1.0, np.exp(0.3j)]))])  # not third level
def test_orbit_lp_rejects_gates_without_the_symmetry(p, u):
    """C -> (U X^dag U^dag) C X fixes J_U and I/p^2 but permutes the
    Clifford Choi kets only when U is third level."""
    x = pauli_x(p)
    with pytest.raises(SymmetryViolation, match="does not permute"):
        lp_threshold(cliff_polytope(p), depolarized_choi(p, u, 0.0), depolarized_choi(p, u, 1.0),
                     maps=[(u @ x.conj().T @ u.conj().T, x)])


def test_orbit_lp_rejects_a_map_that_moves_the_path():
    """C -> X^dag C X permutes the Clifford Choi kets but does not fix J_T."""
    t = gate_matrix(2, ROBUST_GATE_PARAMS[2])
    x = pauli_x(2)
    with pytest.raises(SymmetryViolation, match="moves the threshold path"):
        lp_threshold(cliff_polytope(2), choi_of_unitary(t), np.eye(4) / 4,
                     maps=[(x.conj().T, x)])


# The simplex before it priced against the structural matrix in place,
# kept as an oracle: it builds the dense signed system [A diag(sign) | I],
# prices every column, artificials included, and allocates a new basis
# inverse at every pivot.  The structural columns are priced by y @ A, the
# BLAS call ``_simplex`` makes, so that the two agree bit for bit under any
# kernel; the artificials' prices y @ I are y itself.

def _oracle_pivot_loop(cols, rhs, cost, basis, binv, xb, banned, n, forced):
    m = len(basis)
    piv_tol = 1e-9
    stall = 0
    bland = False
    for it in range(10000 + 60 * m):
        if it % 100 == 99:
            binv = np.linalg.inv(cols[:, basis])
            xb = np.maximum(binv @ rhs, 0.0)
        y = cost[basis] @ binv
        rc = cost - np.concatenate([y @ cols[:, :n], y])
        rc[banned] = np.inf
        rc[basis] = np.inf
        if bland:
            cand = np.flatnonzero(rc < -piv_tol)
            if cand.size == 0:
                break
            j = int(cand[0])
        else:
            j = int(np.argmin(rc))
            if rc[j] >= -piv_tol:
                break
        d = binv @ cols[:, j]
        dmax = float(np.max(np.abs(d))) if d.size else 0.0
        d_tol = 1e-9 * max(1.0, dmax)
        pos = d > d_tol
        ratios = np.full(m, np.inf)
        ratios[pos] = xb[pos] / d[pos]
        if forced:
            ratios[(basis >= n) & (np.abs(d) > d_tol)] = 0.0
        best = float(ratios.min())
        if best == np.inf:
            raise NumericalInstability("unbounded pivot column in the simplex")
        ties = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))
        r = int(ties[np.argmax(np.abs(d[ties]))])
        if basis[r] >= n:
            banned[basis[r]] = True
        step = ratios[r]
        xb = np.maximum(xb - step * d, 0.0)
        xb[r] = step
        pivot_row = binv[r] / d[r]
        binv = binv - np.outer(d, pivot_row)
        binv[r] = pivot_row
        basis[r] = j
        if step < 1e-13:
            stall += 1
            if stall > 8 * m:
                bland = True
        else:
            stall = 0
    else:
        raise NumericalInstability("simplex did not terminate")
    return binv, xb, it + 1


def _oracle_simplex(a, b, cost):
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    cols = np.hstack([a * sign[:, None], np.eye(m)])
    rhs = b * sign
    phase_cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    banned = np.zeros(n + m, dtype=bool)
    binv, xb, iters = _oracle_pivot_loop(cols, rhs, phase_cost, basis, np.eye(m),
                                         rhs.copy(), banned, n, forced=False)

    def refactor():
        binv = np.linalg.inv(cols[:, basis])
        return binv, np.maximum(binv @ rhs, 0.0)

    binv, xb = refactor()
    if phase_cost[basis] @ xb > LP_TOL:
        raise NumericalInstability("no feasible point to start phase 2 from")
    phase_cost = np.concatenate([cost, np.zeros(m)])
    banned[n:] = True
    binv, xb, more = _oracle_pivot_loop(cols, rhs, phase_cost, basis, binv, xb,
                                        banned, n, forced=True)
    binv, xb = refactor()
    w = np.zeros(n + m)
    w[basis] = xb
    y = (phase_cost[basis] @ binv) * sign
    return np.maximum(w[:n], 0.0), y, iters + more


@pytest.mark.parametrize("args, message", [
    (([[1.0, 1.0]], [-1.0], [0.0, 0.0]), "no feasible point to start phase 2 from"),
    (([[1.0, -1.0]], [1.0], [0.0, -1.0]), "unbounded pivot column"),
], ids=["infeasible", "unbounded"])
def test_simplex_fails_closed_as_the_oracle_does(args, message):
    """w_1 + w_2 = -1 has no w >= 0; w_1 - w_2 = 1 lets w_2 grow without
    bound, and the cost -w_2 with it."""
    args = tuple(np.array(x) for x in args)
    for simplex in (hull._simplex, _oracle_simplex):
        with pytest.raises(NumericalInstability, match=message):
            simplex(*args)


def _assert_matches_oracle(args, got):
    w, y, iters = _oracle_simplex(*args)
    assert np.array_equal(got[0], w) and np.array_equal(got[1], y)
    assert got[2] == iters


def _simplex_calls(monkeypatch, run):
    """Run ``run()`` and return (args, result) of each ``hull._simplex`` call."""
    calls = []
    real = hull._simplex

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(hull, "_simplex", spy)
    out = run()
    monkeypatch.undo()
    return calls, out


def test_one_depol_gate_lp_per_gate_per_process(monkeypatch, capsys):
    """``table2``, ``table3`` and ``threshold`` at p = 3 share one LP, and
    the cached result's evidence arrays cannot be written."""
    hull._depol_gate_threshold.cache_clear()

    def run():
        return [cli.main([*argv, "--p", "3"]) for argv in (["table2"], ["table3"], ["threshold"])]

    calls, codes = _simplex_calls(monkeypatch, run)
    capsys.readouterr()
    assert codes == [0, 0, 0] and len(calls) == 1
    r = threshold_depol_gate(3, GateParams(4, 5, 3))  # the robust (1, 2, 0) mod 3
    assert r is threshold_depol_gate(3, ROBUST_GATE_PARAMS[3])
    for a in (r.weights, r.witness):
        with pytest.raises(ValueError):
            a[0] = 0


@pytest.mark.parametrize("make", (stab_polytope, equatorial_polytope, cliff_polytope))
@pytest.mark.parametrize("p", (2, 3))
def test_membership_pivots_match_dense_oracle(monkeypatch, make, p):
    """Membership is one threshold LP toward the barycentre: the same
    pivots, bit for bit, on targets inside and outside."""
    spec = make(p)
    inside = spec.mixture(np.random.default_rng(p).dirichlet(np.ones(spec.n_vertices)))
    if make is cliff_polytope:
        outside = choi_of_unitary(gate_matrix(p, ROBUST_GATE_PARAMS[p]))
    else:
        psi = gate_state(p, ROBUST_GATE_PARAMS[p])
        outside = np.outer(psi, psi.conj())
    feasible = []
    for target in (inside, outside):
        calls, out = _simplex_calls(monkeypatch, lambda: lp_membership(spec, target))
        ((args, got),) = calls
        _assert_matches_oracle(args, got)
        assert (out.iterations, out.refactorisations, out.bland) == tuple(got[2:])
        feasible.append(out.feasible)
    assert feasible == [True, False]


@pytest.mark.parametrize("p", (2, 3))
def test_lp_threshold_pivots_match_dense_oracle(monkeypatch, p):
    """Phase 2 too: the full threshold LP over every CLIFF vertex."""
    u = gate_matrix(p, ROBUST_GATE_PARAMS[p])
    calls, r = _simplex_calls(monkeypatch, lambda: lp_threshold(
        cliff_polytope(p), depolarized_choi(p, u, 0.0), depolarized_choi(p, u, 1.0)))
    ((args, got),) = calls
    _assert_matches_oracle(args, got)
    assert (r.pivots, r.refactorisations, r.bland) == tuple(got[2:])


@pytest.mark.parametrize("dense_cost", (False, True))
def test_seeded_lp_matches_dense_oracle_through_refactorisations(monkeypatch, dense_cost):
    """A random cost, or the threshold LP's unit cost on the last column."""
    rng = np.random.default_rng(0)
    a = np.vstack([rng.normal(size=(59, 600)), np.ones((1, 600))])
    b = a @ rng.dirichlet(np.ones(600))
    cost = rng.normal(size=600) if dense_cost else np.eye(600)[-1]
    args = (a, b, cost)
    inverses = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(m) or real_inv(m))
    got = hull._simplex(*args)
    monkeypatch.undo()
    _assert_matches_oracle(args, got)
    iters, refactorisations, bland = got[2:]
    # one inverse at the end of each phase, the rest every 100 pivots
    assert refactorisations == len(inverses) - 2
    assert refactorisations >= dense_cost and not bland
    assert all(m.flags.f_contiguous for m in inverses)


@pytest.mark.parametrize("dense_cost", (False, True))
def test_each_phase_restarts_its_refactorisation_schedule(monkeypatch, dense_cost):
    """At 80 x 800 phase 1 takes 141 pivots and refactorises once; phase 2
    must count its own 100 pivots before refactorising, as the oracle's
    separate loops do."""
    rng = np.random.default_rng(0)
    a = np.vstack([rng.normal(size=(79, 800)), np.ones((1, 800))])
    b = a @ rng.dirichlet(np.ones(800))
    cost = rng.normal(size=800) if dense_cost else np.eye(800)[-1]
    args = (a, b, cost)
    inverses = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(m) or real_inv(m))
    got = hull._simplex(*args)
    monkeypatch.undo()
    _assert_matches_oracle(args, got)
    assert got[3] == len(inverses) - 2
    assert got[2:] == ((421, 3, False) if dense_cost else (142, 1, False))


def test_systems_are_c_ordered(monkeypatch):
    """The pivot path depends on the layout of the rows ``lp_threshold``
    hands the simplex: full STAB, EQ and CLIFF at p=3 and the p=5 orbit LP."""
    hull._depol_gate_threshold.cache_clear()
    psi = gate_state(3, ROBUST_GATE_PARAMS[3])
    rho = np.outer(psi, psi.conj())
    j = choi_of_unitary(gate_matrix(3, ROBUST_GATE_PARAMS[3]))
    runs = [lambda: lp_membership(stab_polytope(3), rho),
            lambda: lp_membership(equatorial_polytope(3), rho),
            lambda: lp_membership(cliff_polytope(3), j),
            lambda: threshold_depol_gate(5, ROBUST_GATE_PARAMS[5])]
    for run in runs:
        ((args, _),), _ = _simplex_calls(monkeypatch, run)
        assert args[0].flags.c_contiguous


def test_dilution_round_trip():
    grid = np.linspace(0.0, 1.0, 1001)
    for p in (2, 3, 5, 7):
        back = np.array([dilution_inv(p, dilution(p, e)) for e in grid])
        assert np.max(np.abs(back - grid)) < 1e-14
    assert dilution(3, 0.0) == 0.0 and dilution(3, 1.0) == 1.0
    assert abs(dilution(3, 0.5815) - 0.3165) < 5e-4


def test_dilution_rejects_out_of_range():
    with pytest.raises(ValueError):
        dilution(3, 1.5)
    with pytest.raises(ValueError):
        dilution_inv(3, -0.1)


def test_load_distill_config_default_and_errors(tmp_path):
    cfg = load_distill_config()
    assert set(cfg) == {3, 5, 7}
    assert cfg[3] == 0.3165
    with pytest.raises(MissingConfig):
        load_distill_config(str(tmp_path / "absent.cfg"))
    bad = tmp_path / "bad.cfg"
    for line in ("not a key value line", "distill_threshold.3 = abc",
                 "distill_threshold.x = 0.3", "distill_threshold.3 = 1.5",
                 "distill_threshold.3 = nan", "distill_threshold.4 = 0.2",
                 "distill_threshold.-5 = 0.1"):
        bad.write_text(line + "\n")
        with pytest.raises(MissingConfig, match=f"config line.*{line}"):
            load_distill_config(str(bad))
    bad.write_text("distill_threshold.3 = 0.3165\ndistill_threshold.03 = 0.9\n")
    with pytest.raises(MissingConfig, match="repeated key in config line: distill_threshold.03"):
        load_distill_config(str(bad))
    with pytest.raises(MissingConfig, match="cannot read config file"):
        load_distill_config(str(tmp_path))
    bad.write_text("distill.3 = 0.3\n")
    with pytest.raises(MissingConfig, match="unknown config key: distill.3"):
        load_distill_config(str(bad))
    # Only None reads the shipped file; "" used to read it too.
    with pytest.raises(MissingConfig, match="cannot read config file"):
        load_distill_config("")


def test_uqc_bounds_all_dimensions():
    cfg = load_distill_config()
    b2 = uqc_bounds(2, cfg)
    assert b2.lower == b2.upper
    assert abs(b2.upper - 0.453082) < 1e-6
    assert b2.lower_provenance == "computed"
    b3 = uqc_bounds(3, cfg)
    assert abs(100 * b3.lower - 58.15) < 0.05
    assert b3.lower_provenance == "config-derived"
    assert b3.upper_provenance == "computed"
    b5 = uqc_bounds(5, cfg)
    assert abs(100 * b5.lower - 80.61) < 0.05
    assert abs(100 * b5.upper - 95.24) < 0.005 and b5.upper_provenance == "computed"
    b7 = uqc_bounds(7, cfg)
    assert abs(100 * b7.lower - 72.24) < 0.05
    assert abs(100 * b7.upper - 97.63) < 0.005 and b7.upper_provenance == "computed"


def test_uqc_bounds_missing_key():
    with pytest.raises(MissingConfig):
        uqc_bounds(5, {3: 0.3165})


@pytest.mark.parametrize("p,target", [(2, 0.10355339), (3, 0.13629796),
                                      (5, 0.16)])
def test_optimizer_reaches_known_maxima(p, target):
    opt = optimize_equatorial(p, seed=0, restarts=8)
    assert abs(opt.negativity - target) < 1e-6
    assert len(opt.theta) == p - 1
    assert len(opt.facet) == p


def test_optimizer_p7_lower_bound():
    opt = optimize_equatorial(7, seed=0, restarts=8)
    assert opt.negativity >= 0.1202 - 1e-4


def test_optimizer_deterministic():
    a = optimize_equatorial(3, seed=5, restarts=6)
    b = optimize_equatorial(3, seed=5, restarts=6)
    assert np.array_equal(a.theta, b.theta)
    assert a.negativity == b.negativity


@pytest.mark.parametrize("restarts", (2.5, "2"))
def test_optimizer_refuses_a_non_integer_restart_count(restarts):
    with pytest.raises(ValueError, match="restarts must be an integer"):
        optimize_equatorial(3, restarts=restarts)


def test_optimizer_rejects_empty_starts():
    with pytest.raises(ValueError, match="restarts"):
        optimize_equatorial(3, restarts=-3)
    # the lattice alone supplies the starts
    opt = optimize_equatorial(2, restarts=0)
    assert abs(opt.negativity - 0.10355339) < 1e-6


# The serial optimiser that the batched descent replaced, kept as an oracle:
# one start at a time, one golden-section step per _neg_batch call.

def _serial_descent(p, theta, rounds=4, grid=48):
    theta = theta.copy()
    best = float(hull._neg_batch(p, theta[None, :])[0])
    offsets = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    for _ in range(rounds):
        improved = False
        for j in range(p - 1):
            trial = np.repeat(theta[None, :], grid, axis=0)
            trial[:, j] = (theta[j] + offsets) % (2 * np.pi)
            vals = hull._neg_batch(p, trial)
            k = int(np.argmax(vals))
            if vals[k] > best + 1e-14:
                theta, best = trial[k], float(vals[k])
                improved = True
            lo, hi = theta[j] - 2 * np.pi / grid, theta[j] + 2 * np.pi / grid
            gr = (np.sqrt(5.0) - 1.0) / 2.0
            x1, x2 = hi - gr * (hi - lo), lo + gr * (hi - lo)
            for _ in range(40):
                t1, t2 = theta.copy(), theta.copy()
                t1[j], t2[j] = x1 % (2 * np.pi), x2 % (2 * np.pi)
                v = hull._neg_batch(p, np.stack([t1, t2]))
                if v[0] > v[1]:
                    hi, x2 = x2, x1
                    x1 = hi - gr * (hi - lo)
                else:
                    lo, x1 = x1, x2
                    x2 = lo + gr * (hi - lo)
            mid = theta.copy()
            mid[j] = (0.5 * (lo + hi)) % (2 * np.pi)
            v = float(hull._neg_batch(p, mid[None, :])[0])
            if v > best:
                theta, best = mid, v
                improved = True
        if not improved:
            break
    return theta, best


def _lattice_order(vals):
    """Lattice indices by score rounded to 12 decimals, descending, then
    by index, ascending: the tie rule of optimize_equatorial."""
    return np.lexsort((np.arange(len(vals)), -np.round(vals, 12)))


def _full_lattice(p):
    """Every root-of-unity lattice point, in index order, and its score."""
    r = root_order(p)
    ks = np.indices((r,) * (p - 1)).reshape(p - 1, -1).T
    lat = 2 * np.pi * ks / r
    return lat, hull._neg_batch(p, lat)


def _serial_optimize(p, seed, restarts):
    rng = np.random.default_rng(seed)
    starts = [rng.uniform(0.0, 2 * np.pi, size=p - 1) for _ in range(restarts)]
    lat, vals = _full_lattice(p)
    order = _lattice_order(vals)
    starts.extend(lat[i] for i in order[:8])
    best_theta, best_val = None, -1.0
    for theta in starts:
        cand_theta, cand_val = _serial_descent(p, np.asarray(theta, dtype=float))
        if cand_val > best_val:
            best_theta, best_val = cand_theta, cand_val
    state = np.concatenate([[1.0], np.exp(1j * best_theta)]) / np.sqrt(p)
    return best_theta, best_val, negativity(p, state).facet[1:]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_batched_descent_matches_serial_per_start(p):
    starts = np.random.default_rng(100 + p).uniform(0.0, 2 * np.pi, size=(10, p - 1))
    thetas, vals = hull._batched_coordinate_descent(p, starts)
    for start, theta, val in zip(starts, thetas, vals):
        want_theta, want_val = _serial_descent(p, start)
        assert np.array_equal(theta, want_theta)
        assert val == want_val


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("restarts", (24, 8))
def test_optimizer_matches_serial_oracle(p, restarts):
    for seed in (0, 1, 2):
        opt = optimize_equatorial(p, seed=seed, restarts=restarts)
        theta, val, facet = _serial_optimize(p, seed, restarts)
        assert np.array_equal(opt.theta, theta)
        assert opt.negativity == val
        assert opt.facet == facet


def _neg_batch_oracle(p, thetas):
    """The per-basis minimum over squared moduli, as _neg_batch took it
    before it took a running minimum over the moduli."""
    states = np.empty((thetas.shape[0], p), dtype=complex)
    states[:, 0] = 1.0
    states[:, 1:] = np.exp(1j * thetas)
    states /= np.sqrt(p)
    amps = np.einsum("bkj,Bj->Bbk", hull.mub_vectors(p).conj(), states)
    q = np.abs(amps) ** 2
    return np.maximum(0.0, -(q.min(axis=2).sum(axis=1) - 1.0) / p)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_neg_batch_matches_squared_minimum_oracle(p):
    rng = np.random.default_rng(300 + p)
    starts = 32  # optimize_equatorial's default: 24 random and 8 lattice starts
    for size in (1, 2 * starts, 48 * starts):
        thetas = rng.uniform(0.0, 2 * np.pi, size=(size, p - 1))
        assert np.array_equal(hull._neg_batch(p, thetas), _neg_batch_oracle(p, thetas))
    if p <= 5:
        # lattice points have tied per-basis minima
        r = root_order(p)
        lat = 2 * np.pi * np.indices((r,) * (p - 1)).reshape(p - 1, -1).T / r
        assert np.array_equal(hull._neg_batch(p, lat), _neg_batch_oracle(p, lat))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_blocked_neg_batch_equals_default_block(monkeypatch, p):
    thetas = np.random.default_rng(400 + p).uniform(0.0, 2 * np.pi, size=(1536, p - 1))
    want = hull._neg_batch(p, thetas)
    monkeypatch.setattr(geometry, "_BLOCK_ROWS", 7)
    assert np.array_equal(hull._neg_batch(p, thetas), want)


def test_equatorial_working_set_stays_small():
    """The p = 7 descent scores 512 states per block (1.27 MB traced); the
    whole 1,536-state grid calls and 2,401 lattice orbits took 3.73 MB."""
    np.random.default_rng(0)  # imports numpy.random outside the trace
    tracemalloc.start()
    try:
        optimize_equatorial(7, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("p,calls,rows", [(5, 674, 37497), (7, 1010, 59133)])
def test_descent_work_is_pinned(monkeypatch, p, calls, rows):
    # one new golden-section point per step: two per step would give
    # 53,721 rows at p = 5 and 83,703 at p = 7 for the same calls
    seen = [0, 0]
    neg_batch = hull._neg_batch

    def counted(p, thetas):
        seen[0] += 1
        seen[1] += len(thetas)
        return neg_batch(p, thetas)

    monkeypatch.setattr(hull, "_neg_batch", counted)
    optimize_equatorial(p, seed=0)
    assert seen == [calls, rows]


@pytest.mark.parametrize("p", (3, 5))
def test_optimizer_value_disagreeing_with_state_raises(monkeypatch, p):
    neg_batch = hull._neg_batch
    monkeypatch.setattr(hull, "_neg_batch", lambda p, thetas: neg_batch(p, thetas) + 1e-9)
    with pytest.raises(NumericalInstability, match="differs"):
        optimize_equatorial(p, seed=0, restarts=4)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_orbit_scores_match_full_lattice(p):
    r = root_order(p)
    full = _full_lattice(p)[1]
    shifts = hull._diagonal_clifford_shifts(p)
    assert len(shifts) == (p * p if p >= 5 else 1)
    n_orbits = len(full) // len(shifts)
    assert n_orbits == {2: 8, 3: 81, 5: 25, 7: 2401}[p]
    # orbit i holds the representative i (ks_1 = ks_2 = 0) shifted by each row
    reps = np.array(np.unravel_index(np.arange(n_orbits), (r,) * (p - 1))).T
    members = np.ravel_multi_index(
        np.moveaxis((reps[:, None] + shifts) % r, -1, 0), (r,) * (p - 1))
    assert np.array_equal(np.sort(members, axis=None), np.arange(len(full)))
    assert np.max(np.abs(full[members] - full[:n_orbits, None])) < 1e-12
    assert np.array_equal(hull._lattice_starts(p), _lattice_order(full)[:8])


def _swap_rows_across_bases(vecs):
    vecs[[1, 2], 0] = vecs[[2, 1], 0]


def _repeat_a_basis(vecs):
    vecs[1] = vecs[2]


def _repeat_a_vector(vecs):
    """Z and diag(omega^(k^2)) fix the Z basis, so only the one-to-one
    check fails."""
    vecs[0, 1] = vecs[0, 0]


def _tilt_a_vector(vecs):
    """A unit ket off the MUBs that still overlaps its own image most, so
    only the overlap check fails."""
    vecs[0, 0] = np.array([1.0, 0.01] + [0.0] * (len(vecs[0, 0]) - 2)) / np.hypot(1.0, 0.01)


@pytest.mark.parametrize("corrupt", (_swap_rows_across_bases, _repeat_a_basis, _repeat_a_vector,
                                     _tilt_a_vector))
def test_broken_diagonal_symmetry_raises(monkeypatch, corrupt):
    corrupted = {p: np.array(hull.mub_vectors(p)) for p in (5, 7)}
    for vecs in corrupted.values():
        corrupt(vecs)
    monkeypatch.setattr(hull, "mub_vectors", corrupted.__getitem__)
    for p in (5, 7):
        with pytest.raises(SymmetryViolation):
            optimize_equatorial(p)
