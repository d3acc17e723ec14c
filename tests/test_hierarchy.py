"""Exact exponent arithmetic for the diagonal gate family.

The closed-form exponent vectors are checked against an independent
oracle that iterates the defining recurrence; the oracle is implemented
here, in the tests, so the two routes share no code.
"""

import functools
import json
import math
from itertools import product

import numpy as np
import pytest

from quditgates.errors import NotDiagonal, NotUnitary, ShapeMismatch, UnsupportedDim
from quditgates.hierarchy import (
    DiagGateExact,
    GateParams,
    compose_params,
    element_order,
    gate_exponents,
    gate_matrix,
    group_structure,
    identify_third_level,
    magic_gate,
    magic_gate_matrix,
    _invariant_factors,
    pauli_conjugation,
    root_order,
)
from quditgates.kernel import equal_up_to_global_phase, mod_inv
from quditgates.weylheis import CliffordLabel, clifford_unitary, displacement


def oracle_exponents(p, z, g, e):
    """Iterate v_{k+1} = v_k + k(2^-1 k g + z) + 2^-1 z + e mod p (p > 3)."""
    assert p > 3
    half = mod_inv(2, p)
    v = [0]
    for k in range(p - 1):
        v.append((v[-1] + k * (half * k * g + z) + half * z + e) % p)
    return tuple(v)


def all_params(p):
    return [GateParams(z, g, e)
            for z in range(p) for g in range(p) for e in range(p)]


@pytest.mark.parametrize("p", (5, 7))
def test_closed_form_matches_recurrence_oracle(p):
    for gp in all_params(p):
        exact = gate_exponents(p, gp)
        assert exact.root_order == p
        want = oracle_exponents(p, gp.z, gp.gamma, gp.eps)
        assert exact.exps == want, gp


@pytest.mark.parametrize("field,args", [
    ("z", (1.5, 2, 0)), ("gamma", (1, 2.0, 0)), ("eps", (1, 2, "0")), ("z", (None, 2, 0)),
])
def test_gate_params_reject_what_is_not_an_integer(field, args):
    """A non-integer residue is refused, not truncated to its int."""
    with pytest.raises(ValueError, match=f"GateParams.{field} must be an integer"):
        GateParams(*args)


def test_gate_params_hold_python_ints():
    g = GateParams(np.int64(1), np.int32(4), 0)
    assert g == GateParams(1, 4, 0)
    assert all(type(x) is int for x in g.astuple())
    assert gate_exponents(5, g).exps == (0, 3, 4, 2, 1)


def test_worked_exponent_examples():
    assert gate_exponents(5, GateParams(1, 4, 0)).exps == (0, 3, 4, 2, 1)
    assert gate_exponents(3, GateParams(1, 2, 0)).exps == (0, 1, 8)
    assert gate_exponents(7, GateParams(1, 2, 0)).exps == (0, 4, 3, 6, 1, 4, 3)


def test_p2_embedding():
    # k = 2z + g + 4e mod 8; the nonzero exponent lives on |1>
    assert gate_exponents(2, GateParams(0, 1, 0)).exps == (0, 1)
    assert gate_exponents(2, GateParams(1, 0, 0)).exps == (0, 2)
    assert gate_exponents(2, GateParams(0, 0, 1)).exps == (0, 4)
    assert root_order(2) == 8 and root_order(3) == 9 and root_order(5) == 5


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_composition_matches_matrix_product(p):
    """Every pair at p = 2 and 3, where the mod-8 and mod-9 exponents make
    composition more than a sum of residues; a seeded sample at p = 5, 7."""
    params = all_params(p)
    if p <= 3:
        pairs = list(product(params, repeat=2))
    else:
        rng = np.random.default_rng(23 + p)
        pairs = [(params[rng.integers(len(params))], params[rng.integers(len(params))])
                 for _ in range(60)]
    for g1, g2 in pairs:
        g12 = compose_params(p, g1, g2)
        left = gate_matrix(p, g1) @ gate_matrix(p, g2)
        assert np.max(np.abs(left - gate_matrix(p, g12))) < 1e-12, (g1, g2)


def test_composition_worked_examples():
    got = compose_params(3, GateParams(1, 2, 0), GateParams(0, 2, 0))
    assert got.astuple() == (1, 1, 2)
    got = compose_params(5, GateParams(1, 4, 0), GateParams(2, 3, 1))
    assert got.astuple() == (3, 2, 1)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_exponent_vectors_injective(p):
    seen = {gate_exponents(p, gp).exps for gp in all_params(p)}
    assert len(seen) == p ** 3


def test_element_orders():
    assert element_order(2, GateParams(0, 1, 0)) == 8
    assert element_order(3, GateParams(1, 2, 0)) == 9
    assert element_order(5, GateParams(1, 4, 0)) == 5
    assert element_order(3, GateParams(0, 0, 0)) == 1


@pytest.mark.parametrize("p,name,hist,gens", [
    (2, "Z8", {1: 1, 2: 1, 4: 2, 8: 4}, 1),
    (3, "Z9 x Z3", {1: 1, 3: 8, 9: 18}, 2),
    (5, "Z5 x Z5 x Z5", {1: 1, 5: 124}, 3),
    (7, "Z7 x Z7 x Z7", {1: 1, 7: 342}, 3),
])
def test_group_structure(p, name, hist, gens):
    rep = group_structure(p)
    assert rep.size == p ** 3
    assert rep.group_name == name
    assert rep.order_histogram == hist
    assert rep.min_generators == gens


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_group_histogram_matches_element_order_oracle(p):
    """Table 1's one array pass against ``element_order`` on each triple,
    itself held to the least n with n * exps = 0 mod the root order."""
    root = root_order(p)
    oracle = {}
    for gp in all_params(p):
        o = element_order(p, gp)
        exps = gate_exponents(p, gp).exps
        assert o == min(n for n in range(1, root + 1) if all(n * u % root == 0 for u in exps))
        oracle[o] = oracle.get(o, 0) + 1
    hist = group_structure(p).order_histogram
    assert hist == oracle and list(hist) == sorted(oracle)
    assert all(type(k) is int and type(v) is int for k, v in hist.items())
    json.dumps(hist)


@pytest.mark.parametrize("p,factors", [
    (2, (2, 1)), (2, (1, 1, 1)), (2, (3, 1)),
    (3, (3,)), (3, (1, 1, 1)), (3, (2, 2)), (3, (2, 1, 1)),
])
def test_invariant_factors_beyond_table1(p, factors):
    # brute-force order histogram of Z_(p^a) x Z_(p^b) x ..., then recover a, b, ...
    mods = [p ** a for a in factors]
    hist = {}
    for x in product(*(range(m) for m in mods)):
        o = max(m // math.gcd(m, xi) for m, xi in zip(mods, x))
        hist[o] = hist.get(o, 0) + 1
    assert _invariant_factors(p, hist) == factors


@pytest.mark.parametrize("p", (5, 7))
def test_exponent_sum_multiple_of_p(p):
    # det of the gate is a p-th root raised to the exponent sum; the family
    # at p > 3 sits inside SU(p) up to that root, so the sum vanishes mod p
    for gp in all_params(p):
        assert sum(gate_exponents(p, gp).exps) % p == 0


def test_qutrit_determinant_rule():
    w = np.exp(2j * np.pi / 3)
    for gp in all_params(3):
        det = np.linalg.det(gate_matrix(3, gp))
        want = w ** ((gp.z + gp.gamma) % 3)
        assert abs(det - want) < 1e-10, gp


@pytest.mark.parametrize("p,params", [(3, (1, 1, 0)), (5, (2, 1, 2)), (7, (3, 1, 4))])
def test_magic_gate_identification(p, params):
    rep = magic_gate(p)
    assert rep.params.astuple() == params
    ok, phase = equal_up_to_global_phase(
        magic_gate_matrix(p), gate_matrix(p, rep.params), tol=1e-9)
    assert ok
    assert abs(phase - 1 / rep.phase) < 1e-9


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_identify_third_level_round_trip(p):
    for gp in all_params(p):
        rep = identify_third_level(p, gate_matrix(p, gp))
        assert rep.params == gp.reduced(p)
        want_kind = "clifford" if gp.gamma % p == 0 else "third_level"
        assert rep.kind == want_kind


def test_identify_rejects_outsiders():
    u = np.diag([1.0, np.exp(0.3j), np.exp(1.1j)])
    rep = identify_third_level(3, u)
    assert rep.kind == "not_third_level"
    assert rep.params is None


@pytest.mark.parametrize("p", (3, 5, 7))
def test_pauli_conjugation_against_brute_force(p):
    """The conjugation image of a displacement must be the labeled
    Clifford, including the returned scalar phase."""
    rng = np.random.default_rng(p)
    params = all_params(p)
    for _ in range(40):
        gp = params[rng.integers(len(params))]
        x = int(rng.integers(1, p))
        z = int(rng.integers(p))
        label, phase = pauli_conjugation(p, gp, x, z)
        u = gate_matrix(p, gp)
        got = u @ displacement(p, x, z) @ u.conj().T
        want = phase * clifford_unitary(label)
        assert np.max(np.abs(got - want)) < 1e-9, (gp, x, z)


def test_pauli_conjugation_rejects_p2():
    with pytest.raises(UnsupportedDim):
        pauli_conjugation(2, GateParams(0, 1, 0), 1, 0)


@functools.lru_cache(maxsize=None)
def conjugation_targets(p):
    """zeta_9**(2 gamma) omega**eps C_([1,0; gamma,1] | (1, z)) for every
    triple, the zeta_9 factor only at p = 3: the conjugate U D_(1|0) U^dag
    of the gate (z, gamma, eps)."""
    return np.array([
        (np.exp(2j * np.pi * 2 * gp.gamma / 9) if p == 3 else 1.0)
        * np.exp(2j * np.pi * gp.eps / p)
        * clifford_unitary(CliffordLabel(p, ((1, 0), (gp.gamma, 1)), (1, gp.z)))
        for gp in all_params(p)])


def conjugation_oracle(p, u, tol=1e-9):
    """Classify ``u`` by brute force: the first triple whose conjugate is
    within max(tol, 1e-8) of U D_(1|0) U^dag, entry by entry."""
    t = u @ displacement(p, 1, 0) @ u.conj().T
    hits = np.flatnonzero(np.max(np.abs(t - conjugation_targets(p)), axis=(1, 2)) <= max(tol, 1e-8))
    if not hits.size:
        return "not_third_level", None
    gp = all_params(p)[hits[0]]
    return ("clifford" if gp.gamma == 0 else "third_level"), gp


@pytest.mark.parametrize("p", (3, 5, 7))
def test_identify_third_level_matches_conjugation_oracle(p):
    """The exponent-table classifier against the brute-force conjugate
    match: every family gate under a random global phase, then seeded gates
    with phase noise and a small rotation, exactly unitary and off the
    diagonal, spread across each tolerance."""
    rng = np.random.default_rng(300 + p)
    for gp in all_params(p):
        u = np.exp(2j * np.pi * rng.random()) * gate_matrix(p, gp)
        rep = identify_third_level(p, u)
        want = "clifford" if gp.gamma == 0 else "third_level"
        assert conjugation_oracle(p, u) == (rep.kind, rep.params) == (want, gp)
    params = all_params(p)
    kinds = set()
    for tol in (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-3):
        for _ in range(60):
            u = gate_matrix(p, params[rng.integers(len(params))])
            u = u @ np.diag(np.exp(1j * max(tol, 1e-8) * rng.uniform(0, 3) * rng.normal(size=p)))
            g = rng.uniform(-1, 1, size=(p, p))
            a = 0.45 * tol * rng.uniform() * (g - g.T)
            u = np.linalg.solve(np.eye(p) - a / 2, np.eye(p) + a / 2) @ u  # Cayley: unitary
            rep = identify_third_level(p, u, tol)
            assert (rep.kind, rep.params) == conjugation_oracle(p, u, tol), (tol, u)
            kinds.add((tol, rep.kind == "not_third_level"))
    # each tolerance sees gates on both sides of its bound
    assert len(kinds) == 12


@pytest.mark.parametrize("exps", [(), (1, 0, 0)], ids=["empty", "first-not-0"])
def test_diag_gate_exact_must_start_at_exponent_0(exps):
    with pytest.raises(ValueError, match="start at 0"):
        DiagGateExact(3, exps)


@pytest.mark.parametrize("u,error", [
    (np.eye(2), ShapeMismatch),
    (np.ones((3, 3)) / np.sqrt(3), NotDiagonal),
    (np.diag([1.0, 1.0, 0.5]), NotUnitary),
], ids=["wrong-shape", "not-diagonal", "not-unitary"])
def test_identify_third_level_typed_errors(u, error):
    """A matrix of the wrong shape is a shape error, not an unsupported
    dimension: p = 3 is supported."""
    with pytest.raises(error):
        identify_third_level(3, u)


def test_magic_gate_matrix_needs_odd_p():
    with pytest.raises(UnsupportedDim, match="odd p"):
        magic_gate_matrix(2)
