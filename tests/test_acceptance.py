"""Headline-number gate for the whole package.

Ten end-to-end checks covering the exponent formulas, the diagonal-gate
group tables, the binomial gate match, edge-facet geometry, LP membership
thresholds, dilution, injection, and the noise-bound table.  Each test
prints one ``criterion NN: PASS/FAIL`` verdict on the uncaptured terminal
before asserting, so a full run always shows all ten lines.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from quditgates.errors import NotEigenvector
from quditgates.geometry import (
    clifford_eigenphase,
    depolarized_state,
    edge_facet,
    edge_scan,
    edge_spectra_classes,
    gate_state,
    inject_gate,
    negativity,
    simulate_dilution,
)
from quditgates.hierarchy import (
    GateParams,
    gate_exponents,
    gate_matrix,
    group_structure,
    magic_gate,
    magic_gate_matrix,
    pauli_conjugation,
)
from quditgates.hull import (
    LP_TOL,
    ROBUST_GATE_PARAMS,
    cliff_polytope,
    dilution,
    dilution_inv,
    lp_membership,
    optimize_equatorial,
    stab_polytope,
    threshold_depol_gate,
    threshold_pd_gate,
    uqc_bounds,
    verify_certificate,
)
from quditgates.kernel import equal_up_to_global_phase, mod_inv
from quditgates.weylheis import (
    clifford_labels,
    clifford_unitary,
    compose_cliffords,
    displacement,
)

PRIMES = (2, 3, 5, 7)


@pytest.fixture
def verdict(capfd):
    """Emit one pass/fail line per criterion, bypassing output capture."""

    def emit(num, ok, detail):
        with capfd.disabled():
            print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}",
                  flush=True)
        return ok

    return emit


def _all_params(p):
    return [GateParams(z, g, e) for z, g, e in product(range(p), repeat=3)]


def test_criterion_01_diagonal_group_tables(verdict):
    expected = {
        2: ({1: 1, 2: 1, 4: 2, 8: 4}, "Z8", 1),
        3: ({1: 1, 3: 8, 9: 18}, "Z9 x Z3", 2),
        5: ({1: 1, 5: 124}, "Z5 x Z5 x Z5", 3),
        7: ({1: 1, 7: 342}, "Z7 x Z7 x Z7", 3),
    }
    t0 = time.perf_counter()
    bad = []
    for p, (hist, name, gens) in expected.items():
        rep = group_structure(p)
        got = (rep.size, rep.order_histogram, rep.group_name, rep.min_generators)
        if got != (p ** 3, hist, name, gens):
            bad.append(f"p={p}: {rep.order_histogram} / {rep.group_name}")
    dt = time.perf_counter() - t0
    if dt >= 5.0:
        bad.append(f"runtime {dt:.2f}s over the 5s budget")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              f"order histograms and group types for p=2,3,5,7 in {dt:.2f}s")
    assert verdict(1, ok, detail), detail


def _recurrence_exponents(p, g):
    """Independent route: accumulate the first difference term by term."""
    inv2 = mod_inv(2, p)
    vals = [0]
    for k in range(p - 1):
        step = k * (inv2 * k * g.gamma + g.z) + inv2 * g.z + g.eps
        vals.append((vals[-1] + step) % p)
    return tuple(vals)


def test_criterion_02_exponent_closed_form(verdict):
    worked = {
        (3, (1, 2, 0)): (0, 1, 8),
        (5, (1, 4, 0)): (0, 3, 4, 2, 1),
        (7, (1, 2, 0)): (0, 4, 3, 6, 1, 4, 3),
    }
    bad = []
    for (p, triple), exps in worked.items():
        got = gate_exponents(p, GateParams(*triple))
        if got.exps != exps:
            bad.append(f"p={p} {triple}: {got.exps} vs {exps}")
    mismatch = 0
    for p in (5, 7):
        for g in _all_params(p):
            if gate_exponents(p, g).exps != _recurrence_exponents(p, g):
                mismatch += 1
    if mismatch:
        bad.append(f"{mismatch} closed-form/recurrence mismatches at p=5,7")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              "worked examples exact; closed form = recurrence on all "
              "468 labels at p=5,7")
    assert verdict(2, ok, detail), detail


def test_criterion_03_binomial_gate_parameters(verdict):
    expected = {3: (1, 1, 0), 5: (2, 1, 2), 7: (3, 1, 4)}
    bad = []
    for p, triple in expected.items():
        rep = magic_gate(p)
        if rep.params.astuple() != triple:
            bad.append(f"p={p}: identified {rep.params.astuple()} vs {triple}")
            continue
        resid = np.max(np.abs(gate_matrix(p, GateParams(*triple))
                              - rep.phase * magic_gate_matrix(p)))
        if resid >= 1e-9:
            bad.append(f"p={p}: phase-aligned residual {resid:.2e}")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              "binomial gates match (1,1,0)/(2,1,2)/(3,1,4) up to phase")
    assert verdict(3, ok, detail), detail


def test_criterion_04_equatorial_negativities(verdict):
    targets = {2: 0.1036, 3: 0.1363, 5: 0.1600, 7: 0.1202}
    t0 = time.perf_counter()
    values = {p: optimize_equatorial(p, seed=0, restarts=8).negativity
              for p in PRIMES}
    dt = time.perf_counter() - t0
    bad = [f"p={p}: {values[p]:.6f} vs {targets[p]}"
           for p in PRIMES if abs(values[p] - targets[p]) >= 5e-5]
    analytic = (math.sqrt(2) - 1) / 4
    if abs(values[2] - analytic) >= 1e-9:
        bad.append(f"p=2 off (sqrt(2)-1)/4 by {abs(values[2] - analytic):.2e}")
    if dt >= 10.0:
        bad.append(f"runtime {dt:.2f}s over the 10s budget")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              "maximal negativities 0.1036/0.1363/0.1600/0.1202, p=2 exact, "
              f"in {dt:.2f}s")
    assert verdict(4, ok, detail), detail


def test_criterion_05_phase_damping_thresholds(verdict):
    # p=2 is checked against its exact value: the equatorial Bloch length
    # (1 - 2 eps) sqrt(2) of the T-type state meets the octahedron facet
    # |x| + |y| = 1 at eps* = (2 - sqrt(2))/4.  The paper prints 14.65%,
    # half of the one-decimal state threshold 29.3%, which sits 0.0053pp
    # from the exact 14.6447%; that rounding is asserted as such below.
    recorded = {3: 36.73, 5: 64.00, 7: 73.27}
    exact_p2 = 100 * (2 - math.sqrt(2)) / 4
    bad = []
    closed = {}
    for p in PRIMES:
        st = gate_state(p, ROBUST_GATE_PARAMS[p])
        closed[p] = 100 * threshold_pd_gate(p, st).epsilon_star
    if abs(closed[2] - exact_p2) > 1e-6:
        bad.append(f"p=2: closed form {closed[2]:.7f}% vs exact "
                   f"(2-sqrt(2))/4 = {exact_p2:.7f}% (tolerance 1e-6pp)")
    if round(2 * closed[2], 1) / 2 != 14.65:
        bad.append(f"p=2: half the one-decimal state threshold "
                   f"{round(2 * closed[2], 1)}% is not the paper's 14.65%")
    for p, want in recorded.items():
        gap = abs(closed[p] - want)
        if gap > 0.005:
            bad.append(f"p={p}: closed form {closed[p]:.4f}% sits {gap:.4f}pp "
                       f"from the recorded {want}% (band 0.005pp)")
    for p in (2, 3):
        st = gate_state(p, ROBUST_GATE_PARAMS[p])
        lp = 100 * threshold_pd_gate(p, st, method="lp").epsilon_star
        if abs(lp - closed[p]) > 0.05:
            bad.append(f"p={p}: LP {lp:.4f}% vs closed {closed[p]:.4f}%")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              f"dephasing thresholds {closed[2]:.4f}/36.73/64.00/73.27% with "
              f"LP agreement; p=2 is the exact (2-sqrt(2))/4, the paper's "
              f"14.65% is 29.3%/2 ({closed[2] - 14.65:+.4f}pp)")
    assert verdict(5, ok, detail), detail


def test_criterion_06_depolarising_gate_thresholds(verdict):
    t0 = time.perf_counter()
    bad = []
    for p, n in ((2, 24), (3, 216), (5, 3000), (7, 16464)):
        count = cliff_polytope(p).n_vertices
        if count != n:
            bad.append(f"p={p}: {count} vertices vs {n}")
    # p=2, 3 keep the 0.05 pp band: the exact 45.3082% is 0.012 pp from the
    # printed 45.32%.  p=5, 7 are held to the paper's rounding, 0.005 pp.
    got = {}
    for p, target, band in ((2, 45.32, 0.05), (3, 78.63, 0.05),
                            (5, 95.24, 0.005), (7, 97.63, 0.005)):
        u = gate_matrix(p, ROBUST_GATE_PARAMS[p])
        got[p] = 100 * threshold_depol_gate(p, u).epsilon_star
        if abs(got[p] - target) > band:
            bad.append(f"p={p}: {got[p]:.4f}% vs {target}% (band {band} pp)")
    if uqc_bounds(7).upper_provenance != "computed":
        bad.append("p=7 upper bound must be computed")
    dt = time.perf_counter() - t0
    if dt >= 600.0:
        bad.append(f"runtime {dt:.1f}s over the 600s budget")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              "gate thresholds " + "/".join(f"{got[p]:.4f}" for p in PRIMES)
              + f"% computed over Clifford orbits in {dt:.1f}s")
    assert verdict(6, ok, detail), detail


def test_criterion_07_edge_facet_spectra(verdict):
    bad = []
    first = np.array([-2.0, 1.0, 4.0]) / 9.0
    s, c = math.sin(math.pi / 18), math.cos(math.pi / 18)
    second = np.sort(np.array([
        1 - 3 * s - math.sqrt(3) * c,
        1 + 3 * s - math.sqrt(3) * c,
        1 + 2 * math.sqrt(3) * c,
    ]) / 9.0)
    counts = {"first": 0, "second": 0, "other": 0}
    for u in product(range(3), repeat=3):
        lam = np.linalg.eigvalsh(edge_facet(3, u))
        if np.max(np.abs(lam - first)) < 1e-9:
            counts["first"] += 1
        elif np.max(np.abs(lam - second)) < 1e-9:
            counts["second"] += 1
        else:
            counts["other"] += 1
    if counts != {"first": 9, "second": 18, "other": 0}:
        bad.append(f"qutrit spectra classes {counts}")
    quint = np.array([-0.16, -0.08361, 0.04, 0.04, 0.36361])
    m5 = [n for spec, n in edge_spectra_classes(5).items()
          if np.max(np.abs(np.array(spec) - quint)) < 1e-4]
    if m5 != [100]:
        bad.append(f"p=5 distinguished class counts {m5} vs [100]")
    scans = {
        3: edge_scan(3, target=float(second[0])),
        5: edge_scan(5, target=-0.16),
        7: edge_scan(7, target=-0.1202),
    }
    for p, scan in scans.items():
        want = -(p - 1) / p ** 2
        if abs(scan.min_eigenvalue - want) >= 1e-9:
            bad.append(f"p={p}: global min {scan.min_eigenvalue:.10f} vs {want:.10f}")
    flats = {p: scans[p].window_flat_count for p in scans}
    if flats[3] != 18 or flats[5] != 100:
        bad.append(f"distinguished edge counts {flats[3]}/{flats[5]} vs 18/100")
    if flats[7] != 98:
        bad.append(f"p=7 flat count {flats[7]} vs 98")
    if scans[7].window_count != 14504:
        bad.append(f"p=7 window count {scans[7].window_count} vs 14504")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              "qutrit classes 9+18 exact, p=5 quintuple x100, global minima "
              f"-(p-1)/p^2, flat counts {flats[3]}/{flats[5]}/{flats[7]}")
    assert verdict(7, ok, detail), detail


def test_criterion_08_dilution_map(verdict):
    bad = []
    if abs(dilution(3, 0.5815) - 0.3165) >= 5e-4:
        bad.append(f"forward map gives {dilution(3, 0.5815):.5f} vs 0.3165")
    if abs(dilution_inv(3, 0.3165) - 0.5815) >= 5e-4:
        bad.append(f"inverse map gives {dilution_inv(3, 0.3165):.5f} vs 0.5815")
    rng = np.random.default_rng(8)
    worst_eps = worst_prob = 0.0
    for _ in range(50):
        p = int(rng.choice((2, 3, 5)))
        g = GateParams(*(int(v) for v in rng.integers(0, p, size=3)))
        eps = float(rng.uniform(0.02, 0.98))
        res = simulate_dilution(p, g, eps)
        worst_eps = max(worst_eps, abs(res.eps_out - dilution(p, eps)))
        worst_prob = max(worst_prob,
                         abs(res.success_prob - ((1 - eps) + eps / p)))
    if worst_eps >= 1e-10:
        bad.append(f"simulated rate off the formula by {worst_eps:.2e}")
    if worst_prob >= 1e-10:
        bad.append(f"post-selection probability off by {worst_prob:.2e}")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              "0.5815 <-> 0.3165 round trip; 50 simulated runs match the "
              f"rate map to {worst_eps:.1e} and the success law to {worst_prob:.1e}")
    assert verdict(8, ok, detail), detail


def test_criterion_09_noise_bound_table(verdict):
    bad = []
    b2 = uqc_bounds(2)
    if not (b2.lower == b2.upper and abs(100 * b2.upper - 45.32) <= 0.05):
        bad.append(f"p=2 bounds {100 * b2.lower:.4f}/{100 * b2.upper:.4f}")
    if not (b2.lower_provenance == b2.upper_provenance == "computed"):
        bad.append("p=2 provenance should be computed/computed")
    b3 = uqc_bounds(3)
    if abs(100 * b3.lower - 58.15) > 0.05 or b3.lower_provenance != "config-derived":
        bad.append(f"p=3 lower {100 * b3.lower:.4f}% ({b3.lower_provenance})")
    if abs(100 * b3.upper - 78.63) > 0.05 or b3.upper_provenance != "computed":
        bad.append(f"p=3 upper {100 * b3.upper:.4f}% ({b3.upper_provenance})")
    bounds = {2: b2, 3: b3}
    for p, lo, up in ((5, 80.61, 95.24), (7, 72.24, 97.63)):
        b = bounds[p] = uqc_bounds(p)
        if abs(100 * b.lower - lo) > 0.05 or b.lower_provenance != "config-derived":
            bad.append(f"p={p} lower {100 * b.lower:.4f}% ({b.lower_provenance})")
        if abs(100 * b.upper - up) > 0.005 or b.upper_provenance != "computed":
            bad.append(f"p={p} upper {100 * b.upper:.4f}% ({b.upper_provenance})")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              "lower bounds " + "/".join(f"{100 * bounds[p].lower:.2f}" for p in PRIMES)
              + "%, p=2 lower = upper, upper bounds "
              + "/".join(f"{100 * bounds[p].upper:.2f}" for p in PRIMES) + "% computed")
    assert verdict(9, ok, detail), detail


def test_criterion_10_structure_and_membership(verdict):
    bad = []
    rng = np.random.default_rng(10)
    # group law on Clifford labels, 200 random pairs per dimension
    comp_fail = 0
    for p in PRIMES:
        labels = clifford_labels(p)
        idx = rng.integers(0, len(labels), size=(200, 2))
        for i, j in idx:
            la, lb = labels[int(i)], labels[int(j)]
            lab = compose_cliffords(la, lb)
            okc, _ = equal_up_to_global_phase(
                clifford_unitary(la) @ clifford_unitary(lb),
                clifford_unitary(lab), 1e-9)
            comp_fail += not okc
    if comp_fail:
        bad.append(f"{comp_fail} label-composition mismatches")
    # conjugation images against bare matrix conjugation
    worst_conj = 0.0
    for p in (3, 5, 7):
        for _ in range(40):
            g = GateParams(*(int(v) for v in rng.integers(0, p, size=3)))
            x = int(rng.integers(1, p))
            z = int(rng.integers(0, p))
            label, phase = pauli_conjugation(p, g, x, z)
            u = gate_matrix(p, g)
            lhs = u @ displacement(p, x, z) @ u.conj().T
            resid = float(np.max(np.abs(lhs - phase * clifford_unitary(label))))
            worst_conj = max(worst_conj, resid)
    if worst_conj >= 1e-9:
        bad.append(f"conjugation image residual {worst_conj:.2e}")
    # stabilising-Clifford eigenphase for every parameter triple
    eig_n = 0
    try:
        for p in (3, 5):
            for g in _all_params(p):
                clifford_eigenphase(p, g, tol=1e-8)
                eig_n += 1
    except NotEigenvector as exc:
        bad.append(f"eigenphase failure after {eig_n} labels: {exc}")
    # gate injection on random inputs
    worst_fid = 1.0
    worst_prob = 0.0
    for p in PRIMES:
        u = gate_matrix(p, ROBUST_GATE_PARAMS[p])
        e0 = np.zeros(p)
        e0[0] = 1.0
        for _ in range(25):
            psi = rng.normal(size=p) + 1j * rng.normal(size=p)
            psi /= np.linalg.norm(psi)
            res = inject_gate(p, ROBUST_GATE_PARAMS[p], psi)
            target = np.kron(u @ psi, e0)
            worst_fid = min(worst_fid, abs(np.vdot(target, res.state)) ** 2)
            worst_prob = max(worst_prob, abs(res.success_prob - 1 / p))
    if worst_fid < 1 - 1e-10:
        bad.append(f"injection fidelity dropped to {worst_fid:.12f}")
    if worst_prob >= 1e-10:
        bad.append(f"injection success probability off 1/p by {worst_prob:.2e}")
    # LP membership against the facet test on 1000 qutrit states
    spec = stab_polytope(3)
    robust3 = gate_state(3, ROBUST_GATE_PARAMS[3])
    disagree = n_out = n_skip = 0
    worst_margin = np.inf
    for k in range(1000):
        kind = k % 10
        if kind < 4:
            r = int(rng.integers(1, 4))
            gmat = rng.normal(size=(3, r)) + 1j * rng.normal(size=(3, r))
            rho = gmat @ gmat.conj().T
            rho /= np.trace(rho).real
        elif kind < 7:
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
        else:
            rho = depolarized_state(3, robust3, float(rng.uniform(0.35, 0.75)))
        res = negativity(3, rho)
        out = lp_membership(spec, rho)
        if abs(res.minimum) <= 1e-7:
            n_skip += 1
            continue
        if (res.minimum > 0) != out.feasible:
            disagree += 1
        if not out.feasible:
            n_out += 1
            margin = verify_certificate(spec, rho, out.certificate,
                                        LP_TOL, floor=0.0)
            worst_margin = min(worst_margin, margin)
    if disagree:
        bad.append(f"{disagree} LP/facet disagreements")
    if n_out and worst_margin <= 0:
        bad.append("a separating certificate has nonpositive margin")
    ok = not bad
    detail = ("; ".join(bad) if bad else
              f"800 compositions, 120 conjugations, {eig_n} eigenphases, "
              f"100 injections; LP and facet tests agree on 1000 states "
              f"({n_out} outside, all certificates sound, {n_skip} within band)")
    assert verdict(10, ok, detail), detail
