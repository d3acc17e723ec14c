"""Polytope membership and thresholds by linear programming, and bound tables.

``lp_threshold`` is the one LP.  It finds the least noise rate eps putting
(1 - eps) start + eps end in the convex hull of a vertex list, by a
two-phase simplex on

    sum_i w_i vec(V_i) + eps vec(start - end) = vec(start),
    sum_i w_i = 1,   w >= 0,   eps >= 0,

over the isometric real vectorization of Hermitian operators, with one
column per orbit of optional maps that fix the path and permute the
vertices (with none, each vertex is its own orbit).  Its weights show the
target inside at eps*, and its phase-2 dual gives a Hermitian witness
separating it just below, which plays the role of the (unknown) facet
description of the Clifford polytope.  A map is a pair (L, R) of
``CliffordLabel``s, C -> L C R on the Clifford gates; only the Clifford
polytope carries maps.

Membership is that LP from the target toward the vertex barycentre: the
target is inside iff eps* = 0, and otherwise the witness separates the
target itself.  It runs over the orbits of those of the polytope's own
symmetry maps that fix the target: for CLIFF, conjugation by X, Z, a
shear and the Fourier gate, which generate the Clifford group (180
columns instead of 3000 for the depolarised p = 5 robust gate).  STAB and
EQ carry no maps.  The state and dephasing thresholds follow from closed
forms tied to facet geometry; the tests hold them against the LP.

The depolarising-gate threshold is the LP over Clifford orbits, 66
columns instead of 16464 vertices at p = 7; ``threshold_depol_gate``
solves it once per family gate and process.  Vertices are stored as kets;
weights and witnesses are checked against every one.  The orbit search
reads no ket: each map's Clifford labels place every vertex's image by
label arithmetic.  Every label is known exactly where its map is made;
none is read back from a dense unitary.  Only ``cliff_polytope``'s spec,
of its own type, takes maps, and it keeps the orbit columns of its last
map set for the next LP under the same maps.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import MissingConfig, NumericalInstability, SymmetryViolation
from .geometry import (_check_density, _row_blocks, choi_ket, depolarized_choi, gate_state,
                       negativity)
from .hierarchy import GateParams, _exponents, gate_matrix, pauli_conjugation, root_order
from .weylheis import (
    SUPPORTED_PRIMES,
    CliffordLabel,
    _metaplectic_defects,
    _sl2_index,
    check_dim,
    clifford_unitary,
    compose_cliffords,
    displacement,
    mub_vectors,
    sl2_matrices,
    symplectic_unitaries,
)

LP_TOL = 1e-8

PROV_COMPUTED = "computed"
PROV_RECORDED = "paper-recorded"
PROV_CONFIG = "config-derived"

# Values carried over from the source tables, all fractions of 1, not
# percent.  Every depolarising-gate threshold is computed; the recorded
# figures are the ``--self-check`` references of Table 2 and of the upper
# bounds of Table 3.  The Choi-state negativities are recorded, not
# computed, and reported as such.
RECORDED_DEPOL_GATE = {2: 0.4532, 3: 0.7863, 5: 0.9524, 7: 0.9763}
# The p=2 dephasing entry is the paper's printed figure, (29.3%)/2; the
# exact value is (2 - sqrt(2))/4 = 0.1464466.  It is kept as printed so
# that ``--self-check`` flags it.
RECORDED_PD_GATE = {2: 0.1465, 3: 0.3673, 5: 0.6400, 7: 0.7327}
RECORDED_NEGATIVITY = {2: 0.1036, 3: 0.1363, 5: 0.1600, 7: 0.1202}
RECORDED_CHOI_NEGATIVITY = {2: 0.2071, 3: 0.4089, 5: 0.8000, 7: 0.8411}
RECORDED_UQC_LOWER = {2: 0.4532, 3: 0.5815, 5: 0.8061, 7: 0.7224}

# Gate parameters whose superposition images sit farthest outside the
# stabilizer polytope (the maximizers found by optimize_equatorial).
ROBUST_GATE_PARAMS = {
    2: GateParams(0, 1, 0),
    3: GateParams(1, 2, 0),
    5: GateParams(1, 4, 0),
    7: GateParams(1, 2, 0),
}


@lru_cache(maxsize=None)
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a d x d matrix."""
    rows, cols = np.triu_indices(d, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def herm_to_vec(h: np.ndarray) -> np.ndarray:
    """Isometric real coordinates: vec(A) . vec(B) = Tr[A B].

    Acts on the last two axes, so a stack of operators gives a stack of rows.
    """
    h = np.asarray(h, dtype=complex)
    iu = _triu(h.shape[-1])
    upper = h[..., iu[0], iu[1]]
    return np.concatenate([
        np.diagonal(h, axis1=-2, axis2=-1).real,
        np.sqrt(2.0) * upper.real,
        np.sqrt(2.0) * upper.imag,
    ], axis=-1)


def vec_to_herm(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    d = int(round(np.sqrt(len(v))))
    if d * d != len(v):
        raise ValueError("vector length is not a perfect square")
    h = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(h, v[:d])
    iu = _triu(d)
    k = d * (d - 1) // 2
    upper = (v[d:d + k] + 1j * v[d + k:]) / np.sqrt(2.0)
    h[iu] = upper
    h[(iu[1], iu[0])] = upper.conj()
    return h


class PolytopeSpec:
    """Hull of the pure states |v_i><v_i| given by unit kets v_i, shape (n, d).

    Only the kets are stored, in the spec's own read-only copy, so nothing
    derived from them can go stale: the vertex barycentre, formed once per
    spec, and the LP columns that ``lp_threshold`` keeps for the last map
    set it ran on (see there).  Dense vertices and the LP system are
    derived from the kets when read, one ``_row_blocks`` block of kets at a
    time into a result allocated once (see ``vertices`` and ``system``).
    ``maps`` are the symmetries ``lp_membership`` runs over: none on a
    plain spec; the spec ``cliff_polytope`` returns, of a type of its own,
    carries the Clifford conjugations as ``CliffordLabel`` pairs (see
    ``lp_threshold``).
    """

    maps = ()

    def __init__(self, kets: np.ndarray):
        self._own(np.array(kets, dtype=complex))

    def _own(self, kets: np.ndarray) -> None:
        """Take ``kets``, which nothing else may write, as the spec's own."""
        if kets.ndim != 2 or kets.size == 0:
            raise ValueError("polytope kets must be a non-empty (n, d) array, "
                             f"got shape {kets.shape}")
        if not np.max([np.max(np.abs(np.linalg.norm(kets[r], axis=1) - 1.0))
                       for r in _row_blocks(len(kets))]) <= 1e-10:
            raise ValueError("polytope vertices must be unit kets")
        kets.flags.writeable = False
        self.kets = kets
        self.dim = kets.shape[1]
        self._lp_columns = {}

    @cached_property
    def _barycentre(self) -> np.ndarray:
        """``mixture`` of uniform weights, read-only."""
        n = self.n_vertices
        out = self.mixture(np.full(n, 1.0 / n))
        out.flags.writeable = False
        return out

    @property
    def n_vertices(self) -> int:
        return self.kets.shape[0]

    @property
    def vertices(self) -> np.ndarray:
        """Dense (n, d, d) stack of the projectors |v_i><v_i|, with the
        entries np.outer(v, v.conj()) gives.

        Written into the result's own storage in one pass per
        ``_row_blocks(n, d)`` block, the kets times the block's conjugates;
        only those conjugates are made beside it.  The operands stay in the
        order ket x conj: conj x ket rounds some entries differently.
        """
        k = self.kets
        out = np.empty((self.n_vertices, self.dim, self.dim), dtype=complex)
        for r in _row_blocks(self.n_vertices, self.dim):
            np.multiply(k[r, :, None], k[r, None, :].conj(), out=out[r])
        return out

    def mixture(self, w: np.ndarray) -> np.ndarray:
        """sum_i w_i |v_i><v_i|, one weight per ket (ValueError otherwise), added by
        ``_row_blocks`` from the first block: ``sum``'s int 0 would make -0.0 +0.0."""
        k, w = self.kets, np.asarray(w)
        if w.shape != (len(k),):
            raise ValueError(f"expected {len(k)} weights, got shape {w.shape}")
        return reduce(np.add, ((k[r].T * w[r]) @ k[r].conj() for r in _row_blocks(len(k))))

    def system(self) -> np.ndarray:
        """Columns [vec(V_i); 1], built anew on every call, entry for entry
        ``herm_to_vec`` of the ``vertices``.

        Filled straight from the kets, one ``_row_blocks(n, d)`` block at a
        time, with no projector: the diagonal and the ``_triu`` products
        v_i conj(v_j).  Each product is formed in place, the conjugates
        into a buffer that the kets then multiply.  With its output on an
        input, numpy's complex multiply runs its scalar loop, as it does on
        the broadcast operands of ``vertices``; two contiguous operands
        into fresh memory can take its SIMD loop, which rounds some entries
        differently in the last bit (275,804 of the 900,000 upper entries
        at p = 5).  No LP reads the system: ``lp_threshold`` builds its own
        rows in the SVD basis of the vertex span.  It is kept for the
        benchmark's shape check and for the tests, which compare it with a
        dense build.
        """
        d, n = self.dim, self.n_vertices
        iu = _triu(d)
        t = len(iu[0])
        i, j = np.concatenate([np.arange(d), iu[0]]), np.concatenate([np.arange(d), iu[1]])
        system = np.empty((d * d + 1, n))
        system[-1] = 1.0
        for rows in _row_blocks(n, d):
            k = self.kets[rows].T
            prod = k[j]
            np.conjugate(prod, out=prod)
            np.multiply(k[i], prod, out=prod)
            system[:d, rows] = prod[:d].real
            np.multiply(np.sqrt(2.0), prod[d:].real, out=system[d:d + t, rows])
            np.multiply(np.sqrt(2.0), prod[d:].imag, out=system[d + t:-1, rows])
        return system


def stab_polytope(p: int) -> PolytopeSpec:
    """Hull of the p(p+1) single-qudit stabilizer states."""
    return PolytopeSpec(mub_vectors(p).reshape(-1, p))


def equatorial_polytope(p: int) -> PolytopeSpec:
    """Hull of the p^2 diagonal-Clifford superposition states U |+>.

    The diagonal Cliffords are the gamma = 0 gates of the family, so the
    kets are the ``gate_state``s of (z, 0, eps), in (z, eps) order: the
    equatorial stabilizer states.
    """
    check_dim(p)
    return PolytopeSpec(np.array([gate_state(p, GateParams(z, 0, e))
                                  for z in range(p) for e in range(p)]))


def cliff_polytope(p: int) -> PolytopeSpec:
    """Hull of the Choi states of all p^3 (p^2 - 1) Clifford gates.

    The gates D_chi V_F are broadcast products of the p^2 displacements,
    in (x, z) order, with the ``symplectic_unitaries`` stack, in
    ``sl2_matrices`` order: the ``clifford_labels`` order, and entry for
    entry the dense D_chi V_F of each label.  They are formed and turned
    into kets at most ``_BLOCK_ROWS`` at a time.  At p = 7 that is 16464
    kets of length 49, 13 MB; the dense vertices would take 632 MB and the
    LP system 316 MB, so the depolarising-gate threshold reads neither
    (see ``threshold_depol_gate``).  The spec's ``maps`` are the
    conjugations C -> S^dag C S, the label pairs (S^-1, S), for S = X =
    (I | (1, 0)), Z = (I | (0, 1)), and (F | 0) for the shear
    F = [[1, 0], [1, 1]] and the Fourier matrix F = [[0, -1], [1, 0]];
    they generate the Clifford group, so ``lp_membership`` decides any
    target over the orbits of the conjugations that fix it.  S^-1 is
    taken by ``compose_cliffords``' rule: at p = 2 the shear's inverse is
    (shear | (0, 1)).
    """
    check_dim(p)
    return _CliffordPolytope(p)


class _CliffordPolytope(PolytopeSpec):
    """The type of ``cliff_polytope``'s spec, the one whose kets take maps;
    it builds its kets in place and owns them without a copy."""

    def __init__(self, p: int):
        ds = _displacements(p)
        vs = symplectic_unitaries(p)
        kets = np.empty((len(vs), len(ds), p * p), dtype=complex)
        for rows in _row_blocks(len(vs), len(ds)):
            kets[rows] = choi_ket(np.matmul(ds[None], vs[rows, None]))
        self._own(kets.reshape(-1, p * p))
        self.p = p
        one = ((1, 0), (0, 1))
        gens = (CliffordLabel(p, one, (1, 0)), CliffordLabel(p, one, (0, 1)),
                CliffordLabel(p, ((1, 0), (1, 1)), (0, 0)),
                CliffordLabel(p, ((0, -1), (1, 0)), (0, 0)))
        self.maps = tuple((_inverse(s), s) for s in gens)


def _inverse(s: CliffordLabel) -> CliffordLabel:
    """Label of C^-1 for the Clifford C labelled ``s`` = (F | chi):
    (F^-1 | -k), k the chi of ``compose_cliffords((F^-1 | 0), s)``, so
    that the product with ``s`` is the identity."""
    (a, b), (c, d) = s.f
    f = ((d, -b), (-c, a))
    k = compose_cliffords(CliffordLabel(s.p, f, (0, 0)), s).chi
    return CliffordLabel(s.p, f, (-k[0], -k[1]))


@lru_cache(maxsize=None)
def _displacements(p: int) -> np.ndarray:
    """The p^2 displacements D_(x|z), in (x, z) order, as one read-only stack."""
    ds = np.array([displacement(p, x, z) for x in range(p) for z in range(p)])
    ds.flags.writeable = False
    return ds


@dataclass(frozen=True)
class LPOutcome:
    feasible: bool
    weights: np.ndarray | None      # convex weights when feasible
    certificate: np.ndarray | None  # separating Hermitian witness otherwise
    distance: float                 # eps* toward the vertex barycentre (0.0 if feasible)
    iterations: int                 # simplex pivots, both phases
    refactorisations: int = 0       # basis-inverse refactorisations in the pivots
    bland: bool = False             # whether the pivots switched to Bland's rule
    orbits: int = 0                 # vertex columns of the LP, one per orbit


def _simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Minimise ``cost . w`` subject to A w = b, w >= 0, by a two-phase
    revised simplex.

    Rows with b_i < 0 are negated once, on entry, in a signed copy of ``a``
    and ``b`` that the pricing, the entering column and the refactorisation
    read, so that the all-artificial basis starts feasible.  The columns
    are those of [diag(sign) A | I], artificials n, n+1, ... last; these
    never enter (they start basic and are retired once they leave), so
    only the structural columns are stored and priced.  The pivots are,
    bit for bit, those of a dense loop, which the tests keep as an oracle.

    Phase 1 minimises the artificial total from the all-artificial basis;
    if that total stays above LP_TOL there is no feasible point
    (NumericalInstability).  Phase 2 minimises ``cost . w`` from the
    phase-1 basis; an artificial still basic is treated as zero and leaves
    at ratio 0 whenever the entering column touches its row, whatever the
    sign.  Both phases run the same pivots: Dantzig pricing, falling back
    to Bland's rule after a long degenerate run (anti-cycling), and the
    basis inverse updated by the outer product d x pivot row, 64 rows at a
    time (``_row_blocks(m, 64)``) with no m x m temporary, so each entry
    loses the same product as in the dense loop.  (At m = 578, 7-row
    blocks were slower than one outer product, and 256-row blocks no
    faster.)  One routine refactorises the
    inverse: every 100 pivots of a phase, to keep roundoff in check, and
    at the end of each phase.  The stall count, the rule and that schedule
    restart with each phase.

    Returns (w, y, pivots, refactorisations, bland), with y the phase-2
    simplex multipliers in the original row signs; the counters cover both
    phases (the end-of-phase refactorisations are not counted), and
    ``bland`` tells whether either phase switched to Bland's rule.
    """
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    a, rhs = a * sign[:, None], b * sign
    basis = np.arange(n, n + m)
    binv, xb = np.eye(m), rhs.copy()
    piv_tol = 1e-9
    pivots = refactorisations = 0
    used_bland = False

    def refactor():
        bm = np.zeros((m, m), order="F")  # Fortran-ordered for inv
        real = basis < n
        bm[:, real] = a[:, basis[real]]
        art = np.flatnonzero(~real)
        bm[basis[art] - n, art] = 1.0
        inv = np.linalg.inv(bm)
        return inv, np.maximum(inv @ rhs, 0.0)

    for phase_cost, forced in ((np.concatenate([np.zeros(n), np.ones(m)]), False),
                               (np.concatenate([cost, np.zeros(m)]), True)):
        stall = 0
        bland = False
        for it in range(10000 + 60 * m):
            if it % 100 == 99:
                binv, xb = refactor()
                refactorisations += 1
            y = phase_cost[basis] @ binv
            rc = phase_cost[:n] - y @ a
            rc[basis[basis < n]] = np.inf
            if bland:
                cand = np.flatnonzero(rc < -piv_tol)
                if cand.size == 0:
                    break
                j = int(cand[0])
            else:
                j = int(np.argmin(rc))
                if rc[j] >= -piv_tol:
                    break
            d = binv @ a[:, j]
            d_tol = 1e-9 * max(1.0, float(np.max(np.abs(d))))
            pos = d > d_tol
            ratios = np.full(m, np.inf)
            ratios[pos] = xb[pos] / d[pos]
            if forced:
                ratios[(basis >= n) & (np.abs(d) > d_tol)] = 0.0
            best = float(ratios.min())
            if best == np.inf:
                raise NumericalInstability("unbounded pivot column in the simplex")
            ties = np.flatnonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))
            r = int(ties[np.argmax(np.abs(d[ties]))])  # largest pivot for stability
            step = ratios[r]
            xb = np.maximum(xb - step * d, 0.0)
            xb[r] = step
            pivot_row = binv[r] / d[r]
            for rows in _row_blocks(m, 64):  # 64 rows of binv at a time
                binv[rows] -= d[rows, None] * pivot_row
            binv[r] = pivot_row
            basis[r] = j
            if step < 1e-13:
                stall += 1
                if stall > 8 * m:
                    bland = True
            else:
                stall = 0
        else:
            raise NumericalInstability(
                f"phase-{2 if forced else 1} simplex did not terminate")
        pivots += it + 1
        used_bland |= bland
        binv, xb = refactor()
        if not forced and phase_cost[basis] @ xb > LP_TOL:
            raise NumericalInstability("no feasible point to start phase 2 from")
    w = np.zeros(n + m)
    w[basis] = xb
    y = (phase_cost[basis] @ binv) * sign
    return np.maximum(w[:n], 0.0), y, pivots, refactorisations, used_bland


def lp_membership(spec: PolytopeSpec, target: np.ndarray) -> LPOutcome:
    """Decide whether ``target`` lies in the hull of the kets' projectors.

    Runs ``lp_threshold`` from the target toward the vertex barycentre,
    ``spec.mixture`` of uniform weights, which lies inside the hull, so the target
    is inside iff eps* = 0; eps* is returned as ``distance``.  The barycentre is
    formed once per spec.  The LP takes one column per orbit of those ``spec.maps``
    that fix the target (all columns when none does, or when the spec, unlike
    ``cliff_polytope``'s, carries none); a second target fixed by the same maps
    reuses the orbits and their averages (see ``lp_threshold``).
    Inside, the weights are those of the LP, spread over every vertex.  Outside,
    the LP's witness separates the point just short of eps*, where
    ``lp_threshold`` has checked it against every vertex; the target lies
    farther out, so only Tr[W target] <= -min(LP_TOL, margin / 2) is left to
    check here (NumericalInstability if the weights or the witness fail).
    Both are read-only.
    """
    target = _check_density(target, spec.dim, "target")
    maps = [g for g in spec.maps if _fixes(g, target)]
    r = lp_threshold(spec, target, spec._barycentre, maps)
    counts = dict(iterations=r.pivots, refactorisations=r.refactorisations,
                  bland=r.bland, orbits=r.orbits)
    if r.epsilon_star == 0.0:
        return LPOutcome(True, r.weights, None, 0.0, **counts)
    if not np.trace(r.witness @ target).real <= -min(LP_TOL, 0.5 * r.margin):
        raise NumericalInstability("certificate does not separate the target")
    return LPOutcome(False, None, r.witness, r.epsilon_star, **counts)


def _ket_map(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """R^T x L, which takes the Choi ket of C to that of L C R."""
    return (r.T[:, None, :, None] * l[None, :, None, :]).reshape(l.size, l.size)


def _fixes(lr, *hs: np.ndarray) -> bool:
    """Whether the map with the label pair (L, R) fixes every operator h:
    g h g^dag = h to 1e-10, g = R^T x L, built once from the labels'
    ``clifford_unitary``s."""
    g = _ket_map(*map(clifford_unitary, lr))
    return all(np.max(np.abs(g @ h @ g.conj().T - h)) <= 1e-10 for h in hs)


def verify_certificate(spec: PolytopeSpec, target: np.ndarray,
                       witness: np.ndarray, floor: float = LP_TOL) -> float:
    """Check the separating property; returns the separation margin.

    Tr[W V_i] is formed one block of ``_BLOCK_ROWS`` kets at a time.  A
    target that ``lp_membership`` would refuse, a witness that is not
    d x d, or not Hermitian to 1e-10, or a ``floor`` that is not finite
    and >= 0 raises ValueError; a NaN witness fails the vertex check
    instead (NumericalInstability), as a numerical failure of the LP.
    """
    if not (np.isfinite(floor) and floor >= 0.0):
        raise ValueError(f"floor must be finite and >= 0, got {floor!r}")
    target = _check_density(target, spec.dim, "target")
    witness = np.asarray(witness)
    if witness.shape != (spec.dim, spec.dim):
        raise ValueError(f"witness must be {spec.dim} x {spec.dim}, got shape {witness.shape}")
    if np.max(np.abs(witness - witness.conj().T)) > 1e-10:
        raise ValueError("witness must be Hermitian")
    low = np.min([((spec.kets[r].conj() @ witness) * spec.kets[r]).sum(1).real.min()
                  for r in _row_blocks(spec.n_vertices)])
    t_val = float(np.trace(witness @ target).real)
    if not low >= -LP_TOL:
        raise NumericalInstability("certificate fails on a vertex")
    if not t_val <= -floor:
        raise NumericalInstability("certificate does not separate the target")
    return -t_val


# Distance below eps* at which an LP threshold's witness must separate.
THRESHOLD_DELTA = 1e-7


@dataclass(frozen=True)
class ThresholdResult:
    epsilon_star: float
    bracket: float      # evidence of being outside at epsilon_star - bracket
    method: str         # "closed-form" or "lp"
    weights: np.ndarray | None = None   # LP: convex weights at epsilon_star
    witness: np.ndarray | None = None   # LP: separator at epsilon_star - bracket
    margin: float | None = None         # LP: the witness's separation margin
    pivots: int = 0                     # LP: simplex pivots, both phases
    orbits: int = 0                     # LP: vertex columns, one per orbit
    refactorisations: int = 0           # LP: basis-inverse refactorisations
    bland: bool = False                 # LP: whether the pivots switched to Bland's rule


def _ket_orbits(labels, n: int) -> np.ndarray:
    """Orbit index of each of the n kets under the group the maps (L, R)
    generate, from each map's ``CliffordLabel`` pair alone; with no maps,
    each ket is its own orbit.

    With maps, the kets are those of ``cliff_polytope``: p(p^2 - 1) blocks,
    one per F, of the p^2 kets D_chi V_F, chi = (x, z) at x p + z.  Up to
    a phase, L (D_chi V_F) R is the product ``compose_cliffords`` labels:
    for L = (F_L | chi_L) and R = (F_R | chi_R), ket (F | chi) goes to
    (F_L F F_R | chi_L + F_L chi + F_L F chi_R + k(F_L, F) + k(F_L F, F_R))
    mod p, k the ``_metaplectic_defects``, which are zero at odd p.
    """
    if not labels:
        return np.arange(n)
    p = labels[0][0].p
    f = np.array(sl2_matrices(p))
    code = p ** np.arange(3, -1, -1)  # sl2_matrices ascends in this code
    codes = f.reshape(-1, 4) @ code
    xz = np.array(np.divmod(np.arange(p * p), p))
    perms = []
    for lab_l, lab_r in labels:
        fl = np.array(lab_l.f)
        flf = fl @ f % p
        to = np.searchsorted(codes, (flf @ lab_r.f % p).reshape(-1, 4) @ code)
        chi = lab_l.chi + flf @ lab_r.chi  # [block, (x, z)]
        if p == 2:
            k, i = _metaplectic_defects(p), _sl2_index(p)
            chi += k[i[lab_l.f]] + k[np.searchsorted(codes, flf.reshape(-1, 4) @ code), i[lab_r.f]]
        x, z = (chi.T[:, :, None] + (fl @ xz)[:, None]) % p
        perms.append((to[:, None] * p * p + x * p + z).ravel())
    # Each vertex takes the least index it reaches; a finite permutation
    # group reaches its whole orbit by forward steps.
    orbit = np.arange(n)
    while True:
        new = np.minimum.reduce([orbit, *(orbit[perm] for perm in perms)])
        new = new[new]
        if np.array_equal(new, orbit):
            return np.cumsum(orbit == np.arange(n))[orbit] - 1  # number the orbits 0, 1, ...
        orbit = new


def _orbit_columns(spec: PolytopeSpec, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The target-free part of ``lp_threshold``'s LP matrix under the maps
    with these ``CliffordLabel`` pairs: the ``_ket_orbits`` index of each ket
    and the orbit sizes (both read-only), and a (d^2, n + 2) array whose
    first n columns are the orbit averages, the last two left for start
    and end.

    It is filled in place: with a column per vertex it is the largest
    array the LP builds.  The averages are stacked and vectorised one
    ``_row_blocks(n, d^2)`` block at a time (6 orbits, 60 KB at p = 5):
    stacks of a few MB raised the p = 5 peak RSS by 20 MB (freed blocks
    that size lift malloc's mmap threshold), and 163-orbit stacks the
    traced peak of one membership from 3.0 to 5-6 MB.
    """
    orbit = _ket_orbits(labels, spec.n_vertices)
    sizes = np.bincount(orbit)
    n = len(sizes)
    # Stable, so each orbit keeps its members in index order.
    members = np.split(np.argsort(orbit, kind="stable"), np.cumsum(sizes)[:-1])
    d = spec.dim
    m = np.empty((d * d, n + 2))
    for cols in _row_blocks(n, d * d):
        block = members[cols]
        avg = np.empty((len(block), d, d), dtype=complex)
        for a, idx in zip(avg, block):
            k = spec.kets[idx]
            np.divide(k.T @ k.conj(), len(k), out=a)
        m[:, :n][:, cols] = herm_to_vec(avg).T  # the last cols may run past n
    orbit.flags.writeable = sizes.flags.writeable = False
    return orbit, sizes, m


def lp_threshold(spec: PolytopeSpec, start: np.ndarray, end: np.ndarray,
                 maps=()) -> ThresholdResult:
    """Least eps putting (1 - eps) start + eps end in the hull, by one LP.

    Minimises eps over w >= 0, eps >= 0 subject to

        sum_i w_i vec(V_i) + eps vec(start - end) = vec(start),  sum_i w_i = 1,

    with one column per orbit of the group the ``maps`` generate (Heinrich
    & Gross, arXiv:1807.10296); with no maps each vertex is its own orbit.
    Each map is a pair (L, R) of ``CliffordLabel``s of the spec's p, the
    Cliffords C -> L C R, which permutes the Clifford Choi kets of
    ``cliff_polytope`` up to a phase; maps on any spec ``cliff_polytope``
    did not return, a map that is not such a pair, and a map that moves
    ``start`` or ``end`` raise SymmetryViolation.  Averaging over the
    group then maps the hull onto the hull of the orbit averages and fixes
    the path, so the least eps is the same with one column per orbit.  The
    LP runs in an orthonormal basis of the span of the averages, start and
    end.

    The orbits and their averages (``_orbit_columns``) depend on the spec
    and the maps' labels alone, so the spec keeps those of the last map
    set it ran on, keyed by the label pairs, and a second path under
    the same maps fills in only its start and end columns; its kets are
    read-only, so the entry cannot go stale.  The entry is taken out of
    the spec while in use and put back after, and kept only when its array
    is no larger than the kets (the orbit LPs, not one with a column per
    vertex).

    Each orbit's weight is spread evenly over its members, and
    ``spec.mixture`` of these weights over all vertices must reproduce the
    target at eps*.  The phase-2 multipliers, mapped back to full
    coordinates as y = (vec G, y0), give W = -(G + y0 I) with
    Tr[W V_i] >= 0 on every vertex and Tr[W target(eps)] = eps - eps*;
    scaled to unit spectral radius, W must pass ``verify_certificate`` at
    eps* - THRESHOLD_DELTA; both arrays are returned read-only.  The path
    ends at eps = 1, and an eps* within LP_TOL of either end is taken as
    that end: a start already inside returns exactly 0.0 with no witness,
    and a target reached only at ``end``, such as one off the span of the
    vertices, returns 1.0.  An eps* farther beyond 1 raises
    NumericalInstability.
    """
    if maps and not isinstance(spec, _CliffordPolytope):
        raise SymmetryViolation("maps permute the kets of cliff_polytope alone")
    key = tuple(tuple(lr) for lr in maps)
    if not all(len(lr) == 2 and all(isinstance(c, CliffordLabel) and c.p == spec.p for c in lr)
               for lr in key):
        raise SymmetryViolation(f"a map must be a pair of CliffordLabels of p = {spec.p}")
    start = _check_density(start, spec.dim, "start")
    end = _check_density(end, spec.dim, "end")
    if not all(_fixes(g, start, end) for g in key):
        raise SymmetryViolation("a generator moves the threshold path")
    # Taken out of the spec while in use, so no two calls fill one matrix.
    orbit, sizes, m = spec._lp_columns.pop(key, None) or _orbit_columns(spec, key)
    n = len(sizes)
    m[:, n], m[:, n + 1] = herm_to_vec(start), herm_to_vec(end)
    # A wide array has the column space and singular values of its square
    # R factor, whose SVD needs no right factor as wide as the array.
    wide = n + 2 > len(m)
    u, sv = np.linalg.svd(np.linalg.qr(m.T, mode="r").T if wide else m,
                          full_matrices=False)[:2]
    basis = u[:, sv > 1e-10 * sv[0]]
    a = np.empty((basis.shape[1] + 1, n + 1))
    np.matmul(basis.T, m[:, :n], out=a[:-1, :n])
    a[-1, :n] = 1.0
    a[:-1, n] = basis.T @ herm_to_vec(start - end)
    a[-1, n] = 0.0
    if m.nbytes <= spec.kets.nbytes:
        spec._lp_columns = {key: (orbit, sizes, m)}
    del m, u
    b = np.append(basis.T @ herm_to_vec(start), 1.0)
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    x, y, pivots, refactorisations, bland = _simplex(a, b, cost)
    # Only the multipliers, (vec G, y0) in full coordinates, outlive the LP:
    # the checks below run beside the cached columns.
    g, y0 = basis @ y[:-1], y[-1]
    del a, basis
    eps_star = float(x[-1])
    if not eps_star <= 1.0 + LP_TOL:
        raise NumericalInstability(f"threshold {eps_star:.9g} lies beyond the path end")
    # Within LP_TOL of either end of the path is taken as that end.
    eps_star = 0.0 if eps_star <= LP_TOL else min(eps_star, 1.0)
    w = x[orbit] / sizes[orbit]
    w.flags.writeable = False

    def target(eps):
        return (1.0 - eps) * start + eps * end

    if not np.max(np.abs(spec.mixture(w) - target(eps_star))) <= 10 * LP_TOL:
        raise NumericalInstability("threshold weights fail to reproduce the target")
    if eps_star == 0.0:
        return ThresholdResult(0.0, 0.0, "lp", weights=w, pivots=pivots, orbits=n,
                               refactorisations=refactorisations, bland=bland)
    # The multipliers give W = -(G + y0 I), scaled to unit spectral radius.
    wit = -(vec_to_herm(g) + y0 * np.eye(spec.dim))
    scale = float(np.max(np.abs(np.linalg.eigvalsh(wit))))
    wit /= scale
    wit.flags.writeable = False
    delta = min(THRESHOLD_DELTA, eps_star)
    margin = verify_certificate(spec, target(eps_star - delta), wit,
                                floor=min(LP_TOL, 0.5 * delta / scale))
    return ThresholdResult(eps_star, delta, "lp", w, wit, margin, pivots, n,
                           refactorisations, bland)


def threshold_depol_state(p: int, state: np.ndarray) -> ThresholdResult:
    """Least depolarising rate putting the state inside STAB, in closed form.

    eps* = N / (N + 1/p^2), from linearity of the facet expectations and
    Tr A(u) = 1/p.  ``lp_threshold`` over ``stab_polytope(p)`` is the
    independent route the tests compare with.
    """
    check_dim(p)
    n = negativity(p, state).value
    return ThresholdResult(n / (n + 1.0 / p ** 2), 0.0, "closed-form")


def threshold_pd_gate(p: int, state: np.ndarray) -> ThresholdResult:
    """Phase-damping threshold of a diagonal gate via its superposition image.

    Closed form eps*_PD = (p-1)/p * eps*_D(psi).  The tests compare it with
    (p-1)/p times ``lp_threshold`` over the p^2-vertex equatorial polytope
    from psi to I/p, which the phase-damped path reaches at eps = (p-1)/p.
    """
    base = threshold_depol_state(p, state)
    return ThresholdResult((p - 1) / p * base.epsilon_star, 0.0, "closed-form")


def threshold_depol_gate(p: int, g: GateParams) -> ThresholdResult:
    """Least depolarising rate putting the Choi state of the family gate
    named by ``g`` inside CLIFF, solved once per (p, g mod p) in a
    process: Table 2, Table 3 and the ``threshold`` command read one
    cached result, whose ``weights`` and ``witness`` arrays are read-only.

    ``lp_threshold`` from J_U to I/p^2 over the orbits of maps that fix
    both and permute the Clifford Choi kets: (U X^dag U^dag, X), i.e.
    C -> (U X^dag U^dag) C X, which permutes them as U is a third-level
    gate, its left label ``pauli_conjugation(p, g, -1, 0)``, and those of
    ``cliff_polytope(p).maps`` that fix J_U and are not already in the
    list, by exact label equality.  For the diagonal U of the family these
    include the conjugations by Z, which is (U Z^dag U^dag, Z), and by the
    shear V_F, F = [[1, 0], [1, 1]]; for U = Z^e the gate's own pair is
    the conjugation by X and is passed once.  A gate given as a matrix is
    named by ``identify_third_level``.
    """
    check_dim(p)
    return _depol_gate_threshold(p, g.reduced(p))


@lru_cache(maxsize=None)
def _depol_gate_threshold(p: int, g: GateParams) -> ThresholdResult:
    u = gate_matrix(p, g)
    spec = cliff_polytope(p)
    start, end = depolarized_choi(p, u, 0.0), depolarized_choi(p, u, 1.0)
    x = spec.maps[0][1]  # the label of X, the polytope's first generator
    maps = [(pauli_conjugation(p, g, -1, 0)[0], x)]
    maps += [m for m in spec.maps if m not in maps and _fixes(m, start)]
    return lp_threshold(spec, start, end, maps)


def dilution(p: int, eps: float) -> float:
    """Effective state noise after the postselected gate-dilution circuit."""
    check_dim(p)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return eps / (p - (p - 1) * eps)


def dilution_inv(p: int, eps_prime: float) -> float:
    check_dim(p)
    if not 0.0 <= eps_prime <= 1.0:
        raise ValueError("eps' must lie in [0, 1]")
    return p * eps_prime / (1.0 + (p - 1) * eps_prime)


DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "data",
                              "distill_thresholds.cfg")


def load_distill_config(path: str | None = None) -> dict:
    """Parse ``distill_threshold.<p> = <real>`` lines; '#' starts a comment.
    A file that cannot be read, a malformed line, a prime outside
    ``SUPPORTED_PRIMES``, a value outside [0, 1] or a key given twice
    raises ``MissingConfig``; only ``None`` reads the shipped file."""
    path = DEFAULT_CONFIG if path is None else path
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise MissingConfig(f"cannot read config file: {exc}") from None
    out = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MissingConfig(f"malformed config line: {raw.rstrip()}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key.startswith("distill_threshold."):
            raise MissingConfig(f"unknown config key: {key}")
        try:
            prime, value = int(key.split(".", 1)[1]), float(val)
        except ValueError:
            raise MissingConfig(f"malformed config line: {raw.rstrip()}") from None
        if prime not in SUPPORTED_PRIMES:
            raise MissingConfig(f"unsupported prime in config line: {raw.rstrip()}")
        if not 0.0 <= value <= 1.0:
            raise MissingConfig(f"config line outside [0, 1]: {raw.rstrip()}")
        if prime in out:
            raise MissingConfig(f"repeated key in config line: {raw.rstrip()}")
        out[prime] = value
    return out


@dataclass(frozen=True)
class UQCBounds:
    p: int
    lower: float
    lower_provenance: str
    upper: float
    upper_provenance: str


def uqc_bounds(p: int, config: dict | None = None) -> UQCBounds:
    """Lower/upper noise bounds for universal computation with the gate.

    The upper bound is the robust gate's depolarising threshold, read from
    ``threshold_depol_gate``, so it reuses the LP that Table 2 or the
    ``threshold`` command already solved in this process.  The lower
    bound converts the configured distillation threshold back through the
    dilution map; at p=2 it equals the upper bound.
    """
    check_dim(p)
    upper = threshold_depol_gate(p, ROBUST_GATE_PARAMS[p]).epsilon_star
    if p == 2:
        return UQCBounds(p, upper, PROV_COMPUTED, upper, PROV_COMPUTED)
    if config is None:
        config = load_distill_config()
    if p not in config:
        raise MissingConfig(f"no distill_threshold.{p} entry in config")
    return UQCBounds(p, dilution_inv(p, config[p]), PROV_CONFIG, upper, PROV_COMPUTED)


# ---------------------------------------------------------------------------
# equatorial robustness optimizer


@dataclass(frozen=True)
class EquatorialOptimum:
    theta: np.ndarray       # p-1 phases; the first amplitude is fixed to 1
    negativity: float
    facet: tuple            # edge-facet index achieving the minimum


def _neg_batch(p: int, thetas: np.ndarray) -> np.ndarray:
    """Negativity of (1, e^{i theta_1}, ...)/sqrt p for a batch of thetas.

    For flat-amplitude states the Z-basis expectations are uniform, so the
    full-facet and edge-facet minima coincide; either reading is valid.
    The per-basis minimum is a running ``np.minimum`` over the p moduli,
    squared afterwards: squaring a non-negative float is monotone, so this
    is bit for bit the minimum of the squared moduli.  A row's value
    depends on that row alone, whatever the batch, so the batch is
    evaluated one block of ``_BLOCK_ROWS`` matrix rows at a time, a state's
    (p+1) x p amplitudes counting p+1 rows (512 states at p = 7).
    """
    vecs = mub_vectors(p).conj()
    out = np.empty(thetas.shape[0])
    for rows in _row_blocks(len(out), p + 1):
        th = thetas[rows]
        states = np.empty((len(th), p), dtype=complex)
        states[:, 0] = 1.0
        states[:, 1:] = np.exp(1j * th)
        states /= np.sqrt(p)
        amps = np.abs(np.einsum("bkj,Bj->Bbk", vecs, states))
        low = amps[:, :, 0]
        for k in range(1, p):
            low = np.minimum(low, amps[:, :, k])
        out[rows] = np.maximum(0.0, -((low ** 2).sum(axis=1) - 1.0) / p)
    return out


def _batched_coordinate_descent(p: int, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polish every row of an (S, p-1) array of starts by coordinate descent.

    Each of 4 rounds scans every coordinate on a grid of 48 offsets, then
    refines it by 40 golden-section steps and a mid-point check.  All starts
    move together, one ``_neg_batch`` call per step, yet each row follows the
    arithmetic it would follow alone; a row that did not improve in a round
    is frozen.  The golden section evaluates both interior points once and
    then one new point per step: the surviving point is the other point of
    the step before, the same float, so its carried value is the one a
    fresh evaluation would give and the result is bit-identical to
    evaluating both points on every step.
    Returns the polished thetas and their negativities.
    """
    rounds, grid = 4, 48
    theta = np.array(starts, dtype=float)
    best = _neg_batch(p, theta)
    offsets = np.linspace(-np.pi, np.pi, grid, endpoint=False)
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    live = np.arange(len(theta))
    for _ in range(rounds):
        th, val = theta[live], best[live]
        improved = np.zeros(len(live), dtype=bool)
        for j in range(p - 1):
            trial = np.repeat(th[:, None, :], grid, axis=1)
            trial[:, :, j] = (th[:, j, None] + offsets) % (2 * np.pi)
            vals = _neg_batch(p, trial.reshape(-1, p - 1)).reshape(len(th), grid)
            k, top = np.argmax(vals, axis=1), vals.max(axis=1)
            up = top > val + 1e-14
            th[up], val[up] = trial[up, k[up]], top[up]
            improved |= up
            # golden-section refinement around the current best
            lo, hi = th[:, j] - 2 * np.pi / grid, th[:, j] + 2 * np.pi / grid
            x1, x2 = hi - gr * (hi - lo), lo + gr * (hi - lo)
            pair = np.repeat(th[:, None, :], 2, axis=1)
            pair[:, 0, j], pair[:, 1, j] = x1 % (2 * np.pi), x2 % (2 * np.pi)
            v1, v2 = _neg_batch(p, pair.reshape(-1, p - 1)).reshape(len(th), 2).T
            probe = th.copy()
            for step in range(40):
                left = v1 > v2
                lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
                x1, x2 = (np.where(left, hi - gr * (hi - lo), x2),
                          np.where(left, x1, lo + gr * (hi - lo)))
                if step == 39:
                    break
                probe[:, j] = np.where(left, x1, x2) % (2 * np.pi)
                vn = _neg_batch(p, probe)
                v1, v2 = np.where(left, vn, v2), np.where(left, v1, vn)
            mid = th.copy()
            mid[:, j] = (0.5 * (lo + hi)) % (2 * np.pi)
            v = _neg_batch(p, mid)
            up = v > val
            th[up], val[up] = mid[up], v[up]
            improved |= up
        theta[live], best[live] = th, val
        live = live[improved]
        if not live.size:
            break
    return theta, best


def _diagonal_clifford_shifts(p: int) -> np.ndarray:
    """Lattice shifts u_k mod p, k = 1..p-1, of the p^2 diagonal Cliffords.

    The diagonal Cliffords are the gamma = 0 gates of the family, one row
    ``_exponents(p, z, 0, eps)`` per (z, eps) in (z, eps) order; for p >= 5
    such a gate multiplies amplitude k by omega^(u_k) and fixes amplitude
    0, so on the root-of-unity lattice it adds u to ks.  Measured on every
    call: the generators (0, 0, 1), which is Z, and (2, 0, 0), which is
    diag(omega^(k^2)), must send each row of ``mub_vectors(p)`` to the row
    it overlaps most in their Gram matrix, with squared overlap at least
    1 - 1e-9, one to one, each basis onto one basis, so that they keep the
    negativity (SymmetryViolation otherwise).  The p = 2 and 3 lattices
    are finer than Z_p and take the identity alone: one zero row.
    """
    if p < 5:
        return np.zeros((1, p - 1), dtype=int)
    vecs = mub_vectors(p).reshape(-1, p)
    for g in (GateParams(0, 0, 1), GateParams(2, 0, 0)):
        overlap = np.abs(vecs.conj() @ (vecs * np.diagonal(gate_matrix(p, g))).T) ** 2
        perm = np.argmax(overlap, axis=0)
        if (not overlap.max(axis=0).min() >= 1.0 - 1e-9 or np.bincount(perm).max() > 1
                or np.ptp((perm // p).reshape(p + 1, p), axis=1).any()):
            raise SymmetryViolation("a diagonal Clifford does not permute the MUB bases")
    z, e = np.divmod(np.arange(p * p), p)
    return _exponents(p, z, 0, e)[:, 1:]


def _lattice_starts(p: int) -> np.ndarray:
    """Indices of the 8 best points of the root-of-unity lattice.

    A point ks (theta_k = 2 pi ks_k / r, lattice index ks_1 ks_2 ... read
    in base r) is scored through its orbit under the diagonal Cliffords,
    the family gates (z, 0, eps), which keep the negativity.  For p >= 5
    the action is free ((z, eps) shifts (ks_1, ks_2) by (z/2 + eps,
    2z + 2eps), a map of determinant -1), so each orbit of p^2 points has
    one member with ks_1 = ks_2 = 0, and these are the first p^(p-3)
    indices: 2,401 scored states instead of 117,649 at p = 7, 25 at p = 5.
    Only the best orbits are expanded to their points.  The order is the
    score rounded to 12 decimals, descending, then the lattice index,
    ascending.
    """
    r = root_order(p)
    shifts = _diagonal_clifford_shifts(p)
    shape = (r,) * (p - 1)
    reps = np.array(np.unravel_index(np.arange(r ** (p - 1) // len(shifts)), shape)).T
    score = np.round(_neg_batch(p, 2 * np.pi * reps / r), 12)
    # the 8 best points lie in orbits scoring at least the ceil(8/p^2)-th best
    cut = np.sort(score)[::-1][7 // len(shifts)]
    top = np.flatnonzero(score >= cut)
    index = np.ravel_multi_index(np.moveaxis((reps[top, None] + shifts) % r, -1, 0), shape)
    order = np.lexsort((index.ravel(), -np.repeat(score[top], len(shifts))))
    return index.ravel()[order[:8]]


def optimize_equatorial(p: int, seed: int = 0, restarts: int = 24) -> EquatorialOptimum:
    """Maximise negativity over equatorial states by local search.

    Starts are ``restarts`` seeded uniform angles (an integer >= 0, else
    ValueError) plus the 8 best points of the root-of-unity lattice
    matching the diagonal-gate family.  The lattice is scored once per
    orbit of the diagonal Cliffords (z, 0, eps), 2,401 orbits at p = 7
    and 25 at p = 5 (point by point at p = 2 and 3), after
    checking on every call that Z and diag(omega^(k^2)) permute the
    stabilizer bases (SymmetryViolation otherwise); see
    ``_lattice_starts``.  The lattice starts are the first 8 points by
    score rounded to 12 decimals, descending, then lattice index,
    ascending.  Every start is polished by coordinate descent with
    golden-section steps, all of them together; the first start with the
    largest polished negativity wins.  ``negativity`` recomputes the
    winner's value from its state, which also gives the facet; the two
    values must agree to 1e-12 (NumericalInstability otherwise).
    """
    check_dim(p)
    try:
        restarts = operator.index(restarts)
    except TypeError:
        raise ValueError(f"restarts must be an integer, got {restarts!r}") from None
    if restarts < 0:
        raise ValueError("restarts must be >= 0")
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, 2 * np.pi, size=(restarts, p - 1))
    r = root_order(p)
    ks = np.array(np.unravel_index(_lattice_starts(p), (r,) * (p - 1))).T
    starts = np.concatenate([starts, 2 * np.pi * ks / r])
    thetas, vals = _batched_coordinate_descent(p, starts)
    i = int(np.argmax(vals))
    best_theta, best_val = thetas[i].copy(), float(vals[i])
    state = np.concatenate([[1.0], np.exp(1j * best_theta)]) / np.sqrt(p)
    check = negativity(p, state)
    if not abs(check.value - best_val) <= 1e-12:
        raise NumericalInstability(
            f"descent negativity {best_val!r} differs from the state's {check.value!r}")
    return EquatorialOptimum(theta=best_theta, negativity=best_val, facet=check.facet[1:])
