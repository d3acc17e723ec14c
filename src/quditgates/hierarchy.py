"""Diagonal gates from the third level of the Clifford hierarchy.

For an odd prime p > 3 every such gate (modulo global phase and diagonal
Cliffords) is a diagonal unitary whose k-th phase is a p-th root of unity
with exponent

    u_k = (1/12) k (g + k (6 z + (2k - 3) g)) + k e   (mod p),

parameterised by three residues (z, g, e).  The gate conjugates the shift
displacement D_(1|0) into the Clifford labelled ([1,0; g,1] | (1, z)) with
an omega**e prefactor, so g = 0 picks out the diagonal Cliffords and g != 0
the genuinely third-level gates.

At p = 3 the exponents live modulo 9:  u = (0, 6z+2g+3e, 6z+g+6e), and the
conjugation identity picks up an extra exact zeta_9**(2g) global factor.
At p = 2 the family is the eighth-roots ladder diag(1, zeta_8**k) with the
packing k = 2z + g + 4e (mod 8), which reproduces the qubit pi/8 gate at
(z, g, e) = (0, 1, 0).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ConvergenceFailure, NotDiagonal, NotUnitary, ShapeMismatch, UnsupportedDim
from .kernel import equal_up_to_global_phase, is_diagonal, is_unitary, mod_inv
from .weylheis import CliffordLabel, check_dim, clifford_unitary, displacement


@dataclass(frozen=True)
class GateParams:
    """Residue triple (z, gamma, eps) naming one gate of the family.

    Each field is stored as a Python int; anything that is not an integer
    (``operator.index`` fails on it, as on 1.5) raises ``ValueError``."""

    z: int
    gamma: int
    eps: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, operator.index(value))
            except TypeError:
                raise ValueError(f"GateParams.{f.name} must be an integer, "
                                 f"got {value!r}") from None

    def reduced(self, p: int) -> "GateParams":
        return GateParams(self.z % p, self.gamma % p, self.eps % p)

    def astuple(self) -> tuple[int, int, int]:
        return (self.z, self.gamma, self.eps)


@dataclass(frozen=True)
class DiagGateExact:
    """Diagonal unitary held exactly: entry k is exp(2 pi i exps[k] / root_order)."""

    root_order: int
    exps: tuple[int, ...]

    def __post_init__(self):
        if not self.exps or self.exps[0] % self.root_order != 0:
            raise ValueError("exponent vector must start at 0")
        object.__setattr__(self, "exps",
                           tuple(e % self.root_order for e in self.exps))

    def matrix(self) -> np.ndarray:
        phases = np.exp(2j * np.pi * np.asarray(self.exps) / self.root_order)
        return np.diag(phases)


def root_order(p: int) -> int:
    """Order of the phase lattice: 8 for p = 2, 9 for p = 3, p otherwise."""
    check_dim(p)
    return 8 if p == 2 else (9 if p == 3 else p)


def _exponents(p: int, z, gamma, eps) -> np.ndarray:
    """Exponents modulo ``root_order(p)`` of the gates with residues
    (z, gamma, eps) mod p: ints, or int arrays of one shape, giving one row
    of p exponents per gate.  At p = 2 the second entry is the packed
    k = 2z + g + 4e (mod 8)."""
    z, gamma, eps = (np.asarray(x, dtype=np.int64)[..., None] for x in (z, gamma, eps))
    if p == 2:
        return np.concatenate([np.zeros_like(z), (2 * z + gamma + 4 * eps) % 8], axis=-1)
    if p == 3:
        return np.concatenate([np.zeros_like(z), (6 * z + 2 * gamma + 3 * eps) % 9,
                               (6 * z + gamma + 6 * eps) % 9], axis=-1)
    k = np.arange(p)
    return (mod_inv(12, p) * k * (gamma + k * (6 * z + (2 * k - 3) * gamma)) + k * eps) % p


@lru_cache(maxsize=None)
def _params_by_exps(p: int) -> dict[tuple[int, ...], GateParams]:
    """The p**3 exponent rows of the family, each mapped to its residues."""
    idx = np.indices((p, p, p)).reshape(3, -1)
    return {tuple(row): GateParams(*zge)
            for row, zge in zip(_exponents(p, *idx).tolist(), idx.T)}


def _order(root: int, exps: np.ndarray) -> np.ndarray:
    """Multiplicative order of diag(exp(2 pi i exps / root)), along the last axis."""
    return root // np.gcd.reduce(exps, axis=-1, initial=root)


def gate_exponents(p: int, g: GateParams) -> DiagGateExact:
    """Exact exponent vector of the gate named by ``g``."""
    check_dim(p)
    g = g.reduced(p)
    exps = _exponents(p, g.z, g.gamma, g.eps)
    return DiagGateExact(root_order(p), tuple(exps.tolist()))


def gate_matrix(p: int, g: GateParams) -> np.ndarray:
    return gate_exponents(p, g).matrix()


def compose_params(p: int, g1: GateParams, g2: GateParams) -> GateParams:
    """Parameters of the product gate; matrices multiply exactly.

    The product's exponent row is the sum of the two rows modulo
    ``root_order(p)``, looked up among the family's p**3 rows.  For p > 3
    that is the componentwise sum of residues; at p = 3 eps carries -1 when
    the two gammas sum past 2, and at p = 2 the packed k adds modulo 8.
    """
    row = np.add(gate_exponents(p, g1).exps, gate_exponents(p, g2).exps) % root_order(p)
    return _params_by_exps(p)[tuple(row.tolist())]


def element_order(p: int, g: GateParams) -> int:
    """Multiplicative order of the gate, computed on exact exponents."""
    gate = gate_exponents(p, g)
    return int(_order(gate.root_order, np.array(gate.exps)))


@dataclass(frozen=True)
class GroupReport:
    """Order statistics and isomorphism class of the diagonal-gate group."""

    p: int
    size: int
    order_histogram: dict
    group_name: str
    min_generators: int


def _invariant_factors(p: int, hist: dict) -> tuple[int, ...]:
    """Invariant factors (prime-power exponents, descending) of the abelian
    p-group with this element-order histogram: p**s_k elements have order
    dividing p**k, and s_k - s_(k-1) factors have exponent >= k."""
    n = round(math.log(sum(hist.values()), p))      # |G| = p**n
    s = [0]
    while s[-1] < n:
        s.append(round(math.log(sum(c for o, c in hist.items() if o <= p ** len(s)), p)))
    ge = [b - a for a, b in zip(s, s[1:])]          # ge[k-1]: factors with exponent >= k
    return tuple(sum(m >= i for m in ge) for i in range(1, max(ge, default=0) + 1))


def group_structure(p: int) -> GroupReport:
    """Classify the group generated by the whole gate family at fixed p.

    The orders of all p**3 triples come from one (p**3, p) exponent array;
    at p = 2 that is the 8 packed k = 2z + g + 4e.
    """
    check_dim(p)
    orders = _order(root_order(p), _exponents(p, *np.indices((p, p, p)).reshape(3, -1)))
    hist = {int(o): int(c) for o, c in zip(*np.unique(orders, return_counts=True))}
    parts = _invariant_factors(p, hist)
    name = " x ".join(f"Z{p ** e}" for e in parts)
    return GroupReport(p=p, size=p ** 3, order_histogram=hist,
                       group_name=name, min_generators=len(parts))


@dataclass(frozen=True)
class ThirdLevelReport:
    """Outcome of classifying a diagonal unitary against the gate family."""

    kind: str  # "clifford" | "third_level" | "not_third_level"
    params: GateParams | None


def identify_third_level(p: int, u: np.ndarray, tol: float = 1e-9) -> ThirdLevelReport:
    """Classify a diagonal unitary: diagonal Clifford, third-level gate, or neither.

    The conjugate U D_(1|0) U^dag of the shift carries the p phase ratios
    u_(k+1) conj(u_k), k cyclic, at its entries (k+1, k).  Each is rounded
    to the nearest ``root_order(p)``-th root of unity, and the conjugate
    must lie within ``max(tol, 1e-8)`` of those roots at those entries and
    of 0 elsewhere; U must be p x p, diagonal and unitary within the same
    bound (ShapeMismatch, NotDiagonal, NotUnitary otherwise; ValueError
    unless ``tol`` is finite and >= 0).  The running
    sums of the roots' exponents are then the gate's exponent row, which names
    the gate if it is one of the family's p**3 rows.  The rule is the same at
    every p, and a stray global phase on the input cancels in the ratios.
    """
    check_dim(p)
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    u = np.asarray(u, dtype=complex)
    if u.shape != (p, p):
        raise ShapeMismatch(f"expected a {p} x {p} matrix, got {u.shape}")
    tol = max(tol, 1e-8)
    if not is_diagonal(u, tol):
        raise NotDiagonal("input must be diagonal")
    if not is_unitary(u, tol):
        raise NotUnitary("input must be unitary")
    r = root_order(p)
    t = u @ displacement(p, 1, 0) @ u.conj().T
    steps = np.rint(np.angle(np.diagonal(np.roll(t, -1, axis=0))) * r / (2 * np.pi))
    steps = steps.astype(np.int64) % r
    lattice = np.roll(np.diag(np.exp(2j * np.pi * steps / r)), 1, axis=0)
    # cumsum ends on the full cycle, which a family row closes at 0
    row = tuple(np.roll(np.cumsum(steps) % r, 1).tolist())
    g = _params_by_exps(p).get(row) if np.max(np.abs(t - lattice)) <= tol else None
    if g is None:
        return ThirdLevelReport("not_third_level", None)
    return ThirdLevelReport("clifford" if g.gamma == 0 else "third_level", g)


def pauli_conjugation(p: int, g: GateParams, x: int, z: int):
    """Clifford label (with phase) of U D_(x|z) U^dag for a family gate U.

    With x and z reduced mod p, the label is ([1, 0; x gamma, 1] |
    (x, x z_U + gamma C(x, 2) + z)), C(x, 2) = x (x - 1) / 2 taken as an
    integer, so the rule needs no 2^-1 and holds at every p.  Returns
    ``(label, phase)`` where the numeric identity U D U^dag = phase *
    C_label holds within 1e-9 (ConvergenceFailure otherwise).
    """
    check_dim(p)
    g = g.reduced(p)
    x %= p
    z %= p
    f = ((1, 0), (x * g.gamma, 1))
    label = CliffordLabel(p, f, (x, x * g.z + g.gamma * (x * (x - 1) // 2) + z))
    u = gate_matrix(p, g)
    lhs = u @ displacement(p, x, z) @ u.conj().T
    eq, phase = equal_up_to_global_phase(lhs, clifford_unitary(label), 1e-9)
    if not eq:
        raise ConvergenceFailure("conjugation image failed the phase check")
    return label, phase


def magic_gate_matrix(p: int) -> np.ndarray:
    """The canonical distillable phase gate, from its binomial exponents.

    Entry j carries the phase exp(2 pi i lam_j / p^2) with
    lam_j = p C(j,3) - j C(p,3) + C(p+1,4).
    """
    check_dim(p)
    if p == 2:
        raise UnsupportedDim("the binomial construction needs odd p")
    lam = [p * math.comb(j, 3) - j * math.comb(p, 3) + math.comb(p + 1, 4)
           for j in range(p)]
    return np.diag(np.exp(2j * np.pi * np.asarray(lam) / p ** 2))


@dataclass(frozen=True)
class MagicGateReport:
    params: GateParams
    gate: DiagGateExact
    phase: complex  # global phase with matrix() = phase * magic_gate_matrix(p)


def magic_gate(p: int) -> MagicGateReport:
    """Name the binomial phase gate: ``identify_third_level`` reads its
    (z, gamma, eps) from the exponent table, and the phase is the ratio of
    the two matrices' first entries."""
    m = magic_gate_matrix(p)
    g = identify_third_level(p, m).params
    gate = gate_exponents(p, g)
    return MagicGateReport(params=g, gate=gate, phase=complex(gate.matrix()[0, 0] / m[0, 0]))
