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
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ConvergenceFailure, NotDiagonal, NotUnitary, UnsupportedDim
from .kernel import equal_up_to_global_phase, is_diagonal, is_unitary, mod_inv
from .weylheis import (
    CliffordLabel,
    check_dim,
    clifford_unitary,
    displacement,
    omega,
)


@dataclass(frozen=True)
class GateParams:
    """Residue triple (z, gamma, eps) naming one gate of the family."""

    z: int
    gamma: int
    eps: int

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

    @property
    def dim(self) -> int:
        return len(self.exps)

    def matrix(self) -> np.ndarray:
        phases = np.exp(2j * np.pi * np.asarray(self.exps) / self.root_order)
        return np.diag(phases)


def root_order(p: int) -> int:
    """Order of the phase lattice: 8 for p = 2, 9 for p = 3, p otherwise."""
    check_dim(p)
    return 8 if p == 2 else (9 if p == 3 else p)


def _encode2(g: GateParams) -> int:
    return int(_exponents(2, *g.reduced(2).astuple())[1])


def _decode2(k: int) -> GateParams:
    k %= 8
    gamma = k % 2
    z = ((k - gamma) // 2) % 2
    eps = ((k - gamma - 2 * (z)) // 4) % 2
    return GateParams(z, gamma, eps)


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

    Componentwise sums modulo p suffice for p > 3.  At p = 3 the mod-9
    exponents force a carry: eps drops by one whenever the integer sum of
    the two gamma entries reaches 3.  At p = 2 the family is the cyclic
    group of the packed exponent, so composition is addition modulo 8.
    """
    check_dim(p)
    g1 = g1.reduced(p)
    g2 = g2.reduced(p)
    if p == 2:
        return _decode2(_encode2(g1) + _encode2(g2))
    if p == 3:
        carry = -1 if g1.gamma + g2.gamma >= 3 else 0
        return GateParams((g1.z + g2.z) % 3, (g1.gamma + g2.gamma) % 3,
                          (g1.eps + g2.eps + carry) % 3)
    return GateParams((g1.z + g2.z) % p, (g1.gamma + g2.gamma) % p,
                      (g1.eps + g2.eps) % p)


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


def conjugation_phase_factor(p: int, gamma: int) -> complex:
    """Global factor in U D_(1|0) U^dag = factor * omega**eps * C_label.

    Trivial except at p = 3, where the mod-9 exponents leave an exact
    zeta_9**(2 gamma) behind.
    """
    if p == 3:
        return np.exp(2j * np.pi * (2 * (gamma % 3)) / 9)
    return 1.0 + 0.0j


@dataclass(frozen=True)
class ThirdLevelReport:
    """Outcome of classifying a diagonal unitary against the gate family."""

    kind: str  # "clifford" | "third_level" | "not_third_level"
    params: GateParams | None


@lru_cache(maxsize=None)
def _conjugation_targets(p: int) -> tuple[tuple[GateParams, np.ndarray], ...]:
    """Expected conjugates U D_(1|0) U^dag for every parameter triple."""
    out = []
    for z, gamma, eps in product(range(p), repeat=3):
        lab = CliffordLabel(p, ((1, 0), (gamma, 1)), (1, z))
        m = (conjugation_phase_factor(p, gamma) * omega(p) ** eps
             * clifford_unitary(lab))
        m.flags.writeable = False
        out.append((GateParams(z, gamma, eps), m))
    return tuple(out)


def identify_third_level(p: int, u: np.ndarray, tol: float = 1e-9) -> ThirdLevelReport:
    """Classify a diagonal unitary: diagonal Clifford, third-level gate, or neither.

    The test conjugates the shift displacement and matches the result
    exactly against every candidate parameter triple; a stray global phase
    on the input is harmless because conjugation cancels it.
    """
    check_dim(p)
    u = np.asarray(u, dtype=complex)
    if u.shape != (p, p):
        raise UnsupportedDim(f"expected a {p} x {p} matrix, got {u.shape}")
    if not is_diagonal(u, tol):
        raise NotDiagonal("input must be diagonal")
    if not is_unitary(u, 1e-8):
        raise NotUnitary("input must be unitary")
    if p == 2:
        ratio = u[1, 1] / u[0, 0]
        k = int(np.rint(np.angle(ratio) * 8 / (2 * np.pi))) % 8
        if abs(ratio - np.exp(2j * np.pi * k / 8)) > max(tol, 1e-8):
            return ThirdLevelReport("not_third_level", None)
        g = _decode2(k)
        return ThirdLevelReport("clifford" if g.gamma == 0 else "third_level", g)
    t = u @ displacement(p, 1, 0) @ u.conj().T
    for g, expected in _conjugation_targets(p):
        if np.max(np.abs(t - expected)) <= max(tol, 1e-8):
            kind = "clifford" if g.gamma == 0 else "third_level"
            return ThirdLevelReport(kind, g)
    return ThirdLevelReport("not_third_level", None)


def pauli_conjugation(p: int, g: GateParams, x: int, z: int):
    """Clifford label (with phase) of U D_(x|z) U^dag for a family gate U.

    Needs 2^-1 mod p, hence odd p only.  Returns ``(label, phase)`` where
    the numeric identity U D U^dag = phase * C_label holds within 1e-9.
    """
    check_dim(p)
    if p == 2:
        raise UnsupportedDim("conjugation labels need 2^-1 mod p; use odd p")
    g = g.reduced(p)
    x %= p
    z %= p
    inv2 = mod_inv(2, p)
    f = ((1, 0), ((x * g.gamma) % p, 1))
    zc = (x * (g.z + inv2 * g.gamma * (x - 1)) + z) % p
    label = CliffordLabel(p, f, (x % p, zc))
    u = gate_matrix(p, g)
    lhs = u @ displacement(p, x, z) @ u.conj().T
    eq, phase = equal_up_to_global_phase(lhs, clifford_unitary(label), 1e-9)
    if not eq:  # pragma: no cover - the identity is exact
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
    """Match the binomial phase gate to its (z, gamma, eps) parameters."""
    m = magic_gate_matrix(p)
    for z, gamma, eps in product(range(p), repeat=3):
        g = GateParams(z, gamma, eps)
        eq, phase = equal_up_to_global_phase(gate_matrix(p, g), m, 1e-9)
        if eq:
            return MagicGateReport(params=g, gate=gate_exponents(p, g),
                                   phase=complex(phase))
    raise UnsupportedDim(f"no parameter triple matches the p = {p} binomial gate")
