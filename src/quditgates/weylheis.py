"""Weyl-Heisenberg displacement operators and the single-qudit Clifford
group for prime dimensions.

Conventions
-----------
omega = exp(2*pi*i/p) and tau = exp((p+1)*pi*i/p), so tau**2 == omega and
X*Z == omega**-1 * Z*X.  A displacement is D_(x|z) = tau**(x*z) X**x Z**z.
For odd p the tau phases live modulo p; for p = 2 tau = -i has order four
and phase exponents are tracked modulo 4.

A Clifford element is labelled by F in SL(2, Z_p) together with a
displacement pair chi = (x, z):  C = D_chi V_F, where V_F is the symplectic
(metaplectic) unitary attached to F.  Conjugation acts linearly on labels:
V_F D_(x|z) V_F^dag = D_(F.(x,z)) exactly for odd p, and up to a tracked
tau power for p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ShapeMismatch, UnsupportedDim, ZeroLabel
from .kernel import mod_inv

SUPPORTED_PRIMES = (2, 3, 5, 7)

Mat2 = tuple[tuple[int, int], tuple[int, int]]


def check_dim(p: int) -> int:
    if p not in SUPPORTED_PRIMES:
        raise UnsupportedDim(f"dimension {p} not in supported set {SUPPORTED_PRIMES}")
    return p


def omega(p: int) -> complex:
    return np.exp(2j * np.pi / p)


def tau(p: int) -> complex:
    return np.exp(1j * np.pi * (p + 1) / p)


def tau_order(p: int) -> int:
    """Multiplicative order of tau: 4 for p = 2, p for odd p."""
    return 4 if p == 2 else p


def _tau_pow(p: int, e: int) -> complex:
    return tau(p) ** (e % tau_order(p))


def pauli_x(p: int) -> np.ndarray:
    """The shift X |j> = |j + 1 mod p>: the read-only ``_xz_matrix(p, 1, 0)``."""
    return _xz_matrix(p, 1, 0)


def pauli_z(p: int) -> np.ndarray:
    """The clock Z |j> = omega**j |j>: the read-only ``_xz_matrix(p, 0, 1)``."""
    return _xz_matrix(p, 0, 1)


@lru_cache(maxsize=None)
def _xz_matrix(p: int, x: int, z: int) -> np.ndarray:
    """X**x Z**z without the tau prefactor, cached and read-only."""
    m = np.zeros((p, p), dtype=complex)
    w = omega(p)
    for j in range(p):
        m[(j + x) % p, j] = w ** ((j * z) % p)
    m.flags.writeable = False
    return m


def displacement(p: int, x: int, z: int) -> np.ndarray:
    """D_(x|z) = tau**(x*z) X**x Z**z.

    The phase exponent is taken from the labels as given, not from their
    residues mod p; at p = 2 the two differ because tau has order 4.
    """
    check_dim(p)
    return _tau_pow(p, x * z) * _xz_matrix(p, x % p, z % p)


@lru_cache(maxsize=None)
def sl2_matrices(p: int) -> tuple[Mat2, ...]:
    """All of SL(2, Z_p); the count is p(p^2-1)."""
    check_dim(p)
    out = []
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            out.append(((a, b), (c, d)))
    return tuple(out)


@dataclass(frozen=True)
class CliffordLabel:
    """Label (F | chi) of a Clifford element C = D_chi V_F."""

    p: int
    f: Mat2
    chi: tuple[int, int]

    def __post_init__(self):
        check_dim(self.p)
        (a, b), (c, d) = self.f
        if (a * d - b * c) % self.p != 1:
            raise ShapeMismatch("F is not in SL(2, Z_p)")
        object.__setattr__(self, "f", ((a % self.p, b % self.p),
                                       (c % self.p, d % self.p)))
        object.__setattr__(self, "chi", (self.chi[0] % self.p,
                                         self.chi[1] % self.p))


@lru_cache(maxsize=None)
def symplectic_unitaries(p: int) -> np.ndarray:
    """Every V_F, in ``sl2_matrices`` order, as one read-only (n, p, p) stack.

    For beta != 0:  V_F = p**-0.5 sum_{j,k} tau**(beta^-1 (alpha k^2 - 2jk
    + delta j^2)) |j><k|;  for beta == 0:  V_F = sum_k tau**(alpha gamma
    k^2) |alpha k><k|.  Exponents are integers reduced modulo the order of
    tau, which keeps the p = 2 case honest, and index one table of the
    powers of tau.
    """
    check_dim(p)
    order = tau_order(p)
    table = np.array([_tau_pow(p, e) for e in range(order)])
    inv = np.array([mod_inv(b, p) if b else 0 for b in range(p)])
    f = np.array(sl2_matrices(p)).reshape(-1, 4)
    j, k = np.arange(p)[:, None], np.arange(p)
    out = np.zeros((len(f), p, p), dtype=complex)
    gen = f[:, 1] != 0
    alpha, beta, delta = (f[gen, i, None, None] for i in (0, 1, 3))
    e = inv[beta] * (alpha * k * k - 2 * j * k + delta * j * j)
    out[gen] = table[e % order] / np.sqrt(p)
    mono = np.flatnonzero(~gen)[:, None]
    a, c = f[mono, 0], f[mono, 2]
    out[mono, (a * k) % p, k] = table[(a * c * k * k) % order]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _sl2_index(p: int) -> dict:
    return {f: i for i, f in enumerate(sl2_matrices(p))}


def symplectic_unitary(p: int, f: Mat2) -> np.ndarray:
    """The unitary V_F implementing F in SL(2, Z_p): its read-only row of
    ``symplectic_unitaries``.  ShapeMismatch unless F is in SL(2, Z_p)."""
    check_dim(p)
    i = _sl2_index(p).get(tuple(tuple(int(x) % p for x in row) for row in f))
    if i is None:
        raise ShapeMismatch("F is not in SL(2, Z_p)")
    return symplectic_unitaries(p)[i]


def clifford_unitary(label: CliffordLabel) -> np.ndarray:
    """Dense matrix of the Clifford element named by ``label``."""
    x, z = label.chi
    return displacement(label.p, x, z) @ symplectic_unitary(label.p, label.f)


@lru_cache(maxsize=None)
def _metaplectic_defects(p: int) -> np.ndarray:
    """The displacement kappa left over in V_F1 V_F2 relative to V_(F1 F2),
    V_F1 V_F2 proportional to D_kappa V_(F1 F2), for every pair of
    ``sl2_matrices``, as a read-only [F1, F2, (x, z)] array.  For odd p the
    recipe composes cleanly (kappa = 0), so only p = 2, where the tau
    phases do not cancel, reads it.

    Both products implement F1 F2, so they differ by one displacement up
    to a phase, and |Tr[(D_k V_(F1 F2))^dag V_F1 V_F2]| is p at k = kappa
    and 0 elsewhere (ShapeMismatch unless the largest is p to 1e-10).
    """
    f, v = np.array(sl2_matrices(p)), symplectic_unitaries(p)
    n, i = len(f), _sl2_index(p)
    f12 = [i[tuple(map(tuple, m))] for m in (f[:, None] @ f % p).reshape(-1, 2, 2).tolist()]
    d = np.array([displacement(p, x, z) for x in range(p) for z in range(p)])
    w = (v[:, None] @ v).reshape(-1, p, p)  # [pair of indices i n + j]
    t = np.abs(np.sum((d[:, None] @ v[f12]).conj() * w, axis=(2, 3)))  # [k, pair]
    if not np.max(np.abs(t.max(axis=0) - p)) <= 1e-10:
        raise ShapeMismatch("metaplectic composition defect not found")
    out = np.stack(np.divmod(t.argmax(axis=0), p), axis=-1).reshape(n, n, 2)
    out.flags.writeable = False
    return out


def compose_cliffords(l1: CliffordLabel, l2: CliffordLabel) -> CliffordLabel:
    """Label of the product C1 C2 (which equals it up to a global phase)."""
    if l1.p != l2.p:
        raise ShapeMismatch("labels live in different dimensions")
    p = l1.p
    (a1, b1), (c1, d1) = l1.f
    (a2, b2), (c2, d2) = l2.f
    f = ((a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
         (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2))
    i = _sl2_index(p)
    kx, kz = _metaplectic_defects(p)[i[l1.f], i[l2.f]].tolist() if p == 2 else (0, 0)
    x2, z2 = l2.chi
    chi = (l1.chi[0] + a1 * x2 + b1 * z2 + kx,
           l1.chi[1] + c1 * x2 + d1 * z2 + kz)
    return CliffordLabel(p, f, chi)


@lru_cache(maxsize=None)
def clifford_labels(p: int) -> tuple[CliffordLabel, ...]:
    """All p^3 (p^2 - 1) Clifford labels."""
    out = []
    for f in sl2_matrices(p):
        for x in range(p):
            for z in range(p):
                out.append(CliffordLabel(p, f, (x, z)))
    return tuple(out)


def pauli_projector(p: int, a: int, b: int, k: int) -> np.ndarray:
    """Rank-one projector onto the omega**k eigenvector of the (a|b) basis.

    For odd p the basis operator is the bare X**a Z**b, whose spectrum is
    already the p-th roots of unity.  For p = 2 the displacement phase is
    required to make the (1|1) operator an involution, so D_(a|b) is used.
    """
    check_dim(p)
    a %= p
    b %= p
    if a == 0 and b == 0:
        raise ZeroLabel("label (0|0) does not define a basis")
    base = displacement(p, a, b) if p == 2 else _xz_matrix(p, a, b)
    w = omega(p)
    term = np.eye(p, dtype=complex)
    acc = np.eye(p, dtype=complex)
    for m in range(1, p):
        term = term @ base
        acc = acc + w ** ((-m * k) % p) * term
    acc /= p
    return 0.5 * (acc + acc.conj().T)


def mub_labels(p: int) -> tuple[tuple[int, int], ...]:
    """The p + 1 measurement bases: Z first, then X Z^(j-1) for j = 1..p."""
    return ((0, 1),) + tuple((1, j - 1) for j in range(1, p + 1))


@lru_cache(maxsize=None)
def mub_projectors(p: int) -> np.ndarray:
    """Array of shape (p+1, p, p, p): [basis, eigenvalue index] -> projector."""
    check_dim(p)
    out = np.empty((p + 1, p, p, p), dtype=complex)
    for bi, (a, b) in enumerate(mub_labels(p)):
        for k in range(p):
            out[bi, k] = pauli_projector(p, a, b, k)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def mub_vectors(p: int) -> np.ndarray:
    """Array (p+1, p, p): the unit eigenvector behind each MUB projector."""
    projs = mub_projectors(p)
    out = np.empty((p + 1, p, p), dtype=complex)
    for bi in range(p + 1):
        for k in range(p):
            pi = projs[bi, k]
            col = int(np.argmax(np.abs(np.diag(pi))))
            vec = pi[:, col]
            vec = vec / np.linalg.norm(vec)
            # fix the overall phase: first sizeable component real positive
            lead = vec[int(np.argmax(np.abs(vec)))]
            out[bi, k] = vec * (np.conj(lead) / abs(lead))
    out.flags.writeable = False
    return out
