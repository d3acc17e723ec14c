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


@lru_cache(maxsize=None)
def pauli_x(p: int) -> np.ndarray:
    x = np.roll(np.eye(p, dtype=complex), 1, axis=0)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=None)
def pauli_z(p: int) -> np.ndarray:
    z = np.diag(omega(p) ** np.arange(p))
    z.flags.writeable = False
    return z


@lru_cache(maxsize=None)
def _xz_matrix(p: int, x: int, z: int) -> np.ndarray:
    """X**x Z**z without the tau prefactor."""
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
def symplectic_unitary(p: int, f: Mat2) -> np.ndarray:
    """The unitary V_F implementing F in SL(2, Z_p).

    For beta != 0:  V_F = p**-0.5 sum_{j,k} tau**(beta^-1 (alpha k^2 - 2jk
    + delta j^2)) |j><k|;  for beta == 0:  V_F = sum_k tau**(alpha gamma
    k^2) |alpha k><k|.  Exponents are integers reduced modulo the order of
    tau, which keeps the p = 2 case honest.
    """
    check_dim(p)
    (alpha, beta), (gamma, delta) = f
    v = np.zeros((p, p), dtype=complex)
    if beta % p == 0:
        for k in range(p):
            v[(alpha * k) % p, k] = _tau_pow(p, alpha * gamma * k * k)
    else:
        inv_b = mod_inv(beta, p)
        for j in range(p):
            for k in range(p):
                e = inv_b * (alpha * k * k - 2 * j * k + delta * j * j)
                v[j, k] = _tau_pow(p, e)
        v /= np.sqrt(p)
    v.flags.writeable = False
    return v


def clifford_unitary(label: CliffordLabel) -> np.ndarray:
    """Dense matrix of the Clifford element named by ``label``."""
    x, z = label.chi
    return displacement(label.p, x, z) @ symplectic_unitary(label.p, label.f)


@lru_cache(maxsize=None)
def _metaplectic_defect(p: int, f1: Mat2, f2: Mat2) -> tuple[int, int]:
    """Displacement left over in V_F1 V_F2 relative to V_(F1 F2).

    For odd p the recipe composes cleanly (defect (0, 0)).  For p = 2 the
    tau phases do not cancel and V_F1 V_F2 is proportional to D_kappa
    V_(F1 F2) for a possibly nonzero kappa, found here by direct search.
    """
    if p != 2:
        return (0, 0)
    from .kernel import equal_up_to_global_phase

    (a1, b1), (c1, d1) = f1
    (a2, b2), (c2, d2) = f2
    f12 = (((a1 * a2 + b1 * c2) % p, (a1 * b2 + b1 * d2) % p),
           ((c1 * a2 + d1 * c2) % p, (c1 * b2 + d1 * d2) % p))
    w = symplectic_unitary(p, f1) @ symplectic_unitary(p, f2)
    v12 = symplectic_unitary(p, f12)
    for kx in range(p):
        for kz in range(p):
            eq, _ = equal_up_to_global_phase(w, displacement(p, kx, kz) @ v12, 1e-10)
            if eq:
                return (kx, kz)
    raise ShapeMismatch("metaplectic composition defect not found")


def compose_cliffords(l1: CliffordLabel, l2: CliffordLabel) -> CliffordLabel:
    """Label of the product C1 C2 (which equals it up to a global phase)."""
    if l1.p != l2.p:
        raise ShapeMismatch("labels live in different dimensions")
    p = l1.p
    (a1, b1), (c1, d1) = l1.f
    (a2, b2), (c2, d2) = l2.f
    f = ((a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
         (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2))
    kx, kz = _metaplectic_defect(p, l1.f, l2.f)
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


@lru_cache(maxsize=None)
def stabilizer_states(p: int) -> np.ndarray:
    """The p(p+1) stabilizer pure states as an array (p(p+1), p, p)."""
    projs = mub_projectors(p)
    return projs.reshape(-1, p, p)
