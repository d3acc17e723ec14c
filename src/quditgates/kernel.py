"""Small exact/numeric kernel: modular arithmetic, checks on dense complex
matrices, and comparison of matrices up to a global phase.

Everything here is dimension-agnostic; the quantum-specific constructions
live in the higher modules.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotInvertible, ShapeMismatch

PHASE_TOL = 1e-9
UNITARY_TOL = 1e-10


def mod_inv(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m``, raising NotInvertible when gcd(a, m) != 1."""
    a = a % m
    if math.gcd(a, m) != 1:
        raise NotInvertible(f"{a} has no inverse modulo {m}")
    return pow(a, -1, m)


def is_diagonal(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    return bool(np.all(np.abs(m - np.diag(np.diag(m))) <= tol))


def assert_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    u = assert_square(u)
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray,
                             tol: float = PHASE_TOL):
    """Whether ``a == c * b`` for some unit-modulus scalar ``c``.

    Returns ``(True, c)`` with ``c`` read off at the largest-magnitude entry
    of ``b``, or ``(False, None)``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    flat_b = b.ravel()
    idx = int(np.argmax(np.abs(flat_b)))
    pivot = flat_b[idx]
    if abs(pivot) <= tol:
        # b is (numerically) zero; only the zero matrix matches it.
        return (bool(np.max(np.abs(a)) <= tol), None)
    raw = a.ravel()[idx] / pivot
    if abs(raw) <= tol:
        return (False, None)
    c = raw / abs(raw)
    if np.max(np.abs(a - c * b)) <= tol:
        return (True, complex(c))
    return (False, None)
