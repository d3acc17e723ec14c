"""States, Choi matrices, and stabilizer-polytope facet geometry.

The +1 superposition image of a diagonal gate U is psi_U = U |+>, i.e. the
normalised diagonal of U.  Distance from the stabilizer polytope is probed
with the facet operators

    A(u)      = (1/p) ( Pi_Z[u_0] + sum_j Pi_XZ^(j-1)[u_j] - I ),
    A_edge(u) = (1/p) ( sum_j Pi_XZ^(j-1)[u_j] - (p-1)/p * I ),

where A_edge is the average of A over the Z-basis index; both have trace
1/p.  Because each facet picks one eigenvalue index per basis
independently, the minimum over all p^(p+1) facets decomposes into
per-basis minima, which is what ``negativity`` exploits.  Pauli
conjugation shifts the eigen-indices of each X-type basis, so edge scans
diagonalise the p^(p-2) edges with u_0 = u_1 = 0, one per Pauli orbit of
p^2 edges with equal spectra and eigenvector moduli, and weight each p^2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadLength,
    ConvergenceFailure,
    NotDiagonal,
    NotEigenvector,
    NotTracePreserving,
    NotUnitary,
    SymmetryViolation,
)
from .hierarchy import (
    DiagGateExact,
    GateParams,
    gate_exponents,
    root_order,
)
from .kernel import is_diagonal
from .weylheis import (
    CliffordLabel,
    check_dim,
    clifford_unitary,
    displacement,
    mub_projectors,
    mub_vectors,
    pauli_x,
    pauli_z,
)


def state_from_diagonal(u) -> np.ndarray:
    """psi_U = U |+> for a diagonal unitary U (matrix or DiagGateExact)."""
    u = np.asarray(u.matrix() if isinstance(u, DiagGateExact) else u, dtype=complex)
    if not is_diagonal(u):
        raise NotDiagonal("state_from_diagonal expects a diagonal unitary")
    d = np.diag(u)
    if np.max(np.abs(np.abs(d) - 1.0)) > 1e-10:
        raise NotUnitary("diagonal entries must have unit modulus")
    return d / np.sqrt(len(d))


def gate_state(p: int, g: GateParams) -> np.ndarray:
    """Exact psi for the family gate with parameters ``g``."""
    return state_from_diagonal(gate_exponents(p, g))


def choi_ket(u: np.ndarray) -> np.ndarray:
    """(I x U) |Phi> = vec(U^T) / sqrt p, for one matrix or a stack of them.

    |Phi> = sum_j |jj> / sqrt p; U may be a unitary or a Kraus operator.
    """
    u = np.asarray(u, dtype=complex)
    p = u.shape[-1]
    return np.swapaxes(u, -1, -2).reshape(*u.shape[:-2], p * p) * (1.0 / np.sqrt(p))


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Jamiolkowski state (I x U) |Phi><Phi| (I x U)^dag."""
    v = choi_ket(u)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class KrausChannel:
    """Channel rho -> sum_t w_t K_t rho K_t^dag with weights w_t >= 0."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(w), np.asarray(k, dtype=complex)) for w, k in self.terms)
        object.__setattr__(self, "terms", terms)
        dim = terms[0][1].shape[0]
        acc = np.zeros((dim, dim), dtype=complex)
        for w, k in terms:
            if w < -1e-12:
                raise NotTracePreserving("negative Kraus weight")
            acc += w * (k.conj().T @ k)
        if np.max(np.abs(acc - np.eye(dim))) > 1e-9:
            raise NotTracePreserving("weighted Kraus terms do not resolve the identity")

    @property
    def dim(self) -> int:
        return self.terms[0][1].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for w, k in self.terms:
            out += w * (k @ rho @ k.conj().T)
        return out


def choi_of_channel(channel: KrausChannel) -> np.ndarray:
    p = channel.dim
    out = np.zeros((p * p, p * p), dtype=complex)
    for w, k in channel.terms:
        v = choi_ket(k)
        out += w * np.outer(v, v.conj())
    return out


def depolarizing_gate_channel(p: int, u: np.ndarray, eps: float) -> KrausChannel:
    """Target unitary with probability 1 - eps, complete depolarising otherwise."""
    check_dim(p)
    terms = [(1.0 - eps, u)]
    for x in range(p):
        for z in range(p):
            terms.append((eps / p ** 2, displacement(p, x, z) @ u))
    return KrausChannel(tuple(terms))


def phase_damping_gate_channel(p: int, u: np.ndarray, eps: float) -> KrausChannel:
    """Target unitary followed by a random nontrivial Z power with weight eps."""
    check_dim(p)
    z = pauli_z(p)
    terms = [(1.0 - eps, u)]
    zk = np.eye(p, dtype=complex)
    for _ in range(1, p):
        zk = zk @ z
        terms.append((eps / (p - 1), zk @ u))
    return KrausChannel(tuple(terms))


def depolarized_state(p: int, state: np.ndarray, eps: float) -> np.ndarray:
    """(1-eps) rho + eps I/p for a state that ``basis_expectations`` takes,
    rho = psi psi^dag for a ket psi."""
    rho = _check_state(p, state)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    return (1.0 - eps) * rho + eps * np.eye(p) / p


def phase_damped_state(p: int, psi: np.ndarray, eps: float) -> np.ndarray:
    """(1-eps) rho + eps/(p-1) (I - rho) for a state that
    ``basis_expectations`` takes, rho = psi psi^dag for a ket psi."""
    rho = _check_state(p, psi)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    return (1.0 - eps) * rho + (eps / (p - 1)) * (np.eye(p) - rho)


def depolarized_choi(p: int, u: np.ndarray, eps: float) -> np.ndarray:
    """Choi state of the depolarised gate: (1-eps) J_U + eps I / p^2."""
    return (1.0 - eps) * choi_of_unitary(u) + eps * np.eye(p * p) / p ** 2


def facet_operator(p: int, u) -> np.ndarray:
    """Full facet A(u); ``u`` has one eigenvalue index per basis (p+1
    integers, else ValueError)."""
    check_dim(p)
    try:
        u = tuple(operator.index(x) % p for x in u)
    except TypeError:
        raise ValueError(f"facet_operator: u must hold integer indices, got {u!r}") from None
    if len(u) != p + 1:
        raise BadLength(f"need {p + 1} indices, got {len(u)}")
    projs = mub_projectors(p)
    acc = -np.eye(p, dtype=complex)
    for bi, k in enumerate(u):
        acc = acc + projs[bi, k]
    return acc / p


def edge_facet(p: int, u) -> np.ndarray:
    """Edge facet A_edge(u), one index per X-type basis: the mean of the
    full facets A(u_0, u) over the Z-basis index u_0."""
    check_dim(p)
    u = tuple(u)
    if len(u) != p:
        raise BadLength(f"need {p} indices, got {len(u)}")
    return np.mean([facet_operator(p, (u0, *u)) for u0 in range(p)], axis=0)


def _check_density(rho, d: int, name: str) -> np.ndarray:
    """``rho`` as a complex d x d matrix; ValueError naming the defect unless
    it is Hermitian within 1e-10 and has unit trace within 1e-8."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"{name} dimension must be {d} x {d}, got shape {rho.shape}")
    # Readers take it as Hermitian: herm_to_vec reads only the upper
    # triangle, and basis_expectations only real parts.
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-10:
        raise ValueError(f"{name} must be Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= 1e-8:
        raise ValueError(f"{name} must have unit trace")
    return rho


def _check_state(p: int, state) -> np.ndarray:
    """``state`` as a complex array, if a state (see ``basis_expectations``);
    ValueError naming the defect otherwise."""
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        return _check_density(state, p, "density matrix")
    if state.shape != (p,):
        raise ValueError(f"state vector must have shape ({p},), got {state.shape}")
    if not abs(np.linalg.norm(state) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("state vector must have norm 1")
    return state


def basis_expectations(p: int, state: np.ndarray) -> np.ndarray:
    """Array (p+1, p) of eigenprojector expectation values in every basis.

    ``state`` is a ket of shape (p,) and norm 1 within 1e-10, or a density
    matrix of shape (p, p), Hermitian within 1e-10 and of unit trace within
    1e-8; anything else raises ValueError naming the defect.
    """
    check_dim(p)
    state = _check_state(p, state)
    if state.ndim == 1:
        amps = mub_vectors(p).conj() @ state
        return np.abs(amps) ** 2
    q = np.einsum("bkij,ji->bk", mub_projectors(p), state)
    return q.real


@dataclass(frozen=True)
class NegativityResult:
    value: float          # |minimum| when outside, else 0
    minimum: float        # most negative facet expectation
    facet: tuple          # index tuple achieving the minimum
    inside: bool


def negativity(p: int, state: np.ndarray) -> NegativityResult:
    """Distance below the stabilizer polytope boundary, by per-basis minima."""
    q = basis_expectations(p, state)
    idx = tuple(int(i) for i in np.argmin(q, axis=1))
    minimum = float((q.min(axis=1).sum() - 1.0) / p)
    inside = minimum >= -1e-12
    return NegativityResult(value=0.0 if inside else -minimum,
                            minimum=minimum, facet=idx, inside=inside)


# ---------------------------------------------------------------------------
# edge-facet spectra

# Stacks indexed by edge label, Clifford ket (16,807 and 16,464 items at
# p = 7) or equatorial state are built and consumed this many matrix rows at
# a time, never whole.
_BLOCK_ROWS = 4096


def _row_blocks(n: int, rows_per_item: int = 1):
    """Slices covering items 0..n-1 in order, each of at most ``_BLOCK_ROWS``
    matrix rows (but at least one item), an item counting ``rows_per_item``
    rows: a ket is 1 row, a d x d operator d rows, a state's (p+1) x p MUB
    amplitudes p+1 rows, and the p^2 Clifford kets of one V_F p^2 rows."""
    step = max(1, _BLOCK_ROWS // rows_per_item)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _pauli_index_shifts(p: int) -> tuple:
    """(t_X, t_Z) with D Pi_j[k] D^dag = Pi_j[k + t_j] on each X-type basis j.

    ``SymmetryViolation`` unless both exist and the Pauli action is free.
    """
    projs = mub_projectors(p)[1:]
    rolls = np.stack([np.roll(projs, -s, axis=1) for s in range(p)], axis=1)
    shifts = []
    for d in (pauli_x(p), pauli_z(p)):
        conj = d @ projs @ d.conj().T
        match = np.max(np.abs(rolls - conj[:, None]), axis=(2, 3, 4)) < 1e-10
        if not match.any(axis=1).all():
            raise SymmetryViolation("Pauli conjugation is not an eigen-index shift")
        shifts.append(tuple(int(s) for s in match.argmax(axis=1)))
    tx, tz = shifts
    if (tx[0] * tz[1] - tx[1] * tz[0]) % p == 0:
        raise SymmetryViolation("Pauli action on edge labels is not free")
    return tx, tz


def _edge_orbit_representatives(p: int, index: np.ndarray) -> np.ndarray:
    """Stacked A_edge(0, 0, u_2, ..., u_(p-1)), one edge per Pauli orbit,
    for the orbits numbered ``index`` = u_2 + u_3 p + ... + u_(p-1) p^(p-3)."""
    projs = mub_projectors(p)[1:]  # X-type bases only
    rem = np.array(index)
    base = projs[0, 0] + projs[1, 0] - ((p - 1) / p) * np.eye(p)
    acc = np.broadcast_to(base, (len(rem), p, p)).copy()
    for j in range(2, p):
        acc += projs[j, rem % p]
        rem //= p
    return acc / p


@lru_cache(maxsize=1)
def _edge_orbit_eigenvalues(p: int) -> np.ndarray:
    """Ascending eigenvalues of each orbit representative, one row per edge.

    The representatives are built and diagonalised one block of
    ``_BLOCK_ROWS`` matrix rows at a time, each p x p operator counting p
    rows (585 operators at p = 7); each matrix is diagonalised alone, so
    the rows do not depend on the block.  Cached, so a command that wants both
    the scan and the spectral classes diagonalises the representatives
    once; one entry, so the spectra of at most one prime stay in memory
    (0.9 MB at p = 7).
    """
    index = np.arange(p ** (p - 2))
    lam = np.empty((len(index), p))
    for rows in _row_blocks(len(index), p):
        lam[rows] = np.linalg.eigvalsh(_edge_orbit_representatives(p, index[rows]))
    lam.flags.writeable = False
    return lam


def edge_spectra_classes(p: int, decimals: int = 9) -> dict:
    """Spectra of all p^p edge facets, clustered after rounding.

    Returns a dict mapping the rounded eigenvalue tuple (ascending) to its
    multiplicity.  One edge per Pauli orbit is diagonalised, weighted p^2.
    """
    _pauli_index_shifts(p)
    classes: dict[tuple, int] = {}
    for key in map(tuple, np.round(_edge_orbit_eigenvalues(p), decimals)):
        classes[key] = classes.get(key, 0) + p * p
    return classes


@dataclass(frozen=True)
class EdgeScanResult:
    min_eigenvalue: float
    n_edges: int
    window_count: int
    window_flat_count: int


def edge_scan(p: int, target: float | None = None, window: float = 1e-4) -> EdgeScanResult:
    """Scan all p^p edge facets for their minimal eigenvalues.

    When ``target`` is given, counts edges whose smallest eigenvalue lies
    within ``window`` of it, and among those how many have a minimising
    eigenvector with flat amplitude profile |v_i| = p**-0.5 to 1e-6 (the
    signature of a diagonal-gate +1 superposition image).
    """
    if not 0.0 <= window < np.inf or not (target is None or abs(target) < np.inf):
        raise ValueError("edge_scan needs a finite window >= 0 and a finite target")
    _pauli_index_shifts(p)
    lam1 = _edge_orbit_eigenvalues(p)[:, 0]
    mask = np.zeros(len(lam1), bool) if target is None else np.abs(lam1 - target) <= window
    near = np.flatnonzero(mask)
    flat = 0
    for rows in _row_blocks(len(near), p):
        ops = _edge_orbit_representatives(p, near[rows])
        lead = np.abs(np.linalg.eigh(ops)[1][:, :, 0])
        flat += int(np.sum(np.max(np.abs(lead - p ** -0.5), axis=1) <= 1e-6))
    return EdgeScanResult(min_eigenvalue=float(lam1.min()), n_edges=p ** p,
                          window_count=p * p * int(mask.sum()),
                          window_flat_count=p * p * flat)


# ---------------------------------------------------------------------------
# Clifford eigenvector property, gate injection, dilution


def clifford_eigenphase(p: int, g: GateParams):
    """Eigenphase of psi_g under its stabilising Clifford.

    C_([1,0;gamma,1] | (1,z)) fixes psi_g up to a root-of-unity phase;
    returns ``(k, r, phase)`` with phase = exp(2 pi i k / r) observed
    numerically, r = 8, 9, p for p = 2, 3, > 3.
    """
    check_dim(p)
    g = g.reduced(p)
    lab = CliffordLabel(p, ((1, 0), (g.gamma, 1)), (1, g.z))
    c = clifford_unitary(lab)
    psi = gate_state(p, g)
    phase = complex(np.vdot(psi, c @ psi))
    resid = float(np.max(np.abs(c @ psi - phase * psi)))
    if resid > 1e-8 or abs(abs(phase) - 1.0) > 1e-8:
        raise NotEigenvector(f"residual {resid:.2e} above tolerance")
    r = root_order(p)
    k = int(np.rint(np.angle(phase) * r / (2 * np.pi))) % r
    if abs(phase - np.exp(2j * np.pi * k / r)) > 1e-8:
        raise NotEigenvector("eigenphase is not on the expected root lattice")
    return k, r, phase


def _injection_gadget(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Index maps of the injection gadget on two-qudit vectors, index a p + b
    for |a, b>: ``keep``, the indices of span{|aa>}, the omega^0 eigenspace
    of Z x Z^(p-1), and ``to`` with to[a p + b] = a p + (b - a mod p), the
    correction |a, b> -> |a, b - a>."""
    a, b = np.divmod(np.arange(p * p), p)
    return np.arange(p) * (p + 1), a * p + (b - a) % p


@dataclass(frozen=True)
class InjectionResult:
    state: np.ndarray       # two-qudit output (target register first)
    success_prob: float


def inject_gate(p: int, g: GateParams, psi_in: np.ndarray) -> InjectionResult:
    """Consume the resource state psi_g to apply the gate to ``psi_in``.

    Both qudits are measured with the projector onto the omega^0 eigenspace
    of Z x Z^(p-1), i.e. span{|jj>}; on success the correction
    |a, b> -> |a, b - a mod p> leaves (U_g psi_in) x |0>.  Success
    probability is exactly 1/p for any input.  Projector and correction
    are the index maps of ``_injection_gadget``, which the dilution circuit
    (``simulate_dilution``) shares.
    """
    check_dim(p)
    psi_in = np.asarray(psi_in, dtype=complex)
    if psi_in.shape != (p,):
        raise BadLength(f"input state must have length {p}")
    if not abs(np.linalg.norm(psi_in) - 1.0) <= 1e-10:  # NaN fails too
        raise NotUnitary("input state must be normalised")
    resource = gate_state(p, g)
    joint = np.kron(resource, psi_in)
    keep, to = _injection_gadget(p)
    projected = np.zeros_like(joint)
    projected[keep] = joint[keep]
    prob = float(np.linalg.norm(projected) ** 2)
    projected /= np.sqrt(prob)
    corrected = np.empty_like(projected)
    corrected[to] = projected
    return InjectionResult(state=corrected, success_prob=prob)


def partial_trace(rho: np.ndarray, p: int, keep: int) -> np.ndarray:
    """Trace out one factor of a two-qudit density operator, keeping factor
    ``keep``, 0 or 1 (ValueError otherwise)."""
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    r = np.asarray(rho, dtype=complex).reshape(p, p, p, p)
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    return np.einsum("kikj->ij", r)


@dataclass(frozen=True)
class DilutionResult:
    eps_out: float
    success_prob: float


def simulate_dilution(p: int, g: GateParams, eps: float) -> DilutionResult:
    """Run the noisy gate on half of a maximally entangled pair, post-select.

    The depolarised gate's Choi state is measured with the span{|jj>}
    projector and corrected by the index maps of ``_injection_gadget``,
    exactly as in gate injection (``inject_gate``); the surviving
    register carries (1 - eps') psi psi^dag + eps' I/p.  The returned
    eps_out is fitted from the off-diagonal scale and verified against the
    full output matrix (residual <= 1e-8).
    """
    check_dim(p)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    u = gate_exponents(p, g).matrix()
    choi = choi_of_channel(depolarizing_gate_channel(p, u, eps))
    keep, to = _injection_gadget(p)
    blocked = np.zeros_like(choi)
    blocked[np.ix_(keep, keep)] = choi[np.ix_(keep, keep)]
    prob = float(np.trace(blocked).real)
    blocked /= prob
    out = np.empty_like(blocked)
    out[np.ix_(to, to)] = blocked
    sigma = partial_trace(out, p, keep=0)
    psi = gate_state(p, g)
    pure = np.outer(psi, psi.conj())
    off = ~np.eye(p, dtype=bool)
    denom = float(np.sum(np.abs(pure[off]) ** 2))
    alpha = complex(np.sum(np.conj(pure[off]) * sigma[off])) / denom
    if abs(alpha.imag) > 1e-9:
        raise ConvergenceFailure("off-diagonal fit has a complex residue")
    eps_out = float(1.0 - alpha.real)
    model = (1.0 - eps_out) * pure + eps_out * np.eye(p) / p
    if np.max(np.abs(sigma - model)) > 1e-8:
        raise ConvergenceFailure("output is not of the diluted form")
    return DilutionResult(eps_out=eps_out, success_prob=prob)
