"""Print the reproduced bits of quditgates, one line per object.

Each line names an object and gives its floats by ``float.hex``, its
counts as integers and its arrays by the md5 of their bytes, so two
commits on one host can be compared line for line:

    git worktree add ../parent HEAD^
    PYTHONPATH=../parent/src OPENBLAS_NUM_THREADS=1 python tests/fingerprint.py > parent.txt
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/fingerprint.py > head.txt
    diff parent.txt head.txt

The bits depend on the BLAS kernel, so the first line names numpy, the
machine, ``OPENBLAS_CORETYPE`` and the core that numpy's OpenBLAS runs
(``default`` names none, whatever OpenBLAS picked); compare only
fingerprints taken under the same first line.  The objects are the
depolarising-gate thresholds of every family gate at p = 2 and 3 (8 and
27) and of three gates each at p = 5 and 7, the p = 5 and 7 CLIFF and one
STAB(5) membership, the full-vertex CLIFF LP at p = 3 (on a plain
``PolytopeSpec`` of the CLIFF kets, which carries no maps), the Clifford
orbit index ``hull._ket_orbits`` at p = 2, 3, 5 and 7 under three map
sets (the polytope's four generators; the conjugations by Z and the
shear; and the robust gate's pair (U X^dag U^dag, X) with those two),
the label of ``compose_cliffords`` for every pair of p = 2 labels, the
equatorial optimum at p = 5 and 7 with its work counts, the p = 7 edge
scan, and the JSON output of ``table1/2/3`` and ``threshold`` without
``wall_time_s``.  pytest does not collect this file.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform

import numpy as np

from quditgates import cli, hull
from quditgates.geometry import depolarized_choi, edge_scan, gate_state
from quditgates.hierarchy import GateParams, gate_matrix, pauli_conjugation
from quditgates.hull import (
    ROBUST_GATE_PARAMS,
    cliff_polytope,
    lp_membership,
    lp_threshold,
    optimize_equatorial,
    stab_polytope,
    threshold_depol_gate,
)
from quditgates.weylheis import clifford_labels, compose_cliffords


def openblas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, ``unknown`` without one."""
    get = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__),
                  "scipy_openblas_get_corename64_", None)
    if get is None:
        return "unknown"
    get.restype = ctypes.c_char_p
    return get().decode()


def md5(a) -> str:
    if a is None:
        return "None"
    a = np.ascontiguousarray(a)
    return f"{a.dtype}{list(a.shape)}:{hashlib.md5(a.tobytes()).hexdigest()}"


def hexf(x) -> str:
    return "None" if x is None else float(x).hex()


def threshold_line(r) -> str:
    return (f"eps* {hexf(r.epsilon_star)} bracket {hexf(r.bracket)} margin {hexf(r.margin)} "
            f"pivots {r.pivots} orbits {r.orbits} refactorisations {r.refactorisations} "
            f"bland {r.bland} weights {md5(r.weights)} witness {md5(r.witness)}")


def membership_line(out) -> str:
    return (f"feasible {out.feasible} distance {hexf(out.distance)} pivots {out.iterations} "
            f"orbits {out.orbits} refactorisations {out.refactorisations} bland {out.bland} "
            f"weights {md5(out.weights)} certificate {md5(out.certificate)}")


def lines():
    yield (f"numpy {np.__version__} machine {platform.machine()} "
           f"OPENBLAS_CORETYPE {os.environ.get('OPENBLAS_CORETYPE', 'default')} "
           f"core {openblas_core()}")
    for p in (2, 3, 5, 7):
        gates = ([GateParams(*g) for g in np.ndindex(p, p, p)] if p <= 3 else
                 [ROBUST_GATE_PARAMS[p], GateParams(1, 1, 0), GateParams(0, 1, 1)])
        for g in gates:
            yield f"threshold_depol_gate p={p} {g.astuple()}: " + threshold_line(
                threshold_depol_gate(p, g))
    for p, epss in ((5, (0.5, 0.94, 0.9675)), (7, (0.97, 0.98))):
        u = gate_matrix(p, ROBUST_GATE_PARAMS[p])
        for eps in epss:
            out = lp_membership(cliff_polytope(p), depolarized_choi(p, u, eps))
            yield f"lp_membership CLIFF({p}) eps={eps}: " + membership_line(out)
    psi = gate_state(5, ROBUST_GATE_PARAMS[5])
    yield "lp_membership STAB(5) robust gate state: " + membership_line(
        lp_membership(stab_polytope(5), np.outer(psi, psi.conj())))
    u = gate_matrix(3, ROBUST_GATE_PARAMS[3])
    yield "lp_threshold CLIFF(3) every vertex: " + threshold_line(
        lp_threshold(hull.PolytopeSpec(cliff_polytope(3).kets), depolarized_choi(3, u, 0.0),
                     depolarized_choi(3, u, 1.0)))
    for p in (2, 3, 5, 7):
        spec = cliff_polytope(p)
        maps = spec.maps
        gate = (pauli_conjugation(p, ROBUST_GATE_PARAMS[p], -1, 0)[0], maps[0][1])
        for name, labels in (("generators", maps), ("Z and shear", maps[1:3]),
                             ("robust gate, Z and shear", (gate, *maps[1:3]))):
            yield f"_ket_orbits CLIFF({p}) {name}: {md5(hull._ket_orbits(labels, spec.n_vertices))}"
    labels = clifford_labels(2)
    products = [compose_cliffords(a, b) for a in labels for b in labels]
    yield "compose_cliffords p=2 every pair: " + md5(np.array([(*c.f[0], *c.f[1], *c.chi)
                                                                for c in products]))
    neg_batch, work = hull._neg_batch, []
    hull._neg_batch = lambda p, thetas: work.append(len(thetas)) or neg_batch(p, thetas)
    try:
        for p in (5, 7):
            work.clear()
            opt = optimize_equatorial(p, seed=0)
            yield (f"optimize_equatorial p={p}: theta {md5(opt.theta)} negativity "
                   f"{hexf(opt.negativity)} facet {tuple(opt.facet)} "
                   f"calls {len(work)} rows {sum(work)}")
    finally:
        hull._neg_batch = neg_batch
    scan = edge_scan(7, target=-0.1202)
    yield (f"edge_scan p=7 target=-0.1202: min {hexf(scan.min_eigenvalue)} edges {scan.n_edges} "
           f"window {scan.window_count} flat {scan.window_flat_count}")
    for argv in (["table1"], ["table2"], ["table3"],
                 *(["threshold", "--p", str(p)] for p in (2, 3, 5, 7))):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        payload = json.loads(buf.getvalue())
        payload.pop("wall_time_s")
        yield f"quditgates {' '.join(argv)}: exit {code} " + json.dumps(payload, sort_keys=True)


if __name__ == "__main__":
    for line in lines():
        print(line, flush=True)
