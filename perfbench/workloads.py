"""The benchmark's workloads: inputs from a seed, one rep, output checks.

A rep is the fixed unit of work of a workload.  Every task in a rep is
checked against references held here, not read from the package, and a
task that raises, exits non-zero or misses its reference counts as
failed.  The package is imported from ``src`` of the checkout by
``run.py`` before this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback

import numpy as np

import quditgates
import quditgates.cli

# ---------------------------------------------------------------------------
# references

# table1: order histogram, group name and minimal generator count per p.
TABLE1 = {
    2: ({1: 1, 2: 1, 4: 2, 8: 4}, "Z8", 1),
    3: ({1: 1, 3: 8, 9: 18}, "Z9 x Z3", 2),
    5: ({1: 1, 5: 124}, "Z5 x Z5 x Z5", 3),
    7: ({1: 1, 7: 342}, "Z7 x Z7 x Z7", 3),
}
DEPOL_GATE_PCT = {2: 45.3082, 3: 78.6327}       # 4-decimal references
NEGATIVITY = {2: (math.sqrt(2) - 1) / 4, 3: 0.1362980}
NEGATIVITY_TOL = {2: 1e-12, 3: 1e-7}
CHOI_NEGATIVITY = {2: 0.2071, 3: 0.4089}        # paper-recorded cells
UQC_LOWER_PCT_P3 = 58.1445
PCT_TOL = 1e-4


def pd_gate_pct(p: int, negativity: float) -> float:
    """Dephasing threshold (p-1)/p * N / (N + 1/p^2), in percent.

    At p = 2 this is exactly (2 - sqrt 2)/4 = 14.6447%, not the recorded
    14.65%.
    """
    return 100 * (p - 1) / p * negativity / (negativity + 1 / p ** 2)


# cliff_lp_p5: the robust p = 5 gate (z, gamma, eps) = (1, 4, 0).
P5_GATE = (1, 4, 0)
P5_VERTICES = 5 ** 3 * (5 ** 2 - 1)
P5_ROWS = 5 ** 4 + 1
P5_THRESHOLD = 0.9524               # recorded; one eps on each side
# Midpoints of the bands [0.93, 0.95] (outside CLIFF) and [0.955, 0.98]
# (inside).  The pivot count moves erratically with eps inside a band, so
# eps drawn from the seed made run_s spread by 17% over five seeds; fixed
# points keep the work of a rep the same from run to run.
EPS_OUTSIDE = 0.94
EPS_INSIDE = 0.9675

# facet_scan
P7_EDGES = 7 ** 7
P7_TARGET = -0.1202
P7_WINDOW_COUNT = 14504
P7_FLAT_COUNT = 98
P5_EDGES = 5 ** 5
P5_CLASS = (-0.16, -0.08361, 0.04, 0.04, 0.36361)
P5_CLASS_COUNT = 100
EQUATORIAL_NEGATIVITY = {5: 0.1600, 7: 0.1202}
EQUATORIAL_TOL = 5e-5


def min_edge_eigenvalue(p: int) -> float:
    return -(p - 1) / p ** 2


class Tally:
    """Tasks attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @contextlib.contextmanager
    def task(self, label: str):
        """Count one task; a raised exception or a problem fails it."""
        self.attempted += 1
        before = len(self.problems)
        try:
            yield self
        except Exception:
            self.problems.append(f"{label}: raised\n{traceback.format_exc()}")
        if len(self.problems) > before:
            self.failed += 1

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# tables


TABLE_ARGV = (
    ("table1",),
    ("table2", "--p", "2"),
    ("table2", "--p", "3"),
    ("table3", "--p", "2"),
    ("table3", "--p", "3"),
)


def _cells(payload: dict, p: int) -> dict:
    (row,) = [r for r in payload["rows"] if r["p"] == p]
    return row["cells"]


def _near(t: Tally, cell: dict, want: float, tol: float, prov: str, what: str):
    t.check(cell["provenance"] == prov, f"{what}: provenance {cell['provenance']} != {prov}")
    t.check(abs(cell["value"] - want) <= tol,
            f"{what}: {cell['value']!r} vs reference {want!r} (tol {tol:g})")


def _check_table1(t: Tally, payload: dict) -> None:
    t.check(sorted(r["p"] for r in payload["rows"]) == sorted(TABLE1), "table1: rows")
    for r in payload["rows"]:
        hist, group, gens = TABLE1[r["p"]]
        got = {int(k): v for k, v in r["order_histogram"].items()}
        t.check(got == hist, f"table1 p={r['p']}: histogram {got}")
        t.check(r["cells"]["group"]["value"] == group, f"table1 p={r['p']}: group")
        t.check(r["cells"]["min_generators"]["value"] == gens, f"table1 p={r['p']}: generators")


def _check_table2(t: Tally, payload: dict, p: int) -> None:
    c = _cells(payload, p)
    _near(t, c["depol_gate_pct"], DEPOL_GATE_PCT[p], PCT_TOL, "computed", f"table2 p={p} depol")
    _near(t, c["negativity"], NEGATIVITY[p], NEGATIVITY_TOL[p], "computed", f"table2 p={p} negativity")
    _near(t, c["pd_gate_pct"], pd_gate_pct(p, NEGATIVITY[p]), PCT_TOL, "computed",
          f"table2 p={p} dephasing")
    _near(t, c["choi_negativity"], CHOI_NEGATIVITY[p], 0.0, "paper-recorded",
          f"table2 p={p} choi negativity")


def _check_table3(t: Tally, payload: dict, p: int) -> None:
    c = _cells(payload, p)
    _near(t, c["upper_pct"], DEPOL_GATE_PCT[p], PCT_TOL, "computed", f"table3 p={p} upper")
    if p == 2:
        _near(t, c["lower_pct"], DEPOL_GATE_PCT[2], PCT_TOL, "computed", "table3 p=2 lower")
    else:
        _near(t, c["lower_pct"], UQC_LOWER_PCT_P3, PCT_TOL, "config-derived", "table3 p=3 lower")


def tables_inputs(seed: int) -> list:
    """The seed has no effect: the five CLI calls are fixed."""
    return [[list(argv) for argv in TABLE_ARGV]]


def tables_rep(argvs: list, t: Tally) -> None:
    for argv in argvs:
        label = " ".join(argv)
        with t.task(label):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = quditgates.cli.main(argv)
            if rc != 0:
                t.check(False, f"{label}: exit {rc}: {err.getvalue().strip()}")
                continue
            payload = json.loads(out.getvalue())
            if argv[0] == "table1":
                _check_table1(t, payload)
            elif argv[0] == "table2":
                _check_table2(t, payload, int(argv[2]))
            else:
                _check_table3(t, payload, int(argv[2]))


# ---------------------------------------------------------------------------
# cliff_lp_p5


def cliff_inputs(seed: int) -> list:
    """The seed has no effect: one depolarised robust gate on each side."""
    u = quditgates.gate_matrix(5, quditgates.GateParams(*P5_GATE))
    return [(u, EPS_OUTSIDE, EPS_INSIDE)]


def _choi_reference(u: np.ndarray, eps: float) -> np.ndarray:
    """(1-eps) |v><v| + eps I/p^2 with v = vec(U)/sqrt p (U diagonal)."""
    p = u.shape[0]
    v = np.zeros(p * p, dtype=complex)
    v[::p + 1] = np.diag(u) / math.sqrt(p)
    return (1 - eps) * np.outer(v, v.conj()) + eps * np.eye(p * p) / p ** 2


def cliff_rep(inputs: tuple, t: Tally) -> None:
    u, eps_outside, eps_inside = inputs
    failed = t.failed
    with t.task("cliff_polytope(5)"):
        spec = quditgates.cliff_polytope(5)
        shape = spec.system().shape
        t.check(spec.n_vertices == P5_VERTICES, f"CLIFF p=5: {spec.n_vertices} vertices")
        t.check(shape == (P5_ROWS, P5_VERTICES), f"CLIFF p=5: system shape {shape}")
    if t.failed > failed:
        return
    for eps, inside in ((eps_outside, False), (eps_inside, True)):
        with t.task(f"lp_membership eps={eps!r}"):
            target = quditgates.depolarized_choi(5, u, eps)
            t.check(np.max(np.abs(target - _choi_reference(u, eps))) <= 1e-12,
                    f"depolarized_choi eps={eps!r} differs from the reference")
            out = quditgates.lp_membership(spec, target)
            t.check(out.feasible == inside and (eps > P5_THRESHOLD) == inside,
                    f"eps={eps!r}: feasible={out.feasible}, expected {inside}")
            if out.feasible and inside:
                w = out.weights
                resid = np.einsum("n,nij->ij", w, spec.vertices) - target
                t.check(w.shape == (P5_VERTICES,) and w.min() >= 0.0,
                        f"eps={eps!r}: weights are not non-negative")
                t.check(abs(w.sum() - 1.0) <= 1e-8, f"eps={eps!r}: weights sum {w.sum()!r}")
                t.check(np.max(np.abs(resid)) <= 1e-7,
                        f"eps={eps!r}: weights miss the target by {np.max(np.abs(resid)):.2e}")
            elif not out.feasible and not inside:
                wit = out.certificate
                t.check(np.max(np.abs(wit - wit.conj().T)) <= 1e-12,
                        f"eps={eps!r}: witness is not Hermitian")
                margin = quditgates.verify_certificate(spec, target, wit)
                t.check(margin > 0.0, f"eps={eps!r}: margin {margin!r}")


# ---------------------------------------------------------------------------
# facet_scan


def facet_inputs(seed: int) -> list:
    """Two sets of optimize_equatorial seeds for p = 5 and 7."""
    rng = np.random.default_rng(seed)
    return [tuple(int(s) for s in rng.integers(0, 2 ** 31, size=2)) for _ in range(2)]


def facet_rep(seeds: tuple, t: Tally) -> None:
    with t.task("edge_scan(7)"):
        scan = quditgates.edge_scan(7, target=P7_TARGET)
        t.check(scan.n_edges == P7_EDGES, f"edge_scan(7): n_edges {scan.n_edges}")
        t.check(abs(scan.min_eigenvalue - min_edge_eigenvalue(7)) <= 1e-9,
                f"edge_scan(7): minimum {scan.min_eigenvalue!r}")
        t.check(scan.window_count == P7_WINDOW_COUNT,
                f"edge_scan(7): window count {scan.window_count}")
        t.check(scan.window_flat_count == P7_FLAT_COUNT,
                f"edge_scan(7): flat count {scan.window_flat_count}")
    with t.task("edge_spectra_classes(5)"):
        classes = quditgates.edge_spectra_classes(5)
        t.check(sum(classes.values()) == P5_EDGES, "edge_spectra_classes(5): total")
        lowest = min(k[0] for k in classes)
        t.check(abs(lowest - min_edge_eigenvalue(5)) <= 2e-9,
                f"edge_spectra_classes(5): minimum {lowest!r}")
        hits = [n for k, n in classes.items()
                if np.max(np.abs(np.array(k) - P5_CLASS)) < 1e-4]
        t.check(hits == [P5_CLASS_COUNT], f"edge_spectra_classes(5): class counts {hits}")
    for p, seed in zip((5, 7), seeds):
        with t.task(f"optimize_equatorial({p}, seed={seed})"):
            got = quditgates.optimize_equatorial(p, seed=seed).negativity
            t.check(abs(got - EQUATORIAL_NEGATIVITY[p]) <= EQUATORIAL_TOL,
                    f"optimize_equatorial({p}): {got!r}")


# ---------------------------------------------------------------------------


WORKLOADS = {
    "tables": (tables_inputs, tables_rep),
    "cliff_lp_p5": (cliff_inputs, cliff_rep),
    "facet_scan": (facet_inputs, facet_rep),
}


def make_inputs(name: str, seed: int) -> list:
    """The rep inputs of a workload; a run cycles through them in order."""
    return WORKLOADS[name][0](seed)
