"""Command-line front end.

Subcommands reproduce the three summary tables and expose the library
operations one by one.  Each ``cmd_*`` handler is a pure function of the
parsed arguments that returns ``(payload, checks)``: the report, and the
``(label, computed, recorded, tol)`` checks that ``--self-check`` compares.
``main`` is the one runner: it validates ``--p``, gives ``--params`` the
robust gate by default, times the handler, adds ``wall_time_s`` (and
``self_check`` where the command takes the flag), emits the payload and
picks the exit code.  JSON output carries full doubles and a provenance
tag per numeric cell; CSV rounds to 6 significant digits and appends the
provenance in parentheses for anything that is not freshly computed.
Payloads are plain Python values, emitted as built with no fallback.

``build_parser`` is cached, so in-process ``main`` calls share one
parser, which keeps no state between calls.  The depolarising-gate cells
of ``table2``, ``table3`` and ``threshold`` all read
``hull.threshold_depol_gate``: one LP per (p, gate) per process.

Exit codes: 0 ok, 1 usage or config error, 2 domain error, 3 self-check
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache

import numpy as np

from .errors import MissingConfig, QuditGatesError
from .geometry import (
    edge_scan,
    edge_spectra_classes,
    gate_state,
    inject_gate,
    negativity,
    simulate_dilution,
)
from .hierarchy import (
    GateParams,
    element_order,
    gate_exponents,
    group_structure,
    identify_third_level,
)
from .hull import (
    PROV_COMPUTED,
    PROV_RECORDED,
    RECORDED_CHOI_NEGATIVITY,
    RECORDED_DEPOL_GATE,
    RECORDED_NEGATIVITY,
    RECORDED_PD_GATE,
    RECORDED_UQC_LOWER,
    ROBUST_GATE_PARAMS,
    dilution,
    dilution_inv,
    load_distill_config,
    threshold_depol_gate,
    threshold_depol_state,
    threshold_pd_gate,
    uqc_bounds,
)
from .weylheis import SUPPORTED_PRIMES, check_dim

EXPECTED_TABLE1 = {
    2: ({1: 1, 2: 1, 4: 2, 8: 4}, 1),
    3: ({1: 1, 3: 8, 9: 18}, 2),
    5: ({1: 1, 5: 124}, 3),
    7: ({1: 1, 7: 342}, 3),
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this artifact uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_params(text: str) -> GateParams:
    try:
        z, g, e = (int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "--params expects three comma-separated integers z,g,e") from None
    return GateParams(z, g, e)


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan  # fails the range check below
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError("--tol expects a finite number >= 0")
    return tol


def read_matrix(path: str) -> np.ndarray:
    """Plain-text matrix, one row per line, entries like '0.5-0.866i'."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([complex(tok.replace("i", "j")) for tok in line.split()])
    if not rows:
        raise ValueError(f"no matrix data in {path}")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged rows in matrix file")
    return np.array(rows, dtype=complex)


def _fmt6(x) -> str:
    return f"{float(x):.6g}"


def _cell(value, provenance=PROV_COMPUTED) -> dict:
    return {"value": value, "provenance": provenance}


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    # CSV: tables get a header + one line per row; single reports get
    # key,value lines.  Provenance rides along in parentheses.
    if "rows" in payload:
        cols = list(payload["rows"][0]["cells"].keys())
        print(",".join(["p"] + cols))
        for row in payload["rows"]:
            parts = [str(row["p"])]
            for c in cols:
                cell = row["cells"][c]
                val = cell["value"]
                text = val if isinstance(val, str) else _fmt6(val)
                if cell["provenance"] != PROV_COMPUTED:
                    text += f"({cell['provenance']})"
                parts.append(text)
            print(",".join(parts))
        return
    outputs = payload["outputs"]
    if "classes" in outputs:
        print("eigenvalues,count")
        for c in outputs["classes"]:
            print("\"" + " ".join(_fmt6(x) for x in c["eigenvalues"]) + f"\",{c['count']}")
        return
    for key in sorted(outputs):
        val = outputs[key]
        if isinstance(val, float):
            val = _fmt6(val)
        elif isinstance(val, (bool, list, tuple, dict)):
            val = json.dumps(val, sort_keys=True)
        print(f"{key},{val}")


def _report(operation: str, inputs: dict, outputs: dict) -> dict:
    return {"operation": operation, "inputs": inputs, "outputs": outputs,
            "provenance": PROV_COMPUTED}


def _mismatches(checks) -> list:
    """One line per (label, computed, recorded, tol) check that differs by
    more than ``tol``, or at all when ``tol`` is None; a NaN on either side
    is a mismatch."""
    out = []
    for label, got, want, tol in checks:
        if tol is None:
            if got != want:
                out.append(f"{label}: computed {got} vs recorded {want} (exact)")
        elif not abs(got - want) <= tol:
            out.append(f"{label}: computed {got:.6g} vs recorded {want:.6g} (tol {tol:g})")
    return out


# ---------------------------------------------------------------------------
# table commands


def _depol_gate_check(command: str, p: int, cell: str, pct: float) -> tuple:
    """The ``--self-check`` of a depolarising-gate cell against the recorded
    table: a fixed 0.05 percentage points whatever ``--tol`` says, since
    the computed 45.3082% is 0.012 points from the printed 45.32%."""
    return (f"{command} p={p} {cell}", pct, 100 * RECORDED_DEPOL_GATE[p], 0.05)


def cmd_table1(args) -> tuple[dict, list]:
    rows, checks = [], []
    for p in (args.p,) if args.p else SUPPORTED_PRIMES:
        rep = group_structure(p)
        counts = "/".join(str(v) for v in rep.order_histogram.values())
        rows.append({
            "p": p,
            "cells": {
                "group": _cell(rep.group_name),
                "order_counts": _cell(counts),
                "min_generators": _cell(rep.min_generators),
            },
            "order_histogram": {str(k): v for k, v in rep.order_histogram.items()},
        })
        hist, gens = EXPECTED_TABLE1[p]
        checks.append((f"table1 p={p} order_histogram", rep.order_histogram, hist, None))
        checks.append((f"table1 p={p} min_generators", rep.min_generators, gens, None))
    return {"table": "group-structure", "rows": rows}, checks


def cmd_table2(args) -> tuple[dict, list]:
    tol_pct = args.tol if args.tol is not None else 0.005
    tol_neg = args.tol if args.tol is not None else 5e-5
    rows, checks = [], []
    for p in (args.p,) if args.p else SUPPORTED_PRIMES:
        g = ROBUST_GATE_PARAMS[p]
        psi = gate_state(p, g)
        depol = 100 * threshold_depol_gate(p, g).epsilon_star
        pd = 100 * threshold_pd_gate(p, psi).epsilon_star
        neg = negativity(p, psi).value
        rows.append({"p": p, "params": list(g.astuple()), "cells": {
            "depol_gate_pct": _cell(depol),
            "pd_gate_pct": _cell(pd),
            "negativity": _cell(neg),
            "choi_negativity": _cell(RECORDED_CHOI_NEGATIVITY[p], PROV_RECORDED),
        }})
        checks.append((f"table2 p={p} pd_gate_pct", pd, 100 * RECORDED_PD_GATE[p], tol_pct))
        checks.append((f"table2 p={p} negativity", neg, RECORDED_NEGATIVITY[p], tol_neg))
        checks.append(_depol_gate_check("table2", p, "depol_gate_pct", depol))
    return {"table": "robustness-negativity", "rows": rows}, checks


def cmd_table3(args) -> tuple[dict, list]:
    config = load_distill_config(args.config)
    tol = args.tol if args.tol is not None else 0.05
    rows, checks = [], []
    for p in (args.p,) if args.p else SUPPORTED_PRIMES:
        b = uqc_bounds(p, config)
        lower, upper = 100 * b.lower, 100 * b.upper
        rows.append({"p": p, "cells": {
            "lower_pct": _cell(lower, b.lower_provenance),
            "upper_pct": _cell(upper, b.upper_provenance),
        }})
        # A computed lower bound (p=2) is the depolarising-gate cell itself.
        if b.lower_provenance == PROV_COMPUTED:
            checks.append(_depol_gate_check("table3", p, "lower_pct", lower))
        else:
            checks.append((f"table3 p={p} lower_pct", lower, 100 * RECORDED_UQC_LOWER[p], tol))
        checks.append(_depol_gate_check("table3", p, "upper_pct", upper))
    return {"table": "uqc-bounds", "rows": rows}, checks


# ---------------------------------------------------------------------------
# single-operation commands


def cmd_gate(args) -> tuple[dict, list]:
    g = args.params
    exact = gate_exponents(args.p, g)
    out = {
        "root_order": exact.root_order,
        "exponents": list(exact.exps),
        "element_order": element_order(args.p, g),
        "params_reduced": list(g.reduced(args.p).astuple()),
    }
    return _report("gate", {"p": args.p, "params": list(g.astuple())}, out), []


def cmd_verify(args) -> tuple[dict, list]:
    m = read_matrix(args.matrix)
    tol = args.tol if args.tol is not None else 1e-9
    rep = identify_third_level(args.p, m, tol=tol)
    out = {"kind": rep.kind}
    if rep.params is not None:
        out["params"] = list(rep.params.astuple())
    return _report("verify", {"p": args.p, "matrix": args.matrix}, out), []


def cmd_negativity(args) -> tuple[dict, list]:
    g = args.params
    res = negativity(args.p, gate_state(args.p, g))
    out = {"negativity": res.value, "facet": list(res.facet),
           "min_facet_value": res.minimum, "inside_stab": res.inside}
    checks = []
    if g.reduced(args.p) == ROBUST_GATE_PARAMS[args.p]:
        tol = args.tol if args.tol is not None else 5e-5
        checks.append((f"negativity p={args.p}", res.value,
                       RECORDED_NEGATIVITY[args.p], tol))
    return _report("negativity", {"p": args.p, "params": list(g.astuple())}, out), checks


def _evidence(r) -> dict:
    """How a threshold was computed; LP cells add pivots, refactorisations
    and whether Bland's rule took over, the orbit count (vertex columns)
    of the LP and the margin of the witness that separates the target
    just below the threshold."""
    if r.method != "lp":
        return {"method": r.method}
    return {"method": r.method, "lp_pivots": r.pivots,
            "lp_refactorisations": r.refactorisations, "lp_bland": r.bland,
            "orbits": r.orbits, "certificate_margin": r.margin}


def cmd_threshold(args) -> tuple[dict, list]:
    g = args.params
    psi = gate_state(args.p, g)
    results = {
        "depol_state_pct": threshold_depol_state(args.p, psi),
        "pd_gate_pct": threshold_pd_gate(args.p, psi),
        "depol_gate_pct": threshold_depol_gate(args.p, g),
    }
    out = {name: 100 * r.epsilon_star for name, r in results.items()}
    checks = []
    if g.reduced(args.p) == ROBUST_GATE_PARAMS[args.p]:
        tol = args.tol if args.tol is not None else 0.005
        checks.append((f"threshold p={args.p} pd_gate_pct", out["pd_gate_pct"],
                       100 * RECORDED_PD_GATE[args.p], tol))
        checks.append(_depol_gate_check("threshold", args.p, "depol_gate_pct",
                                        out["depol_gate_pct"]))
    rep = _report("threshold", {"p": args.p, "params": list(g.astuple())}, out)
    rep["provenance"] = dict.fromkeys(results, PROV_COMPUTED)
    rep["evidence"] = {name: _evidence(r) for name, r in results.items()}
    return rep, checks


def cmd_dilute(args) -> tuple[dict, list]:
    # The circuit always runs at the gate noise: --eps, or its inverse image.
    gate_eps = args.eps
    if args.invert:
        gate_eps = dilution_inv(args.p, args.eps)
        out = {"eps": gate_eps}
    else:
        out = {"eps_prime": dilution(args.p, args.eps)}
    if args.simulate:
        sim = simulate_dilution(args.p, args.params, gate_eps)
        out["simulated_eps_prime"] = sim.eps_out
        out["success_prob"] = sim.success_prob
    return _report("dilute", {"p": args.p, "eps": args.eps,
                              "invert": args.invert}, out), []


def cmd_inject(args) -> tuple[dict, list]:
    g = args.params
    if args.state:
        psi = read_matrix(args.state).ravel()
    else:
        rng = np.random.default_rng(args.seed)
        psi = rng.normal(size=args.p) + 1j * rng.normal(size=args.p)
    norm = np.linalg.norm(psi)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"input state must be finite and nonzero, norm {norm}")
    psi = psi / norm
    res = inject_gate(args.p, g, psi)
    u = gate_exponents(args.p, g).matrix()
    want = np.kron(u @ psi, np.eye(args.p, dtype=complex)[0])
    fidelity = float(np.abs(np.vdot(want, res.state)) ** 2)
    out = {"success_prob": res.success_prob, "fidelity": fidelity}
    return _report("inject", {"p": args.p, "params": list(g.astuple()),
                              "seed": args.seed}, out), []


def cmd_spectra(args) -> tuple[dict, list]:
    out = {"n_edges": args.p ** args.p}
    # At p >= 7 only the JSON lists the classes; the CSV keeps its four scan lines.
    if args.p <= 5 or args.format == "json":
        classes = edge_spectra_classes(args.p, decimals=6)
        out["classes"] = [{"eigenvalues": list(k), "count": v}
                          for k, v in sorted(classes.items())]
    if args.p > 5:
        scan = edge_scan(args.p, target=-RECORDED_NEGATIVITY[args.p], window=1e-4)
        out.update({
            "min_eigenvalue": scan.min_eigenvalue,
            "near_target_count": scan.window_count,
            "flat_eigenvector_count": scan.window_flat_count,
        })
    return _report("spectra", {"p": args.p}, out), []


def cmd_group(args) -> tuple[dict, list]:
    rep = group_structure(args.p)
    out = {"group": rep.group_name, "size": rep.size,
           "min_generators": rep.min_generators,
           "order_histogram": {str(k): v for k, v in rep.order_histogram.items()}}
    return _report("group", {"p": args.p}, out), []


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    parser = _Parser(prog="quditgates",
                     description="Diagonal third-level gates on prime qudits: "
                                 "group tables, polytope geometry, thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that only some subcommands read; each is registered only there.
    flags = {
        "--params": dict(type=_parse_params, default=None, metavar="z,g,e",
                         help="gate parameters"),
        "--tol": dict(type=_parse_tol, default=None),
        "--seed": dict(type=int, default=0),
        "--config": dict(default=None, help="distillation config path"),
        "--self-check": dict(dest="self_check", action="store_true"),
    }

    def add(name, fn, help_, *extra, p_required=False):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(handler=fn)
        sp.add_argument("--p", type=int, required=p_required,
                        help="qudit dimension (prime: 2, 3, 5, 7)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        for flag in extra:
            sp.add_argument(flag, **flags[flag])
        return sp

    add("table1", cmd_table1, "group structure of the diagonal-gate family",
        "--self-check")
    add("table2", cmd_table2, "robustness thresholds and negativities",
        "--tol", "--self-check")
    add("table3", cmd_table3, "universal-computation noise bounds",
        "--tol", "--config", "--self-check")
    add("gate", cmd_gate, "exact phase exponents of one gate", "--params",
        p_required=True)
    vp = add("verify", cmd_verify, "identify a diagonal unitary from a matrix file",
             "--tol", p_required=True)
    vp.add_argument("matrix", help="matrix file, rows of a+bi entries")
    add("negativity", cmd_negativity, "stabilizer-polytope negativity",
        "--params", "--tol", "--self-check", p_required=True)
    add("threshold", cmd_threshold, "noise thresholds for one gate",
        "--params", "--tol", "--self-check", p_required=True)
    dp = add("dilute", cmd_dilute, "gate-noise to state-noise conversion",
             "--params", p_required=True)
    dp.add_argument("--eps", type=float, required=True)
    dp.add_argument("--invert", action="store_true",
                    help="convert state noise back to gate noise")
    dp.add_argument("--simulate", action="store_true",
                    help="also run the density-matrix circuit simulation")
    ip = add("inject", cmd_inject, "teleport the gate into a state",
             "--params", "--seed", p_required=True)
    ip.add_argument("--state", default=None, help="input state file (one line)")
    add("spectra", cmd_spectra, "edge-facet spectra classes", p_required=True)
    add("group", cmd_group, "group report for one dimension", p_required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.p is not None:
            check_dim(args.p)
        if "params" in args and args.params is None:
            args.params = ROBUST_GATE_PARAMS[args.p]
        payload, checks = args.handler(args)
    except MissingConfig as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (QuditGatesError, ValueError, OSError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    payload["wall_time_s"] = round(time.perf_counter() - started, 6)
    mismatches = _mismatches(checks) if getattr(args, "self_check", False) else []
    if "self_check" in args:
        payload["self_check"] = mismatches or ("ok" if args.self_check else "off")
    _emit(payload, args.format)
    for m in mismatches:
        sys.stderr.write(m + "\n")
    return 3 if mismatches else 0
