import argparse
import json
import os
import re
import runpy
import subprocess
import sys

import numpy as np
import pytest

import quditgates
from quditgates import cli
from quditgates.cli import build_parser, main, read_matrix
from quditgates.hierarchy import GateParams, gate_matrix


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


def write_matrix(path, m):
    lines = []
    for row in np.atleast_2d(m):
        lines.append(" ".join(f"{c.real:+.12f}{c.imag:+.12f}i" for c in row))
    path.write_text("\n".join(lines) + "\n")


def test_gate_exponents_example(capsys):
    rc, payload = run_json(capsys, "gate", "--p", "5", "--params", "1,4,0")
    assert rc == 0
    assert payload["outputs"]["exponents"] == [0, 3, 4, 2, 1]
    assert payload["outputs"]["root_order"] == 5
    assert "wall_time_s" in payload


def test_dilute_example(capsys):
    rc, payload = run_json(capsys, "dilute", "--p", "3", "--eps", "0.5815")
    assert rc == 0
    assert abs(payload["outputs"]["eps_prime"] - 0.3165) < 5e-4


def test_threshold_reports_lp_evidence(capsys):
    rc, payload = run_json(capsys, "threshold", "--p", "3")
    assert rc == 0
    ev = payload["evidence"]
    assert ev["depol_state_pct"] == {"method": "closed-form"}
    lp = ev["depol_gate_pct"]
    assert lp["method"] == "lp" and lp["lp_pivots"] > 0 and lp["orbits"] == 14
    assert lp["lp_refactorisations"] == 0 and lp["lp_bland"] is False
    assert lp["certificate_margin"] > 0.0
    assert abs(payload["outputs"]["depol_gate_pct"] - 78.6327) < 1e-4


def test_dilute_invert(capsys):
    rc, payload = run_json(capsys, "dilute", "--p", "3", "--eps", "0.3165",
                           "--invert")
    assert rc == 0
    assert abs(payload["outputs"]["eps"] - 0.5815) < 5e-4


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("eps", (0.1, 0.3165, 0.5))
def test_dilute_invert_simulates_at_the_reported_gate_noise(capsys, p, eps):
    """With --invert, --eps is the state noise; the circuit runs at the gate
    noise the command reports, so its output state noise is --eps again."""
    rc, payload = run_json(capsys, "dilute", "--p", str(p), "--eps", str(eps),
                           "--invert", "--simulate")
    assert rc == 0
    assert abs(payload["outputs"]["simulated_eps_prime"] - eps) <= 1e-12


@pytest.mark.parametrize("argv,spellings", [
    (("threshold", "--p", "2"), ("0,1,0", "2,1,0")),
    (("negativity", "--p", "3", "--tol", "0"), ("1,2,0", "4,5,3")),
])
def test_self_check_recognises_the_robust_gate_in_any_spelling(capsys, argv, spellings):
    """--self-check compares the robust gate's cells whichever residues mod p
    name it; these cells are off the record at this tolerance, so exit 3."""
    errs = []
    for params in spellings:
        rc = main([*argv, "--params", params, "--self-check"])
        assert rc == 3, params
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0]


@pytest.mark.parametrize("argv,section,key,want", [
    (("negativity", "--p", "3"), "outputs", "inside_stab", False),
    (("dilute", "--p", "3", "--eps", "0.3165", "--invert"), "inputs", "invert", True),
])
def test_json_flags_stay_booleans(capsys, argv, section, key, want):
    rc, out = run(capsys, *argv)
    assert rc == 0
    assert json.loads(out)[section][key] is want
    assert f'"{key}": {str(want).lower()}' in out
    if section == "outputs":
        rc, out = run(capsys, *argv, "--format", "csv")
        assert f"\n{key},{str(want).lower()}\n" in out


def test_negativity_p7_example(capsys):
    rc, payload = run_json(capsys, "negativity", "--p", "7")
    assert rc == 0
    assert abs(payload["outputs"]["negativity"] - 0.1202) < 5e-5


def test_table1_csv_row(capsys):
    rc, out = run(capsys, "table1", "--p", "3", "--format", "csv")
    assert rc == 0
    assert "Z9 x Z3" in out and "1/8/18" in out and ",2" in out


def test_table2_provenance_tags(capsys):
    rc, payload = run_json(capsys, "table2", "--p", "5")
    assert rc == 0
    cells = payload["rows"][0]["cells"]
    assert cells["depol_gate_pct"]["provenance"] == "computed"
    assert abs(cells["depol_gate_pct"]["value"] - 95.24) < 0.005
    assert cells["pd_gate_pct"]["provenance"] == "computed"
    assert cells["choi_negativity"]["provenance"] == "paper-recorded"
    assert abs(cells["pd_gate_pct"]["value"] - 64.0) < 0.005


def test_table2_self_check_flags_qubit_rounding(capsys):
    # the recorded 14.65 differs from the computed 14.6447 by more than
    # the 0.005 pp band, so self-check must exit 3 for the full table
    rc, _ = run(capsys, "table2", "--p", "2", "--self-check")
    assert rc == 3
    rc, _ = run(capsys, "table2", "--p", "3", "--self-check")
    assert rc == 0


def test_table3_rows_and_self_check(capsys):
    rc, payload = run_json(capsys, "table3", "--self-check")
    assert rc == 0
    rows = {r["p"]: r["cells"] for r in payload["rows"]}
    assert rows[2]["lower_pct"]["value"] == rows[2]["upper_pct"]["value"]
    assert rows[3]["lower_pct"]["provenance"] == "config-derived"
    assert all(rows[p]["upper_pct"]["provenance"] == "computed" for p in (2, 3, 5, 7))
    assert abs(rows[3]["lower_pct"]["value"] - 58.15) < 0.05


def test_table3_missing_config(capsys, tmp_path):
    rc, _ = run(capsys, "table3", "--config", str(tmp_path / "nope.cfg"))
    assert rc == 1


@pytest.mark.parametrize("line", ["distill_threshold.3 = abc", "distill_threshold.x = 0.3",
                                  "distill_threshold.3 = 1.5", "distill_threshold.3 = nan",
                                  "distill_threshold.4 = 0.2", "distill_threshold.-5 = 0.1"])
def test_table3_malformed_config_is_config_error(capsys, tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    rc = main(["table3", "--p", "3", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("config error:") and line in captured.err


def test_table3_repeated_key_or_unreadable_config_is_config_error(capsys, tmp_path):
    """A second distill_threshold.3 used to override the first silently,
    a directory used to exit 2 as a domain error, and an empty path used to
    read the shipped file and exit 0."""
    path = tmp_path / "twice.cfg"
    path.write_text("distill_threshold.3 = 0.3165\ndistill_threshold.3 = 0.9\n")
    for config in (path, tmp_path, ""):
        rc = main(["table3", "--p", "3", "--config", str(config)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("config error:")


def test_verify_identifies_gate(capsys, tmp_path):
    path = tmp_path / "u.txt"
    write_matrix(path, gate_matrix(3, GateParams(1, 2, 0)))
    rc, payload = run_json(capsys, "verify", "--p", "3", str(path))
    assert rc == 0
    assert payload["outputs"]["kind"] == "third_level"
    assert payload["outputs"]["params"] == [1, 2, 0]


def test_verify_identifies_clifford(capsys, tmp_path):
    path = tmp_path / "z.txt"
    w = np.exp(2j * np.pi / 3)
    write_matrix(path, np.diag([1, w, w ** 2]))
    rc, payload = run_json(capsys, "verify", "--p", "3", str(path))
    assert rc == 0
    assert payload["outputs"]["kind"] == "clifford"


@pytest.mark.parametrize("tol, noise", [("0", 1e-10), ("1e-3", 1e-4)])
def test_verify_applies_one_tolerance(capsys, tmp_path, tol, noise):
    """Off-diagonal noise that the conjugate check accepts passes the
    diagonal and unitary checks too: at --tol 0 all three allow 1e-8, at
    --tol 1e-3 all three allow 1e-3."""
    path = tmp_path / "u.txt"
    write_matrix(path, gate_matrix(3, GateParams(1, 2, 0)) + noise * (1 - np.eye(3)))
    rc, payload = run_json(capsys, "verify", "--p", "3", "--tol", tol, str(path))
    assert rc == 0
    assert payload["outputs"]["kind"] == "third_level"
    assert payload["outputs"]["params"] == [1, 2, 0]


def test_read_matrix_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    m = np.array([[0.5 + 0.25j, -1.0], [0.0, 2.0 - 2.0j]])
    write_matrix(path, m)
    assert np.max(np.abs(read_matrix(str(path)) - m)) < 1e-10


def test_read_matrix_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# a comment\n\n1 0.5i\n  # indented comment\n0 -1\n")
    assert np.array_equal(read_matrix(str(path)), np.array([[1, 0.5j], [0, -1]]))


def test_read_matrix_reads_inf_as_a_number(capsys, tmp_path):
    """Only a trailing i is the imaginary unit, so 'inf' reads as infinity,
    and ``verify`` refuses the matrix as not diagonal (exit 2)."""
    path = tmp_path / "u.txt"
    path.write_text("1 inf\n0 1\n")
    m = read_matrix(str(path))
    assert m[0, 1] == np.inf and np.array_equal(m[1], [0, 1])
    rc = main(["verify", "--p", "2", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "must be diagonal" in captured.err


@pytest.mark.parametrize("text,message", [("# only a comment\n\n", "no matrix data"),
                                          ("1 0\n0\n", "ragged rows")],
                         ids=["empty", "ragged"])
def test_read_matrix_refuses_an_empty_or_ragged_file(tmp_path, text, message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_matrix(str(path))


def test_verify_refuses_a_matrix_of_the_wrong_shape(capsys, tmp_path):
    """A 2 x 2 matrix at p = 3 is a domain error (exit 2) naming the shape."""
    path = tmp_path / "u.txt"
    write_matrix(path, np.eye(2))
    rc = main(["verify", "--p", "3", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "expected a 3 x 3 matrix" in captured.err


def test_inject_reports_unit_fidelity(capsys):
    rc, payload = run_json(capsys, "inject", "--p", "3", "--seed", "9")
    assert rc == 0
    assert abs(payload["outputs"]["success_prob"] - 1 / 3) < 1e-10
    assert payload["outputs"]["fidelity"] > 1 - 1e-10


def test_inject_rejects_zero_state(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    write_matrix(path, np.zeros((1, 3)))
    rc, out = run(capsys, "inject", "--p", "3", "--state", str(path))
    assert rc == 2 and out == ""


def test_spectra_qutrit(capsys):
    rc, payload = run_json(capsys, "spectra", "--p", "3")
    assert rc == 0
    counts = sorted(c["count"] for c in payload["outputs"]["classes"])
    assert counts == [9, 18]


def test_spectra_p7_lists_classes(capsys):
    rc, payload = run_json(capsys, "spectra", "--p", "7")
    assert rc == 0
    out = payload["outputs"]
    assert len(out["classes"]) == 244
    assert sum(c["count"] for c in out["classes"]) == out["n_edges"] == 7 ** 7
    assert out["classes"][0]["eigenvalues"][0] == round(out["min_eigenvalue"], 6)
    assert (out["near_target_count"], out["flat_eigenvector_count"]) == (14504, 98)
    # the CSV keeps the four scan lines and no class list
    rc, text = run(capsys, "spectra", "--p", "7", "--format", "csv")
    assert rc == 0
    assert [line.split(",")[0] for line in text.splitlines()] == [
        "flat_eigenvector_count", "min_eigenvalue", "n_edges", "near_target_count"]


def test_group_json(capsys):
    rc, payload = run_json(capsys, "group", "--p", "2")
    assert rc == 0
    assert payload["outputs"]["group"] == "Z8"
    assert payload["outputs"]["order_histogram"] == {"1": 1, "2": 1,
                                                     "4": 2, "8": 4}


def test_usage_error_exit_code(capsys):
    assert main(["dilute", "--p", "3"]) == 1
    capsys.readouterr()
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_domain_error_exit_code(capsys):
    assert main(["negativity", "--p", "4"]) == 2
    capsys.readouterr()


def test_output_deterministic(capsys):
    def payload_without_timing(argv):
        rc, payload = run_json(capsys, *argv)
        assert rc == 0
        payload.pop("wall_time_s", None)
        return payload

    a = payload_without_timing(["threshold", "--p", "2"])
    b = payload_without_timing(["threshold", "--p", "2"])
    assert a == b


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_depol_gate_cell_agrees_across_commands(capsys, p):
    """Table 2, Table 3 and ``threshold`` show one depolarising-gate cell."""
    _, t2 = run_json(capsys, "table2", "--p", str(p))
    _, t3 = run_json(capsys, "table3", "--p", str(p))
    _, th = run_json(capsys, "threshold", "--p", str(p))
    cell = t2["rows"][0]["cells"]["depol_gate_pct"]
    assert t3["rows"][0]["cells"]["upper_pct"] == cell
    assert th["outputs"]["depol_gate_pct"] == cell["value"]
    assert th["provenance"]["depol_gate_pct"] == cell["provenance"] == "computed"
    ev = th["evidence"]["depol_gate_pct"]
    assert ev["method"] == "lp" and ev["orbits"] == {2: 5, 3: 14, 5: 36, 7: 66}[p]
    assert ev["certificate_margin"] > 0.0


def test_threshold_other_gate_computes_depol_cell(capsys):
    rc, payload = run_json(capsys, "threshold", "--p", "5", "--params", "1,1,0")
    assert rc == 0
    assert payload["provenance"]["depol_gate_pct"] == "computed"
    assert 0.0 < payload["outputs"]["depol_gate_pct"] < 100.0
    ev = payload["evidence"]["depol_gate_pct"]
    assert ev["method"] == "lp" and ev["lp_pivots"] > 0 and ev["orbits"] > 0
    assert ev["certificate_margin"] > 0.0


MISMATCH = re.compile(r"^\S+ p=\d[^:]*: computed \S+ vs recorded \S+ \(tol 1e-09\)$")


@pytest.mark.parametrize("argv", [
    ("table2", "--p", "3"),
    ("table3",),
    ("negativity", "--p", "3"),
    ("threshold", "--p", "3"),
])
def test_self_check_tight_tol_reports_each_mismatch(capsys, argv):
    rc = main([*argv, "--self-check", "--tol", "1e-9"])
    captured = capsys.readouterr()
    assert rc == 3
    reported = json.loads(captured.out)["self_check"]
    lines = captured.err.splitlines()
    assert lines == reported and lines
    assert all(MISMATCH.match(line) for line in lines), lines


@pytest.mark.parametrize("command,p,cells,computed", [
    pytest.param("table2", 5, ("depol_gate_pct",), "95.2381", id="table2"),
    pytest.param("threshold", 5, ("depol_gate_pct",), "95.2381", id="threshold"),
    pytest.param("table3", 2, ("lower_pct", "upper_pct"), "45.3082", id="table3"),
])
def test_self_check_holds_depol_gate_cell_to_fixed_band(capsys, monkeypatch, command, p,
                                                        cells, computed):
    """Every command checks the computed depolarising-gate cell against the
    recorded table at a fixed 0.05 percentage points, whatever ``--tol``
    says.  At p=2 the table3 lower bound is that same cell."""
    rc, payload = run_json(capsys, command, "--p", str(p), "--self-check", "--tol", "0.005")
    assert rc == 0 and payload["self_check"] == "ok"
    monkeypatch.setitem(cli.RECORDED_DEPOL_GATE, p, 0.90)
    rc = main([command, "--p", str(p), "--self-check"])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert len(lines) == len(cells)
    for cell, line in zip(cells, lines):
        assert re.fullmatch(rf"{command} p={p} {cell}: computed {re.escape(computed)} "
                            r"vs recorded 90 \(tol 0\.05\)", line), lines


def test_table1_self_check(capsys, monkeypatch):
    rc, payload = run_json(capsys, "table1", "--self-check")
    assert rc == 0 and payload["self_check"] == "ok"
    assert all(type(r["cells"]["min_generators"]["value"]) is int for r in payload["rows"])
    monkeypatch.setitem(cli.EXPECTED_TABLE1, 3, ({1: 1, 3: 8, 9: 18}, 1))
    rc = main(["table1", "--p", "3", "--self-check"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "table1 p=3 min_generators: computed 2 vs recorded 1 (exact)\n"


@pytest.mark.parametrize("argv", [
    ("table2", "--params", "1,2,0"),
    ("table1", "--config", "x"),
    ("threshold", "--p", "2", "--seed", "1"),
])
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, argv):
    assert main(list(argv)) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
def test_tol_must_be_finite_and_nonnegative(capsys, tol):
    rc = main(["table2", "--p", "2", "--self-check", "--tol", tol])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "argument --tol" in captured.err


@pytest.mark.parametrize("argv,message", [
    (("gate", "--p", "3", "--params", "1,2"),
     "argument --params: --params expects three comma-separated integers z,g,e"),
    (("table2", "--p", "2", "--tol", "-1"),
     "argument --tol: --tol expects a finite number >= 0"),
])
def test_bad_flag_value_prints_the_parsers_message(capsys, argv, message):
    """The message names the flag, not the private function that parsed it."""
    rc = main(list(argv))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.endswith(f": error: {message}\n") and "_parse" not in err


def test_cached_parser_keeps_no_state(capsys, tmp_path):
    """In one process, each command gives the payload and exit code it
    gives after the parser cache is emptied."""
    assert build_parser() is build_parser()

    def outcome(argv):
        rc = main(argv)
        out = capsys.readouterr().out
        payload = json.loads(out) if out else None
        if payload:
            payload.pop("wall_time_s")
        return rc, payload

    missing = str(tmp_path / "missing.cfg")
    runs = {}
    for first, second in [(["table2", "--p", "2", "--self-check"], ["table2", "--p", "2"]),
                          (["table3", "--config", missing], ["table3"])]:
        shared = [outcome(first), outcome(second)]
        fresh = []
        for argv in (first, second):
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        runs[first[0]] = shared
    (rc, _), (_, plain) = runs["table2"]
    assert rc == 3 and plain["self_check"] == "off"
    (rc, out), (rc_default, _) = runs["table3"]
    assert (rc, out, rc_default) == (1, None, 0)


def test_self_check_flags_nan_recorded_value(capsys, monkeypatch):
    monkeypatch.setitem(cli.RECORDED_NEGATIVITY, 3, float("nan"))
    rc = main(["negativity", "--p", "3", "--self-check"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("negativity p=3: computed 0.136298 vs recorded nan")


def _subcommands() -> dict:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@pytest.mark.parametrize("name", sorted(_subcommands()))
def test_runner_contract(capsys, tmp_path, name):
    """Every subcommand reports ``wall_time_s``, reports ``self_check`` exactly
    when it takes ``--self-check`` ("off" without the flag), emits JSON with
    no NaN or infinity and non-empty CSV, and rejects an unsupported
    dimension with exit code 2 and nothing on stdout."""
    path = tmp_path / "u.txt"
    write_matrix(path, gate_matrix(2, GateParams(1, 1, 0)))
    extra = {"dilute": ["--eps", "0.3"], "verify": [str(path)]}.get(name, [])
    takes_self_check = any(a.dest == "self_check" for a in _subcommands()[name]._actions)
    rc, payload = run_json(capsys, name, "--p", "2", *extra)
    assert rc == 0
    json.dumps(payload, allow_nan=False)
    assert isinstance(payload["wall_time_s"], float)
    assert ("self_check" in payload) == takes_self_check
    if takes_self_check:
        assert payload["self_check"] == "off"
    rc, out = run(capsys, name, "--p", "2", *extra, "--format", "csv")
    assert rc == 0 and out.strip()
    rc, out = run(capsys, name, "--p", "4", *extra)
    assert rc == 2 and out == ""


def test_main_module_runs_in_process(capsys, monkeypatch):
    """``python -m quditgates table1 --p 2``, run by ``runpy`` in this
    process: ``__main__`` exits with ``main``'s code and prints its row."""
    monkeypatch.setattr(sys, "argv", ["quditgates", "table1", "--p", "2", "--format", "csv"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("quditgates", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("2,")


@pytest.mark.parametrize("argv,code", [
    (["group", "--p", "2"], 0),
    (["nonsense"], 1),
    (["negativity", "--p", "4"], 2),
    (["table2", "--p", "2", "--self-check"], 3),
])
def test_python_dash_m_exit_codes(argv, code):
    src = os.path.dirname(os.path.dirname(quditgates.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "quditgates", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
