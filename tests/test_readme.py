"""The README's Python quick start runs, and prints what its comments say;
its command-line examples print the output shown under them."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from quditgates import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    # "print(x)  # 0.1362979552..." promises output starting 0.1362979552.
    for call, line in zip(calls, printed):
        if "  # " in call:
            assert line.startswith(call.split("  # ", 1)[1].rstrip(".")), (call, line)


def test_readme_cli_examples_match():
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        # "$ cmd" lines, each with the output lines up to the next blank or "$" line.
        for command, shown in re.findall(r"^(\$ quditgates .*)\n((?:[^$\n].*\n)*)", block, re.M):
            # An example without output, or with an excerpt ("..."), is not checked.
            if shown and not shown.startswith("..."):
                examples.append((command, shown.splitlines()))
    assert len(examples) == 4
    for command, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(shlex.split(command)[2:])
        assert rc == 0, command
        assert out.getvalue().splitlines() == shown, command
