"""The README's Python quick start runs, and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
