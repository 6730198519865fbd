"""The README's library quickstart runs and prints what its comments state,
and the lower-level pieces it names are public."""

import contextlib
import io
import pathlib
import re
import shlex

import superosc
from superosc import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quickstart_block():
    text = (ROOT / "README.md").read_text()
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_quickstart_prints_the_stated_values():
    block = quickstart_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().split()
    optimum, ladder, constraint_value = lines[0], lines[1:-1], lines[-1]
    # each expected value is the one a comment of the block states
    for stated in ("# 0.0023299248", "# 1.18922e-23 ... 0.00232992",
                   "# -1.0 at a constraint point"):
        assert stated in block
    assert optimum == "0.0023299248"
    assert len(ladder) == 6  # N+2-M eigenvalues, ascending
    assert (ladder[0], ladder[-1]) == ("1.18922e-23", "0.00232992")
    assert constraint_value == "-1.0"


def test_lower_level_pieces_are_public():
    text = (ROOT / "README.md").read_text()
    paragraph = re.search(r"Lower-level pieces \(.*?\n\n", text, re.S).group(0)
    names = re.findall(r"`(\w+)`", paragraph)
    assert "secular_spectrum" in names
    assert [name for name in names if name not in superosc.__all__] == []


def test_command_line_examples_parse():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        words = shlex.split(line.split(" > ")[0])
        assert words[0] == "superosc", line
        args = parser.parse_args(words[1:])  # exits 2 if the line has drifted
        assert args.command == words[1]
