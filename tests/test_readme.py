"""Every `tpcalc ...` line in the README's shell blocks runs and exits 0.

Where a full-line `# <output>` comment follows a command, the printed text
(less the `# elapsed:` timing line) must be that comment, byte for byte.
The Library section's python block runs too.
"""

import os
import re
import shlex

import pytest

from tpcalc import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def readme_examples():
    """(command line, expected output or None) for each README example."""
    text = readme_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("tpcalc "):
                continue
            nxt = lines[i + 1] if i + 1 < len(lines) else ""
            expected = nxt[2:] if nxt.startswith("# ") else None
            examples.append((" ".join(line.split()), expected))
    return examples


EXAMPLES = readme_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 10
    assert sum(expected is not None for _, expected in EXAMPLES) >= 3


@pytest.mark.parametrize("line,expected", EXAMPLES, ids=[line for line, _ in EXAMPLES])
def test_readme_example(capsys, line, expected):
    argv = shlex.split(line, comments=True)[1:]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if expected is not None:
        shown = "".join(l for l in out.splitlines(True) if not l.startswith("# elapsed:"))
        assert shown == expected + "\n"


def test_library_example_prints_the_count(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", readme_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], README, "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "675"
