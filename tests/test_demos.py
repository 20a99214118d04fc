"""The stdout of every demo, pinned byte for byte.

`golden_demos.txt` holds, for each `demos/*.py` in name order, a
`$ python demos/<name>` line and the demo's stdout.  A change to the library
must leave every block as it is, and a new demo needs its block.  To write the
file from a checkout:

    PYTHONPATH=src python tests/test_demos.py > tests/golden_demos.txt
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_demos.txt")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> str:
    """One block: the command line and the demo's stdout.  The demo runs in
    its own process on this checkout's sources, with warnings as errors; a
    demo that fails raises."""
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-W", "error", str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, encoding="utf-8", check=True)
    return f"$ python demos/{path.name}\n{done.stdout}"


def golden_blocks() -> dict[str, str]:
    text = GOLDEN.read_text(encoding="utf-8")
    blocks = re.split(r"(?m)^(?=\$ python demos/)", text)
    return {block.split("\n", 1)[0].removeprefix("$ python demos/"): block
            for block in blocks if block}


def test_every_demo_is_pinned():
    assert sorted(golden_blocks()) == [path.name for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_output_matches_the_golden_file(demo):
    assert run_demo(demo) == golden_blocks()[demo.name]


if __name__ == "__main__":
    sys.stdout.write("".join(run_demo(path) for path in DEMOS))
