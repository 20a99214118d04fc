"""Rendered expansions and command-line transcripts pinned byte for byte.

`golden_expansions.txt` holds, one `label: rendering` line each, the target
and source expansions of every `default_db()` entry, `sify` of each source
expansion, and `thom_porteous(kappa, k)` for kappa in {-1, 0, 1} and k <= 6.
A refactor of the symbolic layer or the expansion engine must leave every
line as it is.

`golden_cli.txt` holds, for each command line in `CLI_CASES`, run as text and
with `--json`, the exit code, stdout (the elapsed time masked) and stderr,
and the `--help` of every subcommand.  A refactor of the command line must
leave it as it is.  To write the files from a checkout:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_expansions.txt
    PYTHONPATH=src python tests/test_golden.py cli > tests/golden_cli.txt
"""

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from tpcalc import cli
from tpcalc.symbolic import render_expr, sify
from tpcalc.tpcore import MultiSingType, default_db, expand_source, expand_target, thom_porteous

GOLDEN = Path(__file__).with_name("golden_expansions.txt")
GOLDEN_CLI = Path(__file__).with_name("golden_cli.txt")


def golden_lines() -> list[str]:
    db = default_db()
    lines = []
    for names, kappa in db.keys():
        t = MultiSingType(names, kappa)
        label = f"[{','.join(names)}] kappa={kappa}"
        target, source = expand_target(t, db), expand_source(t, db)
        lines.append(f"target {label}: {render_expr(target)}")
        lines.append(f"source {label}: {render_expr(source)}")
        lines.append(f"sify source {label}: {render_expr(sify(source))}")
    for kappa in (-1, 0, 1):
        for k in range(1, 7):
            lines.append(f"porteous kappa={kappa} k={k}: {render_expr(thom_porteous(kappa, k))}")
    return lines


def test_renderings_match_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        assert got_line == want_line


# --db files, written to the working directory of the run
DB_FILES = {
    "suspect.db": "types=[A1] kappa=-1 R= c2 - c1^2\n",
    "extra.db": "types=[A1] kappa=1 R= 5*c2\n",
    "renamed.db": ("type=B1 kappa=1 ell=3\n"
                   "types=[B1] kappa=1 R= c2\n"
                   "types=[A0,B1] kappa=1 R= -2*c1*c2 - 2*c3\n"),
    "bad.db": "# header\n\ntypes=[A0] kappa=1 R= 1/0*c1\n",
}

CLI_CASES = [
    # every subcommand
    "expand --type A0,A0,A0 --kappa 1",
    "expand --type A0,A0,A0 --kappa 1 --side source --normalized",
    "eval --model veronese-p3 --expr c2",
    "eval --model pencil:4 --type A1 --side target",
    "eval --model scroll-q-p3 --type A0,A0 --side source --normalized",
    "count --model dual-surface:3 --type A1,A1,A1",
    "porteous --kappa -1 --k 2",
    "extract --type A1,A0 --kappa 1 --side source --known 'fs_0*c2 - 2*c1*c2 - 2*c3'",
    "interp --type A0,A0,A0 --kappa 1 --constraint veronese-p3=1 --constraint scroll-q-p3=0",
    "interp --type A0,A0,A0 --kappa 1 --constraint veronese-p3=1",
    "interp --type A0,A0,A0 --kappa 1 --constraint veronese-p3=1 --constraint veronese-p3=2",
    "interp --type A0,A0 --kappa 1",
    "oracle --curve 't^2, t^3'",
    "verify --suite table1",
    "verify --suite classical",
    "verify --suite series",
    "verify --suite properties",
    # --db files: merged entries, declared types, a FAIL count (exit 1)
    "expand --type A1 --kappa 1 --side source --db extra.db",
    ("interp --type B1 --kappa 1 --constraint veronese-p3=6 --constraint scroll-q-p3=4"
     " --db renamed.db"),
    "count --model pencil:3 --type A1 --db suspect.db",
    # exit 2: limits
    "expand --type A0,A0 --kappa 1001",
    "porteous --kappa 1 --k 9",
    "interp --type A0,A0 --kappa 31",
    "oracle --curve 't^15 + t, t^2'",
    "oracle --curve '10000*t^2, t^3'",
    # exit 2: an unreadable or refused --db
    "expand --type A0,A0 --kappa 1 --db absent.db",
    "expand --type A0 --kappa 1 --db bad.db",
    # exit 2: eval's option checks
    "eval --model veronese-p3 --expr c2 --side source",
    "eval --model veronese-p3 --expr c2 --normalized",
    "eval --model veronese-p3",
    # exit 2: bad constraints
    "interp --type A0,A0,A0 --kappa 1 --constraint veronese-p3",
    "interp --type A0,A0,A0 --kappa 1 --constraint veronese-p3=1/0",
    "interp --type A0,A0,A0 --kappa 1 --constraint veronese-p3=1.5",
    # exit 2: unknown names, missing entries, mismatched dimensions
    "expand --type E8 --kappa 1",
    "expand --type A0,A0,A0,A0 --kappa 2",
    "eval --model k3-surface --expr c2",
    "count --model veronese-p3 --type A0,A0",
    "oracle --curve 't^2, t^4'",
]

HELP_CASES = [f"{cmd} --help" for cmd in
              ("expand", "eval", "count", "porteous", "extract", "interp", "oracle", "verify")]


def run_cli(line: str) -> str:
    """One transcript block: the command line, its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(shlex.split(line))
        except SystemExit as exc:  # --help
            code = exc.code
    shown = re.sub(r"(# elapsed: |\"elapsed_ms\": )[0-9.]+", r"\1<masked>", out.getvalue())
    return f"$ tpcalc {line}\nexit: {code}\n--- stdout\n{shown}--- stderr\n{err.getvalue()}"


@contextlib.contextmanager
def cli_workdir():
    """A fresh working directory holding DB_FILES, with an 80-column terminal for --help."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in DB_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            yield
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


def golden_cli_blocks() -> list[str]:
    with cli_workdir():
        return [run_cli(line) for case in CLI_CASES for line in (case, case + " --json")] + [
            run_cli(line) for line in HELP_CASES]


def test_cli_transcripts_match_the_golden_file():
    want = GOLDEN_CLI.read_text(encoding="utf-8").split("\n$ ")
    got = "\n".join(golden_cli_blocks()).split("\n$ ")
    assert len(got) == len(want)
    for got_block, want_block in zip(got, want):
        assert got_block == want_block


if __name__ == "__main__":
    if sys.argv[1:] == ["cli"]:
        print("\n".join(golden_cli_blocks()), end="")
    else:
        print("\n".join(golden_lines()))
