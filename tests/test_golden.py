"""Rendered expansions pinned byte for byte.

`golden_expansions.txt` holds, one `label: rendering` line each, the target
and source expansions of every `default_db()` entry, `sify` of each source
expansion, and `thom_porteous(kappa, k)` for kappa in {-1, 0, 1} and k <= 6.
A refactor of the symbolic layer or the expansion engine must leave every
line as it is. To write the file from a checkout:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_expansions.txt
"""

from pathlib import Path

from tpcalc.symbolic import render_expr, sify
from tpcalc.tpcore import MultiSingType, default_db, expand_source, expand_target, thom_porteous

GOLDEN = Path(__file__).with_name("golden_expansions.txt")


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


if __name__ == "__main__":
    print("\n".join(golden_lines()))
