import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from tpcalc import cli
from tpcalc import verify as verify_suites
from tpcalc.grammar import MAX_DIGITS
from tpcalc.tpcore import default_db


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_target_triple_point(self, capsys):
        code, out, _ = run(capsys, [
            "expand", "--type", "A0,A0,A0", "--kappa", "1", "--side", "target"
        ])
        assert code == 0
        assert out.splitlines()[0] == "s_0^3 - 3*s_0*s_1 + 2*s_2 + 2*s_01"

    def test_source_normalized(self, capsys):
        code, out, _ = run(capsys, [
            "expand", "--type", "A0,A0,A0", "--kappa", "1",
            "--side", "source", "--normalized"
        ])
        assert code == 0
        assert out.splitlines()[0] == (
            "1/2*fs_0^2 - 1/2*fs_1 - fs_0*c1 + c1^2 + c2"
        )

    def test_unknown_type_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "expand", "--type", "E8", "--kappa", "1", "--side", "target"
        ])
        assert code == 2
        assert "E8" in err

    @pytest.mark.parametrize("spec", ["A0,,A0", "A0,", ",A0"])
    def test_empty_type_entry_exits_2(self, capsys, spec):
        code, out, err = run(capsys, ["expand", "--type", spec, "--kappa", "1"])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"error: empty entry in multi-singularity type {spec!r}"

    def test_missing_residual_exits_2_unquoted(self, capsys):
        code, out, err = run(capsys, ["expand", "--type", "A0,A0,A0,A0", "--kappa", "2"])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (
            "error: no residual polynomial for types=[A0,A0,A0,A0] kappa=2"
        )


class TestEval:
    def test_expr_on_model(self, capsys):
        code, out, _ = run(capsys, [
            "eval", "--model", "veronese-p3", "--expr", "c2"
        ])
        assert code == 0
        assert out.splitlines()[0] == "6*h^2"

    def test_type_on_model(self, capsys):
        code, out, _ = run(capsys, [
            "eval", "--model", "pencil:4", "--type", "A1", "--side", "target"
        ])
        assert code == 0
        assert out.splitlines()[0] == "27*H"

    @pytest.mark.parametrize("expr,side", [("c2", "target"), ("s_0", "source")])
    def test_side_that_contradicts_the_expression_exits_2(self, capsys, expr, side):
        code, out, err = run(capsys, [
            "eval", "--model", "veronese-p3", "--expr", expr, "--side", side
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"on the {side} side" in err

    def test_normalized_with_expr_exits_2(self, capsys):
        code, out, err = run(capsys, [
            "eval", "--model", "veronese-p3", "--expr", "c2", "--normalized"
        ])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error: --normalized applies only to --type"

    @pytest.mark.parametrize("expr,printed", [("c1^5", "10*h^2*H^3"), ("c5", "0")])
    def test_source_classes_above_dim_x_keep_their_ambient_representatives(
            self, capsys, expr, printed):
        # web3:4 has dim X = 4 in a ring of top degree 5: c(f) is built up to
        # degree 4 for counts, and a degree-5 class is still read in full
        code, out, err = run(capsys, ["eval", "--model", "web3:4", "--expr", expr])
        assert (code, out.splitlines()[0], err) == (0, printed, "")

    def test_needs_exactly_one_input(self, capsys):
        code, _, err = run(capsys, ["eval", "--model", "veronese-p3"])
        assert code == 2

    @pytest.mark.parametrize("expr", ["c1^1500", "fs_(1500)", "s_(1500)", "c99999999"])
    def test_monomial_above_the_top_degree_prints_0(self, capsys, expr):
        code, out, err = run(capsys, ["eval", "--model", "veronese-p3", "--expr", expr])
        assert (code, out.splitlines()[0], err) == (0, "0", "")

    @pytest.mark.parametrize("e", [10 ** 9, 10 ** 14])
    def test_huge_power_of_a_constant_exits_2_at_once(self, capsys, e):
        # s_1 is the constant 4 on web3:4 (kappa = -1), so s_1^e has about 0.6 e digits
        start = time.perf_counter()
        code, out, err = run(capsys, ["eval", "--model", "web3:4", "--expr", f"s_1^{e}"])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (f"error: the term s_1^{e} takes a power of more "
                                       f"than {MAX_DIGITS} digits")

    def test_huge_power_times_a_zero_factor_prints_0(self, capsys):
        code, out, err = run(capsys, ["eval", "--model", "web3:4",
                                      "--expr", "s_1^99999999999*s_0 + s_1^2"])
        assert (code, out.splitlines()[0], err) == (0, "16", "")

    def test_unknown_model_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "eval", "--model", "k3-surface", "--expr", "c2"
        ])
        assert code == 2
        assert "k3-surface" in err


class TestCount:
    def test_salmon(self, capsys):
        code, out, _ = run(capsys, [
            "count", "--model", "dual-surface:3", "--type", "A1,A1,A1"
        ])
        assert code == 0
        assert out.splitlines()[0] == "45"

    def test_steiner(self, capsys):
        code, out, _ = run(capsys, [
            "count", "--model", "veronese-p3", "--type", "A0,A0,A0"
        ])
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_dimension_error_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "count", "--model", "veronese-p3", "--type", "A0,A0"
        ])
        assert code == 2

    @pytest.mark.parametrize("residual, count", [
        ("c2 - c1^2", "-12"),
        ("1/5*c1^2 - 1/5*c2", "12/5"),
    ])
    def test_suspect_count_fails_check(self, capsys, tmp_path, residual, count):
        dbfile = tmp_path / "suspect.db"
        dbfile.write_text(f"types=[A1] kappa=-1 R= {residual}\n")
        code, out, _ = run(capsys, [
            "count", "--model", "pencil:3", "--type", "A1", "--db", str(dbfile)
        ])
        assert code == 1
        assert out.splitlines()[:2] == [
            count, f"FAIL count: expected a non-negative integer, got {count}"
        ]
        code, blob, _ = run(capsys, [
            "count", "--model", "pencil:3", "--type", "A1", "--db", str(dbfile), "--json"
        ])
        assert code == 1
        assert json.loads(blob)["checks"] == [{
            "name": "count", "expected": "a non-negative integer", "got": count,
            "pass": False,
        }]

    def test_valid_count_has_no_checks(self, capsys):
        code, blob, _ = run(capsys, [
            "count", "--model", "pencil:3", "--type", "A1", "--json"
        ])
        assert code == 0
        payload = json.loads(blob)
        assert payload["result"] == "12" and payload["checks"] == []


class TestPorteous:
    def test_fold(self, capsys):
        code, out, _ = run(capsys, ["porteous", "--kappa", "-1", "--k", "2"])
        assert code == 0
        assert out.splitlines()[0] == "c1^2 - c2"

    def test_large_k_fails_before_any_work(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("thom_porteous must not be called")

        monkeypatch.setattr(cli, "thom_porteous", never)
        code, _, err = run(capsys, ["porteous", "--kappa", "1", "--k", "9"])
        assert code == 2
        assert err.splitlines()[0] == (
            "error: --k 9 is above the limit of 8; "
            "the determinant's cost grows about 2^k * k")


class TestKappaLimit:
    @pytest.mark.parametrize("kappa", [cli.KAPPA_MAX + 1, -cli.KAPPA_MAX - 1])
    @pytest.mark.parametrize("argv", [
        ["expand", "--type", "A0,A0,A0"],
        ["extract", "--type", "A0,A0", "--side", "target", "--known", "s_0^2"],
        ["interp", "--type", "A0,A0", "--constraint", "veronese-p3=3"],
        ["porteous", "--k", "2"],
    ], ids=lambda argv: argv[0])
    def test_past_the_limit_fails_before_any_work(self, capsys, monkeypatch, argv, kappa):
        def never(*args):
            raise AssertionError("no work past the kappa limit")

        for name in ("_load_db", "thom_porteous"):
            monkeypatch.setattr(cli, name, never)
        code, out, err = run(capsys, argv + ["--kappa", str(kappa)])
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (
            f"error: --kappa {kappa} is beyond the limit of {cli.KAPPA_MAX} "
            "in absolute value; expansions grow with |kappa|")

    def test_at_the_limit_runs(self, capsys):
        code, out, _ = run(capsys, ["expand", "--type", "A0", "--kappa", str(cli.KAPPA_MAX)])
        assert code == 0
        assert out.splitlines()[0] == "s_0"


class TestDeclaredEllLimit:
    """A type declared in --db with ell above KAPPA_MAX: A0's ell is kappa, and an
    s-index of degree ell is as dense as one at that kappa."""

    @staticmethod
    def declare_b(tmp_path, ell):
        dbfile = tmp_path / "b.db"
        dbfile.write_text(f"type=B kappa=1 ell={ell}\ntypes=[B] kappa=1 R= c{ell - 1}\n")
        return str(dbfile)

    @pytest.mark.parametrize("argv", [
        ["expand", "--type", "B", "--kappa", "1"],
        ["eval", "--model", "veronese-p3", "--type", "B"],
    ], ids=lambda argv: argv[0])
    def test_past_the_limit_fails_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        def never(*args):
            raise AssertionError("no expansion past the ell limit")

        monkeypatch.setattr(cli, "_expand", never)
        ell = cli.KAPPA_MAX + 1
        code, out, err = run(capsys, argv + ["--db", self.declare_b(tmp_path, ell)])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            f"error: B at kappa=1 has ell={ell}, beyond the limit of {cli.KAPPA_MAX}; "
            "expansions grow with ell")

    def test_at_the_limit_runs(self, capsys, tmp_path):
        db = self.declare_b(tmp_path, cli.KAPPA_MAX)
        code, out, _ = run(capsys, ["expand", "--type", "B", "--kappa", "1", "--db", db])
        assert code == 0
        assert out.splitlines()[0] == "s_" + "0" * (cli.KAPPA_MAX - 2) + "1"
        code, out, _ = run(capsys, ["eval", "--model", "veronese-p3", "--type", "B", "--db", db])
        assert (code, out.splitlines()[0]) == (0, "0")


class TestExtract:
    def test_table_row(self, capsys):
        code, out, _ = run(capsys, [
            "extract", "--type", "A1,A0", "--kappa", "1", "--side", "source",
            "--known", "fs_0*c2 - 2*c1*c2 - 2*c3"
        ])
        assert code == 0
        assert out.splitlines()[0] == "types=[A0,A1] kappa=1 R= -2*c1*c2 - 2*c3"

    def test_inconsistent_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "extract", "--type", "A0,A0", "--kappa", "1", "--side", "target",
            "--known", "s_0 - s_1"
        ])
        assert code == 2


class TestInterp:
    def test_documented_recovery(self, capsys):
        code, out, _ = run(capsys, [
            "interp", "--type", "A0,A0,A0", "--kappa", "1",
            "--constraint", "veronese-p3=1", "--constraint", "scroll-q-p3=0"
        ])
        assert code == 0
        assert out.splitlines()[0] == "types=[A0,A0,A0] kappa=1 R= 2*c1^2 + 2*c2"

    def test_underdetermined_reported(self, capsys):
        code, out, _ = run(capsys, [
            "interp", "--type", "A0,A0,A0", "--kappa", "1",
            "--constraint", "veronese-p3=1"
        ])
        assert code == 0
        assert "underdetermined" in out

    def test_bad_constraint_syntax(self, capsys):
        code, _, err = run(capsys, [
            "interp", "--type", "A0,A0", "--kappa", "1",
            "--constraint", "veronese-p3"
        ])
        assert code == 2

    def test_zero_denominator_count_exits_2(self, capsys):
        code, out, err = run(capsys, [
            "interp", "--type", "A0,A0,A0", "--kappa", "1",
            "--constraint", "veronese-p3=1/0"
        ])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            "error: constraint 'veronese-p3=1/0' has a zero denominator")
        assert err.splitlines()[1].startswith("usage: tpcalc interp")

    def test_count_that_is_not_a_number_exits_2(self, capsys):
        code, out, err = run(capsys, [
            "interp", "--type", "A0,A0,A0", "--kappa", "1",
            "--constraint", "veronese-p3=abc"
        ])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            "error: constraint 'veronese-p3=abc' needs a non-negative integer count")

    @pytest.mark.parametrize("count", ["1.5", "-2", "7/2"])
    def test_count_that_is_not_a_point_count_exits_2(self, capsys, count):
        code, out, err = run(capsys, [
            "interp", "--type", "A0,A0,A0", "--kappa", "1",
            "--constraint", f"veronese-p3={count}", "--constraint", "scroll-q-p3=0"
        ])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            f"error: constraint 'veronese-p3={count}' needs a non-negative integer count")

    @pytest.mark.parametrize("count", ["1e3", "10.0", "1e10000000"])
    def test_count_not_written_in_digits_exits_2_at_once(self, capsys, count):
        # Fraction("1e10000000") alone takes seconds: it builds 10^10000000
        start = time.perf_counter()
        code, out, err = run(capsys, [
            "interp", "--type", "A0,A0,A0", "--kappa", "1",
            "--constraint", f"veronese-p3={count}", "--constraint", "scroll-q-p3=0"
        ])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            f"error: constraint 'veronese-p3={count}' needs a non-negative integer count")

    def test_count_written_as_a_whole_fraction_runs(self, capsys):
        code, out, _ = run(capsys, [
            "interp", "--type", "A0,A0,A0", "--kappa", "1",
            "--constraint", "veronese-p3=2/2", "--constraint", "scroll-q-p3=0"
        ])
        assert code == 0
        assert out.splitlines()[0] == "types=[A0,A0,A0] kappa=1 R= 2*c1^2 + 2*c2"

    def test_repeated_label_is_named_once(self, capsys):
        code, out, _ = run(capsys, [
            "interp", "--type", "A0,A0,A0", "--kappa", "1",
            "--constraint", "veronese-p3=1", "--constraint", "veronese-p3=2"
        ])
        assert code == 0
        assert out.splitlines()[:2] == ["status: inconsistent",
                                        "violated: ['veronese-p3']"]

    def test_recover_sized_system(self, capsys):
        """Ten closed-form triple-cusp counts against the five unknowns of
        R_{A1^3}: one direction (c4) stays free."""
        argv = ["interp", "--type", "A1,A1,A1", "--kappa", "-1"]
        for d in range(3, 8):
            argv += ["--constraint", f"dual-surface:{d}={verify_suites.salmon_count(d)}"]
        for d in range(4, 9):
            argv += ["--constraint", f"web3:{d}={verify_suites.roberts_count(d)}"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[:3] == [
            "status: underdetermined",
            "particular: {'c1^4': '138', 'c1^2*c2': '-158', 'c1*c3': '20', 'c2^2': '2', "
            "'c4': '0'}",
            "kernel: ['c4=1']"]


class TestInterpDegreeLimit:
    def test_at_the_limit_runs(self, capsys):
        code, out, _ = run(capsys, [
            "interp", "--type", "A0,A0", "--kappa", str(cli.INTERP_MAX_DEGREE)])
        assert code == 0
        assert out.splitlines()[0] == "status: underdetermined"

    @pytest.mark.parametrize("argv, degree", [
        (["--type", "A0,A0", "--kappa", str(cli.INTERP_MAX_DEGREE + 1)],
         cli.INTERP_MAX_DEGREE + 1),
        (["--type", "A0,A0,A0", "--kappa", "1000"], 2000),
        (["--type", "B2", "--kappa", "1", "--db", "{db}"], 40),
    ], ids=["one-past", "kappa-1000", "declared-ell"])
    def test_past_the_limit_fails_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                 argv, degree):
        def never(*args):
            raise AssertionError("no work past the interp degree limit")

        monkeypatch.setattr(cli, "assemble_system", never)
        dbfile = tmp_path / "b2.db"
        dbfile.write_text("type=B2 kappa=1 ell=41\n")
        code, out, err = run(capsys, ["interp"] + [a.format(db=dbfile) for a in argv])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            f"error: the residual degree ell - kappa = {degree} is above the limit of "
            f"{cli.INTERP_MAX_DEGREE}; the unknowns are the Chern monomials of that degree")


class TestOracle:
    def test_cusp(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--curve", "t^2, t^3"])
        assert code == 0
        assert "delta_degree: 2" in out
        assert "engine_class_degree: 2" in out

    def test_non_birational_exits_2(self, capsys):
        code, _, err = run(capsys, ["oracle", "--curve", "t^2, t^4"])
        assert code == 2
        assert "non-birational" in err

    def test_degree_at_the_limit_runs(self, capsys):
        d = cli.ORACLE_MAX_DEGREE
        code, out, _ = run(capsys, ["oracle", "--curve", f"t^{d} + t, t^{d - 1} - 2*t^2"])
        assert code == 0
        assert f"degree: {d}" in out

    @pytest.mark.parametrize("curve", ["t^{big} + t, t^2", "t, 3*t^2 - 1/2*t^{big}",
                                       "t^100000, t^3"])
    def test_large_degree_fails_before_any_work(self, capsys, monkeypatch, curve):
        def never(*args):
            raise AssertionError("double_point_degree must not be called")

        monkeypatch.setattr(cli, "double_point_degree", never)
        curve = curve.format(big=cli.ORACLE_MAX_DEGREE + 1)
        code, out, err = run(capsys, ["oracle", "--curve", curve])
        assert (code, out) == (2, "")
        assert err.startswith("error: degree ")
        assert f"is above the limit of {cli.ORACLE_MAX_DEGREE}" in err.splitlines()[0]

    @pytest.mark.parametrize("curve", [
        "{big}*t^2, t^3",                     # an integer coefficient
        "t^2, t^3 - 1/{big}",                 # a denominator
        "1/97*t^2 + 1/89*t + 1/83, t^3",      # small denominators, large lcm
        "t^2, t^3 + " + "9" * 3000 + "*t",    # text of any length
    ])
    def test_large_coefficients_fail_before_any_work(self, capsys, monkeypatch, curve):
        def never(*args):
            raise AssertionError("double_point_degree must not be called")

        monkeypatch.setattr(cli, "double_point_degree", never)
        curve = curve.format(big=10 ** cli.ORACLE_MAX_DIGITS)
        code, out, err = run(capsys, ["oracle", "--curve", curve])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            "error: a coefficient or the common denominator of a curve coordinate "
            f"has more than {cli.ORACLE_MAX_DIGITS} digits")

    @pytest.mark.parametrize("curve", [
        "t^2, t^3 + " + "9" * 5000 + "*t",               # an integer
        "t^2, t^3 + 1/" + "7" * 4301 + "*t",             # a denominator
        "t^2, t^3 + " + "1" + "0" * 4400 + "/" + "1" + "0" * 4400 + "*t",  # even reduced
    ])
    def test_numbers_past_int_conversion_get_the_digit_message(self, capsys, curve):
        code, out, err = run(capsys, ["oracle", "--curve", curve])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (
            "error: a coefficient or the common denominator of a curve coordinate "
            f"has more than {cli.ORACLE_MAX_DIGITS} digits")

    @pytest.mark.parametrize("big", [10 ** cli.ORACLE_MAX_DIGITS, 10 ** 4299])
    def test_numbers_that_reduce_below_the_limit_run(self, capsys, big):
        code, out, _ = run(capsys, ["oracle", "--curve", f"{big}/{big}*t^2, t^3"])
        assert code == 0
        assert out.splitlines()[0] == "x: t^2"
        assert "delta_degree: 2" in out

    def test_coefficients_at_the_limit_run(self, capsys):
        top = 10 ** cli.ORACLE_MAX_DIGITS - 1
        curve = f"{top}*t^2 + t, t^3 - 1/{top}*t"
        code, out, _ = run(capsys, ["oracle", "--curve", curve])
        assert code == 0
        assert "delta_degree: 2" in out

    def test_cancelled_top_terms_do_not_count(self, capsys):
        big = cli.ORACLE_MAX_DEGREE + 1
        code, out, _ = run(capsys, ["oracle", "--curve", f"t^{big} + t^2 - t^{big}, t^3"])
        assert code == 0
        assert "delta_degree: 2" in out


class TestVerify:
    @pytest.mark.parametrize("suite", ["table1", "classical", "series"])
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run(capsys, ["verify", "--suite", suite])
        assert code == 0
        assert "FAIL" not in out

    def test_table1_has_six_lines(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "table1"])
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 6

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify_suites, "run_suite",
            lambda name: [{"name": "broken", "expected": "1", "got": "2",
                           "pass": False}],
        )
        monkeypatch.setattr(cli.verify_suites, "run_suite",
                            verify_suites.run_suite)
        code, out, _ = run(capsys, ["verify", "--suite", "table1"])
        assert code == 1
        assert "FAIL broken" in out

    @pytest.mark.parametrize("suite,name,broken,line", [
        ("table1", "TABLE1_ROWS", [("A0,A0", "fs_0", False)],
         "FAIL table1 A0,A0: expected fs_0, got fs_0 - c1"),
        ("classical", "salmon_count", lambda d, count=verify_suites.salmon_count: count(d) + 1,
         "FAIL salmon d=3: expected 46, got 45"),
        ("series", "verify_generating_series", lambda types, max_r, db: False,
         "FAIL generating series A0 (kappa=1) up to r=4: expected True, got False"),
        ("properties", "projection_formula_holds", lambda model: False,
         "FAIL projection formula on veronese-p3 (100 pairs): expected True, got False"),
    ])
    def test_each_suite_reports_a_failed_check(self, capsys, monkeypatch, suite, name,
                                               broken, line):
        monkeypatch.setattr(verify_suites, name, broken)
        code, out, _ = run(capsys, ["verify", "--suite", suite])
        assert code == 1
        assert line in out.splitlines()

    def test_properties_expands_each_store_entry_once(self, monkeypatch):
        calls = Counter()
        for name in ("expand_source", "expand_target"):
            def counted(t, db, name=name, expand=getattr(verify_suites, name)):
                calls[name, t.entries, t.kappa] += 1
                return expand(t, db)
            monkeypatch.setattr(verify_suites, name, counted)
        assert all(c["pass"] for c in verify_suites.run_suite("properties"))
        entries = default_db().keys()
        assert len(entries) == 9
        for name in ("expand_source", "expand_target"):
            assert [calls[name, names, kappa] for names, kappa in entries] == [1] * 9

    def test_unknown_suite_is_refused(self):
        with pytest.raises(ValueError, match=r"^unknown suite 'tables'$"):
            verify_suites.run_suite("tables")


class TestJsonOutput:
    def test_payload_matches_text(self, capsys):
        code_t, text, _ = run(capsys, [
            "expand", "--type", "A0,A0", "--kappa", "1", "--side", "target"
        ])
        code_j, blob, _ = run(capsys, [
            "expand", "--type", "A0,A0", "--kappa", "1", "--side", "target",
            "--json"
        ])
        assert code_t == code_j == 0
        payload = json.loads(blob)
        assert payload["result"] == text.splitlines()[0]
        assert payload["command"] == "expand"
        assert payload["inputs"]["type"] == "A0,A0"

    def test_checks_in_json(self, capsys):
        code, blob, _ = run(capsys, ["verify", "--suite", "series", "--json"])
        assert code == 0
        payload = json.loads(blob)
        assert all(c["pass"] for c in payload["checks"])
        assert len(payload["checks"]) == 2


class TestDbOverride:
    def test_db_file_merges_over_builtin(self, capsys, tmp_path):
        dbfile = tmp_path / "extra.db"
        dbfile.write_text("types=[A1] kappa=1 R= 5*c2\n")
        code, out, _ = run(capsys, [
            "expand", "--type", "A1", "--kappa", "1", "--side", "source",
            "--db", str(dbfile)
        ])
        assert code == 0
        assert out.splitlines()[0] == "5*c2"

    def test_unchanged_entries_survive(self, capsys, tmp_path):
        dbfile = tmp_path / "extra.db"
        dbfile.write_text("types=[A1] kappa=1 R= 5*c2\n")
        code, out, _ = run(capsys, [
            "expand", "--type", "A0,A0", "--kappa", "1", "--side", "target",
            "--db", str(dbfile)
        ])
        assert code == 0
        assert out.splitlines()[0] == "s_0^2 - s_1"

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_db_exits_2(self, capsys, tmp_path, kind):
        path = tmp_path / "absent.db" if kind == "missing" else tmp_path
        code, out, err = run(capsys, [
            "expand", "--type", "A0,A0", "--kappa", "1", "--db", str(path)
        ])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read --db {path}: ")
        assert err.splitlines()[1].startswith("usage: tpcalc expand")

    def test_bad_polynomial_names_its_line(self, capsys, tmp_path):
        dbfile = tmp_path / "bad.db"
        dbfile.write_text("# header\n\ntypes=[A0] kappa=1 R= 1/0*c1\n")
        code, _, err = run(capsys, [
            "expand", "--type", "A0", "--kappa", "1", "--db", str(dbfile)
        ])
        assert code == 2
        assert err.startswith("error: bad residual-db line 3: zero denominator")


class TestDeclaredTypes:
    """A --db file that declares B1 as a renamed copy of A1 at kappa = 1."""

    RENAMED = ("type=B1 kappa=1 ell=3\n"
               "types=[B1] kappa=1 R= c2\n"
               "types=[A0,B1] kappa=1 R= -2*c1*c2 - 2*c3\n")

    @pytest.mark.parametrize("argv", [
        ["expand", "--type", "A0,X", "--kappa", "1"],
        ["expand", "--type", "X,A0", "--kappa", "1", "--normalized"],
        ["expand", "--type", "X,A0", "--kappa", "1", "--side", "source"],
        ["expand", "--type", "A0,X", "--kappa", "1", "--side", "source", "--normalized"],
        ["eval", "--model", "scroll-q-p3", "--type", "X"],
        ["eval", "--model", "veronese-p3", "--type", "X", "--side", "source"],
        ["count", "--model", "veronese-p3", "--type", "X"],
        ["extract", "--type", "X,A0", "--kappa", "1", "--side", "source",
         "--known", "fs_0*c2 - 2*c1*c2 - 2*c3"],
        ["interp", "--type", "X", "--kappa", "1",
         "--constraint", "veronese-p3=6", "--constraint", "scroll-q-p3=4"],
    ], ids=" ".join)
    def test_renamed_copy_prints_what_a1_prints(self, capsys, tmp_path, argv):
        dbfile = tmp_path / "b1.db"
        dbfile.write_text(self.RENAMED)

        def shown(argv):
            code, out, err = run(capsys, argv)
            return code, [l for l in out.splitlines() if not l.startswith("# elapsed:")], err

        code, out, err = shown([a.replace("X", "A1") for a in argv])
        assert (code, err) == (0, "")
        assert shown([a.replace("X", "B1") for a in argv] + ["--db", str(dbfile)]) == (
            0, [line.replace("A1", "B1") for line in out], "")

    @pytest.mark.parametrize("text, lineno, message", [
        ("type=A0 kappa=1 ell=1\n", 1, "cannot declare a type named 'A0'"),
        ("# header\ntype=A-2 kappa=1 ell=3\n", 2, "cannot declare a type named 'A-2'"),
        ("type=B1 kappa=1 ell=0\n", 1, "ell=0 for B1 at kappa=1 is below max(kappa, 0)"),
        ("type=A1 kappa=1 ell=4\n", 1, "A1 at kappa=1 already has ell=3, not 4"),
        ("type=B1 kappa=1 ell=3\n\ntype=B1 kappa=1 ell=4\n", 3,
         "B1 at kappa=1 already has ell=3, not 4"),
        ("types=[B1] kappa=1 R= c2\ntype=B1 kappa=1 ell=3\n", 1,
         "unknown singularity type 'B1' at kappa=1"),
        ("type=B kappa=1 ell=3\ntypes=[B,B] kappa=1 R= c1^4\n", 2,
         "types=[B,B] kappa=1: R must be homogeneous of degree 5"),
    ], ids=["A0", "bad-name", "ell-below-kappa", "contradicts-built-in",
            "contradicts-earlier", "declared-further-down", "not-homogeneous"])
    def test_a_refused_line_exits_2_with_its_number(self, capsys, tmp_path, text, lineno,
                                                    message):
        dbfile = tmp_path / "bad.db"
        dbfile.write_text(text)
        code, out, err = run(capsys, [
            "expand", "--type", "A0", "--kappa", "1", "--db", str(dbfile)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad residual-db line {lineno}: {message}")


class TestClosedPipe:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def test_reader_closing_early_exits_1_without_traceback(self):
        # about 128 KB of output, more than a pipe buffer holds, so the write
        # is still under way when the reader closes its end
        argv = [sys.executable, "-m", "tpcalc.cli", "porteous", "--kappa", "1", "--k", "8"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.env) as proc:
            assert os.read(proc.stdout.fileno(), 10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (1, b"")

    def test_reader_gone_before_the_first_write_exits_1_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader from the start: the one short write fails
        try:
            done = subprocess.run([sys.executable, "-m", "tpcalc.cli", "porteous", "--kappa",
                                   "1", "--k", "1"], stdout=write_end, stderr=subprocess.PIPE,
                                  env=self.env, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


class TestRingSizeLimit:
    @pytest.mark.parametrize("argv", [
        ["count", "--type", "A0,A0"],
        ["eval", "--expr", "s_1"],
    ])
    def test_oversized_ring_exits_2(self, capsys, argv):
        model = "product [20,20,20] ci [(1,1,1)] -> [0]"
        code, _, err = run(capsys, argv[:1] + ["--model", model] + argv[1:])
        assert code == 2
        assert "9261 monomials exceeds MAX_RING_SIZE" in err


class TestRingLimitModels:
    """Models at MAX_RING_SIZE build in milliseconds: c(f) takes no product of
    target size times source size."""

    @pytest.mark.parametrize("model", [
        "product [2047,1] -> [0]",
        "product [1,2047] -> [0]",
        "product [2047,1] ci [(1,1)] -> [0]",
        "product [63,63] -> [0]",
        "product [15,15,15] -> [0,1]",
        "product [15,15,15] ci [(1,1,1),(2,1,0)] -> [0]",
    ])
    def test_c1_power_evaluates_within_the_deadline(self, capsys, model):
        start = time.perf_counter()
        code, out, err = run(capsys, ["eval", "--model", model, "--expr", "c1^60"])
        assert (code, err) == (0, "")
        assert time.perf_counter() - start < 3


class TestUnreadableDescription:
    @pytest.mark.parametrize("model", [
        "product [2,1] ci [(1,1) xyz] -> [1]",
        "product [2,1] ci [junk(1,1)] -> [1]",
        "product [3,3] ci [(3,0);(1,1)] -> [1]",
        "product [2,1] ci [(1,,1)] -> [1]",
        "product [2,,1] -> [1]",
        "product [2,1] -> [1,,]",
        "product [2 1] -> [1]",
        pytest.param("product [" + "9" * 5000 + ",1] -> [0]", id="a factor of 5000 digits"),
        pytest.param("product [2,1] -> [" + "0" * 4300 + "1]", id="a target of 4301 digits"),
    ])
    def test_unreadable_description_exits_2(self, capsys, model):
        code, out, err = run(capsys, ["count", "--model", model, "--type", "A1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse ")
        assert "invalid literal" not in err and "Exceeds the limit" not in err


class TestNumbersPastMaxDigits:
    """A number Python would neither print nor read exits 2 in tpcalc's words."""

    MODEL = "product [2,1] ci [(" + "9" * 3000 + ",1)] -> [1]"
    HUGE = "7" * 5000

    def assert_refused(self, capsys, argv, message):
        for extra in ([], ["--json"]):
            start = time.perf_counter()
            code, out, err = run(capsys, argv + extra)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {message}")
            assert f"more than {MAX_DIGITS} digits" in err
            assert "set_int_max_str_digits" not in err
            assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("argv", [["eval", "--expr", "c1^2"], ["count", "--type", "A1"]],
                             ids=["eval", "count"])
    def test_a_result_past_the_limit_exits_2(self, capsys, argv):
        self.assert_refused(capsys, argv[:1] + ["--model", self.MODEL] + argv[1:],
                            "a result has a number of more than")

    @pytest.mark.parametrize("line", [f"type=B kappa={HUGE} ell=1",
                                      f"types=[A0] kappa={HUGE} R= 1"], ids=["type", "types"])
    def test_a_db_integer_past_the_limit_exits_2(self, capsys, tmp_path, line):
        dbfile = tmp_path / "huge.db"
        dbfile.write_text(line + "\n")
        self.assert_refused(capsys, ["expand", "--type", "A0", "--kappa", "1",
                                     "--db", str(dbfile)], "bad residual-db line 1: ")


class TestNegativeMultidegree:
    def test_negative_entry_exits_2(self, capsys):
        code, out, err = run(capsys, ["count", "--model", "product [2,1] ci [(-3,1)] -> [1]",
                                      "--type", "A1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: divisor classes need non-negative")


class TestRepeatedTargetFactor:
    def test_repeated_factor_exits_2(self, capsys):
        code, out, err = run(capsys, ["count", "--model", "product [2,1] ci [(3,1)] -> [1,1]",
                                      "--type", "A1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: repeated target factor")


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_error_usage_names_the_subcommand(self, capsys):
        code, _, err = run(capsys, ["porteous", "--kappa", "1", "--k", "9"])
        assert code == 2
        assert "tpcalc porteous" in err


class TestGrammarErrors:
    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "veronese-p3", "--expr", "1/0"],
        ["eval", "--model", "veronese-p3", "--expr", ""],
        ["oracle", "--curve", "1/0*t, t^2"],
        ["expand", "--type", "A1", "--kappa", "1", "--db", "{db}"],
    ])
    def test_bad_text_exits_2(self, capsys, tmp_path, argv):
        dbfile = tmp_path / "bad.db"
        dbfile.write_text("types=[A1] kappa=1 R= 1/0*c1\n")
        code, _, err = run(capsys, [a.format(db=dbfile) for a in argv])
        assert code == 2
        assert err.startswith("error:")
