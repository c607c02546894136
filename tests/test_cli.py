import contextlib
import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmilp import simplex, solver
from tdmilp.cli import main
from tdmilp.fileformat import ParseError, parse_instance, serialize_instance
from tdmilp.integralize import FeasibilityError
from tdmilp.linalg import Matrix, rational
from instances import (acceptance_corpus, dense_continuous, dense_continuous_exact,
                       milp_text, nfold_one_integer, wide_certificate)


def run_cli(args, stdin="", err=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err or io.StringIO()):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


TINY = """MILP v1
vars 1
ints
obj 1
row 2 = 1
lb 0
ub 1
"""

MIXED = """MILP v1
vars 3
ints 0 2
obj 1 1 1
row 1 2 1 = 3
lb 0 0 0
ub 2 2 2
"""

INFEASIBLE_ILP = """MILP v1
vars 1
ints 0
obj 0
row 2 = 3
lb 0
ub 2
"""

# one tree: border column 0 above the blocks {1} and {2}
STAR = """MILP v1
vars 3
obj 0 0 0
row 1 1 0 = 1
row 1 0 1 = 1
lb 0 0 0
ub 1 1 1
"""

# the certificate of this chain outgrows fracbound.BIT_CAP
CHAIN = """MILP v1
vars 4
obj 0 0 0 0
row 1 2 0 0 = 1
row 0 1 2 0 = 1
row 0 0 1 2 = 1
lb 0 0 0 0
ub 1 1 1 1
"""


# 2x - 2y = 1 has no integer point; branch and bound pops 20 nodes
PARITY = """MILP v1
vars 2
ints 0 1
obj 0 0
row 2 -2 = 1
lb 0 0
ub 10 10
"""

# line 3 is the ints line, lines 5 and 6 the rows
TWO_ROWS = ["MILP v1", "vars 2", "ints 0", "obj 1 1", "row 1 1 = 1", "row 1 -1 = 1",
            "lb 0 0", "ub 1 1"]


def two_rows_with(line_no, text):
    """TWO_ROWS with its line line_no (1-based) replaced by text; None
    drops the line."""
    lines = TWO_ROWS[:line_no - 1] + ([] if text is None else [text]) + TWO_ROWS[line_no:]
    return "\n".join(lines) + "\n"


def readme_instance():
    """The fenced block of README.md that starts with the MILP v1 header."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```", readme, re.S | re.M)
    return next(b for b in blocks if b.startswith("MILP v1\n"))


def box_only(ints):
    return f"MILP v1\nvars 2\nints {ints}\nobj 1 -1\nlb 0 0\nub 3 3\n"


def one_row(token):
    return f"MILP v1\nvars 1\nobj 1\nrow {token} = 1\nlb 0\nub 2\n"


class TestParseInstance:
    @pytest.mark.parametrize("token, coeff, rhs", [
        ("+3", 3, 1), ("-0", 0, 1), ("4/6", 2, 3), ("\u0663", 3, 1),  # Arabic-Indic 3
    ])
    def test_accepted_tokens(self, token, coeff, rhs):
        inst = parse_instance(one_row(token)).instance
        assert inst.a_frac == Matrix([[coeff]]) and inst.b == (rhs,)

    @pytest.mark.parametrize("token, message", [
        ("1_0", "not an integer or p/q rational: '1_0'"),
        ("1.5", "not an integer or p/q rational: '1.5'"),
        ("1/0", "zero denominator: '1/0'"),
    ])
    def test_rejected_tokens(self, token, message):
        with pytest.raises(ParseError) as exc:
            parse_instance(one_row(token))
        assert exc.value.line == 4
        assert str(exc.value) == f"line 4: {message}"

    @settings(max_examples=400, deadline=None)
    @given(token=st.text(st.sampled_from([*"0123456789", "\u0663", "\uff13", "\u00b2",
                                          *"+-_./e"]), min_size=1, max_size=8))
    def test_a_token_parses_exactly_as_rational(self, token):
        # Arabic-Indic and fullwidth 3 are decimal digits, superscript 2 is not
        try:
            value = rational(token)
        except ValueError as exc:
            with pytest.raises(ParseError) as err:
                parse_instance(one_row(token))
            assert str(err.value) == f"line 4: {exc}"
            return
        inst = parse_instance(one_row(token)).instance
        # the row is cleared of its denominator, the rhs 1 along with it
        assert Fraction(inst.a_frac[0, 0], inst.b[0]) == value

    def test_minimal_file(self):
        parsed = parse_instance(TINY)
        inst = parsed.instance
        assert inst.z == 0 and inst.q == 1
        assert inst.a_frac == Matrix([[2]])
        assert inst.b == (1,)

    def test_round_trip_canonical(self):
        parsed = parse_instance(MIXED)
        text = serialize_instance(parsed)
        again = parse_instance(text)
        assert serialize_instance(again) == text

    def test_permutation_recorded(self):
        parsed = parse_instance(MIXED)
        assert parsed.instance.z == 2 and parsed.instance.q == 1
        assert parsed.to_original == (0, 2, 1)

    def test_rational_rows_cleared(self):
        text = "MILP v1\nvars 2\nints\nobj 0 0\nrow 1/2 1/3 = 1\nlb 0 0\nub 3 3\n"
        inst = parse_instance(text).instance
        assert inst.a_frac == Matrix([[3, 2]])
        assert inst.b == (6,)

    def test_row_less_instance(self):
        inst = parse_instance(box_only("0")).instance
        assert (inst.a_int.shape, inst.a_frac.shape, inst.b) == ((0, 1), (0, 1), ())

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_instance("MILP v1\nvars 2\nbogus 1\n")
        assert err.value.line == 3
        with pytest.raises(ParseError):
            parse_instance("MILP v1\nvars 1\nints\nobj 1/2\nrow 1 = 1\nlb 0\nub 1\n")
        with pytest.raises(ParseError):
            parse_instance(TINY.replace("row 2 = 1", "ineq 2 = 1"))
        with pytest.raises(ParseError):
            parse_instance(TINY.replace("vars 1", "vars 2"))

    @pytest.mark.parametrize("text, error", [
        (two_rows_with(2, "vars 2 3"), "line 2: vars takes one count"),
        (two_rows_with(2, "vars 0"), "line 2: vars must be positive"),
        (two_rows_with(6, "row 1 -1 0"), "line 6: row needs '= rhs'"),
        (two_rows_with(6, "row 1 -1 = 0 1"), "line 6: row needs exactly one rhs"),
        ("\n# only a comment\n", "line 1: missing header"),
        (two_rows_with(2, None), "line 1: missing vars line"),
        (two_rows_with(4, None), "line 1: missing obj line"),
        (two_rows_with(7, None), "line 1: missing lb/ub line"),
        (two_rows_with(8, None), "line 1: missing lb/ub line"),
        (two_rows_with(3, "ints 0 2"), "line 3: integer index 2 out of range"),
        (two_rows_with(3, "ints 1 1"), "line 3: duplicate integer indices"),
        (two_rows_with(6, "row 1 = 0"), "line 6: row needs 2 coefficients, got 1"),
        # line 9 repeats a keyword line: an error, not a replacement
        (two_rows_with(9, "vars 2"), "line 9: second vars line"),
        (two_rows_with(9, "ints 1"), "line 9: second ints line"),
        (two_rows_with(9, "obj 5 5"), "line 9: second obj line"),
        (two_rows_with(9, "lb 1 1"), "line 9: second lb line"),
        (two_rows_with(9, "ub 0 0"), "line 9: second ub line"),
        # the ub line is checked against the lb line, variables in file order
        (two_rows_with(7, "lb 0 2"), "line 8: lower bound 2 exceeds upper bound 1 of variable 1"),
    ], ids=["vars_count", "vars_positive", "row_no_eq", "row_two_rhs", "no_header",
            "no_vars", "no_obj", "no_lb", "no_ub", "ints_range", "ints_duplicate",
            "row_width", "vars_twice", "ints_twice", "obj_twice", "lb_twice", "ub_twice",
            "lb_above_ub"])
    def test_malformed_input_exit_code(self, text, error):
        err = io.StringIO()
        code, out = run_cli(["solve"], stdin=text, err=err)
        assert code == 2
        assert out == ""
        assert err.getvalue() == f"error: {error}\n"

    def test_blank_and_comment_lines_skipped(self):
        text = "\n".join(["", "# header next", "MILP v1", "   ", "# body next",
                          *TWO_ROWS[1:4], "", "  # indented comment", *TWO_ROWS[4:], ""])
        code, out = run_cli(["solve"], stdin=text)
        assert code == 0
        assert out == run_cli(["solve"], stdin="\n".join(TWO_ROWS) + "\n")[1]


class TestCommands:
    def test_solve_tiny(self):
        code, out = run_cli(["solve"], stdin=TINY)
        assert code == 0
        assert "x0=1/2" in out
        assert "objective=1/2" in out

    def test_solve_and_oracle_agree(self):
        _, solve_out = run_cli(["solve"], stdin=MIXED)
        _, oracle_out = run_cli(["oracle"], stdin=MIXED)
        solve_obj = [l for l in solve_out.splitlines() if l.startswith("objective=")]
        oracle_obj = [l for l in oracle_out.splitlines() if l.startswith("objective=")]
        assert solve_obj == oracle_obj

    def test_readme_example_solves(self):
        objectives = []
        for command in ("solve", "oracle"):
            code, out = run_cli([command], stdin=readme_instance())
            assert code == 0
            objectives.append([l for l in out.splitlines() if l.startswith("objective=")])
        assert objectives == [["objective=3/2"]] * 2

    def test_infeasible_exit_code(self):
        code, out = run_cli(["solve"], stdin=INFEASIBLE_ILP)
        assert code == 1
        assert "status=infeasible" in out

    def test_gen_pipe_invert(self):
        code, matrix_text = run_cli(["gen", "lemma4_a1", "--n", "5"])
        assert code == 0
        code, out = run_cli(["invert"], stdin=matrix_text)
        assert code == 0
        assert "fr=32" in out

    def test_analyze(self):
        code, out = run_cli(["analyze"], stdin=MIXED)
        assert code == 0
        assert "td_primal=" in out and "td_dual=" in out
        assert "block_structure:" in out

    def test_analyze_recurses_into_blocks(self):
        code, out = run_cli(["analyze", "--format", "machine"], stdin=STAR)
        assert code == 0
        assert out.splitlines()[2:] == [
            "block_structure:",
            "node: k1=1 border_cols=[0] d=2 height=2 ttd=2",
            "  block 0: rows=[0] cols=[1] size=1x1",
            "    node: k1=1 border_cols=[0] d=1 height=1 ttd=1",
            "      block 0: rows=[0] cols=[] size=1x0",
            "  block 1: rows=[1] cols=[2] size=1x1",
            "    node: k1=1 border_cols=[0] d=1 height=1 ttd=1",
            "      block 0: rows=[0] cols=[] size=1x0",
        ]

    def test_bound(self):
        code, out = run_cli(["bound"], stdin=TINY)
        assert code == 0
        assert "bound=2" in out

    def test_bound_past_bit_cap_exit_code(self):
        err = io.StringIO()
        code, out = run_cli(["bound"], stdin=CHAIN, err=err)
        assert code == 3
        assert err.getvalue().startswith("cap exceeded: log2 estimate ")
        assert len(out.splitlines()) == 1 and out.startswith("log2_estimate=")

    @pytest.mark.parametrize("ints", ["0 1", "0"], ids=["pure", "mixed"])
    def test_row_less_instance_solves(self, ints):
        code, out = run_cli(["solve"], stdin=box_only(ints))
        _, oracle = run_cli(["oracle"], stdin=box_only(ints))
        assert code == 0
        assert out.splitlines()[:4] == oracle.splitlines()
        assert oracle.splitlines() == ["status=optimal", "x0=0", "x1=3", "objective=-3"]

    def test_file_path_input(self, tmp_path):
        path = tmp_path / "mixed.milp"
        path.write_text(MIXED, encoding="utf-8")
        assert run_cli(["solve", str(path), "--format", "machine"]) == \
            run_cli(["solve", "--format", "machine"], stdin=MIXED)

    @pytest.mark.parametrize("args, expected", [
        (["lemma5_p1", "--n", "2"], ["dimension=2", "objective=sum_of_squares", "row 1 1 = 1"]),
        (["lemma5_p2", "--k", "3"], ["dimension=1", "objective=squared_distance,1/3"]),
        (["lemma5_p3"], ["dimension=1", "objective=cubic,0,-1,2,1", "lb 0", "ub 1"]),
    ], ids=["lemma5_p1", "lemma5_p2", "lemma5_p3"])
    def test_gen_descriptor(self, args, expected):
        code, out = run_cli(["gen"] + args)
        assert code == 0
        assert out.splitlines() == ["MIP descriptor"] + expected

    def test_reduce_rejects_mixed(self):
        err = io.StringIO()
        code, out = run_cli(["reduce"], stdin=TINY, err=err)
        assert code == 2
        assert out == ""
        assert err.getvalue() == "error: reduce expects a pure ILP (no continuous variables)\n"

    def test_reduce_pipes_back_into_solve(self):
        code, reduced = run_cli(["reduce"], stdin=INFEASIBLE_ILP)
        assert code == 0
        code, _ = run_cli(["oracle"], stdin=reduced)
        assert code == 1  # feasibility preserved

    def test_verify_command(self):
        code, out = run_cli(["verify", "lemma4_a1", "--n", "6"])
        assert code == 0
        assert "PASS" in out

    def test_solve_wide_integer_box(self):
        code, out = run_cli(["solve", "--format", "machine"],
                            stdin=milp_text(nfold_one_integer(free_column=True)))
        assert code == 0
        assert "status=optimal" in out.splitlines()
        assert "m_source=determinant" in out.splitlines()

    @pytest.mark.parametrize("make", [dense_continuous, dense_continuous_exact],
                             ids=["dense_7x17", "dense_8x16"])
    def test_solve_past_basis_cap_exit_code(self, make):
        err = io.StringIO()
        code, _ = run_cli(["solve"], stdin=milp_text(make()), err=err)
        assert code == 3
        assert err.getvalue().startswith("cap exceeded: ")

    def test_simplex_failure_is_invariant_exit(self, monkeypatch):
        # with a pivot cap of 0 the root LP raises SolverError after one pivot
        monkeypatch.setattr(simplex, "PIVOT_CAP", 0)
        err = io.StringIO()
        code, out = run_cli(["solve"], stdin=MIXED, err=err)
        assert code == 4
        assert out == ""
        assert err.getvalue() == "error: pivot cap exceeded\n"

    def test_node_cap_exit_code(self, monkeypatch):
        monkeypatch.setattr(solver, "NODE_CAP", 5)
        err = io.StringIO()
        code, out = run_cli(["solve"], stdin=PARITY, err=err)
        assert code == 3
        assert out == ""
        assert err.getvalue() == "cap exceeded: branch and bound limited to 5 nodes\n"

    def test_main_builds_no_parser(self, monkeypatch):
        # main parses with the parser the module built once
        def fail():
            raise AssertionError("main built a parser")

        monkeypatch.setattr("tdmilp.cli.build_parser", fail)
        code, out = run_cli(["solve"], stdin=TINY)
        assert code == 0
        assert out.startswith("status=optimal\n")

    def test_solve_scale_past_digit_limit(self):
        # lcm(1..9950) is past the digit limit; its gcd with the determinant
        # scale, 9950, is the scale used
        code, out = run_cli(["solve", "--format", "machine"],
                            stdin=milp_text(wide_certificate()))
        lines = out.splitlines()
        assert code == 0
        assert {"m_source=certificate", "m=9950", "scale=9950"} <= set(lines)

    def test_td_lines_agree_across_commands(self):
        # analyze, bound and solve read the same statistics from choose_side
        bounded = 0
        for inst in acceptance_corpus(100):
            text = milp_text(inst)
            _, analyzed = run_cli(["analyze"], stdin=text)
            for side in ("primal", "dual"):
                want = next(line for line in analyzed.splitlines()
                            if line.startswith(f"td_{side}="))
                code, out = run_cli(["solve", "--side", side, "--format", "machine"],
                                    stdin=text)
                assert code in (0, 1) and want in out.splitlines()
                code, out = run_cli(["bound", "--side", side, "--format", "machine"],
                                    stdin=text)
                if code == 0:
                    assert want in out.splitlines()
                    bounded += 1
        assert bounded >= 180  # 188 of the 200 runs exit 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Bound.describe() writes the "
                       "certificate's nodes past the int-to-str digit limit (exit 2)")
    def test_bound_primal_on_acceptance_instance_0(self):
        code, out = run_cli(["bound", "--side", "primal"],
                            stdin=milp_text(next(acceptance_corpus(1))))
        assert code == 0
        assert out.startswith("side=primal\n")

    def test_scale_witness_is_invariant_exit(self, monkeypatch):
        # a scale of 1 cannot hold x0 = 1/2, so the optimum fails the witness
        monkeypatch.setattr("tdmilp.solver.choose_scale", lambda m: 1)
        err = io.StringIO()
        code, out = run_cli(["solve"], stdin=TINY, err=err)
        assert code == 4
        assert out == ""
        assert err.getvalue() == ("error: a continuous value is off the 1/scale grid under "
                                  "m_source=certificate m=2 scale=1\n")

    def test_failed_recovery_is_invariant_exit(self, monkeypatch):
        def failing(z_opt, scale, inst):
            raise FeasibilityError("constraint row 0 violated: 2 != 1", row=0)

        monkeypatch.setattr("tdmilp.solver.recover", failing)
        err = io.StringIO()
        code, out = run_cli(["solve"], stdin=TINY, err=err)
        assert code == 4
        assert out == ""
        assert err.getvalue() == "error: constraint row 0 violated: 2 != 1\n"

    def test_usage_error(self):
        code, _ = run_cli(["gen", "nosuch"])
        assert code == 2

    def test_parse_error_exit(self):
        code, _ = run_cli(["solve"], stdin="not an instance")
        assert code == 2

    def test_token_past_the_int_digit_limit_is_a_parse_error(self):
        # 4301 digits: past Python's int-to-str conversion limit of 4300
        err = io.StringIO()
        code, out = run_cli(["solve"], stdin=one_row("7" * 4301), err=err)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: line 4: Exceeds the limit \(4300[^)]*\) .*4301 digits.*\n",
                            err.getvalue())

    @pytest.mark.parametrize("matrix_text, message", [
        ("1 1\n1 1\n", "matrix is singular"),
        ("1 2 3\n4 5 6\n", "matrix is not square"),
        ("1 2\n3\n", "line 2: ragged rows: expected 2 columns, got 1"),
        ("", "no matrix rows"),
        ("# comment only\n\n", "no matrix rows"),
        ("1 0\n\n0 x\n", "line 3: not an integer or p/q rational: 'x'"),
        # the structural exits of the structured inverse: a forest with a
        # zero row or a non-square tree, a split block wider than tall, and
        # a peeled strip of deficient row rank
        ("1 0\n0 0\n", "zero row"),
        ("2 0\n-1 0\n", "non-square component block"),
        ("0 2 0 0\n1 0 2 2\n2 -1 0 0\n1 0 0 0\n", "block with more columns than rows"),
        ("2 0 -1 0\n0 0 0 0\n2 -1 0 1\n2 0 1 2\n", "block strip does not have full row rank"),
    ], ids=["singular", "non_square", "ragged", "empty", "comment_only", "bad_token_line",
            "zero_row", "non_square_tree", "wide_block", "strip_rank"])
    def test_invert_bad_matrix_is_usage_error(self, matrix_text, message):
        err = io.StringIO()
        code, out = run_cli(["invert"], stdin=matrix_text, err=err)
        assert code == 2
        assert out == ""
        assert err.getvalue() == f"error: {message}\n"

    def test_invert_zero_denominator_is_usage_error(self):
        err = io.StringIO()
        code, out = run_cli(["invert"], stdin="1 1/0\n0 1\n", err=err)
        assert code == 2
        assert out == ""
        assert err.getvalue() == "error: line 1: zero denominator: '1/0'\n"


class TestFlags:
    @pytest.mark.parametrize("args", [
        ["analyze", "--side", "dual"],
        ["analyze", "--bit-cap", "5"],
        ["bound", "--scale", "2"],
        ["bound", "--exact-td-cap", "8"],
        ["solve", "--seed", "3"],
        ["solve", "--bit-cap", "5"],
        ["oracle", "--exact-td-cap", "8"],
        ["invert", "--side", "primal"],
        ["invert", "--exact-td-cap", "8"],
        ["reduce", "--scale", "2"],
        ["solve", "--scale", "2"],
        ["gen", "lemma4_a1", "--n", "3", "--side", "dual"],
        ["verify", "lemma4_a1", "--n", "3", "--exact-td-cap", "8"],
    ], ids=lambda args: " ".join(args))
    def test_unread_flag_is_usage_error(self, args):
        err = io.StringIO()
        code, out = run_cli(args, stdin=MIXED, err=err)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err.getvalue()

    @pytest.mark.parametrize("args, stdin", [
        (["analyze"], MIXED),
        (["bound", "--side", "dual"], MIXED),
        (["solve", "--side", "primal"], MIXED),
        (["oracle"], MIXED),
        (["invert"], "2 -1\n0 2\n"),
        (["reduce"], INFEASIBLE_ILP),
        (["gen", "lemma4_a1", "--n", "3", "--seed", "1"], ""),
        (["verify", "lemma4_a1", "--n", "3", "--seed", "1"], ""),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_read_flags_are_accepted(self, args, stdin):
        code, out = run_cli(args + ["--format", "machine"], stdin=stdin)
        assert code == 0
        assert out


class TestDeterminism:
    def test_machine_output_byte_identical(self):
        commands = [
            (["solve", "--format", "machine"], MIXED),
            (["oracle", "--format", "machine"], MIXED),
            (["analyze", "--format", "machine"], MIXED),
            (["bound", "--format", "machine"], TINY),
            (["gen", "random_td", "--n", "6", "--t", "3", "--k", "5",
              "--seed", "11", "--magnitude", "2", "--format", "machine"], ""),
            (["verify", "lemma4_a2", "--n", "8", "--format", "machine"], ""),
        ]
        for args, stdin in commands:
            first = run_cli(args, stdin=stdin)
            second = run_cli(args, stdin=stdin)
            assert first == second, args
