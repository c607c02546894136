import contextlib
import io
import sys

import pytest

from tdmilp import simplex
from tdmilp.cli import main
from tdmilp.fileformat import ParseError, parse_instance, serialize_instance
from tdmilp.integralize import FeasibilityError
from tdmilp.linalg import Matrix
from instances import (dense_continuous, dense_continuous_exact, milp_text,
                       nfold_one_integer, wide_certificate)


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

    def test_bound(self):
        code, out = run_cli(["bound"], stdin=TINY)
        assert code == 0
        assert "bound=2" in out

    def test_reduce_rejects_mixed(self):
        code, _ = run_cli(["reduce"], stdin=TINY)
        assert code == 2

    def test_reduce_pipes_back_into_solve(self):
        code, reduced = run_cli(["reduce"], stdin=INFEASIBLE_ILP)
        assert code == 0
        code, _ = run_cli(["oracle"], stdin=reduced)
        assert code == 1  # feasibility preserved

    def test_verify_command(self):
        code, out = run_cli(["verify", "lemma4_a1", "--n", "6"])
        assert code == 0
        assert "PASS" in out

    def test_scale_override_flag(self):
        code, out = run_cli(["solve", "--scale", "4"], stdin=TINY)
        assert code == 0
        assert "scale=4" in out and "m_source=override" in out
        assert "x0=1/2" in out

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
        monkeypatch.setattr(simplex.lp_solve_exact, "__defaults__", (0,))
        err = io.StringIO()
        code, out = run_cli(["solve"], stdin=MIXED, err=err)
        assert code == 4
        assert out == ""
        assert err.getvalue() == "error: pivot cap exceeded\n"

    def test_solve_scale_past_digit_limit(self):
        # lcm(1..9950) is past the digit limit; its gcd with the determinant
        # scale, 9950, is the scale used
        code, out = run_cli(["solve", "--format", "machine"],
                            stdin=milp_text(wide_certificate()))
        lines = out.splitlines()
        assert code == 0
        assert {"m_source=certificate", "m=9950", "scale=9950"} <= set(lines)

    def test_scale_witness_is_invariant_exit(self, monkeypatch):
        # a scale of 1 cannot hold x0 = 1/2, so the solve branches on x0
        monkeypatch.setattr("tdmilp.solver.choose_scale", lambda m: 1)
        err = io.StringIO()
        code, out = run_cli(["solve"], stdin=TINY, err=err)
        assert code == 4
        assert out == ""
        assert err.getvalue() == ("error: branched on a continuous column under "
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

    @pytest.mark.parametrize("matrix_text, message", [
        ("1 1\n1 1\n", "singular"),
        ("1 2 3\n4 5 6\n", "not square"),
        ("1 2\n3\n", "ragged"),
    ], ids=["singular", "non_square", "ragged"])
    def test_invert_bad_matrix_is_usage_error(self, matrix_text, message):
        err = io.StringIO()
        code, out = run_cli(["invert"], stdin=matrix_text, err=err)
        assert code == 2
        assert out == ""
        assert err.getvalue().startswith("error: ") and message in err.getvalue()

    def test_invert_zero_denominator_is_usage_error(self):
        err = io.StringIO()
        code, out = run_cli(["invert"], stdin="1 1/0\n0 1\n", err=err)
        assert code == 2
        assert out == ""
        assert err.getvalue() == "error: zero denominator: '1/0'\n"


class TestFlags:
    @pytest.mark.parametrize("args", [
        ["analyze", "--side", "dual"],
        ["analyze", "--bit-cap", "5"],
        ["bound", "--scale", "2"],
        ["solve", "--seed", "3"],
        ["oracle", "--exact-td-cap", "8"],
        ["invert", "--side", "primal"],
        ["reduce", "--scale", "2"],
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
        (["analyze", "--exact-td-cap", "8"], MIXED),
        (["bound", "--side", "dual", "--exact-td-cap", "8", "--bit-cap", "100"], MIXED),
        (["solve", "--side", "primal", "--scale", "2", "--exact-td-cap", "8",
          "--bit-cap", "100"], MIXED),
        (["oracle"], MIXED),
        (["invert", "--exact-td-cap", "8"], "2 -1\n0 2\n"),
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
