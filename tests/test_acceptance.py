"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is exact (rational equality) unless a criterion states a
numeric epsilon; time budgets are asserted.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from tdmilp.cli import main as cli_main
from tdmilp.families import FamilySpec, generate, reduce_ilp_to_milp, verify_family
from tdmilp.fracbound import CapExceededError, frac_bound, structured_inverse
from tdmilp.integralize import pure_ilp, recover
from tdmilp.linalg import Matrix, fractionality, mat_det, mat_inverse
from tdmilp.solver import ilp_solve, milp_oracle, milp_solve
from tdmilp.structure import (Graph, decomposition_for_matrix, td_compute,
                              td_stats, validate_td)
from instances import acceptance_corpus
from oracles import structured_invertible_matrix, treedepth_by_subset_dp


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_bidiagonal_inverse_closed_form():
    t0 = time.time()
    ok = True
    for n in range(2, 13):
        a = generate(FamilySpec("lemma4_a1", n=n))
        inv = mat_inverse(a)
        expected = Matrix([[Fraction(1, 2 ** (j - i + 1)) if j >= i else Fraction(0)
                            for j in range(n)] for i in range(n)])
        ok &= inv == expected and fractionality(inv) == 2 ** n
    elapsed = time.time() - t0
    _report("1 bidiagonal family", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_arrowhead_inverse_fractionality():
    t0 = time.time()
    ok = True
    resolved = None
    for n in range(4, 13):
        a = generate(FamilySpec("lemma4_a2", n=n))
        inv = mat_inverse(a)
        np_ = n - 2
        ok &= fractionality(inv) >= n - 2
        # resolve the printed-denominator ambiguity: diagonal is (n'-1)/n'
        resolved = inv[1, 1]
        ok &= resolved == Fraction(np_ - 1, np_)
    elapsed = time.time() - t0
    _report("2 arrowhead family", ok and elapsed < 1.0,
            f"diag entry {resolved}, {elapsed:.3f}s")


def test_criterion_3_structured_inverse_equivalence():
    t0 = time.time()
    rng = random.Random(20260301)
    done = 0
    ok = True
    while done < 200:
        n = rng.randrange(2, 11)
        a = structured_invertible_matrix(rng, n, height=4, magnitude=3)
        f = decomposition_for_matrix(a, "primal", "heuristic")
        if td_stats(f).height > 6:
            continue
        inv, trace = structured_inverse(a, f)
        ok &= inv == mat_inverse(a)
        ok &= trace.replay() == inv
        done += 1
        if not ok:
            break
    elapsed = time.time() - t0
    _report("3 structured inverse x200", ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_4_certificate_soundness():
    t0 = time.time()
    rng = random.Random(7151)
    ok = True
    capped = 0
    for case in range(100):
        m = rng.randrange(2, 7)
        n = rng.randrange(m, 10)
        a = generate(FamilySpec("random_td", n=n, k=m, t=3,
                                seed=rng.randrange(10 ** 6), magnitude=2))
        f = decomposition_for_matrix(a, "primal", "exact")
        empirical = 1
        for cols in combinations(range(n), m):
            sub = a.submatrix(range(m), cols)
            if mat_det(sub) != 0:
                empirical = max(empirical, fractionality(mat_inverse(sub)))
        try:
            cert = frac_bound(a, f)
            ok &= cert.bound >= empirical
        except CapExceededError as exc:
            capped += 1
            ok &= exc.log2_estimate >= math.log2(empirical)
        if not ok:
            break
    elapsed = time.time() - t0
    _report("4 certificate soundness x100", ok and elapsed < 60.0,
            f"{capped} capped, {elapsed:.1f}s")


_PIPELINE_RUNS = []


def test_criterion_5_pipeline_matches_oracle():
    t0 = time.time()
    ok = True
    optimal = 0
    for inst in acceptance_corpus(100):
        res, report = milp_solve(inst)
        ora = milp_oracle(inst)
        ok &= res.status == ora.status
        if res.status == "optimal":
            optimal += 1
            ok &= res.objective == ora.objective
            ok &= all(v.denominator == 1 or report.scale % v.denominator == 0
                      for v in res.x)
            _PIPELINE_RUNS.append((inst, res, report))
        if not ok:
            break
    elapsed = time.time() - t0
    _report("5 pipeline vs oracle x100", ok and elapsed < 60.0,
            f"{optimal} optimal, {elapsed:.1f}s")


def test_criterion_6_scaling_round_trip():
    assert _PIPELINE_RUNS, "criterion 5 must run first"
    ok = True
    for inst, res, report in _PIPELINE_RUNS:
        z = [res.x[j] * (1 if j < inst.z else report.scale)
             for j in range(inst.z + inst.q)]
        x = recover([v for v in z], report.scale, inst)  # raises if infeasible
        ok &= x == res.x
        original = sum(Fraction(c) * v for c, v in zip(inst.c, res.x))
        ok &= report.scaled_objective == report.scale * original
    _report("6 scaling round trip", ok, f"{len(_PIPELINE_RUNS)} optimal runs")


def test_criterion_7_reduction_feasibility():
    rng = random.Random(40499)
    ok = True
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 3)
        a = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)], cols=n)
        lower = tuple(rng.randint(-1, 0) for _ in range(n))
        upper = tuple(l + rng.randint(0, 2) for l in lower)
        b = tuple(rng.randint(-2, 2) for _ in range(m))
        ilp = pure_ilp(a, b, (0,) * n, lower, upper)
        direct = ilp_solve(ilp)
        via_reduction = milp_oracle(reduce_ilp_to_milp(ilp))
        ok &= (direct.status == "optimal") == (via_reduction.status == "optimal")
        if not ok:
            break
    _report("7 reduction feasibility x50", ok)


def test_criterion_8_nonlinear_counterexamples():
    ok = True
    for n in range(2, 7):
        spec = FamilySpec("lemma5_p1", n=n)
        desc = generate(spec)
        uniform = tuple(Fraction(1, n) for _ in range(n))
        ok &= sum(uniform, Fraction(0)) == 1
        ok &= desc.objective_value(uniform) == Fraction(1, n)
        ok &= verify_family(spec).ok
    for k in range(2, 11):
        spec = FamilySpec("lemma5_p2", k=k)
        desc = generate(spec)
        ok &= desc.objective_value((Fraction(1, k),)) == 0
        ok &= verify_family(spec).ok
    spec = FamilySpec("lemma5_p3")
    report = verify_family(spec)
    ok &= report.ok
    _report("8 nonlinear objective families", ok)


def test_criterion_9_treedepth_exact_values():
    ok = True
    for k in range(1, 7):
        g = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
        f = td_compute(g, "exact")
        ok &= validate_td(g, f)
        ok &= td_stats(f).height == k == treedepth_by_subset_dp(g)
    star = Graph(6, [(0, i) for i in range(1, 6)])
    f = td_compute(star, "exact")
    ok &= validate_td(star, f) and td_stats(f).height == 2
    ok &= treedepth_by_subset_dp(star) == 2
    for n in range(1, 16):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        f = td_compute(g, "exact")
        height = td_stats(f).height
        ok &= validate_td(g, f)
        ok &= height == math.ceil(math.log2(n + 1))
        ok &= height == treedepth_by_subset_dp(g)
    _report("9 treedepth exact search", ok)


def test_criterion_10_byte_identical_machine_output():
    import contextlib
    import io
    import sys

    def run(args, stdin=""):
        buf = io.StringIO()
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(args)
        finally:
            sys.stdin = old
        return code, buf.getvalue().encode()

    instance = ("MILP v1\nvars 3\nints 0\nobj 1 1 1\nrow 1 2 2 = 3\n"
                "lb 0 0 0\nub 2 2 2\n")
    ilp_text = "MILP v1\nvars 2\nints 0 1\nobj 1 1\nrow 1 1 = 2\nlb 0 0\nub 2 2\n"
    matrix_text = "2 -1 0\n0 2 -1\n0 0 2\n"
    commands = [
        (["analyze", "--format", "machine"], instance),
        (["bound", "--format", "machine"], instance),
        (["solve", "--format", "machine"], instance),
        (["oracle", "--format", "machine"], instance),
        (["invert", "--format", "machine"], matrix_text),
        (["gen", "random_td", "--n", "7", "--t", "3", "--k", "6", "--seed", "5",
          "--magnitude", "2", "--format", "machine"], ""),
        (["reduce", "--format", "machine"], ilp_text),
        (["verify", "lemma5_p1", "--n", "4", "--seed", "3", "--format", "machine"], ""),
    ]
    ok = True
    for args, stdin in commands:
        first = run(args, stdin)
        second = run(args, stdin)
        ok &= first == second
        if not ok:
            break
    _report("10 determinism across commands", ok, f"{len(commands)} commands")
