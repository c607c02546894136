"""Self-tests of the benchmark: failure accounting, determinism, the
correctness gate and big-integer safety.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# counts a later change may cite: they must repeat exactly for a given seed
COUNTS = ("simplex.lp_calls", "simplex.pivots", "solver.bnb_nodes",
          "solver.m_source.certificate", "solver.m_source.empirical",
          "solver.m_source.trivial", "linalg.inverse_calls", "structure.decompose_calls")


@pytest.fixture(scope="module")
def lib():
    return run.import_tdmilp()


def _probe(lib):
    """The nfold t=2 k=6 matrix, all continuous, on which the certificate's
    report overflows Python's int-to-str limit."""
    a = lib.families.generate(lib.FamilySpec("nfold", t=2, k=6, seed=1))
    empty = lib.Matrix([[] for _ in range(a.rows)], cols=0)
    inst = lib.MilpInstance(a_int=empty, a_frac=a, b=(0,) * a.rows, c=(1,) * a.cols,
                            lower=(-1,) * a.cols, upper=(1,) * a.cols)
    return a, inst


def test_roadmap_probe_counts_as_failed(lib):
    a, inst = _probe(lib)
    f = lib.decomposition_for_matrix(a, "primal", "auto", 16)

    def cert():
        lib.frac_bound(a, f, "primal")
        return ["status=ok"]

    def solve():
        res, report = lib.milp_solve(inst, lib.PipelineOptions(side="primal"))
        return [f"status={res.status}"] + report.machine_lines()

    for thunk in (cert, solve):
        tally = run.Tally()
        outcome, lines = run.attempt(lib, thunk)
        tally.add(outcome)
        assert outcome in run.FAILED, lines
        assert (tally.attempted, tally.failed) == (1, 1)


def test_outcomes_mirror_exit_codes(lib):
    def raises(exc):
        def thunk():
            raise exc
        return thunk

    cases = [
        (lambda: ["status=optimal", "objective=0"], "ok"),
        (lambda: ["status=infeasible"], "infeasible"),
        (raises(lib.structure.CapExceededError("cap")), "capped"),
        (raises(lib.fracbound.CapExceededError(12.0)), "capped"),
        (raises(RuntimeError("boom")), "error"),
        (lambda: ["status=mismatch"], "wrong"),
    ]
    tally = run.Tally()
    for thunk, expected in cases:
        outcome, _ = run.attempt(lib, thunk)
        assert outcome == expected
        tally.add(outcome)
    assert tally.attempted == len(cases)
    assert tally.failed == 4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = workloads.WORKLOADS[name]
    problems = workloads.corpus(w)
    first = run.make_pass(w, problems, 7, 0)
    again = run.make_pass(w, problems, 7, 0)
    assert workloads.digest(first.inputs) == workloads.digest(again.inputs)
    assert first.order == again.order
    for other in (run.make_pass(w, problems, 8, 0), run.make_pass(w, problems, 7, 1)):
        assert workloads.digest(first.inputs) != workloads.digest(other.inputs)


def _traced(lib, w, seed):
    p = run.make_pass(w, workloads.corpus(w), seed, 0)
    tr = tracing.Tracer()
    tr.wrap()
    try:
        records, seconds = run.run_pass(lib, run.OPS[w.kind], p, tr)
    finally:
        tr.unwrap()
    return run.per_layer(tr, records, seconds, seconds)


@pytest.mark.parametrize("name,size", [("mixed_small", 60), ("mixed_bnb", 6),
                                       ("structured_scale", 7), ("invert_structured", 3)])
def test_traced_counts_repeat(lib, name, size):
    w = dataclasses.replace(workloads.WORKLOADS[name], corpus=size)
    first = _traced(lib, w, 3)
    again = _traced(lib, w, 3)
    assert {k: first[k] for k in COUNTS} == {k: again[k] for k in COUNTS}
    assert first["structure.decompose_calls"][0] > 0


def test_unwrap_restores_every_binding(lib):
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name == "tdmilp" or name.startswith("tdmilp.")}
    replay = lib.fracbound.StructuredInverseTrace.replay
    tr = tracing.Tracer()
    tr.wrap()
    assert lib.solver.mat_inverse is not before["tdmilp.solver"]["mat_inverse"]
    tr.unwrap()
    for name, attrs in before.items():
        module = vars(sys.modules[name])
        assert all(module[k] is v for k, v in attrs.items() if k in module)
    assert lib.fracbound.StructuredInverseTrace.replay is replay


def test_gate_rejects_wrong_answers(lib):
    w = workloads.WORKLOADS["mixed_bnb"]
    inst = workloads.corpus(w)[0]
    verdict = tuple(json.load(open(Path(run.HERE) / "verdicts.json"))["mixed_bnb"]["verdicts"][0])
    lines = run.solve_op(lib, inst.text())
    assert run.check_solve(inst, lines, verdict) == ""
    assert run.check_solve(inst, lines, ("infeasible", None))
    assert run.check_solve(inst, lines, ("optimal", "1/7"))
    objective = next(line for line in lines if line.startswith("objective="))
    off_by_one = str(run.Fraction(objective.split("=")[1]) + 1)
    bad = [f"objective={off_by_one}" if line == objective else line for line in lines]
    assert run.check_solve(inst, bad, ("optimal", off_by_one))

    square = workloads.corpus(workloads.WORKLOADS["invert_structured"])[0]
    lines = run.invert_op(lib, square.text())
    assert run.check_invert(square, lines) == ""
    tampered = lines[:2] + ["0 " + lines[2].split(" ", 1)[1]] + lines[3:]
    assert run.check_invert(square, tampered)


def test_scale_bits_never_go_through_str(lib):
    scale_arg = 9900  # lcm(1..9900) has more than 4300 decimal digits
    tr = tracing.Tracer()
    scale = tr.call("integralize.choose_scale", lib.choose_scale, scale_arg)
    assert tr.spans[0].count == scale.bit_length() > 4300 * math.log2(10)


def test_benchmark_json_lists_every_metric():
    spec = json.load(open(run.ROOT / "BENCHMARK.json"))
    w = dataclasses.replace(workloads.WORKLOADS["mixed_small"], corpus=5)
    tally = run.Tally()
    fresh, problems, first, setups = run.setup(w, 1)  # imports the library again
    durations, rates = run.timed_passes(fresh, run.solve_op, w, problems, 1, first, 0.0,
                                        lambda p, records: [tally.add(r[2]) for r in records])
    e2e = run.end_to_end(durations, rates, tally, setups, 1024)
    layers = _traced(fresh, w, 1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mixed_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
