"""Every benchmark corpus problem solves as it did when the pin was recorded.

``perfbench/workloads.py`` is loaded by path and only read, so the problems
are the benchmark's own.  ``corpus_pin.txt`` holds one line per problem that
solves: workload, index and status, for an optimum the objective, x in file
order, the branch-and-bound nodes and the simplex pivots, and for every
solve the scale stage as ``PipelineReport.machine_lines`` writes it:
``m_source``, ``m`` and ``scale``.  A change that moves any of them must
re-record its lines and say why.
"""

import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from tdmilp.fileformat import parse_instance
from tdmilp.solver import milp_solve

_HERE = Path(__file__).resolve().parent
_WORKLOADS = _HERE.parent / "perfbench" / "workloads.py"

# problems whose certificate text overflows Python's int-to-str limit
# (ROADMAP item 1); the overflow fix moves them into the pin
OVERFLOW = {"structured_scale": (5, 39, 41, 62)}
OVERFLOW_MESSAGE = "ValueError: Exceeds the limit (4300 digits)"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _pin() -> dict[str, dict[int, str]]:
    pin: dict[str, dict[int, str]] = defaultdict(dict)
    for line in (_HERE / "corpus_pin.txt").read_text().splitlines():
        name, index, outcome = line.split(" ", 2)
        pin[name][int(index)] = outcome
    return pin


workloads = _workloads()
PIN = _pin()


def _outcome(text: str) -> str:
    parsed = parse_instance(text)
    try:
        res, report = milp_solve(parsed.instance)
    except ValueError as exc:
        return f"ValueError: {exc}"
    scale_stage = " ".join(line for line in report.machine_lines()
                           if line.split("=", 1)[0] in ("m_source", "m", "scale"))
    if res.status != "optimal":
        return f"{res.status} {scale_stage}"
    x = ",".join(map(str, parsed.solution_in_file_order(res.x)))
    return (f"optimal objective={res.objective} x={x} "
            f"ilp_nodes={report.ilp_nodes} pivots={res.stats.pivots} {scale_stage}")


@pytest.mark.parametrize("name", sorted(PIN))
def test_corpus_matches_pin(name):
    problems = workloads.corpus(workloads.WORKLOADS[name])
    overflow = OVERFLOW.get(name, ())
    want = {**PIN[name], **{i: OVERFLOW_MESSAGE for i in overflow}}
    assert len(PIN[name]) + len(overflow) == len(problems)
    assert sorted(want) == list(range(len(problems)))
    wrong = []
    for i, problem in enumerate(problems):
        got = _outcome(problem.text())
        ok = got.startswith(want[i]) if i in overflow else got == want[i]
        if not ok:
            wrong.append(f"{name} problem {i}: got {got!r}, pinned {want[i]!r}")
    assert not wrong, "\n".join(wrong)
