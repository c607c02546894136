"""Oracle verdicts for the solve workloads' corpora, kept in verdicts.json.

``milp_oracle`` enumerates every integer assignment, which costs up to a
second per ``mixed_bnb`` problem, so its verdicts are computed once per
corpus and stored.  A run's inputs are the corpus with rows and columns
permuted and variables negated, which keeps status and optimal objective, so
the stored verdicts hold for every seed.  Regenerate after changing a corpus:

    python3 perfbench/verdicts.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

PATH = Path(__file__).resolve().parent / "verdicts.json"


class VerdictsError(Exception):
    """verdicts.json is missing, unreadable or was made for another corpus."""


def load(workload: workloads.Workload) -> list[tuple[str, str | None]]:
    """(status, optimal objective as p/q) per corpus problem."""
    try:
        with open(PATH, encoding="utf-8") as fh:
            entry = json.load(fh)[workload.name]
    except (OSError, KeyError, ValueError) as exc:
        raise VerdictsError(f"no oracle verdicts for {workload.name} in {PATH}: {exc}") from None
    if entry["digest"] != workloads.digest(workloads.corpus(workload)):
        raise VerdictsError(f"verdicts for {workload.name} are stale; run perfbench/verdicts.py")
    return [tuple(v) for v in entry["verdicts"]]


def compute(lib, workload: workloads.Workload) -> dict:
    problems = workloads.corpus(workload)
    out = []
    for problem in problems:
        res = lib.solver.milp_oracle(lib.fileformat.parse_instance(problem.text()).instance)
        # optimal objectives here are small rationals, far below the
        # int-to-str digit limit
        out.append([res.status, str(res.objective) if res.status == "optimal" else None])
    return {"digest": workloads.digest(problems), "verdicts": out}


def main() -> int:
    from run import import_tdmilp
    lib = import_tdmilp()
    data = {name: compute(lib, w) for name, w in workloads.WORKLOADS.items() if w.kind == "solve"}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
