"""Closed-loop benchmark of the tdmilp library.

    python3 perfbench/run.py --workload mixed_bnb --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  One process, one client, no threads: each op starts when the
previous one has ended, visiting the run's inputs in an order fixed by the
seed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public functions in spans and reports the per-layer metrics.
End-to-end times are corrected for the speed of a shared host (see
``hostspeed``); per-layer times are wall seconds.
Outputs are checked outside the timed region; a wrong answer names its
instance on stderr and makes the exit code 1.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from dataclasses import dataclass
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
import verdicts as verdict_file  # noqa: E402
import workloads  # noqa: E402
from workloads import Milp, Square, Workload  # noqa: E402

WARMUP_OPS = 3
SETUP_REPEATS = 5
GOOD = ("ok", "infeasible")
FAILED = ("capped", "error", "wrong")


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def import_tdmilp():
    """Import the library from this checkout's ``src``, afresh each call."""
    src = ROOT / "src"
    if not (src / "tdmilp" / "__init__.py").is_file():
        raise SetupError(f"no tdmilp sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "tdmilp" or n.startswith("tdmilp.")]:
        del sys.modules[name]
    lib = importlib.import_module("tdmilp")
    if Path(lib.__file__).resolve().parent != (src / "tdmilp").resolve():
        raise SetupError(f"tdmilp imported from {lib.__file__}, not from {src}")
    return lib


# ---------------------------------------------------------------------------
# ops: what one closed-loop request does, mirroring `tdmilp solve|invert`
# ---------------------------------------------------------------------------

def solve_op(lib, text: str) -> list[str]:
    """Parse MILP v1 text, solve with default options, format machine lines."""
    parsed = lib.fileformat.parse_instance(text)
    res, report = lib.solver.milp_solve(parsed.instance)
    lines = [f"status={res.status}"]
    if res.status == "optimal":
        x = parsed.solution_in_file_order(res.x)
        lines += [f"x{i}={v}" for i, v in enumerate(x)]
        lines.append(f"objective={res.objective}")
    return lines + report.machine_lines()


def invert_op(lib, text: str) -> list[str]:
    """Structured inverse cross-checked against the direct one, then fr."""
    matrix = lib.linalg.parse_matrix(text)
    f = lib.structure.decomposition_for_matrix(matrix, "primal", "auto", 16)
    inv, trace = lib.fracbound.structured_inverse(matrix, f)
    direct = lib.linalg.mat_inverse(matrix)
    if inv != direct or trace.replay() != direct:
        return ["status=mismatch"]
    return ["status=ok", f"fr={lib.linalg.fractionality(inv)}",
            *(" ".join(map(str, inv.row(i))) for i in range(inv.rows))]


OPS = {"solve": solve_op, "invert": invert_op}


def attempt(lib, thunk: Callable[[], list[str]]) -> tuple[str, list[str]]:
    """Run one op and classify it as the command line's exit code would.

    ok (exit 0), infeasible (1), capped (3, CapExceededError), error (any
    other exception) or wrong (an invariant the op checks itself failed).
    Correctness against the oracle is judged later, outside the timed region.
    """
    try:
        lines = thunk()
    except lib.structure.CapExceededError as exc:
        return "capped", [f"capped={type(exc).__name__}"]
    except Exception as exc:  # every failure must be counted, never dropped
        return "error", [f"error={type(exc).__name__}"]
    status = lines[0]
    if status in ("status=optimal", "status=ok"):
        return "ok", lines
    if status == "status=infeasible":
        return "infeasible", lines
    return "wrong", lines


class Tally:
    """Op outcomes counted against ops attempted, and what was wrong."""

    def __init__(self):
        self.counts = {k: 0 for k in GOOD + FAILED}
        self.wrong: list[str] = []

    def add(self, outcome: str) -> None:
        self.counts[outcome] += 1

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return sum(self.counts[k] for k in FAILED)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _value(lines: list[str], key: str) -> Fraction:
    return Fraction(next(line for line in lines if line.startswith(key + "="))[len(key) + 1:])


def check_solve(inst: Milp, lines: list[str], verdict: tuple) -> str:
    """Empty when the answer matches the oracle verdict and x checks out."""
    status = lines[0][len("status="):]
    if status != verdict[0]:
        return f"status {status}, oracle says {verdict[0]}"
    if status != "optimal":
        return ""
    n = len(inst.c)
    x = [_value(lines, f"x{j}") for j in range(n)]
    objective = _value(lines, "objective")
    if objective != Fraction(verdict[1]):
        return f"objective differs from the oracle's {verdict[1]}"
    for i, row in enumerate(inst.rows):
        if sum(a * v for a, v in zip(row, x)) != inst.b[i]:
            return f"row {i} of A.x = b violated"
    for j in range(n):
        if not inst.lower[j] <= x[j] <= inst.upper[j]:
            return f"bound on x{j} violated"
    if any(x[j].denominator != 1 for j in inst.ints):
        return "an integer column has a fractional value"
    if sum(c * v for c, v in zip(inst.c, x)) != objective:
        return "c.x differs from the reported objective"
    return ""


def check_invert(inst: Square, lines: list[str]) -> str:
    """Empty when A times the reported inverse is the identity."""
    n = len(inst.rows)
    inv = [[Fraction(v) for v in line.split()] for line in lines[2:]]
    for i in range(n):
        for j in range(n):
            if sum(inst.rows[i][k] * inv[k][j] for k in range(n)) != (i == j):
                return f"A.inv differs from the identity at ({i}, {j})"
    return ""


def check_pass(workload: Workload, verdicts: list, p: Pass, records: list,
               tally: Tally) -> None:
    """Check every op of a pass against the oracle, or A.inv = I, and count
    its outcome in tally: a failed check counts as wrong and is named."""
    for index, _, outcome, lines in records:
        why = ""
        if outcome == "wrong":
            why = "op reported " + lines[0]
        elif outcome in GOOD:
            why = (check_solve(p.inputs[index], lines, verdicts[index]) if workload.kind == "solve"
                   else check_invert(p.inputs[index], lines))
        if why:
            tally.wrong.append(f"pass {p.k} corpus problem {index}: {why}")
            outcome = "wrong"
        tally.add(outcome)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """Pass k: each corpus problem once, as text, in the order to visit."""

    k: int
    inputs: list
    order: list[int]
    texts: list[str]


def make_pass(workload: Workload, problems: list, seed: int, k: int) -> Pass:
    inputs, order = workloads.pass_inputs(workload, problems, seed, k)
    return Pass(k, inputs, order, [inst.text() for inst in inputs])


def setup(workload: Workload, seed: int):
    """Import the library and build the first pass's inputs, SETUP_REPEATS
    times so the median shows; the last import and build are the ones used.

    Returns (library, corpus, first pass, set-up seconds of each repeat,
    corrected for the host's speed).
    """
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe(3)
        t0 = perf_counter()
        lib = import_tdmilp()
        problems = workloads.corpus(workload)
        first = make_pass(workload, problems, seed, 0)
        t = perf_counter() - t0
        speed.probe(3)
        times.append(speed.corrected(t0, t))
    return lib, problems, first, times


def run_pass(lib, op, p: Pass, tracer: Optional[tracing.Tracer] = None,
             speed: Optional[HostSpeed] = None):
    """Closed loop over one pass: each op starts when the previous one ends,
    or when the reference kernel has run, if speed says it is due.

    Returns per-op (corpus index, seconds, outcome, lines), the seconds
    corrected by speed, and their sum.
    """
    speed = speed or HostSpeed()
    timed = []
    for index in p.order:
        text = p.texts[index]
        if speed.due():
            speed.probe()
        t0 = perf_counter()
        if tracer is None:
            outcome, lines = attempt(lib, lambda: op(lib, text))
        else:
            tracer.op = len(timed)
            outcome, lines = attempt(lib, lambda: tracer.call("op", op, lib, text))
        timed.append((index, t0, perf_counter() - t0, outcome, lines))
    speed.probe()
    records = [(index, speed.corrected(t0, t), outcome, lines)
               for index, t0, t, outcome, lines in timed]
    return records, sum(r[1] for r in records)


def warm_up(lib, op, p: Pass) -> None:
    for index in p.order[:WARMUP_OPS]:
        attempt(lib, lambda: op(lib, p.texts[index]))
    for _ in range(3):
        hostspeed.reference_kernel()


def timed_passes(lib, op, workload: Workload, problems: list, seed: int, first: Pass,
                 seconds: float, check: Callable[[Pass, list], None],
                 speed: Optional[HostSpeed] = None):
    """Whole passes until their wall time reaches seconds.

    Whole passes weigh every corpus problem equally.  Later passes' inputs
    are built, and check runs, between passes, outside the measured time;
    only op times are kept, so memory does not grow with the run.  Returns
    the op times and each pass's rate of good ops per second, both corrected
    by speed.
    """
    speed = speed or HostSpeed()
    warm_up(lib, op, first)
    durations, rates = [], []
    wall = 0.0
    p = first
    while not rates or wall < seconds:
        if rates:
            p = make_pass(workload, problems, seed, len(rates))
        t0 = perf_counter()
        records, t = run_pass(lib, op, p, speed=speed)
        wall += perf_counter() - t0
        check(p, records)
        durations += [r[1] for r in records]
        rates.append(sum(r[2] in GOOD for r in records) / t)
    return durations, rates


def end_to_end(durations: list[float], rates: list[float], tally: Tally,
               setups: list[float], rss_kb: int) -> dict:
    """Op latency over every op; throughput from the median pass, so that a
    stall of the machine in one pass moves it little."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(durations), "s"),
        "op_s_p90": (statistics.quantiles(durations, n=10)[8], "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "ok_share": (sum(tally.counts[k] for k in GOOD) / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def traced_passes(lib, op, workload: Workload, problems: list, seed: int, first: Pass,
                  seconds: float, check: Callable[[Pass, list], None]):
    """Pairs of an untraced and a traced pass over the same inputs until
    their wall time reaches seconds; check runs after each pass.  Per-layer
    metrics come from the first traced pass, which is complete, so its
    counts repeat for a given seed.

    Returns the first traced pass's tracer and records, and the untraced and
    traced seconds over all pairs, corrected for the host's speed.
    """
    speed = HostSpeed()
    warm_up(lib, op, first)
    first_traced = None
    untraced = traced = 0.0
    start = perf_counter()
    p = first
    while first_traced is None or perf_counter() - start < seconds:
        if first_traced is not None:
            p = make_pass(workload, problems, seed, p.k + 1)
        records, t = run_pass(lib, op, p, speed=speed)
        untraced += t
        check(p, records)
        tr = tracing.Tracer()
        tr.wrap()
        try:
            records, t = run_pass(lib, op, p, tr, speed)
        finally:
            tr.unwrap()
        traced += t
        check(p, records)
        if first_traced is None:
            first_traced = (tr, records)
    return first_traced, untraced, traced


def per_layer(tr: tracing.Tracer, records: list, untraced: float, traced: float) -> dict:
    """The per-layer metrics of one traced pass.  Times are seconds per op;
    trace.overhead_share is the share of traced time the spans added, over
    every untraced and traced pass of the run."""
    n_ops = len(records)
    total = tr.totals()
    self_t = tr.self_times()

    def inc(name):  # inclusive seconds per op
        return total.get(name, (0.0, 0))[0] / n_ops

    def calls(name):
        return total.get(name, (0.0, 0))[1]

    spans = tr.spans
    lp = [s for s in spans if s.name == "simplex.lp_solve_exact" and s.error is None]
    nodes = sum(s.count for s in spans if s.name == "solver.ilp_solve" and s.error is None)
    bits = sorted(s.count for s in spans if s.name == "integralize.choose_scale" and s.error is None)
    inverses = [s for s in spans if s.name == "linalg.mat_inverse"]
    certs = [s for s in spans if s.name == "fracbound.frac_bound"]
    sources = {k: sum(f"m_source={k}" in r[3] for r in records)
               for k in ("certificate", "empirical", "trivial")}
    op_time = total["op"][0]
    library = {k: v for k, v in self_t.items() if k != "op"}
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    return {
        "simplex.lp_s": (inc("simplex.lp_solve_exact"), "s/op"),
        "simplex.lp_calls": (calls("simplex.lp_solve_exact"), "count"),
        "simplex.pivots": (sum(s.count for s in lp), "count"),
        "simplex.pivots_per_lp": (ratio(sum(s.count for s in lp), len(lp)), "ratio"),
        "simplex.reduce_s": (inc("simplex.reduce_rows"), "s/op"),
        "solver.bnb_nodes": (nodes, "count"),
        "solver.lp_per_node": (ratio(calls("simplex.lp_solve_exact"), nodes), "ratio"),
        "solver.bnb_self_s": (self_t.get("solver.ilp_solve", 0.0) / n_ops, "s/op"),
        "solver.pipeline_self_s": (self_t.get("solver.milp_solve", 0.0) / n_ops, "s/op"),
        "solver.fallback_s": (inc("solver.vertex_enumerate"), "s/op"),
        "solver.fallback_calls": (calls("solver.vertex_enumerate"), "count"),
        "solver.m_source.certificate": (sources["certificate"], "count"),
        "solver.m_source.empirical": (sources["empirical"], "count"),
        "solver.m_source.trivial": (sources["trivial"], "count"),
        "integralize.scale_bits_p50": (statistics.median(bits) if bits else 0, "bits"),
        "integralize.scale_bits_max": (bits[-1] if bits else 0, "bits"),
        "integralize.scale_s": (inc("integralize.choose_scale") + inc("integralize.integralize"),
                                "s/op"),
        "integralize.map_s": (inc("integralize.recover"), "s/op"),
        "linalg.inverse_s": (inc("linalg.mat_inverse"), "s/op"),
        "linalg.inverse_calls": (len(inverses), "count"),
        "linalg.singular_share": (ratio(sum(s.error == "SingularMatrixError" for s in inverses),
                                        len(inverses)), "ratio"),
        "fracbound.cert_s": (inc("fracbound.frac_bound"), "s/op"),
        "fracbound.cert_calls": (len(certs), "count"),
        "fracbound.cert_capped": (sum(s.error == "CapExceededError" for s in certs), "count"),
        "fracbound.cert_used_ratio": (ratio(sources["certificate"], len(certs)), "ratio"),
        "fracbound.sinv_s": (inc("fracbound.structured_inverse"), "s/op"),
        "fracbound.replay_s": (inc("fracbound.replay"), "s/op"),
        "structure.decompose_s": (inc("structure.decomposition_for_matrix"), "s/op"),
        "structure.decompose_calls": (calls("structure.decomposition_for_matrix"), "count"),
        "blocks.primal_decompose_s": (inc("blocks.primal_decompose"), "s/op"),
        "blocks.primal_decompose_calls": (calls("blocks.primal_decompose"), "count"),
        "fileformat.parse_s": (inc("fileformat.parse_instance"), "s/op"),
        "trace.ops": (n_ops, "count"),
        "trace.op_s": (op_time / n_ops, "s/op"),
        "trace.max_self_share": (ratio(max(library.values(), default=0.0), op_time), "ratio"),
        "trace.overhead_share": (1.0 - untraced / traced, "ratio"),
    }


def layer_table(tr: tracing.Tracer) -> list[str]:
    """Inclusive and self share of op time per span name, largest self first."""
    total = tr.totals()
    self_t = tr.self_times()
    op_time = total["op"][0]
    rows = sorted(total, key=lambda k: -self_t[k])
    return [f"  {name:38s} calls {total[name][1]:7d}  incl {total[name][0] / op_time:6.1%}"
            f"  self {self_t[name] / op_time:6.1%}" for name in rows]


def context(workload: Workload, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload.name, "why": workload.why, "kind": workload.kind,
        "corpus": workload.corpus, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "execution": "one process, one client, closed loop, no threads",
    }


def run(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    op = OPS[workload.kind]
    verdicts = verdict_file.load(workload) if workload.kind == "solve" else None
    info = context(workload, args)
    tally = Tally()

    def check(p: Pass, records: list) -> None:
        check_pass(workload, verdicts, p, records, tally)

    lib, problems, first, setups = setup(workload, args.seed)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        (tr, records), untraced, traced = traced_passes(lib, op, workload, problems, args.seed,
                                                        first, args.seconds, check)
        metrics = per_layer(tr, records, untraced, traced)
        print("layer shares of traced op time (first traced pass):")
        print("\n".join(layer_table(tr)))
        with open(OUT / f"{workload.name}-seed{args.seed}-spans.json", "w") as fh:
            json.dump(tr.dump(), fh)
    else:
        speed = HostSpeed()
        durations, rates = timed_passes(lib, op, workload, problems, args.seed, first,
                                        args.seconds, check, speed)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(durations, rates, tally, setups, rss_kb)
        info["passes"] = len(rates)
        info["op_samples"] = len(durations)
        info["op_samples_beyond_p90"] = sum(d > metrics["op_s_p90"][0] for d in durations)
        info["host_slowdown_p50"] = statistics.median(speed.took) / hostspeed.REFERENCE_S
        info["reference_probes"] = len(speed.took)
    info["outcomes"] = tally.counts
    for wrong in tally.wrong:
        print(f"WRONG {workload.name} seed {args.seed} {wrong}", file=sys.stderr)

    result = {"correct": not tally.wrong, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"context": info, **result}, fh, indent=1)
    print("context " + json.dumps(info))
    print(json.dumps(result))
    return 1 if tally.wrong else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (SetupError, verdict_file.VerdictsError) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
