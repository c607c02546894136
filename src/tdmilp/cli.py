"""Command line front end.

Exit codes: 0 success, 1 infeasible, 2 usage or parse error (a singular or
malformed matrix included), 3 a cap was exceeded, 4 internal
invariant violation (a simplex failure such as its pivot cap, an optimum
with a continuous value off the grid of its certified scale, and a
recovered solution that fails its check included).
"""

from __future__ import annotations

import argparse
import sys

from .blocks import structure_trace
from .fileformat import ParseError, ParsedInstance, parse_instance, serialize_instance
from .fracbound import CapExceededError as CertCapError
from .fracbound import frac_bound, structured_inverse
from .families import (DESCRIPTOR_FAMILIES, MATRIX_FAMILIES, FamilySpec, generate,
                       reduce_ilp_to_milp, verify_family)
from .integralize import FeasibilityError
from .linalg import LinalgError, fractionality, mat_inverse, parse_matrix
from .simplex import SolverError
from .solver import PipelineOptions, choose_side, milp_oracle, milp_solve
from .structure import CapExceededError, StructureError, decomposition_for_matrix

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _print_result(parsed: ParsedInstance, res) -> None:
    """status, then for an optimum each x<i> in file order and the objective."""
    print(f"status={res.status}")
    if res.status == "optimal":
        for i, v in enumerate(parsed.solution_in_file_order(res.x)):
            print(f"x{i}={v}")
        print(f"objective={res.objective}")


def _cmd_analyze(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    matrix = parsed.instance.matrix
    _, fs, stats = choose_side(matrix, "auto")
    for side, st in stats.items():
        print(st.machine_line(side))
    print("block_structure:")
    print(structure_trace(matrix, fs["primal"]))
    return EXIT_OK


def _cmd_bound(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    matrix = parsed.instance.matrix
    side, fs, stats = choose_side(matrix, args.side)
    cert = frac_bound(matrix, fs[side], side)
    print(f"side={side}")
    print(f"bound={cert.bound}")
    print(f"log2={cert.log2_bound:.6g}")
    print(stats[side].machine_line(side))
    for node in cert.trace:
        for line in node.render().splitlines():
            print(f"trace={line.strip()}" if args.format == "machine" else line)
    return EXIT_OK


def _cmd_solve(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    res, report = milp_solve(parsed.instance, PipelineOptions(side=args.side))
    _print_result(parsed, res)
    for line in report.machine_lines():
        print(line)
    return EXIT_OK if res.status == "optimal" else EXIT_INFEASIBLE


def _cmd_oracle(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    res = milp_oracle(parsed.instance)
    _print_result(parsed, res)
    return EXIT_OK if res.status == "optimal" else EXIT_INFEASIBLE


def _cmd_invert(args) -> int:
    matrix = parse_matrix(_read_input(args.path))
    f = decomposition_for_matrix(matrix, "primal")
    inv, _ = structured_inverse(matrix, f)
    if inv != mat_inverse(matrix):
        print("status=mismatch")
        return EXIT_INVARIANT
    print("status=ok")
    print(f"fr={fractionality(inv)}")
    if args.format == "text":
        print(inv.to_text())
    return EXIT_OK


def _spec_from_args(args) -> FamilySpec:
    return FamilySpec(family=args.family, n=args.n, t=args.t, k=args.k,
                      seed=args.seed, magnitude=args.magnitude)


def _cmd_gen(args) -> int:
    print(generate(_spec_from_args(args)).to_text())
    return EXIT_OK


def _cmd_reduce(args) -> int:
    reduced = reduce_ilp_to_milp(parse_instance(_read_input(args.path)).instance)
    out = ParsedInstance(instance=reduced, to_original=tuple(range(reduced.z + reduced.q)))
    sys.stdout.write(serialize_instance(out))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_family(_spec_from_args(args))
    print(report.to_text())
    return EXIT_OK if report.ok else EXIT_INVARIANT


# the optional flags and, per command, the ones it reads; an unread flag is
# a usage error
_FLAGS = {
    "side": (("--side",), dict(choices=("primal", "dual", "auto"), default="auto")),
    "seed": (("--seed",), dict(type=int, default=None)),
}

_COMMANDS = (
    ("analyze", _cmd_analyze, ()),
    ("bound", _cmd_bound, ("side",)),
    ("solve", _cmd_solve, ("side",)),
    ("oracle", _cmd_oracle, ()),
    ("invert", _cmd_invert, ()),
    ("reduce", _cmd_reduce, ()),
    ("gen", _cmd_gen, ("seed",)),
    ("verify", _cmd_verify, ("seed",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tdmilp",
                                     description="Exact MILP solving for small-treedepth matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in _COMMANDS:
        p = sub.add_parser(name)
        if name in ("gen", "verify"):
            p.add_argument("family", choices=MATRIX_FAMILIES + DESCRIPTOR_FAMILIES)
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--t", type=int, default=None)
            p.add_argument("--k", type=int, default=None)
            p.add_argument("--magnitude", type=int, default=1)
        else:
            p.add_argument("path", nargs="?", default="-",
                           help="input file ('-' or omitted for stdin)")
        for flag in flags:
            names, kwargs = _FLAGS[flag]
            p.add_argument(*names, **kwargs)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.set_defaults(func=fn)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, LinalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertCapError as exc:
        print(f"cap exceeded: log2 estimate {exc.log2_estimate:.6g}", file=sys.stderr)
        print(f"log2_estimate={exc.log2_estimate:.6g}")
        return EXIT_CAP
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (StructureError, SolverError, FeasibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
