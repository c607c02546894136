"""Command line front end.

Exit codes: 0 success, 1 infeasible, 2 usage or parse error (a singular or
malformed matrix included), 3 a configured cap was exceeded, 4 internal
invariant violation (a simplex failure such as its pivot cap, a branch on a
continuous column under a certified scale, and a recovered solution that
fails its check included).
"""

from __future__ import annotations

import argparse
import sys

from .blocks import structure_trace
from .fileformat import ParseError, ParsedInstance, parse_instance, serialize_instance
from .fracbound import CapExceededError as CertCapError
from .fracbound import frac_bound, structured_inverse
from .families import (DESCRIPTOR_FAMILIES, MATRIX_FAMILIES, FamilySpec,
                       MipDescriptor, generate, verify_family)
from .integralize import FeasibilityError, IlpInstance
from .linalg import LinalgError, Matrix, fractionality, mat_inverse, parse_matrix
from .simplex import SolverError
from .solver import PipelineOptions, choose_side, milp_oracle, milp_solve
from .structure import (CapExceededError, StructureError,
                        decomposition_for_matrix, td_stats)

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


def _format_x(parsed: ParsedInstance, x) -> list[str]:
    ordered = parsed.solution_in_file_order(x)
    return [f"x{i}={v}" for i, v in enumerate(ordered)]


def _options(args) -> PipelineOptions:
    return PipelineOptions(side=args.side, scale_override=args.scale,
                           exact_td_cap=args.exact_td_cap, bit_cap=args.bit_cap)


def _cmd_analyze(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    matrix = parsed.instance.matrix
    _, fs = choose_side(matrix, "auto", args.exact_td_cap)
    print(td_stats(fs["primal"]).machine_line("primal"))
    print(td_stats(fs["dual"]).machine_line("dual"))
    print("block_structure:")
    print(structure_trace(matrix, fs["primal"]))
    return EXIT_OK


def _cmd_bound(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    matrix = parsed.instance.matrix
    side, fs = choose_side(matrix, args.side, args.exact_td_cap)
    cert = frac_bound(matrix, fs[side], side, bit_cap=args.bit_cap)
    print(f"side={cert.side}")
    print(f"bound={cert.bound}")
    print(f"log2={cert.log2_bound:.6g}")
    print(cert.stats.machine_line(cert.side))
    for node in cert.trace:
        for line in node.render().splitlines():
            print(f"trace={line.strip()}" if args.format == "machine" else line)
    return EXIT_OK


def _cmd_solve(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    res, report = milp_solve(parsed.instance, _options(args))
    print(f"status={res.status}")
    if res.status == "optimal":
        for line in _format_x(parsed, res.x):
            print(line)
        print(f"objective={res.objective}")
    for line in report.machine_lines():
        print(line)
    return EXIT_OK if res.status == "optimal" else EXIT_INFEASIBLE


def _cmd_oracle(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    res = milp_oracle(parsed.instance)
    print(f"status={res.status}")
    if res.status == "optimal":
        for line in _format_x(parsed, res.x):
            print(line)
        print(f"objective={res.objective}")
        return EXIT_OK
    return EXIT_INFEASIBLE


def _cmd_invert(args) -> int:
    matrix = parse_matrix(_read_input(args.path))
    f = decomposition_for_matrix(matrix, "primal", "auto", args.exact_td_cap)
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


def _print_generated(gen, fmt: str) -> None:
    if isinstance(gen, Matrix):
        print(gen.to_text())
        return
    assert isinstance(gen, MipDescriptor)
    print("MIP descriptor")
    print(f"dimension={gen.dimension}")
    kind = gen.objective[0]
    extra = "" if len(gen.objective) == 1 else "," + ",".join(str(v) for v in gen.objective[1:]) \
        .replace(" ", "").replace("(", "").replace(")", "")
    print(f"objective={kind}{extra}")
    if gen.constraint is not None:
        for i in range(gen.constraint.rows):
            coeffs = " ".join(str(v) for v in gen.constraint.row(i))
            print(f"row {coeffs} = {gen.rhs[i]}")
    if gen.lower is not None:
        print("lb " + " ".join(str(v) for v in gen.lower))
        print("ub " + " ".join(str(v) for v in gen.upper))


def _cmd_gen(args) -> int:
    gen = generate(_spec_from_args(args))
    _print_generated(gen, args.format)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    parsed = parse_instance(_read_input(args.path))
    inst = parsed.instance
    if inst.q != 0:
        raise ParseError("reduce expects a pure ILP (no continuous variables)", 1)
    ilp = IlpInstance(a_int=inst.a_int, a_frac=inst.a_frac, b=inst.b, c=inst.c,
                      lower=inst.lower, upper=inst.upper)
    from .families import reduce_ilp_to_milp
    reduced = reduce_ilp_to_milp(ilp)
    out = ParsedInstance(instance=reduced, to_original=tuple(range(2 * ilp.z)))
    sys.stdout.write(serialize_instance(out))
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    gen = generate(spec)
    report = verify_family(spec, gen, seed=args.seed or 0)
    print(report.to_text())
    return EXIT_OK if report.ok else EXIT_INVARIANT


# the optional flags and, per command, the ones it reads; an unread flag is
# a usage error
_FLAGS = {
    "side": (("--side",), dict(choices=("primal", "dual", "auto"), default="auto")),
    "scale": (("--scale",), dict(type=int, default=None,
                                 help="override the integralization scale")),
    "exact_td_cap": (("--exact-td-cap",), dict(type=int, default=16, dest="exact_td_cap")),
    "bit_cap": (("--bit-cap",), dict(type=int, default=10 ** 6, dest="bit_cap")),
    "seed": (("--seed",), dict(type=int, default=None)),
}

_COMMANDS = (
    ("analyze", _cmd_analyze, ("exact_td_cap",)),
    ("bound", _cmd_bound, ("side", "exact_td_cap", "bit_cap")),
    ("solve", _cmd_solve, ("side", "scale", "exact_td_cap", "bit_cap")),
    ("oracle", _cmd_oracle, ()),
    ("invert", _cmd_invert, ("exact_td_cap",)),
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, LinalgError) as exc:
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
