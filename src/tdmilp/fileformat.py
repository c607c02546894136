"""The MILP v1 instance text format.

    MILP v1
    vars 3
    ints 0 2
    obj 1 0 -1
    row 1 2 0 = 5
    lb 0 0 0
    ub 2 2 2

Numbers are integers or p/q rationals; rational coefficients in a row are
cleared by scaling the whole row (rhs included).  Objective and bounds must
be integral.  Every keyword but row appears at most once.  Comment lines
start with '#'.  On write, columns come back in their original order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .integralize import MilpInstance
from .linalg import Matrix, clear_denominators, rational


class ParseError(Exception):
    """Malformed instance text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ParsedInstance:
    """An instance plus the mapping back to the file's variable order.

    instance columns are (integers, continuous); to_original[j] is the file
    index of instance column j.
    """

    instance: MilpInstance
    to_original: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.to_original)

    def solution_in_file_order(self, x) -> list[Fraction]:
        out: list[Fraction] = [Fraction(0)] * self.n
        for j, orig in enumerate(self.to_original):
            out[orig] = x[j]
        return out


def _ints(tokens: list[str], line_no: int, what: str) -> list[int]:
    values = []
    for tok in tokens:
        v = _num(tok, line_no)
        if v.denominator != 1:
            raise ParseError(f"{what} must be integral, got {tok}", line_no)
        values.append(int(v))
    return values


def _num(token: str, line_no: int) -> int | Fraction:
    try:
        return rational(token)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def parse_instance(text: str) -> ParsedInstance:
    """Parse the MILP v1 text form."""
    # ints, obj, lb, ub and every row keep their line number for the checks
    # after the loop, which wait for vars (it may come last)
    n = None
    ints: list[int] = []
    ints_line = 0
    obj = None
    lb = None
    ub = None
    rows: list[tuple[list[int], int, int]] = []
    seen: set[str] = set()  # every keyword but row may appear once
    saw_header = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != "MILP v1":
                raise ParseError("expected header 'MILP v1'", line_no)
            saw_header = True
            continue
        key, *rest = line.split()
        if key in seen and key != "row":
            raise ParseError(f"second {key} line", line_no)
        seen.add(key)
        if key == "vars":
            if len(rest) != 1:
                raise ParseError("vars takes one count", line_no)
            n = _ints(rest, line_no, "vars")[0]
            if n < 1:
                raise ParseError("vars must be positive", line_no)
        elif key == "ints":
            ints, ints_line = _ints(rest, line_no, "ints"), line_no
        elif key == "obj":
            obj = (_ints(rest, line_no, "objective"), line_no)
        elif key == "lb":
            lb = (_ints(rest, line_no, "lower bound"), line_no)
        elif key == "ub":
            ub = (_ints(rest, line_no, "upper bound"), line_no)
        elif key == "row":
            if "=" not in rest:
                raise ParseError("row needs '= rhs'", line_no)
            eq = rest.index("=")
            coeffs = [_num(t, line_no) for t in rest[:eq]]
            rhs_part = rest[eq + 1:]
            if len(rhs_part) != 1:
                raise ParseError("row needs exactly one rhs", line_no)
            row, _ = clear_denominators(coeffs + [_num(rhs_part[0], line_no)])
            rows.append((row[:-1], row[-1], line_no))
        elif key == "ineq":
            raise ParseError("inequality rows are reserved and not supported in v1", line_no)
        else:
            raise ParseError(f"unknown keyword {key!r}", line_no)

    if not saw_header:
        raise ParseError("missing header", 1)
    if n is None:
        raise ParseError("missing vars line", 1)
    if obj is None:
        raise ParseError("missing obj line", 1)
    if lb is None or ub is None:
        raise ParseError("missing lb/ub line", 1)

    for name, (vec, ln) in (("obj", obj), ("lb", lb), ("ub", ub)):
        if len(vec) != n:
            raise ParseError(f"{name} needs {n} entries, got {len(vec)}", ln)
    for j, (lo, up) in enumerate(zip(lb[0], ub[0])):
        if lo > up:
            raise ParseError(f"lower bound {lo} exceeds upper bound {up} of variable {j}",
                             ub[1])
    for idx in ints:
        if not (0 <= idx < n):
            raise ParseError(f"integer index {idx} out of range", ints_line)
    if len(set(ints)) != len(ints):
        raise ParseError("duplicate integer indices", ints_line)
    for coeffs, _, ln in rows:
        if len(coeffs) != n:
            raise ParseError(f"row needs {n} coefficients, got {len(coeffs)}", ln)

    int_cols = sorted(ints)
    int_set = set(ints)
    cont_cols = [j for j in range(n) if j not in int_set]
    order = int_cols + cont_cols
    a_int = Matrix([[r[0][j] for j in int_cols] for r in rows], cols=len(int_cols))
    a_frac = Matrix([[r[0][j] for j in cont_cols] for r in rows], cols=len(cont_cols))
    b = tuple(r[1] for r in rows)
    perm = lambda vec: tuple(vec[j] for j in order)  # noqa: E731
    inst = MilpInstance(a_int=a_int, a_frac=a_frac, b=b, c=perm(obj[0]),
                        lower=perm(lb[0]), upper=perm(ub[0]))
    return ParsedInstance(instance=inst, to_original=tuple(order))


def serialize_instance(parsed: ParsedInstance) -> str:
    """Canonical text form, columns restored to original order."""
    inst = parsed.instance
    n = parsed.n
    back = [0] * n  # back[orig] = instance column
    for j, orig in enumerate(parsed.to_original):
        back[orig] = j
    ints = sorted(parsed.to_original[:inst.z])
    matrix = inst.matrix
    lines = ["MILP v1", f"vars {n}"]
    lines.append(("ints " + " ".join(str(i) for i in ints)).rstrip())
    lines.append("obj " + " ".join(str(inst.c[back[o]]) for o in range(n)))
    for i in range(inst.rows):
        coeffs = " ".join(str(matrix[i, back[o]]) for o in range(n))
        lines.append(f"row {coeffs} = {inst.b[i]}")
    lines.append("lb " + " ".join(str(inst.lower[back[o]]) for o in range(n)))
    lines.append("ub " + " ".join(str(inst.upper[back[o]]) for o in range(n)))
    return "\n".join(lines) + "\n"
