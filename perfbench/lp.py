"""Read an emitted LP text and solve it with HiGHS.

The checker judges ``emit-lp`` output by its meaning: the optimum of the
text, solved here, must equal the instance's optimum times the square of
the scale factor the text records.  Only this module uses floating point,
and only to compare optima.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

SECTIONS = ("Maximize", "Subject To", "Bounds", "End")
_SCALE = re.compile(r"scaled by (\d+)")
_ROW = re.compile(r"^(\S+):\s*(.*?)\s*(<=|>=|=)\s*(\S+)$")


@dataclass
class LinearProgram:
    names: dict  # variable name -> column
    objective: list  # (column, coefficient), maximized
    rows: list  # (terms, sense, rhs)
    bounds: dict  # column -> (lower, upper); default (0, None)
    scale: int  # factor from the "scaled by" comment, 1 when absent


def _column(lp: LinearProgram, name: str) -> int:
    return lp.names.setdefault(name, len(lp.names))


def _terms(lp: LinearProgram, text: str) -> list:
    """Parse "3 a - b + 0.5 c" (a lone "0" is the empty sum)."""
    tokens = text.split()
    if tokens == ["0"]:
        return []
    terms, sign, coeff = [], 1.0, 1.0
    for tok in tokens:
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
            continue
        try:
            coeff = float(tok)
            continue
        except ValueError:
            pass
        terms.append((_column(lp, tok), sign * coeff))
        sign, coeff = 1.0, 1.0
    return terms


def parse_lp(text: str) -> LinearProgram:
    """Parse the LP dialect that ``emit_lp`` writes; raise ValueError."""
    lp = LinearProgram({}, [], [], {}, 1)
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            match = _SCALE.search(line)
            if match:
                lp.scale = int(match.group(1))
            continue
        if line in SECTIONS:
            section = line
            continue
        if section == "Maximize":
            lp.objective = _terms(lp, line.split(":", 1)[1])
        elif section == "Subject To":
            match = _ROW.match(line)
            if match is None:
                raise ValueError(f"bad row: {line!r}")
            _, expr, sense, rhs = match.groups()
            lp.rows.append((_terms(lp, expr), sense, float(rhs)))
        elif section == "Bounds":
            lp.bounds.update(_bound(lp, line.split()))
        else:
            raise ValueError(f"text outside a section: {line!r}")
    if section != "End":
        raise ValueError("missing End")
    return lp


def _bound(lp: LinearProgram, tok: list) -> dict:
    if len(tok) == 2 and tok[1] == "free":
        return {_column(lp, tok[0]): (None, None)}
    if len(tok) == 3 and tok[1] == ">=":
        return {_column(lp, tok[0]): (float(tok[2]), None)}
    if len(tok) == 5 and tok[1] == tok[3] == "<=":
        lower = None if tok[0] == "-inf" else float(tok[0])
        return {_column(lp, tok[2]): (lower, float(tok[4]))}
    raise ValueError(f"bad bound: {' '.join(tok)!r}")


def solve_lp(text: str):
    """(status, optimum, scale): status "optimal", "infeasible" or other."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    lp = parse_lp(text)
    n = len(lp.names)
    c = np.zeros(n)
    for col, coeff in lp.objective:
        c[col] -= coeff  # linprog minimizes

    def matrix(rows):
        data, ri, ci, rhs = [], [], [], []
        for r, (terms, sense, value) in enumerate(rows):
            flip = -1.0 if sense == ">=" else 1.0
            for col, coeff in terms:
                data.append(flip * coeff)
                ri.append(r)
                ci.append(col)
            rhs.append(flip * value)
        if not rows:
            return None, None
        return csr_matrix((data, (ri, ci)), shape=(len(rows), n)), np.array(rhs)

    A_eq, b_eq = matrix([row for row in lp.rows if row[1] == "="])
    A_ub, b_ub = matrix([row for row in lp.rows if row[1] != "="])
    bounds = [lp.bounds.get(col, (0, None)) for col in range(n)]
    result = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                     bounds=bounds, method="highs")
    if result.status == 0:
        return "optimal", -result.fun, lp.scale
    if result.status == 2:
        return "infeasible", None, lp.scale
    return f"status {result.status}: {result.message}", None, lp.scale
