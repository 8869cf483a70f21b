"""Exact fraction-free simplex with Bland's anti-cycling rule.

Solves  max c.x  subject to  A x <= b,  x >= 0  exactly, two-phase when
some right-hand side is negative.  Rational data is first cleared by one
common denominator L; the tableau then holds Python ints over one common
positive denominator `den`, and each pivot is integer-preserving
(Edmonds 1967, Bareiss 1968): every division is exact and no gcd is
taken.  The pivots are those of the same tableau kept in rationals.
Small and dense on purpose: the instances here have at most a few dozen
rows.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import LPInfeasibleError, LPUnboundedError, invariant


class _Tableau:
    def __init__(self, rows, basis, ncols):
        self.rows = rows            # each row: ncols int coeffs + rhs, over den
        self.basis = basis          # basic variable index per row
        self.ncols = ncols
        self.den = 1                # |det| of the basis matrix, always > 0

    def pivot(self, r, j, z=None):
        """Pivot on (r, j); z, the objective row, is updated in place."""
        rows, den = self.rows, self.den
        prow = rows[r]
        piv = prow[j]
        if piv < 0:
            rows[r] = prow = [-v for v in prow]
            piv = -piv
        # every other row becomes (piv*a - f*p) / den, exact by Sylvester's
        # identity: its entries are minors of the integer input tableau
        for row in rows if z is None else (*rows, z):
            if row is not prow:
                f = row[j]
                if f:
                    row[:] = [(piv * a - f * p) // den for a, p in zip(row, prow)]
                elif piv != den:
                    row[:] = [piv * a // den for a in row]
        self.den = piv
        self.basis[r] = j

    def run(self, cost, allowed):
        """Maximize, Bland's rule: returns the objective row over den.

        Entry j is den times the reduced cost of column j; the last entry
        is den times minus the objective value.
        """
        rows, basis = self.rows, self.basis
        z = [self.den * v for v in cost] + [0]
        for row, bv in zip(rows, basis):
            f = cost[bv]
            if f:
                z = [a - f * p for a, p in zip(z, row)]
        while True:
            enter = next((j for j in range(self.ncols) if allowed[j] and z[j] > 0), -1)
            if enter < 0:
                return z
            # ratio test rhs/a by cross-multiplication; ties to the lowest basis index
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs, rhs = row[-1] * rows[leave][enter], rows[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise LPUnboundedError("objective unbounded above")
            self.pivot(leave, enter, z)


def solve_lp_max(c, A, b):
    """Maximize c.x st A x <= b, x >= 0; returns (value, x, y) exactly.

    x is the optimal primal point, y the optimal dual point (one entry
    per constraint); both returned as Fractions, feasibility and strong
    duality verified before returning.
    """
    m, n = len(A), len(c)
    c = [Fraction(v) for v in c]
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    # scaling every entry by L keeps x and y and multiplies the value by L
    scale = math.lcm(*(v.denominator for row in (c, b, *A) for v in row))

    def scaled(vals):
        return [v.numerator * (scale // v.denominator) for v in vals]

    nart = sum(1 for v in b if v < 0)
    ncols = n + m + nart
    rows, basis = [], []
    art = n + m
    for i, (a_row, rhs) in enumerate(zip(A, scaled(b))):
        sgn = -1 if rhs < 0 else 1
        row = [sgn * v for v in scaled(a_row)] + [0] * (m + nart) + [sgn * rhs]
        row[n + i] = sgn
        if sgn < 0:
            row[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(n + i)
        rows.append(row)

    tab = _Tableau(rows, basis, ncols)

    if nart:
        allowed = [True] * ncols
        w = [0] * (n + m) + [-1] * nart
        zrow = tab.run(w, allowed)
        if zrow[-1] != 0:
            # the value slot holds minus the phase-1 objective, so any
            # nonzero here means some artificial is stuck above zero
            raise LPInfeasibleError("no feasible point")
        # drive residual artificials out of the basis; drop redundant rows
        for r in reversed(range(len(tab.rows))):
            if tab.basis[r] >= n + m:
                piv = next(
                    (j for j in range(n + m) if tab.rows[r][j]), None
                )
                if piv is None:
                    del tab.rows[r]
                    del tab.basis[r]
                else:
                    tab.pivot(r, piv)

    allowed = [j < n + m for j in range(ncols)]
    z = tab.run(scaled(c) + [0] * (ncols - n), allowed)

    den = tab.den
    x = [Fraction(0)] * n
    for r, bv in enumerate(tab.basis):
        if bv < n:
            x[bv] = Fraction(tab.rows[r][-1], den)
    y = [Fraction(-z[n + i], den) for i in range(m)]
    value = Fraction(-z[-1], den * scale)  # the value slot holds minus the objective

    _check_certificate(c, A, b, x, y, value)
    return value, x, y


def _check_certificate(c, A, b, x, y, value):
    n = len(c)
    for i, row in enumerate(A):
        lhs = sum((row[j] * x[j] for j in range(n) if row[j]), Fraction(0))
        invariant(lhs <= b[i], f"primal constraint {i} violated")
    invariant(
        all(v >= 0 for v in x) and all(v >= 0 for v in y),
        "negative variable in solution",
    )
    for j in range(n):
        col = sum((A[i][j] * y[i] for i in range(len(A)) if A[i][j]), Fraction(0))
        invariant(col >= c[j], f"dual constraint {j} violated")
    primal = sum((c[j] * x[j] for j in range(n) if c[j]), Fraction(0))
    dual = sum((b[i] * y[i] for i in range(len(A)) if b[i]), Fraction(0))
    invariant(primal == dual == value, "strong duality check failed")
