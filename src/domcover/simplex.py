"""Exact fraction-free simplex with Bland's anti-cycling rule.

Solves  max c.x  subject to  A x <= b,  x >= 0  exactly, two-phase when
some right-hand side is negative.  Rational data is first cleared by one
common denominator L; the tableau then holds Python ints over one common
positive denominator `den`, and each pivot is integer-preserving
(Edmonds 1967, Bareiss 1968): every division is exact and no gcd is
taken.  The pivots are those of the same tableau kept in rationals.

The tableau is condensed (Tucker form, as in integer-pivoting codes such
as lrs): it stores one column per nonbasic variable plus the rhs, with
`labels` naming the variable of each column, since a basic column is
only `den` times a unit vector.  The optimum is certified in integers
against the scaled input, not the tableau: the primal and dual numerators
over `den` are nonnegative and feasible, and their objectives agree.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import LPInfeasibleError, LPUnboundedError, invariant


class _Tableau:
    def __init__(self, rows, basis, labels):
        self.rows = rows            # each row: one int per nonbasic column + rhs, over den
        self.basis = basis          # basic variable index per row
        self.labels = labels        # nonbasic variable index per column
        self.den = 1                # |det| of the basis matrix, always > 0

    def pivot(self, r, s, z=None):
        """Pivot on (r, s); z, the objective row, is updated in place."""
        rows, den = self.rows, self.den
        prow = rows[r]
        piv = prow[s]
        sgn = 1
        if piv < 0:
            rows[r] = prow = [-v for v in prow]
            piv, sgn = -piv, -1
        # every other row becomes (piv*a - f*p) / den, exact by Sylvester's
        # identity: its entries are minors of the integer input tableau
        for row in rows if z is None else (*rows, z):
            if row is not prow:
                f = row[s]
                if f:
                    row[:] = [(piv * a - f * p) // den for a, p in zip(row, prow)]
                    row[s] = -sgn * f
                elif piv != den:
                    row[:] = [piv * a // den for a in row]
        # the leaving variable takes over column s: in the full tableau its
        # column was sgn*den at row r and 0 elsewhere before the update
        prow[s] = sgn * den
        self.den = piv
        self.basis[r], self.labels[s] = self.labels[s], self.basis[r]

    def run(self, cost):
        """Maximize, Bland's rule: returns the objective row over den.

        Entry s is den times the reduced cost of column s; the last entry
        is den times minus the objective value.
        """
        rows, basis, labels = self.rows, self.basis, self.labels
        z = [self.den * cost[j] for j in labels] + [0]
        for row, bv in zip(rows, basis):
            f = cost[bv]
            if f:
                z = [a - f * p for a, p in zip(z, row)]
        while True:
            # the lowest-indexed variable with a positive reduced cost enters
            enter = min(
                (s for s in range(len(labels)) if z[s] > 0),
                key=labels.__getitem__,
                default=-1,
            )
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
    duality verified before returning.  Raises ValueError unless A has
    len(b) rows of len(c) entries.
    """
    m, n = len(A), len(c)
    if len(b) != m or any(len(row) != n for row in A):
        raise ValueError(f"A must have len(b) = {len(b)} rows of len(c) = {n} entries")

    def exact(vals):
        return [v if isinstance(v, int) else Fraction(v) for v in vals]

    c, b = exact(c), exact(b)
    A = [exact(row) for row in A]
    # scaling every entry by L keeps x and y and multiplies the value by L
    scale = math.lcm(*(v.denominator for row in (c, b, *A) for v in row))

    def scaled(vals):
        return [v.numerator * (scale // v.denominator) for v in vals]

    cs, bs = scaled(c), scaled(b)
    As = [scaled(row) for row in A]

    # variables: structural 0..n-1, slack n..n+m-1, then one artificial per
    # negative rhs.  A row with a negative rhs is negated and starts with
    # its artificial basic, so its slack is a nonbasic column, -1 in that row
    neg = [i for i, rhs in enumerate(bs) if rhs < 0]
    rows, basis = [], []
    art = n + m
    for i, (a_row, rhs) in enumerate(zip(As, bs)):
        if rhs < 0:
            rows.append([-v for v in a_row] + [-1 if k == i else 0 for k in neg] + [-rhs])
            basis.append(art)
            art += 1
        else:
            rows.append(a_row + [0] * len(neg) + [rhs])
            basis.append(n + i)
    tab = _Tableau(rows, basis, list(range(n)) + [n + i for i in neg])

    if neg:
        zrow = tab.run([0] * (n + m) + [-1] * len(neg))
        if zrow[-1] != 0:
            # the value slot holds minus the phase-1 objective, so any
            # nonzero here means some artificial is stuck above zero
            raise LPInfeasibleError("no feasible point")
        # drive residual artificials out of the basis.  [A I] has full row
        # rank, so each such row has a nonzero structural or slack entry
        for r in reversed(range(m)):
            if tab.basis[r] >= n + m:
                row = tab.rows[r]
                tab.pivot(r, min(
                    (s for s, j in enumerate(tab.labels) if j < n + m and row[s]),
                    key=tab.labels.__getitem__,
                ))
        # nonbasic artificials never re-enter: drop their columns
        keep = [s for s, j in enumerate(tab.labels) if j < n + m] + [-1]
        tab.rows = [[row[s] for s in keep] for row in tab.rows]
        tab.labels = [tab.labels[s] for s in keep[:-1]]

    z = tab.run(cs + [0] * m)

    den = tab.den
    X = [0] * n
    for row, bv in zip(tab.rows, tab.basis):
        if bv < n:
            X[bv] = row[-1]
    Y = [0] * m  # a basic slack has dual 0
    for s, j in enumerate(tab.labels):
        if j >= n:
            Y[j - n] = -z[s]
    V = -z[-1]  # the value slot holds minus the objective

    _check_certificate(cs, As, bs, X, Y, V, den)
    return (
        Fraction(V, den * scale),
        [Fraction(v, den) for v in X],
        [Fraction(v, den) for v in Y],
    )


def _check_certificate(cs, As, bs, X, Y, V, den):
    """Certify x = X/den and y = Y/den optimal for max cs.x st As x <= bs.

    Every quantity is an int: the checks are X, Y >= 0, As.X <= bs*den,
    As^T.Y >= cs*den and cs.X == bs.Y == V, the scaled objective over den.
    """
    invariant(
        den > 0 and all(v >= 0 for v in X) and all(v >= 0 for v in Y),
        "negative variable or denominator in solution",
    )
    xs = [(j, v) for j, v in enumerate(X) if v]
    for i, row in enumerate(As):
        lhs = sum(row[j] * v for j, v in xs)
        invariant(lhs <= bs[i] * den, f"primal constraint {i} violated")
    ys = [(i, v) for i, v in enumerate(Y) if v]
    for j, cj in enumerate(cs):
        col = sum(As[i][j] * v for i, v in ys)
        invariant(col >= cj * den, f"dual constraint {j} violated")
    primal = sum(cs[j] * v for j, v in xs)
    dual = sum(bs[i] * v for i, v in ys)
    invariant(primal == dual == V, "strong duality check failed")
