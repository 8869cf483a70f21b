"""Exact rational simplex with Bland's anti-cycling rule.

Solves  max c.x  subject to  A x <= b,  x >= 0  over exact rationals
(gmpy2.mpq when available, fractions.Fraction otherwise), two-phase when
some right-hand side is negative.  Small and dense on purpose: the
instances here have at most a few dozen rows.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LPInfeasibleError, LPUnboundedError, invariant

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

_ZERO = _Q(0)
_ONE = _Q(1)


def to_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


class _Tableau:
    def __init__(self, rows, basis, ncols):
        self.rows = rows            # each row: ncols coeffs + rhs appended
        self.basis = basis          # basic variable index per row
        self.ncols = ncols

    def pivot(self, r, j):
        rows = self.rows
        prow = rows[r]
        piv = prow[j]
        inv = _ONE / piv
        rows[r] = prow = [v * inv for v in prow]
        for i, row in enumerate(rows):
            if i != r and row[j]:
                f = row[j]
                rows[i] = [a - f * p for a, p in zip(row, prow)]
        self.basis[r] = j

    def run(self, cost, allowed):
        """Maximize, Bland's rule: returns objective row (reduced costs + value)."""
        ncols = self.ncols
        z = list(cost) + [_ZERO]
        for r, bv in enumerate(self.basis):
            if z[bv]:
                f = z[bv]
                z = [a - f * p for a, p in zip(z, self.rows[r])]
        while True:
            enter = -1
            for j in range(ncols):
                if allowed[j] and z[j] > _ZERO:
                    enter = j
                    break
            if enter < 0:
                return z
            leave, best = -1, None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > _ZERO:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        leave, best = i, ratio
            if leave < 0:
                raise LPUnboundedError("objective unbounded above")
            self.pivot(leave, enter)
            f = z[enter]
            if f:
                z = [a - f * p for a, p in zip(z, self.rows[leave])]


def solve_lp_max(c, A, b):
    """Maximize c.x st A x <= b, x >= 0; returns (value, x, y) exactly.

    x is the optimal primal point, y the optimal dual point (one entry
    per constraint); both returned as Fractions, feasibility and strong
    duality verified before returning.
    """
    m, n = len(A), len(c)
    c = [_Q(v) for v in c]
    A = [[_Q(v) for v in row] for row in A]
    b = [_Q(v) for v in b]

    nart = sum(1 for v in b if v < _ZERO)
    ncols = n + m + nart
    rows, basis = [], []
    art = n + m
    for i in range(m):
        row = [_ZERO] * (ncols + 1)
        neg = b[i] < _ZERO
        sgn = -_ONE if neg else _ONE
        for j in range(n):
            if A[i][j]:
                row[j] = sgn * A[i][j]
        row[n + i] = sgn
        row[-1] = sgn * b[i]
        if neg:
            row[art] = _ONE
            basis.append(art)
            art += 1
        else:
            basis.append(n + i)
        rows.append(row)

    tab = _Tableau(rows, basis, ncols)

    if nart:
        allowed = [True] * ncols
        w = [_ZERO] * ncols
        for j in range(n + m, ncols):
            w[j] = -_ONE
        zrow = tab.run(w, allowed)
        if zrow[-1] != _ZERO:
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
    z = tab.run(c + [_ZERO] * (ncols - n), allowed)

    x = [_ZERO] * n
    for r, bv in enumerate(tab.basis):
        if bv < n:
            x[bv] = tab.rows[r][-1]
    y = [-z[n + i] for i in range(m)]
    value = -z[-1]  # the value slot holds minus the objective

    _check_certificate(c, A, b, x, y, value)
    return (
        to_fraction(value),
        [to_fraction(v) for v in x],
        [to_fraction(v) for v in y],
    )


def _check_certificate(c, A, b, x, y, value):
    n = len(c)
    for i, row in enumerate(A):
        lhs = sum((row[j] * x[j] for j in range(n) if row[j]), _ZERO)
        invariant(lhs <= b[i], f"primal constraint {i} violated")
    invariant(
        all(v >= _ZERO for v in x) and all(v >= _ZERO for v in y),
        "negative variable in solution",
    )
    for j in range(n):
        col = sum((A[i][j] * y[i] for i in range(len(A)) if A[i][j]), _ZERO)
        invariant(col >= c[j], f"dual constraint {j} violated")
    primal = sum((c[j] * x[j] for j in range(n) if c[j]), _ZERO)
    dual = sum((b[i] * y[i] for i in range(len(A)) if b[i]), _ZERO)
    invariant(primal == dual == value, "strong duality check failed")
