import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcover.errors import InvariantError, LPInfeasibleError, LPUnboundedError
from domcover.simplex import _check_certificate, _Tableau, solve_lp_max


def test_textbook_maximization():
    # max x + y st x <= 2, y <= 3
    value, x, y = solve_lp_max([1, 1], [[1, 0], [0, 1]], [2, 3])
    assert value == 5 and x == [2, 3]
    assert y == [1, 1]


def test_phase_one_covering():
    # min x0 + x1 st x0 + x1 >= 1, x1 >= 1/2  (negated to <= form)
    value, x, y = solve_lp_max(
        [-1, -1], [[-1, -1], [0, -1]], [-1, Fraction(-1, 2)]
    )
    assert -value == 1
    assert x[0] + x[1] == 1 and x[1] >= Fraction(1, 2)
    # the dual, min -y0 - y1/2 st y0 <= 1, y0 + y1 <= 1, has the unique optimum (1, 0)
    assert y == [1, 0]


def test_degenerate_redundant_constraints():
    value, x, _ = solve_lp_max(
        [-1], [[-1], [-1], [-2]], [-1, -1, -2]
    )
    assert -value == 1 and x == [1]


def test_infeasible():
    with pytest.raises(LPInfeasibleError):
        solve_lp_max([1], [[1], [-1]], [1, -3])  # x <= 1 and x >= 3


def test_unbounded():
    with pytest.raises(LPUnboundedError):
        solve_lp_max([1, 0], [[0, 1]], [1])


def test_certificate_check_rejects_every_broken_part():
    # max x st x <= 1: the optimum is x = 1 with dual y = 1, value 1, den 1
    _check_certificate([1], [[1]], [1], [1], [1], 1, 1)
    for X, Y, V, broken in (
        ([2], [1], 1, "primal constraint 0"),
        ([1], [-1], 1, "negative variable"),
        ([1], [0], 1, "dual constraint 0"),
        ([1], [1], 2, "strong duality"),
    ):
        with pytest.raises(InvariantError, match=broken):
            _check_certificate([1], [[1]], [1], X, Y, V, 1)
    # max x + y st 2x + y <= 2, x + 3y <= 3: x = (3, 4)/5, y = (2, 1)/5, value 7/5
    c, A, b = [1, 1], [[2, 1], [1, 3]], [2, 3]
    _check_certificate(c, A, b, [3, 4], [2, 1], 7, 5)
    with pytest.raises(InvariantError, match="primal constraint 0"):
        _check_certificate(c, A, b, [3, 4], [2, 1], 7, 4)
    with pytest.raises(InvariantError, match="dual constraint 1"):
        _check_certificate(c, A, b, [3, 4], [3, 0], 7, 5)


def test_certificate_check_survives_optimize_flag(run_python):
    script = """
from domcover.errors import InvariantError
from domcover.simplex import _check_certificate
assert False, "this line only runs without -O"
try:
    _check_certificate([1], [[1]], [1], [1], [1], 2, 1)
except InvariantError as exc:
    print("InvariantError:", exc)
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError:")


@pytest.mark.parametrize("c,A,b", [
    ([1], [[1, 2]], [2]),      # a row longer than c
    ([1, 1], [[1]], [2]),      # a row shorter than c
    ([1], [[1], [1]], [2]),    # more rows than b
    ([1], [[1]], [2, 3]),      # more b than rows
])
def test_mis_sized_input_is_rejected(c, A, b):
    with pytest.raises(ValueError, match="rows of len"):
        solve_lp_max(c, A, b)


def _full_pivot(rows, den, r, j):
    """Fraction-free pivot on the full tableau (every column kept); returns
    the new den.  The last row is the objective row, never the pivot row."""
    prow, piv = rows[r], rows[r][j]
    if piv < 0:
        rows[r] = prow = [-v for v in prow]
        piv = -piv
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = [(piv * a - row[j] * p) // den for a, p in zip(row, prow)]
    return piv


def test_condensed_pivots_match_the_full_tableau():
    # after any pivot sequence, negative pivots included, the condensed rows
    # and objective row are the full tableau's nonbasic columns plus the rhs,
    # and every basic column is den times a unit vector
    rng = random.Random(5)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        full = [A[i] + [int(k == i) for k in range(m)] + [b[i]] for i in range(m)]
        full.append(c + [0] * (m + 1))
        tab = _Tableau([A[i] + [b[i]] for i in range(m)], list(range(n, n + m)), list(range(n)))
        z, den = c + [0], 1
        for _ in range(6):
            r = rng.randrange(m)
            cols = [s for s in range(n) if tab.rows[r][s]]
            if not cols:
                continue
            s = rng.choice(cols)
            den = _full_pivot(full, den, r, tab.labels[s])
            tab.pivot(r, s, z)
            assert tab.den == den
            for row, frow in zip((*tab.rows, z), full):
                assert row == [frow[j] for j in tab.labels] + [frow[-1]]
            for i, bv in enumerate(tab.basis):
                assert [frow[bv] for frow in full] == [den if k == i else 0 for k in range(m + 1)]


def _seeded_lps():
    rng = random.Random(2024)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        lo = rng.choice((-4, 0))

        def entry():
            return Fraction(rng.randint(lo, 4), rng.choice((1, 2, 3, 4, 6)))

        c = [entry() for _ in range(n)]
        A = [[entry() for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-2, 6), rng.choice((1, 2, 3))) for _ in range(m)]
        if rng.random() < 0.4:
            # make row 0 an equality and repeat it: phase 1 then ends with
            # artificials basic at zero on rows that other rows imply
            A += [[-v for v in A[0]], [2 * v for v in A[0]]]
            b += [-b[0], 2 * b[0]]
        yield c, A, b


def _outcome(lp):
    try:
        value, x, y = solve_lp_max(*lp)
    except LPInfeasibleError:
        return "infeasible"
    except LPUnboundedError:
        return "unbounded"
    return [str(value), [str(v) for v in x], [str(v) for v in y]]


def test_seeded_lp_outcomes_are_pinned():
    # sha256 of every (value, x, y) or outcome name: a change of Bland pivot
    # order shows here as a different optimal vertex or dual
    lps = list(_seeded_lps())
    outcomes = [_outcome(lp) for lp in lps]
    assert sum(any(v < 0 for v in b) for _, _, b in lps) == 127  # phase 1
    assert outcomes.count("infeasible") == 76 and outcomes.count("unbounded") == 34
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "2030d96f35520f4642f5a31feb1ca948357e51f50c6a04fc46d88b7c98cd65bb"


def test_fractional_optimum_is_exact():
    # max x + y st 2x + y <= 2, x + 3y <= 3: optimum at (3/5, 4/5)
    value, x, _ = solve_lp_max([1, 1], [[2, 1], [1, 3]], [2, 3])
    assert value == Fraction(7, 5)
    assert x == [Fraction(3, 5), Fraction(4, 5)]


def test_agrees_with_float_solver_on_random_instances():
    import random

    from scipy.optimize import linprog

    rng = random.Random(17)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        # keep every variable bounded so the LP cannot be unbounded
        A += [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        b = [rng.randint(1, 6) for _ in range(m)] + [rng.randint(1, 6) for _ in range(n)]
        c = [rng.randint(0, 3) for _ in range(n)]
        value, _, _ = solve_lp_max(c, A, b)
        ref = linprog(
            [-v for v in c], A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs"
        )
        assert abs(float(value) + ref.fun) < 1e-7


_ENTRIES = st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6])
)


@st.composite
def small_lps(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    c = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    A = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(_ENTRIES, min_size=m, max_size=m))
    return c, A, b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_lps())
def test_agrees_with_highs_on_mixed_denominators_and_phase_one(lp):
    from scipy.optimize import linprog

    c, A, b = lp
    ref = linprog(
        [-float(v) for v in c],
        A_ub=[[float(v) for v in row] for row in A],
        b_ub=[float(v) for v in b],
        bounds=[(0, None)] * len(c),
        method="highs",
    )
    try:
        value, _, _ = solve_lp_max(c, A, b)
    except LPInfeasibleError:
        assert ref.status == 2
    except LPUnboundedError:
        assert ref.status == 3
    else:
        assert ref.status == 0
        assert abs(float(value) + ref.fun) < 1e-9
