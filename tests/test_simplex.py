from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcover.errors import InvariantError, LPInfeasibleError, LPUnboundedError
from domcover.simplex import _check_certificate, solve_lp_max


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
    # max x st x <= 1: the optimum is x = 1 with dual y = 1, value 1
    _check_certificate([1], [[1]], [1], [1], [1], 1)
    for x, y, value in (([2], [1], 1), ([1], [-1], 1), ([1], [0], 1), ([1], [1], 2)):
        with pytest.raises(InvariantError):
            _check_certificate([1], [[1]], [1], x, y, value)


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
