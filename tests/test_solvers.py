import hashlib
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcover import simplex
from domcover.core import (
    cyclic_triangle,
    dominates,
    domination_hypergraph,
    hypergraph_from_sets,
    is_enclosure,
    monochromatic,
    rainbow_triangle,
    random_coloring,
    random_tournament,
    tournament_from_bits,
    transitive_tournament,
)
from domcover.errors import InstanceTooLargeError
from domcover.geometry import box_cover, coordinate_tournament, random_point_set
from domcover.paley import is_k_paradoxical, paley_tournament, pt7_transitive_coloring
from domcover.solvers import (
    DominationCertificate,
    NoSetWithinLimit,
    _cover_lower_bound,
    enclosure_via_scramblings,
    exhaustive_min_dominating_set,
    fractional_transversal,
    greedy_dominating_set,
    min_dominating_set,
    min_enclosure_set,
    verify_fractional_transversal,
)


def test_greedy_examples():
    assert greedy_dominating_set(transitive_tournament(6)) == {0}
    assert greedy_dominating_set(transitive_tournament(1)) == {0}
    # C3 greedy: picks 0 (covers 0,1), then 1 is lowest-index cover of 2
    assert greedy_dominating_set(cyclic_triangle()) == {0, 1}


def test_min_dominating_set_c3():
    cert = min_dominating_set(cyclic_triangle())
    assert isinstance(cert, DominationCertificate)
    assert cert.size == 2 and cert.optimal
    assert dominates(cyclic_triangle(), cert.vertices)


def test_min_dominating_set_matches_exhaustive_oracle():
    rng = random.Random(20240209)
    for _ in range(40):
        t = random_tournament(rng.randint(1, 12), rng)
        assert min_dominating_set(t).size == len(exhaustive_min_dominating_set(t))


def test_min_dominating_set_limit_outcome():
    res = min_dominating_set(cyclic_triangle(), limit=1)
    assert isinstance(res, NoSetWithinLimit)
    assert res.limit == 1 and res.lower_bound == 2
    ok = min_dominating_set(cyclic_triangle(), limit=2)
    assert isinstance(ok, DominationCertificate) and ok.size == 2


def test_min_dominating_set_ceiling():
    with pytest.raises(InstanceTooLargeError):
        min_dominating_set(transitive_tournament(5), ceiling=4)


def test_paley_domination_values():
    assert min_dominating_set(paley_tournament(7)).size == 3
    assert min_dominating_set(paley_tournament(19)).size == 4


def test_pt19_oracle_no_triple_dominates():
    import itertools

    t = paley_tournament(19)
    assert not any(dominates(t, c) for c in itertools.combinations(range(19), 3))


def _refuse_lp(*args):
    raise RuntimeError("solve_lp_max reached")


def _ceil_tau(t) -> int:
    return math.ceil(fractional_transversal(domination_hypergraph(t)).value)


def test_branch_and_bound_never_solves_an_lp(monkeypatch):
    rng = random.Random(20261018)
    instances = [paley_tournament(7), paley_tournament(31)]
    instances += [random_tournament(rng.randint(2, 40), rng) for _ in range(12)]
    # ceil(tau*) from the exact LP, before the LP is taken away
    ceil_tau = [_ceil_tau(t) for t in instances]
    monkeypatch.setattr(simplex, "solve_lp_max", _refuse_lp)
    for t, lb in zip(instances, ceil_tau):
        cert = min_dominating_set(t)
        assert dominates(t, cert.vertices)
        if t.n <= 14:
            assert cert.size == len(exhaustive_min_dominating_set(t))
        for limit in range(cert.size):
            res = min_dominating_set(t, limit=limit)
            assert res == NoSetWithinLimit(limit=limit, lower_bound=max(limit + 1, lb))
        assert min_dominating_set(t, limit=cert.size) == cert
    assert sorted(min_dominating_set(paley_tournament(7)).vertices) == [0, 1, 2]
    assert sorted(min_dominating_set(paley_tournament(31)).vertices) == [0, 1, 2, 4]


def test_scrambling_covers_never_solve_an_lp(monkeypatch):
    monkeypatch.setattr(simplex, "solve_lp_max", _refuse_lp)
    res = enclosure_via_scramblings(pt7_transitive_coloring())
    assert sorted(res.vertices) == [0, 1, 2, 4, 5, 6]
    assert res.size_sum == 12
    ct = coordinate_tournament(random_point_set(14, 3, random.Random(14)))
    res = enclosure_via_scramblings(ct)
    assert sorted(res.vertices) == [0, 1, 2, 3, 4, 5, 6, 8, 9, 11]
    assert res.size_sum == 23
    cert = box_cover(random_point_set(24, 3, random.Random(24)))
    assert cert.cover == (0, 1, 2, 3, 4, 7, 9, 11, 12, 18, 21)
    assert [sorted(r.dom_set) for r in cert.scramblings] == [
        [12], [4, 11], [2, 9], [4], [12], [11], [3, 7], [0, 4],
        [12], [1, 12], [21], [0, 2], [12], [7], [0, 18], [0],
    ]


def test_d4_box_cover_is_pinned():
    cert = box_cover(random_point_set(40, 4, random.Random(40)))
    assert cert.cover == (
        0, 1, 2, 3, 4, 6, 7, 9, 11, 12, 13, 14, 15, 16, 18, 19, 20, 24, 26, 27,
        28, 29, 30, 32, 33, 35, 36, 37, 39,
    )
    # the 256 per-scrambling dominating sets, in scrambling order
    dom_sets = [sorted(r.dom_set) for r in cert.scramblings]
    assert len(dom_sets) == 256 and dom_sets[:8] == [
        [11], [3, 11], [0, 28], [3, 18], [11, 15], [3, 35], [3, 18], [18],
    ]
    digest = hashlib.sha256(json.dumps(dom_sets).encode()).hexdigest()
    assert digest == "8fbb55a29f6c89671f73b8d1e065366e8f8b2bf6bb49c64ac8efdd0229b0f14f"


# sorted dominating sets of PT_q: any optimal set passes the oracle checks,
# so these pins are what shows a change in which set the search returns
PALEY_DOM_SETS = {
    43: [0, 1, 5, 10],
    47: [0, 1, 3, 38],
    59: [0, 1, 7, 19],
    67: [0, 1, 3, 4, 6],
    71: [0, 1, 3, 10, 37],
    79: [0, 1, 2, 8, 50],
    83: [0, 1, 3, 6, 25],
}


def test_paley_dominating_sets_and_limit_proofs_are_pinned():
    for q, expected in PALEY_DOM_SETS.items():
        t, dom = paley_tournament(q), len(expected)
        cert = min_dominating_set(t)
        assert sorted(cert.vertices) == expected and cert.size == dom
        assert min_dominating_set(t, limit=dom - 1) == NoSetWithinLimit(limit=dom - 1, lower_bound=dom)


def test_random_dominating_sets_are_pinned():
    rng = random.Random(20261018)
    sets = []
    for _ in range(100):
        t = random_tournament(rng.randint(41, 99), rng)
        sets.append(sorted(min_dominating_set(t).vertices))
    assert sets[:3] == [[0, 10, 14, 19], [17, 25, 47], [14, 65, 78]]
    digest = hashlib.sha256(json.dumps(sets).encode()).hexdigest()
    assert digest == "873d654b2da2570017d905ca391130e06718079f9cfa6ec8947d278e358a31ae"


@st.composite
def tournaments(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    return tournament_from_bits(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


def _check_search_setup(t):
    # the root coverage bound is read off the greedy size, and the dominator
    # masks off the complement of out
    greedy = greedy_dominating_set(t)
    assert min(len(greedy), 2) == _cover_lower_bound(t.full_mask, t.closed_out)
    for v in range(t.n):
        assert t.closed_out[v] == (1 << v) | t.out[v]
        assert t.full_mask ^ t.out[v] == (1 << v) | t.in_masks[v]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tournaments(0, 12))
def test_search_setup_identities(t):
    _check_search_setup(t)


def test_search_setup_identities_on_paley_tournaments():
    for q in (3, 7, 11, 19, 23, 31, *PALEY_DOM_SETS):
        _check_search_setup(paley_tournament(q))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tournaments(10, 13))
def test_final_levels_match_the_exhaustive_oracle(t):
    cert = min_dominating_set(t)
    assert dominates(t, cert.vertices)
    assert cert.size == len(cert.vertices) == len(exhaustive_min_dominating_set(t))
    root_lb = 1 if cert.size == 1 else 2
    for limit in range(cert.size):
        res = min_dominating_set(t, limit=limit)
        assert res == NoSetWithinLimit(limit=limit, lower_bound=max(limit + 1, root_lb))
    assert min_dominating_set(t, limit=cert.size) == cert
    assert min_dominating_set(t, limit=cert.size + 1) == cert


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tournaments(1, 10), st.integers(0, 4))
def test_is_k_paradoxical_matches_the_exhaustive_oracle(t, k):
    assert is_k_paradoxical(t, k) == (len(exhaustive_min_dominating_set(t)) > k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tournaments(1, 9))
def test_branch_and_bound_matches_oracle_and_lp_bound(t):
    lb = _ceil_tau(t)
    with mock.patch.object(simplex, "solve_lp_max", _refuse_lp):
        cert = min_dominating_set(t)
        assert cert.size == len(exhaustive_min_dominating_set(t))
        for limit in range(cert.size):
            res = min_dominating_set(t, limit=limit)
            assert res.lower_bound == max(limit + 1, lb)


# ---------------------------------------------------------------------------
# fractional transversal


def test_tau_star_c3_is_three_halves():
    sol = fractional_transversal(domination_hypergraph(cyclic_triangle()))
    assert sol.value == Fraction(3, 2) == sol.dual_value
    assert verify_fractional_transversal(domination_hypergraph(cyclic_triangle()), sol)


def test_tau_star_chain_is_one():
    h = domination_hypergraph(transitive_tournament(3))
    sol = fractional_transversal(h)
    assert sol.value == 1
    assert sol.weights[0] == 1


def test_tau_star_pt7():
    # PT_7 is regular of out-degree 3; uniform weights 1/4 are optimal
    sol = fractional_transversal(domination_hypergraph(paley_tournament(7)))
    assert sol.value == Fraction(7, 4)
    assert sol.value < 2


def test_exact_transversal_is_one_checked_simplex_solve(monkeypatch):
    from domcover import simplex

    calls = []
    real = simplex.solve_lp_max

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simplex, "solve_lp_max", counted)
    h = domination_hypergraph(paley_tournament(11))
    sol = fractional_transversal(h)
    assert len(calls) == 1
    assert sol.value == sol.dual_value == sum(sol.weights)
    assert verify_fractional_transversal(h, sol)


# (n, tau*, weights) of fractional_transversal on the tournaments drawn by
# _golden_random(), as the Fraction-pivoting simplex returned them
GOLDEN_RANDOM_TRANSVERSALS = [
    (10, "3/2", "0 1/2 0 0 0 0 0 1/2 0 1/2"),
    (14, "17/10", "0 2/5 0 0 1/10 0 0 0 1/5 2/5 1/5 3/10 0 1/10"),
    (6, "3/2", "0 0 1/2 1/2 0 1/2"),
    (24, "1116/617",
     "0 0 0 42/617 0 64/617 167/617 0 182/617 49/617 0 88/617 0 "
     "184/617 54/617 0 99/617 7/617 0 122/617 20/617 0 13/617 25/617"),
    (22, "1404/755",
     "94/755 0 0 98/453 47/453 218/2265 71/755 0 491/2265 40/453 "
     "112/2265 24/151 52/2265 0 0 10/453 70/453 314/2265 266/2265 "
     "109/755 0 84/755"),
    (14, "26/15", "1/10 0 7/30 0 0 1/3 0 2/15 1/15 0 0 1/5 11/30 3/10"),
    (19, "32/19", "0 0 7/19 0 10/19 0 0 2/19 0 3/19 0 1/19 0 6/19 2/19 1/19 0 0 0"),
    (8, "3/2", "1/2 1/2 0 0 0 0 1/2 0"),
    (16, "9/5", "8/25 3/25 1/25 0 6/25 11/25 4/25 3/25 7/25 0 2/25 0 0 0 0 0"),
    (18, "45/26", "1/13 0 3/26 0 0 0 0 3/13 0 5/13 0 0 5/13 1/13 0 1/26 3/13 5/26"),
    (7, "8/5", "1/5 0 1/5 0 2/5 3/5 1/5"),
    (4, "3/2", "1/2 1/2 0 1/2"),
    (4, "1", "1 0 0 0"),
    (11, "1", "0 0 0 0 0 0 0 0 1 0 0"),
    (5, "3/2", "1/2 1/2 1/2 0 0"),
    (5, "3/2", "1/2 0 1/2 1/2 0"),
    (4, "1", "0 0 1 0"),
    (7, "5/3", "1/3 0 2/3 0 0 1/3 1/3"),
    (8, "3/2", "0 1/2 0 0 1/2 0 1/2 0"),
    (3, "1", "1 0 0"),
]


def _golden_random():
    rng = random.Random(4)
    for _ in range(20):
        yield random_tournament(rng.randint(3, 24), rng)


def test_exact_transversal_weights_are_pinned():
    # Paley and transitive tournaments have closed-form optima that the
    # simplex returns exactly: uniform 2/(q+1), and all weight on vertex 0,
    # which beats every other vertex
    for q in (7, 11, 19, 23, 31):
        sol = fractional_transversal(domination_hypergraph(paley_tournament(q)))
        assert sol.value == Fraction(2 * q, q + 1)
        assert sol.weights == (Fraction(2, q + 1),) * q
    for n in (10, 20, 30, 40):
        sol = fractional_transversal(domination_hypergraph(transitive_tournament(n)))
        assert sol.value == 1 and sol.weights == (1,) + (0,) * (n - 1)
    for t, (n, value, weights) in zip(_golden_random(), GOLDEN_RANDOM_TRANSVERSALS, strict=True):
        sol = fractional_transversal(domination_hypergraph(t))
        assert t.n == n and sol.value == Fraction(value)
        assert sol.weights == tuple(Fraction(w) for w in weights.split())


def test_large_random_transversal_weights_are_pinned():
    # GOLDEN_RANDOM_TRANSVERSALS stops at n = 24; this covers 25..40, up to
    # EXACT_LP_CEILING, as sha256 of the (n, tau*, weights) list
    rng = random.Random(25)
    rows = []
    for n in range(25, 41):
        sol = fractional_transversal(domination_hypergraph(random_tournament(n, rng)))
        rows.append([n, str(sol.value), [str(w) for w in sol.weights]])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "ed9573ecf05545bd47ac177c0bb92b2b1c21cbccc42435e7f7c4bcbc171a1cc3"


def test_tau_star_below_two_and_duality():
    rng = random.Random(77)
    for _ in range(60):
        t = random_tournament(rng.randint(1, 25), rng)
        h = domination_hypergraph(t)
        sol = fractional_transversal(h)
        assert sol.value < 2
        assert sol.value == sol.dual_value
        assert verify_fractional_transversal(h, sol)
        dom = min_dominating_set(t).size
        assert dom >= sol.value


def test_weak_duality_random_matchings():
    rng = random.Random(4)
    for _ in range(20):
        t = random_tournament(rng.randint(2, 12), rng)
        h = domination_hypergraph(t)
        tau = fractional_transversal(h).value
        # the uniform matching y_e = 1/(max vertex degree) is always feasible,
        # so its value n*y can never exceed tau*
        degree = [sum(1 for m in h.edge_masks if (m >> v) & 1) for v in range(h.n)]
        assert Fraction(h.n, max(degree)) <= tau


def test_exact_mode_ceiling():
    with pytest.raises(InstanceTooLargeError):
        fractional_transversal(domination_hypergraph(transitive_tournament(41)))


def test_exact_value_matches_highs():
    from scipy.optimize import linprog

    rng = random.Random(9)
    for _ in range(10):
        h = domination_hypergraph(random_tournament(rng.randint(2, 15), rng))
        exact = fractional_transversal(h).value
        # covering LP min 1.x st every hyperedge has weight >= 1, x >= 0
        ref = linprog(
            [1.0] * h.n,
            A_ub=[[-float((m >> v) & 1) for v in range(h.n)] for m in h.edge_masks],
            b_ub=[-1.0] * h.n,
            bounds=[(0, None)] * h.n,
            method="highs",
        )
        assert ref.success and abs(ref.fun - float(exact)) < 1e-7


def test_only_exact_mode_exists():
    with pytest.raises(ValueError):
        fractional_transversal(domination_hypergraph(cyclic_triangle()), mode="approximate")


def test_singleton_edge_forces_weight_one():
    h = hypergraph_from_sets(2, [{0}, {0, 1}])
    sol = fractional_transversal(h)
    assert sol.value == 1 and sol.weights[0] == 1


# ---------------------------------------------------------------------------
# enclosure


def test_min_enclosure_chain():
    ct = monochromatic(transitive_tournament(3))
    assert min_enclosure_set(ct) == {0, 2}


def test_min_enclosure_singleton():
    ct = monochromatic(transitive_tournament(1))
    assert min_enclosure_set(ct) == {0}


def test_min_enclosure_rainbow_triangle_needs_all():
    assert len(min_enclosure_set(rainbow_triangle())) == 3


def test_min_enclosure_ceiling():
    with pytest.raises(InstanceTooLargeError):
        min_enclosure_set(monochromatic(transitive_tournament(26)))


def test_scrambling_enclosure_on_transitive_tournament():
    ct = monochromatic(transitive_tournament(8))
    res = enclosure_via_scramblings(ct)
    # top vertex dominates, bottom vertex dominates the reversal
    assert res.vertices == {0, 7}
    assert res.mask_set_sizes == {frozenset(): 1, frozenset({1}): 1}


def test_scrambling_enclosure_singleton():
    res = enclosure_via_scramblings(monochromatic(transitive_tournament(1)))
    assert res.vertices == {0}


def test_scrambling_enclosure_certificates():
    rng = random.Random(31)
    for _ in range(25):
        n, k = rng.randint(2, 12), rng.randint(1, 3)
        ct = random_coloring(random_tournament(n, rng), k, rng)
        res = enclosure_via_scramblings(ct)
        assert is_enclosure(ct, res.vertices)
        assert len(res.mask_set_sizes) == 1 << k
        assert len(res.vertices) <= res.size_sum
        assert res.size_sum <= (1 << k) * max(res.mask_set_sizes.values())


def test_min_enclosure_never_beats_scrambling_union():
    rng = random.Random(6)
    for _ in range(10):
        n, k = rng.randint(2, 8), rng.randint(1, 2)
        ct = random_coloring(random_tournament(n, rng), k, rng)
        assert len(min_enclosure_set(ct)) <= len(enclosure_via_scramblings(ct).vertices)


def test_scrambling_enclosure_color_ceiling():
    ct = random_coloring(random_tournament(4, random.Random(0)), 3, random.Random(0))
    with pytest.raises(InstanceTooLargeError):
        enclosure_via_scramblings(
            type(ct)(ct.class_out + (ct.class_out[0],) * 6)  # pretend palette of 9 colors
        )
