import random
from fractions import Fraction

import pytest

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
    transitive_tournament,
)
from domcover.errors import InstanceTooLargeError
from domcover.paley import paley_tournament
from domcover.solvers import (
    DominationCertificate,
    NoSetWithinLimit,
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


def test_approximate_mode_matches_exact():
    rng = random.Random(9)
    for _ in range(10):
        h = domination_hypergraph(random_tournament(rng.randint(2, 15), rng))
        exact = fractional_transversal(h).value
        approx = fractional_transversal(h, mode="approximate")
        assert abs(approx.value - float(exact)) < 1e-7


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
            type(ct)(ct.base, 9, ct.colors)  # pretend palette of 9 colors
        )
