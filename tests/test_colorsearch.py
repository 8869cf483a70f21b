import itertools
import math
import random

import pytest

from domcover.colorsearch import (
    bipartite_tournament,
    blowup_c3,
    find_transitive_coloring,
    majority_tournament,
    permutation_tournament,
    recover_permutation,
    shattering_bipartite,
    substitute,
)
from domcover.core import (
    all_tournaments,
    cyclic_triangle,
    is_acyclic,
    monochromatic,
    rainbow_triangle,
    transitive_tournament,
    verify_transitive_coloring,
)
from domcover.errors import (
    BudgetExhaustedError,
    EvenOrderCountError,
    MismatchedDomainsError,
    NotTransitivelyColoredError,
    NotTwoColoredError,
    VertexNotFoundError,
)
from domcover.paley import paley_tournament
from domcover.solvers import min_dominating_set


def test_search_c3_with_two_colors_proves_none():
    assert find_transitive_coloring(cyclic_triangle(), 2) is None


def test_search_transitive_single_color():
    ct = find_transitive_coloring(transitive_tournament(5), 1)
    assert ct is not None and verify_transitive_coloring(ct)


def test_search_pt7_three_colors():
    ct = find_transitive_coloring(paley_tournament(7), 3)
    assert ct is not None and verify_transitive_coloring(ct)


def test_search_matches_acyclicity_exhaustively():
    for n in (2, 3, 4):
        for t in all_tournaments(n):
            for k in (1, 2):
                found = find_transitive_coloring(t, k)
                assert (found is not None) == is_acyclic(t)
                if found is not None:
                    assert verify_transitive_coloring(found)


def test_search_matches_acyclicity_n6():
    # all 2^15 orientations of K6; two colors succeed exactly on the 720 orders
    acyclic = 0
    for t in all_tournaments(6):
        found = find_transitive_coloring(t, 2)
        assert (found is not None) == is_acyclic(t)
        acyclic += found is not None
    assert acyclic == 720


def test_search_budget_exhaustion_is_distinct_from_none():
    with pytest.raises(BudgetExhaustedError):
        find_transitive_coloring(paley_tournament(19), 3, budget=50)


# ---------------------------------------------------------------------------
# permutation tournaments


def test_permutation_identity_and_reverse():
    ident = permutation_tournament((1, 2, 3, 4))
    assert all(c == 1 for _, _, c in ident.colored_edges())
    rev = permutation_tournament((4, 3, 2, 1))
    assert all(c == 2 for _, _, c in rev.colored_edges())


def test_permutation_2143_classes():
    ct = permutation_tournament((2, 1, 4, 3))
    assert ct.color_class(1) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert ct.color_class(2) == {(0, 1), (2, 3)}
    assert verify_transitive_coloring(ct)
    assert is_acyclic(ct.base)


def test_permutation_rejects_non_permutations():
    with pytest.raises(ValueError):
        permutation_tournament((1, 1, 2))
    with pytest.raises(ValueError):
        permutation_tournament((0, 1, 2))


def test_recover_roundtrip_exhaustive_small():
    for n in range(1, 7):
        for pi in itertools.permutations(range(1, n + 1)):
            assert recover_permutation(permutation_tournament(pi)) == pi


def test_recover_roundtrip_random_large():
    rng = random.Random(90)
    for _ in range(50):
        n = rng.randint(1, 50)
        pi = tuple(rng.sample(range(1, n + 1), n))
        assert recover_permutation(permutation_tournament(pi)) == pi


def test_recover_identity_from_monochromatic():
    ct = permutation_tournament(tuple(range(1, 6)))
    assert recover_permutation(ct) == (1, 2, 3, 4, 5)


def test_recover_rejects_wrong_inputs():
    with pytest.raises(NotTwoColoredError):
        recover_permutation(rainbow_triangle())
    bad = monochromatic(cyclic_triangle())
    two_colored = type(bad)(bad.class_out + (bad.class_out[0],))  # add an empty class 2
    with pytest.raises(NotTransitivelyColoredError):
        recover_permutation(two_colored)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_singleton_is_identity_up_to_relabel():
    single = monochromatic(transitive_tournament(1))
    ct = rainbow_triangle()
    assert substitute(ct, 1, single) == ct


def test_substitute_rainbow_into_own_vertex():
    ct = rainbow_triangle()
    grown = substitute(ct, 0, ct)
    assert grown.n == 5
    # copy occupies 0..2 and inherits vertex 0's outside edges: 0 -> old 1
    for w in range(3):
        assert grown.base.has_edge(w, 3)
        assert grown.color_of(w, 3) == ct.color_of(0, 1)
        assert grown.base.has_edge(4, w)
        assert grown.color_of(4, w) == ct.color_of(2, 0)
    assert grown.color_of(0, 1) == 1 and grown.color_of(1, 2) == 2


def test_substitute_vertex_not_found():
    with pytest.raises(VertexNotFoundError):
        substitute(rainbow_triangle(), 3, rainbow_triangle())


def test_blowup_c3():
    ct = blowup_c3()
    assert ct.n == 9
    assert verify_transitive_coloring(ct)
    # block structure: block 0 beats block 1 entirely in color 1
    for i in range(3):
        for j in range(3, 6):
            assert ct.base.has_edge(i, j) and ct.color_of(i, j) == 1
    assert min_dominating_set(ct.base).size >= 3


# ---------------------------------------------------------------------------
# bipartite family


def test_bipartite_two_vertices():
    ct = bipartite_tournament(1, 1, [(0, 1)])
    assert ct.n == 2 and ct.base.has_edge(0, 1)


def test_bipartite_dominated_by_two():
    rng = random.Random(55)
    for _ in range(15):
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        cross = [
            (x, a + y) for x in range(a) for y in range(b) if rng.random() < 0.5
        ]
        ct = bipartite_tournament(a, b, cross)
        assert verify_transitive_coloring(ct)
        assert min_dominating_set(ct.base).size <= 2


def test_bipartite_rejects_bad_cross_edges():
    with pytest.raises(ValueError):
        bipartite_tournament(2, 2, [(2, 3)])  # 2 is not in A


def test_shattering_bipartite_has_expected_shape():
    ct = shattering_bipartite(2)
    assert ct.n == 2 + 4
    assert verify_transitive_coloring(ct)


# ---------------------------------------------------------------------------
# majority tournaments


def test_majority_identical_orders():
    base, ct = majority_tournament([[0, 1, 2]] * 3)
    assert base == transitive_tournament(3)
    assert ct.k == 1


def test_majority_condorcet_cycle():
    base, _ = majority_tournament([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert base == cyclic_triangle()


def test_majority_coloring_always_verifies():
    rng = random.Random(44)
    for _ in range(20):
        n = rng.randint(2, 10)
        m = rng.choice((3, 5))
        orders = [rng.sample(range(n), n) for _ in range(m)]
        _, ct = majority_tournament(orders)
        assert verify_transitive_coloring(ct)
        k = (m + 1) // 2
        assert ct.k <= sum(math.comb(m, i) for i in range(k, m + 1))


def test_majority_rejects_bad_inputs():
    with pytest.raises(EvenOrderCountError):
        majority_tournament([[0, 1], [1, 0]])
    with pytest.raises(MismatchedDomainsError):
        majority_tournament([[0, 1], [0, 2], [1, 0]])


def test_majority_embeds_as_coordinate_scrambling():
    from domcover.geometry import (
        coordinate_tournament,
        pattern_to_color,
        point_set,
        scrambled_orientation,
    )

    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 10)
        orders = [rng.sample(range(n), n) for _ in range(3)]
        base, _ = majority_tournament(orders)
        pos = [{v: i for i, v in enumerate(o)} for o in orders]
        pts = point_set([tuple(p[v] for p in pos) for v in range(n)])
        ct = coordinate_tournament(pts)
        mask = {pattern_to_color(3, ("-", "-"))}
        assert scrambled_orientation(ct, mask) == base
