import itertools
import random
from fractions import Fraction

import pytest

from domcover.core import (
    bits,
    cyclic_triangle,
    dominates,
    monochromatic,
    transitive_tournament,
    verify_transitive_coloring,
)
from domcover.errors import (
    InstanceTooLargeError,
    NotPaleyBaseError,
    NotPrimeError,
    WrongResidueClassError,
)
from domcover.paley import (
    discrepancy,
    discrepancy_bound,
    is_k_paradoxical,
    paley_params,
    paley_tournament,
    pt7_transitive_coloring,
    refute_transitive_coloring,
    vertex_types,
)
from domcover.solvers import min_dominating_set

TEST_PRIMES = (7, 19, 23, 31, 43, 47, 67)


def test_params_validation():
    params = paley_params(7)
    assert params.residues == {1, 2, 4}
    with pytest.raises(WrongResidueClassError):
        paley_params(5)
    with pytest.raises(NotPrimeError):
        paley_params(9)
    with pytest.raises(NotPrimeError):
        paley_params(15)
    with pytest.raises(InstanceTooLargeError):
        paley_params(999983)  # prime, 3 mod 4, but q^2 bits is far too large
    assert len(paley_params(1019).residues) == 509


def test_residue_counts_and_minus_one():
    for q in TEST_PRIMES:
        residues = paley_params(q).residues
        assert len(residues) == (q - 1) // 2
        assert (q - 1) not in residues  # -1 is always a non-residue here


def test_pt3_is_cyclic_triangle():
    assert paley_tournament(3) == cyclic_triangle()


def test_pt7_edges():
    t = paley_tournament(7)
    for x in range(7):
        assert t.out_neighbors(x) == {(x + 1) % 7, (x + 2) % 7, (x + 4) % 7}


def test_regular_out_degrees():
    for q in TEST_PRIMES:
        t = paley_tournament(q)
        assert all(t.out_degree(v) == (q - 1) // 2 for v in range(q))


def test_every_paley_tournament_has_a_cyclic_triangle():
    for q in TEST_PRIMES:
        t = paley_tournament(q)
        found = any(
            t.has_edge(b, c) and t.has_edge(c, a)
            for a in range(min(q, 8))
            for b in bits(t.out[a])
            for c in range(q)
            if c != a and c != b
        )
        assert found


def test_pt7_coloring_survives_every_scrambling():
    from domcover.core import all_color_masks, scramble

    ct = pt7_transitive_coloring()
    for mask in all_color_masks(3):
        assert verify_transitive_coloring(scramble(ct, mask))


def test_pt7_coloring_is_the_canonical_witness():
    ct = pt7_transitive_coloring()
    assert ct.base == paley_tournament(7)
    assert verify_transitive_coloring(ct)
    edges = list(ct.colored_edges())
    assert len(edges) == 21
    for color in (1, 2, 3):
        assert sum(1 for _, _, c in edges if c == color) == 7
    assert min_dominating_set(ct.base).size == 3


def test_discrepancy_whole_vertex_set_cancels():
    t = paley_tournament(19)
    assert discrepancy(t, range(19), range(19)) == 0


def test_discrepancy_singletons():
    t = paley_tournament(7)
    assert discrepancy(t, {0}, {1}) == 1  # 0 -> 1 is an edge
    assert discrepancy(t, {1}, {0}) == -1


def test_discrepancy_small_sets_within_bound():
    t = paley_tournament(7)
    val = discrepancy(t, {0, 1}, {2, 3})
    assert abs(val) <= discrepancy_bound(2, 2, 7)


def test_discrepancy_bound_random_pairs():
    rng = random.Random(101)
    for q in (7, 19, 23):
        t = paley_tournament(q)
        for _ in range(300):
            a = {v for v in range(q) if rng.random() < 0.5}
            b = {v for v in range(q) if rng.random() < 0.5}
            if not a or not b:
                continue
            assert abs(discrepancy(t, a, b)) <= discrepancy_bound(len(a), len(b), q)


def test_vertex_types_monochromatic_regular():
    ct = monochromatic(paley_tournament(7))
    census = vertex_types(ct, Fraction(1, 256))
    for vt in census.by_vertex.values():
        assert vt.in_colors == {1} and vt.out_colors == {1}
    assert census.meets_size_bound


def test_vertex_types_threshold_one_empties_everything():
    ct = monochromatic(paley_tournament(7))
    census = vertex_types(ct, Fraction(1))
    for vt in census.by_vertex.values():
        assert vt.in_colors == frozenset() and vt.out_colors == frozenset()


def test_vertex_types_pt7_positive_degrees():
    ct = pt7_transitive_coloring()
    census = vertex_types(ct, Fraction(1, 256))
    for v, vt in census.by_vertex.items():
        for i in range(1, 4):
            from domcover.core import popcount

            assert (i in vt.in_colors) == (popcount(ct.class_in[i][v]) > 0)
            assert (i in vt.out_colors) == (popcount(ct.class_out[i][v]) > 0)


def test_refutation_pt7_witness_finds_no_contradiction():
    report = refute_transitive_coloring(pt7_transitive_coloring())
    assert report.transitive
    assert not report.contradiction and report.step is None
    assert report.nu == Fraction(1, 256)


def test_refutation_catches_fake_coloring():
    report = refute_transitive_coloring(monochromatic(paley_tournament(3)))
    assert report.contradiction
    assert report.step in ("forced_edges", "transitivity")
    assert not report.transitive


def test_refutation_monochromatic_pt19():
    report = refute_transitive_coloring(monochromatic(paley_tournament(19)))
    assert report.contradiction
    payload = report.to_json_dict()
    assert payload["q"] == 19 and payload["k"] == 1


def test_refutation_requires_paley_base():
    with pytest.raises(NotPaleyBaseError):
        refute_transitive_coloring(monochromatic(transitive_tournament(7)))


def test_paradoxical_examples():
    assert is_k_paradoxical(cyclic_triangle(), 1)
    assert is_k_paradoxical(paley_tournament(7), 2)
    assert not is_k_paradoxical(paley_tournament(7), 3)  # dom(PT_7) = 3
    assert is_k_paradoxical(paley_tournament(19), 3)


def test_paradoxical_budget():
    with pytest.raises(InstanceTooLargeError):
        is_k_paradoxical(paley_tournament(67), 5, budget=1000)


def test_smallest_paradoxical_sizes():
    # the 1- and 2-paradoxical minima are 3 and 7 vertices
    assert min_dominating_set(cyclic_triangle()).size == 2
    assert not any(
        dominates(paley_tournament(7), pair)
        for pair in itertools.combinations(range(7), 2)
    )
