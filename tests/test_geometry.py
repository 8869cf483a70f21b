import itertools
import random
from fractions import Fraction

import pytest

from domcover.core import (
    dominates,
    is_enclosure,
    scramble,
    verify_transitive_coloring,
)
from domcover.errors import (
    DimensionMismatchError,
    GeneralPositionError,
    InstanceTooLargeError,
    SearchFailedError,
)
from domcover.geometry import (
    all_scramblings,
    box_contains,
    box_cover,
    class_orientation,
    classify_scrambling_3d,
    coordinate_tournament,
    dictatorship_axis,
    exists_point_in_box,
    extremal_pointset,
    mask_to_patterns,
    pattern_to_color,
    point_set,
    random_point_set,
    rank_relabeled,
    scrambled_orientation,
    search_extremal_pointset_3d,
    sign_pattern_masks,
    sign_patterns,
    verify_box_cover,
    verify_classification,
)
from domcover.solvers import min_dominating_set


def test_box_contains_examples():
    assert box_contains((0, 0), (2, 2), (1, 1))
    assert not box_contains((0, 0), (2, 2), (1, 3))
    assert box_contains((0, 0), (2, 2), (0, 0))  # closed box holds endpoints
    with pytest.raises(DimensionMismatchError):
        box_contains((0, 0), (2, 2), (1,))


def test_point_set_rejects_shared_coordinates():
    with pytest.raises(GeneralPositionError) as exc:
        point_set([(0, 1), (0, 2)])
    assert exc.value.axis == 1 and exc.value.points == (0, 1)


def test_point_set_rejects_floats():
    with pytest.raises(TypeError):
        point_set([(0.5, 1)])


def test_point_set_parses_decimal_strings_exactly():
    ps = point_set([("0.1", "3"), ("0.25", "1/2")])
    assert ps.points[0][0] == Fraction(1, 10)
    assert ps.points[1][1] == Fraction(1, 2)


def test_rank_relabeling_repairs_ties():
    ps = rank_relabeled([(5, 1), (5, 3), (2, 3)])
    assert ps.points == ((1, 0), (2, 1), (0, 2))


def test_coordinate_tournament_d1_is_transitive_order():
    ps = point_set([(3,), (1,), (2,)])
    ct = coordinate_tournament(ps)
    assert ct.k == 1
    assert verify_transitive_coloring(ct)
    assert ct.base.has_edge(1, 2) and ct.base.has_edge(2, 0)


def test_coordinate_tournament_2143_colors():
    ct = coordinate_tournament(extremal_pointset(2))
    assert ct.k == 2
    # increasing pairs get color 1 (pattern +), decreasing color 2
    assert ct.color_class(1) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert ct.color_class(2) == {(0, 1), (2, 3)}


def test_coordinate_tournament_random_3d_verifies():
    rng = random.Random(8)
    ct = coordinate_tournament(random_point_set(20, 3, rng))
    assert ct.k == 4
    assert verify_transitive_coloring(ct)
    for mask, scrambled in all_scramblings(random_point_set(8, 3, rng)):
        assert verify_transitive_coloring(scrambled)


def test_all_scramblings_counts():
    rng = random.Random(2)
    assert len(all_scramblings(random_point_set(3, 1, rng))) == 2
    assert len(all_scramblings(random_point_set(3, 2, rng))) == 4
    assert len(all_scramblings(random_point_set(3, 3, rng))) == 16
    with pytest.raises(InstanceTooLargeError):
        all_scramblings(random_point_set(3, 5, rng))


def test_scrambled_orientation_matches_scramble():
    rng = random.Random(14)
    ps = random_point_set(10, 3, rng)
    ct = coordinate_tournament(ps)
    for mask in ({1}, {2, 3}, {1, 2, 3, 4}, set()):
        base = scrambled_orientation(ct, mask)
        assert base == scramble(ct, mask).base
        for u, v, c in ct.colored_edges():
            assert base.has_edge(*((v, u) if c in mask else (u, v)))


def test_box_cover_invariants_survive_optimize_flag(run_python):
    script = """
import random
from domcover import geometry
from domcover.errors import InvariantError
from domcover.solvers import DominationCertificate
assert False, "this line only runs without -O"
geometry.min_dominating_set = lambda t, **kw: DominationCertificate(frozenset({0}), 1, True, "")
try:
    geometry.box_cover(geometry.random_point_set(12, 3, random.Random(0)))
except InvariantError as exc:
    print("InvariantError:", exc)
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError:")


def test_classification_counts_6_8_2():
    kinds = [classify_scrambling_3d(m).kind for m in sign_pattern_masks()]
    assert kinds.count("dictatorship") == 6
    assert kinds.count("two_majority") == 8
    assert kinds.count("parity") == 2


def test_classification_examples():
    empty = classify_scrambling_3d(frozenset())
    assert empty.kind == "dictatorship" and empty.axis == 1 and empty.direction == "ascending"
    par = classify_scrambling_3d({("+", "-"), ("-", "+")})
    assert par.kind == "parity" and par.parity == "even"
    maj = classify_scrambling_3d({("-", "-")})
    assert maj.kind == "two_majority"


def test_two_majority_orientation_rule():
    cls = classify_scrambling_3d({("-", "-")})
    rng = random.Random(4)
    ps = random_point_set(12, 3, rng)
    for p, q in itertools.combinations(ps.points, 2):
        smaller = sum(1 for a, b in zip(p, q) if a < b)
        assert class_orientation(cls, p, q) == (smaller >= 2)


def test_closed_form_rules_match_scrambles():
    rng = random.Random(21)
    for _ in range(3):
        assert verify_classification(random_point_set(15, 3, rng))


def test_dictatorship_scramblings_have_dom_one():
    rng = random.Random(33)
    ps = random_point_set(14, 3, rng)
    ct = coordinate_tournament(ps)
    from domcover.core import all_color_masks

    for mask in all_color_masks(4):
        if dictatorship_axis(3, mask_to_patterns(3, mask)) is not None:
            assert min_dominating_set(scrambled_orientation(ct, mask)).size == 1


def test_box_cover_d1():
    ps = point_set([(5,), (1,), (3,), (4,)])
    cert = box_cover(ps)
    assert set(cert.cover) == {1, 0}  # min and max points
    assert cert.verify(ps)


def test_box_cover_extremal_2d_needs_everything():
    ps = extremal_pointset(2)
    cert = box_cover(ps)
    assert set(cert.cover) == {0, 1, 2, 3}
    assert cert.verify(ps)


def test_box_cover_random_3d():
    rng = random.Random(12)
    ps = random_point_set(60, 3, rng)
    cert = box_cover(ps)
    assert cert.verify(ps)
    assert verify_box_cover(ps, cert.cover)
    assert len(cert.cover) <= 64
    assert cert.per_class_sizes["dictatorship"] == [1] * 6
    assert all(s <= 3 for s in cert.per_class_sizes["two_majority"])
    assert all(s <= 17 for s in cert.per_class_sizes["parity"])
    for rec in cert.scramblings:
        assert dominates(scrambled_orientation(coordinate_tournament(ps), rec.mask), rec.dom_set)


def test_box_cover_greedy_method_still_verifies():
    rng = random.Random(13)
    ps = random_point_set(40, 3, rng)
    cert = box_cover(ps, method="greedy")
    assert cert.verify(ps)


def test_box_cover_four_dimensions():
    rng = random.Random(15)
    ps = random_point_set(9, 4, rng)
    cert = box_cover(ps)
    assert cert.verify(ps)
    assert len(cert.scramblings) == 256
    assert len(cert.per_class_sizes["dictatorship"]) == 8


def test_verify_box_cover_examples():
    ps = extremal_pointset(2)
    assert verify_box_cover(ps, {0, 1, 2, 3})
    for triple in itertools.combinations(range(4), 3):
        assert not verify_box_cover(ps, triple)
    line = point_set([(0,), (1,), (2,)])
    assert verify_box_cover(line, {0, 2})


def test_exists_point_in_box_collinear():
    ps = point_set([(0,), (1,), (2,)])
    assert exists_point_in_box(ps) == (0, 2, 1)


def test_extremal_pointsets_have_no_box_point():
    assert extremal_pointset(1).n == 2
    assert exists_point_in_box(extremal_pointset(1)) is None
    assert exists_point_in_box(extremal_pointset(2)) is None
    ps3 = extremal_pointset(3)
    assert ps3.n == 16
    assert exists_point_in_box(ps3) is None
    with pytest.raises(ValueError):
        extremal_pointset(4)


def test_five_points_in_plane_always_contain_box_point():
    rng = random.Random(0)
    for _ in range(300):
        ps = random_point_set(5, 2, rng)
        assert exists_point_in_box(ps) is not None


def test_enclosure_equals_box_cover_on_unscrambled():
    rng = random.Random(18)
    for _ in range(60):
        d = rng.randint(1, 3)
        ps = random_point_set(rng.randint(2, 12), d, rng)
        ct = coordinate_tournament(ps)
        p = frozenset(v for v in range(ps.n) if rng.random() < 0.45)
        assert is_enclosure(ct, p) == verify_box_cover(ps, p)


def test_search_reproduces_valid_configuration():
    found = search_extremal_pointset_3d(seed=0)
    assert found.n == 16
    assert exists_point_in_box(found) is None


def test_search_budget_exhaustion():
    with pytest.raises(SearchFailedError):
        search_extremal_pointset_3d(seed=0, budget=1)


def test_sign_pattern_color_numbering_roundtrip():
    for d in (1, 2, 3, 4):
        for i, pat in enumerate(sign_patterns(d), start=1):
            assert pattern_to_color(d, pat) == i
