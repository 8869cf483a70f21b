"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
timing.  Every expected value is exact; tolerances appear only where a
criterion is explicitly statistical.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from domcover.colorsearch import (
    find_transitive_coloring,
    majority_tournament,
    permutation_tournament,
    recover_permutation,
)
from domcover.core import (
    all_tournaments,
    cyclic_triangle,
    domination_hypergraph,
    is_acyclic,
    is_enclosure,
    random_coloring,
    random_tournament,
    verify_transitive_coloring,
)
from domcover.geometry import (
    box_cover,
    coordinate_tournament,
    classify_scrambling_3d,
    exists_point_in_box,
    extremal_pointset,
    random_point_set,
    scrambled_orientation,
    sign_pattern_masks,
    verify_box_cover,
)
from domcover.paley import discrepancy, is_k_paradoxical, paley_tournament, pt7_transitive_coloring
from domcover.solvers import (
    enclosure_via_scramblings,
    fractional_transversal,
    min_dominating_set,
)
from domcover.vcnets import epsnet_feasibility, vc_dimension


# reference binomials: two paths independent of math.comb, for cross-checks


def binomial_pascal(n: int, k: int) -> int:
    """C(n, k) by Pascal's triangle in plain big integers."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row[k]


def binomial_multiplicative(n: int, k: int) -> int:
    """C(n, k) by the factorial-free product formula."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    num = 1
    for i in range(1, k + 1):
        num = num * (n - k + i) // i
    return num


def _report(num, budget_s, started, detail=""):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s / budget {budget_s}s) {detail}")
    assert elapsed < budget_s


def test_criterion_01_domination_ladder():
    started = time.monotonic()
    assert min_dominating_set(cyclic_triangle()).size == 2
    assert min_dominating_set(paley_tournament(7)).size == 3
    assert min_dominating_set(paley_tournament(19)).size == 4
    _report(1, 1, started, "dom(C3)=2 dom(PT7)=3 dom(PT19)=4")


def test_criterion_02_seven_vertex_witness():
    started = time.monotonic()
    ct = pt7_transitive_coloring()
    assert verify_transitive_coloring(ct)
    per_class = [sum(1 for _, _, c in ct.colored_edges() if c == i) for i in (1, 2, 3)]
    assert per_class == [7, 7, 7]
    assert sum(per_class) == 21
    assert min_dominating_set(ct.base).size == 3
    _report(2, 1, started, "3 transitive classes of 7 edges; dom=3")


def test_criterion_03_two_colorable_iff_acyclic_n5():
    started = time.monotonic()
    acyclic_count = 0
    for t in all_tournaments(5):
        found = find_transitive_coloring(t, 2)
        acyclic = is_acyclic(t)
        assert (found is not None) == acyclic
        acyclic_count += acyclic
    assert acyclic_count == 120  # 5! orderings
    _report(3, 60, started, "1024 orientations checked")


def test_criterion_04_fractional_transversal_below_two():
    started = time.monotonic()
    assert fractional_transversal(domination_hypergraph(cyclic_triangle())).value == Fraction(3, 2)
    rng = random.Random(20240104)
    worst = Fraction(0)
    for _ in range(1000):
        t = random_tournament(rng.randint(2, 30), rng)
        sol = fractional_transversal(domination_hypergraph(t), mode="exact")
        assert sol.value < 2
        assert sol.value == sol.dual_value
        worst = max(worst, sol.value)
    _report(4, 300, started, f"1000 exact LPs, max tau*={worst}")


def test_criterion_05_three_dimensional_pipeline():
    started = time.monotonic()
    rng = random.Random(20240105)
    worst_cover = 0
    worst_parity = 0
    for trial in range(50):
        n = rng.randint(20, 200)
        ps = random_point_set(n, 3, rng)
        kinds = [classify_scrambling_3d(m).kind for m in sign_pattern_masks()]
        assert kinds.count("dictatorship") == 6
        assert kinds.count("two_majority") == 8
        assert kinds.count("parity") == 2
        cert = box_cover(ps, method="exact")
        assert cert.per_class_sizes["dictatorship"] == [1] * 6
        assert all(s <= 3 for s in cert.per_class_sizes["two_majority"])
        assert all(s <= 17 for s in cert.per_class_sizes["parity"])
        assert cert.verify(ps)
        assert len(cert.cover) <= 64
        worst_cover = max(worst_cover, len(cert.cover))
        worst_parity = max(worst_parity, *cert.per_class_sizes["parity"])
    _report(
        5, 600, started,
        f"50 point sets, max cover {worst_cover}, max parity domination {worst_parity}",
    )


def test_criterion_06_enclosure_equals_box_cover():
    started = time.monotonic()
    rng = random.Random(20240106)
    for _ in range(200):
        d = rng.randint(1, 3)
        ps = random_point_set(rng.randint(2, 14), d, rng)
        ct = coordinate_tournament(ps)
        p = frozenset(v for v in range(ps.n) if rng.random() < 0.45)
        assert is_enclosure(ct, p) == verify_box_cover(ps, p)
    _report(6, 60, started, "200 (S, P) pairs bit-for-bit")


def test_criterion_07_planar_sharpness():
    started = time.monotonic()
    assert exists_point_in_box(extremal_pointset(2)) is None
    rng = random.Random(20240107)
    for _ in range(10_000):
        assert exists_point_in_box(random_point_set(5, 2, rng)) is not None
    _report(7, 60, started, "4-point set box-free; 10000 5-point sets all hit")


def test_criterion_08_exact_feasibility_arithmetic():
    started = time.monotonic()
    refined = epsnet_feasibility(17, 14, "refined")
    assert refined.feasible and refined.lhs == 15696
    assert refined.rhs == Fraction(binomial_pascal(31, 14), 2**14)
    assert binomial_pascal(31, 14) == binomial_multiplicative(31, 14) == math.comb(31, 14)
    cube = epsnet_feasibility(19, 19, "cube")
    assert binomial_pascal(38, 19) == binomial_multiplicative(38, 19)
    ratio = cube.lhs / cube.rhs
    assert ratio == Fraction(2**19 * 39**3, binomial_multiplicative(38, 19))
    direction = "<1 as claimed" if ratio < 1 else ">=1 CONTRARY TO CLAIM"
    assert cube.feasible == (ratio < 1)
    _report(8, 1, started, f"refined(17,14) ok; cube ratio {float(ratio):.4f} {direction}")


def test_criterion_09_vc_dimension_bound():
    # a coordinate tournament is the sign-pattern coloring together with
    # any of its scramblings, so each trial draws a random reversal mask
    started = time.monotonic()
    rng = random.Random(20240109)
    seen = []
    for trial in range(20):
        d = 2 if trial % 2 == 0 else 3
        n = rng.randint(8, 20)
        ct = coordinate_tournament(random_point_set(n, d, rng))
        mask = {c for c in range(1, ct.k + 1) if rng.random() < 0.5}
        h = domination_hypergraph(scrambled_orientation(ct, mask))
        rep = vc_dimension(h, mode="exact")
        assert rep.exact
        assert (rep.vc + 1) ** d >= 2 ** rep.vc
        seen.append(rep.vc)
    _report(9, 600, started, f"20 exhaustive VC computations, values {sorted(set(seen))}")


def test_criterion_10_discrepancy_bound():
    started = time.monotonic()
    rng = random.Random(20240110)
    primes = (7, 19, 23, 31, 43, 47, 67)
    tournaments = {q: paley_tournament(q) for q in primes}
    checked = 0
    while checked < 10_000:
        q = primes[checked % len(primes)]
        t = tournaments[q]
        a = {v for v in range(q) if rng.random() < 0.5}
        b = {v for v in range(q) if rng.random() < 0.5}
        if not a or not b:
            continue
        assert discrepancy(t, a, b) ** 2 <= len(a) * len(b) * q
        checked += 1
    _report(10, 60, started, "10000 (A,B) pairs within the square-root bound")


def test_criterion_11_pt67_two_paradoxical():
    started = time.monotonic()
    assert is_k_paradoxical(paley_tournament(67), 2)
    _report(11, 1, started, "branch and bound proves no pair dominates PT_67")


def test_criterion_12_permutation_roundtrip():
    started = time.monotonic()
    for n in range(1, 8):
        for pi in itertools.permutations(range(1, n + 1)):
            assert recover_permutation(permutation_tournament(pi)) == pi
    rng = random.Random(20240112)
    for _ in range(1000):
        n = rng.randint(1, 50)
        pi = tuple(rng.sample(range(1, n + 1), n))
        assert recover_permutation(permutation_tournament(pi)) == pi
    _report(12, 60, started, "all |pi|<=7 plus 1000 random up to 50")


def test_criterion_13_majority_colorings():
    started = time.monotonic()
    rng = random.Random(20240113)
    for trial in range(100):
        n = rng.randint(2, 12)
        m = 3 if trial % 2 == 0 else 5
        orders = [rng.sample(range(n), n) for _ in range(m)]
        _, ct = majority_tournament(orders)
        assert verify_transitive_coloring(ct)
    condorcet, _ = majority_tournament([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert condorcet == cyclic_triangle()
    _report(13, 60, started, "100 profiles verified; Condorcet profile is C3")


def test_criterion_14_scrambling_union_certificates():
    started = time.monotonic()
    rng = random.Random(20240114)
    for _ in range(100):
        n, k = rng.randint(2, 15), rng.randint(1, 3)
        ct = random_coloring(random_tournament(n, rng), k, rng)
        res = enclosure_via_scramblings(ct, exact=True)
        assert is_enclosure(ct, res.vertices)
        total = res.size_sum
        assert len(res.vertices) <= total
        assert total <= (1 << k) * max(res.mask_set_sizes.values())
    _report(14, 300, started, "100 certificates verified")
