import math
import random
from fractions import Fraction

import pytest

from domcover.core import (
    cyclic_triangle,
    domination_hypergraph,
    transitive_tournament,
)
from domcover.colorsearch import shattering_bipartite
from domcover.errors import InfeasibleWeightsError, InstanceTooLargeError
from domcover.geometry import (
    coordinate_tournament,
    pattern_to_color,
    random_point_set,
    scrambled_orientation,
)
from domcover.solvers import fractional_transversal, min_dominating_set
from domcover.vcnets import (
    best_feasible_bound,
    epsnet_feasibility,
    epsnet_sample,
    feasibility_scan,
    parity_trace_bound,
    shatter_function,
    shatter_function_k,
    vc_dimension,
)


def parity_hypergraph(n, rng):
    """Domination hypergraph of the even-parity scrambling of random points."""
    ps = random_point_set(n, 3, rng)
    ct = coordinate_tournament(ps)
    mask = {pattern_to_color(3, ("+", "-")), pattern_to_color(3, ("-", "+"))}
    return domination_hypergraph(scrambled_orientation(ct, mask))


def test_vc_of_nested_chain_is_one():
    rep = vc_dimension(domination_hypergraph(transitive_tournament(6)))
    assert rep.vc == 1 and rep.exact


def test_vc_of_c3_is_one():
    rep = vc_dimension(domination_hypergraph(cyclic_triangle()))
    assert rep.vc == 1
    # no 2-subset is shattered: only 3 hyperedges but 4 traces needed
    assert rep.trace_counts[2] < 4


def test_vc_witness_is_shattered():
    h = domination_hypergraph(shattering_bipartite(3).base)
    rep = vc_dimension(h)
    assert rep.vc >= 3
    smask = 0
    for v in rep.witness:
        smask |= 1 << v
    traces = {m & smask for m in h.edge_masks}
    assert len(traces) == 1 << len(rep.witness)


def test_vc_grows_with_the_two_part_construction():
    # free choice of the cross edges drives the VC dimension up without
    # losing 2-domination; report the observed growth
    observed = []
    for a in (1, 2, 3):
        ct = shattering_bipartite(a)
        rep = vc_dimension(domination_hypergraph(ct.base))
        assert min_dominating_set(ct.base).size <= 2
        observed.append(rep.vc)
        assert rep.vc >= a
    assert observed == sorted(observed)
    print(f"two-part construction VC growth: {observed}")


def test_vc_bound_for_coordinate_tournaments():
    rng = random.Random(61)
    for d in (2, 3):
        for _ in range(3):
            ct = coordinate_tournament(random_point_set(14, d, rng))
            mask = {c for c in range(1, ct.k + 1) if rng.random() < 0.5}
            h = domination_hypergraph(scrambled_orientation(ct, mask))
            rep = vc_dimension(h)
            assert (rep.vc + 1) ** d >= 2 ** rep.vc


def test_vc_exhaustive_ceiling():
    with pytest.raises(InstanceTooLargeError):
        vc_dimension(domination_hypergraph(transitive_tournament(23)))


def test_vc_sampled_mode_is_lower_bound():
    h = domination_hypergraph(shattering_bipartite(3).base)
    sampled = vc_dimension(h, mode="sampled", seed=3, trials=300)
    assert not sampled.exact
    assert sampled.vc <= vc_dimension(h).vc


def test_shatter_function_basics():
    h = domination_hypergraph(cyclic_triangle())
    assert shatter_function(h, 0) == 1
    assert shatter_function(h, 2) == 3
    for n in range(1, 4):
        assert shatter_function(h, n - 1) <= shatter_function(h, n)
    with pytest.raises(ValueError):
        shatter_function(h, 5)


def test_shatter_function_monotone_nondecreasing():
    rng = random.Random(2)
    h = parity_hypergraph(10, rng)
    values = [shatter_function(h, n) for n in range(h.n + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_shatter_function_k_pointwise_below_full():
    rng = random.Random(9)
    h = parity_hypergraph(9, rng)
    for n in (2, 4, 6):
        full = shatter_function(h, n)
        for k in range(n + 1):
            assert shatter_function_k(h, n, k) <= full
    assert shatter_function_k(h, 4, 0) <= 1


def test_parity_shatter_cubic_bound():
    rng = random.Random(10)
    for size in (8, 11):
        h = parity_hypergraph(size, rng)
        for n in (3, 5, 7):
            assert shatter_function(h, n) <= (n + 1) ** 3
            for k in range(n + 1):
                assert shatter_function_k(h, n, k) <= parity_trace_bound(n, k)


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


def test_binomials_agree_across_paths():
    for n in range(0, 45):
        for k in range(0, n + 1):
            assert binomial_pascal(n, k) == binomial_multiplicative(n, k) == math.comb(n, k)


def test_parity_trace_bound_reference_value():
    # (32^3 - C(16,3) - C(18,3)) / 2 = (32768 - 560 - 816) / 2
    assert parity_trace_bound(31, 14) == 15696


def test_parity_trace_bound_k_zero_plugin():
    n = 9
    assert parity_trace_bound(n, 0) == ((n + 1) ** 3 - math.comb(n + 1, 3)) // 2


def test_parity_trace_bound_halved_sanity():
    for n in range(0, 51):
        for k in range(0, n + 1):
            assert parity_trace_bound(n, k) <= ((n + 1) ** 3 + 1) // 2


def test_feasibility_refined_17_14():
    rep = epsnet_feasibility(17, 14, "refined")
    assert rep.feasible
    assert rep.lhs == 15696
    assert rep.rhs == Fraction(math.comb(31, 14), 2**14)
    assert rep.implied_bound == 17


def test_feasibility_cube_19_19_exact_ratio():
    rep = epsnet_feasibility(19, 19, "cube")
    ratio = rep.lhs / rep.rhs
    assert rep.lhs == Fraction(2**19 * 39**3)
    assert rep.rhs == Fraction(math.comb(38, 19))
    assert ratio == Fraction(2**19 * 39**3, math.comb(38, 19))
    assert rep.feasible == (ratio < 1)


def test_feasibility_halved_18_18():
    assert epsnet_feasibility(18, 18, "halved").feasible


def test_feasibility_smallest_case_is_honest():
    rep = epsnet_feasibility(1, 1, "refined")
    assert rep.lhs == parity_trace_bound(2, 1)
    assert rep.feasible == (rep.lhs < rep.rhs)


def test_feasibility_scan_and_best_bound():
    best = best_feasible_bound(20, 20, "refined")
    assert best is not None
    reports = feasibility_scan(20, 20, "refined")
    assert all(r.feasible for r in reports)
    assert min(r.a for r in reports) == best


def test_feasibility_json_shape():
    payload = epsnet_feasibility(17, 14, "refined").to_json_dict()
    assert payload["lhs"] == "15696/1"
    assert payload["feasible"] is True


def test_epsnet_chain_always_succeeds():
    h = domination_hypergraph(transitive_tournament(4))
    sol = fractional_transversal(h)
    rep = epsnet_sample(h, sol, 1, 1, trials=50, seed=5)
    assert rep.success_rate == 1.0


def test_epsnet_c3_matches_exact_oracle():
    # uniform weights: the 2-point net hits all three pair-edges exactly
    # when the draws differ; enumeration over 9 outcomes gives 6/9
    h = domination_hypergraph(cyclic_triangle())
    sol = fractional_transversal(h)
    rep = epsnet_sample(h, sol, 2, 2, trials=4000, seed=12)
    assert 0 < rep.success_rate < 1
    assert abs(rep.success_rate - Fraction(2, 3)) < 0.05


def test_epsnet_deterministic_under_seed():
    h = domination_hypergraph(cyclic_triangle())
    sol = fractional_transversal(h)
    a = epsnet_sample(h, sol, 2, 2, trials=200, seed=3)
    b = epsnet_sample(h, sol, 2, 2, trials=200, seed=3)
    assert a == b


def test_epsnet_rejects_infeasible_weights():
    h = domination_hypergraph(cyclic_triangle())
    with pytest.raises(InfeasibleWeightsError):
        epsnet_sample(h, [0, 0, 0], 2, 2, trials=10)
    with pytest.raises(InfeasibleWeightsError):
        epsnet_sample(h, [1, 1], 2, 2, trials=10)


def test_epsnet_parity_hypergraph_size_17_succeeds_sometimes():
    rng = random.Random(31)
    h = parity_hypergraph(25, rng)
    sol = fractional_transversal(h, mode="exact")
    rep = epsnet_sample(h, sol, 17, 14, trials=60, seed=8)
    assert rep.success_rate > 0


def test_observed_parity_domination_stays_under_17():
    # the refined certificate at (17, 14) is what guarantees this bound
    assert epsnet_feasibility(17, 14, "refined").feasible
    rng = random.Random(77)
    for _ in range(5):
        h = parity_hypergraph(rng.randint(8, 30), rng)
        # transversal number of the parity hypergraph = domination number
        from domcover.core import Tournament

        masks = h.edge_masks
        n = h.n
        ins = [m & ~(1 << v) for v, m in enumerate(masks)]
        out = [0] * n
        for v, m in enumerate(ins):
            for u in range(n):
                if (m >> u) & 1:
                    out[u] |= 1 << v
        dom = min_dominating_set(Tournament(n, tuple(out))).size
        assert dom <= 17
