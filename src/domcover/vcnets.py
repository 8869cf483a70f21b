"""VC dimension, shatter functions, and exact half-net feasibility arithmetic.

The feasibility side evaluates, in exact big-integer/rational arithmetic,
the random-halving inequalities that certify "a dominating set of size a
exists" for hypergraphs whose shatter function is cubic (the parity
scramblings of 3-dimensional point sets): draw a+b points from the optimal
fractional transversal, keep the first a, and compare the union bound
against the central binomial term.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import Hypergraph, mask_of, popcount
from .errors import InfeasibleWeightsError, InstanceTooLargeError

VC_EXHAUSTIVE_CEILING = 22
SHATTER_SUBSET_BUDGET = 2_000_000
NETBOUND_SCAN_CEILING = 200  # largest a_max or b_max a feasibility scan takes
NETBOUND_SCAN_DEFAULT = 40  # a_max and b_max of `netbound --scan` when not given
EPSNET_DRAW_BUDGET = 10**7  # largest trials * net_size an epsnet sample takes
SAMPLED_TRIALS_BUDGET = 10**5  # most subsets a sampled scan draws per size
SAMPLED_TRIALS_DEFAULT = 2000  # subsets a sampled scan draws per size when not given


@dataclass(frozen=True)
class ShatterReport:
    vc: int
    witness: frozenset[int] | None
    trace_counts: dict  # subset size -> max distinct traces seen
    exact: bool


def _max_traces(edge_masks, subset: tuple[int, ...]) -> int:
    smask = mask_of(subset)
    return len({m & smask for m in edge_masks})


def _subsets(
    h: Hypergraph, size: int, mode: str, rng: random.Random, trials: int, budget: int
) -> Iterable[tuple[int, ...]]:
    """Every size-subset of h's vertices in exact mode, else `trials` samples from rng."""
    if size > h.n:
        raise ValueError(f"subset size {size} exceeds {h.n} vertices")
    if mode == "exact":
        total = math.comb(h.n, size)
        if total > budget:
            raise InstanceTooLargeError(total, budget, "subset count")
        return itertools.combinations(range(h.n), size)
    if not 1 <= trials <= SAMPLED_TRIALS_BUDGET:
        raise ValueError(f"sampled trials must lie in 1..{SAMPLED_TRIALS_BUDGET}")
    return (tuple(rng.sample(range(h.n), size)) for _ in range(trials))


def vc_dimension(
    h: Hypergraph,
    mode: str = "exact",
    *,
    seed: int = 0,
    trials: int = SAMPLED_TRIALS_DEFAULT,
) -> ShatterReport:
    """Largest shattered subset size, with a witness.

    Exact mode scans every subset of each size until a size admits no
    shattered set; sampled mode only ever certifies lower bounds and is
    flagged by exact=False.
    """
    if mode == "exact" and h.n > VC_EXHAUSTIVE_CEILING:
        raise InstanceTooLargeError(h.n, VC_EXHAUSTIVE_CEILING, "hypergraph")
    masks = h.edge_masks
    # 2^h distinct traces must come from n hyperedges, so h < log2(n)+1
    max_h = max(1, math.ceil(math.log2(len(masks) + 1)))
    vc, witness = 0, None
    counts: dict[int, int] = {}
    rng = random.Random(seed)
    for size in range(1, min(max_h, h.n) + 1):
        best = 0
        shattered = None
        want = 1 << size
        for subset in _subsets(h, size, mode, rng, trials, SHATTER_SUBSET_BUDGET):
            got = _max_traces(masks, subset)
            if got > best:
                best = got
                if got == want:
                    shattered = subset
                    break
        counts[size] = best
        if shattered is None:
            break
        vc, witness = size, frozenset(shattered)
    return ShatterReport(
        vc=vc, witness=witness, trace_counts=counts, exact=(mode == "exact")
    )


def shatter_function(
    h: Hypergraph,
    n: int,
    mode: str = "exact",
    *,
    seed: int = 0,
    trials: int = 2000,
    budget: int = SHATTER_SUBSET_BUDGET,
) -> int:
    """Max number of distinct traces over subsets of the given size.

    Sampled mode is a lower-bound estimate only.
    """
    if n == 0:
        return 1
    subsets = _subsets(h, n, mode, random.Random(seed), trials, budget)
    return max(_max_traces(h.edge_masks, s) for s in subsets)


def shatter_function_k(
    h: Hypergraph,
    n: int,
    k: int,
    mode: str = "exact",
    *,
    seed: int = 0,
    trials: int = 2000,
    budget: int = SHATTER_SUBSET_BUDGET,
) -> int:
    """Like shatter_function, counting only traces of cardinality exactly k."""
    best = 0
    for subset in _subsets(h, n, mode, random.Random(seed), trials, budget):
        smask = mask_of(subset)
        traces = {t for m in h.edge_masks if popcount(t := m & smask) == k}
        best = max(best, len(traces))
    return best


def parity_trace_bound(n: int, k: int) -> int:
    """Closed-form bound on the number of size-k traces over n points
    for hypergraphs whose traces are cut out by 3 coordinate ranks.

    Counts rank cells (x, y, z) in [0, n]^3 with x+y+z of the right parity,
    after removing the cells that cannot reach k hits from below or from
    above; the final halving rounds down.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    cells = (n + 1) ** 3
    too_low = math.comb(k + 2, 3)
    too_high = math.comb(n - k + 1, 3)
    return (cells - too_low - too_high) // 2


@dataclass(frozen=True)
class FeasibilityReport:
    a: int
    b: int
    variant: str  # "cube" | "halved" | "refined"
    lhs: Fraction
    rhs: Fraction
    feasible: bool
    implied_bound: int  # dominating sets of this size exist when feasible

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "variant": self.variant,
            "lhs": f"{self.lhs.numerator}/{self.lhs.denominator}",
            "rhs": f"{self.rhs.numerator}/{self.rhs.denominator}",
            "feasible": self.feasible,
            "implied_bound": self.implied_bound,
        }


def epsnet_feasibility(a: int, b: int, variant: str = "refined") -> FeasibilityReport:
    """Exact union-bound comparison for the a+b random-halving argument.

    With n = a+b draws split into a net candidate of size a and a test set
    of size b, the argument certifies a half-net of size a when lhs < rhs:

      cube:    2^b * (n+1)^3          vs  C(n, b)
      halved:  2^b * ceil((n+1)^3/2)  vs  C(n, b)
      refined: parity_trace_bound(n,b) vs C(n, b) / 2^b
    """
    if a < 1 or b < 1:
        raise ValueError("both a and b must be at least 1")
    n = a + b
    if variant == "cube":
        lhs = Fraction((1 << b) * (n + 1) ** 3)
        rhs = Fraction(math.comb(n, b))
    elif variant == "halved":
        lhs = Fraction((1 << b) * (((n + 1) ** 3 + 1) // 2))
        rhs = Fraction(math.comb(n, b))
    elif variant == "refined":
        lhs = Fraction(parity_trace_bound(n, b))
        rhs = Fraction(math.comb(n, b), 1 << b)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return FeasibilityReport(
        a=a, b=b, variant=variant, lhs=lhs, rhs=rhs,
        feasible=lhs < rhs, implied_bound=a,
    )


def feasibility_scan(
    a_max: int, b_max: int, variant: str = "refined"
) -> list[FeasibilityReport]:
    """All feasible (a, b) reports with a <= a_max, b <= b_max."""
    for bound in (a_max, b_max):
        if not 1 <= bound <= NETBOUND_SCAN_CEILING:
            raise ValueError(f"scan bounds must lie in 1..{NETBOUND_SCAN_CEILING}")
    out = []
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            rep = epsnet_feasibility(a, b, variant)
            if rep.feasible:
                out.append(rep)
    return out


def best_feasible_bound(a_max: int, b_max: int, variant: str) -> int | None:
    """Smallest certified net size over the scanned range, if any."""
    sizes = [r.a for r in feasibility_scan(a_max, b_max, variant)]
    return min(sizes) if sizes else None


# ---------------------------------------------------------------------------
# empirical half-net sampling


@dataclass(frozen=True)
class EpsnetReport:
    net_size: int
    tail_size: int
    trials: int
    successes: int
    seed: int
    heavy_edges: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


def epsnet_sample(
    h: Hypergraph,
    weights,
    net_size: int,
    tail_size: int,
    trials: int,
    seed: int = 0,
) -> EpsnetReport:
    """Empirical success rate of the random half-net draw.

    Per trial, net_size points are drawn i.i.d. from the normalized weight
    vector (inverse CDF over Python's Mersenne Twister; trial t uses
    random.Random(seed + t), so runs reproduce exactly).  A trial succeeds
    when the draws hit every hyperedge of fractional measure at least 1/2.
    The tail_size further draws of the half-net argument cannot change
    that verdict, so they are not drawn.
    """
    weights = list(getattr(weights, "weights", weights))
    if len(weights) != h.n or any(w < 0 for w in weights):
        raise InfeasibleWeightsError("need one nonnegative weight per vertex")
    for members in h.edges:
        if sum(weights[v] for v in members) < 1:
            raise InfeasibleWeightsError("weights do not cover every hyperedge")
    if trials < 1:
        raise ValueError("need at least one trial")
    if net_size < 1 or tail_size < 0:
        raise ValueError("need a net size of at least 1 and a tail size of at least 0")
    if trials * net_size > EPSNET_DRAW_BUDGET:
        raise ValueError(f"trials * net size must be at most {EPSNET_DRAW_BUDGET}")
    total = sum(weights)
    heavy = [
        m for m, members in zip(h.edge_masks, h.edges)
        if sum(weights[v] for v in members) * 2 >= total
    ]
    cdf = list(itertools.accumulate(float(w / total) for w in weights))
    cdf[-1] = 1.0

    import bisect

    successes = 0
    for t in range(trials):
        rng = random.Random(seed + t)
        net = mask_of(bisect.bisect_right(cdf, rng.random()) for _ in range(net_size))
        if all(m & net for m in heavy):
            successes += 1
    return EpsnetReport(
        net_size=net_size,
        tail_size=tail_size,
        trials=trials,
        successes=successes,
        seed=seed,
        heavy_edges=len(heavy),
    )
