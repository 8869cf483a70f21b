"""Exact and heuristic optimization over tournaments and their hypergraphs.

Minimum dominating sets (branch and bound over the domination hypergraph),
minimum enclosure sets (cardinality-increasing exhaustive search), the
scrambling-union enclosure construction, and the fractional transversal /
matching LP pair in exact-rational or approximate mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import simplex
from .core import (
    ColoredTournament,
    Hypergraph,
    Tournament,
    all_color_masks,
    bits,
    dominates,
    domination_hypergraph,
    is_enclosure,
    popcount,
    scrambled_orientation,
)
from .errors import InstanceTooLargeError, InvariantError, NonConvergenceError, invariant

EXACT_DOM_CEILING = 100
EXACT_LP_CEILING = 40
ENCLOSURE_CEILING = 25
SCRAMBLING_COLOR_CEILING = 8


@dataclass(frozen=True)
class DominationCertificate:
    vertices: frozenset[int]
    size: int
    optimal: bool
    lower_bound_used: str


@dataclass(frozen=True)
class NoSetWithinLimit:
    """Exact search proved that no dominating set of size <= limit exists."""

    limit: int
    lower_bound: int


def greedy_dominating_set(t: Tournament) -> frozenset[int]:
    """Repeatedly take the vertex covering the most undominated vertices.

    Ties go to the lowest vertex index, so the result is deterministic.
    """
    cover = [(1 << v) | t.out[v] for v in range(t.n)]
    uncovered = t.full_mask
    chosen = []
    while uncovered:
        best, best_gain = -1, -1
        for v in range(t.n):
            gain = popcount(cover[v] & uncovered)
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.append(best)
        uncovered &= ~cover[best]
    return frozenset(chosen)


def _cover_lower_bound(uncovered: int, cover) -> int:
    """ceil(|uncovered| / best single-vertex coverage); admissible."""
    need = popcount(uncovered)
    if need == 0:
        return 0
    best = 1
    for m in cover:
        g = popcount(m & uncovered)
        if g > best:
            best = g
    return -(-need // best)


def min_dominating_set(
    t: Tournament,
    limit: int | None = None,
    *,
    ceiling: int = EXACT_DOM_CEILING,
) -> Union[DominationCertificate, NoSetWithinLimit]:
    """Minimum dominating set by branch and bound over set cover on H(t).

    Branches on the hyperedge (undominated vertex) with the fewest
    candidate dominators; prunes with a coverage bound, seeds with the
    greedy solution, and with ceil(tau*) from the exact LP on small
    instances.  With `limit` given, proves dom(t) > limit instead of
    returning a set when the optimum exceeds it.
    """
    n = t.n
    if n > ceiling:
        raise InstanceTooLargeError(n, ceiling, "tournament")
    cover = [(1 << v) | t.out[v] for v in range(t.n)]
    hyper = [(1 << v) | t.in_masks[v] for v in range(t.n)]  # dominators of v

    greedy = sorted(greedy_dominating_set(t))
    best_set = list(greedy)
    best = len(greedy)
    bound_desc = f"greedy={best}"

    root_lb = 1
    if n <= EXACT_LP_CEILING:
        tau = fractional_transversal(domination_hypergraph(t), mode="exact").value
        root_lb = -(-tau.numerator // tau.denominator)
        bound_desc += f", lp_ceil={root_lb}"

    cap = best if limit is None else min(best, limit + 1)
    full = t.full_mask

    def dfs(uncovered: int, chosen: list[int], cap: int) -> tuple[int, list[int] | None]:
        """Try to beat `cap`: returns (best_size_found, set) with size < cap, else (cap, None)."""
        if not uncovered:
            return len(chosen), list(chosen)
        depth = len(chosen)
        if depth + 1 >= cap:
            return cap, None
        # cheapest uncovered vertex = fewest candidate dominators
        pick, pick_mask, pick_size = -1, 0, n + 1
        m = uncovered
        while m:
            low = m & -m
            v = low.bit_length() - 1
            h = hyper[v]
            s = popcount(h)
            if s < pick_size:
                pick, pick_mask, pick_size = v, h, s
            m ^= low
        if depth + _cover_lower_bound(uncovered, cover) >= cap:
            return cap, None
        cands = sorted(bits(pick_mask), key=lambda v: -popcount(cover[v] & uncovered))
        found = None
        for v in cands:
            chosen.append(v)
            sub_cap, sub = dfs(uncovered & ~cover[v], chosen, cap)
            chosen.pop()
            if sub is not None:
                cap, found = sub_cap, sub
                if cap <= depth + 1 or cap <= root_lb:
                    break
        return cap, found

    if root_lb < cap:
        size, found = dfs(full, [], cap)
        if found is not None:
            best, best_set = size, found

    if limit is not None and best > limit:
        return NoSetWithinLimit(limit=limit, lower_bound=max(limit + 1, root_lb))
    return DominationCertificate(
        vertices=frozenset(best_set),
        size=best,
        optimal=True,
        lower_bound_used=bound_desc,
    )


def exhaustive_min_dominating_set(t: Tournament) -> frozenset[int]:
    """Independent oracle: enumerate subsets by increasing cardinality."""
    for size in range(1, t.n + 1):
        for combo in itertools.combinations(range(t.n), size):
            if dominates(t, combo):
                return frozenset(combo)
    raise InvariantError("V(t) always dominates")


# ---------------------------------------------------------------------------
# fractional transversal / matching LP


@dataclass(frozen=True)
class FractionalSolution:
    weights: tuple
    value: Fraction | float
    mode: str
    dual_value: Fraction | float


def fractional_transversal(
    h: Hypergraph, mode: str = "exact", *, ceiling: int = EXACT_LP_CEILING
) -> FractionalSolution:
    """Optimal fractional transversal of h (tau*).

    Exact mode solves the matching LP with the rational simplex and reads
    the transversal off its exactly checked dual, so value and dual_value
    agree by strong duality; the weights are one optimal transversal, not
    a canonical one.  Approximate mode runs HiGHS and certifies a
    primal/dual gap below 1e-9.
    """
    if mode == "exact":
        if h.n > ceiling:
            raise InstanceTooLargeError(h.n, ceiling, "hypergraph")
        return _exact_transversal(h)
    if mode == "approximate":
        return _approximate_transversal(h)
    raise ValueError(f"unknown mode {mode!r}")


def _incidence(h: Hypergraph):
    rows = []
    for m in h.edge_masks:
        rows.append([1 if (m >> v) & 1 else 0 for v in range(h.n)])
    return rows


def _exact_transversal(h: Hypergraph) -> FractionalSolution:
    inc = _incidence(h)
    # matching LP: max 1.y st inc^T y <= 1.  It starts feasible from the
    # slack basis (no phase 1), and the dual that solve_lp_max checks
    # exactly is an optimal covering of every hyperedge: tau* = nu*.
    cols = [[row[v] for row in inc] for v in range(h.n)]
    nu, _, x = simplex.solve_lp_max([1] * len(inc), cols, [1] * h.n)
    return FractionalSolution(weights=tuple(x), value=nu, mode="exact", dual_value=nu)


def _approximate_transversal(h: Hypergraph, tol: float = 1e-9) -> FractionalSolution:
    from scipy.optimize import linprog

    inc = _incidence(h)
    n = h.n
    res = linprog(
        c=[1.0] * n,
        A_ub=[[-a for a in row] for row in inc],
        b_ub=[-1.0] * len(inc),
        bounds=[(0, None)] * n,
        method="highs",
    )
    if not res.success:
        raise NonConvergenceError(float("nan"), tol)
    primal = float(res.fun)
    duals = [max(0.0, -m) for m in res.ineqlin.marginals]
    # dual objective of the covering LP: sum of edge duals, feasible by HiGHS
    dual = sum(duals)
    gap = abs(primal - dual)
    if gap > tol:
        raise NonConvergenceError(gap, tol)
    return FractionalSolution(
        weights=tuple(float(v) for v in res.x),
        value=primal,
        mode="approximate",
        dual_value=dual,
    )


def verify_fractional_transversal(h: Hypergraph, sol: FractionalSolution) -> bool:
    if any(w < 0 or w > 1 for w in sol.weights):
        return False
    if sum(sol.weights) != sol.value and sol.mode == "exact":
        return False
    for members in h.edges:
        total = sum(sol.weights[v] for v in members)
        if sol.mode == "exact":
            if total < 1:
                return False
        elif total < 1 - 1e-9:
            return False
    return True


# ---------------------------------------------------------------------------
# enclosure sets


def min_enclosure_set(
    ct: ColoredTournament, *, ceiling: int = ENCLOSURE_CEILING
) -> frozenset[int]:
    """Smallest S such that every outside vertex is between two members of S.

    Plain cardinality-increasing exhaustive search; the whole vertex set
    always works, so the search terminates.
    """
    n = ct.n
    if n > ceiling:
        raise InstanceTooLargeError(n, ceiling, "colored tournament")
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if is_enclosure(ct, combo):
                return frozenset(combo)
    return frozenset(range(n))


@dataclass(frozen=True)
class ScramblingEnclosure:
    """Union of dominating sets over all 2^k color reversals."""

    vertices: frozenset[int]
    mask_set_sizes: dict  # frozenset color mask -> size of the dominating set used

    @property
    def size_sum(self) -> int:
        return sum(self.mask_set_sizes.values())


def enclosure_via_scramblings(
    ct: ColoredTournament,
    *,
    exact: bool = True,
    ceiling: int = EXACT_DOM_CEILING,
) -> ScramblingEnclosure:
    """Enclosure set built from one dominating set per scrambling.

    For every subset I of the colors, reverse the classes in I and take a
    dominating set of the result (exact by default, greedy otherwise); the
    union over all 2^k subsets encloses the original tournament, which is
    checked before returning.
    """
    if ct.k > SCRAMBLING_COLOR_CEILING:
        raise InstanceTooLargeError(ct.k, SCRAMBLING_COLOR_CEILING, "color count")
    union: set[int] = set()
    sizes = {}
    for mask in all_color_masks(ct.k):
        scrambled = scrambled_orientation(ct, mask)
        if exact:
            cert = min_dominating_set(scrambled, ceiling=ceiling)
            dom_set = cert.vertices
        else:
            dom_set = greedy_dominating_set(scrambled)
        union |= dom_set
        sizes[mask] = len(dom_set)
    result = ScramblingEnclosure(vertices=frozenset(union), mask_set_sizes=sizes)
    invariant(is_enclosure(ct, result.vertices), "scrambling union failed to enclose")
    invariant(len(result.vertices) <= result.size_sum, "union larger than its parts")
    return result
