"""Exact and heuristic optimization over tournaments and their hypergraphs.

Minimum dominating sets (branch and bound over the domination hypergraph),
minimum enclosure sets (cardinality-increasing exhaustive search), the
scrambling-union enclosure construction, and the fractional transversal /
matching LP pair, solved exactly in rationals.
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
    is_enclosure,
    popcount,
    scrambled_orientations,
)
from .errors import InstanceTooLargeError, InvariantError, invariant

EXACT_DOM_CEILING = 100
EXACT_LP_CEILING = 40
ENCLOSURE_CEILING = 25
SCRAMBLING_COLOR_CEILING = 8


@dataclass(frozen=True)
class DominationCertificate:
    vertices: frozenset[int]
    size: int
    optimal: bool


@dataclass(frozen=True)
class NoSetWithinLimit:
    """Exact search proved that no dominating set of size <= limit exists."""

    limit: int
    lower_bound: int


def greedy_dominating_set(t: Tournament) -> frozenset[int]:
    """Repeatedly take the vertex covering the most undominated vertices.

    Ties go to the lowest vertex index, so the result is deterministic.
    """
    cover = t.closed_out
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


def _dominators(uncovered: int, hyper, full: int) -> int:
    """D(U): the vertices that dominate every vertex of `uncovered`."""
    d = full
    while uncovered and d:
        low = uncovered & -uncovered
        d &= hyper[low.bit_length() - 1]
        uncovered ^= low
    return d


def min_dominating_set(
    t: Tournament,
    limit: int | None = None,
    *,
    ceiling: int = EXACT_DOM_CEILING,
) -> Union[DominationCertificate, NoSetWithinLimit]:
    """Minimum dominating set by branch and bound over set cover on H(t).

    Branches on the hyperedge (undominated vertex) with the fewest
    candidate dominators; seeds with the greedy solution and prunes with
    the coverage bound ceil(|uncovered| / best coverage).  At the root
    that bound is 1 when a vertex beats all others and 2 otherwise, which
    is ceil(tau*) on every tournament, so no LP is needed.

    The last level is finished by dominator intersection: when one more
    vertex may be chosen, the uncovered set U is finished exactly by the
    vertices of D(U), the AND of the dominator masks of U, and the lowest
    one is taken.  One level up, each candidate's child is finished the
    same way inline, with no coverage bound or candidate sort.  Both rules
    return the set the generic search would, so certificates do not
    depend on them.  With `limit` given, proves dom(t) > limit instead of
    returning a set when the optimum exceeds it.
    """
    n = t.n
    if ceiling < 1:
        raise ValueError(f"ceiling must be at least 1, got {ceiling}")
    if n > ceiling:
        raise InstanceTooLargeError(n, ceiling, "tournament")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    full = t.full_mask
    cover = t.closed_out
    # dominators of v: v and its in-neighbours, the complement of out[v]
    hyper = [full ^ m for m in t.out]

    greedy = sorted(greedy_dominating_set(t))
    best_set = list(greedy)
    best = len(greedy)
    # the root coverage bound: a vertex beats at least (n-1)/2 others, so
    # it is 2 unless greedy's first vertex already dominates everything
    root_lb = min(best, 2)
    cap = best if limit is None else min(best, limit + 1)

    def dfs(uncovered: int, chosen: list[int], cap: int) -> tuple[int, list[int] | None]:
        """Try to beat `cap`: returns (best_size_found, set) with size < cap, else (cap, None)."""
        if not uncovered:
            return len(chosen), list(chosen)
        depth = len(chosen)
        if depth + 1 >= cap:
            return cap, None
        if depth + 2 == cap:
            # one vertex left: it finishes U iff it lies in D(U).  Every such
            # vertex ties on the sort key below, so the generic search would
            # pick D(U)'s lowest bit.
            d = _dominators(uncovered, hyper, full)
            if not d:
                return cap, None
            return depth + 1, chosen + [(d & -d).bit_length() - 1]
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
        if depth + 3 == cap:
            # every child is a final level, so finish each one inline.  The
            # answer is the finisher the sorted order below would reach
            # first: fewest vertices left, then lowest index.  Failing nodes
            # thus need neither the sort nor the coverage bound.
            best_rem, best_pair = n + 1, None
            for v in bits(pick_mask):
                rem = uncovered & ~cover[v]
                if not rem:
                    return depth + 1, chosen + [v]
                r = popcount(rem)
                if r < best_rem:
                    d = _dominators(rem, hyper, full)
                    if d:
                        best_rem, best_pair = r, [v, (d & -d).bit_length() - 1]
            if best_pair is None:
                return cap, None
            return depth + 2, chosen + best_pair
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
    return DominationCertificate(vertices=frozenset(best_set), size=best, optimal=True)


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
    weights: tuple[Fraction, ...]
    value: Fraction
    mode: str  # always "exact"
    dual_value: Fraction  # equals value by strong duality


def fractional_transversal(h: Hypergraph, mode: str = "exact") -> FractionalSolution:
    """Optimal fractional transversal of h (tau*), in exact rationals.

    Solves the matching LP max 1.y st inc^T y <= 1 with the rational
    simplex.  It starts feasible from the slack basis (no phase 1), and
    the dual that solve_lp_max checks exactly is an optimal covering of
    every hyperedge, so tau* = nu* and value equals dual_value.  The
    weights are one optimal transversal, not a canonical one.
    """
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}; only 'exact' is supported")
    if h.n > EXACT_LP_CEILING:
        raise InstanceTooLargeError(h.n, EXACT_LP_CEILING, "hypergraph")
    masks = h.edge_masks
    cols = [[(m >> v) & 1 for m in masks] for v in range(h.n)]
    nu, _, x = simplex.solve_lp_max([1] * len(masks), cols, [1] * h.n)
    return FractionalSolution(weights=tuple(x), value=nu, mode="exact", dual_value=nu)


def verify_fractional_transversal(h: Hypergraph, sol: FractionalSolution) -> bool:
    if any(w < 0 or w > 1 for w in sol.weights):
        return False
    if sum(sol.weights) != sol.value:
        return False
    return all(sum(sol.weights[v] for v in members) >= 1 for members in h.edges)


# ---------------------------------------------------------------------------
# enclosure sets


def min_enclosure_set(ct: ColoredTournament) -> frozenset[int]:
    """Smallest S such that every outside vertex is between two members of S.

    Plain cardinality-increasing exhaustive search; the whole vertex set
    always works, so the search terminates.
    """
    n = ct.n
    if n > ENCLOSURE_CEILING:
        raise InstanceTooLargeError(n, ENCLOSURE_CEILING, "colored tournament")
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
    ct: ColoredTournament, *, exact: bool = True
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
    for mask, scrambled in zip(all_color_masks(ct.k), scrambled_orientations(ct)):
        if exact:
            dom_set = min_dominating_set(scrambled).vertices
        else:
            dom_set = greedy_dominating_set(scrambled)
        union |= dom_set
        sizes[mask] = len(dom_set)
    result = ScramblingEnclosure(vertices=frozenset(union), mask_set_sizes=sizes)
    invariant(is_enclosure(ct, result.vertices), "scrambling union failed to enclose")
    invariant(len(result.vertices) <= result.size_sum, "union larger than its parts")
    return result
