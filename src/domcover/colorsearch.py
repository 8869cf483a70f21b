"""Deciding k-transitivity and building colored example families.

The searcher assigns colors edge by edge while keeping every color class
transitively closed: whenever a->b and b->c carry the same color, the
closing edge a->c is forced to that color on the spot, and orientations
that make the closure impossible prune the branch.  Color symmetry is
broken canonically (a fresh color may only be opened by the earliest
unassigned edge), so an exhausted search is a proof that no coloring
exists.
"""

from __future__ import annotations

import itertools
import warnings

from .core import (
    ColoredTournament,
    Tournament,
    bits,
    build_tournament,
    color_tournament,
    rainbow_triangle,
    transitive_tournament,
    verify_transitive_coloring,
)
from .errors import (
    BudgetExhaustedError,
    EvenOrderCountError,
    MismatchedDomainsError,
    NotTransitivelyColoredError,
    NotTwoColoredError,
    VertexNotFoundError,
    invariant,
)

SEARCH_BUDGET = 2_000_000


class ValueOrderCycleWarning(UserWarning):
    """Recovery met a cyclic value relation on a valid 2-colored input.

    This should be impossible; an occurrence is logged as a would-be
    counterexample rather than asserted away.
    """


def find_transitive_coloring(
    t: Tournament, k: int, *, budget: int = SEARCH_BUDGET
) -> ColoredTournament | None:
    """A coloring of t with all k classes transitive, or None if none exists.

    None is only returned after exhausting the full (symmetry-reduced)
    search space; running out of budget raises BudgetExhaustedError
    instead, which proves nothing.
    """
    n = t.n
    edges = [(u, v) for u in range(n) for v in bits(t.out[u])]
    # grow the instance one vertex at a time: all edges inside {0..m} come
    # before edges touching m+1, which keeps propagation local and early
    edges.sort(key=lambda e: (max(e), min(e)))
    index = {e: i for i, e in enumerate(edges)}
    color = [0] * len(edges)
    out = [[0] * n for _ in range(k + 1)]  # per color, per vertex, bitmask
    nodes = 0

    def closure_requirements(u: int, v: int, c: int):
        """Edges forced to color c when u->v joins class c."""
        forced = []
        # paths u->v->x need u->x in class c
        for x in bits(out[c][v]):
            forced.append((u, x))
        # paths x->u->v need x->v in class c
        for x in range(n):
            if (out[c][x] >> u) & 1:
                forced.append((x, v))
        return forced

    def assign(u: int, v: int, c: int, trail: list) -> bool:
        """Make u->v color c plus every forced closure; record undo info."""
        stack = [(u, v)]
        while stack:
            a, b = stack.pop()
            eid = index.get((a, b))
            if eid is None:
                return False  # the closing edge is oriented the wrong way
            cur = color[eid]
            if cur == c:
                continue
            if cur != 0:
                return False
            color[eid] = c
            out[c][a] |= 1 << b
            trail.append((eid, a, b, c))
            stack.extend(closure_requirements(a, b, c))
        return True

    def undo(trail: list):
        for eid, a, b, c in trail:
            color[eid] = 0
            out[c][a] &= ~(1 << b)

    def next_unassigned(start: int) -> int:
        i = start
        while i < len(edges) and color[i] != 0:
            i += 1
        return i

    def dfs(pos: int, used: int) -> bool:
        nonlocal nodes
        pos = next_unassigned(pos)
        if pos == len(edges):
            return True
        u, v = edges[pos]
        for c in range(1, min(used + 1, k) + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExhaustedError(budget)
            trail: list = []
            if assign(u, v, c, trail):
                if dfs(pos + 1, max(used, c)):
                    return True
            undo(trail)
        return False

    if not edges:
        return color_tournament(t, max(k, 1), lambda u, v: 1)
    if dfs(0, 0):
        assignment = {e: color[i] for i, e in enumerate(edges)}
        ct = color_tournament(t, k, lambda u, v: assignment[(u, v)])
        invariant(verify_transitive_coloring(ct), "search returned a non-transitive class")
        return ct
    return None


# ---------------------------------------------------------------------------
# permutation tournaments


def permutation_tournament(pi) -> ColoredTournament:
    """T(pi): vertices are positions, edges i->j for i<j, colored by value order.

    Color 1 marks pairs where the values increase with position, color 2
    pairs where they decrease.  Both classes are transitive for any pi.
    """
    values = tuple(pi)
    n = len(values)
    if sorted(values) != list(range(1, n + 1)):
        raise ValueError(f"{values!r} is not a permutation of 1..{n}")
    base = transitive_tournament(n)
    return color_tournament(base, 2, lambda i, j: 1 if values[i] < values[j] else 2)


def recover_permutation(ct: ColoredTournament):
    """Invert permutation_tournament for any transitively 2-colored input.

    Orders the vertices along the (necessarily transitive) base tournament
    and ranks them by the value relation the two colors encode.  Returns
    the value sequence by position, or None if the value relation turned
    out cyclic (never observed; warned as a would-be counterexample).
    """
    if ct.k != 2:
        raise NotTwoColoredError(f"expected 2 colors, got {ct.k}")
    if not verify_transitive_coloring(ct):
        raise NotTransitivelyColoredError("input coloring has a non-transitive class")
    n = ct.n
    t = ct.base
    position = sorted(range(n), key=lambda v: -t.out_degree(v))
    for idx, v in enumerate(position):
        if t.out_degree(v) != n - 1 - idx:
            raise NotTransitivelyColoredError("base tournament is not a total order")

    def value_less(i: int, j: int) -> bool:
        # positions i < j: color 1 means value_i < value_j
        return ct.color_of(position[i], position[j]) == 1

    smaller = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if value_less(i, j):
            smaller[j] += 1
        else:
            smaller[i] += 1
    values = tuple(s + 1 for s in smaller)
    if sorted(values) != list(range(1, n + 1)):
        warnings.warn(
            "cyclic value relation in a transitively 2-colored tournament",
            ValueOrderCycleWarning,
        )
        return None
    return values


# ---------------------------------------------------------------------------
# substitution and example families


def substitute(
    t: ColoredTournament, v: int, h: ColoredTournament
) -> ColoredTournament:
    """Replace vertex v of t by a copy of h.

    Vertices of the copy occupy labels v..v+|h|-1; edges between the copy
    and the rest keep the color and orientation v's edges had.
    """
    if not 0 <= v < t.n:
        raise VertexNotFoundError(f"vertex {v} not in 0..{t.n - 1}")
    k = max(t.k, h.k)
    hn = t.n + h.n - 1

    def old_label(x: int) -> int | None:
        # map a new label back to a vertex of t (None for copy internals)
        if x < v:
            return x
        if x < v + h.n:
            return None
        return x - (h.n - 1)

    tagged = []
    for x in range(hn):
        for y in range(x + 1, hn):
            ox, oy = old_label(x), old_label(y)
            if ox is None and oy is None:
                hx, hy = x - v, y - v
                if h.base.has_edge(hx, hy):
                    tagged.append((x, y, h.colors[hx][hy]))
                else:
                    tagged.append((y, x, h.colors[hy][hx]))
            else:
                tx = ox if ox is not None else v
                ty = oy if oy is not None else v
                if t.base.has_edge(tx, ty):
                    tagged.append((x, y, t.colors[tx][ty]))
                else:
                    tagged.append((y, x, t.colors[ty][tx]))
    from .core import build_colored_tournament

    return build_colored_tournament(hn, k, tagged)


def blowup_c3() -> ColoredTournament:
    """Nine vertices: the rainbow triangle substituted into each of its vertices."""
    seed = rainbow_triangle()
    grown = substitute(seed, 0, seed)       # copy at 0..2, old 1,2 -> 3,4
    grown = substitute(grown, 3, seed)      # copy at 3..5, old 4 -> 6
    grown = substitute(grown, 6, seed)      # copy at 6..8
    invariant(grown.n == 9, f"blow-up has {grown.n} vertices, expected 9")
    return grown


def bipartite_tournament(
    a_size: int, b_size: int, cross_edges
) -> ColoredTournament:
    """Two-part construction dominated by two vertices.

    A = 0..a_size-1, B = a_size..a_size+b_size-1.  Chosen A-B pairs are
    oriented A->B with color 1, the remaining pairs B->A with color 2, and
    each side carries its index-order chain in color 3.  The first vertex
    of each side beats its whole side, so two vertices always dominate; the
    cross pattern is free, which is what drives the VC dimension up.
    """
    if a_size < 1 or b_size < 1:
        raise ValueError("both sides need at least one vertex")
    n = a_size + b_size
    cross = set()
    for x, y in cross_edges:
        if not (0 <= x < a_size and a_size <= y < n):
            raise ValueError(f"cross edge ({x},{y}) does not go from A to B")
        cross.add((x, y))
    edges = []
    for x in range(a_size):
        for y in range(a_size, n):
            edges.append((x, y) if (x, y) in cross else (y, x))
    for side in (range(a_size), range(a_size, n)):
        edges.extend(itertools.combinations(side, 2))
    base = build_tournament(n, edges)

    def color_of(u: int, v: int) -> int:
        if u < a_size and v >= a_size:
            return 1
        if u >= a_size and v < a_size:
            return 2
        return 3

    return color_tournament(base, 3, color_of)


def shattering_bipartite(a_size: int) -> ColoredTournament:
    """bipartite_tournament wired so H(T) shatters all of A: one B vertex
    per subset of A."""
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(a_size), r) for r in range(a_size + 1)
        )
    )
    cross = [
        (x, a_size + j) for j, sub in enumerate(subsets) for x in sub
    ]
    return bipartite_tournament(a_size, len(subsets), cross)


# ---------------------------------------------------------------------------
# majority tournaments


def majority_tournament(orders) -> tuple[Tournament, ColoredTournament]:
    """Orient each pair by majority over an odd list of linear orders.

    Each edge is colored by the set of orders that agree with it; classes
    with equal index sets are transitive, so the coloring always verifies.
    """
    orders = [tuple(o) for o in orders]
    if len(orders) % 2 == 0 or not orders:
        raise EvenOrderCountError(f"need an odd number of orders, got {len(orders)}")
    n = len(orders[0])
    domain = list(range(n))
    for o in orders:
        if sorted(o) != domain:
            raise MismatchedDomainsError(f"order {o!r} is not a permutation of 0..{n - 1}")
    pos = [{v: i for i, v in enumerate(o)} for o in orders]
    majority = (len(orders) + 1) // 2

    edges = {}
    for u, v in itertools.combinations(range(n), 2):
        agree_u = frozenset(i for i, p in enumerate(pos) if p[u] < p[v])
        if len(agree_u) >= majority:
            edges[(u, v)] = agree_u
        else:
            edges[(v, u)] = frozenset(range(len(orders))) - agree_u

    index_sets = sorted({s for s in edges.values()}, key=sorted)
    color_ids = {s: i + 1 for i, s in enumerate(index_sets)}
    base = build_tournament(n, edges.keys())
    ct = color_tournament(base, len(index_sets), lambda u, v: color_ids[edges[(u, v)]])
    return base, ct
