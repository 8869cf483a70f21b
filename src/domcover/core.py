"""Tournaments, colored tournaments, and their verification primitives.

Vertices are dense integers 0..n-1.  Orientation is stored as one bitmask
per vertex (``out[v]`` has bit ``w`` set iff the edge v->w exists), which
makes edge queries, domination checks and set operations cheap.  Colors
are 1-based integers 1..k; a coloring need not use every color.  A colored
tournament stores only its classes, one out-mask per class per vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import xor
from typing import Iterable, Iterator

from .errors import (
    DuplicatePairError,
    InstanceTooLargeError,
    MissingPairError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
)

popcount = int.bit_count


def bits(mask: int) -> Iterator[int]:
    """Iterate over the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Tournament:
    """Complete antisymmetric orientation on n labeled vertices.

    Constructors must orient each pair u != v exactly once and set no bit v
    in out[v]; in_masks reads the in-neighbors off as the complement.
    """

    n: int
    out: tuple[int, ...]

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        full = self.full_mask
        return tuple(full ^ (1 << v) ^ m for v, m in enumerate(self.out))

    @cached_property
    def closed_out(self) -> tuple[int, ...]:
        """closed_out[v]: v and the vertices it beats, the set v dominates."""
        return tuple([(1 << v) | m for v, m in enumerate(self.out)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.out[u] >> v) & 1)

    def out_degree(self, v: int) -> int:
        return popcount(self.out[v])

    def out_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.out[v]))

    def in_neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.in_masks[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.out[u]):
                yield (u, v)

    def reverse(self) -> "Tournament":
        return Tournament(self.n, self.in_masks)


def build_tournament(n: int, edges: Iterable[tuple[int, int]]) -> Tournament:
    """Validate an explicit edge list: each unordered pair oriented exactly once."""
    out = [0] * n
    seen = [0] * n  # seen[u] bit v: unordered pair {u,v} already oriented
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError((u, v))
        if u == v:
            raise SelfLoopError((u, v))
        if (seen[u] >> v) & 1:
            raise DuplicatePairError((u, v))
        seen[u] |= 1 << v
        seen[v] |= 1 << u
        out[u] |= 1 << v
    full = (1 << n) - 1
    for u in range(n):
        missing = full & ~(seen[u] | (1 << u))
        if missing:
            v = next(bits(missing))
            raise MissingPairError((u, v))
    return Tournament(n, tuple(out))


def transitive_tournament(n: int) -> Tournament:
    """The total order 0 -> 1 -> ... -> n-1."""
    full = (1 << n) - 1
    return Tournament(n, tuple((full >> (v + 1)) << (v + 1) for v in range(n)))


def random_tournament(n: int, rng) -> Tournament:
    out = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return Tournament(n, tuple(out))


def tournament_from_bits(n: int, orientation_bits: int) -> Tournament:
    """Decode a tournament from one orientation bit per pair u<v.

    Bit index runs over pairs in lexicographic order; a set bit orients
    u -> v.  Used for exhaustive enumeration of all tournaments on n vertices.
    """
    out = [0] * n
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (orientation_bits >> idx) & 1:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
            idx += 1
    return Tournament(n, tuple(out))


def is_acyclic(t: Tournament) -> bool:
    """A tournament is acyclic iff its out-degrees are 0..n-1 in some order."""
    return sorted(popcount(m) for m in t.out) == list(range(t.n))


@dataclass(frozen=True)
class ColoredTournament:
    """Tournament whose edges are split into color classes 1..k.

    class_out[c][v] masks the vertices w with an edge v->w of color c; row 0
    is empty and fixes n.  Constructors must keep the classes disjoint and
    make their union orient each pair u != v exactly once; base, class_in
    and color_of are read off the masks, and scramble swaps whole rows.
    """

    class_out: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.class_out[0])

    @property
    def k(self) -> int:
        return len(self.class_out) - 1

    @cached_property
    def base(self) -> Tournament:
        out = [0] * self.n
        for row in self.class_out[1:]:
            for v, m in enumerate(row):
                out[v] |= m
        return Tournament(self.n, tuple(out))

    @cached_property
    def class_in(self) -> tuple[tuple[int, ...], ...]:
        """class_in[i][v]: bitmask of vertices beating v within color i."""
        per = class_rows(self.n, self.k)
        for row, src in zip(per, self.class_out):
            for u, m in enumerate(src):
                for v in bits(m):
                    row[v] |= 1 << u
        return frozen_rows(per)

    def color_of(self, u: int, v: int) -> int:
        for c in range(1, self.k + 1):
            if (self.class_out[c][u] >> v) & 1:
                return c
        raise ValueError(f"no edge {u}->{v}")

    def colored_edges(self) -> Iterator[tuple[int, int, int]]:
        """Every edge as (u, v, color), class by class."""
        for c in range(1, self.k + 1):
            for u, m in enumerate(self.class_out[c]):
                for v in bits(m):
                    yield (u, v, c)

    def color_class(self, i: int) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, c in self.colored_edges() if c == i)


# (k+1)*n mask words; a colored file may declare up to n(n-1)/2 colors,
# so without a ceiling the class storage grows as n^3
CLASS_MASK_CEILING = 1 << 22


def class_rows(n: int, k: int) -> list[list[int]]:
    """Zeroed class rows 0..k of n masks each, refused above CLASS_MASK_CEILING."""
    if (k + 1) * n > CLASS_MASK_CEILING:
        raise InstanceTooLargeError((k + 1) * n, CLASS_MASK_CEILING, "class mask")
    return [[0] * n for _ in range(k + 1)]


def frozen_rows(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Class rows as tuples; rows with no edges share one zero tuple."""
    zero = (0,) * len(rows[0])
    return tuple(tuple(r) if any(r) else zero for r in rows)


def _from_triples(n: int, k: int, tagged: Iterable[tuple[int, int, int]]) -> ColoredTournament:
    rows = class_rows(n, k)
    for u, v, c in tagged:
        if not 1 <= c <= k:
            raise ValueError(f"color {c} of edge ({u},{v}) outside 1..{k}")
        rows[c][u] |= 1 << v
    return ColoredTournament(frozen_rows(rows))


def color_tournament(base: Tournament, k: int, color_of) -> ColoredTournament:
    """Attach colors to a tournament; color_of(u, v) gives the color of edge u->v."""
    return _from_triples(base.n, k, ((u, v, color_of(u, v)) for u, v in base.edges()))


def build_colored_tournament(
    n: int, k: int, colored_edges: Iterable[tuple[int, int, int]]
) -> ColoredTournament:
    tagged = list(colored_edges)
    build_tournament(n, [(u, v) for u, v, _ in tagged])
    return _from_triples(n, k, tagged)


def monochromatic(t: Tournament) -> ColoredTournament:
    """All edges colored 1."""
    return color_tournament(t, 1, lambda u, v: 1)


def random_coloring(t: Tournament, k: int, rng) -> ColoredTournament:
    return color_tournament(t, k, lambda u, v: rng.randint(1, k))


# ---------------------------------------------------------------------------
# verification primitives


def is_transitive_digraph(t: Tournament, edge_subset: Iterable[tuple[int, int]]) -> bool:
    """True iff the given subset of E(t) is closed under composition.

    Whenever a->b and b->c are both in the subset, a->c must be too.
    """
    sub_out = [0] * t.n
    for u, v in edge_subset:
        if not t.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge of the tournament")
        sub_out[u] |= 1 << v
    return _masks_transitive(sub_out)


def _masks_transitive(sub_out) -> bool:
    # closed under composition <=> for every edge a->b, out(b) subset of out(a)
    for a, amask in enumerate(sub_out):
        m = amask
        while m:
            low = m & -m
            b = low.bit_length() - 1
            if sub_out[b] & ~amask:
                return False
            m ^= low
    return True


def verify_transitive_coloring(ct: ColoredTournament) -> bool:
    """True iff every color class of ct induces a transitive digraph."""
    return all(_masks_transitive(ct.class_out[i]) for i in range(1, ct.k + 1))


def scramble(ct: ColoredTournament, mask: Iterable[int]) -> ColoredTournament:
    """Reverse every edge whose color lies in mask, keeping its color."""
    chosen = frozenset(mask)
    bad = chosen - set(range(1, ct.k + 1))
    if bad:
        raise ValueError(f"mask colors {sorted(bad)} outside 1..{ct.k}")
    rows = (ct.class_in[c] if c in chosen else row for c, row in enumerate(ct.class_out))
    return ColoredTournament(tuple(rows))


def scrambled_orientation(ct: ColoredTournament, mask: Iterable[int]) -> Tournament:
    """Base tournament of ct with every edge whose color lies in mask reversed."""
    return scramble(ct, mask).base


def scrambled_orientations(ct: ColoredTournament) -> Iterator[Tournament]:
    """scrambled_orientation(ct, mask) for every mask of all_color_masks(ct.k), in order.

    The classes are disjoint, so reversing class c XORs each out-mask with
    the vertex's c-neighbours.  Counting from mask m-1 to m flips colours
    1..t+1, where t counts m's trailing zeros, so each step XORs every
    out-mask with the prefix row P[t] of those colours' neighbours.
    """
    yield ct.base
    out = ct.base.out
    prefix, acc = [], [0] * ct.n
    for row_out, row_in in zip(ct.class_out[1:], ct.class_in[1:]):
        acc = [a | o | i for a, o, i in zip(acc, row_out, row_in)]
        prefix.append(acc)
    for m in range(1, 1 << ct.k):
        flip = prefix[(m & -m).bit_length() - 1]
        out = tuple(map(xor, out, flip))
        yield Tournament(ct.n, out)


def all_color_masks(k: int) -> list[frozenset[int]]:
    """All 2^k subsets of {1..k}, in binary counting order."""
    return [
        frozenset(i + 1 for i in range(k) if (m >> i) & 1) for m in range(1 << k)
    ]


def dominates(t: Tournament, s: Iterable[int]) -> bool:
    """True iff every vertex outside s loses to some member of s."""
    covered = 0
    for v in s:
        covered |= (1 << v) | t.out[v]
    return covered == t.full_mask


def is_enclosure(ct: ColoredTournament, s: Iterable[int]) -> bool:
    """True iff every vertex b outside s sits between two members of s.

    "Between" means a->b and b->c both exist in one color class, a, c in s.
    """
    smask = mask_of(s)
    rest = ct.base.full_mask & ~smask
    cin, cout = ct.class_in, ct.class_out
    for b in bits(rest):
        for i in range(1, ct.k + 1):
            if cin[i][b] & smask and cout[i][b] & smask:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Hypergraph:
    """Vertex-indexed hypergraph: edge j is associated with vertex j."""

    n: int
    edge_masks: tuple[int, ...]

    def __post_init__(self):
        for v, m in enumerate(self.edge_masks):
            if m == 0:
                raise ValueError(f"hyperedge {v} is empty")
            if not (m >> v) & 1:
                raise ValueError(f"hyperedge {v} does not contain vertex {v}")

    @cached_property
    def edges(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(bits(m)) for m in self.edge_masks)

    def is_transversal(self, s: Iterable[int]) -> bool:
        smask = mask_of(s)
        return all(m & smask for m in self.edge_masks)


def hypergraph_from_sets(n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    return Hypergraph(n, tuple(mask_of(e) for e in edges))


def domination_hypergraph(t: Tournament) -> Hypergraph:
    """H(t): hyperedge e(v) = {v} + in-neighbors of v.

    Transversals of H(t) are exactly the dominating sets of t.
    """
    return Hypergraph(t.n, tuple((1 << v) | t.in_masks[v] for v in range(t.n)))


# ---------------------------------------------------------------------------
# text format
#
# Plain tournament:  line "n", then one "u v" line per directed edge u->v.
# Colored:           line "n k", then "u v c" lines.
# '#' starts a comment; blank lines are ignored.


def _data_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def _check_pair_count(head_ln: int, n: int, count: int) -> None:
    """Reject a header that disagrees with the edge count before sizing anything by it."""
    if n < 0 or count != n * (n - 1) // 2:
        raise ParseError(head_ln, f"{count} edge lines for {n} vertices, need n(n-1)/2")


def max_colors(n: int) -> int:
    """Largest colour count accepted for n vertices: one class per edge, but
    at least two, so that every permutation tournament fits."""
    return max(2, n * (n - 1) // 2)


def parse_tournament(text: str) -> Tournament:
    rows = _data_lines(text)
    try:
        head_ln, header = next(rows)
    except StopIteration:
        raise ParseError(1, "empty input") from None
    if len(header) != 1 or not header[0].isdigit():
        raise ParseError(head_ln, f"expected a single vertex count, got {header!r}")
    n = int(header[0])
    edges = []
    for ln, fields in rows:
        if len(fields) != 2:
            raise ParseError(ln, f"expected 'u v', got {fields!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError(ln, f"non-integer endpoint in {fields!r}") from None
    _check_pair_count(head_ln, n, len(edges))
    try:
        return build_tournament(n, edges)
    except ValueError as exc:
        raise ParseError(ln, str(exc)) from exc


def format_tournament(t: Tournament) -> str:
    lines = [str(t.n)]
    lines += [f"{u} {v}" for u, v in sorted(t.edges())]
    return "\n".join(lines) + "\n"


def parse_colored_tournament(text: str) -> ColoredTournament:
    rows = _data_lines(text)
    try:
        head_ln, header = next(rows)
    except StopIteration:
        raise ParseError(1, "empty input") from None
    if len(header) != 2:
        raise ParseError(head_ln, f"expected 'n k', got {header!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(head_ln, f"non-integer header {header!r}") from None
    tagged = []
    for ln, fields in rows:
        if len(fields) != 3:
            raise ParseError(ln, f"expected 'u v c', got {fields!r}")
        try:
            tagged.append((int(fields[0]), int(fields[1]), int(fields[2])))
        except ValueError:
            raise ParseError(ln, f"non-integer field in {fields!r}") from None
    _check_pair_count(head_ln, n, len(tagged))
    if not 1 <= k <= max_colors(n):
        raise ParseError(head_ln, f"color count {k} outside 1..{max_colors(n)}")
    try:
        return build_colored_tournament(n, k, tagged)
    except ValueError as exc:
        raise ParseError(ln, str(exc)) from exc


def format_colored_tournament(ct: ColoredTournament) -> str:
    lines = [f"{ct.n} {ct.k}"]
    lines += [f"{u} {v} {c}" for u, v, c in sorted(ct.colored_edges())]
    return "\n".join(lines) + "\n"


def cyclic_triangle() -> Tournament:
    return build_tournament(3, [(0, 1), (1, 2), (2, 0)])


def rainbow_triangle() -> ColoredTournament:
    """The cyclic triangle with each edge its own color (1, 2, 3)."""
    return build_colored_tournament(3, 3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)])


def all_tournaments(n: int) -> Iterator[Tournament]:
    """Every orientation of the complete graph on n vertices (2^C(n,2) items)."""
    pairs = n * (n - 1) // 2
    for code in range(1 << pairs):
        yield tournament_from_bits(n, code)


def all_colorings(t: Tournament, k: int) -> Iterator[ColoredTournament]:
    """Every k-coloring of t's edges (k^|E| items; brute-force oracle use only)."""
    edge_list = list(t.edges())
    for combo in itertools.product(range(1, k + 1), repeat=len(edge_list)):
        yield _from_triples(t.n, k, ((u, v, c) for (u, v), c in zip(edge_list, combo)))
