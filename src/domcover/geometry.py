"""Point sets, axis-parallel boxes, coordinate tournaments, box covers.

A point set in R^d with pairwise-distinct values on every axis defines a
tournament: orient each pair toward the larger first coordinate and color
it by the sign pattern of the remaining d-1 coordinates.  Every color
class is transitive, reversing color classes ("scrambling") yields
2^(2^(d-1)) tournaments per set, and unions of their dominating sets
produce box covers.

Coordinates are kept exact (ints or Fractions); no epsilon comparisons.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import (
    ColoredTournament,
    Tournament,
    all_color_masks,
    dominates,
    scramble,
    scrambled_orientation,
)
from .errors import (
    DimensionMismatchError,
    GeneralPositionError,
    InstanceTooLargeError,
    SearchFailedError,
    invariant,
)
from .solvers import greedy_dominating_set, min_dominating_set

SCRAMBLING_DIMENSION_CEILING = 4
BOX_COVER_EXACT_CEILING = 256

SignPattern = tuple  # of "+" / "-" strings, one per axis beyond the first


def sign_patterns(d: int) -> list[SignPattern]:
    """The 2^(d-1) sign patterns, in the order that defines color numbering."""
    return [tuple(p) for p in itertools.product("+-", repeat=d - 1)]


def pattern_to_color(d: int, pattern: SignPattern) -> int:
    return sign_patterns(d).index(tuple(pattern)) + 1


def color_to_pattern(d: int, color: int) -> SignPattern:
    return sign_patterns(d)[color - 1]


def mask_to_patterns(d: int, mask: Iterable[int]) -> frozenset:
    pats = sign_patterns(d)
    return frozenset(pats[c - 1] for c in mask)


def patterns_to_mask(d: int, patterns: Iterable[SignPattern]) -> frozenset[int]:
    return frozenset(pattern_to_color(d, p) for p in patterns)


def _coerce(value):
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"coordinate {value!r} must be int, Fraction, or a decimal string"
        " (floats are rejected to keep comparisons exact)"
    )


@dataclass(frozen=True)
class PointSet:
    d: int
    points: tuple[tuple, ...]

    @property
    def n(self) -> int:
        return len(self.points)


def point_set(points: Sequence[Sequence], d: int | None = None) -> PointSet:
    """Validate dimensions and general position (distinct values per axis)."""
    rows = [tuple(_coerce(v) for v in p) for p in points]
    if not rows:
        raise ValueError("a point set needs at least one point")
    if d is None:
        d = len(rows[0])
    if d < 1:
        raise ValueError("dimension must be at least 1")
    for i, p in enumerate(rows):
        if len(p) != d:
            raise DimensionMismatchError(f"point {i} has {len(p)} coordinates, expected {d}")
    for axis in range(d):
        seen: dict = {}
        for i, p in enumerate(rows):
            v = p[axis]
            if v in seen:
                raise GeneralPositionError(axis + 1, seen[v], i)
            seen[v] = i
    return PointSet(d, tuple(rows))


def rank_relabeled(points: Sequence[Sequence]) -> PointSet:
    """Replace each coordinate by its rank (ties broken by point index).

    Deterministic repair for degenerate data; the result is always in
    general position.  Rank relabeling preserves box containment for data
    that was already in general position.
    """
    rows = [tuple(_coerce(v) for v in p) for p in points]
    d = len(rows[0])
    cols = []
    for axis in range(d):
        order = sorted(range(len(rows)), key=lambda i: (rows[i][axis], i))
        ranks = [0] * len(rows)
        for r, i in enumerate(order):
            ranks[i] = r
        cols.append(ranks)
    return point_set([tuple(cols[a][i] for a in range(d)) for i in range(len(rows))])


def random_point_set(n: int, d: int, rng: random.Random) -> PointSet:
    """n points with distinct integer coordinates on every axis."""
    m = max(4 * n, 16)
    cols = [rng.sample(range(m), n) for _ in range(d)]
    return point_set([tuple(col[i] for col in cols) for i in range(n)])


# ---------------------------------------------------------------------------
# boxes


def box_contains(p: Sequence, q: Sequence, x: Sequence) -> bool:
    """True iff x lies in the smallest closed axis-parallel box holding p and q."""
    if not (len(p) == len(q) == len(x)):
        raise DimensionMismatchError(f"dimensions {len(p)}, {len(q)}, {len(x)} differ")
    for a, b, c in zip(p, q, x):
        lo, hi = (a, b) if a <= b else (b, a)
        if not lo <= c <= hi:
            return False
    return True


def exists_point_in_box(ps: PointSet) -> Optional[tuple[int, int, int]]:
    """Some triple (i, j, x) with point x inside box(points[i], points[j]), or None."""
    pts = ps.points
    for i, j in itertools.combinations(range(ps.n), 2):
        for x in range(ps.n):
            if x != i and x != j and box_contains(pts[i], pts[j], pts[x]):
                return (i, j, x)
    return None


def verify_box_cover(ps: PointSet, cover: Iterable[int]) -> bool:
    """True iff every point outside the cover lies in a box of two cover points."""
    chosen = set(cover)
    pts = ps.points
    pairs = list(itertools.combinations(sorted(chosen), 2))
    for s in range(ps.n):
        if s in chosen:
            continue
        if not any(box_contains(pts[p], pts[q], pts[s]) for p, q in pairs):
            return False
    return True


def _box_witness(ps: PointSet, cover: Sequence[int], s: int) -> Optional[tuple[int, int]]:
    pts = ps.points
    for p, q in itertools.combinations(cover, 2):
        if box_contains(pts[p], pts[q], pts[s]):
            return (p, q)
    return None


# ---------------------------------------------------------------------------
# coordinate tournaments


def coordinate_tournament(ps: PointSet) -> ColoredTournament:
    """Orient by the first coordinate, color by the remaining sign pattern."""
    n, d = ps.n, ps.d
    pts = ps.points
    k = 1 << (d - 1)
    out = [0] * n
    colors = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        p, q = (i, j) if pts[i][0] < pts[j][0] else (j, i)
        color = 1
        for axis in range(1, d):
            color <<= 1
            if pts[q][axis] < pts[p][axis]:
                color |= 1
        color -= (1 << (d - 1)) - 1  # binary pattern code -> 1-based color
        out[p] |= 1 << q
        colors[p][q] = color
    return ColoredTournament(Tournament(n, tuple(out)), k, tuple(tuple(r) for r in colors))


def all_scramblings(ps: PointSet) -> list[tuple[frozenset[int], ColoredTournament]]:
    """All 2^(2^(d-1)) scrambled coordinate tournaments of ps."""
    if ps.d > SCRAMBLING_DIMENSION_CEILING:
        raise InstanceTooLargeError(ps.d, SCRAMBLING_DIMENSION_CEILING, "dimension")
    ct = coordinate_tournament(ps)
    return [(mask, scramble(ct, mask)) for mask in all_color_masks(ct.k)]


# ---------------------------------------------------------------------------
# classification of the sixteen 3-coordinate scramblings


@dataclass(frozen=True)
class ScramblingClass:
    kind: str  # "dictatorship" | "two_majority" | "parity"
    axis: int | None = None
    direction: str | None = None  # "ascending" | "descending"
    parity: str | None = None  # "even" | "odd"
    variant: str | None = None

    def describe(self) -> str:
        if self.kind == "dictatorship":
            return f"dictatorship(axis {self.axis}, {self.direction})"
        if self.kind == "parity":
            return f"parity({self.parity})"
        return f"two_majority({self.variant})"


def sign_pattern_masks() -> list[frozenset]:
    """The 16 reversal masks of the d=3 case, as sets of sign patterns."""
    return [mask_to_patterns(3, mask) for mask in all_color_masks(4)]


def verify_classification(ps: PointSet) -> bool:
    """Check every scrambled orientation against its class's closed-form rule."""
    if ps.d != 3:
        raise DimensionMismatchError("classification applies to 3-dimensional sets")
    ct = coordinate_tournament(ps)
    pts = ps.points
    for mask in all_color_masks(ct.k):
        cls = classify_scrambling_3d(mask_to_patterns(3, mask))
        base = scrambled_orientation(ct, mask)
        for i in range(ps.n):
            for j in range(i + 1, ps.n):
                if base.has_edge(i, j) != class_orientation(cls, pts[i], pts[j]):
                    return False
    return True


def dictatorship_axis(d: int, patterns: frozenset) -> Optional[tuple[int, str]]:
    """(axis, direction) when reversing these patterns yields a one-axis order."""
    pats = frozenset(tuple(p) for p in patterns)
    every = frozenset(sign_patterns(d))
    if pats == frozenset():
        return (1, "ascending")
    if pats == every:
        return (1, "descending")
    for j in range(d - 1):
        if pats == frozenset(p for p in every if p[j] == "-"):
            return (j + 2, "ascending")
        if pats == frozenset(p for p in every if p[j] == "+"):
            return (j + 2, "descending")
    return None


def classify_scrambling_3d(patterns: Iterable[SignPattern]) -> ScramblingClass:
    """Sort one of the 16 reversal masks into dictatorship / 2-majority / parity."""
    pats = frozenset(tuple(p) for p in patterns)
    valid = frozenset(sign_patterns(3))
    if not pats <= valid:
        raise ValueError(f"patterns {pats - valid} are not 2-sign patterns")
    dic = dictatorship_axis(3, pats)
    if dic is not None:
        return ScramblingClass(kind="dictatorship", axis=dic[0], direction=dic[1])
    if pats == frozenset({("+", "-"), ("-", "+")}):
        return ScramblingClass(kind="parity", parity="even")
    if pats == frozenset({("+", "+"), ("-", "-")}):
        return ScramblingClass(kind="parity", parity="odd")
    if len(pats) == 1:
        (p,) = pats
        return ScramblingClass(kind="two_majority", variant="min-after-flip:" + "".join(p))
    (missing,) = valid - pats
    return ScramblingClass(kind="two_majority", variant="max-after-flip:" + "".join(missing))


def class_orientation(cls: ScramblingClass, p: Sequence, q: Sequence) -> bool:
    """Closed-form orientation rule: does the class orient the edge p -> q?"""
    if cls.kind == "dictatorship":
        a = cls.axis - 1
        return (p[a] < q[a]) == (cls.direction == "ascending")
    if cls.kind == "parity":
        bigger = sum(1 for a, b in zip(p, q) if a > b)
        return bigger % 2 == (0 if cls.parity == "even" else 1)
    flips = cls.variant.split(":", 1)[1]
    smaller = sum(
        1
        for axis in range(len(p))
        if (p[axis] < q[axis]) != (axis > 0 and flips[axis - 1] == "+")
    )
    if cls.variant.startswith("min-after-flip"):
        return smaller >= 2
    return smaller <= 1


# ---------------------------------------------------------------------------
# box cover pipeline


@dataclass(frozen=True)
class ScramblingRecord:
    mask: frozenset[int]
    patterns: frozenset
    cls: ScramblingClass | None
    kind: str
    dom_set: frozenset[int]

    @property
    def dom_size(self) -> int:
        return len(self.dom_set)


@dataclass(frozen=True)
class BoxCoverCertificate:
    cover: tuple[int, ...]
    witnesses: dict  # point index -> (p, q) cover pair
    per_class_sizes: dict  # kind -> list of dominating-set sizes
    scramblings: tuple[ScramblingRecord, ...]

    def verify(self, ps: PointSet) -> bool:
        chosen = set(self.cover)
        pts = ps.points
        for s in range(ps.n):
            if s in chosen:
                continue
            w = self.witnesses.get(s)
            if w is None:
                return False
            p, q = w
            if p not in chosen or q not in chosen or not box_contains(pts[p], pts[q], pts[s]):
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "cover": list(self.cover),
            "witnesses": {str(s): list(pq) for s, pq in sorted(self.witnesses.items())},
            "per_class_sizes": {k: sorted(v) for k, v in sorted(self.per_class_sizes.items())},
            "scramblings": [
                {
                    "mask": sorted(rec.mask),
                    "patterns": sorted("".join(p) for p in rec.patterns),
                    "class": rec.cls.describe() if rec.cls else rec.kind,
                    "dom_size": rec.dom_size,
                }
                for rec in self.scramblings
            ],
        }


def _extreme_vertex(ps: PointSet, axis: int, direction: str) -> int:
    key = lambda i: ps.points[i][axis - 1]
    return min(range(ps.n), key=key) if direction == "ascending" else max(range(ps.n), key=key)


def box_cover(
    ps: PointSet,
    *,
    method: str = "exact",
    exact_ceiling: int = BOX_COVER_EXACT_CEILING,
) -> BoxCoverCertificate:
    """Cover ps by the union of dominating sets of all its scrambled tournaments.

    Dictatorship reversals are dominated by a single extreme point and are
    handled in closed form; the rest go to the exact solver (or greedy when
    the instance exceeds `exact_ceiling` or method="greedy").  The returned
    certificate carries a box witness for every uncovered point and has
    been verified before returning.
    """
    if ps.d > SCRAMBLING_DIMENSION_CEILING:
        raise InstanceTooLargeError(ps.d, SCRAMBLING_DIMENSION_CEILING, "dimension")
    ct = coordinate_tournament(ps)
    records = []
    union: set[int] = set()
    for mask in all_color_masks(ct.k):
        patterns = mask_to_patterns(ps.d, mask)
        cls = classify_scrambling_3d(patterns) if ps.d == 3 else None
        dic = dictatorship_axis(ps.d, patterns)
        if dic is not None:
            axis, direction = dic
            dom_set = frozenset({_extreme_vertex(ps, axis, direction)})
            kind = "dictatorship"
        else:
            base = scrambled_orientation(ct, mask)
            if method == "exact" and ps.n <= exact_ceiling:
                dom_set = min_dominating_set(base, ceiling=exact_ceiling).vertices
            else:
                dom_set = greedy_dominating_set(base)
            invariant(dominates(base, dom_set), "dominating set misses a vertex")
            kind = cls.kind if cls else "other"
        records.append(
            ScramblingRecord(mask=mask, patterns=patterns, cls=cls, kind=kind, dom_set=dom_set)
        )
        union |= dom_set
    cover = tuple(sorted(union))
    witnesses = {}
    for s in range(ps.n):
        if s in union:
            continue
        w = _box_witness(ps, cover, s)
        invariant(w is not None, "scrambling union failed to cover a point")
        witnesses[s] = w
    per_class: dict[str, list[int]] = {}
    for rec in records:
        per_class.setdefault(rec.kind, []).append(rec.dom_size)
    cert = BoxCoverCertificate(
        cover=cover,
        witnesses=witnesses,
        per_class_sizes=per_class,
        scramblings=tuple(records),
    )
    invariant(cert.verify(ps), "box-cover certificate failed to verify")
    return cert


# ---------------------------------------------------------------------------
# extremal configurations (no point inside a box of two others)

# found by a run of the backtracking search below and verified exhaustively;
# any run of search_extremal_pointset_3d yields an equally valid replacement
_EXTREMAL_3D: tuple[tuple[int, int, int], ...] = tuple(
    (x, y, z)
    for x, y, z in zip(
        range(16),
        (3, 2, 7, 1, 0, 6, 5, 12, 4, 10, 15, 14, 9, 8, 13, 11),
        (7, 11, 14, 4, 5, 12, 15, 1, 13, 3, 9, 10, 0, 2, 6, 8),
    )
)


def extremal_pointset(d: int) -> PointSet:
    """2^(2^(d-1)) points such that exists_point_in_box returns None (d <= 3)."""
    if d == 1:
        return point_set([(0,), (1,)])
    if d == 2:
        # the 4-point sharp example: values 2,1,4,3 over positions 1..4
        return point_set([(1, 2), (2, 1), (3, 4), (4, 3)])
    if d == 3:
        return point_set(_EXTREMAL_3D)
    raise ValueError("extremal configurations are available for d <= 3 only")


def search_extremal_pointset_3d(
    seed: int = 0, budget: int = 2_000_000, *, target: int = 16
) -> PointSet:
    """Backtracking search for `target` points in R^3 with no point in any box.

    Points live on x = 0..target-1; the decision variables are the two
    coordinate orders, one boolean per pair per axis.  Constraints: each
    order is transitive, and no x-triple i<j<k repeats its (y, z) sign
    pattern across the two steps (a repeat puts j inside box(i, k)).  The
    search is a seeded DPLL: unit propagation plus conflict-counted
    backtracking; SearchFailedError when the conflict budget runs out.
    """
    n = target
    pairs = list(itertools.combinations(range(n), 2))
    nv = 2 * len(pairs)
    var = {}
    for idx, p in enumerate(pairs):
        var[("y", p)] = idx + 1
        var[("z", p)] = len(pairs) + idx + 1

    def lit(axis, a, b):
        # literal asserting coord_a < coord_b
        return var[(axis, (a, b))] if a < b else -var[(axis, (b, a))]

    clauses = []
    for axis in ("y", "z"):
        for i, j, k in itertools.combinations(range(n), 3):
            a, b, c = lit(axis, i, j), lit(axis, j, k), lit(axis, i, k)
            clauses.append((-a, -b, c))
            clauses.append((a, b, -c))
    for i, j, k in itertools.combinations(range(n), 3):
        y1, y2 = lit("y", i, j), lit("y", j, k)
        z1, z2 = lit("z", i, j), lit("z", j, k)
        for sy in (1, -1):
            for sz in (1, -1):
                clauses.append((sy * -y1, sy * -y2, sz * -z1, sz * -z2))

    assign = _dpll(nv, clauses, seed, budget)
    if assign == "budget":
        raise SearchFailedError(f"conflict budget of {budget} exhausted")
    if assign is None:
        raise SearchFailedError(f"no {target}-point configuration exists")

    def truth(l):
        return assign[l] if l > 0 else not assign[-l]

    ry = [sum(1 for u in range(n) if u != v and truth(lit("y", u, v))) for v in range(n)]
    rz = [sum(1 for u in range(n) if u != v and truth(lit("z", u, v))) for v in range(n)]
    found = point_set([(i, ry[i], rz[i]) for i in range(n)])
    invariant(exists_point_in_box(found) is None, "search returned a point inside a box")
    return found


def _dpll(nv: int, clauses, seed: int, conflict_budget: int):
    """Plain DPLL with unit propagation; returns True-table or None on budget."""
    rng = random.Random(seed)
    occurs: list[list[int]] = [[] for _ in range(2 * nv + 2)]

    def slot(l):
        return 2 * abs(l) + (1 if l < 0 else 0)

    for ci, c in enumerate(clauses):
        for l in c:
            occurs[slot(l)].append(ci)

    state = [0] * (nv + 1)  # 0 unknown, 1 true, -1 false
    trail: list[int] = []
    activity = [0.0] * (nv + 1)
    conflicts = 0

    def val(l):
        s = state[abs(l)]
        return 0 if s == 0 else (s if l > 0 else -s)

    def push(l) -> bool:
        nonlocal conflicts
        state[abs(l)] = 1 if l > 0 else -1
        trail.append(abs(l))
        queue = [l]
        while queue:
            q = queue.pop()
            for ci in occurs[slot(-q)]:
                unknown = None
                count = 0
                for l2 in clauses[ci]:
                    v = val(l2)
                    if v == 1:
                        count = -1
                        break
                    if v == 0:
                        unknown = l2
                        count += 1
                        if count > 1:
                            break
                if count == 0:
                    conflicts += 1
                    for l2 in clauses[ci]:
                        activity[abs(l2)] += 1.0
                    return False
                if count == 1:
                    state[abs(unknown)] = 1 if unknown > 0 else -1
                    trail.append(abs(unknown))
                    queue.append(unknown)
        return True

    def undo(mark):
        while len(trail) > mark:
            state[trail.pop()] = 0

    def search() -> bool:
        if conflicts > conflict_budget:
            raise SearchFailedError("budget")
        v = max(
            (x for x in range(1, nv + 1) if state[x] == 0),
            key=lambda x: activity[x] + rng.random(),
            default=0,
        )
        if v == 0:
            return True
        first = rng.choice((1, -1))
        for pol in (first, -first):
            mark = len(trail)
            if push(v * pol) and search():
                return True
            undo(mark)
        return False

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10 * nv + 1000))
    try:
        if search():
            return [False] + [state[v] == 1 for v in range(1, nv + 1)]
        return None  # exhausted: no configuration of this size
    except SearchFailedError:
        return "budget"
    finally:
        sys.setrecursionlimit(old_limit)
