"""Paley tournaments: construction, discrepancy, and coloring refutation.

For a prime q = 3 (mod 4) the Paley tournament PT_q lives on GF(q) with an
edge x -> y whenever y - x is a nonzero quadratic residue.  These are the
classic paradoxical tournaments; the refutation pipeline here runs the
degree-type / discrepancy argument showing that for q large enough no
edge coloring with all classes transitive can exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    ColoredTournament,
    Tournament,
    bits,
    build_colored_tournament,
    mask_of,
    popcount,
    verify_transitive_coloring,
)
from .errors import (
    InstanceTooLargeError,
    NotPaleyBaseError,
    NotPrimeError,
    WrongResidueClassError,
)
from .solvers import NoSetWithinLimit, min_dominating_set

# PT_q costs q^2: q bitmasks of q bits, q(q-1)/2 edge lines as text
PRIME_CEILING = 2048


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PaleyParams:
    q: int
    residues: frozenset[int]


def paley_params(q: int) -> PaleyParams:
    if q > PRIME_CEILING:
        raise InstanceTooLargeError(q, PRIME_CEILING, "modulus")
    if not _is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    if q % 4 != 3:
        raise WrongResidueClassError(
            f"{q} = {q % 4} (mod 4); need 3 (mod 4) so that -1 is a non-residue"
        )
    residues = frozenset(pow(x, 2, q) for x in range(1, (q + 1) // 2))
    return PaleyParams(q=q, residues=residues)


def paley_tournament(q: int) -> Tournament:
    """x -> y iff y - x is a nonzero square mod q (q prime, 3 mod 4)."""
    params = paley_params(q)
    out = [0] * q
    for x in range(q):
        m = 0
        for r in params.residues:
            m |= 1 << ((x + r) % q)
        out[x] = m
    return Tournament(q, tuple(out))


def is_paley_tournament(t: Tournament) -> bool:
    try:
        return t == paley_tournament(t.n)
    except (NotPrimeError, WrongResidueClassError, InstanceTooLargeError):
        return False


_PT7_CLASSES = {
    1: [(1, 2), (1, 5), (3, 4), (3, 5), (3, 7), (4, 5), (6, 7)],
    2: [(1, 3), (2, 3), (2, 4), (2, 6), (4, 6), (5, 6), (5, 7)],
    3: [(4, 1), (5, 2), (6, 3), (6, 1), (7, 1), (7, 2), (7, 4)],
}


def pt7_transitive_coloring() -> ColoredTournament:
    """A 3-coloring of PT_7 whose three classes are all transitive.

    Labels are shifted to 0..6; the base tournament is exactly
    paley_tournament(7) (edges x -> x+1, x+2, x+4 mod 7).
    """
    tagged = [
        (u - 1, v - 1, c) for c, pairs in _PT7_CLASSES.items() for u, v in pairs
    ]
    return build_colored_tournament(7, 3, tagged)


def discrepancy(t: Tournament, a: Iterable[int], b: Iterable[int]) -> int:
    """e(A,B) - e(B,A); overlap allowed, self-pairs impossible by antisymmetry."""
    amask, bmask = mask_of(a), mask_of(b)
    forward = sum(popcount(t.out[v] & bmask) for v in bits(amask))
    backward = sum(popcount(t.out[v] & amask) for v in bits(bmask))
    return forward - backward


def discrepancy_bound(a_size: int, b_size: int, q: int) -> float:
    return (a_size * b_size * q) ** 0.5


# ---------------------------------------------------------------------------
# degree types and the refutation pipeline


@dataclass(frozen=True)
class VertexType:
    in_colors: frozenset[int]
    out_colors: frozenset[int]
    threshold: Fraction


@dataclass(frozen=True)
class TypeCensus:
    by_vertex: dict
    largest_type: tuple[frozenset[int], frozenset[int]]
    largest_class: frozenset[int]
    meets_size_bound: bool  # |largest class| >= q / 2^(2k)


def vertex_types(ct: ColoredTournament, nu: Fraction) -> TypeCensus:
    """Classify vertices by which colors give them large in/out degree.

    A color lands in I(v) (resp. O(v)) when the in-degree (out-degree) of
    v inside that class is at least nu*q.  Reports the largest type class
    and whether it reaches the q / 2^(2k) counting bound.
    """
    q, k = ct.n, ct.k
    cut = nu * q
    by_vertex = {}
    groups: dict[tuple, set[int]] = {}
    for v in range(q):
        in_colors = frozenset(
            i for i in range(1, k + 1) if popcount(ct.class_in[i][v]) >= cut
        )
        out_colors = frozenset(
            i for i in range(1, k + 1) if popcount(ct.class_out[i][v]) >= cut
        )
        vt = VertexType(in_colors=in_colors, out_colors=out_colors, threshold=nu)
        by_vertex[v] = vt
        groups.setdefault((in_colors, out_colors), set()).add(v)
    largest_type = max(
        groups,
        key=lambda key: (len(groups[key]), tuple(sorted(key[0])), tuple(sorted(key[1]))),
    )
    largest = groups[largest_type]
    return TypeCensus(
        by_vertex=by_vertex,
        largest_type=largest_type,
        largest_class=frozenset(largest),
        meets_size_bound=len(largest) >= Fraction(q, 1 << (2 * k)),
    )


@dataclass(frozen=True)
class RefutationReport:
    q: int
    k: int
    nu: Fraction
    transitive: bool
    witness_vertex: int | None
    shared_color: int | None
    a_size: int | None
    b_size: int | None
    violating_pair: tuple[int, int] | None
    product_bound_ok: bool | None  # |A||B| <= q, as the discrepancy lemma forces
    contradiction: bool
    step: str | None  # "transitivity" | "forced_edges" | "discrepancy_bound" | None
    note: str

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "nu": str(self.nu),
            "transitive": self.transitive,
            "witness_vertex": self.witness_vertex,
            "shared_color": self.shared_color,
            "a_size": self.a_size,
            "b_size": self.b_size,
            "violating_pair": list(self.violating_pair) if self.violating_pair else None,
            "product_bound_ok": self.product_bound_ok,
            "contradiction": self.contradiction,
            "step": self.step,
            "note": self.note,
        }


def refute_transitive_coloring(ct: ColoredTournament) -> RefutationReport:
    """Run the large-degree-type diagnostic against a claimed coloring of PT_q.

    Finds a vertex w with a color of both large in- and out-degree, takes
    A and B as its in/out neighborhoods in that color, and checks the two
    facts a transitive class would force: every A-B edge oriented A -> B
    with that color, and |A||B| within the discrepancy bound.  For q below
    the counting threshold, "no contradiction" is a legitimate outcome.
    """
    t = ct.base
    if not is_paley_tournament(t):
        raise NotPaleyBaseError(f"base is not a Paley tournament on {t.n} vertices")
    q, k = t.n, ct.k
    nu = Fraction(1, 1 << (2 * k + 2))
    transitive = verify_transitive_coloring(ct)
    census = vertex_types(ct, nu)

    witness = None
    shared = None
    for v in range(q):
        vt = census.by_vertex[v]
        common = vt.in_colors & vt.out_colors
        if common:
            witness, shared = v, min(common)
            break

    if witness is None:
        return RefutationReport(
            q=q, k=k, nu=nu, transitive=transitive,
            witness_vertex=None, shared_color=None, a_size=None, b_size=None,
            violating_pair=None, product_bound_ok=None,
            contradiction=not transitive,
            step="transitivity" if not transitive else None,
            note="no vertex has a color with both large in- and out-degree",
        )

    amask = ct.class_in[shared][witness]
    bmask = ct.class_out[shared][witness]
    a_size, b_size = popcount(amask), popcount(bmask)

    violating = None
    for a in bits(amask):
        wrong = (bmask & ~ct.class_out[shared][a]) & ~(1 << a)
        if wrong:
            violating = (a, next(bits(wrong)))
            break

    product_ok = a_size * b_size <= q

    if violating is not None:
        step, contradiction = "forced_edges", True
        note = (
            f"edge {violating[0]}->{violating[1]} is not an A->B edge of color "
            f"{shared}, though both endpoints neighbor {witness} in that color"
        )
    elif not product_ok:
        step, contradiction = "discrepancy_bound", True
        note = f"|A||B| = {a_size * b_size} exceeds q = {q}"
    elif not transitive:
        step, contradiction = "transitivity", True
        note = "some color class is not transitive"
    else:
        step, contradiction = None, False
        note = "no contradiction at this size"

    return RefutationReport(
        q=q, k=k, nu=nu, transitive=transitive,
        witness_vertex=witness, shared_color=shared,
        a_size=a_size, b_size=b_size,
        violating_pair=violating, product_bound_ok=product_ok,
        contradiction=contradiction, step=step, note=note,
    )


def is_k_paradoxical(t: Tournament, k: int) -> bool:
    """True iff no k vertices dominate t, i.e. dom(t) > k.

    Asks branch and bound for a limit proof, so it shares
    min_dominating_set's ceiling of EXACT_DOM_CEILING vertices.
    """
    return isinstance(min_dominating_set(t, limit=k), NoSetWithinLimit)
