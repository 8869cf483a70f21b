import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domcover.core import (
    CLASS_MASK_CEILING,
    all_colorings,
    all_color_masks,
    all_tournaments,
    build_colored_tournament,
    build_tournament,
    color_tournament,
    cyclic_triangle,
    dominates,
    domination_hypergraph,
    format_colored_tournament,
    format_tournament,
    is_acyclic,
    is_enclosure,
    is_transitive_digraph,
    max_colors,
    monochromatic,
    parse_colored_tournament,
    parse_tournament,
    rainbow_triangle,
    random_coloring,
    random_tournament,
    scramble,
    scrambled_orientation,
    scrambled_orientations,
    tournament_from_bits,
    transitive_tournament,
    verify_transitive_coloring,
)
from domcover.colorsearch import permutation_tournament
from domcover.errors import (
    DuplicatePairError,
    InstanceTooLargeError,
    MissingPairError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
)


def test_build_single_edge():
    t = build_tournament(2, [(0, 1)])
    assert t.has_edge(0, 1) and not t.has_edge(1, 0)


def test_build_cyclic_triangle():
    t = build_tournament(3, [(0, 1), (1, 2), (2, 0)])
    assert t == cyclic_triangle()
    assert not is_acyclic(t)


def test_build_rejects_duplicate_pair():
    with pytest.raises(DuplicatePairError) as exc:
        build_tournament(3, [(0, 1), (1, 0), (2, 0)])
    assert exc.value.pair == (1, 0)


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_tournament(2, [(0, 0), (0, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        build_tournament(2, [(0, 3)])


def test_build_rejects_missing_pair():
    with pytest.raises(MissingPairError):
        build_tournament(3, [(0, 1)])


def test_transitive_digraph_single_edge():
    assert is_transitive_digraph(cyclic_triangle(), {(0, 1)})


def test_transitive_digraph_two_cycle_edges():
    # (0,2) is not an edge of C3, so the 2-path cannot close
    assert not is_transitive_digraph(cyclic_triangle(), {(0, 1), (1, 2)})


def test_transitive_digraph_total_order():
    t = transitive_tournament(3)
    assert is_transitive_digraph(t, set(t.edges()))


def test_transitive_digraph_rejects_non_edges():
    with pytest.raises(ValueError):
        is_transitive_digraph(cyclic_triangle(), {(1, 0)})


def test_monochromatic_transitive_tournament_verifies():
    assert verify_transitive_coloring(monochromatic(transitive_tournament(6)))


def test_c3_has_no_transitive_2_coloring():
    # all 2^3 colorings of the cyclic triangle fail
    assert not any(verify_transitive_coloring(ct) for ct in all_colorings(cyclic_triangle(), 2))


def test_two_coloring_possible_iff_acyclic_small():
    # brute force over all colorings is an oracle independent of the searcher
    for n in (2, 3, 4):
        for t in all_tournaments(n):
            exists = any(verify_transitive_coloring(ct) for ct in all_colorings(t, 2))
            assert exists == is_acyclic(t)


def test_scramble_empty_mask_is_identity():
    ct = rainbow_triangle()
    assert scramble(ct, frozenset()) == ct


def test_scramble_is_involution():
    rng = random.Random(11)
    for _ in range(25):
        t = random_tournament(rng.randint(2, 9), rng)
        k = rng.randint(1, 4)
        ct = random_coloring(t, k, rng)
        for mask in all_color_masks(k):
            assert scramble(scramble(ct, mask), mask) == ct


def test_scramble_single_color_of_rainbow_triangle_is_transitive():
    out = scramble(rainbow_triangle(), {1})
    assert is_acyclic(out.base)
    assert verify_transitive_coloring(out)


def test_scramble_rejects_bad_mask():
    with pytest.raises(ValueError):
        scramble(rainbow_triangle(), {4})


def test_scramble_preserves_transitive_colorings():
    # permutation-style colorings of a transitive base are transitive for
    # every mask; also checked on the geometric colorings in test_geometry
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 8)
        values = list(range(n))
        rng.shuffle(values)
        base = transitive_tournament(n)
        ct = color_tournament(base, 2, lambda i, j: 1 if values[i] < values[j] else 2)
        assert verify_transitive_coloring(ct)
        for mask in all_color_masks(2):
            assert verify_transitive_coloring(scramble(ct, mask))


def test_dominates_examples():
    c3 = cyclic_triangle()
    assert dominates(c3, {0, 1})
    assert not dominates(c3, {0})
    assert dominates(c3, {0, 1, 2})


def test_domination_hypergraph_examples():
    assert domination_hypergraph(cyclic_triangle()).edges == (
        frozenset({0, 2}),
        frozenset({0, 1}),
        frozenset({1, 2}),
    )
    assert domination_hypergraph(transitive_tournament(3)).edges == (
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
    )
    assert domination_hypergraph(transitive_tournament(1)).edges == (frozenset({0}),)


def test_dominating_iff_transversal():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 10)
        t = random_tournament(n, rng)
        h = domination_hypergraph(t)
        s = frozenset(v for v in range(n) if rng.random() < 0.4)
        assert dominates(t, s) == h.is_transversal(s)


def test_is_enclosure_examples():
    chain = monochromatic(transitive_tournament(3))
    assert is_enclosure(chain, {0, 2})
    assert not is_enclosure(chain, {0, 1})
    assert is_enclosure(chain, {0, 1, 2})
    assert not is_enclosure(rainbow_triangle(), {0, 1})


def test_hypergraph_rejects_bad_edges():
    from domcover.core import Hypergraph

    with pytest.raises(ValueError):
        Hypergraph(2, (0b01, 0b00))  # empty hyperedge
    with pytest.raises(ValueError):
        Hypergraph(2, (0b01, 0b01))  # edge 1 misses vertex 1


def test_text_format_roundtrip():
    rng = random.Random(3)
    t = random_tournament(7, rng)
    assert parse_tournament(format_tournament(t)) == t
    ct = random_coloring(t, 3, rng)
    assert parse_colored_tournament(format_colored_tournament(ct)) == ct


def test_parse_accepts_comments_and_blanks():
    text = "# a triangle\n3\n\n0 1  # first\n1 2\n2 0\n"
    assert parse_tournament(text) == cyclic_triangle()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_tournament("3\n0 1\nnope\n")
    assert exc.value.line_no == 3
    with pytest.raises(ParseError):
        parse_tournament("")
    with pytest.raises(ParseError):
        parse_colored_tournament("3\n0 1 1\n")  # header missing k


def test_parse_rejects_wrong_pair_count_at_the_header():
    # a 9-byte header must not size anything: the pair count is checked first
    for parse, text in ((parse_tournament, "# big\n20000000\n"),
                        (parse_colored_tournament, "# big\n20000000 3\n"),
                        (parse_tournament, "3\n0 1\n1 2\n"),
                        (parse_colored_tournament, "-1 1\n0 1 1\n"),
                        (parse_colored_tournament, "3 0\n0 1 1\n1 2 1\n2 0 1\n"),
                        (parse_colored_tournament, "3 4\n0 1 1\n1 2 2\n2 0 3\n"),
                        (parse_colored_tournament, "# big\n3 200000\n0 1 1\n1 2 1\n2 0 1\n"),
                        (parse_colored_tournament, "2 3\n0 1 1\n")):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line_no == (2 if text.startswith("#") else 1)


def test_parse_accepts_two_colors_on_any_size():
    # a permutation tournament of length 1 or 2 has fewer edges than colours
    for values in ((1,), (2, 1)):
        ct = permutation_tournament(values)
        assert parse_colored_tournament(format_colored_tournament(ct)) == ct


def test_build_colored_tournament_validates_colors():
    with pytest.raises(ValueError):
        build_colored_tournament(2, 1, [(0, 1, 2)])


def test_parse_refuses_class_storage_above_the_ceiling():
    # the transitive order on 300 vertices, each edge its own color: the
    # header is valid, but (k+1)*n class masks exceed CLASS_MASK_CEILING
    n = 300
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    text = f"{n} {len(pairs)}\n" + "".join(f"{u} {v} {c}\n" for c, (u, v) in enumerate(pairs, 1))
    with pytest.raises(InstanceTooLargeError) as exc:
        parse_colored_tournament(text)
    assert exc.value.size == (len(pairs) + 1) * n > CLASS_MASK_CEILING == exc.value.ceiling
    # a rainbow colouring below the ceiling still parses
    small = transitive_tournament(40)
    ct = color_tournament(small, 780, lambda u, v: 1 + u * 40 + v - (u + 1) * (u + 2) // 2)
    assert parse_colored_tournament(format_colored_tournament(ct)) == ct


@st.composite
def tournaments_up_to_12(draw):
    n = draw(st.integers(0, 12))
    return tournament_from_bits(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tournaments_up_to_12())
def test_in_masks_is_the_transpose_of_out(t):
    transpose = [0] * t.n
    for u in range(t.n):
        for v in range(t.n):
            if (t.out[u] >> v) & 1:
                transpose[v] |= 1 << u
    assert t.in_masks == tuple(transpose)
    assert t.reverse().reverse() == t


@st.composite
def colorings_up_to_12(draw):
    """A tournament on n <= 12 vertices, k <= 5 colors and its pairwise color
    table: table[u][v] is the color of u->v, 0 when the edge runs v->u."""
    t = draw(tournaments_up_to_12())
    k = draw(st.integers(1, 5))
    table = [[0] * t.n for _ in range(t.n)]
    for u, v in t.edges():
        table[u][v] = draw(st.integers(1, k))
    return t, k, table


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colorings_up_to_12(), st.data())
def test_class_masks_agree_with_a_pairwise_color_table(drawn, data):
    t, k, table = drawn
    n = t.n
    triples = [(u, v, table[u][v]) for u in range(n) for v in range(n) if table[u][v]]
    ct = build_colored_tournament(n, k, data.draw(st.permutations(triples)))
    assert (ct.n, ct.k, ct.base) == (n, k, t)
    for u in range(n):
        for v in range(n):
            if table[u][v]:
                assert ct.color_of(u, v) == table[u][v]
            else:
                with pytest.raises(ValueError):
                    ct.color_of(u, v)
    assert sorted(ct.colored_edges()) == triples
    for c in range(k + 1):
        for v in range(n):
            assert ct.class_out[c][v] == sum(1 << w for w in range(n) if c and table[v][w] == c)
            assert ct.class_in[c][v] == sum(1 << u for u in range(n) if c and table[u][v] == c)
    # scrambling reverses each edge whose color is in the mask, one at a time
    mask = data.draw(st.sets(st.integers(1, k)))
    flipped = [[0] * n for _ in range(n)]
    for u, v, c in triples:
        if c in mask:
            flipped[v][u] = c
        else:
            flipped[u][v] = c
    scrambled = scramble(ct, mask)
    assert sorted(scrambled.colored_edges()) == sorted(
        (u, v, flipped[u][v]) for u in range(n) for v in range(n) if flipped[u][v]
    )
    assert scrambled.base.out == tuple(
        sum(1 << v for v in range(n) if flipped[u][v]) for u in range(n)
    )
    for coloring in (ct, scrambled):
        text = format_colored_tournament(coloring)
        if k > max_colors(n):  # more colors than a file on n vertices may declare
            with pytest.raises(ParseError):
                parse_colored_tournament(text)
            continue
        assert parse_colored_tournament(text) == coloring
        assert format_colored_tournament(parse_colored_tournament(text)) == text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colorings_up_to_12())
def test_scrambled_orientations_walks_every_mask_in_order(drawn):
    t, k, table = drawn
    ct = color_tournament(t, k, lambda u, v: table[u][v])
    walked = list(scrambled_orientations(ct))
    assert walked == [scrambled_orientation(ct, m) for m in all_color_masks(k)]
