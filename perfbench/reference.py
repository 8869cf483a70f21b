"""The benchmark's own model of its inputs: seeded generators and oracles.

Nothing here imports domcover.  Generators return plain Python data
(out-neighbour bitmasks, coordinate rows, colour tables) that the
workloads hand to the library as text or through its constructors; the
checks below re-derive every verdict from that data, so an oracle never
shares code with the layer it judges.  A failed check raises Mismatch.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class Mismatch(Exception):
    """A result disagrees with the benchmark's own oracle."""


class Exhausted(Exception):
    """The program reported that its documented search budget ran out."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# tournaments as out-neighbour bitmasks


def random_masks(n: int, rng) -> list[int]:
    out = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return out


def transitive_masks(n: int) -> list[int]:
    full = (1 << n) - 1
    return [(full >> (v + 1)) << (v + 1) for v in range(n)]


def paley_masks(q: int) -> list[int]:
    squares = {x * x % q for x in range(1, q)}
    return [sum(1 << ((x + r) % q) for r in squares) for x in range(q)]


def c3_blowup_masks(n: int, rng) -> tuple[list[int], list[list[int]]]:
    """Three transitive parts A -> B -> C -> A on shuffled labels.

    Colouring each part's inner edges like its outgoing block gives three
    transitive classes, so a transitive 3-colouring exists by construction.
    Returns the masks and the parts.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    a = rng.randint(n // 5, n // 3)
    b = rng.randint(n // 5, n // 3)
    parts = [labels[:a], labels[a:a + b], labels[a + b:]]
    out = [0] * n
    for i, part in enumerate(parts):
        for x, u in enumerate(part):
            for v in part[x + 1:]:
                out[u] |= 1 << v
            for v in parts[(i + 1) % 3]:
                out[u] |= 1 << v
    return out, parts


def random_coloring(masks: list[int], k: int, rng) -> dict[tuple[int, int], int]:
    return {(u, v): rng.randint(1, k) for u, v in edges(masks)}


def edges(masks: list[int]):
    for u, m in enumerate(masks):
        for v in range(len(masks)):
            if (m >> v) & 1:
                yield (u, v)


def tournament_text(masks: list[int]) -> str:
    lines = [str(len(masks))] + [f"{u} {v}" for u, v in edges(masks)]
    return "\n".join(lines) + "\n"


def colored_text(masks: list[int], k: int, color: dict) -> str:
    lines = [f"{len(masks)} {k}"] + [f"{u} {v} {color[(u, v)]}" for u, v in edges(masks)]
    return "\n".join(lines) + "\n"


def in_masks(masks: list[int]) -> list[int]:
    ins = [0] * len(masks)
    for u, v in edges(masks):
        ins[v] |= 1 << u
    return ins


def closed_out(masks: list[int]) -> list[int]:
    return [(1 << v) | m for v, m in enumerate(masks)]


def is_dominating(masks: list[int], chosen) -> bool:
    covered = 0
    for v in chosen:
        covered |= (1 << v) | masks[v]
    return covered == (1 << len(masks)) - 1


def dominated_within(masks: list[int], k: int) -> bool:
    """True iff some set of at most k vertices dominates.

    Exhaustive: every dominating set contains a dominator of the lowest
    undominated vertex, so branching over those dominators enumerates every
    candidate set; the last pick must dominate all that is left at once.
    """
    n = len(masks)
    full = (1 << n) - 1
    cover = closed_out(masks)
    dominators = [(1 << v) | m for v, m in enumerate(in_masks(masks))]

    def search(covered: int, left: int) -> bool:
        rest = full & ~covered
        if not rest:
            return True
        if left == 0:
            return False
        if left == 1:
            common = full
            m = rest
            while m and common:
                low = m & -m
                common &= dominators[low.bit_length() - 1]
                m ^= low
            return bool(common)
        low = rest & -rest
        m = dominators[low.bit_length() - 1]
        while m:
            bit = m & -m
            if search(covered | cover[bit.bit_length() - 1], left - 1):
                return True
            m ^= bit
        return False

    return search(0, k)


def domination_number(masks: list[int]) -> int:
    k = 1
    while not dominated_within(masks, k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# fractional transversal


def check_transversal(masks: list[int], sol, tol: float = 1e-9) -> None:
    """Exact feasibility, sum, strong duality, tau* < 2, and a HiGHS cross-check."""
    n = len(masks)
    weights = list(sol.weights)
    require(sol.mode == "exact", f"mode {sol.mode!r}, expected exact")
    require(len(weights) == n, f"{len(weights)} weights for {n} vertices")
    require(all(isinstance(w, Fraction) for w in weights + [sol.value, sol.dual_value]),
            "exact solution carries a non-Fraction value")
    require(all(w >= 0 for w in weights), "negative weight")
    for v, members in enumerate(closed_in(masks)):
        total = sum((weights[u] for u in members), Fraction(0))
        require(total >= 1, f"hyperedge of vertex {v} has weight {total} < 1")
    require(sum(weights, Fraction(0)) == sol.value, "weights do not sum to the value")
    require(sol.value == sol.dual_value, f"value {sol.value} != dual {sol.dual_value}")
    require(1 <= sol.value < 2, f"tau* = {sol.value} outside [1, 2)")
    highs = highs_tau(masks)
    require(abs(highs - float(sol.value)) <= tol,
            f"HiGHS tau* {highs!r} differs from exact {sol.value}")


def closed_in(masks: list[int]) -> list[list[int]]:
    ins = in_masks(masks)
    return [[u for u in range(len(masks)) if (ins[v] >> u) & 1 or u == v]
            for v in range(len(masks))]


def highs_tau(masks: list[int]) -> float:
    from scipy.optimize import linprog

    n = len(masks)
    rows = [[-1.0 if u in members else 0.0 for u in range(n)] for members in
            (set(m) for m in closed_in(masks))]
    res = linprog(c=[1.0] * n, A_ub=rows, b_ub=[-1.0] * n,
                  bounds=[(0, None)] * n, method="highs")
    require(res.status == 0, f"HiGHS failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# box covers


def in_box(p, q, x) -> bool:
    return all(min(a, b) <= c <= max(a, b) for a, b, c in zip(p, q, x))


def check_box_cover(rows: list[tuple], cert) -> None:
    n, d = len(rows), len(rows[0])
    cover = set(cert.cover)
    require(len(cover) == len(cert.cover), "cover lists a point twice")
    require(cover <= set(range(n)), "cover names a point outside the set")
    for s in range(n):
        if s in cover:
            continue
        pair = cert.witnesses.get(s)
        require(pair is not None, f"point {s} has no witness box")
        p, q = pair
        require(p in cover and q in cover, f"witness of point {s} leaves the cover")
        require(in_box(rows[p], rows[q], rows[s]), f"point {s} is outside its witness box")
    dictator = cert.per_class_sizes.get("dictatorship", [])
    require(dictator == [1] * (2 * d), f"dictatorship sizes {dictator}, expected {2 * d} ones")


def check_no_point_in_box(rows: list[tuple]) -> None:
    for axis in range(len(rows[0])):
        require(len({r[axis] for r in rows}) == len(rows), f"repeated value on axis {axis}")
    for i, j in itertools.combinations(range(len(rows)), 2):
        for x in range(len(rows)):
            if x != i and x != j:
                require(not in_box(rows[i], rows[j], rows[x]),
                        f"point {x} lies in the box of points {i} and {j}")


# ---------------------------------------------------------------------------
# colourings, enclosures, VC dimension


def parse_colored(text: str) -> tuple[int, int, dict]:
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n, k = int(lines[0][0]), int(lines[0][1])
    return n, k, {(int(u), int(v)): int(c) for u, v, c in lines[1:]}


def check_transitive_coloring(masks: list[int], k: int, text: str) -> None:
    n, k_found, color = parse_colored(text)
    require(n == len(masks) and k_found == k, "coloring header does not match the input")
    require(set(color) == set(edges(masks)), "coloring does not orient the input's edges")
    for c in range(1, k + 1):
        out = [0] * n
        for (u, v), cu in color.items():
            require(1 <= cu <= k, f"color {cu} outside 1..{k}")
            if cu == c:
                out[u] |= 1 << v
        for a in range(n):
            for b in range(n):
                if (out[a] >> b) & 1:
                    require(out[b] & ~out[a] == 0, f"color {c} is not transitive at {a}->{b}")


def is_enclosure(masks: list[int], color: dict, chosen) -> bool:
    s = set(chosen)
    for b in range(len(masks)):
        if b in s:
            continue
        if not any((a, b) in color and (b, c) in color and color[(a, b)] == color[(b, c)]
                   for a in s for c in s):
            return False
    return True


def vc_dimension(masks: list[int]) -> int:
    """Largest vertex set shattered by the closed in-neighbourhoods."""
    hyper = [(1 << v) | m for v, m in enumerate(in_masks(masks))]
    n = len(masks)
    vc = 0
    for size in range(1, n + 1):
        if (1 << size) > n:
            break
        want = 1 << size
        if not any(len({h & sum(1 << v for v in sub) for h in hyper}) == want
                   for sub in itertools.combinations(range(n), size)):
            break
        vc = size
    return vc


def shattered(masks: list[int], witness) -> bool:
    hyper = [(1 << v) | m for v, m in enumerate(in_masks(masks))]
    smask = sum(1 << v for v in witness)
    return len({h & smask for h in hyper}) == 1 << len(witness)


# ---------------------------------------------------------------------------
# half-net arithmetic (refined variant) and Paley text


def refined_feasible(a: int, b: int) -> bool:
    n = a + b
    lhs = ((n + 1) ** 3 - math.comb(b + 2, 3) - math.comb(n - b + 1, 3)) // 2
    return Fraction(lhs) < Fraction(math.comb(n, b), 1 << b)


def refined_scan(a_max: int, b_max: int) -> tuple[int, int | None]:
    feasible = [a for a in range(1, a_max + 1) for b in range(1, b_max + 1)
                if refined_feasible(a, b)]
    return len(feasible), (min(feasible) if feasible else None)


def check_paley_text(q: int, text: str) -> None:
    lines = text.splitlines()
    require(lines[0].strip() == str(q), f"header {lines[0]!r}, expected {q}")
    squares = {x * x % q for x in range(1, q)}
    got = set()
    for line in lines[1:]:
        u, v = line.split()
        got.add((int(u), int(v)))
    require(len(got) == q * (q - 1) // 2, "wrong edge count")
    require(all((v - u) % q in squares for u, v in got), "an edge is not a residue step")
