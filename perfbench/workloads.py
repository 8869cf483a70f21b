"""The four workloads, each a closed loop over rounds of operations.

A round is a fixed mix of operation kinds and a fixed ladder of sizes.
The seed decides the instance contents and the order inside a round, never
the mix or the sizes, so runs on different seeds do comparable work.  A
round holds 40 or more operations, so its tail percentile (10 samples
beyond it per round) is p75 or higher, and takes 15-20 s on a 2-core
x86-64 VM with the fractions backend.

A round is planned first (plan_round): the benchmark's own generators make
every input as plain data, and each operation gets one set-up call into
the package (setup_calls.py) that turns its data into a library object.
Building a round (build) performs those calls; nothing is solved twice, so lazy
caches (``in_masks``, ``class_in``/``class_out``) are paid inside the timed
operation, as a user pays them.  Library calls go through module
attributes so that the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from setup_calls import make as setup_call
import reference as ref
from reference import Exhausted, require

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from domcover import core, geometry, solvers  # noqa: E402

# dom(PT_q) for the dom_bnb Paley instances; selftest.py re-proves each
# value with the exhaustive search in reference.dominated_within.
PALEY_DOM = {43: 4, 47: 4, 59: 4, 67: 5, 71: 5, 79: 5, 83: 5}

# colorsearch verdicts on the Paley instances (found a colouring or not)
PALEY_COLORSEARCH = {(11, 3): False, (11, 4): True, (23, 3): False}

EXTREMAL_TARGET = 14
EXTREMAL_CONFLICTS = 20_000
PALEY_CLI_Q = 1019
NETBOUND_AB = (17, 14)


@dataclass
class Op:
    kind: str
    labels: dict
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Spec:
    """An operation before set-up: its set-up call (setup_calls.py) and bind(),
    which makes the Op from the object that call returns."""
    call: list | None
    bind: Callable[[Any], Op]


def _spec(kind: str, labels: dict, call, solve, check) -> Spec:
    return Spec(call, lambda obj: Op(kind, labels, lambda: solve(obj), check))


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path) -> ChildResult:
    """Run one fresh interpreter to completion; per-child peak RSS via wait4."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=child_env())
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(proc.returncode, out, err.read(), usage.ru_maxrss)


# ---------------------------------------------------------------------------
# lp_exact


# Clusters of equal n, placed so the round's median and its 11th-largest
# operation each fall inside a cluster of 12 or more instances.
LP_RANDOM_SIZES = (8,) * 8 + (12,) * 8 + (16,) * 20 + (20,) * 12 + (24,) * 4
LP_PALEY = (3, 7, 11, 19, 23, 31)
LP_TRANSITIVE = (10, 20, 30, 40)
TINY_LP = ((3, 6, 9), (3, 7), (8,))


def _solve_lp(t):
    return solvers.fractional_transversal(core.domination_hypergraph(t), mode="exact")


def _lp_spec(family: str, masks: list[int], call: list) -> Spec:
    return _spec("lp." + family, {"family": family, "n": len(masks)}, call, _solve_lp,
                 lambda sol: ref.check_transversal(masks, sol))


def lp_exact(rng: random.Random, tiny: bool, workdir: Path) -> list[Spec]:
    rand_sizes, paley_qs, trans_sizes = TINY_LP if tiny else (LP_RANDOM_SIZES, LP_PALEY, LP_TRANSITIVE)
    specs = []
    for n in rand_sizes:
        masks = ref.random_masks(n, rng)
        specs.append(_lp_spec("random", masks, ["core.parse_tournament", ref.tournament_text(masks)]))
    for q in paley_qs:
        specs.append(_lp_spec("structured", ref.paley_masks(q), ["paley.paley_tournament", q]))
    for n in trans_sizes:
        specs.append(_lp_spec("structured", ref.transitive_masks(n), ["core.transitive_tournament", n]))
    return specs


# ---------------------------------------------------------------------------
# dom_bnb


DOM_RANDOM_SIZES = tuple(41 + (i * 59) // 99 for i in range(100))
TINY_DOM = ((43, 47), (41, 60))


def _check_dom(masks: list[int], expected: int):
    def check(cert):
        require(isinstance(cert, solvers.DominationCertificate), f"got {type(cert).__name__}")
        require(ref.is_dominating(masks, cert.vertices), "returned set does not dominate")
        require(cert.size == len(cert.vertices) == expected,
                f"size {cert.size}, expected dom = {expected}")
    return check


def _check_limit(limit: int):
    def check(res):
        require(isinstance(res, solvers.NoSetWithinLimit), f"got {type(res).__name__}")
        require(res.limit == limit and res.lower_bound >= limit + 1, f"bad proof {res}")
    return check


def _check_random_dom(masks: list[int]):
    def check(cert):
        require(isinstance(cert, solvers.DominationCertificate), f"got {type(cert).__name__}")
        require(ref.is_dominating(masks, cert.vertices), "returned set does not dominate")
        require(cert.size == len(cert.vertices), "size disagrees with the set")
        require(not ref.dominated_within(masks, cert.size - 1),
                f"a dominating set smaller than {cert.size} exists")
    return check


def _solve_dom(t):
    return solvers.min_dominating_set(t)


def dom_bnb(rng: random.Random, tiny: bool, workdir: Path) -> list[Spec]:
    qs, sizes = TINY_DOM if tiny else (tuple(PALEY_DOM), DOM_RANDOM_SIZES)
    specs = []
    for q in qs:
        masks, dom = ref.paley_masks(q), PALEY_DOM[q]
        specs.append(_spec("dom.paley", {"n": q}, ["paley.paley_tournament", q], _solve_dom,
                           _check_dom(masks, dom)))
        specs.append(_spec("dom.limit", {"n": q}, ["paley.paley_tournament", q],
                           lambda t, lim=dom - 1: solvers.min_dominating_set(t, limit=lim),
                           _check_limit(dom - 1)))
    for n in sizes:
        masks = ref.random_masks(n, rng)
        specs.append(_spec("dom.random", {"n": len(masks)},
                           ["core.parse_tournament", ref.tournament_text(masks)], _solve_dom,
                           _check_random_dom(masks)))
    return specs


# ---------------------------------------------------------------------------
# boxcover


# the median falls mid-way through the 30 d=4 covers
BOX_D3 = (20, 22, 24) + tuple(range(41, 201, 20))
BOX_D4 = tuple(41 + (i * 79) // 29 for i in range(30))
TINY_BOX = ((8, 41, 60), (41,))


def random_rows(n: int, d: int, rng: random.Random) -> list[tuple]:
    cols = [rng.sample(range(4 * n), n) for _ in range(d)]
    return [tuple(col[i] for col in cols) for i in range(n)]


def _box_spec(rows: list[tuple]) -> Spec:
    return _spec(f"box.d{len(rows[0])}", {"n": len(rows), "d": len(rows[0])},
                 ["geometry.point_set", rows], lambda ps: geometry.box_cover(ps, method="exact"),
                 lambda cert: ref.check_box_cover(rows, cert))


def boxcover(rng: random.Random, tiny: bool, workdir: Path) -> list[Spec]:
    d3, d4 = TINY_BOX if tiny else (BOX_D3, BOX_D4)
    return ([_box_spec(random_rows(n, 3, rng)) for n in d3]
            + [_box_spec(random_rows(n, 4, rng)) for n in d4])


# ---------------------------------------------------------------------------
# cli_search


def _report(res: ChildResult) -> dict:
    if res.returncode == 4:
        raise Exhausted(res.stderr.decode(errors="replace").strip())
    require(res.returncode == 0,
            f"exit code {res.returncode}: {res.stderr.decode(errors='replace').strip()[-300:]}")
    return json.loads(res.stdout)


def _cli_op(sub: str, args: list[str], labels: dict, check, workdir: Path) -> Op:
    argv = [sys.executable, "-m", "domcover.cli", sub, *args]
    return Op("cli." + sub, {"sub": sub, **labels}, lambda: run_child(argv, workdir),
              lambda res: check(_report(res)))


def _cli_spec(sub: str, args: list[str], labels: dict, check, workdir: Path) -> Spec:
    op = _cli_op(sub, args, labels, check, workdir)
    return Spec(None, lambda _: op)


def _check_colorsearch(masks: list[int], k: int, found: bool):
    def check(rep):
        result = rep["result"]
        require(result["found"] is found, f"found={result['found']}, expected {found}")
        if found:
            ref.check_transitive_coloring(masks, k, result["coloring_text"])
        else:
            require(result["proven_none"] is True, "no colouring and no proof")
    return check


def _check_vc(masks: list[int]):
    def check(rep):
        result = rep["result"]
        want = ref.vc_dimension(masks)
        require(result["vc"] == want and result["exact"], f"vc {result['vc']}, expected {want}")
        require(result["witness"] is not None and ref.shattered(masks, result["witness"]),
                "witness is not shattered")
    return check


def _check_encl(masks: list[int], color: dict):
    def check(rep):
        chosen = rep["result"]["set"]
        require(rep["result"]["size"] == len(set(chosen)), "size disagrees with the set")
        require(ref.is_enclosure(masks, color, chosen), "returned set does not enclose")
    return check


def _check_refute(text: str):
    def check(rep):
        ref.check_transitive_coloring(ref.paley_masks(7), 3, text)
        result = rep["result"]
        require(result["q"] == 7 and result["transitive"] is True
                and result["contradiction"] is False, f"PT_7 colouring verdict {result}")
    return check


def _check_netbound(rep):
    a, b = NETBOUND_AB
    result = rep["result"]
    require(result["feasible"] is ref.refined_feasible(a, b), f"netbound verdict {result}")


def _check_scan(rep):
    count, best = ref.refined_scan(40, 40)
    result = rep["result"]
    require(len(result["feasible"]) == count and result["best_bound"] == best,
            f"scan gave {len(result['feasible'])} pairs, best {result['best_bound']}; "
            f"expected {count}, {best}")


def _extremal_spec(seed: int, workdir: Path) -> Spec:
    argv = [sys.executable, str(HERE / "child.py"), "extremal", "--seed", str(seed),
            "--target", str(EXTREMAL_TARGET), "--budget", str(EXTREMAL_CONFLICTS)]

    def check(res):
        rows = [tuple(p) for p in _report(res)["points"]]
        require(len(rows) == EXTREMAL_TARGET, f"{len(rows)} points")
        ref.check_no_point_in_box(rows)

    op = Op("extremal", {"seed": seed}, lambda: run_child(argv, workdir), check)
    return Spec(None, lambda _: op)


# per round: planted colourings, vc sizes, (n, k) of encl inputs, copies of
# refute / netbound / scan / paley, and DPLL searches.  Five fixed ops
# (scan, paley, colorsearch on PT_23) and the slowest DPLL seeds lead the
# round; the eight encl inputs at n=11, k=3 follow as one cluster, so the
# round's 11th-largest op (the tail) falls inside it, not on a cliff.
CLI_MIX = (5, tuple(range(15, 23)) + tuple(range(19, 23)),
           tuple((n, 2) for n in (9, 10, 11, 12)) + ((11, 3),) * 8,
           2, 12)
TINY_CLI = (1, (10,), ((6, 2),), 1, 1)


def cli_search(rng: random.Random, tiny: bool, workdir: Path) -> list[Spec]:
    planted, vc_sizes, encl_inputs, copies, searches = TINY_CLI if tiny else CLI_MIX
    workdir.mkdir(parents=True, exist_ok=True)
    files = iter(range(1 << 30))

    def put(text: str) -> str:
        name = f"in{next(files)}.txt"
        (workdir / name).write_text(text)
        return name

    def refute(coloring) -> Op:
        text = core.format_colored_tournament(coloring)
        return _cli_op("refute", [put(text)], {"n": 7}, _check_refute(text), workdir)

    specs = []
    for (q, k), found in PALEY_COLORSEARCH.items():
        masks = ref.paley_masks(q)
        specs.append(_cli_spec("colorsearch", [put(ref.tournament_text(masks)), "--k", str(k)],
                               {"n": q, "k": k}, _check_colorsearch(masks, k, found), workdir))
    for _ in range(planted):
        masks, _ = ref.c3_blowup_masks(24, rng)
        specs.append(_cli_spec("colorsearch", [put(ref.tournament_text(masks)), "--k", "3"],
                               {"n": 24, "k": 3}, _check_colorsearch(masks, 3, True), workdir))
    for n in vc_sizes:
        masks = ref.random_masks(n, rng)
        specs.append(_cli_spec("vc", [put(ref.tournament_text(masks))], {"n": n},
                               _check_vc(masks), workdir))
    for n, k in encl_inputs:
        masks = ref.random_masks(n, rng)
        color = ref.random_coloring(masks, k, rng)
        specs.append(_cli_spec("encl", [put(ref.colored_text(masks, k, color)), "--method", "scramblings"],
                               {"n": n, "k": k}, _check_encl(masks, color), workdir))
    a, b = NETBOUND_AB
    q = 19 if tiny else PALEY_CLI_Q
    for _ in range(copies):
        specs.append(Spec(["paley.pt7_transitive_coloring"], refute))
        specs.append(_cli_spec("netbound", ["--a", str(a), "--b", str(b)], {"scan": False},
                               _check_netbound, workdir))
        specs.append(_cli_spec("netbound", ["--scan"], {"scan": True}, _check_scan, workdir))
        specs.append(_cli_spec("paley", ["--q", str(q)], {"n": q},
                               lambda rep, q=q: ref.check_paley_text(q, rep["result"]["text"]), workdir))
    for _ in range(searches):
        specs.append(_extremal_spec(rng.randrange(1 << 20), workdir))
    return specs


WORKLOADS = {
    "lp_exact": lp_exact,
    "dom_bnb": dom_bnb,
    "boxcover": boxcover,
    "cli_search": cli_search,
}


def plan_round(workload: str, seed: int, index: int, tiny: bool, workdir: Path) -> list[Spec]:
    """One round's inputs as data, in seeded order; no call into the package."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    specs = WORKLOADS[workload](rng, tiny, workdir / f"round{index}")
    rng.shuffle(specs)
    return specs


def build(plan: list[Spec]) -> list[Op]:
    """Set-up for one round: every input object through the package, then the ops."""
    return [s.bind(setup_call(s.call)) for s in plan]


def build_round(workload: str, seed: int, index: int, tiny: bool, workdir: Path) -> list[Op]:
    return build(plan_round(workload, seed, index, tiny, workdir))
