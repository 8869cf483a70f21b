"""Spans around calls into the package, recorded from the benchmark's side.

installed() replaces, for the length of a block, every binding of each
traced function in every loaded domcover module.  Replacing bindings, not
just the defining module's attribute, matters: geometry imports
min_dominating_set and greedy_dominating_set by name, so wrapping
solvers.* alone would miss every call box_cover makes.  Spans stay in
memory; layer_metrics() turns them into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()


def _lp_cells(args, kwargs, result):
    c, a, b = args
    return {"cells": len(a) * (len(c) + len(a) + sum(1 for v in b if v < 0) + 1)}


def _mds(args, kwargs, result):
    limit = kwargs.get("limit", args[1] if len(args) > 1 else None)
    return {"n": args[0].n, "limit": limit, "size": getattr(result, "size", None)}


TRACED = {
    "simplex.solve_lp_max": _lp_cells,
    "solvers.fractional_transversal": lambda a, k, r: {"value": r.value},
    "solvers.min_dominating_set": _mds,
    "solvers.greedy_dominating_set": lambda a, k, r: {"size": len(r)},
    "geometry.box_cover": lambda a, k, r: {"n": a[0].n, "d": a[0].d, "cover": len(r.cover)},
    "geometry.coordinate_tournament": None,
    "geometry.scrambled_orientation": None,
    "core.domination_hypergraph": None,
    "core.parse_tournament": None,
    "paley.paley_tournament": None,
}


def _wrap(rec: Recorder, name: str, fn, annotate):
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if annotate is not None:
            rec.spans[idx].attrs = annotate(args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every binding of the traced functions for the duration of a block."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "domcover" or name.startswith("domcover."))]
    saved = []
    for qual, annotate in TRACED.items():
        mod, fname = qual.split(".")
        orig = getattr(sys.modules["domcover." + mod], fname)
        wrapper = _wrap(rec, qual, orig, annotate)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapper)
                    saved.append((m, attr, orig))
    try:
        yield
    finally:
        for m, attr, orig in saved:
            setattr(m, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, op_kinds: list[str], records: list, extras: dict) -> dict:
    """Every per-layer figure from one traced pass.

    op_kinds[i] is the kind of the op whose root span has op index i;
    records are the traced pass's run records (kind, labels, duration,
    result, outcome), used for the figures that come from CLI reports
    instead of spans.
    Figures of a layer the workload never calls read 0.
    """
    spans = rec.spans
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def self_s(name):
        return sum(spans[i].dur - sum(spans[c].dur for c in children.get(i, ())) for i in named(name))

    def total_s(name):
        return sum(spans[i].dur for i in named(name))

    def child(i, name):
        return [c for c in children.get(i, ()) if spans[c].name == name]

    lp, ft = named("simplex.solve_lp_max"), named("solvers.fractional_transversal")
    mds, boxes = named("solvers.min_dominating_set"), named("geometry.box_cover")

    def lp_share(keep):
        picked = [i for i in mds if keep(spans[i].attrs["n"])]
        lp_time = sum(spans[c].dur for i in picked for c in child(i, "solvers.fractional_transversal"))
        return _ratio(lp_time, sum(spans[i].dur for i in picked))

    rooted = [i for i in mds if child(i, "solvers.fractional_transversal")]
    useful = sum(1 for i in rooted
                 if math.ceil(spans[child(i, "solvers.fractional_transversal")[0]].attrs["value"])
                 == spans[i].attrs["size"])
    greedy_hits = sum(1 for i in mds for g in child(i, "solvers.greedy_dominating_set")
                      if spans[g].attrs["size"] == spans[i].attrs["size"])
    cover_dom = [child(i, "solvers.min_dominating_set") for i in boxes]
    d3_dom = [len(c) for i, c in zip(boxes, cover_dom) if spans[i].attrs["d"] == 3]

    def op_kind(i):
        return op_kinds[spans[i].op] if spans[i].op >= 0 else ""

    m = {
        "simplex.solve_lp_max.calls": len(lp),
        "simplex.solve_lp_max.self_s": self_s("simplex.solve_lp_max"),
        "simplex.tableau_cells": sum(spans[i].attrs["cells"] for i in lp),
        "solvers.fractional_transversal.self_s": self_s("solvers.fractional_transversal"),
        "solvers.fractional_transversal.random_p50_s":
            _median(spans[i].dur for i in ft if op_kind(i) == "lp.random"),
        "solvers.fractional_transversal.structured_p50_s":
            _median(spans[i].dur for i in ft if op_kind(i) == "lp.structured"),
        "solvers.min_dominating_set.calls": len(mds),
        "solvers.min_dominating_set.self_s": self_s("solvers.min_dominating_set"),
        "solvers.min_dominating_set.limit_proof_p50_s":
            _median(spans[i].dur for i in mds if spans[i].attrs["limit"] is not None),
        "solvers.root_lp_share": lp_share(lambda n: True),
        "solvers.root_lp_share.n_le_40": lp_share(lambda n: n <= 40),
        "solvers.root_lp_share.n_gt_40": lp_share(lambda n: n > 40),
        "solvers.root_lp_useful_ratio": _ratio(useful, len(rooted)),
        "solvers.greedy_optimal_ratio": _ratio(greedy_hits, len(mds)),
        "solvers.greedy_dominating_set.self_s": self_s("solvers.greedy_dominating_set"),
        "geometry.box_cover.self_s": self_s("geometry.box_cover"),
        "geometry.coordinate_tournament.s": total_s("geometry.coordinate_tournament"),
        "geometry.scrambled_orientation.calls": len(named("geometry.scrambled_orientation")),
        "geometry.scrambled_orientation.s": total_s("geometry.scrambled_orientation"),
        "geometry.dom_calls_per_cover": _ratio(sum(d3_dom), len(d3_dom)),
        "geometry.slowest_scrambling_share": _ratio(
            sum(max((spans[c].dur for c in cs), default=0.0) for cs in cover_dom),
            sum(spans[i].dur for i in boxes)),
        "geometry.box_cover.d3_p50_s": _median(spans[i].dur for i in boxes if spans[i].attrs["d"] == 3),
        "geometry.box_cover.d4_p50_s": _median(spans[i].dur for i in boxes if spans[i].attrs["d"] == 4),
        "geometry.box_cover.small_n_p50_s":
            _median(spans[i].dur for i in boxes if spans[i].attrs["n"] <= 40),
        "geometry.box_cover.cover_size_mean":
            _ratio(sum(spans[i].attrs["cover"] for i in boxes), len(boxes)),
        "paley.paley_tournament.s": total_s("paley.paley_tournament"),
        "core.parse_tournament.s": total_s("core.parse_tournament"),
        "core.domination_hypergraph.s": total_s("core.domination_hypergraph"),
    }
    m.update(_report_metrics(records))
    m["cli.import_s"] = extras["cli_import_s"]
    m["trace.overhead_s"] = extras["overhead_s"]
    m["trace.overhead_share"] = extras["overhead_share"]
    return m


CLI_SUBCOMMANDS = ("colorsearch", "vc", "encl", "refute", "netbound", "paley")


def _report_metrics(records: list) -> dict:
    """Figures read from fresh-interpreter runs: CLI reports and the DPLL child."""
    walls: dict[str, list[float]] = {sub: [] for sub in CLI_SUBCOMMANDS}
    elapsed: dict[str, float] = {}
    overhead, report_bytes = [], 0
    found = proven_none = 0
    extremal_wall, extremal_failed = 0.0, 0
    for r in records:
        if r.kind == "extremal":
            extremal_wall += r.duration
            extremal_failed += r.outcome != "ok"
            continue
        if not r.kind.startswith("cli."):
            continue
        sub = r.labels["sub"]
        walls[sub].append(r.duration)
        if r.result is None:
            continue
        report_bytes += len(r.result.stdout)
        if r.result.returncode != 0:
            continue
        report = json.loads(r.result.stdout)
        secs = report["elapsed_ms"] / 1000
        key = "netbound_scan" if sub == "netbound" and r.labels["scan"] else sub
        elapsed[key] = elapsed.get(key, 0.0) + secs
        overhead.append(r.duration - secs)
        if sub == "colorsearch":
            found += report["result"]["found"] is True
            proven_none += report["result"]["proven_none"] is True
    m = {
        "geometry.extremal_search.wall_s": extremal_wall,
        "geometry.extremal_search.failed": extremal_failed,
        "colorsearch.elapsed_s": elapsed.get("colorsearch", 0.0),
        "colorsearch.found": found,
        "colorsearch.proven_none": proven_none,
        "vcnets.vc.elapsed_s": elapsed.get("vc", 0.0),
        "vcnets.netbound_scan.elapsed_s": elapsed.get("netbound_scan", 0.0),
        "paley.refute.elapsed_s": elapsed.get("refute", 0.0),
        "cli.overhead_s": _median(overhead),
        "cli.report_bytes": report_bytes,
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.p50_s"] = _median(walls[sub])
    return m
