"""Command-line surface: one thin subcommand per library operation.

Every run emits a single JSON report on stdout:

    {"command": ..., "inputs": {...}, "result": ..., "elapsed_ms": ..., "seed": ...}

The result payload is a pure function of (inputs, seed), so identical
invocations reproduce byte-identical payloads.  Exit codes: 0 success,
2 parse error or bad argument, 3 instance too large, 4 search budget
exhausted, 5 internal invariant failure or any other unexpected error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import colorsearch, geometry, paley, solvers, vcnets
from .core import (
    domination_hypergraph,
    format_colored_tournament,
    format_tournament,
    parse_colored_tournament,
    parse_tournament,
    scramble,
)
from .errors import (
    BudgetExhaustedError,
    DomcoverError,
    InstanceTooLargeError,
    InvariantError,
    ParseError,
    SearchFailedError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3
EXIT_BUDGET = 4
EXIT_INVARIANT = 5


def _load(path: str, files: dict[str, str]) -> str:
    """Read an input file as text and record its digest in the report."""
    data = Path(path).read_bytes()
    files[path] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(1, f"not UTF-8 text: {exc.reason}") from None


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _parse_points_text(text: str, relabel: bool) -> geometry.PointSet:
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(tuple(Fraction(tok) for tok in line.split()))
        except ValueError:
            raise ParseError(ln, f"bad coordinate in {line!r}") from None
    if not rows:
        raise ParseError(1, "empty point file")
    if relabel:
        return geometry.rank_relabeled(rows)
    return geometry.point_set(rows)


def format_points(ps: geometry.PointSet) -> str:
    return "\n".join(" ".join(str(c) for c in p) for p in ps.points) + "\n"


# ---------------------------------------------------------------------------
# subcommand payloads


def _cmd_dom(args, files):
    t = parse_tournament(_load(args.file, files))
    if args.greedy:
        if args.limit is not None or args.ceiling is not None:
            raise ValueError("--limit and --ceiling need the exact search, not --greedy")
        s = solvers.greedy_dominating_set(t)
        return {"size": len(s), "set": sorted(s), "optimal": False}
    ceiling = solvers.EXACT_DOM_CEILING if args.ceiling is None else args.ceiling
    res = solvers.min_dominating_set(t, limit=args.limit, ceiling=ceiling)
    if isinstance(res, solvers.NoSetWithinLimit):
        return {"within_limit": False, "limit": res.limit, "lower_bound": res.lower_bound}
    return {"size": res.size, "set": sorted(res.vertices), "optimal": res.optimal}


def _cmd_encl(args, files):
    ct = parse_colored_tournament(_load(args.file, files))
    if args.method == "exhaustive":
        if args.greedy_fallback:
            raise ValueError("--greedy-fallback needs --method scramblings")
        s = solvers.min_enclosure_set(ct)
        return {"size": len(s), "set": sorted(s), "method": "exhaustive"}
    res = solvers.enclosure_via_scramblings(ct, exact=not args.greedy_fallback)
    return {
        "size": len(res.vertices),
        "set": sorted(res.vertices),
        "method": "scramblings",
        "mask_set_sizes": {
            ",".join(map(str, sorted(m))) or "-": s
            for m, s in sorted(res.mask_set_sizes.items(), key=lambda kv: sorted(kv[0]))
        },
        "size_sum": res.size_sum,
    }


def _cmd_scramble(args, files):
    ct = parse_colored_tournament(_load(args.file, files))
    mask = frozenset(int(c) for c in args.mask.split(",") if c)
    out = scramble(ct, mask)
    formatted = format_colored_tournament(out)
    if args.out:
        Path(args.out).write_text(formatted)
    return {"n": out.n, "k": out.k, "mask": sorted(mask), "text": formatted}


def _cmd_classify(args, files):
    if args.ranks and not args.points:
        raise ValueError("--ranks needs --points")
    rows = []
    counts: dict[str, int] = {}
    for mask in geometry.sign_pattern_masks():
        cls = geometry.classify_scrambling_3d(mask)
        counts[cls.kind] = counts.get(cls.kind, 0) + 1
        rows.append(
            {"patterns": sorted("".join(p) for p in mask), "class": cls.describe()}
        )
    verified = None
    if args.points:
        ps = _parse_points_text(_load(args.points, files), args.ranks)
        if ps.d != 3:
            raise ParseError(1, "classification verification needs 3-dimensional points")
        verified = geometry.verify_classification(ps)
    return {"classes": rows, "counts": counts, "verified": verified}


def _cmd_boxcover(args, files):
    ps = _parse_points_text(_load(args.file, files), args.ranks)
    cert = geometry.box_cover(ps, method=args.method)
    payload = cert.to_json_dict()
    payload["verified"] = cert.verify(ps)
    payload["cover_size"] = len(cert.cover)
    return payload


def _cmd_paley(args, files):
    t = paley.paley_tournament(args.q)
    formatted = format_tournament(t)
    if args.out:
        Path(args.out).write_text(formatted)
    return {"q": args.q, "text": formatted}


def _cmd_refute(args, files):
    ct = parse_colored_tournament(_load(args.file, files))
    return paley.refute_transitive_coloring(ct).to_json_dict()


def _cmd_colorsearch(args, files):
    t = parse_tournament(_load(args.file, files))
    budget = colorsearch.SEARCH_BUDGET if args.budget is None else args.budget
    ct = colorsearch.find_transitive_coloring(t, args.k, budget=budget)
    if ct is None:
        return {"k": args.k, "found": False, "proven_none": True, "coloring_text": None}
    return {
        "k": args.k,
        "found": True,
        "proven_none": False,
        "coloring_text": format_colored_tournament(ct),
    }


def _cmd_vc(args, files):
    if args.mode == "exact" and args.trials is not None:
        raise ValueError("--trials needs --mode sampled")
    t = parse_tournament(_load(args.file, files))
    trials = vcnets.SAMPLED_TRIALS_DEFAULT if args.trials is None else args.trials
    rep = vcnets.vc_dimension(
        domination_hypergraph(t), mode=args.mode, seed=args.seed or 0, trials=trials
    )
    return {
        "vc": rep.vc,
        "witness": sorted(rep.witness) if rep.witness else None,
        "exact": rep.exact,
        "trace_counts": {str(k): v for k, v in sorted(rep.trace_counts.items())},
    }


def _cmd_lp(args, files):
    t = parse_tournament(_load(args.file, files))
    sol = solvers.fractional_transversal(domination_hypergraph(t))
    return {
        "mode": "exact",
        "value": _frac(sol.value),
        "dual_value": _frac(sol.dual_value),
        "weights": [_frac(w) for w in sol.weights],
    }


def _cmd_epsnet(args, files):
    t = parse_tournament(_load(args.file, files))
    h = domination_hypergraph(t)
    sol = solvers.fractional_transversal(h)
    rep = vcnets.epsnet_sample(
        h, sol.weights, args.a, args.b, trials=args.trials, seed=args.seed or 0
    )
    return {
        "net_size": rep.net_size,
        "tail_size": rep.tail_size,
        "trials": rep.trials,
        "successes": rep.successes,
        "success_rate": rep.success_rate,
        "heavy_edges": rep.heavy_edges,
        "tau_star": _frac(sol.value),
    }


def _cmd_netbound(args, files):
    if args.scan:
        if args.a is not None or args.b is not None:
            raise ValueError("--a and --b do not apply to --scan")
        amax = vcnets.NETBOUND_SCAN_DEFAULT if args.amax is None else args.amax
        bmax = vcnets.NETBOUND_SCAN_DEFAULT if args.bmax is None else args.bmax
        reports = vcnets.feasibility_scan(amax, bmax, args.variant)
        return {
            "variant": args.variant,
            "feasible": [r.to_json_dict() for r in reports],
            "best_bound": min((r.a for r in reports), default=None),
        }
    if args.amax is not None or args.bmax is not None:
        raise ValueError("--amax and --bmax need --scan")
    if args.a is None or args.b is None:
        raise ParseError(0, "netbound needs --a and --b (or --scan)")
    return vcnets.epsnet_feasibility(args.a, args.b, args.variant).to_json_dict()


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domcover",
        description="tournament domination, colorings, box covers, net arithmetic",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized commands")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dom", help="minimum dominating set of a tournament file")
    p.add_argument("file")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--ceiling", type=int, default=None)
    p.set_defaults(run=_cmd_dom)

    p = sub.add_parser("encl", help="minimum enclosure set of a colored tournament")
    p.add_argument("file")
    p.add_argument("--method", choices=["exhaustive", "scramblings"], default="exhaustive")
    p.add_argument("--greedy-fallback", action="store_true")
    p.set_defaults(run=_cmd_encl)

    p = sub.add_parser("scramble", help="reverse the listed color classes")
    p.add_argument("file")
    p.add_argument("--mask", required=True, help="comma-separated colors, e.g. 1,3")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_scramble)

    p = sub.add_parser("classify", help="the sixteen 3-coordinate reversal classes")
    p.add_argument("--points", help="verify orientation rules against this point file")
    p.add_argument("--ranks", action="store_true", help="rank-relabel degenerate data")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("boxcover", help="box-cover certificate for a point file")
    p.add_argument("file")
    p.add_argument("--method", choices=["exact", "greedy"], default="exact")
    p.add_argument("--ranks", action="store_true", help="rank-relabel degenerate data")
    p.set_defaults(run=_cmd_boxcover)

    p = sub.add_parser("paley", help="emit a Paley tournament")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_paley)

    p = sub.add_parser("refute", help="run the coloring refutation pipeline")
    p.add_argument("file")
    p.set_defaults(run=_cmd_refute)

    p = sub.add_parser("colorsearch", help="search for a transitive k-coloring")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.set_defaults(run=_cmd_colorsearch)

    p = sub.add_parser("vc", help="VC dimension of the domination hypergraph")
    p.add_argument("file")
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--trials", type=int, default=None, help="subsets drawn per size (sampled)")
    p.set_defaults(run=_cmd_vc)

    p = sub.add_parser("lp", help="fractional transversal of the domination hypergraph")
    p.add_argument("file")
    p.set_defaults(run=_cmd_lp)

    p = sub.add_parser("epsnet", help="empirical half-net sampling")
    p.add_argument("file")
    p.add_argument("--a", type=int, required=True, help="net size")
    p.add_argument("--b", type=int, required=True, help="tail size")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(run=_cmd_epsnet)

    p = sub.add_parser("netbound", help="exact half-net feasibility arithmetic")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--variant", choices=["cube", "halved", "refined"], default="refined")
    p.add_argument("--scan", action="store_true")
    p.add_argument("--amax", type=int, default=None)
    p.add_argument("--bmax", type=int, default=None)
    p.set_defaults(run=_cmd_netbound)

    return parser


def _flag_dict(args: argparse.Namespace) -> dict:
    skip = {"run", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _summarize(payload, out) -> None:
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (list, dict)) and len(str(value)) > 120:
                value = f"<{type(value).__name__} of {len(value)} items>"
            print(f"{key}: {value}", file=out)
    else:
        print(payload, file=out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    files: dict[str, str] = {}
    started = time.monotonic()
    try:
        payload = args.run(args, files)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (BudgetExhaustedError, SearchFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, DomcoverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # the CLI promises an exit code, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    elapsed_ms = int((time.monotonic() - started) * 1000)
    report = {
        "command": args.command,
        "inputs": {"files": files, "flags": _flag_dict(args)},
        "result": payload,
        "elapsed_ms": elapsed_ms,
        "seed": args.seed,
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _summarize(payload, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
