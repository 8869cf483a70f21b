"""domcover benchmark: run one workload, check every result, print its metrics.

    python3 perfbench/run.py --workload lp_exact --seed 1 --seconds 20 --trace 0

Workloads: lp_exact, dom_bnb, boxcover, cli_search (see rationale.json).
Each is a closed loop with one caller: the next operation starts when the
last one has finished.  Whole rounds run until another round would
overrun --seconds (at least one round).  After each round every result is
checked by the oracles in reference.py; any failure counts against
error_rate, and a wrong or crashed result makes the run exit 1.

--trace 0 prints the end-to-end metrics, with every time corrected to
the reference host speed (hostspeed.py) and the raw figure beside it.
--trace 1 ignores --seconds: it runs round 0 in full twice, once untraced
and once on fresh objects with spans around every call into the package,
so the traced work is fixed by the seed.  It prints the per-layer metrics (raw
times) and the tracing overhead (traced minus untraced time).
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(SRC))  # workloads imports domcover from the checkout

import hostspeed  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 3
TAIL_BEYOND = 10


@dataclass
class Record:
    kind: str
    labels: dict
    duration: float
    result: object
    error: str | None
    outcome: str = ""
    detail: str = ""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    return p.parse_args(argv)


def environment() -> dict:
    """Stamp for every result; figures from different backends never compare."""
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "python": platform.python_version(),
        "backend": "gmpy2" if importlib.util.find_spec("gmpy2") else "fractions",
        "nproc": len(os.sched_getaffinity(0)),
        "scipy": scipy_version,
        "commit": git_commit(),
    }


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout
    except OSError:
        out = ""
    return out.strip() or "unknown"


def probe(argv: list[str]) -> float:
    """The seconds a fresh interpreter running child.py prints."""
    res = workloads.run_child(argv, WORK)
    if res.returncode != 0:
        raise SystemExit(f"perfbench: probe {argv[2:]} failed with exit code {res.returncode}: "
                         f"{res.stderr.decode(errors='replace')[-300:]}")
    return float(res.stdout)


def execute(op) -> Record:
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # any exception is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    return Record(op.kind, op.labels, time.perf_counter() - start, result, error)


def judge(rec: Record, op) -> None:
    if rec.error is not None:
        rec.outcome, rec.detail = "error", rec.error
        return
    try:
        op.check(rec.result)
        rec.outcome = "ok"
    except reference.Exhausted as exc:
        rec.outcome, rec.detail = "exhausted", str(exc)
    except reference.Mismatch as exc:
        rec.outcome, rec.detail = "mismatch", str(exc)
    except Exception as exc:  # an unreadable result is a wrong result
        rec.outcome, rec.detail = "mismatch", f"{type(exc).__name__}: {exc}"


def tail(latencies: list[float], per_round: int) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it in one round.

    The percentile is fixed by the round's op count, so it does not move
    when a run fits more rounds; returns (value, percentile).
    """
    share = max(per_round - TAIL_BEYOND, 1) / per_round
    ordered = sorted(latencies)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)], 100 * share


def peak_rss_kb(workload: str, records: list[Record]) -> int:
    if workload == "cli_search":
        return max(r.result.maxrss_kb for r in records if r.result is not None)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed_run(args, workdir: Path) -> tuple[list[Record], dict, dict]:
    # set-up probes time import domcover plus round 0's set-up calls into
    # the package, on inputs the benchmark generated here beforehand
    plan = workloads.plan_round(args.workload, args.seed, 0, args.tiny, workdir)
    calls = workdir / "setup-calls.json"
    with calls.open("w") as f:
        json.dump([s.call for s in plan], f)
    probe_argv = [sys.executable, str(HERE / "child.py"), "setup", str(calls)]
    probe_cals, setups = [], []
    for _ in range(SETUP_PROBES):
        probe_cals.append(hostspeed.calibrate())
        setups.append(probe(probe_argv))
    probe_cals.append(hostspeed.calibrate())

    records: list[Record] = []
    cals: list[float] = []
    covers: list[int] = []
    measured, rounds, per_round, peak_kb = 0.0, 0, 0, 0
    while rounds == 0 or measured + measured / rounds <= args.seconds:
        if rounds:
            plan = workloads.plan_round(args.workload, args.seed, rounds, args.tiny, workdir)
        ops = workloads.build(plan)
        del plan
        per_round = per_round or len(ops)
        batch = []
        for op in ops:
            cals.append(hostspeed.calibrate())
            batch.append(execute(op))
            measured += batch[-1].duration
        if rounds == 0:
            # round 0 alone, before any oracle runs: the figure does not
            # depend on how many rounds fit into --seconds
            peak_kb = peak_rss_kb(args.workload, batch)
        for rec, op in zip(batch, ops):
            judge(rec, op)
            if rec.outcome == "ok" and rec.kind.startswith("box."):
                covers.append(len(rec.result.cover))
            rec.result = None
        del ops  # release the round's inputs and results before the next round
        records += batch
        rounds += 1
    cals.append(hostspeed.calibrate())

    ok = sum(rec.outcome == "ok" for rec in records)
    latencies = [rec.duration for rec in records]
    corrected = hostspeed.correct(latencies, cals)
    tail_value, tail_pct = tail(latencies, per_round)
    raw = {
        "throughput_ops_s": ok / measured,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "throughput_ops_s": ok / sum(corrected),
        "latency_p50_s": statistics.median(corrected),
        "latency_tail_s": tail(corrected, per_round)[0],
        "setup_s": statistics.median(hostspeed.correct(setups, probe_cals)),
        "peak_rss_mb": peak_kb / 1024,
    }
    scale = sum(corrected) / measured
    notes = {
        "host_scale": scale,
        "raw": raw,
        "rounds": rounds,
        "measured_s": measured,
        "latency_tail_s": f"p{tail_pct:.1f} of {len(latencies)} samples",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters: import domcover + round 0's set-up calls",
        "peak_rss_mb": ("largest child" if args.workload == "cli_search" else "work process")
                       + " in round 0, before the oracles",
        "error_rate": (len(records) - ok) / len(records),
    }
    if covers:
        notes["cover_size_mean"] = sum(covers) / len(covers)
    return records, metrics, notes


def traced_run(args, workdir: Path) -> tuple[list[Record], dict, dict]:
    import tracing

    cli_argv = [sys.executable, str(HERE / "child.py"), "import-cli"]
    imports = [probe(cli_argv) for _ in range(IMPORT_PROBES)]

    # Round 0 runs in full, each op untraced and its twin (same inputs,
    # fresh objects) traced, the order alternating, so both sides see the
    # same process and the traced work does not depend on the clock.
    rec = tracing.Recorder()
    plain: list[Record] = []
    traced: list[Record] = []
    kinds: list[str] = []

    def run_traced(twin):
        with tracing.installed(rec):
            rec.op = len(kinds)
            kinds.append(twin.kind)
            root = rec.open("op")
            traced.append(execute(twin))
            rec.close(root)
            rec.op = -1

    plain_ops = workloads.build_round(args.workload, args.seed, 0, args.tiny, workdir / "plain")
    with tracing.installed(rec):
        twins = workloads.build_round(args.workload, args.seed, 0, args.tiny, workdir / "traced")
    for i, (op, twin) in enumerate(zip(plain_ops, twins)):
        if i % 2:
            run_traced(twin)
        plain.append(execute(op))
        if not i % 2:
            run_traced(twin)
    for r, op in zip(plain + traced, plain_ops + twins):
        judge(r, op)

    spent = sum(r.duration for r in plain)
    overhead = sum(r.duration for r in traced) - spent
    extras = {"cli_import_s": statistics.median(imports), "overhead_s": overhead,
              "overhead_share": overhead / spent}
    metrics = tracing.layer_metrics(rec, kinds, traced, extras)
    notes = {"untraced_s": spent, "traced_ops": len(traced), "spans": len(rec.spans)}
    return plain + traced, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        run = traced_run if args.trace else timed_run
        records, values, notes = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"perfbench: metric names drifted from BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
    failed = [r for r in records if r.outcome != "ok"]
    correct = all(r.outcome in ("ok", "exhausted") for r in records)

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} {json.dumps(notes)}")
    raw = notes.get("raw", {})
    for m in wanted:
        beside = f" (raw {raw[m['name']]:.6g})" if m["name"] in raw else ""
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}{beside}")
    if not args.trace:
        print(f"error_rate {notes['error_rate']:.6g} fraction ({len(failed)} of {len(records)})")
        if "cover_size_mean" in notes:
            print(f"cover_size_mean {notes['cover_size_mean']:.6g} points")
    for r in failed:
        print(f"# {r.outcome}: {r.kind} {json.dumps(r.labels)}: {r.detail[:300]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
