"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted by every
workload in both modes, that each oracle rejects a corrupted result, that
the expected Paley domination numbers hold by exhaustive search, and that
the oracles import nothing from the package they judge.  Exits 1 on any
failure.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from domcover import core, geometry, solvers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def rejects(check, result, kind=ref.Mismatch) -> bool:
    try:
        check(result)
    except kind:
        return True
    return False


def test_every_metric_emitted():
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, f"{w['name']} trace {trace}: {proc.stderr[-500:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
            names = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == names, f"{w['name']} trace {trace}: {set(got) ^ set(names)}"
            if trace == 0:
                for name in ("throughput_ops_s", "latency_p50_s", "latency_tail_s",
                             "setup_s", "peak_rss_mb", "error_rate"):
                    assert any(line.startswith(name + " ") for line in proc.stdout.splitlines())
                covers = any(line.startswith("cover_size_mean ") for line in proc.stdout.splitlines())
                assert covers == (w["name"] == "boxcover")


def test_lp_oracle_rejects_lowered_weight():
    masks = ref.random_masks(7, random.Random(1))
    sol = solvers.fractional_transversal(core.domination_hypergraph(
        core.parse_tournament(ref.tournament_text(masks))), mode="exact")
    ref.check_transversal(masks, sol)
    v = next(i for i, w in enumerate(sol.weights) if w > 0)
    lowered = list(sol.weights)
    lowered[v] -= lowered[v] / 2
    assert rejects(lambda s: ref.check_transversal(masks, s),
                   dataclasses.replace(sol, weights=tuple(lowered)))
    assert rejects(lambda s: ref.check_transversal(masks, s),
                   dataclasses.replace(sol, dual_value=sol.value + Fraction(1, 7)))


def test_box_oracle_rejects_dropped_witness():
    rows = workloads.random_rows(41, 3, random.Random(2))
    cert = geometry.box_cover(geometry.point_set(rows))
    ref.check_box_cover(rows, cert)
    dropped = dict(cert.witnesses)
    dropped.pop(next(iter(dropped)))
    assert rejects(lambda c: ref.check_box_cover(rows, c),
                   dataclasses.replace(cert, witnesses=dropped))
    sizes = dict(cert.per_class_sizes, dictatorship=[2] + cert.per_class_sizes["dictatorship"][1:])
    assert rejects(lambda c: ref.check_box_cover(rows, c),
                   dataclasses.replace(cert, per_class_sizes=sizes))


def test_dom_oracle_rejects_bad_sets():
    masks = ref.random_masks(45, random.Random(3))
    cert = solvers.min_dominating_set(core.parse_tournament(ref.tournament_text(masks)))
    check = workloads._check_random_dom(masks)
    check(cert)
    smaller = set(cert.vertices)
    smaller.pop()
    assert rejects(check, dataclasses.replace(cert, vertices=frozenset(smaller), size=len(smaller)))
    bigger = cert.vertices | {min(set(range(45)) - cert.vertices)}
    assert rejects(check, dataclasses.replace(cert, vertices=bigger, size=len(bigger)))


def _report(result: dict) -> workloads.ChildResult:
    return workloads.ChildResult(0, json.dumps({"result": result}).encode(), b"", 0)


def test_cli_oracles_reject_flipped_verdicts():
    masks = ref.paley_masks(11)
    none = {"found": False, "proven_none": True, "coloring_text": None}
    check = workloads._cli_op("colorsearch", [], {}, workloads._check_colorsearch(masks, 3, False),
                              HERE).check
    check(_report(none))
    assert rejects(check, _report(dict(none, found=True, proven_none=False)))
    planted, _ = ref.c3_blowup_masks(12, random.Random(4))
    one_color = ref.colored_text(planted, 3, {e: 1 for e in ref.edges(planted)})
    check = workloads._cli_op("colorsearch", [], {}, workloads._check_colorsearch(planted, 3, True),
                              HERE).check
    assert rejects(check, _report({"found": True, "proven_none": False, "coloring_text": one_color}))
    assert rejects(check, _report(none))
    a, b = workloads.NETBOUND_AB
    verdict = ref.refined_feasible(a, b)
    check = workloads._cli_op("netbound", [], {}, workloads._check_netbound, HERE).check
    check(_report({"feasible": verdict}))
    assert rejects(check, _report({"feasible": not verdict}))
    crashed = workloads.ChildResult(5, b"", b"internal invariant failure", 0)
    assert rejects(check, crashed)
    assert rejects(check, dataclasses.replace(crashed, returncode=4), ref.Exhausted)


def test_paley_domination_numbers():
    for q, dom in workloads.PALEY_DOM.items():
        masks = ref.paley_masks(q)
        assert ref.dominated_within(masks, dom), q
        assert not ref.dominated_within(masks, dom - 1), q


def test_oracles_share_no_code():
    tree = ast.parse((HERE / "reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("domcover") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("domcover")


def test_rationale_covers_every_name():
    rationale = json.loads((HERE / "rationale.json").read_text())
    assert set(rationale["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(rationale["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(rationale["end_to_end"])
    known = set(rationale["end_to_end"])
    for name, entry in rationale["per_layer"].items():
        for target in entry["moves"]:
            metric, _, workload = target.partition("@")
            assert metric in known and workload in rationale["workloads"], (name, target)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # report every failing test, then exit 1
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
