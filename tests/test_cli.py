import hashlib
import json

import pytest

from domcover.cli import main
from domcover.core import (
    cyclic_triangle,
    format_colored_tournament,
    format_tournament,
    parse_colored_tournament,
    parse_tournament,
    rainbow_triangle,
    random_tournament,
    transitive_tournament,
)
from domcover.paley import paley_tournament, pt7_transitive_coloring


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text(format_tournament(cyclic_triangle()))
    return str(path)


@pytest.fixture
def pt7_colored_file(tmp_path):
    path = tmp_path / "pt7c.txt"
    path.write_text(format_colored_tournament(pt7_transitive_coloring()))
    return str(path)


def test_dom_exact(c3_file, capsys):
    code, report = run_cli(capsys, "dom", c3_file)
    assert code == 0
    assert report["result"] == {"size": 2, "set": [0, 1], "optimal": True}
    assert report["command"] == "dom"
    assert c3_file in report["inputs"]["files"]


def test_dom_greedy_chain(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text(format_tournament(transitive_tournament(5)))
    code, report = run_cli(capsys, "dom", str(path), "--greedy")
    assert code == 0
    assert report["result"]["size"] == 1 and report["result"]["optimal"] is False


def test_dom_pt7(tmp_path, capsys):
    path = tmp_path / "pt7.txt"
    path.write_text(format_tournament(paley_tournament(7)))
    code, report = run_cli(capsys, "dom", str(path))
    assert code == 0 and report["result"]["size"] == 3


def test_encl_exhaustive(pt7_colored_file, capsys):
    code, report = run_cli(capsys, "encl", pt7_colored_file)
    assert code == 0
    assert report["result"]["method"] == "exhaustive"


def test_encl_scramblings(pt7_colored_file, capsys):
    code, report = run_cli(capsys, "encl", pt7_colored_file, "--method", "scramblings")
    assert code == 0
    sizes = report["result"]["mask_set_sizes"]
    assert len(sizes) == 8
    assert report["result"]["size"] <= report["result"]["size_sum"]


def test_scramble_roundtrip(pt7_colored_file, capsys):
    code, report = run_cli(capsys, "scramble", pt7_colored_file, "--mask", "1,3")
    assert code == 0
    out = parse_colored_tournament(report["result"]["text"])
    from domcover.core import scramble

    assert out == scramble(pt7_transitive_coloring(), {1, 3})


def test_classify_table(capsys):
    code, report = run_cli(capsys, "classify")
    assert code == 0
    assert report["result"]["counts"] == {"dictatorship": 6, "two_majority": 8, "parity": 2}


def test_classify_with_points(tmp_path, capsys):
    import random

    from domcover.cli import format_points
    from domcover.geometry import random_point_set

    path = tmp_path / "pts.txt"
    path.write_text(format_points(random_point_set(10, 3, random.Random(1))))
    code, report = run_cli(capsys, "classify", "--points", str(path))
    assert code == 0 and report["result"]["verified"] is True


def test_boxcover(tmp_path, capsys):
    import random

    from domcover.cli import format_points
    from domcover.geometry import random_point_set

    path = tmp_path / "pts3.txt"
    path.write_text(format_points(random_point_set(30, 3, random.Random(2))))
    code, report = run_cli(capsys, "boxcover", str(path))
    assert code == 0
    res = report["result"]
    assert res["verified"] is True and res["cover_size"] <= 64
    assert set(res["per_class_sizes"]) == {"dictatorship", "two_majority", "parity"}


def test_paley_emits_parsable_tournament(capsys, tmp_path):
    out_file = tmp_path / "pt7.txt"
    code, report = run_cli(capsys, "paley", "--q", "7", "--out", str(out_file))
    assert code == 0
    assert parse_tournament(report["result"]["text"]) == paley_tournament(7)
    assert parse_tournament(out_file.read_text()) == paley_tournament(7)


def test_refute(pt7_colored_file, capsys):
    code, report = run_cli(capsys, "refute", pt7_colored_file)
    assert code == 0
    assert report["result"]["contradiction"] is False


def test_colorsearch_proven_none(c3_file, capsys):
    code, report = run_cli(capsys, "colorsearch", c3_file, "--k", "2")
    assert code == 0
    assert report["result"]["proven_none"] is True


def test_colorsearch_found(tmp_path, capsys):
    path = tmp_path / "pt7.txt"
    path.write_text(format_tournament(paley_tournament(7)))
    code, report = run_cli(capsys, "colorsearch", str(path), "--k", "3")
    assert code == 0
    ct = parse_colored_tournament(report["result"]["coloring_text"])
    from domcover.core import verify_transitive_coloring

    assert verify_transitive_coloring(ct)


def test_colorsearch_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 1770 edges, one search level each
    path = tmp_path / "t60.txt"
    path.write_text(format_tournament(transitive_tournament(60)))
    code, report = run_cli(capsys, "colorsearch", str(path), "--k", "1")
    assert code == 0 and report["result"]["found"] is True
    ct = parse_colored_tournament(report["result"]["coloring_text"])
    from domcover.core import verify_transitive_coloring

    assert ct.base == transitive_tournament(60) and verify_transitive_coloring(ct)


def test_vc_and_lp(c3_file, capsys):
    code, report = run_cli(capsys, "vc", c3_file)
    assert code == 0 and report["result"]["vc"] == 1
    code, report = run_cli(capsys, "lp", c3_file)
    assert code == 0
    assert report["result"]["value"] == "3/2"
    assert report["result"]["dual_value"] == "3/2"


def test_epsnet(c3_file, capsys):
    code, report = run_cli(capsys, "--seed", "5", "epsnet", c3_file, "--a", "2", "--b", "2", "--trials", "300")
    assert code == 0
    assert 0 < report["result"]["success_rate"] < 1
    assert report["seed"] == 5


def test_epsnet_payloads_are_pinned(c3_file, capsys):
    # the tail draws never decide a trial, so drawing only the net keeps every count
    code, report = run_cli(capsys, "--seed", "5", "epsnet", c3_file, "--a", "2", "--b", "2", "--trials", "300")
    assert code == 0 and report["result"] == {
        "net_size": 2, "tail_size": 2, "trials": 300, "successes": 206,
        "success_rate": 0.6866666666666666, "heavy_edges": 3, "tau_star": "3/2",
    }
    code, report = run_cli(capsys, "--seed", "9", "epsnet", c3_file, "--a", "2", "--b", "1", "--trials", "100")
    assert code == 0 and report["result"] == {
        "net_size": 2, "tail_size": 1, "trials": 100, "successes": 70,
        "success_rate": 0.7, "heavy_edges": 3, "tau_star": "3/2",
    }


def test_netbound_single_and_scan(capsys):
    code, report = run_cli(capsys, "netbound", "--a", "17", "--b", "14", "--variant", "refined")
    assert code == 0
    assert report["result"]["feasible"] is True
    code, report = run_cli(capsys, "netbound", "--scan", "--amax", "20", "--bmax", "20")
    assert code == 0
    assert report["result"]["best_bound"] == min(r["a"] for r in report["result"]["feasible"])


def test_netbound_default_scan_payload_is_pinned(capsys):
    code, report = run_cli(capsys, "netbound", "--scan")
    result = report["result"]
    assert code == 0 and result["best_bound"] == 17 and len(result["feasible"]) == 726
    # the whole 40x40 refined payload, byte for byte
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    assert digest == "d39b6d8a771244eb17005d794b17c440c215fb06a4172eee936bf06b493f465c"


# sha256 of each `result` payload (json.dumps, sort_keys=True), recorded
# before the colouring was stored as class masks (the `lp` and `epsnet` ones
# before the simplex kept only its nonbasic columns); any change of edge
# colour, orientation, pivot order or output order shows here
PINNED_RESULTS = [
    (["scramble", "{pt7c}", "--mask", "1,3"],
     "49c447941b7613475102a1a9343c7a79e63e325d17650b44bfaab08ff186b7fb"),
    (["scramble", "{blowup}", "--mask", "2"],
     "b16814b4f2a1ce1d5ddc922be678a197620fa5f5bc1d77f19b924101980783f6"),
    (["encl", "{pt7c}", "--method", "scramblings"],
     "ead83f2abba3f10673195b93aeaf7eac62b0cf4a31c308526d86d6c5d4e546a0"),
    (["encl", "{blowup}", "--method", "scramblings"],
     "c1def9c70be4a93ec11c8c16b0c7c8483db79cbd4537c251ed6aa2e843078473"),
    (["refute", "{pt7c}"],
     "65406ef2628309afe8761c5227e7be1dfe228645d622ee61e44472f60c246b6a"),
    (["colorsearch", "{pt7}", "--k", "3"],
     "574270f970d927f3f5ae25b3c94cbac73c34dc2e5ebb10f1f204deec3acc810f"),
    (["colorsearch", "{pt11}", "--k", "4"],  # found
     "bfd603fcb53fc57a8270b2e04227bdd960af37a54076093af68a5f15131d2638"),
    (["colorsearch", "{pt11}", "--k", "3"],  # proven none
     "32d384c20165199b8115fc33e40df77418d8c742e8086d33016b86199b2672ed"),
    (["classify", "--points", "{pts}"],
     "716571d1561ead40a107b43b4bb60584238ae3c41bb9dab8de1be14b61669e3a"),
    (["lp", "{c3}"],
     "7937d9b5fb8aa1632da5422db64b772d8d3aa826714141703e74f2f7d48d79c5"),
    (["lp", "{pt7}"],
     "4ecd5d24c4c76b57131e963f77cb5c5d1843c7de68b9da5c8d068cd82c88b05a"),
    (["lp", "{pt11}"],
     "e23d45b32030495bc4c7d939c32a1bab3f796afb7fdf527174ca9a2fad0f8bc4"),
    (["lp", "{trans}"],
     "0d36934f9f3f7f53502f80d1b668b0cc771093912291481f2faf0a49d3b93610"),
    (["lp", "{rand24}"],
     "d4e39df4f2203a6fd76a90fa464c2d7cbb5a0c27b97c461951a1e0c58644a586"),
    (["lp", "{rand40}"],
     "f18460440ad3c366221a7d712ddd5b1549d264f2abc3910c816722346df6f21d"),
    (["--seed", "3", "epsnet", "{rand40}", "--a", "4", "--b", "3", "--trials", "200"],
     "3927dc97582539ebf010b136fdb91a5a102eef43d3b5caced107c8da09626897"),
]


@pytest.mark.parametrize("argv,digest", PINNED_RESULTS)
def test_result_payloads_are_pinned(argv, digest, tmp_path, capsys):
    import random

    from domcover.cli import format_points
    from domcover.colorsearch import blowup_c3
    from domcover.geometry import random_point_set

    texts = {
        "pt7c": format_colored_tournament(pt7_transitive_coloring()),
        "blowup": format_colored_tournament(blowup_c3()),
        "pt7": format_tournament(paley_tournament(7)),
        "pt11": format_tournament(paley_tournament(11)),
        "pts": format_points(random_point_set(12, 3, random.Random(3))),
        "c3": format_tournament(cyclic_triangle()),
        "trans": format_tournament(transitive_tournament(30)),
        "rand24": format_tournament(random_tournament(24, random.Random(24))),
        "rand40": format_tournament(random_tournament(40, random.Random(40))),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    code, report = run_cli(capsys, *[a.format(**paths) for a in argv])
    assert code == 0
    result = json.dumps(report["result"], sort_keys=True).encode()
    assert hashlib.sha256(result).hexdigest() == digest


def test_reproducible_payloads(c3_file, capsys):
    _, first = run_cli(capsys, "--seed", "9", "epsnet", c3_file, "--a", "2", "--b", "1", "--trials", "100")
    _, second = run_cli(capsys, "--seed", "9", "epsnet", c3_file, "--a", "2", "--b", "1", "--trials", "100")
    assert json.dumps(first["result"], sort_keys=True) == json.dumps(second["result"], sort_keys=True)


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1\n0 1\n")  # duplicate pair
    assert main(["dom", str(path)]) == 2
    path.write_text("20000000\n")  # header alone, rejected before sizing by it
    assert main(["dom", str(path)]) == 2
    path.write_text("20000000 3\n")
    assert main(["encl", str(path)]) == 2
    path.write_bytes(b"3\n\xff\xfe\n")
    assert main(["dom", str(path)]) == 2


@pytest.mark.parametrize("argv", [
    ["scramble", "{colored}", "--mask", "9"],
    ["scramble", "{colored}", "--mask", "x"],
    ["epsnet", "{c3}", "--a", "1", "--b", "1", "--trials", "0"],
    ["netbound", "--a", "0", "--b", "0"],
    ["dom", "{c3}", "--limit", "-1"],
    ["colorsearch", "{c3}", "--k", "0"],
    ["colorsearch", "{c3}", "--k", "4"],
    ["epsnet", "{c3}", "--a", "-5", "--b", "1", "--trials", "3"],
    ["epsnet", "{c3}", "--a", "0", "--b", "1", "--trials", "3"],
    ["epsnet", "{c3}", "--a", "1", "--b", "-1", "--trials", "3"],
    ["vc", "{c3}", "--mode", "sampled", "--trials", "-1"],
    ["vc", "{c3}", "--mode", "sampled", "--trials", "0"],
    ["netbound", "--scan", "--amax", "201"],
    ["netbound", "--scan", "--bmax", "201"],
    ["netbound", "--scan", "--amax", "1000000000", "--bmax", "1000000000"],
    ["netbound", "--scan", "--amax", "0"],
    ["epsnet", "{c3}", "--a", "4000000", "--b", "0", "--trials", "3"],
    ["dom", "{c3}", "--greedy", "--limit", "0"],
    ["dom", "{c3}", "--ceiling", "-1"],
    ["colorsearch", "{c3}", "--k", "2", "--budget", "0"],
    ["colorsearch", "{c3}", "--k", "2", "--budget", "-5"],
    ["vc", "{c3}", "--mode", "sampled", "--trials", "100001"],
    ["dom", "{c3}", "--greedy", "--ceiling", "5"],
    ["encl", "{colored}", "--greedy-fallback"],
    ["classify", "--ranks"],
    ["netbound", "--scan", "--a", "17"],
    ["netbound", "--a", "17", "--b", "14", "--amax", "3"],
    ["vc", "{c3}", "--trials", "7"],
])
def test_bad_arguments_exit_2(argv, c3_file, tmp_path, capsys):
    colored = tmp_path / "rainbow.txt"
    colored.write_text(format_colored_tournament(rainbow_triangle()))
    argv = [a.format(c3=c3_file, colored=colored) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_budget_is_a_colorsearch_option_only(c3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "5", "dom", c3_file])
    assert exc.value.code == 2 and "domcover: error:" in capsys.readouterr().err


def test_lp_has_no_mode_option(c3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lp", c3_file, "--mode", "approximate"])
    assert exc.value.code == 2 and "domcover: error:" in capsys.readouterr().err


def _rainbow_text(n: int) -> str:
    # the transitive order on n vertices, each edge its own color
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v} {c}\n" for c, (u, v) in enumerate(pairs, 1))


def test_exit_code_instance_too_large(c3_file):
    assert main(["dom", c3_file, "--ceiling", "2"]) == 3


@pytest.mark.parametrize("argv", [
    # (k+1)*n class masks above CLASS_MASK_CEILING: n=300 with 44,850 colors
    ["scramble", "{rainbow}", "--mask", "1"],
    ["colorsearch", "{t300}", "--k", "44850"],
])
def test_class_storage_above_the_ceiling_exits_3(argv, tmp_path, capsys):
    rainbow = tmp_path / "rainbow300.txt"
    rainbow.write_text(_rainbow_text(300))
    t300 = tmp_path / "t300.txt"
    t300.write_text(format_tournament(transitive_tournament(300)))
    assert main([a.format(rainbow=rainbow, t300=t300) for a in argv]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_budget_exhausted(tmp_path):
    path = tmp_path / "pt19.txt"
    path.write_text(format_tournament(paley_tournament(19)))
    assert main(["colorsearch", str(path), "--k", "3", "--budget", "10"]) == 4


def test_exit_code_missing_file():
    assert main(["dom", "/nonexistent/never.txt"]) == 2


def test_text_format_output(c3_file, capsys):
    code = main(["--format", "text", "dom", c3_file])
    out = capsys.readouterr().out
    assert code == 0 and "size: 2" in out


def test_module_entry_point(run_python):
    proc = run_python("-m", "domcover.cli", "netbound", "--a", "17", "--b", "14")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["feasible"] is True


def test_unexpected_error_exits_5_without_traceback(c3_file, run_python):
    # a fault no handler expects, planted in the colour search
    script = f"""
import sys
from domcover import cli, colorsearch
def overflow(*args, **kwargs):
    raise RecursionError("maximum recursion depth exceeded")
colorsearch.find_transitive_coloring = overflow
sys.exit(cli.main(["colorsearch", {c3_file!r}, "--k", "2"]))
"""
    proc = run_python("-c", script)
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("internal error")
