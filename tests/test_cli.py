import json

import pytest

from domcover.cli import main
from domcover.core import (
    cyclic_triangle,
    format_colored_tournament,
    format_tournament,
    parse_colored_tournament,
    parse_tournament,
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


def test_netbound_single_and_scan(capsys):
    code, report = run_cli(capsys, "netbound", "--a", "17", "--b", "14", "--variant", "refined")
    assert code == 0
    assert report["result"]["feasible"] is True
    code, report = run_cli(capsys, "netbound", "--scan", "--amax", "20", "--bmax", "20")
    assert code == 0
    assert report["result"]["best_bound"] == min(r["a"] for r in report["result"]["feasible"])


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


def test_exit_code_instance_too_large(c3_file):
    assert main(["dom", c3_file, "--ceiling", "2"]) == 3


def test_exit_code_budget_exhausted(tmp_path):
    path = tmp_path / "pt19.txt"
    path.write_text(format_tournament(paley_tournament(19)))
    assert main(["--budget", "10", "colorsearch", str(path), "--k", "3"]) == 4


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


def test_unexpected_error_exits_5_without_traceback(tmp_path, run_python):
    # the colour search recurses once per edge, so 1770 edges overflow the stack
    path = tmp_path / "t60.txt"
    path.write_text(format_tournament(transitive_tournament(60)))
    proc = run_python("-m", "domcover.cli", "colorsearch", str(path), "--k", "2")
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("internal error")
