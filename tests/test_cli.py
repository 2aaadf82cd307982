import json
import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from pedoe import Sphere, pedoe_product
from pedoe.cli import relation_value, render_svg, run
from pedoe.packing import gasket

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def check_golden(name: str, text: str):
    path = GOLDEN / name
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text


# ---------------------------------------------------------------------------
# golden outputs


def test_descartes_golden(capsys):
    code, out = run_cli(capsys, "descartes", fixture("unit_triple.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["curvatures"][0] == pytest.approx(6.4641016, abs=1e-6)
    assert doc["curvatures"][1] == pytest.approx(-0.4641016, abs=1e-6)
    check_golden("descartes_unit_triple.json", out)


def test_apollonius_all_golden(capsys):
    code, out = run_cli(capsys, "apollonius", fixture("unit_triple.json"), "--signs", "all")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["patterns"]) == 8
    check_golden("apollonius_unit_triple_all.json", out)


def test_apollonius_single_pattern(capsys):
    code, out = run_cli(capsys, "apollonius", fixture("unit_triple.json"), "--signs", "+++")
    assert code == 0
    doc = json.loads(out)
    assert doc["signs"] == [1, 1, 1]
    assert doc["curvatures"][0] == pytest.approx(6.4641016, abs=1e-6)


def test_verify_four_orthogonal_golden(capsys):
    code, out = run_cli(capsys, "verify", fixture("four_orthogonal.json"))
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "NotRealizable"
    assert doc["inertia"] == [0, 4, 0]
    check_golden("verify_four_orthogonal.json", out)


def test_verify_quadruple_golden(capsys):
    code, out = run_cli(capsys, "verify", fixture("descartes_quadruple.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Realizable"
    assert doc["inertia"] == [1, 3, 0]
    assert doc["master_residual"] <= 1e-9
    check_golden("verify_descartes_quadruple.json", out)


def test_verify_distance_relations(capsys):
    # all-tangent Gram assembled purely from center distances and radii
    code, out = run_cli(capsys, "verify", fixture("tangent_distances.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Realizable"
    assert doc["gram"][0][1] == pytest.approx(1.0)


def test_orthocircle_command(capsys):
    code, out = run_cli(capsys, "orthocircle", fixture("unit_triple.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["curvatures"][0] == pytest.approx(math.sqrt(3.0), abs=1e-7)


def test_render_golden(capsys, tmp_path):
    out_file = tmp_path / "triple.svg"
    code, _ = run_cli(
        capsys, "render", fixture("render_with_solutions.json"), "-o", str(out_file)
    )
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    # byte-determinism: a second run writes the identical file
    code, _ = run_cli(
        capsys, "render", fixture("render_with_solutions.json"), "-o", str(out_file)
    )
    assert out_file.read_text(encoding="utf-8") == text
    check_golden("render_triple_soddy.svg", text)


# ---------------------------------------------------------------------------
# behavior and exit codes


def test_solve_roundtrip(capsys, tmp_path):
    code, out = run_cli(capsys, "solve", fixture("solve_orthogonal.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) == 2
    again = tmp_path / "roundtrip.json"
    again.write_text(out, encoding="utf-8")
    code, out = run_cli(capsys, "verify", str(again), "--json")
    assert code == 0
    verdicts = json.loads(out)["completions"]
    assert len(verdicts) == 2
    for entry in verdicts:
        assert entry["verdict"] == "Realizable"
        assert entry["master_residual"] <= 1e-8


def test_solve_no_real_solution_exits_one(capsys):
    code, out = run_cli(capsys, "solve", fixture("solve_impossible.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["solutions"] == []
    assert doc["discriminant"] < 0


def test_dimension_mismatch_exits_two(capsys):
    code, _ = run_cli(capsys, "solve", fixture("bad_dimension.json"))
    assert code == 2


def test_missing_file_exits_two(capsys):
    code, _ = run_cli(capsys, "verify", fixture("does_not_exist.json"))
    assert code == 2


def test_missing_constraints_exits_two(capsys):
    code, _ = run_cli(capsys, "solve", fixture("unit_triple.json"))
    assert code == 2


def test_bad_signs_exits_two(capsys):
    code, _ = run_cli(capsys, "apollonius", fixture("unit_triple.json"), "--signs", "+*+")
    assert code == 2


def test_dependent_knowns_exit_three(capsys):
    code, _ = run_cli(capsys, "solve", fixture("pencil.json"))
    assert code == 3


def test_nontangent_descartes_exits_three(capsys):
    code, _ = run_cli(capsys, "descartes", fixture("nontangent_triple.json"))
    assert code == 3


def test_bad_usage_exits_two(capsys):
    assert run(["frobnicate", "x.json"]) == 2


def test_default_output_rounds_to_nine_digits(capsys):
    _, rounded = run_cli(capsys, "descartes", fixture("unit_triple.json"))
    _, full = run_cli(capsys, "descartes", fixture("unit_triple.json"), "--json")
    assert "6.46410162" in rounded
    assert "6.464101615137" in full


# ---------------------------------------------------------------------------
# rendering details


def test_render_counts_elements(capsys, tmp_path):
    out_file = tmp_path / "five.svg"
    run_cli(capsys, "render", fixture("render_with_solutions.json"), "-o", str(out_file))
    root = ET.fromstring(out_file.read_text(encoding="utf-8"))
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 5
    dashed = [c for c in circles if c.get("stroke-dasharray")]
    assert len(dashed) == 2


def test_render_rejects_other_dimensions(capsys, tmp_path):
    code, _ = run_cli(capsys, "render", fixture("render_3d.json"), "-o", str(tmp_path / "x.svg"))
    assert code == 2


def test_render_empty_canvas(capsys, tmp_path):
    out_file = tmp_path / "empty.svg"
    code, _ = run_cli(capsys, "render", fixture("empty.json"), "-o", str(out_file))
    assert code == 0
    root = ET.fromstring(out_file.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")


def test_render_svg_clips_lines():
    from pedoe import Hyperplane

    svg = render_svg([Sphere([0.0, 0.0], 1.0)], [Hyperplane([0.0, 1.0], -1.0)])
    root = ET.fromstring(svg)
    lines = root.findall(".//{http://www.w3.org/2000/svg}line")
    assert len(lines) == 1
    x1 = float(lines[0].get("x1"))
    x2 = float(lines[0].get("x2"))
    assert min(x1, x2) >= -1.2 and max(x1, x2) <= 1.2


# ---------------------------------------------------------------------------
# gasket


def test_gasket_soundness_and_determinism(capsys):
    code, out = run_cli(
        capsys, "gasket", fixture("unit_triple.json"), "--max-curvature", "40", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == len(doc["circles"]) > 20
    assert doc["truncated"] is False
    circles = [Sphere(c["center"], c["radius"]) for c in doc["circles"]]
    for record, circle in zip(doc["circles"], circles):
        assert abs(circle.curvature) <= 40.0 + 1e-9
        if record["parents"] is None:
            continue
        for parent in record["parents"]:
            assert pedoe_product(circle, circles[parent]) == pytest.approx(1.0, abs=1e-7)
    code, out2 = run_cli(
        capsys, "gasket", fixture("unit_triple.json"), "--max-curvature", "40", "--json"
    )
    assert out2 == out


def test_gasket_reports_truncation(capsys, monkeypatch):
    monkeypatch.setattr("pedoe.cli.gasket", lambda seed, k: gasket(seed, k, max_count=50))
    code = run(["gasket", fixture("unit_triple.json"), "--max-curvature", "40", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["truncated"] is True and doc["count"] == len(doc["circles"]) == 50
    assert "warning: gasket truncated at 50 circles" in captured.err


# ---------------------------------------------------------------------------
# relation parsing


def test_relation_values():
    assert relation_value("external") == 1.0
    assert relation_value("INTERNAL") == -1.0
    assert relation_value("orthogonal") == 0.0
    assert relation_value("angle:60") == pytest.approx(0.5)
    assert relation_value(-0.25) == -0.25
    assert relation_value("distance:2.0", 1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relation_value("distance:2.0")  # radii unknown
    with pytest.raises(ValueError):
        relation_value("kissing")
    with pytest.raises(ValueError):
        relation_value(True)
