import json
import re

import jsonschema
import pytest
from click.testing import CliRunner

from schottky_limits.cli import main
from schottky_limits.report import REPORT_SCHEMA, SCHOTTKY_SCHEMA
from schottky_limits.schottky import default_generators


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def default_json(tmp_path):
    path = tmp_path / "schottky.json"
    path.write_text(default_generators().to_json())
    return str(path)


class TestCertify:
    def test_defaults_certify(self, runner):
        result = runner.invoke(main, ["certify"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["status"] == "certified"

    def test_custom_input(self, runner, default_json):
        result = runner.invoke(main, ["certify", "--input", default_json])
        assert result.exit_code == 0

    def test_overlapping_circles_exit_1(self, runner, tmp_path):
        doc = default_generators().to_json_dict()
        doc["circles"]["C_b"] = doc["circles"]["C_a"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["certify", "--input", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output)["name"] == "disks-not-disjoint"

    @pytest.mark.parametrize("command", ["construct", "intersect", "render"])
    def test_uncertified_input_refused(self, runner, tmp_path, command):
        doc = default_generators().to_json_dict()
        doc["circles"]["C_b"] = doc["circles"]["C_a"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, "--input", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "violation: disks-not-disjoint: " in result.stderr

    def test_malformed_json_exit_2(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["certify", "--input", str(path)])
        assert result.exit_code == 2

    def test_schema_violation_exit_2(self, runner, tmp_path):
        doc = default_generators().to_json_dict()
        doc["gen_a"] = ["1", "0", "0", "2"]  # det 2, not normalizable
        path = tmp_path / "badmat.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["certify", "--input", str(path)])
        assert result.exit_code == 2

    def test_missing_file_exit_2(self, runner):
        result = runner.invoke(main, ["certify", "--input", "/nonexistent.json"])
        assert result.exit_code == 2


class TestFreeness:
    def test_small_run(self, runner):
        result = runner.invoke(
            main, ["freeness", "--max-index", "3", "--max-syllables", "3"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["status"] == "verified"
        assert doc["note"] == "bounded verification"
        assert doc["words_checked"] == 186


class TestConstruct:
    def test_radial_witness(self, runner):
        result = runner.invoke(main, ["construct", "--n-max", "10"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["radial_bounded_trend"] is True
        assert len(doc["per_n"]) == 10


class TestIntersect:
    def test_trivial_intersection(self, runner):
        result = runner.invoke(
            main, ["intersect", "--max-index", "4", "--max-syllables", "2"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["intersection"] == ["e"]
        assert doc["matrix_cross_check_agrees"] is True


class TestReport:
    @pytest.fixture()
    def small_args(self):
        return [
            "report", "--n-max", "8", "--max-index", "4",
            "--max-syllables", "2", "--max-length", "5",
        ]

    def test_full_pipeline(self, runner, small_args, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, small_args + ["--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["intersection"] == ["e"]
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_deterministic_bytes(self, runner, small_args, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        runner.invoke(main, small_args + ["--out", str(out1)])
        runner.invoke(main, small_args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_twelve_significant_digits(self, runner, small_args):
        result = runner.invoke(main, small_args)
        doc = json.loads(result.output)
        assert re.fullmatch(r"-?\d+\.\d+", doc["eta"])
        assert len(doc["eta"].replace(".", "").replace("-", "").lstrip("0")) <= 12


class TestRender:
    def test_svg_element_counts(self, runner, tmp_path):
        out = tmp_path / "fig.svg"
        result = runner.invoke(main, ["render", "--n-max", "8", "--out", str(out)])
        assert result.exit_code == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "</svg>" in svg
        assert svg.count('class="schottky"') == 4
        assert svg.count('class="orbit"') == 8

    def test_tolerance_not_reached(self, runner):
        result = runner.invoke(main, ["render", "--tol", "1e-300"])
        assert result.exit_code == 1
        doc = json.loads(result.stdout)
        assert doc["status"] == "tolerance-not-reached"
        assert "after 12 prefixes" in doc["detail"]

    def test_rejects_json_format(self, runner):
        result = runner.invoke(main, ["render", "--format", "json"])
        assert result.exit_code == 2


class TestBounds:
    @pytest.mark.parametrize("args", [
        ["construct", "--n-max", "0"],
        ["construct", "--tol", "-1"],
        ["construct", "--tol", "nan"],
        ["intersect", "--max-index", "1"],
        ["report", "--max-index", "1"],
        ["freeness", "--max-syllables", "0"],
        ["freeness", "--max-index", "0"],
        ["report", "--max-length", "0"],
        ["render", "--n-max", "0"],
    ])
    def test_out_of_range_exit_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_report_tolerance_not_reached(self, runner):
        result = runner.invoke(main, [
            "report", "--n-max", "1", "--max-index", "2",
            "--max-syllables", "1", "--max-length", "1",
        ])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["status"] == "tolerance-not-reached"
        assert "bracket width" in doc["detail"]


class TestSinglePath:
    """The subcommands and the report compute each verdict the same way."""

    @pytest.fixture()
    def small_report(self, runner):
        result = runner.invoke(main, [
            "report", "--n-max", "6", "--max-index", "4",
            "--max-syllables", "2", "--max-length", "3",
        ])
        assert result.exit_code == 0
        return json.loads(result.output)

    def test_construct_matches_report(self, runner, small_report):
        result = runner.invoke(main, ["construct", "--n-max", "6"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc.pop("status") == "ok"
        assert doc == {k: small_report[k] for k in doc}

    def test_intersect_matches_report(self, runner, small_report):
        result = runner.invoke(
            main, ["intersect", "--max-index", "4", "--max-syllables", "2"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["intersection"] == small_report["intersection"]
        assert {"g1": doc["g1_size"], "g2": doc["g2_size"]} == (
            small_report["subgroup_sizes"]
        )


class TestSchemas:
    def test_default_data_validates(self):
        jsonschema.validate(default_generators().to_json_dict(), SCHOTTKY_SCHEMA)
