import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottky_limits.schottky import CIRCLE_NAMES, SchottkyData, default_generators, word_to_element

from conftest import invoke
from oracles import REPORT_SCHEMA, SCHOTTKY_SCHEMA

ROOT = Path(__file__).resolve().parents[1]
INPUT_COMMANDS = ["certify", "construct", "intersect", "report", "render"]


@pytest.fixture()
def default_json(tmp_path):
    path = tmp_path / "schottky.json"
    path.write_text(default_generators().to_json())
    return str(path)


class TestCertify:
    def test_defaults_certify(self):
        result = invoke(["certify"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["status"] == "certified"

    def test_custom_input(self, default_json):
        result = invoke(["certify", "--input", default_json])
        assert result.exit_code == 0

    def test_overlapping_circles_exit_1(self, tmp_path):
        doc = default_generators().to_json_dict()
        doc["circles"]["C_b"] = doc["circles"]["C_a"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = invoke(["certify", "--input", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output)["name"] == "disks-not-disjoint"

    def test_image_circle_mismatch_stdout(self, tmp_path):
        # the detail embeds the repr of both circles
        doc = default_generators().to_json_dict()
        doc["circles"]["C_b_prime"] = {"center": "15/2", "radius": "1/2"}
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        result = invoke(["certify", "--input", str(path)])
        assert result.exit_code == 1
        assert result.stdout == (
            '{\n'
            '  "status": "violation",\n'
            '  "name": "image-circle-mismatch",\n'
            '  "detail": "gen_b maps its circle to Circle(center=Fraction(29, 4), '
            'radius=Fraction(3, 4)), expected Circle(center=Fraction(15, 2), '
            'radius=Fraction(1, 2))"\n'
            '}\n'
        )

    @pytest.mark.parametrize("command", ["construct", "intersect", "render"])
    def test_uncertified_input_refused(self, tmp_path, command):
        doc = default_generators().to_json_dict()
        doc["circles"]["C_b"] = doc["circles"]["C_a"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = invoke([command, "--input", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "violation: disks-not-disjoint: " in result.stderr

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        result = invoke(["certify", "--input", str(path)])
        assert result.exit_code == 2

    def test_schema_violation_exit_2(self, tmp_path):
        doc = default_generators().to_json_dict()
        doc["gen_a"] = ["1", "0", "0", "2"]  # det 2, not normalizable
        path = tmp_path / "badmat.json"
        path.write_text(json.dumps(doc))
        result = invoke(["certify", "--input", str(path)])
        assert result.exit_code == 2

    def test_missing_file_exit_2(self):
        result = invoke(["certify", "--input", "/nonexistent.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", INPUT_COMMANDS)
    @pytest.mark.parametrize("content", [
        b"\xff\xfe{",  # not UTF-8
        b'{"gen_a": ' + b"1" * 5000 + b"}",  # over the 4300-digit int conversion limit
        b"[" * 100_000,  # deeper than the recursion limit
    ], ids=["not-utf8", "5000-digit-int", "deep-nesting"])
    def test_undecodable_input_exit_2(self, tmp_path, command, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        result = invoke([command, "--input", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("input error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", INPUT_COMMANDS)
    @pytest.mark.parametrize("field", ["gen_a", "center"])
    def test_zero_denominator_exit_2(self, tmp_path, command, field):
        doc = default_generators().to_json_dict()
        if field == "gen_a":
            doc["gen_a"][1] = "1/0"
        else:
            doc["circles"]["C_a"]["center"] = "1/0"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        result = invoke([command, "--input", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "schema violation: zero denominator in '1/0'\n"

    @pytest.mark.parametrize("value", ["1" * 3000, "1e20000"])
    def test_oversized_rational_exit_2(self, tmp_path, value):
        # violation details print exact rationals; str() refuses ints over 4300 digits
        doc = default_generators().to_json_dict()
        doc["circles"]["C_a"]["center"] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        result = invoke(["certify", "--input", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("schema violation: ")


class TestUnwritableOut:
    """Output that cannot be written, to an --out path or to stdout, exits 2
    with one line on stderr, after the computation, instead of a traceback."""

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize("args", [
        ["certify"],
        ["report"],
        ["construct"],
        ["render", "--n-max", "3"],
        ["construct", "--tol", "1e-300"],  # the tolerance-not-reached document
    ], ids=["certify", "report", "construct", "render", "tolerance-not-reached"])
    def test_exit_2(self, tmp_path, target, args):
        out = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
        result = invoke(args + ["--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("output error: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    STDOUT_COMMANDS = pytest.mark.parametrize("args", [
        ["report"], ["certify"], ["render", "--n-max", "3"],
    ], ids=["report", "certify", "render"])

    @staticmethod
    def run_to(stdout, args):
        proc = run_python("from schottky_limits.cli import main; main()", *args,
                          stdout=stdout)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(b"output error: ")
        # one line: no traceback, and no failed flush at interpreter exit
        assert proc.stderr.count(b"\n") == 1, proc.stderr

    @STDOUT_COMMANDS
    def test_closed_stdout_pipe(self, args):
        # Python ignores SIGPIPE, so the first write raises EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            self.run_to(write_end, args)
        finally:
            os.close(write_end)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @STDOUT_COMMANDS
    def test_full_stdout_device(self, args):
        with open("/dev/full", "w") as full:
            self.run_to(full, args)


RATIONAL_STRINGS = st.one_of(
    st.sampled_from(["1/0", "-7/0", "0", "-3/4", "nan", "inf", "", "1/2/3", "x", "1e5"]),
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(0, 9)),
    st.builds("{}/{}".format, st.integers(-10**99, 10**99), st.integers(1, 10**99)),
    st.text("0123456789", min_size=100, max_size=5000),  # both sides of the length limit
)
WRONG_SHAPES = st.sampled_from([None, 7, "5/3", [], ["1", "0", "0"], {"center": "0"}])
FIELDS = ("gen_a", "gen_b", "C_a", "C_a_prime", "C_b", "C_b_prime", "delete")


@st.composite
def schottky_documents(draw):
    """The shipped document with one or two of its fields damaged: a matrix
    entry or a circle's center or radius replaced by an odd rational string,
    a whole matrix redrawn, a value of the wrong shape, or a key deleted."""
    doc = default_generators().to_json_dict()
    fields = draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=2, unique=True))
    for field in sorted(fields, key=FIELDS.index):
        if field == "delete":
            del doc[draw(st.sampled_from(sorted(doc)))]
            break
        how = draw(st.sampled_from(["part", "part", "whole", "shape"]))
        owner = doc if field.startswith("gen") else doc["circles"]
        if how == "shape":
            owner[field] = draw(WRONG_SHAPES)
        elif field.startswith("gen"):
            if how == "whole":
                owner[field] = draw(st.lists(RATIONAL_STRINGS, min_size=4, max_size=4))
            else:
                owner[field][draw(st.integers(0, 3))] = draw(RATIONAL_STRINGS)
        else:
            for part in ("center", "radius") if how == "whole" else (
                draw(st.sampled_from(["center", "radius"])),
            ):
                owner[field][part] = draw(RATIONAL_STRINGS)
    return doc


class TestInputFuzz:
    @given(schottky_documents())
    @settings(max_examples=150, deadline=None)
    def test_certify_exits_cleanly(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            result = invoke(["certify", "--input", str(path)])
        assert result.exit_code in (0, 1, 2)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


# small in-range values only: a large bound would make the run itself slow
IN_RANGE = {"--max-index": 5, "--max-syllables": 3, "--n-max": 12}
FUZZ_FLAGS = {
    "freeness": ("--max-index", "--max-syllables"),
    "intersect": ("--max-index", "--max-syllables"),
    "construct": ("--n-max", "--tol"),
}
BAD_VALUES = st.sampled_from(
    ["0", "-0", "-1", "-7", "1.5", "2.0", "1e3", "abc", "", "nan", "-nan", "inf"]
)


def flag_values(flag):
    if flag == "--tol":
        return st.one_of(st.floats().map(str), BAD_VALUES)
    return st.one_of(
        st.integers(1, IN_RANGE[flag]).map(str), st.integers(-5, 0).map(str), BAD_VALUES
    )


@st.composite
def flag_invocations(draw):
    """A subcommand with a random subset of its numeric flags, each set to an
    in-range value, zero, a negative, a float, a non-number or nan."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    args = [command]
    for flag in FUZZ_FLAGS[command]:
        if draw(st.booleans()):
            args += [flag, draw(flag_values(flag))]
    return args


class TestFlagFuzz:
    @given(flag_invocations())
    @settings(max_examples=150, deadline=None)
    def test_flags_exit_cleanly(self, args):
        result = invoke(args)
        assert result.exit_code in (0, 1, 2)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


class TestFreeness:
    def test_small_run(self):
        result = invoke(["freeness", "--max-index", "3", "--max-syllables", "3"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["status"] == "verified"
        assert doc["note"] == "bounded verification"
        assert doc["words_checked"] == 186


class TestConstruct:
    def test_radial_witness(self):
        result = invoke(["construct", "--n-max", "10"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["radial_bounded_trend"] is True
        assert len(doc["per_n"]) == 10


class TestIntersect:
    def test_trivial_intersection(self):
        result = invoke(["intersect", "--max-index", "4", "--max-syllables", "2"]
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

    def test_full_pipeline(self, small_args, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(small_args + ["--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["intersection"] == ["e"]
        jsonschema.validate(doc, REPORT_SCHEMA)

    def test_deterministic_bytes(self, small_args, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        invoke(small_args + ["--out", str(out1)])
        invoke(small_args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_twelve_significant_digits(self, small_args):
        result = invoke(small_args)
        doc = json.loads(result.output)
        assert re.fullmatch(r"-?\d+\.\d+", doc["eta"])
        assert len(doc["eta"].replace(".", "").replace("-", "").lstrip("0")) <= 12


class TestRender:
    def test_svg_element_counts(self, tmp_path):
        out = tmp_path / "fig.svg"
        result = invoke(["render", "--n-max", "8", "--out", str(out)])
        assert result.exit_code == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "</svg>" in svg
        assert svg.count('class="schottky"') == 4
        assert svg.count('class="orbit"') == 8

    def test_tolerance_not_reached(self):
        result = invoke(["render", "--tol", "1e-300"])
        assert result.exit_code == 1
        doc = json.loads(result.stdout)
        assert doc["status"] == "tolerance-not-reached"
        assert "after 12 prefixes" in doc["detail"]

    def test_rejects_json_format(self):
        result = invoke(["render", "--format", "json"])
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
    def test_out_of_range_exit_2(self, args):
        result = invoke(args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_report_tolerance_not_reached(self):
        result = invoke([
            "report", "--n-max", "1", "--max-index", "2",
            "--max-syllables", "1", "--max-length", "1",
        ])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["status"] == "tolerance-not-reached"
        assert "bracket width" in doc["detail"]



#: every option of each command
OPTIONS = {
    "certify": ["--input", "--out"],
    "freeness": ["--max-index", "--max-syllables", "--out"],
    "construct": ["--input", "--n-max", "--tol", "--out"],
    "intersect": ["--input", "--max-index", "--max-syllables", "--out"],
    "report": ["--input", "--n-max", "--max-index", "--max-syllables", "--max-length",
               "--tol", "--out"],
    "render": ["--input", "--n-max", "--tol", "--out"],
}


class TestUsage:
    """What the command line accepts and how it refuses the rest: help on
    stdout with exit 0, and usage errors with exit 2, nothing on stdout and
    no traceback."""

    def test_main_help_lists_every_command(self):
        result = invoke(["--help"])
        assert result.exit_code == 0 and result.exception is None
        for command in OPTIONS:
            assert command in result.stdout
        assert "--help" in result.stdout

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_command_help_lists_every_option(self, command):
        result = invoke([command, "--help"])
        assert result.exit_code == 0 and result.exception is None
        for option in OPTIONS[command] + ["--help"]:
            assert option in result.stdout

    @pytest.mark.parametrize("args", [
        [],
        ["frobnicate"],
        ["certify", "--bogus"],
        ["construct", "--n-max"],
        ["construct", "--n-m", "3"],
        ["report", "--max-len", "3"],
        ["certify", "-h"],
        ["certify", "extra"],
    ], ids=["no-command", "unknown-command", "unknown-option", "missing-value",
            "abbreviated-option", "abbreviated-report-option", "short-help", "extra-argument"])
    def test_usage_error_exit_2(self, args):
        result = invoke(args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr
        assert "Traceback" not in result.output

    def test_value_may_begin_with_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-x.json").write_text(default_generators().to_json())
        result = invoke(["certify", "--input", "-x.json"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["status"] == "certified"

    def test_equals_form_accepted(self):
        joined = invoke(["construct", "--n-max=3"])
        split = invoke(["construct", "--n-max", "3"])
        assert joined.exit_code == split.exit_code == 0
        assert joined.stdout == split.stdout

class TestSinglePath:
    """The subcommands and the report compute each verdict the same way."""

    @pytest.fixture()
    def small_report(self):
        result = invoke([
            "report", "--n-max", "6", "--max-index", "4",
            "--max-syllables", "2", "--max-length", "3",
        ])
        assert result.exit_code == 0
        return json.loads(result.output)

    def test_construct_matches_report(self, small_report):
        result = invoke(["construct", "--n-max", "6"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc.pop("status") == "ok"
        assert doc == {k: small_report[k] for k in doc}

    def test_intersect_matches_report(self, small_report):
        result = invoke(["intersect", "--max-index", "4", "--max-syllables", "2"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["intersection"] == small_report["intersection"]
        assert {"g1": doc["g1_size"], "g2": doc["g2_size"]} == (
            small_report["subgroup_sizes"]
        )

    def test_cross_check_fails_intersect_and_report(self, monkeypatch, small_report):
        """A matrix cross-check that disagrees with the normal forms fails both
        commands; the report document itself has no cross-check field."""
        from schottky_limits import limits

        monkeypatch.setattr(limits, "intersect_by_matrices", lambda *args: set())
        result = invoke(["intersect", "--max-index", "4", "--max-syllables", "2"])
        assert result.exit_code == 1
        assert json.loads(result.output)["matrix_cross_check_agrees"] is False
        result = invoke([
            "report", "--n-max", "6", "--max-index", "4",
            "--max-syllables", "2", "--max-length", "3",
        ])
        assert result.exit_code == 1
        assert json.loads(result.output) == small_report

    @pytest.mark.parametrize("args, steps", [
        (["construct", "--n-max", "24"], 24),
        (["render", "--n-max", "24"], 24),
        (["render", "--n-max", "3"], 12),  # eta is bracketed at depth 12 at least
    ])
    def test_one_theta_walk(self, monkeypatch, args, steps):
        """The brackets, the orbit points and the radial check share one walk:
        each d_n = b^n a^2 b^n of theta_n = theta_{n-1} d_n is multiplied out once."""
        from schottky_limits import limits

        calls = []

        def counted(w, sd):
            calls.append(w)
            return word_to_element(w, sd)

        monkeypatch.setattr(limits, "word_to_element", counted)
        assert invoke(args).exit_code == 0
        assert len(calls) == steps


def _is_rational_square(q):
    return all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def breaks_a_rule(doc):
    """Whether a document of the schema's shape has a rational string that
    does not parse (a zero denominator among them), a non-positive radius, or
    a matrix whose determinant is not a positive rational square."""
    try:
        mats = [[Fraction(s) for s in doc[g]] for g in ("gen_a", "gen_b")]
        circles = [(Fraction(doc["circles"][c]["center"]), Fraction(doc["circles"][c]["radius"]))
                   for c in CIRCLE_NAMES]
    except (ValueError, ZeroDivisionError):
        return True
    dets = [a * d - b * c for a, b, c, d in mats]
    return any(radius <= 0 for _, radius in circles) or not all(
        det > 0 and _is_rational_square(det) for det in dets
    )


def oracle_rejects(doc):
    """jsonschema rejects the document, or it breaks a rule of its values."""
    try:
        jsonschema.validate(doc, SCHOTTKY_SCHEMA)
    except jsonschema.ValidationError:
        return True
    return breaks_a_rule(doc)


def from_json_dict_rejects(doc):
    try:
        SchottkyData.from_json_dict(doc)
    except ValueError:
        return True
    return False


def shipped_with(path, value):
    """The shipped document with the value at a key path replaced."""
    doc = default_generators().to_json_dict()
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[last] = value
    return doc


class TestSchemas:
    def test_default_data_validates(self):
        jsonschema.validate(default_generators().to_json_dict(), SCHOTTKY_SCHEMA)

    @given(schottky_documents())
    @settings(max_examples=300, deadline=None)
    def test_shape_check_agrees_with_schema(self, doc):
        assert from_json_dict_rejects(doc) == oracle_rejects(doc)

    @pytest.mark.parametrize("doc, accepted", [
        ([], False),
        (None, False),
        ("gen_a", False),
        ({**default_generators().to_json_dict(), "comment": 7}, True),
        (shipped_with(["circles", "C_x"], 7), False),
        (shipped_with(["circles", "C_x"], {"center": "x", "radius": "-1"}), True),
        (shipped_with(["circles", "C_x"], {"center": "1E5", "radius": "1"}), False),
        (shipped_with(["circles", "C_x"], {"center": "0"}), False),
        (shipped_with(["circles", "C_a", "center"], "-5/4\n"), True),
        (shipped_with(["circles", "C_a", "center"], "-5/\n4"), False),
        (shipped_with(["circles", "C_a", "center"], "\ne"), False),
        (shipped_with(["gen_a", 0], 5), False),
        (shipped_with(["gen_a", 0], 5 / 3), False),
        (shipped_with(["gen_a", 0], True), False),
        (shipped_with(["gen_a", 0], None), False),
        (shipped_with(["gen_a", 0], "5e0/3"), False),
        (shipped_with(["gen_a", 0], "5E0/3"), False),
        (shipped_with(["gen_a"], ["5/3", "4/3", "4/3", "5/3", "0"]), False),
        (shipped_with(["gen_a"], ("5/3", "4/3", "4/3", "5/3")), False),
        (shipped_with(["gen_a", 0], "5/3".rjust(200, "0")), True),
        (shipped_with(["gen_a", 0], "5/3".rjust(201, "0")), False),
        (shipped_with(["circles", "C_b", "radius"], "3/4".rjust(200, "0")), True),
        (shipped_with(["circles", "C_b", "radius"], "3/4".rjust(201, "0")), False),
        (shipped_with(["circles", "C_a", "radius"], "3/0_4"), False),
        (shipped_with(["circles", "C_a", "radius"], "3 / 4"), False),
    ])
    def test_explicit_documents(self, doc, accepted):
        assert oracle_rejects(doc) == (not accepted)
        assert from_json_dict_rejects(doc) == (not accepted)

    @pytest.mark.parametrize("doc", [[], "x", shipped_with(["circles"], None),
                                     shipped_with(["gen_b", 3], "1" * 201)])
    def test_cli_reports_one_line(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = invoke(["certify", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert re.fullmatch(r"schema violation: [^\n]+\n", result.stderr)


def run_python(code, *args, stdout=subprocess.PIPE):
    """Run `code` in a fresh interpreter with the default, buffered stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", code, *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


class TestStartupImports:
    HEAVY = "{'jsonschema', 'referencing', 'attrs', 'attr', 'rpds'}"

    def test_package_root_loads_no_module(self):
        proc = run_python(
            "import schottky_limits, sys; print(sorted(m for m in sys.modules"
            " if m.startswith('schottky_limits.')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"

    def test_cli_imports_no_jsonschema(self):
        proc = run_python(
            "import schottky_limits.cli, sys; print(sorted(m for m in sys.modules"
            f" if m.split('.')[0] in {self.HEAVY}))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"

    def test_cli_imports_only_what_it_needs(self):
        # no third-party parser, no dataclass machinery (dataclasses pulls in
        # inspect), and the SVG writer only in the render command
        proc = run_python(
            "import schottky_limits.cli, sys; print(sorted(m for m in sys.modules if m in"
            " {'click', 'dataclasses', 'inspect', 'schottky_limits.render'}))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"

    def test_cli_runs_without_third_party_packages(self, default_json):
        # -S skips site-packages, -E the environment; the package is put on the path by hand
        code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
                "from schottky_limits.cli import main; main()")
        proc = subprocess.run(
            [sys.executable, "-S", "-E", "-c", code, str(ROOT / "src"), "certify",
             "--input", default_json], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "certified"

    @pytest.mark.parametrize("args", [
        ["certify"],
        ["construct", "--n-max", "3"],
        ["intersect", "--max-index", "2", "--max-syllables", "1"],
        ["render", "--n-max", "3"],
        ["report", "--n-max", "8", "--max-index", "2", "--max-syllables", "1",
         "--max-length", "2"],
    ])
    def test_commands_run_without_jsonschema(self, default_json, args):
        run = "from schottky_limits.cli import main; main()"
        args = [*args, "--input", default_json]
        blocked = run_python("import sys; sys.modules['jsonschema'] = None; " + run, *args)
        plain = run_python(run, *args)
        assert blocked.returncode == plain.returncode
        assert blocked.stdout == plain.stdout
        assert blocked.stdout
