import ast
import json
import os
import subprocess
import sys

import pytest

from polymix.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES.parent / "tests" / "golden"
SRC = FIXTURES.parent / "src"

LED = str(FIXTURES / "ledrappier.json")
QUAD = str(FIXTURES / "quad.json")
CUBE = str(FIXTURES / "cube_skeleton.json")
CELL = str(FIXTURES / "single_cell_cylinder.json")
MONO = str(FIXTURES / "monomial.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_ledrappier_report(self, capsys):
        code, out = run(capsys, "analyze", LED)
        assert code == 0
        report = json.loads(out)
        assert report["bounds"]["vertex_count"] == 3
        assert report["bounds"]["support_size"] == 3
        assert (report["bounds"]["lower"], report["bounds"]["upper"]) == (2, 2)
        assert report["bounds"]["polytope_tight"] is True
        assert report["bounds"]["conclusion"] == "M=S=2"
        assert report["certificate"]["verified_k"] == list(range(9))
        assert report["polytope"]["affine_dim"] == 2
        assert any("irreducibility" in w for w in report["warnings"])

    def test_quad_report(self, capsys):
        code, out = run(capsys, "analyze", QUAD)
        report = json.loads(out)
        assert code == 0
        assert (report["bounds"]["lower"], report["bounds"]["upper"]) == (2, 3)
        assert report["bounds"]["conclusion"] == "M=S within [2,3]"

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "analyze", LED)
        _, second = run(capsys, "analyze", LED)
        assert first == second

    def test_monomial_exits_2(self, capsys):
        code, _ = run(capsys, "analyze", MONO)
        assert code == 2

    def test_missing_file_exits_1(self, capsys):
        code, _ = run(capsys, "analyze", "/no/such/file.json")
        assert code == 1

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "analyze", str(bad))
        assert code == 1

    def test_schema_violation_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": 2, "d": 2, "terms": [{"e": [0], "c": 1}]}))
        code, _ = run(capsys, "analyze", str(bad))
        assert code == 1


class TestSubcommands:
    def test_bounds(self, capsys):
        code, out = run(capsys, "bounds", LED)
        assert code == 0
        assert json.loads(out)["bounds"]["conclusion"] == "M=S=2"

    def test_tightness_cube(self, capsys):
        code, out = run(capsys, "tightness", CUBE)
        report = json.loads(out)
        assert code == 0
        assert report["dimension"] == 6
        assert report["tight"] is False

    def test_tightness_4_simplex(self, capsys, tmp_path):
        skel = tmp_path / "simplex4.json"
        vertices = [[0, 0, 0, 0]] + [[int(i == j) for j in range(4)] for i in range(4)]
        edges = [[i, j] for i in range(5) for j in range(i + 1, 5)]
        skel.write_text(json.dumps({"dim": 4, "vertices": vertices, "edges": edges}))
        code, out = run(capsys, "tightness", str(skel))
        report = json.loads(out)
        assert code == 0
        assert (report["constraint_rank"], report["dimension"]) == (15, 5)
        assert report["tight"] is True

    def test_tightness_icosahedron_approximate(self, capsys):
        code, out = run(
            capsys, "tightness", str(FIXTURES / "icosahedron_skeleton.json")
        )
        report = json.loads(out)
        assert code == 0
        assert report["arithmetic"] == "approximate"
        assert report["dimension"] == 4
        assert report["tight"] is True

    def test_certify(self, capsys):
        code, out = run(capsys, "certify", LED, "--max-k", "10")
        report = json.loads(out)
        assert code == 0
        assert report["verified_k"] == list(range(11))
        assert report["frobenius_family"] is True
        assert report["coeffs"] == [1, 1, 1]

    def test_measure_single_cell(self, capsys):
        code, out = run(capsys, "measure", LED, "--cylinder", CELL)
        report = json.loads(out)
        assert code == 0
        assert report["value"] == {"num": 1, "den": 2}

    def test_measure_with_shifts(self, capsys):
        code, out = run(
            capsys, "measure", LED, "--cylinder", CELL,
            "--shifts", "[[0,0],[4,0],[0,4]]",
        )
        report = json.loads(out)
        assert code == 0
        assert report["value"] == {"num": 1, "den": 4}

    def test_measure_box_method(self, capsys):
        code, out = run(capsys, "measure", LED, "--cylinder", CELL, "--method", "box")
        report = json.loads(out)
        assert code == 0
        assert report["method"] == "box"
        assert report["value"] == {"num": 1, "den": 2}
        assert report["stabilized"] is True

    def test_experiment(self, capsys):
        code, out = run(
            capsys, "experiment", LED,
            "--shape", "[[0,0],[1,0],[0,1]]",
            "--cylinder", CELL,
            "--k-range", "1:4",
        )
        report = json.loads(out)
        assert code == 0
        assert len(report["rows"]) == 4
        gaps = {row["k"]: row["gap"] for row in report["rows"]}
        # dilations by powers of two witness the failure; k=3 does not
        assert gaps[1] == gaps[2] == gaps[4] == {"num": 1, "den": 8}
        assert gaps[3] == {"num": 0, "den": 1}

    def test_detect(self, capsys):
        code, out = run(
            capsys, "detect", LED, "--tuple", "[[0,0],[17,0],[0,16]]", "--K", "1"
        )
        report = json.loads(out)
        assert code == 0
        assert report["match"]["K"] == 1
        assert report["match"]["homothety"]["scale"] == {"num": 16, "den": 1}

    def test_detect_no_match(self, capsys):
        code, out = run(
            capsys, "detect", LED, "--tuple", "[[0,0],[16,0],[16,16]]", "--K", "0"
        )
        assert code == 0
        assert json.loads(out) == {"match": None}

    def test_search(self, capsys):
        code, out = run(capsys, "search", LED, "--r", "3", "--radius", "1")
        report = json.loads(out)
        assert code == 0
        shapes = [c["shape"] for c in report["candidates"]]
        assert [[0, 0], [0, 1], [1, 0]] in shapes

    def test_bad_inline_json_exits_1(self, capsys):
        code, _ = run(capsys, "detect", LED, "--tuple", "not-json", "--K", "0")
        assert code == 1

    def test_bad_k_range_exits_1(self, capsys):
        code, _ = run(
            capsys, "experiment", LED,
            "--shape", "[[0,0],[1,0]]", "--cylinder", CELL, "--k-range", "junk",
        )
        assert code == 1

    def test_empty_k_range_exits_1(self, capsys):
        # HI < LO would be an empty range, and so an empty report
        code = main([
            "experiment", LED,
            "--shape", "[[0,0],[1,0]]", "--cylinder", CELL, "--k-range", "3:1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("parse error: --k-range must have HI >= LO")

    def test_experiment_box_method_marks_big_rows(self, capsys):
        code, out = run(
            capsys, "experiment", LED,
            "--shape", "[[0,0],[1,0],[0,1]]", "--cylinder", CELL,
            "--k-range", "128:129", "--method", "box",
        )
        report = json.loads(out)
        assert code == 0
        assert all(row["available"] is False for row in report["rows"])

    def test_failed_machine_check_exits_4(self, capsys, monkeypatch):
        # a constraint rank equal to the row count breaks the d+1 floor
        monkeypatch.setattr("polymix.redraw.int_rank", lambda rows: len(rows))
        code = main(["tightness", CUBE])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("internal error: ")

    def test_budget_env_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYMIX_BUDGET", "4")
        code, _ = run(capsys, "measure", LED, "--cylinder", CELL, "--method", "box")
        assert code == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_malformed_budget_env_exits_1(self, capsys, monkeypatch, value):
        monkeypatch.setenv("POLYMIX_BUDGET", value)
        code = main(["measure", LED, "--cylinder", CELL, "--method", "box"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("parse error: POLYMIX_BUDGET")

    @pytest.mark.parametrize(
        "budget, env, argv, used, limit",
        [
            ("cells", "4", ["measure", LED, "--cylinder", CELL, "--method", "box"], 9, 4),
            ("search", None, ["search", LED, "--r", "3", "--radius", "12"],
             40_495_000, 10 ** 7),
            ("division", "8", ["certify", LED, "--max-k", "1"], 9, 8),
            ("division", None, ["certify", "P10007", "--max-k", "12"], 10008 ** 2, 10 ** 6),
            ("detector", "29", ["detect", LED, "--tuple", "[[0,0],[17,0],[0,16]]", "--K", "1"],
             30, 29),
            # 3 points times the odd squares up to 2001
            ("detector", None, ["detect", LED, "--tuple", "[[0,0],[1000,0],[0,3]]",
                                "--K", "1000"], 1001 * 2001 * 2003, 10 ** 4),
        ],
        ids=["cells", "search", "division", "division_p10007", "detector", "detector_K1000"],
    )
    def test_named_budget_exits_3(self, capsys, monkeypatch, tmp_path, budget, env, argv,
                                  used, limit):
        if env is None:
            monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        else:
            monkeypatch.setenv("POLYMIX_BUDGET", env)
        path = tmp_path / "p10007.json"  # Ledrappier's support over F_10007
        path.write_text((FIXTURES / "ledrappier.json").read_text().replace('"p": 2', '"p": 10007'))
        code = main([str(path) if a == "P10007" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lead, rest = captured.err.split(": ", 1)
        assert lead == "budget exceeded"
        assert rest.startswith(f"{budget} budget: {used} ")
        assert rest.endswith(f", limit {limit}\n")

    def test_only_budgets_raises_budget_exceeded(self):
        raisers = []
        for path in sorted((SRC / "polymix").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(exc, "id", None) == "BudgetExceededError":
                        raisers.append(path.name)
        assert raisers == ["budgets.py"]

    @pytest.mark.parametrize("command", ["certify", "analyze"])
    def test_negative_max_k_exits_1(self, capsys, command):
        code = main([command, LED, "--max-k", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("parse error: --max-k")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["search", LED, "--r", "1", "--radius", "1"], "--r"),
            (["search", LED, "--r", "3", "--radius", "-1"], "--radius"),
            (["search", LED, "--r", "3", "--radius", "1", "--coeff-degree", "-1"],
             "--coeff-degree"),
            (["detect", LED, "--tuple", "[[0,0],[17,0],[0,16]]", "--K", "-1"], "--K"),
            (["tightness", CUBE, "--tolerance", "-0.5"], "--tolerance"),
            (["tightness", CUBE, "--tolerance", "nan"], "--tolerance"),
        ],
        ids=["r_1", "radius_-1", "coeff_degree_-1", "K_-1", "tolerance_-0.5", "tolerance_nan"],
    )
    def test_out_of_range_option_exits_1(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {flag} must be >= ")

    def test_zero_option_values_accepted(self, capsys):
        assert run(capsys, "search", LED, "--r", "2", "--radius", "0")[0] == 0
        assert run(capsys, "tightness", CUBE, "--tolerance", "0")[0] == 0

    def test_skeleton_accepts_rational_strings(self, capsys, tmp_path):
        skel = tmp_path / "half_square.json"
        skel.write_text(json.dumps({
            "dim": 2,
            "vertices": [["0/1", 0], ["1/2", 0], ["1/2", "1/2"], [0, "1/2"]],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        }))
        code, out = run(capsys, "tightness", str(skel))
        report = json.loads(out)
        assert code == 0
        assert report["arithmetic"] == "exact"
        assert report["dimension"] == 4 and report["tight"] is False

    @pytest.mark.parametrize(
        "poly",
        [
            {"p": 2, "d": True, "terms": [{"e": [0], "c": 1}, {"e": [1], "c": 1}]},
            {"p": 2, "d": 1, "terms": [{"e": [0], "c": 1}, {"e": [True], "c": 1}]},
            {"p": 2, "d": 1, "terms": [{"e": [0], "c": 1}, {"e": [1], "c": True}]},
        ],
        ids=["d_true", "exponent_true", "coefficient_true"],
    )
    def test_boolean_in_polynomial_exits_1(self, capsys, tmp_path, poly):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(poly))
        code = main(["bounds", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("parse error: bad polynomial file")

    @pytest.mark.parametrize(
        "window, value",
        [([0.7, 0], 1), ([0, "0"], 1), ([True, 0], 1), ([0, 0], 1.9), ([0, 0], "1"),
         ([0, 0], True)],
        ids=["float_entry", "string_entry", "bool_entry", "float_value", "string_value",
             "bool_value"],
    )
    def test_non_integer_cylinder_exits_1(self, capsys, tmp_path, window, value):
        path = tmp_path / "cyl.json"
        path.write_text(json.dumps({"window": [window], "values": [value]}))
        code = main(["measure", LED, "--cylinder", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("parse error: window point")

    @pytest.mark.parametrize(
        "change",
        [{"dim": 3.9}, {"dim": "3"}, {"edges": [[0.0, 1]]}, {"edges": [[True, 1]]}],
        ids=["float_dim", "string_dim", "float_edge_index", "bool_edge_index"],
    )
    def test_non_integer_skeleton_exits_1(self, capsys, tmp_path, change):
        skeleton = json.loads((FIXTURES / "cube_skeleton.json").read_text())
        if "edges" in change:
            change = {"edges": change["edges"] + skeleton["edges"][1:]}
        path = tmp_path / "skeleton.json"
        path.write_text(json.dumps({**skeleton, **change}))
        code = main(["tightness", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("parse error: skeleton")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["experiment", LED, "--shape", "[[0,0],[true,0]]", "--cylinder", CELL,
              "--k-range", "1:2"], "--shape"),
            (["detect", LED, "--tuple", "[[0,0],[17,0],[0,true]]", "--K", "1"], "--tuple"),
            (["measure", LED, "--cylinder", CELL, "--shifts", "[[0,0],[true,0]]"], "--shifts"),
        ],
        ids=["shape", "tuple", "shifts"],
    )
    def test_boolean_in_vector_option_exits_1(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {flag} entry")

    def test_reports_parse_under_schema(self, capsys):
        # round-trip: every emitted report is valid JSON with sorted keys
        for argv in (
            ["analyze", LED],
            ["tightness", CUBE],
            ["certify", LED],
            ["measure", LED, "--cylinder", CELL],
        ):
            code, out = run(capsys, *argv)
            assert code == 0
            parsed = json.loads(out)
            assert isinstance(parsed, dict)


# every subcommand with the options its help must name
SUBCOMMANDS = {
    "analyze": ["--max-k"],
    "bounds": [],
    "tightness": ["--tolerance"],
    "certify": ["--max-k"],
    "measure": ["--cylinder", "--shifts", "--method"],
    "experiment": ["--shape", "--cylinder", "--k-range", "--method"],
    "detect": ["--tuple", "--K"],
    "search": ["--r", "--radius", "--coeff-degree"],
}


def exits(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr()


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        code, captured = exits(capsys, "--help")
        assert code == 0
        assert captured.out.startswith("usage: polymix [-h]")
        for name in SUBCOMMANDS:
            assert f"\n    {name} " in captured.out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_names_its_options(self, capsys, command):
        code, captured = exits(capsys, command, "--help")
        assert code == 0
        assert captured.out.startswith(f"usage: polymix {command} [-h]")
        for flag in SUBCOMMANDS[command]:
            assert f"  {flag} " in captured.out

    @pytest.mark.parametrize(
        "argv, usage, error",
        [
            ([], "usage: polymix [-h]", "the following arguments are required: command"),
            (["bogus", LED], "usage: polymix [-h]", "invalid choice: 'bogus'"),
            (["search", LED, "--radius", "1"], "usage: polymix search [-h]",
             "the following arguments are required: --r"),
            (["analyze", LED, "--bogus"], "usage: polymix [-h]",
             "unrecognized arguments: --bogus"),
        ],
        ids=["no_subcommand", "unknown_subcommand", "search_without_r", "unknown_option"],
    )
    def test_usage_errors_exit_2(self, capsys, argv, usage, error):
        code, captured = exits(capsys, *argv)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(usage)
        assert error in captured.err
        if usage == "usage: polymix [-h]":
            assert "{" + ",".join(SUBCOMMANDS) + "}" in captured.err


# runs main on each argv of the JSON list in sys.argv[1], then reports the
# exit codes, the stdouts and which modules the calls loaded
FRESH = """
import contextlib, io, json, sys
from polymix.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
print(json.dumps({"runs": runs, "modules": sorted(sys.modules)}))
"""


def polymix_process(*args, **kwargs):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def fresh(*argvs):
    proc = polymix_process("-c", FRESH, json.dumps([list(a) for a in argvs]),
                           capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


# resolves each (module, dotted attribute) of the JSON list in sys.argv[1] on
# polymix.<module> after importing only the cli, and prints those that fail
RESOLVE = """
import functools, json, sys
import polymix.cli
missing = []
for module, attribute in json.loads(sys.argv[1]):
    try:
        functools.reduce(getattr, attribute.split("."), sys.modules["polymix." + module])
    except (KeyError, AttributeError):
        missing.append([module, attribute])
print(json.dumps(missing))
"""


def tracer_targets() -> list:
    """The benchmark tracer's TARGETS list, read from its source without importing it."""
    tree = ast.parse((SRC.parent / "perfbench" / "tracing.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    return ast.literal_eval(value)


class TestFreshProcess:
    LAYERS = ["laurent", "quotient", "gfp", "exactlp", "lattice", "polytope", "redraw",
              "mixing", "measure", "seqgeom", "jsonio"]

    def test_tracer_targets_resolve_after_importing_cli(self):
        # the tracer wraps functions by name, so a renamed or deleted one
        # would break only a traced benchmark run
        targets = [[module, attribute] for module, attribute, _ in tracer_targets()]
        assert ["polytope", "outward_normal"] in targets and len(targets) > 20
        proc = polymix_process("-c", RESOLVE, json.dumps(targets),
                               capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == []

    def test_exact_commands_never_load_numpy(self):
        result = fresh(
            ["analyze", LED],
            ["bounds", QUAD],
            ["certify", LED, "--max-k", "3"],
            ["search", LED, "--r", "3", "--radius", "1"],
            ["detect", LED, "--tuple", "[[0,0],[17,0],[0,16]]", "--K", "1"],
            ["tightness", CUBE],
        )
        assert [code for code, _ in result["runs"]] == [0] * 6
        assert "numpy" not in result["modules"]
        # the benchmark tracer wraps functions of every layer after importing cli
        for layer in self.LAYERS:
            assert f"polymix.{layer}" in result["modules"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", LED, "--cylinder", CELL],
            ["measure", LED, "--cylinder", CELL, "--method", "box"],
            ["tightness", str(FIXTURES / "icosahedron_skeleton.json")],
        ],
        ids=["measure_exact", "measure_box", "tightness_float"],
    )
    def test_numpy_commands_load_it_on_demand(self, capsys, argv):
        result = fresh(argv)
        assert result["runs"] == [list(run(capsys, *argv))]
        assert result["runs"][0][0] == 0
        assert "numpy" in result["modules"]

    def test_closed_stdout_exits_141_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the report is written
        try:
            proc = polymix_process("-m", "polymix.cli", "certify", LED, "--max-k", "3",
                                   stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""


@pytest.mark.parametrize(
    "case",
    json.loads((GOLDEN / "cases.json").read_text()),
    ids=lambda case: case["name"],
)
def test_golden_stdout(capsys, case):
    # byte-identical stdout and the exit code of every README command and
    # of bounds/analyze on each polynomial fixture
    argv = [str(FIXTURES.parent / a) if a.startswith("fixtures/") else a for a in case["argv"]]
    code, out = run(capsys, *argv)
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.stdout").read_text()
