import ast
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal

import pytest

import polymix
from polymix.cli import _parse_k_range, main
from polymix.errors import BudgetExceededError

from conftest import FIXTURES

GOLDEN = FIXTURES.parent / "tests" / "golden"
SRC = FIXTURES.parent / "src"

LED = str(FIXTURES / "ledrappier.json")
QUAD = str(FIXTURES / "quad.json")
CUBE = str(FIXTURES / "cube_skeleton.json")
ICOSA = str(FIXTURES / "icosahedron_skeleton.json")
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

    @pytest.mark.parametrize(
        "poly, tuple_, K, found, scale",
        [
            ("ledrappier.json", [[0, 0], [17, 0], [0, 16]], 30, 1, 16),
            # twice the vertices of the 4-simplex and the 4-cube
            ("simplex4.json", [[0, 0, 0, 0], [4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0],
                               [0, 0, 0, 4]], 3, 0, 2),
            ("cube4.json", [list(v) for v in itertools.product((0, 2), repeat=4)], 3, 0, 1),
        ],
        ids=["ledrappier", "simplex4", "cube4"],
    )
    def test_detect_answers_at_a_large_K(self, capsys, poly, tuple_, K, found, scale):
        # a match at a small cap answers whatever --K allows beyond it
        code, out = run(capsys, "detect", str(FIXTURES / poly), "--tuple", json.dumps(tuple_),
                        "--K", str(K))
        match = json.loads(out)["match"]
        assert code == 0
        assert match["K"] == found
        assert match["homothety"]["scale"] == {"num": scale, "den": 1}

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

    def test_certify_exponents_past_64_bits(self, capsys, tmp_path):
        # 1 + u1^(10^30) + u2 over F_2: f(u^2) has total degree 2 * 10^30, so
        # every exponent of the division needs a field wider than 64 bits
        big = 10 ** 30
        poly = tmp_path / "wide.json"
        poly.write_text(json.dumps({"p": 2, "d": 2, "terms": [
            {"e": [0, 0], "c": 1}, {"e": [big, 0], "c": 1}, {"e": [0, 1], "c": 1}]}))
        code, out = run(capsys, "certify", str(poly), "--max-k", "2")
        assert code == 0
        assert out == json.dumps({
            "coeffs": [1, 1, 1],
            "frobenius_family": True,
            "shape": [[0, 0], [0, 1], [big, 0]],
            "verified_k": [0, 1, 2],
        }, indent=2) + "\n"

    def test_huge_prime_certify_exits_3_at_once(self, capsys, tmp_path):
        # primality of 10^18 + 3 is decided at once, so the division budget answers
        poly = tmp_path / "p1e18.json"
        poly.write_text(
            (FIXTURES / "ledrappier.json").read_text().replace('"p": 2', f'"p": {10 ** 18 + 3}'))
        start = time.perf_counter()
        code = main(["certify", str(poly), "--max-k", "3"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and elapsed < 1
        assert captured.err.startswith("budget exceeded: division budget: ")

    def test_prime_beyond_the_primality_limit_exits_1(self, capsys, tmp_path):
        poly = tmp_path / "p2e89.json"
        poly.write_text(
            (FIXTURES / "ledrappier.json").read_text().replace('"p": 2', f'"p": {2 ** 89 - 1}'))
        code = main(["bounds", str(poly)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "3317044064679887385961981" in captured.err

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
            # 1 + u1^30 + u2^30 divides on the lattice 30Z x 30Z: (37 + 1)^2 monomials
            ("division", "1443", ["certify", "LAT37", "--max-k", "1"], 38 ** 2, 1443),
            ("detector", "29", ["detect", LED, "--tuple", "[[0,0],[1000,0],[0,3]]", "--K", "1"],
             30, 29),
            # a hopeless K is bounded by the placements counted as they are tried
            ("detector", None, ["detect", LED, "--tuple", "[[0,0],[1000,0],[0,3]]",
                                "--K", "1000"], 10 ** 4 + 1, 10 ** 4),
            ("detector", None, ["detect", LED, "--tuple", "[[0,0],[1000,0],[0,3]]",
                                "--K", str(10 ** 30)], 10 ** 4 + 1, 10 ** 4),
            # only 495 root placements at K = 4, but every child placement counts too
            ("detector", None, ["detect", LED, "--tuple", "[[0,0],[1000,0],[0,3]]",
                                "--K", "4"], 10 ** 4 + 1, 10 ** 4),
            # visibility tests plus 5 per facet normal, before a step's normals
            ("hull", None, ["bounds", "CLOUD5"], 100_092, 10 ** 5),
            # (d - 1) rows per cycle, 32^2 cycles, over the 33^2 - 1 tree edges
            ("redraw", None, ["tightness", "GRID33"], 1024 * 1088, 10 ** 6),
            # (d - 1) rows per edge, 30 edges, over 3 * 12 vertex coordinates
            ("redraw", "2159", ["tightness", ICOSA], 2160, 2159),
            # the triangle scan tests 149 neighbours for each of the 11,175 edges
            ("redraw", None, ["tightness", "K150"], 11_175 * 149, 10 ** 6),
            ("experiment", None, ["experiment", LED, "--shape", "[[0,0],[1,0],[0,1]]",
                                  "--cylinder", CELL, "--k-range", "1:1001"], 1001, 10 ** 3),
            # the certificate's rows 0..--max-k are counted before any is built
            ("experiment", None, ["certify", LED, "--max-k", str(10 ** 30)], 10 ** 30 + 1,
             10 ** 3),
            ("experiment", None, ["analyze", LED, "--max-k", str(10 ** 30)], 10 ** 30 + 1,
             10 ** 3),
            # u2^N is (1 + u1)^N modulo f; the product that would pass the limit is refused
            ("residue", None, ["measure", LED, "--cylinder", CELL, "--shifts",
                               "[[0,0],[0,16777215]]"], 1_048_646, 10 ** 6),
        ],
        ids=["cells", "search", "division", "division_p10007", "division_lattice", "detector",
             "detector_K1000", "detector_K1e30", "detector_placements", "hull", "redraw",
             "redraw_float", "redraw_triangles", "experiment", "experiment_certify_1e30",
             "experiment_analyze_1e30", "residue"],
    )
    def test_named_budget_exits_3(self, capsys, monkeypatch, tmp_path, budget, env, argv,
                                  used, limit):
        if env is None:
            monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        else:
            monkeypatch.setenv("POLYMIX_BUDGET", env)
        files = {"P10007": tmp_path / "p10007.json", "CLOUD5": tmp_path / "cloud5.json",
                 "GRID33": tmp_path / "grid33.json", "K150": tmp_path / "k150.json",
                 "LAT37": tmp_path / "lat37.json"}
        # Ledrappier's support over F_10007
        files["P10007"].write_text(
            (FIXTURES / "ledrappier.json").read_text().replace('"p": 2', '"p": 10007'))
        files["LAT37"].write_text(json.dumps({"p": 37, "d": 2, "terms": [
            {"e": e, "c": 1} for e in ([0, 0], [30, 0], [0, 30])]}))
        # 2,000 random points of [0, 30]^5
        rng = random.Random(5)
        cloud = sorted({tuple(rng.randint(0, 30) for _ in range(5)) for _ in range(2000)})
        files["CLOUD5"].write_text(
            json.dumps({"p": 2, "d": 5, "terms": [{"e": list(e), "c": 1} for e in cloud]}))
        # the 33 x 33 grid graph: no triangle, so every edge has a scale of its own
        grid = [[x, y] for x in range(33) for y in range(33)]
        files["GRID33"].write_text(json.dumps({"dim": 2, "vertices": grid, "edges": [
            [i, j] for i, j in ((i, i + 33) for i in range(33 * 32))] + [
            [i, i + 1] for i in range(33 * 33) if i % 33 != 32]}))
        # the complete graph on 150 points of the moment curve in 3-D
        files["K150"].write_text(json.dumps({"dim": 3, "vertices": [
            [t, t * t, t ** 3] for t in range(150)], "edges": [
            [i, j] for i in range(150) for j in range(i + 1, 150)]}))
        code = main([str(files[a]) if a in files else a for a in argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lead, rest = captured.err.split(": ", 1)
        assert lead == "budget exceeded"
        assert rest.startswith(f"{budget} budget: {used} ")
        assert rest.endswith(f", limit {limit}\n")

    @pytest.mark.parametrize("argv, budget, used", [
        # 4,300 nines on each side of --k-range: 2 * 10^4300 - 1 rows
        (["experiment", LED, "--shape", "[[0,0],[1,0]]", "--cylinder", CELL,
          "--k-range=-" + "9" * 4300 + ":" + "9" * 4300], "experiment", 2 * 10 ** 4300 - 1),
        # the first box pads the window by Ledrappier's span, 1, on each side
        (["measure", LED, "--method", "box", "--cylinder", "HUGE"], "cells",
         (10 ** 4000 + 3) ** 2),
    ], ids=["experiment", "measure_box"])
    def test_budget_message_prints_any_use(self, capsys, monkeypatch, tmp_path, argv, budget,
                                           used):
        # a use past str(int)'s 4,300 digits is still reported, with exit 3
        monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        huge = tmp_path / "huge.json"
        huge.write_text('{"window": [[0, 0], [%s, %s]], "values": [0, 0]}'
                        % (Decimal(10 ** 4000), Decimal(10 ** 4000)))
        code = main([str(huge) if a == "HUGE" else a for a in argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"budget exceeded: {budget} budget: {Decimal(used)} ")

    def test_search_count_never_builds_huge_powers(self, capsys, monkeypatch):
        # p^((D + 1)^d) would have 10^12 bits; the running product stops at
        # comb(9, 3) * (2^24 - 1), the first pool past the limit
        monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        start = time.perf_counter()
        code = main(["search", LED, "--r", "3", "--radius", "1", "--coeff-degree", str(10 ** 6)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and elapsed < 1
        assert captured.err.startswith(f"budget exceeded: search budget: {84 * (2 ** 24 - 1)} ")

    def test_experiment_budget_counts_rows_before_the_first(self):
        # a range past sys.maxsize has no len(); the rows are counted from LO and HI
        with pytest.raises(BudgetExceededError, match=f"^experiment budget: {10 ** 30 + 1} "):
            _parse_k_range(f"0:{10 ** 30}")

    def test_only_budgets_raises_budget_exceeded(self):
        raisers = []
        for path in sorted((SRC / "polymix").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(exc, "id", None) == "BudgetExceededError":
                        raisers.append(path.name)
        assert raisers == ["budgets.py"]

    def test_budget_names_are_declared_used_and_documented(self):
        # every name passed to budgets.check is a budget, and every budget is
        # checked somewhere in src/ and named in the cli docstring and the README
        import polymix.budgets
        import polymix.cli

        checked = set()
        for path in sorted((SRC / "polymix").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "check"
                        and getattr(node.func.value, "id", None) == "budgets"):
                    checked.add(ast.literal_eval(node.args[0]))
        assert checked == set(polymix.budgets.DEFAULTS)
        readme = (SRC.parent / "README.md").read_text()
        for name in polymix.budgets.DEFAULTS:
            assert f"``{name}``" in polymix.cli.__doc__
            assert f"`{name}`" in readme

    @pytest.mark.parametrize("name", sorted(polymix.budgets.DEFAULTS))
    def test_check_at_zero_returns_the_limit(self, monkeypatch, name):
        # the hull, detector and division counts read the limit this way once
        # and call check again only past it, so the first exceed is limit + 1
        budgets = polymix.budgets
        default = budgets.DEFAULTS[name][0]
        monkeypatch.delenv("POLYMIX_BUDGET", raising=False)
        assert budgets.check(name, 0) == default
        assert budgets.check(name, default) == default
        with pytest.raises(BudgetExceededError, match=f"^{name} budget: {default + 1} "):
            budgets.check(name, default + 1)
        monkeypatch.setenv("POLYMIX_BUDGET", "7")
        assert budgets.check(name, 0) == 7
        with pytest.raises(BudgetExceededError, match=f", limit 7$"):
            budgets.check(name, 8)

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
        ],
        ids=["r_1", "radius_-1", "coeff_degree_-1", "K_-1"],
    )
    def test_out_of_range_option_exits_1(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {flag} must be >= ")

    def test_zero_option_values_accepted(self, capsys):
        assert run(capsys, "search", LED, "--r", "2", "--radius", "0")[0] == 0

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
        "vertex, code, message",
        [
            ("[Infinity, 0]", 1, "parse error: bad skeleton file"),
            ("[NaN, 0]", 1, "parse error: bad skeleton file"),
            # finite entries whose difference overflows to -inf
            ("[-1e308, 1]", 2, "degenerate input: an edge direction is not finite"),
            # an integer beside a float that no float can hold
            ("[1" + "0" * 400 + ", 0.5]", 2, "degenerate input: a vertex entry is too large"),
        ],
        ids=["infinity", "nan", "overflowing_direction", "huge_integer"],
    )
    def test_non_finite_skeleton_exits_without_output(self, capfd, tmp_path, vertex, code,
                                                      message):
        path = tmp_path / "skeleton.json"
        path.write_text(
            '{"dim": 2, "vertices": [[0, 0], [1e308, 0], %s], "edges": [[0, 1], [1, 2], [2, 0]]}'
            % vertex)
        assert main(["tightness", str(path)]) == code
        captured = capfd.readouterr()  # LAPACK would write to file descriptor 1
        assert captured.out == ""
        assert captured.err.startswith(message)

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
        "vertices",
        [["00", "10", "01"], {"00": 0, "10": 1, "01": 2}, [[0, 0], "10", [0, 1]]],
        ids=["strings", "object", "one_string"],
    )
    def test_skeleton_vertices_not_lists_exit_1(self, capsys, tmp_path, vertices):
        # a string iterates as its characters and an object as its keys, which
        # would read as the triangle (0,0), (1,0), (0,1)
        path = tmp_path / "skeleton.json"
        path.write_text(json.dumps(
            {"dim": 2, "vertices": vertices, "edges": [[0, 1], [1, 2], [2, 0]]}))
        code = main(["tightness", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "parse error: skeleton vertices must be a list of lists\n"

    def test_repeated_shape_points_exit_2(self, capsys):
        # the two points never move apart, so the gap would not show mixing
        code = main(["experiment", LED, "--shape", "[[0,0],[0,0]]", "--cylinder", CELL,
                     "--k-range", "1:2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "degenerate input: shape has repeated points\n"

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

    @pytest.mark.parametrize("entry", ["[" * 900 + "]" * 900, json.dumps("x" * 10 ** 6)],
                             ids=["nested_900_deep", "string_of_1MB"])
    @pytest.mark.parametrize(
        "where, message",
        [("tuple", "--tuple entry "), ("poly_term", "bad polynomial file "),
         ("cylinder_window", "window point "), ("skeleton_vertex", "bad ")],
    )
    def test_parse_error_quotes_a_bounded_value(self, capsys, tmp_path, entry, where, message):
        # the offending value is quoted by reprlib, so the report stays one short line
        path = tmp_path / "input.json"
        files = {
            "poly_term": f'{{"p": 2, "d": 2, "terms": [{{"e": [0, 0], "c": 1}}, {entry}]}}',
            "cylinder_window": f'{{"window": [{entry}], "values": [0]}}',
            "skeleton_vertex": f'{{"dim": 2, "vertices": [[0, 0], [{entry}, 0]], "edges": [[0, 1]]}}',
        }
        if where in files:
            path.write_text(files[where])
        argv = {"tuple": ["detect", LED, "--tuple", f"[[0,0],[1,0],{entry}]", "--K", "0"],
                "poly_term": ["bounds", str(path)],
                "cylinder_window": ["measure", LED, "--cylinder", str(path)],
                "skeleton_vertex": ["tightness", str(path)]}[where]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {message}")
        # the file path is quoted whole; the rest of the line is bounded
        assert captured.err.count("\n") == 1 and len(captured.err.replace(str(path), "")) < 200

    @pytest.mark.parametrize(
        "content",
        [b'{"p": 2, "d": 1, "terms": [{"e": [0], "c": 1}], "name": "\xff"}',
         b'{"p": 2, "d": 1, "terms": [{"e": [0], "c": 1' + b"0" * 5000 + b'}]}',
         b"[" * 5000 + b"]" * 5000],
        ids=["not_utf8", "integer_of_5000_digits", "nested_5000_deep"],
    )
    @pytest.mark.parametrize("command", ["bounds", "tightness", "measure"])
    def test_undecodable_file_exits_1(self, capsys, tmp_path, content, command):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = {"bounds": ["bounds", str(path)], "tightness": ["tightness", str(path)],
                "measure": ["measure", LED, "--cylinder", str(path)]}[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: cannot read JSON from {path}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["detect", LED, "--K", "1", "--tuple"], "--tuple"),
            (["measure", LED, "--cylinder", CELL, "--shifts"], "--shifts"),
            (["experiment", LED, "--cylinder", CELL, "--k-range", "1:2", "--shape"], "--shape"),
        ],
        ids=["tuple", "shifts", "shape"],
    )
    @pytest.mark.parametrize("value", ["[" * 5000 + "]" * 5000, "[[1" + "0" * 5000 + ", 0]]"],
                             ids=["nested_5000_deep", "integer_of_5000_digits"])
    def test_undecodable_inline_json_exits_1(self, capsys, argv, flag, value):
        code = main(argv + [value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: bad inline JSON for {flag}: ")
        assert "Traceback" not in captured.err

    def test_integers_past_the_digit_limit_are_printed(self, capsys, tmp_path):
        # 1/p^300 has 5,401 digits, past the 4,300 that str(int) allows by default
        p = 10 ** 18 + 3
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"p": p, "d": 2, "terms": [
            {"e": [0, 0], "c": 1}, {"e": [1, 0], "c": 1}, {"e": [0, 1], "c": 1}]}))
        cyl = tmp_path / "row.json"
        cyl.write_text(json.dumps({"window": [[x, 0] for x in range(300)], "values": [0] * 300}))
        code = main(["measure", str(poly), "--cylinder", str(cyl)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        # Decimal reads the integer exactly without lifting the digit limit
        value = json.loads(captured.out, parse_int=lambda text: int(Decimal(text)))["value"]
        assert value == {"num": 1, "den": p ** 300}

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
    "tightness": [],
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
            (["tightness", CUBE, "--tolerance", "1e-9"], "usage: polymix [-h]",
             "unrecognized arguments: --tolerance 1e-9"),
        ],
        ids=["no_subcommand", "unknown_subcommand", "search_without_r", "unknown_option",
             "tolerance"],
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


def test_every_exported_name_resolves():
    assert len(set(polymix.__all__)) == len(polymix.__all__)
    assert [name for name in polymix.__all__ if not hasattr(polymix, name)] == []


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
        experiment = ["experiment", LED, "--shape", "[[0,0],[1,0],[0,1]]", "--cylinder", CELL,
                      "--k-range", "1:3"]
        result = fresh(
            ["analyze", LED],
            ["bounds", QUAD],
            ["certify", LED, "--max-k", "3"],
            ["search", LED, "--r", "3", "--radius", "1"],
            ["detect", LED, "--tuple", "[[0,0],[17,0],[0,16]]", "--K", "1"],
            ["tightness", CUBE],
            ["measure", LED, "--cylinder", CELL, "--shifts", "[[0,0],[4,0],[0,4]]"],
            experiment,
            experiment + ["--method", "box"],
        )
        assert [code for code, _ in result["runs"]] == [0] * 9
        assert "numpy" not in result["modules"]
        # the benchmark tracer wraps functions of every layer after importing cli
        for layer in self.LAYERS:
            assert f"polymix.{layer}" in result["modules"]

    @pytest.mark.parametrize(
        "argv, loads_numpy",
        [
            (["measure", LED, "--cylinder", CELL], False),
            (["measure", LED, "--cylinder", CELL, "--method", "box"], False),
            (["tightness", ICOSA], True),
        ],
        ids=["measure_exact", "measure_box", "tightness_float"],
    )
    def test_numpy_commands_load_it_on_demand(self, capsys, argv, loads_numpy):
        # a fresh process prints what the in-process run prints and imports
        # numpy only when the command computes with it: the float rank of
        # tightness does, the sparse F_p echelon of either measure path does not
        result = fresh(argv)
        assert result["runs"] == [list(run(capsys, *argv))]
        assert result["runs"][0][0] == 0
        assert ("numpy" in result["modules"]) == loads_numpy

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


def test_console_script_targets_cli_main():
    # pip installs [project.scripts] as the polymix command; CI runs every
    # golden case through that installed command
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((FIXTURES.parent / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["polymix"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
