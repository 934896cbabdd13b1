"""Every function in ``src/polymix`` runs on some golden case, or is kept on purpose.

The golden cases run through ``cli.main`` in-process under
``sys.setprofile``.  Each ``def`` of the package (methods and nested
functions by qualified name) that no case calls must be in ``KEPT`` with
its reason.  ``KEPT`` may only shrink: an entry that a case reaches, or
whose function is gone, fails as well.  An entry kept for the benchmark
names its root, the function that ``perfbench/`` names (a ``TARGETS``
entry of ``tracing.py`` or an import of ``run.py``) and that keeps it.
"""

import ast
import contextlib
import io
import json
import sys

from polymix.cli import main

from conftest import FIXTURES

ROOT = FIXTURES.parent
SRC = ROOT / "src" / "polymix"
GOLDEN = ROOT / "tests" / "golden"
PERFBENCH = ROOT / "perfbench"

BENCH = "named under perfbench/, which only a benchmark change edits"

# qualified name -> (reason, root named under perfbench/ or None)
KEPT = {
    "exactlp.in_convex_hull": (BENCH, "exactlp.in_convex_hull"),
    "exactlp.equality_feasible": ("called only by in_convex_hull", "exactlp.in_convex_hull"),
    "gfp.rref": (BENCH, "gfp.rref"),
    "gfp.rank": (BENCH, "gfp.rank"),
    "gfp.kernel_basis": (BENCH, "gfp.kernel_basis"),
    "gfp.in_row_space": (BENCH, "gfp.in_row_space"),
    "gfp.check_modulus": ("called only by rref and box_projected_dimension", "gfp.rref"),
    "lattice.complete_to_unimodular": (BENCH, "lattice.complete_to_unimodular"),
    "lattice.complete_to_unimodular.inverse": ("nested in complete_to_unimodular",
                                               "lattice.complete_to_unimodular"),
    "lattice.combine_columns": ("called only by polytope._pull_back", "polytope.outward_normal"),
    "laurent.make_poly": (BENCH, "laurent.make_poly"),
    "measure.solution_space": (BENCH, "measure.solution_space"),
    "measure.box_projected_dimension": (BENCH, "measure.box_projected_dimension"),
    "measure.brute_force_measure": (BENCH, "measure.brute_force_measure"),
    "measure.brute_force_counts": ("called only by brute_force_measure",
                                   "measure.brute_force_measure"),
    "measure._constraint_matrix": ("called only by solution_space and brute_force_counts",
                                   "measure.solution_space"),
    "measure._box_cells": ("called only by solution_space and brute_force_counts",
                           "measure.solution_space"),
    "measure._check_box": ("called only by _box_cells and box_projected_dimension",
                           "measure.box_projected_dimension"),
    "mixing.relation_value": (BENCH, "mixing.relation_value"),
    "polytope.outward_normal": (BENCH, "polytope.outward_normal"),
    "polytope._pull_back": ("called only by outward_normal", "polytope.outward_normal"),
    "quotient.power_residue": (BENCH, "quotient.power_residue"),
    "laurent.LaurentPoly.__mul__": (
        "the benchmark's laurent.mul target, and value API: polynomials multiply",
        "laurent.LaurentPoly.__mul__"),
    "laurent.monomial": ("a constructor README.md documents", None),
    "laurent.one": ("a constructor README.md documents", None),
    "laurent.LaurentPoly.__add__": (
        "value API: the tests' ring-axiom and linearity oracles add polynomials", None),
    "laurent.LaurentPoly.__eq__": ("value API: polynomials compare by their terms", None),
    "laurent.LaurentPoly.__repr__": ("value API: how a polynomial prints", None),
    "laurent.LaurentPoly.__setattr__": ("value API: refuses mutation", None),
    "quotient.Residue.is_zero": ("value API: the documented membership test g in <f>", None),
}


def defined() -> dict:
    """Every def of the package: (file, first line, name) -> qualified name.

    The first line is that of the code object, which for a decorated
    function is its first decorator's.
    """
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[path, first, child.name] = prefix + child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, path, f"{prefix}{child.name}.")

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path.resolve()), f"{path.stem}.")
    return found


def reached() -> set:
    """(file, first line, name) of every package function some golden case calls."""
    calls = set()
    src = str(SRC.resolve())

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            calls.add((code.co_filename, code.co_firstlineno, code.co_name))

    for case in json.loads((GOLDEN / "cases.json").read_text()):
        argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in case["argv"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                main(argv)
            except SystemExit:
                pass
            finally:
                sys.setprofile(None)
    return calls


def benchmark_names() -> set:
    """The package functions perfbench/ names: tracing.py TARGETS and run.py imports."""
    names = set()
    for node in ast.walk(ast.parse((PERFBENCH / "tracing.py").read_text())):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            names |= {f"{module}.{attr}" for module, attr, _ in ast.literal_eval(node.value)}
    for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polymix."):
            module = node.module.removeprefix("polymix.")
            names |= {f"{module}.{alias.name}" for alias in node.names}
    return names


def test_every_function_runs_on_a_golden_case_or_is_kept(monkeypatch):
    monkeypatch.delenv("POLYMIX_BUDGET", raising=False)  # the goldens run at the defaults
    functions = defined()
    names = set(functions.values())
    live = {functions[key] for key in reached() if key in functions}
    dead = sorted(names - live - KEPT.keys())
    assert not dead, f"no golden case reaches {dead}: delete them, add a golden case " \
        "that runs them, or keep them in KEPT with a reason"
    live_kept = sorted(KEPT.keys() & live)
    assert not live_kept, f"a golden case reaches {live_kept}: drop them from KEPT"
    gone = sorted(KEPT.keys() - names)
    assert not gone, f"{gone} no longer exist: drop them from KEPT"


def test_every_benchmark_root_is_still_named_under_perfbench():
    bench = benchmark_names()
    roots = {root for _, root in KEPT.values() if root is not None}
    assert sorted(roots - bench) == []
    for name, (reason, root) in KEPT.items():
        assert reason and (root is None or root in KEPT), name
