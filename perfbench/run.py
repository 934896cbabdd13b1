"""polymix benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload shapes|measures|geometry \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The harness generates the workload's input
files from the seed, computes every expected answer with the oracles in
``oracles.py``, times cold starts of a fresh interpreter, then runs one
client (``client.py``: one thread, one query at a time, each query through
``polymix.cli.main`` in a fresh fork per unit of the list) for S seconds
and checks every answer it printed.  The last line of stdout is the result object; with
``--trace 1`` its metrics are the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from calibrate import speed  # noqa: E402

WORKLOADS = ("shapes", "measures", "geometry")
COLD_RUNS = 10

END_TO_END = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _per_layer_spec() -> list[tuple[str, str]]:
    import tracing
    import workloads

    spec = [
        ("laurent.mul.calls", "count"), ("laurent.mul.self_ms", "ms"),
        ("laurent.mul.term_pairs", "count"), ("laurent.frobenius_power.calls", "count"),
        ("quotient.reduce.calls", "count"), ("quotient.reduce.self_ms", "ms"),
        ("quotient.reduce.in_terms", "count"), ("quotient.reduce.out_terms", "count"),
        ("quotient.monomial_residue.calls", "count"), ("quotient.monomial_residue.self_ms", "ms"),
        ("quotient.monomial_residue.distinct_frac", "ratio"),
        ("quotient.power_residue.calls", "count"), ("quotient.power_residue.distinct_frac", "ratio"),
        ("gfp.rref.calls", "count"), ("gfp.rref.self_ms", "ms"), ("gfp.rref.cells", "count"),
        ("gfp.kernel_basis.calls", "count"), ("gfp.kernel_basis.self_ms", "ms"),
        ("measure.solution_space.calls", "count"), ("measure.solution_space.self_ms", "ms"),
        ("measure.box.margins_per_query", "count"),
        ("measure.box_projected_dimension.budget_exceeded", "count"),
        ("exactlp.in_convex_hull.calls", "count"), ("exactlp.in_convex_hull.self_ms", "ms"),
        ("exactlp.in_convex_hull.points", "count"),
        ("polytope.hull.calls", "count"), ("polytope.hull.self_ms", "ms"),
        ("polytope.hull.vertex_yield", "ratio"),
        ("lattice.column_reduce.self_ms", "ms"),
        ("redraw.redraw_space.calls", "count"), ("redraw.redraw_space.self_ms", "ms"),
        ("redraw.constraint_rows.cells", "count"),
        ("seqgeom.detect_redrawing.calls", "count"), ("seqgeom.detect_redrawing.self_ms", "ms"),
        ("mixing.frobenius_certificate.self_ms", "ms"), ("mixing.search_relations.self_ms", "ms"),
        ("mixing.search_relations.hit_frac", "ratio"), ("mixing.relation_value.calls", "count"),
        ("jsonio.load.self_ms", "ms"), ("jsonio.dumps.self_ms", "ms"), ("cli.self_ms", "ms"),
        ("import.interpreter_ms", "ms"), ("import.numpy_ms", "ms"), ("import.polymix_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
    spec += [(f"layer.{layer}.self_frac", "ratio") for layer in tracing.LAYERS]
    spec += [("box.gfp.self_frac", "ratio"), ("box.top_other.self_frac", "ratio")]
    spec += [(name, "ms") for name in workloads.curve_names()]
    spec += [(f"{name}.errors", "count") for _, _, name in tracing.TARGETS]
    return spec


# -- preparation ------------------------------------------------------------------


def box_expectations(queries: list[dict]) -> None:
    """Box queries must also match the exact path, and brute force when tiny.

    Run on the queries the client executed, before their answers are checked.
    """
    from polymix.laurent import make_poly
    from polymix.measure import CylinderSpec, brute_force_measure, cylinder_measure
    from workloads import fraction_json

    for q in queries:
        box = q["expect"].get("box")
        if box is None:
            continue
        f = make_poly(box["p"], 2, [(tuple(e), c) for e, c in box["terms"]])
        window = [tuple(w) for w in box["window"]]
        cyl = CylinderSpec.from_pairs(zip(window, box["values"]))
        answers = {"oracle": q["expect"]["value"], "exact path": fraction_json(cylinder_measure(f, cyl).value)}
        lo = [min(w[i] for w in window) for i in range(2)]
        hi = [max(w[i] for w in window) for i in range(2)]
        cells = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
        if box["p"] ** cells <= 1 << 16:
            bbox = list(zip(lo, hi))
            answers["brute force"] = fraction_json(brute_force_measure(f, cyl, bbox).value)
        if len({json.dumps(a, sort_keys=True) for a in answers.values()}) != 1:
            raise SystemExit(f"reference answers disagree on a box query: {answers}")


# -- cold starts --------------------------------------------------------------------


def _importtime(stderr: str) -> dict:
    """interpreter / numpy / polymix import ms from ``-X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        _, cumulative, name = parts
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1000.0))
    first = next((i for i, (_, n, _) in enumerate(rows) if n.startswith("polymix")), len(rows))
    numpy_ms = sum(ms for _, n, ms in rows if n == "numpy")
    interpreter = sum(ms for d, _, ms in rows[:first] if d == 0)
    polymix_total = sum(ms for d, _, ms in rows[first:] if d == 0)
    return {"import.interpreter_ms": interpreter, "import.numpy_ms": numpy_ms,
            "import.polymix_ms": polymix_total - numpy_ms}


class ColdStarts:
    """Fresh-interpreter runs of the smallest query: wall times, imports, verdicts."""

    def __init__(self, query: dict, trace: bool):
        self.query = query
        self.cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            os.path.join(HERE, "coldstart.py")] + query["argv"]
        self.trace = trace
        self.times: list[float] = []
        self.imports: list[dict] = []
        self.verdicts: list[str | None] = []

    def run(self, count: int, timed: bool = True) -> None:
        import checks

        for _ in range(count):
            t0 = time.perf_counter()
            proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
            elapsed = time.perf_counter() - t0
            if not timed:
                continue
            self.times.append(elapsed)
            self.verdicts.append(checks.check(self.query, proc.returncode, proc.stdout))
            if self.trace:
                self.imports.append(_importtime(proc.stderr))


# -- the measured client -----------------------------------------------------------


def _run_client(workdir: str, queries: list[dict], seconds: float, trace: bool) -> dict:
    """Run the client; return its summary with every execution and, traced, the spans.

    ``executions`` holds (query index, variant, latency s, phase),
    ``variants[i]`` the distinct (exit code, stdout) answers of query i,
    ``unit_s`` the wall time of the units run in each phase, and ``speed``
    and ``traced_speed`` the factors that scale the wall times of the
    untraced and traced units (see ``calibrate.py``).
    """
    qpath = os.path.join(workdir, "queries.json")
    with open(qpath, "w", encoding="utf-8") as fh:
        json.dump([{"argv": q["argv"], "kind": q["kind"], "unit": q["unit"]} for q in queries], fh)
    cmd = [sys.executable, os.path.join(HERE, "client.py"), qpath, workdir, repr(seconds), "1" if trace else "0"]
    # the client forks a child per unit: it gets a process group of its own,
    # so that a timeout stops the child too.  The loop ends at the first unit
    # boundary after SECONDS, and traced units run twice.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=3 * seconds + 60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit("client timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"client exited with code {proc.returncode}")
    with open(os.path.join(workdir, "summary.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    variants: list[list] = [[] for _ in queries]
    executions = []
    with open(os.path.join(workdir, "executions.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            i, rc, stdout, latency, phase = json.loads(line)
            key = [rc, stdout]
            if key not in variants[i]:
                variants[i].append(key)
            executions.append((i, variants[i].index(key), latency, phase))
    result["executions"], result["variants"] = executions, variants
    result["unit_s"] = {"plain": 0.0, "traced": 0.0}
    samples: dict[str, list[float]] = {"plain": [], "traced": []}
    with open(os.path.join(workdir, "units.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            _, phase, wall, kernel = json.loads(line)
            result["unit_s"][phase] += wall
            samples[phase] += kernel
    result["speed"] = speed(samples["plain"])
    if trace:
        import tracing

        result["traced_speed"] = speed(samples["traced"])
        prefixes = sorted(os.path.join(workdir, n[:-5]) for n in os.listdir(workdir)
                          if n.startswith("spans-") and n.endswith(".json"))
        result["spans"] = tracing.load(prefixes)
    return result


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _end_to_end(plain: list[float], unit_s: float, cold_times: list[float], peak_rss_mb: float,
                scale: float) -> dict:
    """The end-to-end metrics; query times are multiplied by ``scale``, cold starts are not.

    Cold starts run before and after the client, not inside the processes
    whose kernel times set ``scale``, so they are reported as measured.
    """
    return {
        "setup_s": statistics.median(cold_times),
        "query_p50_ms": _quantile(plain, 0.5) * scale * 1000.0,
        "query_p90_ms": _quantile(plain, 0.9) * scale * 1000.0,
        "queries_per_s": len(plain) / (unit_s * scale),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(queries, result, imports) -> dict:
    import tracing
    import workloads

    spans = result["spans"]
    n_units = result["units"]
    summary = tracing.summarize(spans)
    calls, self_s, c = summary["calls"], summary["self_s"], summary["counters"]

    def per_unit_calls(name):
        return calls.get(name, 0) / n_units

    def per_unit_ms(*names):
        return sum(self_s.get(n, 0.0) for n in names) * 1000.0 / n_units

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "laurent.mul.calls": per_unit_calls("laurent.mul"),
        "laurent.mul.self_ms": per_unit_ms("laurent.mul"),
        "laurent.mul.term_pairs": c.get("laurent.mul.term_pairs", 0) / n_units,
        "laurent.frobenius_power.calls": per_unit_calls("laurent.frobenius_power"),
        "quotient.reduce.calls": per_unit_calls("quotient.reduce"),
        "quotient.reduce.self_ms": per_unit_ms("quotient.reduce"),
        "quotient.reduce.in_terms": c.get("quotient.reduce.in_terms", 0) / n_units,
        "quotient.reduce.out_terms": c.get("quotient.reduce.out_terms", 0) / n_units,
        "quotient.monomial_residue.calls": per_unit_calls("quotient.monomial_residue"),
        "quotient.monomial_residue.self_ms": per_unit_ms("quotient.monomial_residue"),
        "quotient.monomial_residue.distinct_frac": ratio(
            c.get("quotient.monomial_residue.distinct", 0), calls.get("quotient.monomial_residue", 0)),
        "quotient.power_residue.calls": per_unit_calls("quotient.power_residue"),
        "quotient.power_residue.distinct_frac": ratio(
            c.get("quotient.power_residue.distinct", 0), calls.get("quotient.power_residue", 0)),
        "gfp.rref.calls": per_unit_calls("gfp.rref"),
        "gfp.rref.self_ms": per_unit_ms("gfp.rref"),
        "gfp.rref.cells": c.get("gfp.rref.cells", 0) / n_units,
        "gfp.kernel_basis.calls": per_unit_calls("gfp.kernel_basis"),
        "gfp.kernel_basis.self_ms": per_unit_ms("gfp.kernel_basis"),
        "measure.solution_space.calls": per_unit_calls("measure.solution_space"),
        "measure.solution_space.self_ms": per_unit_ms("measure.solution_space"),
        "measure.box.margins_per_query": ratio(
            calls.get("measure.box_projected_dimension", 0),
            sum(1 for k in spans["query_kinds"] if k == "measure-box")),
        "measure.box_projected_dimension.budget_exceeded":
            c.get("measure.box_projected_dimension.budget_exceeded", 0) / n_units,
        "exactlp.in_convex_hull.calls": per_unit_calls("exactlp.in_convex_hull"),
        "exactlp.in_convex_hull.self_ms": per_unit_ms("exactlp.in_convex_hull"),
        "exactlp.in_convex_hull.points": c.get("exactlp.in_convex_hull.points", 0) / n_units,
        "polytope.hull.calls": per_unit_calls("polytope.hull"),
        "polytope.hull.self_ms": per_unit_ms("polytope.hull"),
        "polytope.hull.vertex_yield": ratio(c.get("polytope.hull.vertices", 0), c.get("polytope.hull.points", 0)),
        "lattice.column_reduce.self_ms": per_unit_ms("lattice.column_reduce"),
        "redraw.redraw_space.calls": per_unit_calls("redraw.redraw_space"),
        "redraw.redraw_space.self_ms": per_unit_ms("redraw.redraw_space"),
        "redraw.constraint_rows.cells": c.get("redraw.constraint_rows.cells", 0) / n_units,
        "seqgeom.detect_redrawing.calls": per_unit_calls("seqgeom.detect_redrawing"),
        "seqgeom.detect_redrawing.self_ms": per_unit_ms("seqgeom.detect_redrawing"),
        "mixing.frobenius_certificate.self_ms": per_unit_ms("mixing.frobenius_certificate"),
        "mixing.search_relations.self_ms": per_unit_ms("mixing.search_relations"),
        "mixing.search_relations.hit_frac": ratio(
            c.get("mixing.search_relations.found", 0), calls.get("mixing.relation_value", 0)),
        "mixing.relation_value.calls": per_unit_calls("mixing.relation_value"),
        "jsonio.load.self_ms": per_unit_ms("jsonio.load_poly", "jsonio.load_skeleton", "jsonio.load_cylinder"),
        "jsonio.dumps.self_ms": per_unit_ms("jsonio.dumps"),
        "cli.self_ms": per_unit_ms("cli.main"),
    }
    for key in ("import.interpreter_ms", "import.numpy_ms", "import.polymix_ms"):
        m[key] = statistics.median(x[key] for x in imports)
    m["trace.overhead_frac"] = (result["unit_s"]["traced"] * result["traced_speed"]
                                / (result["unit_s"]["plain"] * result["speed"]) - 1.0)
    for layer, share in summary["layer_frac"].items():
        m[f"layer.{layer}.self_frac"] = share
    box = summary["box_layer_frac"]
    m["box.gfp.self_frac"] = box["gfp"]
    m["box.top_other.self_frac"] = max(v for k, v in box.items() if k != "gfp")
    by_curve: dict[str, list[float]] = {name: [] for name in workloads.curve_names()}
    for i, _, latency, phase in result["executions"]:
        if phase == "plain":
            by_curve[queries[i]["curve"]].append(latency * result["speed"] * 1000.0)
    for name, values in by_curve.items():
        m[name] = statistics.median(values) if values else 0.0
    for _, _, name in tracing.TARGETS:
        m[f"{name}.errors"] = c.get(f"{name}.errors", 0) / n_units
    return m


def _check(queries, result, cold_verdicts) -> tuple[int, int, dict[str, int]]:
    """(attempted, failed, failure reasons with counts)."""
    import checks

    verdicts: dict[tuple[int, int], str | None] = {}
    failures: dict[str, int] = {}
    attempted = failed = 0
    for reason in cold_verdicts:
        attempted += 1
        if reason is not None:
            failed += 1
            failures[f"cold start: {reason}"] = failures.get(f"cold start: {reason}", 0) + 1
    for i, variant, _, _ in result["executions"]:
        if (i, variant) not in verdicts:
            rc, stdout = result["variants"][i][variant]
            verdicts[(i, variant)] = checks.check(queries[i], rc, stdout)
        reason = verdicts[(i, variant)]
        attempted += 1
        if reason is not None:
            key = f"{queries[i]['kind']}: {reason}"
            failures[key] = failures.get(key, 0) + 1
            failed += 1
    return attempted, failed, failures


def _repeat_frac(queries: list[dict], units_run: int) -> float:
    """Share of the queries run whose polynomial an earlier unit of the run also had.

    Inside a unit no polynomial repeats, and each unit runs in its own
    process, so a memo keyed on the polynomial never hits; this share is
    what one process for the whole run could reuse.
    """
    seen: set[str] = set()
    run = [q for q in queries if q["unit"] < units_run]
    repeats = 0
    for q in run:
        if "poly" in q:
            repeats += q["poly"] in seen
            seen.add(q["poly"])
    return repeats / len(run)


def _environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu": cpu, "nproc": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "polymix", "cli.py")):
        print(f"polymix sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace = args.trace == 1

    import workloads

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        queries, cold = workloads.build(args.workload, args.seed, workdir, args.seconds)
        prep_s = time.perf_counter() - t0
        # half the cold starts before the client and half after, so a slow
        # stretch of a shared machine does not set the whole median
        starts = ColdStarts(cold, trace)
        starts.run(1, timed=False)  # the first start may compile bytecode
        starts.run(COLD_RUNS // 2)
        result = _run_client(workdir, queries, args.seconds, trace)
        starts.run(COLD_RUNS - COLD_RUNS // 2)
        cold_times, imports, cold_verdicts = starts.times, starts.imports, starts.verdicts
        box_expectations([queries[i] for i in sorted({e[0] for e in result["executions"]})])

        attempted, failed, failures = _check(queries, result, cold_verdicts)
        plain = [e[2] for e in result["executions"] if e[3] == "plain"]
        if trace:
            metrics = _per_layer(queries, result, imports)
            spec = _per_layer_spec()
        else:
            metrics = _end_to_end(plain, result["unit_s"]["plain"], cold_times, result["peak_rss_mb"],
                                  result["speed"])
            spec = END_TO_END
        for reason, count in sorted(failures.items()):
            print(f"FAILED x{count}: {reason}")
        print(f"workload={args.workload} seed={args.seed} queries_in_list={len(queries)} "
              f"units_in_list={queries[-1]['unit'] + 1} units_run={result['units']} "
              f"latency_samples={len(plain)} cold_starts={len(cold_times)} prep_s={prep_s:.1f} "
              f"failed_frac={failed / attempted:.4f} ({failed}/{attempted}) "
              f"poly_repeat_frac={_repeat_frac(queries, result['units']):.3f}")
        raw = _end_to_end(plain, result["unit_s"]["plain"], cold_times, result["peak_rss_mb"], 1.0)
        print(f"speed_factor={result['speed']:.4f}; as measured, before scaling: "
              + " ".join(f"{name}={raw[name]:.4f}" for name, _ in END_TO_END[1:4]))
        by_kind: dict[str, list[float]] = {}
        for i, _, latency, phase in result["executions"]:
            if phase == "plain":
                by_kind.setdefault(queries[i]["kind"], []).append(latency)
        for kind, values in sorted(by_kind.items()):
            print(f"  kind {kind:16s} n={len(values):5d} p50_ms_as_measured={_quantile(values, 0.5) * 1000:9.2f} "
                  f"time_share={sum(values) / sum(plain):.3f}")
        for name, unit in spec:
            print(f"{name:48s} {metrics[name]:14.4f} {unit}")
        print(json.dumps({"environment": _environment()}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "_work"))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
