"""One closed-loop client: runs a query list through polymix.cli.main.

    python3 client.py QUERIES.json OUTDIR SECONDS TRACE

The client answers the list in whole units (see workloads.py) until
SECONDS have elapsed.  Each unit runs in a fresh fork of this process,
which has imported polymix and answered nothing: one query at a time,
each through ``polymix.cli.main`` with stdout captured, the next unit only
after the previous child has exited.  So no state one unit leaves in
polymix reaches another, as none survives between two calls of the
polymix command.  With TRACE=1 every unit runs untraced (the baseline for
the tracing overhead and the latency curves) and then again traced.

Each child appends one line per query to OUTDIR/executions.jsonl,
``[query index, exit code, stdout, latency s, phase]``, and one line to
OUTDIR/units.jsonl, ``[unit, phase, wall s spent on its queries, kernel
samples s]``: it times the kernel of ``calibrate.py`` 5 times before its
first query and once between queries at most every 0.2 s.  Traced children write
their spans to OUTDIR/spans-N.*.  The parent keeps nothing per query, so
the children's peak memory does not grow with the run.  At the end it
writes OUTDIR/summary.json.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
# fork copies only the calling thread, so numpy's BLAS must not start a
# thread pool; polymix computes on one thread anyway
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import polymix.cli  # noqa: E402
from calibrate import EVERY_S, kernel_samples  # noqa: E402


def _run(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = polymix.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a traceback reaching the user is a failure
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def main() -> int:
    qpath, outdir, seconds, trace = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1"
    with open(qpath, encoding="utf-8") as fh:
        queries = json.load(fh)
    units: list[list[int]] = []
    for i, q in enumerate(queries):
        if q["unit"] == len(units):
            units.append([])
        units[q["unit"]].append(i)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.disable()
    traced_units = 0

    def child(u: int, phase: str) -> None:
        kinds = []
        kernel = kernel_samples(5)
        last_sample = perf_counter()
        wall = 0.0
        if phase == "traced":
            tracer.enable()
        with open(os.path.join(outdir, "executions.jsonl"), "a", encoding="utf-8") as fh:
            for i in units[u]:
                if perf_counter() - last_sample >= EVERY_S:
                    kernel += kernel_samples(1)
                    last_sample = perf_counter()
                t_query = perf_counter()
                if phase == "traced":
                    tracer.new_query()
                    span = tracer.begin("query")
                    kinds.append(queries[i]["kind"])
                t0 = perf_counter()
                rc, stdout = _run(queries[i]["argv"])
                latency = perf_counter() - t0
                if phase == "traced":
                    tracer.finish(span)
                fh.write(json.dumps([i, rc, stdout, latency, phase]) + "\n")
                wall += perf_counter() - t_query
        if phase == "traced":
            tracer.disable()
            tracer.dump(os.path.join(outdir, f"spans-{traced_units:05d}"), kinds)
        with open(os.path.join(outdir, "units.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps([u, phase, wall, kernel]) + "\n")

    def run_unit(u: int, phase: str) -> None:
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            # a child must never return into the parent's loop: whatever
            # happens, it reports and exits here
            code = 1
            try:
                child(u, phase)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"the {phase} run of unit {u} failed")

    # children share the parent's pages until they write to them; frozen
    # objects are skipped by the collector, which would otherwise touch them all
    gc.collect()
    gc.freeze()
    # closed loop over whole units until the time is used up; when tracing,
    # each unit runs untraced and then again traced, so both see the same
    # state of a shared machine and the overhead compares equal work
    done = 0
    t_start = perf_counter()
    while not done or perf_counter() - t_start < seconds:
        u = done % len(units)
        run_unit(u, "plain")
        if trace:
            run_unit(u, "traced")
            traced_units += 1
        done += 1

    summary = {
        "units": done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
