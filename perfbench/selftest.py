"""Self-test of the oracles: a wrong answer must raise failed_frac.

    python3 perfbench/selftest.py

For every workload it answers one query of each kind through
``polymix.cli.main``, checks that all answers pass (failed_frac 0), then
corrupts one answer per kind -- a field that kind's oracle checks -- and
checks that failed_frac rises.  Exit code 0 when every oracle is live.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import box_expectations  # noqa: E402


def _bump(d: dict, key: str) -> None:
    d[key] += 1


def _corrupt_search(out: dict, q: dict) -> None:
    # a collinear shape: its relation has a 1-D Newton polytope, so f never divides it
    p = q["expect"]["p"]
    out["candidates"].append({"shape": [[0, 0], [1, 0], [2, 0]][: q["expect"]["r"]],
                              "coeffs": [1] * q["expect"]["r"], "verified_k": [1, p, p * p],
                              "frobenius_family": False})


def _corrupt_value(out: dict, q: dict) -> None:
    value = out["value"]
    value["num"], value["den"] = (1, 1) if value["num"] == 0 else (0, 1)


CORRUPT = {
    "certify": lambda out, q: out["verified_k"].pop(),
    "analyze": lambda out, q: _bump(out["bounds"], "vertex_count"),
    "search": _corrupt_search,
    "measure-exact": _corrupt_value,
    "measure-box": _corrupt_value,
    "measure-joint": _corrupt_value,
    "experiment": lambda out, q: _bump(out["rows"][-1]["joint"], "den"),
    "bounds": lambda out, q: _bump(out["bounds"], "vertex_count"),
    "tightness-exact": lambda out, q: _bump(out, "dimension"),
    "tightness-float": lambda out, q: _bump(out, "dimension"),
    "detect": lambda out, q: _bump(out["match"]["homothety"]["scale"], "num"),
}


def _answer(argv: list[str]) -> tuple[int, str]:
    from polymix.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, buf.getvalue()


def _failed_frac(answers) -> float:
    return sum(checks.check(q, rc, out) is not None for q, rc, out in answers) / len(answers)


def main() -> int:
    dead = 0
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "_work"))
    try:
        for name in workloads.BUILDERS:
            queries, _ = workloads.build(name, 0, workdir, 0)
            box_expectations(queries)
            firsts = {}
            for q in queries:
                firsts.setdefault(q["kind"], q)
            answers = [(q, *_answer(q["argv"])) for q in firsts.values()]
            base = _failed_frac(answers)
            print(f"{name}: failed_frac on true answers = {base:.3f} over {len(answers)} kinds")
            dead += base != 0
            for i, (q, rc, out) in enumerate(answers):
                for label, bad in (("wrong exit code", (q, 2, out)),
                                   ("wrong answer", (q, rc, _corrupted(q, out)))):
                    trial = answers[:i] + [bad] + answers[i + 1:]
                    frac = _failed_frac(trial)
                    live = frac > base
                    dead += not live
                    print(f"  {'ok  ' if live else 'DEAD'} {q['kind']:16s} {label:16s} failed_frac {base:.3f} -> {frac:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(HERE, "_work"))
    print("all oracles live" if dead == 0 else f"{dead} checks did not fire")
    return 0 if dead == 0 else 1


def _corrupted(q: dict, stdout: str) -> str:
    out = copy.deepcopy(json.loads(stdout))
    CORRUPT[q["kind"]](out, q)
    return json.dumps(out)


if __name__ == "__main__":
    sys.exit(main())
