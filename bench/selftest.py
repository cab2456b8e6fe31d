#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must reject a planted wrong answer.

Run from the root of a checkout:

    python3 bench/selftest.py

For every check it feeds one genuine answer, which must pass, and one
planted wrong answer, which must be rejected: a closure with one arc
dropped, a flipped verdict, a forged witness, a forged perp sample, a
torsion-class list missing one class, and a CLI payload with a wrong
dimension.  Exits 1 if any check accepts a planted answer or rejects a
genuine one.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import sphtor  # noqa: E402
from workloads import CliRequests, FiniteClosures, OrbitEnumerate, TorsionVerdicts  # noqa: E402

SEED = 7
failures = []


def expect(label: str, check, wl, i: int, genuine: dict, planted: dict) -> None:
    good = check(wl, {i: genuine})[i]
    bad = check(wl, {i: planted})[i]
    ok = good == checks.OK and bad not in (checks.OK, checks.FAILED)
    print(f"{'PASS' if ok else 'FAIL'}  {label}: genuine -> {good}; planted -> {bad}")
    if not ok:
        failures.append(label)


def first(wl, predicate) -> int:
    return next(i for i, op in enumerate(wl.ops) if predicate(op))


def outcome(wl, i: int) -> dict:
    return {"answer": wl.encode(wl.ops[i], wl.run(wl.ops[i]))}


def finite_closure_case() -> None:
    wl = FiniteClosures(SEED)
    i = first(wl, lambda op: op[0] == "ptolemy" and op[1] == 2 and len(op[2]) == 3
              and len(sphtor.ptolemy_closure(2, op[2])) > 3)
    genuine = outcome(wl, i)
    planted = copy.deepcopy(genuine)
    seed = {(a.t, a.u) for a in wl.ops[i][2]}
    dropped = next(p for p in planted["answer"] if tuple(p) not in seed)
    planted["answer"].remove(dropped)
    expect("closure with one arc dropped", checks.check_finite_closures, wl, i, genuine, planted)


def torsion_cases() -> None:
    wl = TorsionVerdicts(SEED)
    check = checks.check_torsion_verdicts
    i = first(wl, lambda op: op[0] == "family" and op[1] == 2 and op[2] == "L")
    genuine = outcome(wl, i)
    planted = copy.deepcopy(genuine)
    planted["answer"]["verdict"] = "not_contravariantly_finite"
    expect("flipped fountain verdict", check, wl, i, genuine, planted)

    planted = copy.deepcopy(genuine)
    planted["answer"]["perp_sample"].pop(len(planted["answer"]["perp_sample"]) // 2)
    expect("perp sample with one arc dropped", check, wl, i, genuine, planted)

    i = next(
        i for i, op in enumerate(wl.ops)
        if op[0] == "random" and outcome(wl, i)["answer"]["witness_pair"] is not None
    )
    genuine = outcome(wl, i)
    planted = copy.deepcopy(genuine)
    planted["answer"]["missing_arc"] = planted["answer"]["witness_pair"][0]
    expect("forged NOT_CLOSED witness (missing arc in the set)", check, wl, i, genuine, planted)

    planted = copy.deepcopy(genuine)
    planted["answer"]["verdict"] = "torsion_class"
    planted["answer"]["witness_pair"] = planted["answer"]["missing_arc"] = None
    expect("flipped finite-set verdict", check, wl, i, genuine, planted)


def orbit_case() -> None:
    wl = OrbitEnumerate(SEED)
    i = wl.ops.index(("enumerate", 3, 2, ()))
    genuine = outcome(wl, i)
    planted = copy.deepcopy(genuine)
    planted["answer"].pop(len(planted["answer"]) // 2)
    expect("torsion-class list missing one class", checks.check_orbit_enumerate, wl, i, genuine, planted)


def cli_case(workdir: str) -> None:
    wl = CliRequests(SEED)
    wl.prepare(workdir)
    i = first(wl, lambda op: op[:2] == ("good", "hom"))
    genuine = outcome(wl, i)
    planted = copy.deepcopy(genuine)
    dim = json.loads(planted["answer"]["stdout"])["dim"]
    planted["answer"]["stdout"] = json.dumps({"dim": dim + 1}) + "\n"
    expect("CLI payload with a wrong dimension", checks.check_cli_requests, wl, i, genuine, planted)

    i = wl.ops.index(("bad", "weight_one"))
    genuine = outcome(wl, i)
    planted = {"answer": {"exit": 0, "stdout": '{"dim": 1}\n'}}
    expect("CLI bad input that exits 0", checks.check_cli_requests, wl, i, genuine, planted)


def main() -> int:
    finite_closure_case()
    torsion_cases()
    orbit_case()
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as workdir:
        cli_case(workdir)
    if failures:
        print(f"{len(failures)} check(s) failed the self-test: {failures}")
        return 1
    print("every check rejected its planted wrong answer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
