#!/usr/bin/env python3
"""Benchmark of sphtor: closures, torsion verdicts, orbit enumeration, the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload finite_closures --seed 1 --seconds 15 --trace 0

Workloads: finite_closures, torsion_verdicts, orbit_enumerate, cli_requests
(see bench/README.md).  The command is an orchestrator.  It starts each
workload in a fresh interpreter (one process, one thread), first
``SETUP_PROBES`` times for set-up only, then once more to measure.  It then
checks every answer the measuring process recorded and prints each metric,
with the JSON result as the last line of stdout.  With ``--trace 1`` the
measuring process runs the same rounds untraced and then traced, and the
result holds the per-layer metrics and the tracing overhead.

Timings are reported at a reference host speed.  Between operations, and
untimed, the measuring process runs a fixed slice of plain Python work, and
every process runs it twenty times right after its set-up.  Every operation
time is multiplied by ``host_scale`` of the measuring process's slices, and
the median set-up time by ``host_scale`` of the set-up slices of all the
processes.  The slice runs no ``sphtor`` code, so a change to the library
moves the metrics in full, while a slow spell of the shared host moves slice
and operations alike and cancels out.  The raw times are printed too, above
the JSON line.

Everything the run writes goes under bench/.work/ and is removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_PROBES = 6
DEADLINE_S = 170.0
# Host speed: see reference_slice() and host_scale().  A slice runs after
# every REFERENCE_EVERY_S of operation time, and SETUP_REFERENCE_SLICES times
# in every process right after its set-up.  REFERENCE_SLICE_S is the slice's
# usual duration inside timed runs on the machine of the figures in README.md.
REFERENCE_EVERY_S = 0.1
SETUP_REFERENCE_SLICES = 20
REFERENCE_SLICE_S = 0.0014


def import_library() -> None:
    """Import sphtor from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "sphtor", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no sphtor sources at {init}")
    sys.path.insert(0, SRC)
    import sphtor

    if os.path.abspath(sphtor.__file__) != init:
        raise SystemExit(f"error: imported sphtor from {sphtor.__file__}, not {init}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("probe", "measure"), default=None, help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# the workload process


class Recorder:
    """Digests every answer; stores the first answer of each operation."""

    def __init__(self, wl, path: str):
        self.wl = wl
        self.out = open(path, "w", encoding="utf-8")
        self.digests = {}
        self.mismatched = []
        self.latencies = []

    def record(self, i: int, dt: float, answer, raised) -> None:
        if raised is not None:
            outcome = {"raised": raised}
        else:
            outcome = {"answer": self.wl.encode(self.wl.ops[i], answer)}
        text = json.dumps(outcome, sort_keys=True)
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        if i not in self.digests:
            self.digests[i] = digest
            self.out.write(f'{{"op": {i}, "outcome": {text}}}\n')
        elif self.digests[i] != digest:
            self.mismatched.append(i)
        self.latencies.append((i, dt))

    def flush_latencies(self) -> None:
        self.out.write(json.dumps({"latencies": self.latencies}) + "\n")
        self.latencies = []

    def close(self) -> None:
        self.out.close()


def run_op(wl, op):
    try:
        return wl.run(op), None
    except Exception as exc:  # recorded as a failed operation and checked
        return None, type(exc).__name__


class _Option:
    """A small record with instance attributes, for ``reference_slice``."""

    def __init__(self, name: str, default: int, kind: str):
        self.name = name
        self.dest = name.lstrip("-")
        self.default = default
        self.kind = kind
        self.help = f"the {name} option ({kind})"


def reference_slice() -> float:
    """Seconds that a fixed slice of plain Python work takes right now.

    The slice runs no ``sphtor`` code.  It makes small objects, reads their
    attributes, formats, splits and parses strings and fills dicts: general
    interpreter work like the library's.  Of the slices tried (this one,
    one of named tuples and sets, and a pure arithmetic loop), its speed
    followed that of the operations most closely over the four workloads
    taken together.  The collector is off while it runs, so the program's
    heap does not change its cost.
    """
    clock = time.perf_counter
    gc.disable()
    t0 = clock()
    acc = 0
    for k in range(30):
        options = [_Option(f"--opt{i}", i * k, "int" if i % 2 else "str") for i in range(20)]
        table = {o.name: o for o in options}
        for word in " ".join(f"{o.name}={o.default}" for o in options).split():
            name, _, value = word.partition("=")
            acc += int(value) if table[name].kind == "int" else len(value)
        acc += len(repr({o.dest: o.default for o in options}))
    dt = clock() - t0
    gc.enable()
    return dt


def host_scale(reference: list) -> float:
    """Factor that turns times measured next to ``reference`` slices into
    times at the reference speed: ``REFERENCE_SLICE_S`` over the mean of the
    middle 80 % of the slices.  The host's speed swings by up to a fifth
    within seconds and between runs, and every process on it swings
    together; the slice measures that swing and the factor takes it out.
    The trimmed mean, not the median, because the slice times fall in two
    clusters and the median jumps between them."""
    ordered = sorted(reference)
    cut = len(ordered) // 10
    return REFERENCE_SLICE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def timed_rounds(wl, recorder: Recorder, count, seconds: float, reference: list) -> tuple:
    """Run whole rounds from the first one until ``count`` rounds, or until
    ``seconds`` of operation time; return (rounds run, operation seconds).
    A reference slice runs, untimed, after every ``REFERENCE_EVERY_S`` of
    operation time; its durations are appended to ``reference``."""
    clock = time.perf_counter
    timed = 0.0
    done = 0
    due = 0.0
    while (done < count) if count is not None else (timed < seconds):
        for i in wl.rounds[done % len(wl.rounds)]:
            t0 = clock()
            answer, raised = run_op(wl, wl.ops[i])
            dt = clock() - t0
            timed += dt
            recorder.record(i, dt, answer, raised)
            answer = None  # free it before the next operation allocates its own
            if timed >= due:
                reference.append(reference_slice())
                due = timed + REFERENCE_EVERY_S
        recorder.flush_latencies()
        done += 1
    return done, timed


def child(args) -> None:
    import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare(args.workdir)
    for op in wl.warmup:
        run_op(wl, op)
    setup_s = time.monotonic() - args.t0
    setup = {
        "setup_s": setup_s,
        "setup_reference_s": [reference_slice() for _ in range(SETUP_REFERENCE_SLICES)],
    }
    if args.role == "probe":
        print(json.dumps(setup))
        return
    # the input pools and the warm-up's leftovers are the benchmark's, not the
    # program's: keep them out of the collector's scans during the timed phase
    gc.collect()
    gc.freeze()
    recorder = Recorder(wl, os.path.join(args.workdir, "answers.jsonl"))
    record = dict(setup, reference_s=[])
    try:
        if args.trace:
            from tracing import Tracer

            rounds, plain_s = timed_rounds(wl, recorder, None, args.seconds / 2, record["reference_s"])
            traced_reference = []
            tracer = Tracer()
            tracer.install()
            try:
                _, traced_s = timed_rounds(wl, recorder, rounds, 0.0, traced_reference)
            finally:
                tracer.uninstall()
            plain = plain_s * host_scale(record["reference_s"])
            traced = traced_s * host_scale(traced_reference)
            record["trace"] = tracer.metrics(100.0 * (traced / plain - 1.0))
            record["timed_s"] = plain_s
        else:
            _, record["timed_s"] = timed_rounds(wl, recorder, None, args.seconds, record["reference_s"])
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["mismatched"] = recorder.mismatched
    finally:
        recorder.close()
    print(json.dumps(record))


# ---------------------------------------------------------------------------
# the orchestrating process


def spawn(args, role: str, workdir: str, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--role", role, "--workdir", workdir, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: the {role} process of {args.workload} ran out of time")
    if proc.returncode != 0:
        raise SystemExit(f"error: the {role} process failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_answers(path: str) -> tuple:
    outcomes, latencies = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if "latencies" in doc:
                latencies.extend(doc["latencies"])
            else:
                outcomes[doc["op"]] = doc["outcome"]
    return outcomes, latencies


def evaluate(args, record: dict, workdir: str, setups: list) -> dict:
    from checks import CHECKS, FAILED, OK
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    outcomes, latencies = read_answers(os.path.join(workdir, "answers.jsonl"))
    status = CHECKS[args.workload](wl, outcomes)
    wrong = {i: s for i, s in status.items() if s not in (OK, FAILED)}
    unchecked = set(outcomes) - set(status)
    for i, problem in list(wrong.items())[:10]:
        print(f"WRONG op {i} {wl.ops[i]!r:.200}: {problem}", file=sys.stderr)
    for i in record["mismatched"][:10]:
        print(f"WRONG op {i}: answer changed between rounds", file=sys.stderr)
    if unchecked:
        print(f"WRONG: {len(unchecked)} answers were not checked", file=sys.stderr)
    failed_ids = {i for i, s in status.items() if s == FAILED}
    attempted = len(latencies)
    failed = sum(1 for i, _ in latencies if i in failed_ids)
    result = {
        "correct": not wrong and not record["mismatched"] and not unchecked,
        "attempted": attempted,
        "failed": failed,
    }
    if args.trace:
        from tracing import metric_names

        units = dict(metric_names())
        metrics = {name: {"value": value, "unit": units[name]} for name, value in record["trace"].items()}
    else:
        scale = host_scale(record["reference_s"])
        done = [dt * scale for i, dt in latencies if i not in failed_ids]
        cuts = statistics.quantiles(done, n=100)
        metrics = {
            "ops_per_s": {"value": len(done) / (record["timed_s"] * scale), "unit": "1/s"},
            "op_p50_ms": {"value": cuts[49] * 1e3, "unit": "ms"},
            "op_p99_ms": {"value": cuts[98] * 1e3, "unit": "ms"},
            "setup_s": {
                "value": statistics.median(x["setup_s"] for x in setups)
                * host_scale([r for x in setups for r in x["setup_reference_s"]]),
                "unit": "s",
            },
            "peak_rss_mb": {"value": record["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    result["metrics"] = metrics
    return result


def main(argv=None) -> None:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.role:
        child(args)
        return
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, "probe", workdir, deadline))
        record = spawn(args, "measure", workdir, deadline)
        setups.append(record)
        result = evaluate(args, record, workdir, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(f"workload {args.workload}  seed {args.seed}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    raw_setups = ", ".join(f"{x['setup_s']:.3g}" for x in setups)
    setup_scale = host_scale([r for x in setups for r in x["setup_reference_s"]])
    print(f"  host scale {host_scale(record['reference_s']):.4g}  raw operation time "
          f"{record['timed_s']:.4g} s  set-up host scale {setup_scale:.4g}  raw set-ups {raw_setups} s")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
