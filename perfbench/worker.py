"""One benchmark process: set up, signal readiness, run the timed passes, check.

Started by run.py, never by hand.  It prints JSON events on stdout, one per
line: {"event": "ready", ...} as soon as set-up is done (run.py times the
interval from spawning this process to that line), then, unless it is only
a set-up probe, {"event": "result", ...}.

The in-process workloads import the package here; cli_cold does not, since
every one of its operations is a fresh interpreter that imports it.
"""

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from tracing import merge_states, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
CLI_TIMEOUT_S = 60


def emit(**event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def import_package():
    """Import the package from this checkout's src/, timed and counted."""
    sys.path.insert(0, str(SRC))
    before = set(sys.modules)
    start = time.perf_counter()
    import sphere_twobody

    seconds = time.perf_counter() - start
    if Path(sphere_twobody.__file__).resolve().parent != SRC / "sphere_twobody":
        raise SystemExit(f"imported {sphere_twobody.__file__}, not the checkout's copy")
    new = set(sys.modules) - before
    return {"import_s": seconds, "modules": len(new),
            "scipy_modules": sum(1 for m in new if m == "scipy" or m.startswith("scipy."))}


class Outcome:
    """One attempted operation: its input, output or exception, and duration."""

    __slots__ = ("op", "output", "error", "seconds")

    def __init__(self, op, output, error, seconds):
        self.op, self.output, self.error, self.seconds = op, output, error, seconds


def timed_passes(workload, seed, first_pass, run_op, seconds, passes, pace, tracer=None):
    """Whole passes until `seconds` have elapsed, or exactly `passes` passes.

    A pass once begun is finished, so every run measures complete seeded
    sets and throughput does not depend on where the clock ran out.  Pass 0
    was generated during set-up; later ones take milliseconds to generate.
    The host's speed is sampled with `pace` (speed.py) between operations,
    outside their timed intervals, and each duration is scaled by it.
    """
    outcomes, intervals = [], []
    start = time.perf_counter()
    index = 0
    while True:
        ops = first_pass if index == 0 else workloads.generate(workload, seed, index)
        for op in ops:
            pace.maybe_sample()
            if tracer is not None:
                tracer.op_id = len(outcomes)
            t0 = time.perf_counter()
            try:
                output, error = run_op(op), None
            except Exception as exc:  # every failure is an outcome to count
                output, error = None, exc
            t1 = time.perf_counter()
            outcomes.append(Outcome(op, output, error, t1 - t0))
            intervals.append((t0, t1))
        index += 1
        if passes is not None and index >= passes:
            break
        if passes is None and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    pace.sample()
    scaled = [pace.scale(t0, t1) for t0, t1 in intervals]
    return outcomes, scaled, index, wall


def _error_kind(exc):
    from sphere_twobody.errors import ValidationError, VerificationError

    return "raised_typed" if isinstance(exc, (ValidationError, VerificationError)) else "raised_untyped"


def _check_kind(reason):
    return "unverified" if reason.endswith("unverified") else "check_failed"


def check_in_process(outcomes):
    """(op index, failure kind, reason, known defect) for every failed operation."""
    import operations

    failures = []
    for i, oc in enumerate(outcomes):
        if oc.error is not None:
            where = f"{oc.op['kind']} k={oc.op['k']}: " if "k" in oc.op else ""
            failures.append((i, _error_kind(oc.error),
                             f"{where}{type(oc.error).__name__}: {oc.error}",
                             operations.known_defect(oc.op, oc.error)))
            continue
        reason = operations.CHECKS[oc.op["type"]](oc.op, oc.output)
        if reason is not None:
            failures.append((i, _check_kind(reason), reason,
                             isinstance(reason, operations.Defect)))
    return failures


# ---------------------------------------------------------------- cli_cold


def make_cli_runner(traced):
    """One CLI call per operation: a fresh interpreter, stdout and stderr kept."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    calls = itertools.count()

    def run_cli(op):
        if traced:
            trace_file = str(OUT_DIR / f"cli-{next(calls)}.json")
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), trace_file]
        else:
            trace_file = ""
            cmd = [sys.executable, "-m", "sphere_twobody.cli"]
        with subprocess.Popen(cmd + op["argv"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            try:
                out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
        return proc.returncode, out, err, trace_file

    return run_cli


def warm_cli():
    """Byte-compile the package as its first import would, without importing it."""
    import compileall

    compileall.compile_dir(str(SRC / "sphere_twobody"), quiet=1)


def check_cli(outcomes):
    sys.path.insert(0, str(SRC))
    import operations

    first_stdout = {}
    for oc in outcomes:
        key = tuple(oc.op["argv"])
        if key not in first_stdout and oc.error is None:
            first_stdout[key] = oc.output[1]
    failures = []
    for i, oc in enumerate(outcomes):
        if oc.error is not None:
            failures.append((i, "harness_error", f"{type(oc.error).__name__}: {oc.error}",
                             False))
            continue
        rc, out, err, _ = oc.output
        reason = operations.check_cli(oc.op, rc, out, err, first_stdout.get(tuple(oc.op["argv"])))
        if reason is not None:
            # exit 1 is a raw traceback; 2 and 3 are the typed errors
            kind = ("raised_untyped" if rc == 1 else "raised_typed" if rc in (2, 3)
                    else _check_kind(reason))
            failures.append((i, kind, reason, isinstance(reason, operations.Defect)))
    return failures


def cli_trace_state(outcomes):
    """Merge the trace files the traced CLI children wrote."""
    states, imports, spans = [], [], []
    for i, oc in enumerate(outcomes):
        path = oc.output[3] if oc.output else ""
        if not path or not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(path)
        states.append(doc["state"])
        imports.append(doc["import"])
        spans += [span[:5] + [i] for span in doc["spans"]]
    return merge_states(states), imports, spans


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=None)
    ap.add_argument("--probe", action="store_true", help="set up, report, exit")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workload = args.workload
    in_process = workload != "cli_cold"

    # ---- set-up: imports, inputs, warm-up
    info = import_package() if in_process else {}
    first_pass = workloads.generate(workload, args.seed, 0)
    if in_process:
        import operations

        operations.warm_up(workload)
    else:
        warm_cli()
    emit(event="ready", **info)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        if in_process:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

    # ---- timed phase
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    setup_rss_mib = usage.ru_maxrss / 1024.0
    run_op = operations.run if in_process else make_cli_runner(args.trace)
    pace = speed.for_workload(workload)
    outcomes, scaled, passes, wall = timed_passes(workload, args.seed, first_pass, run_op,
                                                  args.seconds, args.passes, pace, tracer)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    peak_rss_mib = usage.ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    # ---- checks, outside the timed phase
    failures = check_in_process(outcomes) if in_process else check_cli(outcomes)

    result = {
        "event": "result",
        "passes": passes,
        "wall_s": wall,
        "durations": [oc.seconds for oc in outcomes],
        "scaled": scaled,
        "peak_rss_mib": peak_rss_mib,
        "setup_rss_mib": setup_rss_mib,
        "failures": failures,
        "failed_by_band": workloads.summarize([outcomes[i].op for i, *_ in failures])["k_bands"],
        "inputs": workloads.summarize([oc.op for oc in outcomes]),
    }
    if args.trace:
        spans_path = OUT_DIR / f"spans-{workload}-{args.seed}.jsonl"
        if in_process:
            result["trace"], spans = tracer.state(), tracer.spans
        else:
            result["trace"], result["cli_imports"], spans = cli_trace_state(outcomes)
        write_spans(spans_path, spans)
        result["spans_path"] = str(spans_path.relative_to(ROOT))
    emit(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
