"""sftlab benchmark: seeded workloads of certified decisions.

Run from the root of a checkout (it needs ``src/sftlab``):

    python3 perfbench/run.py --workload cohom-transfer --seed 1 --seconds 45 --trace 0

One caller in one process drives the library as a closed loop: it starts a
task (one certified decision) only after the previous one returned.  A pass
runs the workload's whole seeded task list once.  A run makes a fixed number
of passes, the number that fills ``--seconds`` at the reference pass times
below, so that parent and child commits measure the same work whatever
their speed.  The first pass re-checks every certificate (outside the timed
part) and its output digest is compared with the one stored for the workload
and seed; later passes must reproduce the first pass's digests.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one checked
pass, one untraced pass and one traced pass of the same task list and prints
the per-layer metrics of the traced pass; its counts depend only on the
seed.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

CLOCK = time.perf_counter
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
SETUP_RUNS = 5
IMPORT_RUNS = 5
WORKLOADS = ("cohom-transfer", "orbit-verify", "verdicts", "cli-cold")
# seconds one pass takes at the seed commit on a 2-core x86 host with Python
# 3.11, in its slower stretches (passes ran 4.5-11 s on cohom-transfer and
# 8-14 s on cli-cold there)
REFERENCE_PASS_S = {"cohom-transfer": 9.0, "orbit-verify": 10.5,
                    "verdicts": 7.0, "cli-cold": 11.0}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_path() -> None:
    if not os.path.isfile(os.path.join(SRC, "sftlab", "__init__.py")):
        _fail(f"no sftlab sources under {SRC}; run from the root of a checkout")
    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, BENCH]


def build_tasks(workload: str, seed: int, prefix=None):
    """The seeded task list; imports sftlab, so it is part of set-up."""
    if workload == "cli-cold":
        import cli_cold
        return cli_cold.cli_cold(seed, pathlib.Path(ROOT), prefix)
    import workloads
    return getattr(workloads, workload.replace("-", "_"))(seed)


# ------------------------------------------------------------------ loop

def digest_of(canon) -> str:
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]


class Outcome:
    """What the loop saw: per-task times, first-pass digests, counts."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.digests: list[str] = []
        self.answers: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.nonanswers = 0
        self.budget_bound = 0
        self.failures: list[str] = []
        self.passes = 0
        self.pass_busy: list[float] = []
        self.peak_child_kib = 0

    def fail(self, index: int, kind: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"task {index} ({kind}): {why}")


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / REFERENCE_PASS_S[workload]))


def run_pass(tasks, out: Outcome, stored=None, check=True, child_kib=None,
             tracer=None) -> None:
    """Closed loop over one pass of the task list.  Only the library calls
    (task.run) are timed; checks and digests happen between tasks.  The
    first pass into out checks certificates and records digests; later
    passes must reproduce them.  child_kib reads a child process's peak
    memory off a task result; a tracer gets the task's index as the task id
    of its spans."""
    import workloads
    from sftlab.errors import InsufficientLookahead

    first_pass = not out.digests
    busy = 0.0
    for i, task in enumerate(tasks):
        out.attempted += 1
        if tracer is not None:
            tracer.task = i
        t0 = CLOCK()
        try:
            result = task.run()
            raised = None
        except InsufficientLookahead:
            result, raised = None, "insufficient-lookahead"
        except Exception as exc:  # a raising task is a failed task
            result, raised = None, f"{type(exc).__name__}: {exc}"
        dt = CLOCK() - t0
        if tracer is not None:
            tracer.task = -1
        out.times.append(dt)
        busy += dt
        if raised and raised != "insufficient-lookahead":
            out.fail(i, task.kind, raised)
            if first_pass:
                out.digests.append("raised")
                out.answers.append("raised")
            continue
        canon = (raised,) if raised else task.canon(result)
        if child_kib is not None:
            out.peak_child_kib = max(out.peak_child_kib, child_kib(result))
        if canon[0] in workloads.NONANSWERS:
            out.nonanswers += 1
        if workloads.is_budget_bound(canon):
            out.budget_bound += 1
        digest = digest_of(canon)
        if first_pass:
            out.digests.append(digest)
            out.answers.append(str(canon[0]))
            why = task.check(result) if check and not raised else None
            if why is None and stored and stored[i] != digest:
                why = "output digest differs from the stored digest"
            if why:
                out.fail(i, task.kind, why)
        elif digest != out.digests[i]:
            out.fail(i, task.kind, "output differs from the first pass")
    out.passes += 1
    out.pass_busy.append(busy)


def stored_digests(workload: str, seed: int):
    path = os.path.join(BENCH, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="ascii") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def pass_digest(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


# --------------------------------------------------------------- set-up

def time_ready(argv, env) -> float:
    """Wall time from spawning a process until it prints its first line."""
    t0 = CLOCK()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    t1 = CLOCK()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or not line:
        _fail(f"set-up probe {argv[1:]} failed")
    return t1 - t0


def _env():
    import cli_cold
    return cli_cold.child_env(pathlib.Path(SRC))


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up as a fresh process pays it: interpreter start, import sftlab,
    input generation; measured in one fresh process."""
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    return time_ready(argv, _env())


def import_seconds() -> float:
    """Median fresh-interpreter ``import sftlab.cli`` minus median bare start."""
    env = _env()
    bare = [time_ready([sys.executable, "-c", "print()"], env)
            for _ in range(IMPORT_RUNS)]
    full = [time_ready([sys.executable, "-c", "import sftlab.cli; print()"], env)
            for _ in range(IMPORT_RUNS)]
    return statistics.median(full) - statistics.median(bare)


# ---------------------------------------------------------------- report

def tail(times):
    """Task time at the highest percentile that leaves >= 10 samples above
    it; returns (seconds, percentile, sample count)."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def input_profile(tasks, out: Outcome) -> list[str]:
    kinds = Counter(t.kind for t in tasks)
    answers = Counter(out.answers)
    n = len(tasks)
    return [f"input.tasks: {n} per pass, {out.passes} pass(es)",
            "input.kinds: " + ", ".join(f"{k} {v}/{n}" for k, v in sorted(kinds.items())),
            "input.answers: " + ", ".join(f"{k} {v}/{n}"
                                          for k, v in sorted(answers.items())),
            f"input.budget_bound_share: {out.budget_bound}/{out.attempted} tasks"]


def trace_profile(summary: dict) -> list[str]:
    import layertrace
    where = "" if summary["processes"] == 1 else \
        f", summed over {summary['processes']} processes with a cache each"
    return [
        f"input.table_keys: {summary['table_keys']} distinct (shift, k) against "
        f"the {layertrace.WORD_CACHE}-entry word cache{where}",
        "input.table_words_by_decade: " + _histogram(summary["table_sizes"]),
        "input.machine_states_by_decade: " + _histogram(summary["machine_states"]),
        "input.pointed_group_shapes: " + _histogram(summary["groups"]),
    ]


def _histogram(counts: dict) -> str:
    total = sum(counts.values())
    if not total:
        return "none"
    return ", ".join(f"{k} {v}/{total}" for k, v in sorted(counts.items()))


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(lines, correct, attempted, failed, metrics, section) -> None:
    """Print the report lines, then the result object with the metrics that
    BENCHMARK.json lists in section (the lines carry the rest)."""
    for line in lines:
        print(line)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [entry["name"] for entry in json.load(fh)[section]]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: metrics[name] for name in names}}))


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-tasks", type=int, default=None,
                    help="use only the first N tasks (for quick tests; "
                         "such runs have no stored digest)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _prepare_path()
    if args.setup_probe:
        build_tasks(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    tasks = build_tasks(args.workload, args.seed)
    stored = None
    if args.max_tasks is not None:
        tasks = tasks[:args.max_tasks]
    else:
        stored = stored_digests(args.workload, args.seed)
        if stored is not None and len(stored) != len(tasks):
            _fail("stored digests do not match the task list")
    head = [f"workload: {args.workload}", f"seed: {args.seed}",
            f"trace: {args.trace}"]
    if args.trace:
        return traced(args, tasks, stored, head)

    out = Outcome()
    cli = args.workload == "cli-cold"
    # one set-up probe after each pass, so that the probes, like the passes,
    # spread over the run
    setups = []
    for _ in range(passes_for(args.workload, args.seconds)):
        run_pass(tasks, out, stored, child_kib=(lambda r: r[3]) if cli else None)
        setups.append(setup_seconds(args.workload, args.seed))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_seconds(args.workload, args.seed))
    times = out.times
    t_tail, pct, n = tail(times)
    if cli:
        rss_mb, rss_of = out.peak_child_kib / 1024, "largest child process"
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rss_of = "this process"
    m = {
        "setup_s": metric(statistics.median(setups), "s"),
        "tasks_per_s": metric(len(times) / sum(times), "1/s"),
        "task_p50_ms": metric(1000 * statistics.median(times), "ms"),
        "task_tail_ms": metric(1000 * t_tail, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    lines = head + [
        f"setup_s: {m['setup_s']['value']:.4f} s (median of {len(setups)} fresh "
        "processes spread over the run: " + ", ".join(f"{s:.4f}" for s in setups) + ")",
        f"tasks_per_s: {m['tasks_per_s']['value']:.4f} 1/s ({len(times)} tasks "
        f"in {sum(times):.3f} s of library time over {out.passes} passes of "
        f"{len(tasks)}; per pass " + ", ".join(f"{b:.3f} s" for b in out.pass_busy)
        + ")",
        f"task_p50_ms: {m['task_p50_ms']['value']:.4f} ms",
        f"task_tail_ms: {m['task_tail_ms']['value']:.4f} ms (p{pct:.2f} of {n} "
        "samples, 10 beyond it)",
        f"peak_rss_mb: {rss_mb:.2f} MB ({rss_of})",
        f"failed_frac: {out.failed / out.attempted:.6f} ({out.failed}/{out.attempted})",
        f"nonanswer_frac: {out.nonanswers / out.attempted:.6f} "
        f"({out.nonanswers}/{out.attempted} decisions)",
    ] + _digest_lines(out, stored, args.max_tasks) + input_profile(tasks, out) + \
        [f"failure: {f}" for f in out.failures]
    emit(lines, out.failed == 0, out.attempted, out.failed, m, "end_to_end")
    return 0


def _digest_lines(out, stored, max_tasks) -> list[str]:
    if stored is not None:
        state = "matches the stored digest" if stored == out.digests else \
            "DIFFERS from the stored digest"
    elif max_tasks is not None:
        state = "partial task list, not compared"
    else:
        state = "no digest stored for this seed"
    return [f"digest: {pass_digest(out.digests)} ({state})"]


def traced(args, tasks, stored, head) -> int:
    import layertrace
    out = Outcome()
    run_pass(tasks, out, stored)  # checked, warms caches
    plain = Outcome()
    plain.digests = list(out.digests)
    t0 = CLOCK()
    run_pass(tasks, plain, check=False)
    untraced_wall = CLOCK() - t0
    traced_out = Outcome()
    traced_out.digests = list(out.digests)
    if args.workload == "cli-cold":
        summary, traced_wall = _traced_cli(args, traced_out)
    else:
        tracer = layertrace.Tracer()
        tracer.install()
        t0 = CLOCK()
        try:
            run_pass(tasks, traced_out, check=False, tracer=tracer)
        finally:
            traced_wall = CLOCK() - t0
            tracer.uninstall()
        summary = tracer.summary()
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        # one file per workload, replaced by each traced run: orbit-verify
        # keeps about 6 million spans, 300 MB
        tracer.dump(os.path.join(BENCH, "out", f"spans-{args.workload}.bin"),
                    seed=args.seed)
    import_s = import_seconds()
    failed = out.failed + plain.failed + traced_out.failed
    attempted = out.attempted + plain.attempted + traced_out.attempted
    m = {}
    for layer in layertrace.LAYERS:
        m[f"{layer}.self_s"] = metric(summary["layer_self_s"][layer], "s")
        m[f"{layer}.calls"] = metric(summary["layer_calls"][layer], "count")
    counts = summary["counts"]
    for name in PER_LAYER_COUNTS:
        m[name] = metric(counts.get(name, 0), "count")
    m["cli.import_s"] = metric(import_s, "s")
    m["trace.overhead_frac"] = metric(traced_wall / untraced_wall - 1, "frac")
    apply_calls = counts.get("transducers.apply_calls", 0)
    points = counts.get("transducers.points_checked", 0)
    total_self = sum(summary["layer_self_s"].values())
    lines = head + [f"{k}: {v['value']} {v['unit']}" for k, v in m.items()] + [
        "transducers.apply_per_point: " + (f"{apply_calls / points:.4f} ({apply_calls} "
                                           f"apply calls / {points} points checked)"
                                           if points else "n/a (0 points checked)"),
        "trace.layer_share: " + ", ".join(
            f"{k} {v / total_self:.1%}" for k, v in sorted(
                summary["layer_self_s"].items(), key=lambda kv: -kv[1]) if v)
        if total_self else "trace.layer_share: none",
        f"trace.walls: traced {traced_wall:.3f} s, untraced {untraced_wall:.3f} s",
        f"trace.spans: {summary['spans']} (all kept and written out)",
        "trace.setup_self_s: " + (", ".join(
            f"{k} {v:.4f}" for k, v in summary["setup_self_s"].items() if v) or "none"),
        "trace.top_self_s: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(summary["top_self_s"].items(),
                                               key=lambda kv: -kv[1])[:12]),
        f"digest: {pass_digest(traced_out.digests)} (traced pass; untraced "
        f"{pass_digest(out.digests)})",
    ] + input_profile(tasks, out) + trace_profile(summary) + \
        [f"failure: {f}" for f in out.failures + plain.failures + traced_out.failures]
    emit(lines, failed == 0, attempted, failed, m, "per_layer")
    return 0


PER_LAYER_COUNTS = (
    "shifts.count_words_calls", "shifts.max_table_words", "shifts.points_built",
    "cohomology.decisions", "cohomology.graph_edges",
    "transducers.apply_calls", "transducers.points_checked",
    "transducers.machine_states", "moves.transfer_calls", "moves.sse_attempts",
    "moves.sse_nodes", "linalg.smith_calls", "linalg.pointed_iso_calls",
    "linalg.undecided", "classify.verdicts")


def _traced_cli(args, out: Outcome):
    """cli-cold under tracing: every command runs through layertrace.py as a shim
    and writes its own summary, which is merged here."""
    import layertrace
    summaries = os.path.join(BENCH, "out", f"cli-trace-{args.seed}")
    os.makedirs(summaries, exist_ok=True)
    counter = iter(range(10**9))
    paths: list[str] = []

    def prefix(where):
        path = os.path.join(summaries, f"{next(counter)}.json")
        paths.append(path)
        return [sys.executable, os.path.join(BENCH, "layertrace.py"), path]

    tasks = build_tasks(args.workload, args.seed, prefix)
    if args.max_tasks is not None:
        tasks = tasks[:args.max_tasks]
    t0 = CLOCK()
    run_pass(tasks, out, check=False)
    wall = CLOCK() - t0
    total: dict = {}
    for path in paths:
        with open(path, encoding="ascii") as fh:
            total = layertrace.merge(total, json.load(fh))
    return total, wall


if __name__ == "__main__":
    sys.exit(main())
