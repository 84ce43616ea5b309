"""jetsigma benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sessions,commutation,crosscheck} \
        --seed N --seconds S --trace {0,1}

Every workload is a closed loop driven by one client: the next item starts
when the previous one has finished.

* ``sessions``: ``jetsigma all --json`` on each bundled session, one fresh
  interpreter per session, one at a time; the seed shuffles the session
  order of each pass.  The first pass runs every session; later passes run
  the sessions that still fit in ``--seconds``.
* ``commutation``: seeded commutation-identity trials in process.
* ``crosscheck``: seeded RK4 cross-checks of three reductions in process.

The timed work of each workload falls into fixed classes: a session file, a
commutation structure, or one of the four parts of a cross-check.  With
``--trace 0`` the run prints the end-to-end metrics, which summarise each
class by its best time in the run (its 10th percentile once it has ten
samples): a neighbour that slows some samples down then moves the figures
far less than it moves a median, while a slower program slows every sample.
The median and tail of the raw item times are printed as well.  With
``--trace 1`` it runs a fixed amount of work (one pass, or a fixed number of
items) twice, untraced and traced, and prints the per-layer metrics of the
traced runs and the tracing overhead, traced time minus untraced time.  The
human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, environment and spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SESSIONS_DIR = os.path.join(SRC, "jetsigma", "sessions")
OUT = os.path.join(ROOT, ".perfbench_out")
EXPECTED_REPORTS = os.path.join(HERE, "expected_reports.json")
sys.path.insert(0, HERE)

import tracing  # noqa: E402

CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 3
# items a --trace 1 run makes, each once untraced and once traced; even, so
# that each order comes first equally often
TRACED_ITEMS = {"commutation": 4, "crosscheck": 20}


def median(values):
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value): the eleventh largest sample.  With fewer than 21
    samples that would fall below the median, so the median is reported."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return 50.0, median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def class_time(samples):
    """A class's time in one run: its 10th-percentile sample, which is its
    best sample while it has fewer than ten."""
    return sorted(samples)[len(samples) // 10]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never searches upward."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# sessions: the command line, one child process per session
# ---------------------------------------------------------------------------


def run_child(name: str, trace: bool) -> dict:
    """Run one session in a fresh interpreter; wall time is taken here, from
    spawn to exit."""
    span_file = os.path.join(OUT, f"spans-sessions-{name}.npz")
    cmd = [sys.executable, os.path.join(HERE, "session_child.py"),
           os.path.join(SESSIONS_DIR, name + ".session"), "1" if trace else "0", span_file]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"name": name, "wall_s": time.perf_counter() - start, "ok": False, "error": "timeout"}
    wall = time.perf_counter() - start
    info = None
    for line in reversed(proc.stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith("PERFBENCH "):
            info = json.loads(line[len("PERFBENCH "):])
            break
    if info is None:
        return {"name": name, "wall_s": wall, "ok": False,
                "error": proc.stderr.decode("utf-8", "replace")[-2000:]}
    return {"name": name, "wall_s": wall, "stdout": proc.stdout, "status": proc.returncode, **info}


def check_report(child: dict, expected: dict) -> bool:
    if "stdout" not in child:
        return False
    want = expected[child["name"]]
    return (hashlib.sha256(child["stdout"]).hexdigest() == want["sha256"]
            and child["status"] == want["exit_status"])


def run_checked(name: str, trace: bool, expected: dict) -> dict:
    """Run one session and check its report."""
    child = run_child(name, trace)
    child["traced"] = trace
    child["ok"] = child.get("ok", True) and check_report(child, expected)
    if not child["ok"]:
        print(f"check failed: session {name}: {child.get('error', 'report differs')}", file=sys.stderr)
    return child


def sessions(seed: int, seconds: float, trace: bool):
    with open(EXPECTED_REPORTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    names = sorted(expected)
    missing = [n for n in names if not os.path.exists(os.path.join(SESSIONS_DIR, n + ".session"))]
    if missing:
        raise SystemExit(f"session files missing: {missing}")
    rng = random.Random(seed)

    def order():
        o = list(names)
        rng.shuffle(o)
        return o

    if trace:
        # each session runs untraced and traced, alternating which goes
        # first, so that drift in machine speed cancels from the overhead
        children = []
        for k, name in enumerate(order()):
            for traced in (k % 2 == 1, k % 2 == 0):
                children.append(run_checked(name, traced, expected))
        traced = [c for c in children if c["traced"] and "phases" in c]
        agg = tracing.merge([c["layers"] for c in traced])
        process = {
            "cli.import_s": sum(c["phases"]["import_s"] for c in traced),
            "cli.process_overhead_s": sum(c["wall_s"] - sum(c["phases"].values()) for c in traced),
        }
        metrics = tracing.per_layer_metrics(agg, process)
        plain_s = sum(c["wall_s"] for c in children if not c["traced"])
        traced_s = sum(c["wall_s"] for c in children if c["traced"])
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
        notes = [f"{len(names)} sessions: untraced {plain_s:.3f} s, traced {traced_s:.3f} s"]
        return metrics, children, notes

    # the first pass runs every session; each later pass runs, in a new
    # seeded order, the sessions whose best time still fits in --seconds
    children, best = [], {}
    start = time.perf_counter()
    while True:
        ran = False
        for name in order():
            if name in best and time.perf_counter() - start + best[name] > seconds:
                continue
            child = run_checked(name, False, expected)
            children.append(child)
            best[name] = min(best.get(name, math.inf), child["wall_s"])
            ran = True
        if not ran:
            break
    walls = {n: [c["wall_s"] for c in children if c["name"] == n] for n in names}
    setups = {n: [c["phases"]["import_s"] + c["load_s"] for c in children
                  if c["name"] == n and "phases" in c] for n in names}
    setup = sum(class_time(v) for v in setups.values() if v)
    metrics = end_to_end([setup], walls, max(c.get("rss_kb", 0) for c in children))
    notes = [f"{len(children)} runs of {len(names)} sessions in {time.perf_counter() - start:.1f} s",
             *raw_items([c["wall_s"] for c in children])]
    notes += [f"  {n}: best {min(v):.4f} s of {len(v)}" for n, v in walls.items()]
    return metrics, children, notes


def end_to_end(setups, samples: dict, rss_kb):
    """The end-to-end metrics shared by every workload, from the set-up
    times and the timed samples of each class."""
    times = [class_time(v) for v in samples.values()]
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "pass_s": {"value": sum(times), "unit": "s"},
        "item_geomean_s": {"value": math.exp(statistics.fmean(math.log(t) for t in times)), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def raw_items(items) -> list[str]:
    """Throughput, median and tail of the raw item times, for the log only:
    a busy neighbour moves them too much to bound."""
    p, value = tail(items)
    return [f"raw item times, not in BENCHMARK.json: {len(items)} items",
            f"  items_per_s: {len(items) / sum(items):.6g} 1/s",
            f"  item_p50_s: {median(items):.6g} s",
            f"  item_tail_s: {value:.6g} s (p{p:.4g})"]


# ---------------------------------------------------------------------------
# commutation and crosscheck: in process
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "inprocess.py"), workload, str(seed)],
        capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


def timed_item(obj, index):
    """Run one item; returns its duration, whether its check passed and the
    seconds of each of its classes."""
    start = time.perf_counter()
    try:
        ok, times = obj.item(index)
    except Exception:
        # an item that raises has failed; the run goes on and reports it
        traceback.print_exc()
        ok, times = False, {}
    duration = time.perf_counter() - start
    if not ok:
        print(f"check failed: item {index}", file=sys.stderr)
    return duration, ok, times


def in_process(workload: str, seed: int, seconds: float, trace: bool):
    import inprocess

    if trace:
        from sympy.core.cache import clear_cache

        tracer = tracing.Tracer()
        obj, _ = inprocess.set_up(workload, seed, tracer)
        tracer.uninstall()
        # each item runs untraced and traced, alternating which goes first,
        # and each run starts from an empty sympy cache, so that neither
        # order nor cached results count as tracing overhead
        plain, traced, oks = [], [], []
        for index in range(TRACED_ITEMS[workload]):
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                clear_cache()
                if with_trace:
                    tracer.install()
                spans = len(tracer.name_id)
                d, ok, _ = timed_item(obj, index)
                tracer.uninstall()
                if not with_trace and len(tracer.name_id) != spans:
                    # a wrapper outlived uninstall(): the untraced time and
                    # the per-layer counts would both be wrong
                    print(f"check failed: untraced item {index} recorded "
                          f"{len(tracer.name_id) - spans} spans", file=sys.stderr)
                    ok = False
                (traced if with_trace else plain).append(d)
                oks.append(ok)
        tracer.write(os.path.join(OUT, f"spans-{workload}.npz"))
        metrics = tracing.per_layer_metrics(tracer.aggregate(), {})
        metrics["trace.overhead_s"] = {"value": sum(traced) - sum(plain), "unit": "s"}
        notes = [f"{len(plain)} items: untraced {sum(plain):.3f} s, traced {sum(traced):.3f} s"]
        return metrics, oks, notes

    setups = [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    obj, own = inprocess.set_up(workload, seed)
    setups.append(own)
    items, oks, samples = [], [], {}
    start = time.perf_counter()
    index = 0
    while True:
        d, ok, times = timed_item(obj, index)
        items.append(d)
        oks.append(ok)
        for name, t in times.items():
            samples.setdefault(name, []).append(t)
        index += 1
        # pass_s sums over the classes, so every class must have a sample
        if time.perf_counter() - start >= seconds and index >= obj.cycle:
            break
    metrics = end_to_end(setups, samples, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    notes = raw_items(items) + ["setup samples: " + ", ".join(f"{s:.3f}" for s in setups)]
    notes += [f"  {n}: time {class_time(v):.5g} s of {len(v)}" for n, v in sorted(samples.items())]
    return metrics, oks, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sessions", "commutation", "crosscheck"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "jetsigma")):
        print(f"error: no jetsigma sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.workload == "sessions":
        metrics, children, notes = sessions(args.seed, args.seconds, bool(args.trace))
        oks = [c["ok"] for c in children]
    else:
        metrics, oks, notes = in_process(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = len(oks), oks.count(False)

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in notes:
        print(line)
    print(f"fail_ratio: {failed / attempted:.4f} ratio ({failed} of {attempted} items failed)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "notes": notes}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
