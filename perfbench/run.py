"""The mnrules benchmark: seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--out FILE]

Run from a checkout of the repository; the package is imported from
``src/``.  Load is a closed loop with a single client: one operation at a
time, the next one only after the previous one has returned, all from this
process.  A library operation is one public function call made in this
process; a CLI operation is one ``python -m mnrules.cli`` child, and at most
one child runs at a time.  No threads are started.

``--trace 0`` measures for ``--seconds`` seconds (at least MIN_OPS
operations, in whole passes over the workload's pool) and reports the end-to-end metrics named in
BENCHMARK.json, with every time at reference speed (see ``ReferenceClock``).  ``--trace 1`` runs each operation of a fixed, seeded list
twice, untraced and then with the wrappers of ``tracing.py`` installed, and
reports the per-layer metrics.  Every output is checked against the digest recorded
in ``expected/``, outside the timed region; a run with any failure exits 1.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array

import workloads as wl

BENCHMARK = wl.ROOT / "BENCHMARK.json"
MIN_OPS = 100  # so that p90 leaves at least ten samples beyond it
DEADLINE_S = 120  # no new operation starts after this, whatever MIN_OPS says
RUN_LIMIT_S = 170  # the alarm that ends a run that is stuck
SETUP_REPEATS = 11
# The times of the reference work that define reference speed: for
# operations in this process, reference_task(); for child processes, a fresh
# interpreter running ``pass``.  Both are about their median on the 2-vCPU
# VM the benchmark was written on.
REF_S = 0.0015
CHILD_REF_S = 0.055
SEGMENT_S = 0.02  # operation time between two runs of the reference work
TRACE_ROUNDS = {"schubert_deep": 2, "grass_box": 100, "cli_session": 2}

clock = time.perf_counter


def execute(workload: str, case: dict, traced: bool = False):
    """Run one operation.  Returns (seconds, output is correct, stderr)."""
    if workload == wl.CLI:
        t0 = clock()
        proc = wl.cli_call(case["argv"], traced)
        dt = clock() - t0
        return dt, wl.cli_ok(case, proc), proc.stderr
    t0 = clock()
    try:
        result = wl.library_call(case["op"], case["args"])
    except Exception as exc:  # a failed operation is counted, not fatal
        dt = clock() - t0
        print(f"failed: {case['op']}{tuple(case['args'])}: {exc!r}", file=sys.stderr)
        return dt, False, b""
    dt = clock() - t0
    return dt, wl.library_ok(case, result), b""


def reference_task() -> int:
    """Fixed work that stands in for the machine's speed: a breadth-first
    search over permutations of 0..6 by adjacent transpositions, stopped
    after 600 states.  It does the tuple, set and dict work of the library's
    own loops and calls nothing in mnrules, so no change to the program
    changes it."""
    start = tuple(range(7))
    depth = {start: 0}
    frontier = [start]
    while len(depth) < 600:
        nxt = []
        for w in frontier:
            for i in range(6):
                u = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if u not in depth:
                    depth[u] = depth[w] + 1
                    nxt.append(u)
        frontier = nxt
    return len(depth)


def reference_seconds(child: bool) -> float:
    """Time of one run of the reference work, in a child or in this process."""
    t0 = clock()
    if child:
        subprocess.run([sys.executable, "-c", "pass"], env=wl.CHILD_ENV, cwd=wl.ROOT, check=True)
    else:
        reference_task()
    return clock() - t0


class Histogram:
    """Times counted in log-spaced bins, each 0.1% wider than the one
    before, from 1 us to 1000 s.  Its memory is fixed, so the benchmark's own
    memory does not grow with the number of operations a run completes and
    peak_rss_mb does not count it against a faster program."""

    LOW = 1e-6
    STEP = math.log(1.001)
    BINS = math.ceil(math.log(1e9) / STEP)

    def __init__(self):
        self.counts = array("q", bytes(8 * self.BINS))
        self.sums = array("d", bytes(8 * self.BINS))
        self.n, self.total = 0, 0.0

    def add(self, dt: float) -> None:
        i = min(int(math.log(max(dt, self.LOW) / self.LOW) / self.STEP), self.BINS - 1)
        self.counts[i] += 1
        self.sums[i] += dt
        self.n += 1
        self.total += dt

    def at_rank(self, rank: int) -> float:
        """The time of 1-based ``rank``, as the mean of the times in its bin."""
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.sums[i] / count
        raise ValueError(f"rank {rank} of {self.n}")

    def median(self) -> float:
        """The middle time, or the mean of the two middle times, as
        ``statistics.median``; for a pool run in whole passes this does not
        snap to one side of the gap between two cases' costs."""
        return (self.at_rank((self.n + 1) // 2) + self.at_rank(self.n // 2 + 1)) / 2

    def timing(self) -> dict:
        return {
            "ops_per_s": self.n / self.total,
            "latency_ms_p50": self.median() * 1000,
            "latency_ms_p90": self.at_rank(math.ceil(0.9 * self.n)) * 1000,
        }


class ReferenceClock:
    """Scales wall times to reference speed.

    The host's speed drifts by up to 1.6x within seconds (see README.md).
    The reference work runs before and after every segment of at least
    SEGMENT_S of timed work, and each time in the segment is scaled by the
    nominal reference time over the mean of the two reference times around
    it.  A child process is scaled by a child reference, which tracks
    process start-up far better than work in this process does.
    """

    def __init__(self, child: bool):
        self.child = child
        self.nominal = CHILD_REF_S if child else REF_S
        reference_seconds(child)  # warm-up
        self.before = reference_seconds(child)
        self.pending, self.pending_s = [], 0.0
        self.scaled = Histogram()

    def add(self, dt: float) -> None:
        self.pending.append(dt)
        self.pending_s += dt
        if self.pending_s >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        if not self.pending:
            return
        after = reference_seconds(self.child)
        scale = self.nominal / ((self.before + after) / 2)
        for dt in self.pending:
            self.scaled.add(dt * scale)
        self.before, self.pending, self.pending_s = after, [], 0.0


def spawn_seconds(code: str) -> tuple[float, float]:
    """Median wall time, and median time at reference speed, of a fresh
    interpreter running ``code``."""
    ref, wall = ReferenceClock(child=True), []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], env=wl.CHILD_ENV, cwd=wl.ROOT, check=True)
        wall.append(clock() - t0)
        ref.add(wall[-1])
    ref.close()
    return statistics.median(wall), ref.scaled.median()


def measure(workload: str, seed: int, seconds: float, min_ops: int = MIN_OPS) -> dict:
    """Untraced closed-loop run: latencies, failures, peak RSS, set-up time.

    Every time is reported at reference speed (see ReferenceClock); the
    plain wall times are returned too, under "wall".
    """
    cli = workload == wl.CLI
    _, setup_s = spawn_seconds("import mnrules.cli" if cli else "import mnrules")
    pool = wl.load_pool(workload)
    if not cli:
        import mnrules  # noqa: F401  (imported before timing starts)
    # A pass deals every case of the largest cell once, so each pass runs
    # the same mix of cells; a run ends only at the end of a pass.
    pass_rounds = max(len(cases) for cases in pool.values())
    latencies, failed = Histogram(), 0
    ref = ReferenceClock(child=cli)
    t0 = clock()
    for n_rounds, batch in enumerate(wl.rounds(pool, seed), start=1):
        for case in batch:
            if clock() - t0 >= DEADLINE_S:
                break
            dt, ok, _ = execute(workload, case)
            latencies.add(dt)
            ref.add(dt)
            failed += not ok
        elapsed = clock() - t0
        if elapsed >= DEADLINE_S:
            break
        if n_rounds % pass_rounds == 0 and elapsed >= seconds and latencies.n >= min_ops:
            break
    ref.close()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    return {
        "attempted": latencies.n,
        "failed": failed,
        "metrics": {**ref.scaled.timing(), "peak_rss_mb": usage.ru_maxrss / 1024, "setup_s": setup_s},
        "wall": latencies.timing(),
    }


def trace(workload: str, seed: int, limit: int | None = None) -> dict:
    """Run a fixed seeded operation list untraced and traced; per-layer metrics.

    Each operation runs untraced, then traced, before the next one starts, so
    that drift in the machine's speed lands on both sides of
    trace.overhead_frac alike.
    """
    import tracing

    cli = workload == wl.CLI
    ops = wl.cases(workload, seed, TRACE_ROUNDS[workload])[:limit]
    if not cli:
        import mnrules  # noqa: F401
    tracer = tracing.Tracer()
    mark = tracing.TRACE_MARK.encode()
    total = {"layers": {}, "counts": {}, "cache": [0, 0, 0]}
    failed, untraced, traced = 0, 0.0, 0.0
    for case in ops:
        dt, ok, _ = execute(workload, case)
        untraced += dt
        failed += not ok
        if cli:
            dt, ok, stderr = execute(workload, case, traced=True)
            lines = [line for line in stderr.splitlines() if line.startswith(mark)]
            if lines:
                tracing.merge(total, json.loads(lines[-1][len(mark):]))
            ok = ok and bool(lines)
        else:
            hits, misses, _ = tracing.schubert_cache_info()
            tracer.install()
            try:
                dt, ok, _ = execute(workload, case)
            finally:
                tracer.uninstall()
            end_hits, end_misses, size = tracing.schubert_cache_info()
            tracing.merge(total, {"layers": {}, "counts": {}, "cache": [end_hits - hits, end_misses - misses, size]})
        traced += dt
        failed += not ok
    if not cli:
        tracing.merge(total, {"layers": tracer.layers(), "counts": tracer.counts, "cache": [0, 0, 0]})
    metrics = tracing.per_layer(total)
    interp = spawn_seconds("pass")[0] if cli else 0.0
    metrics["cli.interp_ms"] = interp * 1000
    metrics["cli.import_ms"] = (spawn_seconds("import mnrules.cli")[0] - interp) * 1000 if cli else 0.0
    metrics["trace.overhead_frac"] = traced / untraced - 1
    metrics["trace.wall_ms"] = traced * 1000
    return {"attempted": 2 * len(ops), "failed": failed, "metrics": metrics}


def fingerprint(seed: int, ops: dict[str, int], nproc: int | None) -> dict:
    commit = None
    if (wl.ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    sources = sorted((wl.SRC / "mnrules").glob("*.py"))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "git_commit": commit,
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "seed": seed,
        "ops": ops,
    }


class RunTimeout(BaseException):
    """Raised by the run's alarm; not an Exception, so no operation's
    failure handler can swallow it."""


def _alarm(signum, frame):
    raise RunTimeout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mnrules benchmark.")
    parser.add_argument("--workload", required=True, choices=wl.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, fingerprint included, to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (wl.SRC / "mnrules" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: run from a checkout that holds src/mnrules and {BENCHMARK.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    nproc = os.cpu_count()
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child it starts, so that
        # reference_task() runs where the operations run.
        cpus = os.sched_getaffinity(0)
        nproc = len(cpus)
        os.sched_setaffinity(0, {min(cpus)})
    with open(BENCHMARK) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]

    names = wl.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    # subprocess.run kills and reaps its child when the alarm interrupts it.
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_LIMIT_S * len(names))
    try:
        for name in names:
            if args.trace:
                results[name] = trace(name, args.seed)
            else:
                results[name] = measure(name, args.seed, args.seconds)
    except RunTimeout:
        print(f"error: the run did not finish within {RUN_LIMIT_S * len(names)} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if args.workload == "all" else ""
        for m in spec:
            value = res["metrics"][m["name"]]
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
            samples = f" (n={res['attempted']})" if m["name"].startswith("latency") else ""
            print(f"{name} {m['name']} {value:.6g} {m['unit']}{samples}")
        for metric, value in res.get("wall", {}).items():
            print(f"{name} wall {metric} {value:.6g} (not adjusted to reference speed)")
        print(f"{name} fail_frac {res['failed'] / res['attempted']:.6g} ({res['failed']}/{res['attempted']})")
    info = fingerprint(args.seed, {name: res["attempted"] for name, res in results.items()}, nproc)
    print("fingerprint " + json.dumps(info))
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": info, "trace": bool(args.trace), "results": results}, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
