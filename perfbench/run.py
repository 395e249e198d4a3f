#!/usr/bin/env python3
"""End-to-end benchmark of the PCGBench-rs evaluation harness.

Run from the repository root:

    python3 perfbench/run.py --workload quick-grid --seed 20240501 --seconds 30 --trace 0

It builds `perfbench/` (a package of its own that depends on the
repository's crates), then measures the workload for `--seconds`
seconds: it starts cold evaluations back to back, each in fresh
processes in a fresh directory, checks every committed record, adds
set-up probes, and prints every metric by name with its unit. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
its per-layer metrics from traced evaluations (plus the tracing overhead
against one untraced evaluation). See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
PINS = HERE / "pins.json"
RUNS = CHECKOUT / ".bench_runs"

# Worker processes per evaluation, and the hard limit on one evaluation.
WORKLOADS = {
    "quick-grid": {"shards": 1, "limit_s": 120},
    "shmem-paper": {"shards": 1, "limit_s": 60},
    "sharded-variants": {"shards": 2, "limit_s": 60},
    "mpi-variants": {"shards": 1, "limit_s": 60},
}
# A whole run must end within this many seconds after the build.
RUN_LIMIT_S = 170
# Set-up probes per run, on top of one sample per evaluation.
PROBES = 6

# Children get no PCG_* knobs from the caller's environment: every run
# measures the same program configuration.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PCG_")}


# Children not yet waited for, so a signal to this script stops them too.
LIVE = set()


def stop(signum, _frame):
    for child in list(LIVE):
        child.kill()
        try:
            os.waitpid(child.proc.pid, 0)
        except ChildProcessError:
            pass
    sys.exit(128 + signum)


def instance_seed(seed, i):
    """EvalConfig seed of a run's i-th evaluation: the run's own seed
    first, then seeds derived from it (splitmix64), so a run's median
    covers several input instances instead of repeating one."""
    if i == 0:
        return seed
    mask = (1 << 64) - 1
    z = (seed + i * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) >> 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; exit 2 when that is impossible."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or CHECKOUT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=dict(os.environ, CARGO_TARGET_DIR=str(target)),
                           stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(2)
    if r.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return target / "release" / "pcg-perfbench"


class Child:
    """One process of an evaluation, in its own process group."""

    def __init__(self, argv, cwd, name):
        self.name = name
        self.log_path = cwd / f"{name}.log"
        self.out = cwd / f"{name}.json"
        self.killed = False
        with open(self.log_path, "wb") as logf:
            self.launch_unix = time.time()
            self.launch = time.perf_counter()
            self.proc = subprocess.Popen(argv + ["--out", str(self.out)], cwd=cwd, env=CHILD_ENV,
                                         stdin=subprocess.DEVNULL, stdout=logf, stderr=logf,
                                         start_new_session=True)
        LIVE.add(self)

    def kill(self):
        self.killed = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, deadline):
        """Wait for exit, killing the process group at `deadline`
        (a perf_counter time). Returns True on a clean exit."""
        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), self.kill)
        timer.start()
        try:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        LIVE.discard(self)
        self.end = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.killed:
            # Whatever the group left behind goes too.
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return self.proc.returncode == 0 and not self.killed

    def report(self):
        """The process's JSON report, or None if it wrote none."""
        try:
            return json.loads(self.out.read_text())
        except (OSError, ValueError):
            return None

    def last_line(self):
        try:
            lines = self.log_path.read_text(errors="replace").strip().splitlines()
        except OSError:
            return ""
        return lines[-1] if lines else "(no output)"


class Bench:
    def __init__(self, binary, workload, seed, trace_dir):
        self.binary = str(binary)
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.trace_dir = trace_dir
        self.base = RUNS / f"{workload}-{seed}-{os.getpid()}"
        self.n = 0

    def fresh_dir(self):
        self.n += 1
        d = self.base / f"e{self.n}"
        d.mkdir(parents=True)
        return d

    def argv(self, role, seed, *extra):
        return [self.binary, role, "--workload", self.workload, "--seed", str(seed), *extra]

    def evaluate(self, traced, deadline, index):
        """One cold evaluation of input instance `index`. Returns a dict
        of its measurements."""
        d = self.fresh_dir()
        seed = instance_seed(self.seed, index)
        flags = ["--trace"] if traced else []
        shards = self.spec["shards"]
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        deadline = min(deadline, time.perf_counter() + self.spec["limit_s"])
        if shards == 1:
            procs = [Child(self.argv("eval", seed, *flags), d, "eval")]
            ok = procs[0].wait(deadline)
            final = procs[0]
            workers = procs
        else:
            workers = [Child(self.argv("worker", seed, "--shard", str(k), *flags), d, f"worker{k}")
                       for k in range(shards)]
            ok = all([w.wait(deadline) for w in workers])
            procs = list(workers)
            if ok:
                paths = ",".join(str(w.out) for w in workers)
                final = Child(self.argv("merge", seed, "--workers", paths, *flags), d, "merge")
                procs.append(final)
                ok = final.wait(deadline)
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        m = {
            "ok": ok,
            "wall_s": procs[-1].end - procs[0].launch,
            "cpu_user_s": r1.ru_utime - r0.ru_utime,
            "cpu_sys_s": r1.ru_stime - r0.ru_stime,
            # ru_maxrss is in KiB on Linux; per process, from wait4.
            "peak_rss_mib": max(p.rusage.ru_maxrss for p in procs) / 1024.0,
        }
        if not ok:
            for p in procs:
                if p.killed or p.proc.returncode != 0:
                    why = "killed at its hard limit" if p.killed else f"exit {p.proc.returncode}"
                    log(f"perfbench: {self.workload} {p.name} {why}; last progress: {p.last_line()}")
            shutil.rmtree(d, ignore_errors=True)
            return m
        reps = [w.report() for w in workers]
        top = final.report()
        if top is None or None in reps:
            log(f"perfbench: {self.workload}: a process exited without its report")
            m["ok"] = False
            shutil.rmtree(d, ignore_errors=True)
            return m
        m["cells"] = top["cells"]
        m["failures"] = top["failures"]
        m["setup_s"] = min(r["first_dispatch_unix"] for r in reps) - workers[0].launch_unix
        m["layers"] = top["layers"]
        m["summary"] = top["summary"]
        m["check"] = self.check(d, seed)
        if traced and self.trace_dir is not None:
            shutil.rmtree(self.trace_dir, ignore_errors=True)
            self.trace_dir.mkdir(parents=True)
            for f in d.glob("*"):
                if f.name.endswith((".log", ".json")) and f.name != "records.json":
                    shutil.copy(f, self.trace_dir / f.name)
        shutil.rmtree(d, ignore_errors=True)
        return m

    def check(self, d, seed):
        c = Child(self.argv("check", seed, "--pins", str(PINS)), d, "check")
        r = c.report() if c.wait(time.perf_counter() + 60) else None
        if r is None:
            log(f"perfbench: check failed: {c.last_line()}")
            return {"ok": False, "missing": 0, "pin": "?", "fingerprint": "?", "mismatches": 0}
        ok = r["mismatches"] == 0 and not r["problems"]
        for p in r["problems"]:
            log(f"perfbench: {self.workload} seed {seed}: {p}")
        return {"ok": ok, "missing": r["missing"], "pin": r["pin"],
                "fingerprint": r["fingerprint"], "mismatches": r["mismatches"]}

    def probe(self, deadline):
        """Launch the workload's processes and stop them at the first
        cell dispatch; returns the set-up seconds, or None."""
        d = self.fresh_dir()
        shards = self.spec["shards"]
        if shards == 1:
            procs = [Child(self.argv("eval", self.seed, "--probe"), d, "probe")]
        else:
            procs = [Child(self.argv("worker", self.seed, "--shard", str(k), "--probe"), d, f"probe{k}")
                     for k in range(shards)]
        ok = all([p.wait(deadline) for p in procs])
        reps = [p.report() for p in procs]
        setup = None
        if ok and None not in reps:
            setup = min(r["first_dispatch_unix"] for r in reps) - procs[0].launch_unix
        shutil.rmtree(d, ignore_errors=True)
        return setup


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20240501)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 1 << 64:
        ap.error("--seed must be in 0..2^64")
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    bench_json = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    binary = build()
    traced = args.trace == 1
    trace_dir = RUNS / f"last-trace-{args.workload}" if traced else None
    bench = Bench(binary, args.workload, args.seed, trace_dir)

    start = time.perf_counter()
    hard_end = start + RUN_LIMIT_S
    evals, plain = [], []
    correct, attempted, failed = True, 0, 0
    pin_mismatch = False
    try:
        if traced:
            # The untraced reference for the tracing overhead.
            plain.append(bench.evaluate(False, hard_end, 0))
        while True:
            elapsed = time.perf_counter() - start
            last = (evals or plain or [{"wall_s": 0.0}])[-1]["wall_s"]
            # Evaluations start back to back until the measuring window
            # has passed; the run ends when the last one does.
            if evals and (elapsed >= args.seconds or elapsed + 1.5 * last > RUN_LIMIT_S):
                break
            evals.append(bench.evaluate(traced, hard_end, len(evals)))
            if not evals[-1]["ok"] and time.perf_counter() >= hard_end:
                break
        setups = [e["setup_s"] for e in evals + plain if e["ok"]]
        for _ in range(PROBES):
            if time.perf_counter() + 5 > hard_end:
                break
            s = bench.probe(time.perf_counter() + 30)
            if s is not None:
                setups.append(s)
    finally:
        shutil.rmtree(bench.base, ignore_errors=True)

    cells = max([e.get("cells", 0) for e in evals + plain] + [1])
    for e in evals + plain:
        attempted += cells
        if not e["ok"]:
            failed += cells
            correct = False
            continue
        failed += e["failures"] + e["check"]["missing"]
        correct = correct and e["check"]["ok"]
        pin_mismatch = pin_mismatch or e["check"]["pin"] == "mismatch"
    good = [e for e in evals if e["ok"]]
    if not good:
        correct = False
    checks = sorted({(e["check"]["pin"], e["check"]["fingerprint"]) for e in good})
    log(f"perfbench: {args.workload} seed {args.seed}: {len(evals)} evaluation(s), "
        f"fingerprint {', '.join(f'{fp} ({pin})' for pin, fp in checks)}")

    e2e = {
        "wall_s": median([e["wall_s"] for e in good]),
        "cells_per_s": median([e["cells"] / e["wall_s"] for e in good]),
        "setup_s": median(setups),
        "cpu_s": median([e["cpu_user_s"] + e["cpu_sys_s"] for e in good]),
        "peak_rss_mib": median([e["peak_rss_mib"] for e in good]),
    }
    failed_share = failed / max(attempted, 1)
    if not traced:
        units = {m["name"]: m["unit"] for m in bench_json["end_to_end"]}
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in units}
        for k, v in e2e.items():
            per = [round(e.get(k, 0.0), 6) for e in good] if k in ("wall_s", "peak_rss_mib") else ""
            print(f"{k:<14} {v:>14.6f} {units.get(k, '')}  {per}")
        print(f"{'failed_share':<14} {failed_share:>14.6f} ratio  ({failed} of {attempted})")
    else:
        layers = {}
        for k in good[0]["layers"] if good else []:
            layers[k] = median([e["layers"][k] for e in good])
        layers["process.cpu_user_s"] = median([e["cpu_user_s"] for e in good])
        layers["process.cpu_sys_s"] = median([e["cpu_sys_s"] for e in good])
        layers["shard.merge_share"] = layers.get("shard.merge_s", 0.0) / e2e["wall_s"] if good else 0.0
        ref = [p["wall_s"] for p in plain if p["ok"]]
        layers["trace.overhead_s"] = e2e["wall_s"] - median(ref) if ref else 0.0
        if good:
            log(good[-1]["summary"])
        for k in sorted(layers):
            print(f"{k:<28} {layers[k]:>16.6f}")
        print(f"{'traced wall_s':<28} {e2e['wall_s']:>16.6f}  untraced {median(ref):.6f}")
        print(f"{'failed_share':<28} {failed_share:>16.6f}  ({failed} of {attempted})")
        metrics = {}
        for m in bench_json["per_layer"]:
            if m["name"] not in layers:
                log(f"perfbench: layer metric {m['name']} was not measured")
                correct = False
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if pin_mismatch or not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
