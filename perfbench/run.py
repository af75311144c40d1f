"""The repo's benchmark: the real ``repro-chain`` CLI on four workloads.

    python3 perfbench/run.py --workload campaign-ref --seed 833 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --out run-a.json
    python3 perfbench/run.py --compare run-a.json run-b.json

Run from the repository root: the CLI is started from ``./src``.  Each
run of the CLI gets a fresh journal, report and cache directory, is
timed from outside (wall clock, rusage of the process and the pool
workers it reaped) and has its output checked against the reference
for the seed (``reference.py``).  ``--trace 0`` reports the end-to-end
metrics, medians over the runs that fit in ``--seconds``; ``--trace 1``
adds a traced run after each untraced one and reports the per-layer
metrics (``layers.py``).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any output differs from the reference, 2 on a usage or set-up
error.  ``BENCHMARK.json`` declares three of the four workloads (not
``groundtruth``); ``--workload all`` runs all four.  See NOTES.md for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import DETERMINISTIC, PER_LAYER, derive, prediction_misses  # noqa: E402
from reference import (  # noqa: E402
    WORKLOADS, StaleState, build_reference, check_baseline, check_journal,
    check_stdout, check_store, compare_lists, scaled,
)
from spans import SpanLog, SpanTable  # noqa: E402

#: (name, unit, scaled to the reference host speed)
END_TO_END = (("wall_s", "s", True), ("cpu_s", "s", True),
              ("peak_rss_mb", "MB", False), ("setup_s", "s", True))
#: untraced runs per workload, however short ``--seconds`` is
MIN_RUNS = 3
#: a CLI run that takes longer is killed and counts as all-failed
RUN_TIMEOUT_S = 150
#: seconds :func:`calibrate` takes on the reference host; the scaled
#: metrics are in seconds on that host
CALIB_REF_S = 0.015
TMP_DIR = ".perfbench-tmp"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, crashed CLI)."""


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop, run once on each core this
    process may use, averaged: the host's speed, timed beside every CLI
    run (see :attr:`Run.speed`)."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            total = 0
            for i in range(200_000):
                total += i * i % 7
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    #: process start to the CLI's ``main()`` returning
    main_s: float
    #: mean of :func:`calibrate` just before and just after the run
    calib_s: float
    launch: dict
    layer: dict = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """The host's speed during the run, relative to the reference:
        a time times this is the time on the reference host."""
        return CALIB_REF_S / self.calib_s


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    findings: set = field(default_factory=set)

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(top, name))
               for top, _, names in os.walk(path) for name in names)


class Bench:
    def __init__(self, root: str, workload, seed: int, scale: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # the pool is capped at the core count, as users run it
        self.env.pop("REPRO_PIPELINE_OVERSUBSCRIBE", None)
        self.tmp_root = os.path.join(root, TMP_DIR)
        self.tally = Tally()
        self.ref = None
        self.baseline_checked = False

    def expected_results(self) -> int:
        ref, wl = self.ref, self.workload
        count = len(ref.rows)
        if wl.journal:
            count += len(ref.keyed) + len(ref.unreachable) * len(ref.domains)
        if wl.cache_dir:
            count += 1 + ref.unique_chains
        return count

    def spawn(self, tmp: str, trace: bool) -> tuple[Run | None, str]:
        out = os.path.join(tmp, "launch.json")
        stdout_path = os.path.join(tmp, "stdout.txt")
        stderr_path = os.path.join(tmp, "stderr.txt")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644)]
        argv = self.workload.argv(self.seed, tmp)
        calib_before = calibrate()
        spawn_ns = time.monotonic_ns()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, os.path.join(HERE, "launch.py"), out,
             str(spawn_ns), "1" if trace else "0", "--", *argv],
            self.env, file_actions=actions)
        killer = threading.Timer(RUN_TIMEOUT_S, os.kill,
                                 (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        end_ns = time.monotonic_ns()
        calib_s = (calib_before + calibrate()) / 2
        with open(stdout_path, encoding="utf-8") as handle:
            stdout = handle.read()
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            with open(stderr_path, encoding="utf-8") as handle:
                tail = handle.read()[-800:]
            self.tally.problems.append(
                f"{' '.join(argv)} exited {code}: {tail.strip()}")
            return None, stdout
        with open(out, encoding="utf-8") as handle:
            launch = json.load(handle)
        return Run(
            wall_s=(end_ns - spawn_ns) / 1e9,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            setup_s=(launch["setup_end_ns"] - spawn_ns) / 1e9,
            main_s=(launch["main_end_ns"] - spawn_ns) / 1e9,
            calib_s=calib_s,
            launch=launch,
        ), stdout

    def run_once(self, trace: bool) -> Run | None:
        """One CLI run in a fresh directory, checked, then deleted."""
        tmp = tempfile.mkdtemp(prefix="run-", dir=self.tmp_root)
        try:
            run, stdout = self.spawn(tmp, trace)
            if run is None:
                self.tally.add((self.expected_results(),) * 2)
                return None
            self.check(run, stdout, tmp, trace)
            return run
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def check(self, run: Run, stdout: str, tmp: str, trace: bool) -> None:
        ref, wl, tally = self.ref, self.workload, self.tally
        tally.add(check_stdout(ref, stdout, wl, tally.findings))
        journal = os.path.join(tmp, "journal.jsonl")
        cache = os.path.join(tmp, "cache")
        if wl.journal:
            tally.add(check_journal(ref, journal))
            if (self.seed == 833 and self.scale == 1.0
                    and not self.baseline_checked):
                self.baseline_checked = True
                ok = check_baseline(sys.executable, self.env,
                                    os.path.join(tmp, "report.json"))
                tally.add((1, 0 if ok else 1))
                if not ok:
                    tally.problems.append(
                        "diff-runs against the committed baseline failed")
        if wl.cache_dir:
            tally.add(check_store(ref, cache))
        if not trace:
            return
        out = os.path.join(tmp, "launch.json")
        with open(out + ".results", encoding="utf-8") as handle:
            results = handle.read().splitlines()
        tally.add(compare_lists(ref.results, results))
        launch = run.launch
        table = SpanTable(launch["span_names"],
                          *SpanLog.load(out + ".spans", launch["span_count"]))
        run.layer = derive(table, launch["counts"], main_s=run.main_s, extra={
            "journal_bytes": (os.path.getsize(journal)
                              if os.path.exists(journal) else 0),
            "store_bytes": dir_bytes(cache) if os.path.isdir(cache) else 0,
            "unique_chains": ref.unique_chains,
        })

    def measure(self, seconds: float, trace: bool) -> dict:
        wl, tally = self.workload, self.tally
        started = time.monotonic()
        self.ref = build_reference(wl, self.seed)
        if self.scale == 1.0:
            with open(os.path.join(HERE, "golden.json"),
                      encoding="utf-8") as handle:
                golden = json.load(handle).get(f"{wl.name}:{self.seed}")
            if golden is not None:
                tally.attempted += 1
                if golden != self.ref.digests():
                    tally.failed += 1
                    tally.problems.append(
                        "the reference output differs from golden.json")
        gc.collect()
        os.makedirs(self.tmp_root, exist_ok=True)
        runs: list[Run] = []
        traced: list[Run] = []
        deadline = started + seconds
        cpus = os.sched_getaffinity(0)
        if not wl.workers:
            # the CLI and the calibration beside it share one core: the
            # host slows each core on its own (NOTES.md, "Host speed")
            os.sched_setaffinity(0, {max(cpus)})
        try:
            while True:
                lap = time.monotonic()
                run = self.run_once(trace=False)
                if run is None:
                    break
                runs.append(run)
                if trace:
                    run = self.run_once(trace=True)
                    if run is None:
                        break
                    traced.append(run)
                enough = len(traced) >= 1 if trace else len(runs) >= MIN_RUNS
                if enough and time.monotonic() + (
                        time.monotonic() - lap) > deadline:
                    break
        except StaleState as exc:
            raise BenchError(f"run started from stale state: {exc}")
        finally:
            os.sched_setaffinity(0, cpus)
            shutil.rmtree(self.tmp_root, ignore_errors=True)
        return self.summary(runs, traced, trace)

    def summary(self, runs, traced, trace) -> dict:
        tally = self.tally
        pools = sorted({f"{stage}:{mode}x{workers}"
                        for run in runs + traced
                        for stage, mode, workers in run.launch["pools"]})
        result = {
            "workload": self.workload.name, "seed": self.seed,
            "domains": self.workload.domains, "runs": len(runs),
            "traced_runs": len(traced),
            "fingerprint": {
                "cpu_count": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "pools": pools or ["none"],
            },
            "host_calib_s": summarize([r.calib_s for r in runs], "s"),
            "end_to_end": {
                name: summarize([getattr(r, name) * (r.speed if scaled else 1)
                                 for r in runs], unit)
                for name, unit, scaled in END_TO_END
            },
            "unscaled": {
                name: summarize([getattr(r, name) for r in runs], unit)
                for name, unit, scaled in END_TO_END if scaled
            },
            "attempted": tally.attempted, "failed": tally.failed,
            "failed_ratio": (tally.failed / tally.attempted
                             if tally.attempted else 1.0),
            "problems": tally.problems,
            "findings": sorted(tally.findings),
        }
        if trace and traced:
            layer = {name: summarize([r.layer[name] for r in traced
                                      if name in r.layer], unit)
                     for name, unit in PER_LAYER}
            untraced_main = statistics.median(r.main_s for r in runs)
            traced_main = statistics.median(r.main_s for r in traced)
            layer["trace.overhead_ratio"] = summarize(
                [traced_main / untraced_main], "ratio")
            layer["host.calib_s"] = result["host_calib_s"]
            result["per_layer"] = layer
            medians = {name: entry["median"] for name, entry in layer.items()}
            result["prediction_misses"] = prediction_misses(
                self.workload.name, medians)
            for name in DETERMINISTIC:
                values = {r.layer[name] for r in traced}
                if len(values) > 1:
                    tally.problems.append(
                        f"{name} differs across traced runs: {values}")
        return result


def summarize(values: list[float], unit: str) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "unit": unit,
                "samples": []}
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "samples": values}


def render(result: dict) -> list[str]:
    fp = result["fingerprint"]
    lines = [
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['domains']:,} domains  runs {result['runs']}"
        f" (+{result['traced_runs']} traced)",
        f"host: cpu_count={fp['cpu_count']} affinity={fp['affinity']} "
        f"python={fp['python']} pools={','.join(fp['pools'])} "
        f"calib={result['host_calib_s']['median']:.4f}s",
    ]

    def row(name, entry):
        return (f"  {name:36} {entry['median']:14.6g} {entry['unit']:6}"
                f" q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
                f"n={entry['n']}")

    lines += [row(n, e) for n, e in result["end_to_end"].items()]
    lines += [row(f"{n} (unscaled)", e)
              for n, e in result["unscaled"].items()]
    lines.append(f"  {'failed_ratio':36} {result['failed_ratio']:14.6g} "
                 f"{'ratio':6} ({result['failed']:,} of "
                 f"{result['attempted']:,} results)")
    for name, entry in result.get("per_layer", {}).items():
        lines.append(row(name, entry))
    lines += [f"finding: {f}" for f in result["findings"]]
    lines += [f"prediction missed: {m}"
              for m in result.get("prediction_misses", ())]
    lines += [f"PROBLEM: {p}" for p in result["problems"]]
    return lines


def compare(path_a: str, path_b: str) -> int:
    """Median deltas of two ``--out`` files; refuses across hosts."""
    with open(path_a, encoding="utf-8") as a, \
            open(path_b, encoding="utf-8") as b:
        before, after = json.load(a), json.load(b)
    try:
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            bounds = {m["name"]: m["bound"]
                      for m in json.load(handle)["end_to_end"]}
    except OSError:
        bounds = {}
    code = 0
    for name in sorted(set(before) & set(after)):
        fa, fb = before[name]["fingerprint"], after[name]["fingerprint"]
        if fa != fb:
            print(f"{name}: refusing to compare across host fingerprints "
                  f"{fa} vs {fb}")
            return 2
        for metric, entry in after[name]["end_to_end"].items():
            base = before[name]["end_to_end"][metric]["median"]
            delta = entry["median"] / base - 1.0 if base else 0.0
            bound = bounds.get(metric)
            verdict = ("worse than bound" if bound is not None
                       and delta > bound else "ok")
            code = max(code, int(verdict != "ok"))
            print(f"{name:18} {metric:12} {base:10.4f} -> "
                  f"{entry['median']:10.4f} {100 * delta:+7.2f}%  {verdict}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=833)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every population (smoke tests)")
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from the repository root (no src/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            bench = Bench(root, scaled(WORKLOADS[name], args.scale),
                          args.seed, args.scale)
            results[name] = bench.measure(args.seconds, bool(args.trace))
            print("\n".join(render(results[name])), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["problems"]
                                      for r in results.values())
    metrics = {}
    for name, result in results.items():
        section = result.get("per_layer") if args.trace else \
            result["end_to_end"]
        for metric, entry in (section or {}).items():
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": entry["median"], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
