"""Tests of the benchmark itself: span arithmetic, the percentile rule,
the output checks, and a tiny-scale run of all four workloads.

    python3 -m pytest perfbench/tests -q      # from the repository root
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from layers import DETERMINISTIC, PER_LAYER, _p99  # noqa: E402
from reference import (  # noqa: E402
    WORKLOADS, StaleState, build_reference, check_journal, check_stdout,
    compare_lists, scaled,
)
from spans import (  # noqa: E402
    SpanLog, SpanTable, patch_function, percentile, self_times,
    tail_percentile,
)


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        # root [0,100]; a [10,40] holds g [15,25]; b [30,60] overlaps a
        start = [0, 10, 15, 30]
        end = [100, 40, 25, 60]
        parent = [-1, 0, 1, 0]
        assert self_times(start, end, parent) == [50, 20, 10, 30]

    def test_child_outside_parent_is_clipped(self):
        assert self_times([0, 5], [10, 20], [-1, 0]) == [5, 15]

    def test_leaf_self_time_is_its_duration(self):
        assert self_times([3], [9], [-1]) == [6]


class TestPercentiles:
    @pytest.mark.parametrize("n, expected", [
        (9, None), (20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
        (10_000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert tail_percentile(list(range(n)))[0] == expected

    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50.0) == 50
        assert percentile(samples, 90.0) == 90
        assert percentile([], 50.0) == 0.0

    def test_p99_falls_back_to_the_rule(self):
        assert _p99(list(range(1, 1001))) == 990
        assert _p99(list(range(1, 101))) == 90
        assert _p99([1.0]) == 0.0


class TestSpanLog:
    def test_wrap_records_parent_and_counts(self):
        log = SpanLog()
        seen = []

        def inner(x):
            return x + 1

        inner_t = log.wrap("inner", inner, lambda r, a, k: seen.append(r))

        def outer(x):
            return inner_t(x) + inner_t(x)

        assert log.wrap("outer", outer)(1) == 4
        assert seen == [2, 2]
        table = SpanTable(log.names, log.name, log.start, log.end,
                          log.parent)
        (root,) = table.outer("outer")
        kids = table.spans("inner")
        assert [table.parent[i] for i in kids] == [root, root]
        assert table.roots() == [root]
        assert table.self_ns[root] == (
            (log.end[root] - log.start[root])
            - sum(log.end[i] - log.start[i] for i in kids))

    def test_dump_and_load_round_trip(self, tmp_path):
        log = SpanLog()
        log.add("a", 1, 5)
        log.add("b", 2, 3, parent=0)
        path = str(tmp_path / "spans")
        log.dump(path)
        columns = SpanLog.load(path, 2)
        assert [list(c) for c in columns] == [[0, 1], [1, 2], [5, 3],
                                              [-1, 0]]

    def test_patch_function_rebinds_every_importer(self, monkeypatch):
        def f():
            return 1

        home = types.ModuleType("fakepkg.home")
        user = types.ModuleType("fakepkg.user")
        home.f = user.g = f
        monkeypatch.setitem(sys.modules, "fakepkg.home", home)
        monkeypatch.setitem(sys.modules, "fakepkg.user", user)
        assert patch_function("fakepkg", f, lambda: 2) == 2
        assert home.f() == user.g() == 2


class TestChecks:
    @pytest.fixture(scope="class")
    def ref(self):
        return build_reference(scaled(WORKLOADS["campaign-ref"], 0.05), 833)

    def test_rows_compare_in_order(self):
        assert compare_lists(["a", "b"], ["a", "b"]) == (2, 0)
        assert compare_lists(["a", "b"], ["a", "x"]) == (2, 1)
        assert compare_lists(["a", "b"], ["a"]) == (2, 1)
        assert compare_lists(["a"], ["a", "extra"]) == (1, 1)

    def test_stdout_mismatch_counts(self, ref):
        workload = scaled(WORKLOADS["campaign-ref"], 0.05)
        good = "\n".join(["wrote 9 journal events", *ref.rows])
        assert check_stdout(ref, good, workload, set())[1] == 0
        bad = good.replace("chains:", "chains: 1", 1)
        assert check_stdout(ref, bad, workload, set())[1] == 1

    def test_stale_state_is_refused(self, ref):
        workload = scaled(WORKLOADS["campaign-ref"], 0.05)
        with pytest.raises(StaleState):
            check_stdout(ref, "journal: resuming 5 recorded verdicts",
                         workload, set())
        with pytest.raises(StaleState):
            check_stdout(ref, "verdict store: 3 reports / 0 outcomes "
                         "loaded from x", workload, set())

    def test_journal_verdict_flip_is_a_failure(self, ref, tmp_path):
        path = tmp_path / "journal.jsonl"
        events = [
            {"type": "scan", "domain": domain, "vantage": vantage,
             "success": domain not in blocked}
            for domain in ref.domains
            for vantage, blocked in ref.unreachable.items()
        ]
        events += [{"type": "verdict", "domain": domain,
                    "chain_key": list(key), "report": report}
                   for (domain, key), report in ref.keyed.items()]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        attempted, failed = check_journal(ref, str(path))
        assert attempted == len(events) and failed == 0
        events[-1]["report"] = dict(events[-1]["report"], chain_length=99)
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert check_journal(ref, str(path))[1] == 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # three workloads fit the time budget with 40-second run sets;
    # groundtruth stays runnable by name (NOTES.md)
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == ["campaign-ref", "campaign-sharded", "differential"]
    assert set(declared) <= set(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in declared}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def _smoke(tmp_path, tag):
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all",
         "--scale", "0.05", "--seconds", "1", "--trace", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return json.loads(out.read_text())


def test_tiny_scale_run_of_all_workloads(tmp_path):
    first = _smoke(tmp_path, "a")
    second = _smoke(tmp_path, "b")
    assert set(first) == set(WORKLOADS)
    for name, result in first.items():
        assert result["failed_ratio"] == 0.0
        assert result["prediction_misses"] == [], name
        for metric in DETERMINISTIC:
            assert (result["per_layer"][metric]["median"]
                    == second[name]["per_layer"][metric]["median"]), metric
        assert result["end_to_end"]["wall_s"]["median"] > 0
