"""The deduplicating pipeline: byte-parity with a per-observation loop.

Every test here checks the same contract from a different angle: in
process or across a forced fork pool, with or without a journal,
interrupted or not, the pipeline's outputs — report list, aggregate
tables, journal bytes, metrics — are indistinguishable from a plain
``analyze_chain`` loop over the observations, built inside the tests
so the reference shares no code with the pipeline.
"""

import json
import os

import pytest

from repro import obs
from repro.core import aggregate, analyze_chain
from repro.core.compliance import rebind_for_domain
from repro.measurement import Campaign
from repro.measurement.parallel import (
    OVERSUBSCRIBE_ENV,
    VerdictCache,
    analyze_observations,
    chain_key,
    chain_key_hex,
    resolve_workers,
)
from repro.obs import RunJournal
from repro.webpki import Ecosystem, EcosystemConfig


@pytest.fixture(autouse=True)
def forced_fork(monkeypatch):
    """``workers=2`` forks even on a one-core host; ``workers=1`` stays
    in-process, so each test picks its mode by worker count."""
    monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")


#: worker counts selecting the two execution modes under ``forced_fork``
MODES = pytest.mark.parametrize("workers", [1, 2],
                                ids=["in-process", "fork"])


@pytest.fixture(scope="module")
def ecosystem():
    return Ecosystem.generate(EcosystemConfig(n_domains=140, seed=7))


@pytest.fixture(scope="module")
def union(ecosystem):
    return ecosystem.registry.union()


@pytest.fixture(scope="module")
def stream(ecosystem):
    """A scan-like stream with real redundancy.

    The union observations, then the first 60 again (the "both
    vantages, identical chain" pattern), then ten cross-domain repeats
    (another domain serving a chain already seen) to force the
    ``rebind_for_domain`` path.
    """
    base = ecosystem.observations()
    doubled = base + [(d, list(c)) for d, c in base[:60]]
    crossed = [
        (base[(i + 1) % len(base)][0], list(base[i][1]))
        for i in range(0, 30, 3)
    ]
    return doubled + crossed


@pytest.fixture(scope="module")
def sequential_reports(ecosystem, union, stream):
    return [
        analyze_chain(domain, chain, union, ecosystem.aia_repo)
        for domain, chain in stream
    ]


def aggregate_json(reports) -> str:
    return json.dumps(aggregate(reports).to_dict(), sort_keys=True)


def reference_journal(path, campaign, stream):
    """Journal bytes of the plain loop: analyse every observation
    whose (domain, chain) the journal does not hold yet."""
    union = campaign.ecosystem.registry.union()
    with RunJournal.create(path, campaign.manifest()) as journal:
        for domain, chain in stream:
            key = chain_key_hex(chain)
            if journal.verdict_for(domain, key) is None:
                journal.record_verdict(domain, key, analyze_chain(
                    domain, chain, union, campaign.ecosystem.aia_repo))
    return path.read_bytes()


class TestVerdictCache:
    def test_report_keyed_on_chain_and_store(self, ecosystem, union, stream):
        cache = VerdictCache()
        domain, chain = stream[0]
        key = chain_key(chain)
        report = analyze_chain(domain, chain, union, ecosystem.aia_repo)
        cache.store_report(key, union.digest(), report)
        assert cache.report_for(key, union.digest()) is report
        # same chain, different trust anchors: not the same verdict
        assert cache.report_for(key, "0" * 64) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_has_report_does_not_count(self, union, stream):
        cache = VerdictCache()
        key = chain_key(stream[0][1])
        assert not cache.has_report(key, union.digest())
        assert (cache.hits, cache.misses) == (0, 0)

    def test_outcome_cache_is_domain_sensitive(self, stream):
        cache = VerdictCache()
        key = chain_key(stream[0][1])
        cache.store_outcome("a.example", key, "outcome-a")
        assert cache.outcome_for("a.example", key) == "outcome-a"
        assert cache.outcome_for("b.example", key) is None
        assert (cache.outcome_hits, cache.outcome_misses) == (1, 1)
        assert len(cache) == 1

    def test_hit_rate(self):
        cache = VerdictCache()
        assert cache.hit_rate == 0.0
        cache.hits, cache.misses = 3, 1
        assert cache.hit_rate == pytest.approx(0.75)


class TestResolveWorkers:
    def test_one_worker_is_in_process(self):
        assert resolve_workers(0) == (1, "in-process")
        assert resolve_workers(1) == (1, "in-process")

    def test_capped_at_core_count(self, monkeypatch):
        monkeypatch.delenv(OVERSUBSCRIBE_ENV)
        effective, _ = resolve_workers(4096)
        assert effective <= (os.cpu_count() or 1)

    def test_oversubscribe_env(self, monkeypatch):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")
        effective, mode = resolve_workers(3)
        assert (effective, mode) == (3, "fork-pool")


class TestPipelineParity:
    def test_in_process_matches_sequential(
        self, ecosystem, union, stream, sequential_reports
    ):
        reports, stats = analyze_observations(
            stream, store=union, fetcher=ecosystem.aia_repo, workers=1,
        )
        assert reports == sequential_reports
        assert aggregate_json(reports) == aggregate_json(sequential_reports)
        assert stats.mode == "in-process"
        assert stats.observations == len(stream)
        assert stats.analyzed + stats.cache_hits == len(stream)
        assert stats.cache_hits > 0 and stats.hit_rate > 0.0

    def test_fork_pool_matches_sequential(
        self, ecosystem, union, stream, sequential_reports
    ):
        reports, stats = analyze_observations(
            stream, store=union, fetcher=ecosystem.aia_repo, workers=2,
        )
        assert reports == sequential_reports
        assert aggregate_json(reports) == aggregate_json(sequential_reports)
        assert stats.mode == "fork-pool"
        assert stats.effective_workers == 2
        assert stats.analyzed == stats.unique_chains

    def test_cache_carries_across_calls(self, ecosystem, union, stream):
        cache = VerdictCache()
        analyze_observations(
            stream, store=union, fetcher=ecosystem.aia_repo, cache=cache,
        )
        reports, stats = analyze_observations(
            stream, store=union, fetcher=ecosystem.aia_repo, cache=cache,
        )
        assert stats.analyzed == 0
        assert stats.cache_hits == len(stream)

    def test_campaign_analyze_delegates(self, ecosystem, stream,
                                        sequential_reports):
        campaign = Campaign(ecosystem)
        for workers in (0, 1, 2):
            report, reports = campaign.analyze(
                stream, workers=workers, cache=VerdictCache(),
            )
            assert report == aggregate(sequential_reports)
            assert reports == sequential_reports

    @MODES
    def test_cache_counts_every_lookup(self, ecosystem, union, stream,
                                       workers):
        """One miss per unique chain, one hit per repeat — in both
        modes (the fork pool used to count no misses at all)."""
        cache = VerdictCache()
        _, stats = analyze_observations(
            stream, store=union, fetcher=ecosystem.aia_repo,
            workers=workers, cache=cache,
        )
        assert cache.misses == stats.unique_chains == stats.analyzed
        assert cache.hits == stats.cache_hits == len(stream) - cache.misses


class TestCrossDomainRebind:
    def test_rebind_equals_fresh_analysis(self, ecosystem, union, stream):
        base = ecosystem.observations()
        domain_a, chain = base[0]
        domain_b = base[1][0]
        cached = analyze_chain(domain_a, chain, union, ecosystem.aia_repo)
        rebound = rebind_for_domain(cached, domain_b, chain)
        fresh = analyze_chain(domain_b, chain, union, ecosystem.aia_repo)
        assert rebound == fresh
        assert rebound.to_json() == fresh.to_json()

    def test_same_domain_rebind_is_identity(self, ecosystem, union, stream):
        domain, chain = stream[0]
        report = analyze_chain(domain, chain, union, ecosystem.aia_repo)
        assert rebind_for_domain(report, domain, chain) is report


class TestJournalParity:
    def run_journaled(self, campaign, stream, path, **kwargs):
        with RunJournal.create(path, campaign.manifest()) as journal:
            report, reports = campaign.analyze(
                stream, journal=journal, **kwargs
            )
        return report, reports, path.read_bytes()

    def test_all_modes_write_identical_journals(
        self, ecosystem, stream, tmp_path, sequential_reports
    ):
        campaign = Campaign(ecosystem)
        seq_bytes = reference_journal(tmp_path / "seq.jsonl", campaign,
                                      stream)
        _, in_reports, in_bytes = self.run_journaled(
            campaign, stream, tmp_path / "inproc.jsonl",
            workers=1, cache=VerdictCache(),
        )
        _, pool_reports, pool_bytes = self.run_journaled(
            campaign, stream, tmp_path / "pool.jsonl",
            workers=2, cache=VerdictCache(),
        )
        assert in_bytes == seq_bytes
        assert pool_bytes == seq_bytes
        assert in_reports == sequential_reports
        assert pool_reports == sequential_reports

    def test_crash_resume_is_byte_identical(
        self, ecosystem, stream, tmp_path, sequential_reports
    ):
        campaign = Campaign(ecosystem)
        seq_bytes = reference_journal(tmp_path / "uninterrupted.jsonl",
                                      campaign, stream)
        for workers in (1, 2):
            path = tmp_path / f"crashed-{workers}.jsonl"
            with RunJournal.create(path, campaign.manifest()) as journal:
                campaign.analyze(
                    stream[:80], journal=journal,
                    workers=workers, cache=VerdictCache(),
                )
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"type":"verdict","domain":"crash.ex')

            with RunJournal.open(path, campaign.manifest()) as journal:
                _, reports = campaign.analyze(
                    stream, journal=journal,
                    workers=workers, cache=VerdictCache(),
                )
            assert reports == sequential_reports
            assert path.read_bytes() == seq_bytes
    def test_rerun_appends_nothing(self, ecosystem, stream, tmp_path):
        campaign = Campaign(ecosystem)
        path = tmp_path / "run.jsonl"
        self.run_journaled(
            campaign, stream, path, workers=1, cache=VerdictCache()
        )
        before = path.read_bytes()
        with RunJournal.open(path, campaign.manifest()) as journal:
            _, stats = analyze_observations(
                stream, store=ecosystem.registry.union(),
                fetcher=ecosystem.aia_repo, journal=journal,
            )
        assert path.read_bytes() == before
        assert stats.analyzed == 0
        assert stats.resumed == len(stream)


class TestMetricsMerge:
    def totals(self, registry) -> dict[str, float]:
        snapshot = registry.snapshot()
        return {
            name: registry.total(name)
            for name, family in snapshot.items()
            if family["type"] == "counter"
            and name.split(".")[0] in ("campaign", "compliance")
        }

    def test_pool_counters_match_in_process(self, ecosystem, union, stream):
        obs.disable()
        with obs.instrumented() as (registry, _):
            analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo, workers=1,
            )
            in_process = self.totals(registry)
        with obs.instrumented() as (registry, _):
            analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo, workers=2,
            )
            pooled = self.totals(registry)
        obs.disable()
        assert pooled == in_process
        assert in_process["campaign.chains_analyzed"] == len(stream)


class TestPhaseHistogramMerge:
    """Per-worker ``phase.*`` histograms fold losslessly back into the
    parent registry through ``merge_snapshot``."""

    def test_worker_phase_timers_merge_across_fork_pool(
        self, ecosystem, union, stream
    ):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        with obs.instrumented() as (registry, _):
            obs.catalogue.preregister(registry)
            _, stats = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                workers=2,
            )
            snapshot = registry.snapshot()
        assert stats.mode == "fork-pool"
        series = [
            s for s in snapshot["phase.wall_seconds"]["series"]
            if s["labels"].get("phase") == "analyze.worker"
        ]
        # Each worker span observes the scope once; every observation
        # survives the merge into the single parent series.
        assert len(series) == 1
        assert series[0]["count"] >= stats.effective_workers
        assert series[0]["sum"] >= 0.0
        cpu = [
            s for s in snapshot["phase.cpu_seconds"]["series"]
            if s["labels"].get("phase") == "analyze.worker"
        ]
        assert cpu[0]["count"] == series[0]["count"]

    def test_merge_preserves_bucket_counts(self):
        """Distinct registries with catalogue bounds fold exactly."""
        from repro.obs.probe import phase_scope

        parent = obs.MetricsRegistry()
        obs.catalogue.preregister(parent)
        totals = 0
        for _ in range(2):  # two "workers"
            worker = obs.MetricsRegistry()
            for _ in range(3):
                with phase_scope("analyze.worker", worker):
                    pass
            totals += 3
            parent.merge_snapshot(worker.snapshot())
        series = [
            s for s in parent.snapshot()["phase.wall_seconds"]["series"]
            if s["labels"].get("phase") == "analyze.worker"
        ]
        assert series[0]["count"] == totals
        assert sum(series[0]["buckets"].values()) == totals


class TestWorkerSpans:
    """Fork-pool workers trace for real; the parent adopts their spans.

    Regression: the pool used to pin workers to ``NULL_TRACER``, so a
    traced ``scan --workers 4`` silently lost every worker-side span.
    """

    def test_worker_spans_surface_in_parent_trace(
        self, ecosystem, union, stream
    ):
        with obs.instrumented() as (_, tracer):
            _, stats = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                workers=2,
            )
            events = tracer.to_chrome_trace()
        assert stats.mode == "fork-pool"
        worker_events = [e for e in events if e["name"] == "analyze.span"]
        assert worker_events  # the regression: these used to vanish
        # each submitted span rides its own Chrome-trace tid lane, so
        # worker timelines render side by side instead of stacked
        lanes = {e["tid"] for e in worker_events}
        assert len(lanes) == len(worker_events)
        assert 0 not in lanes  # lane 0 stays the parent's

    def test_worker_span_children_keep_the_lane(
        self, ecosystem, union, stream
    ):
        with obs.instrumented() as (_, tracer):
            analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                workers=2,
            )
            roots = [s for s in tracer.roots() if s.name == "analyze.span"]
        assert roots
        for root in roots:
            for child in root.children:
                assert child.thread_id == root.thread_id

    def test_untraced_run_adopts_nothing(self, ecosystem, union, stream):
        with obs.instrumented(tracer=obs.NullTracer()) as (_, tracer):
            analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                workers=2,
            )
        assert tracer.roots() == []


class TestLiveView:
    def run_with_live_view(self, ecosystem, union, stream, *, metrics=True):
        from repro.obs.server import LiveRegistryView, RunStatus

        status = RunStatus()
        if metrics:
            context = obs.instrumented()
        else:
            from contextlib import nullcontext
            context = nullcontext((obs.get_metrics(), obs.get_tracer()))
        with context as (registry, _):
            view = LiveRegistryView(registry)
            reports, stats = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                workers=2,
                status=status, live_view=view,
            )
        return reports, stats, status, view

    def test_results_unchanged_by_live_plumbing(
        self, ecosystem, union, stream, sequential_reports
    ):
        reports, stats, _, _ = self.run_with_live_view(
            ecosystem, union, stream
        )
        assert reports == sequential_reports
        assert aggregate_json(reports) == aggregate_json(sequential_reports)
        assert stats.mode == "fork-pool"

    def test_status_accounts_every_observation(
        self, ecosystem, union, stream
    ):
        _, _, status, _ = self.run_with_live_view(ecosystem, union, stream)
        snap = status.snapshot()
        assert snap["done"] == len(stream)

    def test_view_is_drained_and_cleared_at_the_end(
        self, ecosystem, union, stream
    ):
        _, _, _, view = self.run_with_live_view(ecosystem, union, stream)
        assert len(view) == 0  # every partial discarded or cleared

    def test_in_process_mode_advances_status_too(
        self, ecosystem, union, stream
    ):
        from repro.obs.server import RunStatus

        status = RunStatus()
        _, stats = analyze_observations(
            stream, store=union, fetcher=ecosystem.aia_repo, workers=1,
            status=status,
        )
        assert stats.mode == "in-process"
        assert status.snapshot()["done"] == len(stream)

    def test_null_metrics_run_skips_the_pipe(
        self, ecosystem, union, stream, sequential_reports
    ):
        reports, _, status, view = self.run_with_live_view(
            ecosystem, union, stream, metrics=False,
        )
        assert reports == sequential_reports
        assert status.snapshot()["done"] == len(stream)
        assert len(view) == 0
