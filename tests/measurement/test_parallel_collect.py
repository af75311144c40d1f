"""The probe/replay collection pipeline: byte-parity with a direct
scan loop.

Same contract-from-every-angle structure as ``test_parallel``: in
process or across a forced fork pool, with or without a journal, with
or without an active fault plan, ``Campaign.collect`` must be
indistinguishable — records, union observations, journal bytes,
degraded-vantage sets, scan metrics — from a direct per-vantage
``Scanner.scan`` sweep built inside these tests, because the replay
performs every order-dependent effect (RNG draw, clock advance, fault
consultation, rate limiting, breaker transition) in the sequential
order and only the pure handshake outcome comes from the probe.
"""

import pytest

from repro import obs
from repro.measurement import Campaign
from repro.measurement.campaign import CollectionResult, _merge_union
from repro.measurement.parallel import OVERSUBSCRIBE_ENV
from repro.measurement.parallel_collect import probe_collection
from repro.net.scanner import (
    RATE_LIMIT_BYTES_PER_SECOND,
    CircuitBreaker,
    RetryPolicy,
    Scanner,
)
from repro.net.simnet import FaultPlan, NetworkError
from repro.net.tls import TLS12, perform_handshake, probe_handshake
from repro.obs import RunJournal
from repro.webpki import Ecosystem, EcosystemConfig
from repro.webpki.ecosystem import VANTAGE_AU, VANTAGE_US

VANTAGES = (VANTAGE_US, VANTAGE_AU)


@pytest.fixture(scope="module")
def ecosystem():
    return Ecosystem.generate(EcosystemConfig(n_domains=80, seed=19))


@pytest.fixture(scope="module")
def domains(ecosystem):
    return [d.domain for d in ecosystem.deployments]


@pytest.fixture
def forced_fork(monkeypatch):
    """``collect_workers=4`` forks even on a one-core host;
    ``collect_workers=1`` stays in-process."""
    monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")


def fresh_campaign(ecosystem):
    """A campaign on its own fresh, identically-seeded network."""
    return Campaign(ecosystem, network=ecosystem.install())


def direct_collect(campaign, *, journal=None, retry_policy=None,
                   breaker_threshold=None):
    """The reference: a direct per-vantage sweep that exchanges with
    every handler live, journaled the way a campaign journals."""
    network = campaign.network
    domains = [d.domain for d in campaign.ecosystem.deployments]
    per_vantage, degraded = {}, {}
    for vantage in VANTAGES:
        breaker = (CircuitBreaker(network.clock, vantage,
                                  threshold=breaker_threshold)
                   if breaker_threshold else None)
        scanner = Scanner(network, vantage, retry_policy=retry_policy,
                          breaker=breaker)

        def observe(record):
            if journal is not None:
                journal.record(
                    "scan", domain=record.domain, vantage=record.vantage,
                    success=record.success, tls_version=record.tls_version,
                    error=str(record.error) if record.error else None,
                    wire_bytes=record.wire_bytes, attempts=record.attempts,
                    duration=record.duration,
                )

        records = scanner.scan(domains, versions=(TLS12,),
                               progress=observe)
        per_vantage[vantage] = records
        if breaker is not None and breaker.tripped:
            degraded[vantage] = "breaker_open"
        elif records and not any(r.success for r in records):
            degraded[vantage] = "no_successful_scans"
        if vantage in degraded and journal is not None:
            journal.record_degradation(vantage, degraded[vantage])
    chain_keys, observations, all_certs = _merge_union(VANTAGES,
                                                       per_vantage)
    if journal is not None:
        journal.record(
            "collection", domains=len(domains),
            observations=len(observations),
            unique_chains=len(chain_keys),
            unique_certificates=len(all_certs),
            degraded=bool(degraded), degraded_vantages=degraded,
        )
    return CollectionResult(
        per_vantage=per_vantage, observations=observations,
        reachable_counts={v: sum(1 for r in records if r.success)
                          for v, records in per_vantage.items()},
        unique_chains=len(chain_keys),
        unique_certificates=len(all_certs),
        degraded_vantages=degraded,
    )


class TestProbeEquivalence:
    """A probe is the handler's answer, computed without side effects
    on the simulation state."""

    def test_probe_matches_live_handshake(self, ecosystem, domains):
        live_net = ecosystem.install()
        probe_net = ecosystem.install()
        checked = 0
        for domain in domains[:20]:
            if not probe_net.is_reachable(VANTAGE_US, domain):
                continue
            probe = probe_handshake(probe_net, VANTAGE_US, domain,
                                    versions=(TLS12,))
            if probe.kind != "success":
                continue
            result = perform_handshake(live_net, VANTAGE_US, domain,
                                       versions=(TLS12,))
            assert probe.version == result.version
            assert probe.wire_bytes == result.wire_bytes
            assert [c.fingerprint for c in probe.chain] == [
                c.fingerprint for c in result.chain
            ]
            checked += 1
        assert checked > 5

    def test_probe_touches_neither_clock_nor_rng(self, ecosystem,
                                                 domains):
        network = ecosystem.install()
        before_clock = network.clock.now()
        before_connects = dict(network._connects)
        for domain in domains[:20]:
            probe_handshake(network, VANTAGE_US, domain,
                            versions=(TLS12,))
        assert network.clock.now() == before_clock
        # no connect ordinals consumed -> no RNG draws keyed off them
        assert dict(network._connects) == before_connects

    def test_refused_probe_resolves_to_network_error(self, ecosystem):
        network = ecosystem.install()
        probe = probe_handshake(network, VANTAGE_US, "nosuch.example",
                                versions=(TLS12,))
        assert probe.kind == "refused"
        with pytest.raises(NetworkError):
            probe.resolve()

    def test_memo_decodes_each_flight_once(self, ecosystem, domains):
        network = ecosystem.install()
        memo: dict = {}
        domain = next(d for d in domains
                      if network.is_reachable(VANTAGE_US, d)
                      and network.is_reachable(VANTAGE_AU, d))
        us = probe_handshake(network, VANTAGE_US, domain,
                             versions=(TLS12,), memo=memo)
        au = probe_handshake(network, VANTAGE_AU, domain,
                             versions=(TLS12,), memo=memo)
        if us.kind == "success" and au.kind == "success" \
                and us.chain == au.chain:
            # shared flight -> the exact same decoded tuple object
            assert us.chain is au.chain


class TestProbeCollection:
    def test_fork_pool_table_matches_in_process(self, ecosystem,
                                                domains, forced_fork):
        network = ecosystem.install()
        table_seq, stats_seq = probe_collection(
            network, VANTAGES, domains, workers=1,
        )
        table_fork, stats_fork = probe_collection(
            ecosystem.install(), VANTAGES, domains, workers=4,
        )
        assert stats_seq.mode == "in-process"
        assert stats_fork.mode == "fork-pool"
        assert stats_fork.effective_workers == 4
        assert table_fork.keys() == table_seq.keys()
        for key, probe in table_seq.items():
            other = table_fork[key]
            assert other.kind == probe.kind
            assert other.version == probe.version
            assert other.wire_bytes == probe.wire_bytes
            assert [c.fingerprint for c in other.chain] == [
                c.fingerprint for c in probe.chain
            ]

    def test_unreachable_units_get_no_probe(self, ecosystem, domains):
        network = ecosystem.install()
        table, stats = probe_collection(network, VANTAGES, domains,
                                        workers=1)
        unreachable = [
            (v, d) for v in VANTAGES for d in domains
            if not network.is_reachable(v, d)
        ]
        assert stats.skipped_unreachable == len(unreachable)
        for unit in unreachable:
            assert unit not in table
        assert stats.probed + stats.skipped_unreachable == stats.units

    def test_oversubscribe_env(self, ecosystem, domains, monkeypatch):
        monkeypatch.setenv(OVERSUBSCRIBE_ENV, "1")
        _table, stats = probe_collection(
            ecosystem.install(), VANTAGES, domains[:10], workers=2,
        )
        assert stats.mode == "fork-pool"
        assert stats.effective_workers == 2


@pytest.mark.usefixtures("forced_fork")
class TestCollectParity:
    """collect_workers=N is byte-identical to the direct sweep."""

    def collect(self, ecosystem, *, workers=None, journal=None):
        campaign = fresh_campaign(ecosystem)
        if workers is None:
            return direct_collect(campaign, journal=journal), campaign
        return (campaign.collect(journal=journal, collect_workers=workers),
                campaign)

    def assert_same_result(self, left, right):
        assert left.per_vantage == right.per_vantage
        assert [
            (d, [c.fingerprint for c in chain])
            for d, chain in left.observations
        ] == [
            (d, [c.fingerprint for c in chain])
            for d, chain in right.observations
        ]
        assert left.reachable_counts == right.reachable_counts
        assert left.degraded_vantages == right.degraded_vantages

    def test_records_and_observations_match(self, ecosystem):
        direct, _ = self.collect(ecosystem)
        replay_one, _ = self.collect(ecosystem, workers=1)
        replay_fork, _ = self.collect(ecosystem, workers=4)
        self.assert_same_result(replay_one, direct)
        self.assert_same_result(replay_fork, direct)

    def test_journal_bytes_match(self, ecosystem, tmp_path):
        paths = {}
        for tag, workers in (("direct", None), ("one", 1), ("fork", 4)):
            path = tmp_path / f"{tag}.jsonl"
            with RunJournal.open(path, Campaign(ecosystem).manifest()
                                 ) as journal:
                self.collect(ecosystem, workers=workers, journal=journal)
            paths[tag] = path.read_bytes()
        assert paths["one"] == paths["direct"]
        assert paths["fork"] == paths["direct"]

    def test_scan_metrics_match_across_worker_counts(self, ecosystem):
        """Deterministic metric families are identical for N=1 vs N=4;
        only the real-time ``phase.*`` timers may differ."""
        obs.disable()

        def totals(workers):
            with obs.instrumented() as (registry, _):
                self.collect(ecosystem, workers=workers)
                snapshot = registry.snapshot()
                return {
                    name: registry.total(name)
                    for name, family in snapshot.items()
                    if family["type"] == "counter"
                    and not name.startswith("phase.")
                }

        one = totals(1)
        fork = totals(4)
        obs.disable()
        assert fork == one
        assert one["collect.probe.scans"] > 0

    def test_rate_limit_bound_holds_under_sharded_probing(
        self, ecosystem, domains
    ):
        """The 500 KB/s per-vantage cap is consumed only in the
        sequential replay, so sharding the probe phase cannot relax
        it."""
        network = ecosystem.install()
        table, stats = probe_collection(network, VANTAGES, domains,
                                        workers=4)
        assert stats.mode == "fork-pool"
        scanner = Scanner(network, VANTAGE_US)
        scanner.scan(domains, probes=table)
        assert scanner.bucket.rate == RATE_LIMIT_BYTES_PER_SECOND
        observed = scanner.bucket.observed_rate()
        cap = scanner.bucket.rate
        assert observed <= cap + cap / max(network.clock.now(), 1e-9)


@pytest.mark.usefixtures("forced_fork")
class TestChaosParity:
    """Direct sweep vs collect_workers=N under an active FaultPlan:
    byte-identical journals and identical degraded-vantage sets."""

    def faulted_collect(self, ecosystem, tmp_path, tag, *,
                        workers=None, outage=False):
        campaign = fresh_campaign(ecosystem)
        network = campaign.network
        domains = [d.domain for d in ecosystem.deployments]
        plan = (FaultPlan(seed=99)
                .flaky_host(domains[3], 0.5)
                .truncate_handshakes(domains[5], 0.4)
                .fail_next_connects(domains[7], 2)
                .latency_spike(VANTAGE_AU, 0.0, 5.0, 8.0))
        if outage:
            plan.vantage_outage(VANTAGE_AU, 0.0)
        network.set_fault_plan(plan)
        path = tmp_path / f"chaos-{tag}.jsonl"
        kwargs = {"retry_policy": RetryPolicy(retries=2, base_delay=0.05),
                  "breaker_threshold": 5}
        with RunJournal.open(path, campaign.manifest()) as journal:
            if workers is None:
                result = direct_collect(campaign, journal=journal, **kwargs)
            else:
                result = campaign.collect(journal=journal,
                                          collect_workers=workers, **kwargs)
        return result, path.read_bytes(), dict(plan.injected)

    def test_fault_plan_journal_bytes_identical(self, ecosystem,
                                                tmp_path):
        direct, direct_bytes, direct_injected = self.faulted_collect(
            ecosystem, tmp_path, "direct",
        )
        for tag, workers in (("one", 1), ("fork", 4)):
            result, journal_bytes, injected = self.faulted_collect(
                ecosystem, tmp_path, tag, workers=workers,
            )
            assert journal_bytes == direct_bytes
            assert injected == direct_injected
            assert result.per_vantage == direct.per_vantage
            assert result.degraded_vantages == direct.degraded_vantages

    def test_vantage_outage_degrades_identically(self, ecosystem,
                                                 tmp_path):
        direct, direct_bytes, _ = self.faulted_collect(
            ecosystem, tmp_path, "direct-out", outage=True,
        )
        fork, fork_bytes, _ = self.faulted_collect(
            ecosystem, tmp_path, "fork-out", workers=4, outage=True,
        )
        assert direct.degraded_vantages  # the outage actually bit
        assert fork.degraded_vantages == direct.degraded_vantages
        assert fork_bytes == direct_bytes
