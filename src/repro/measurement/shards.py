"""Sharded streaming campaigns: bounded-memory collect → analyse.

A whole-corpus :meth:`~repro.measurement.campaign.Campaign.collect`
holds every :class:`~repro.net.scanner.ScanRecord` — and through them
every certificate chain — in memory at once, then hands the full union
to :meth:`~repro.measurement.campaign.Campaign.analyze`.  At paper
scale (~10M domains in the original study) that peak is the limiting
resource, not CPU.  :func:`run_sharded` partitions the domain
population into contiguous shards of ``shard_size`` and streams
*collect → analyse* per shard, releasing each shard's records and
chains once its verdicts are journaled and folded into the running
:class:`~repro.core.report.DatasetReport`.  Peak memory is bounded by
the shard size, not the population.  It is the CLI's only network
pipeline: ``scan --simulate-network`` without ``--shard-size`` runs a
single shard of the whole population.

Equivalence guarantees (pinned by ``tests/measurement/test_shards.py``):

* The final :class:`~repro.core.report.DatasetReport`, the rendered
  tables, and every per-domain verdict are **byte-identical** to an
  unsharded run for any shard size.  Three properties make this hold:

  - the union merge is *prefix-decomposable* — ``_merge_union``
    iterates domain-major, so the union of a contiguous shard is the
    matching slice of the whole-corpus union;
  - :meth:`DatasetReport.merge` folds per-shard aggregates in shard
    order into exactly the whole-corpus aggregate;
  - the simulated network keys every RTT/flakiness draw by
    (vantage, host, connect ordinal), so splitting the sweep does not
    perturb any other domain's scan.

* The journal holds the **same events with the same content** — the
  same scans, verdicts, degradations, and one ``collection`` event —
  merely interleaved per shard and punctuated by ``shard`` boundary
  events.  A run report built from either journal renders
  byte-identically (the report builder is order-insensitive).

* Scan *durations* stay identical because the per-vantage
  :class:`~repro.net.scanner.Scanner` (and with it the rate-limit
  bucket and circuit breaker) persists across shards: the sharded
  sweep is the same continuous per-vantage scan, merely chunked.

Caveats — where sharding is *not* transparent:

* Probabilistic :class:`~repro.net.faults.FaultPlan` draws
  (``flaky``, ``fail_next`` …) consume a plan-global RNG stream, so a
  plan that rolls dice is sensitive to global scan order and will not
  reproduce byte-identically across shard sizes.  Deterministic plan
  rules (``vantage_outage``, windowed latency) are order-free and
  propagate degradation identically.
* A tripped circuit breaker's half-open probe windows depend on
  wall-clock spacing, which interleaving changes; degraded-vantage
  *outcomes* still match for outages that never recover.

Resume: each completed shard is recorded as a ``shard`` event after
its verdicts.  ``run_sharded`` on a resumed journal folds the
contiguous prefix of completed shards straight out of the journal —
no re-scan, no re-analysis — and re-runs only the first incomplete
shard (its journaled scans and verdicts dedup as usual) and everything
after it.  The final report is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.compliance import ChainComplianceReport
from repro.core.report import DatasetReport, aggregate
from repro.measurement.campaign import Campaign, CollectSweep
from repro.measurement.parallel import VerdictCache
from repro.net.scanner import RetryPolicy
from repro.obs.journal import RunJournal
from repro.obs.probe import phase_scope
from repro.trust.aia import AIAFetcher
from repro.trust.rootstore import RootStore
from repro.webpki.ecosystem import VANTAGE_AU, VANTAGE_US

_log = obs.get_logger("measurement.shards")


def shard_bounds(population: int, shard_size: int
                 ) -> list[tuple[int, int, int]]:
    """Contiguous ``(index, start, stop)`` shard boundaries.

    The last shard is short when ``shard_size`` does not divide the
    population; a shard size at or above the population yields a
    single shard (the unsharded layout, plus one boundary event).
    """
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    return [
        (index, start, min(start + shard_size, population))
        for index, start in enumerate(range(0, population, shard_size))
    ]


@dataclass(frozen=True)
class ShardStats:
    """One shard's slice of the run, live or folded from the journal."""

    index: int
    start: int
    stop: int
    #: union observations this shard contributed
    observations: int
    #: True when the shard was folded from a resumed journal instead
    #: of being scanned and analysed live
    resumed: bool = False


@dataclass
class ShardedRunResult:
    """What a sharded campaign produced.

    Unlike :class:`~repro.measurement.campaign.CollectionResult` this
    carries no records or chains — holding them would defeat the
    bounded-memory point — only the merged report and the same
    summary accounting the unsharded pipeline reports.
    """

    report: DatasetReport
    domains: int
    total_observations: int
    unique_chains: int
    unique_certificates: int
    reachable_counts: dict[str, int]
    #: finished scans per vantage (successes + failures), *including*
    #: shards folded from a resumed journal — the live metrics only
    #: cover re-run shards, so resumed-aware reachability reporting
    #: must read these counts rather than the registry snapshot
    attempted_counts: dict[str, int] = field(default_factory=dict)
    degraded_vantages: dict[str, str] = field(default_factory=dict)
    shards: list[ShardStats] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_vantages)

    @property
    def resumed_shards(self) -> int:
        return sum(1 for shard in self.shards if shard.resumed)


def _completed_prefix(bounds, recorded: set) -> int:
    """How many leading shards the resumed journal already completed.

    ``recorded`` holds the journal's ``shard`` events as
    ``(index, start, stop)``.  Only a *contiguous* prefix counts: a
    ``shard`` event is written after its verdicts, so shard k present
    ⇒ shards 0..k-1 present under normal operation; anything after a
    gap is re-run (its journaled scans/verdicts dedup, so no double
    work or double events).
    """
    completed = 0
    for shard in bounds:
        if shard not in recorded:
            break
        completed += 1
    return completed


def _fold_completed(dataset: DatasetReport, events, completed: int,
                    bounds, domains, sweep: CollectSweep,
                    unique_chain_hexes: set, unique_cert_hexes: set
                    ) -> list[ShardStats]:
    """Reconstruct the completed-shard prefix from the ordered journal.

    Verdict events land in union-observation order and each shard's
    group ends at its ``shard`` boundary event, so splitting the
    ordered event list at boundaries recovers exactly the per-shard
    verdict sequences; folding them in journal order reproduces the
    live merge byte for byte.  Scan events are folded by domain index
    (each domain belongs to exactly one shard), rebuilding the
    per-vantage attempt/success accounting the degradation rule needs.
    """
    domain_index = {domain: i for i, domain in enumerate(domains)}
    completed_stop = bounds[completed - 1][2] if completed else 0
    shards: list[ShardStats] = []
    shard_iter = iter(bounds)
    current = next(shard_iter)
    group: list[ChainComplianceReport] = []
    for event in events:
        kind = event.get("type")
        if kind == "scan":
            if (event.get("vantage") in sweep.vantages
                    and domain_index.get(event.get("domain"), -1)
                    < completed_stop):
                vantage = event["vantage"]
                sweep.attempted[vantage] += 1
                if event.get("success"):
                    sweep.successes[vantage] += 1
        elif kind == "verdict":
            if len(shards) < completed:
                group.append(
                    ChainComplianceReport.from_dict(event["report"])
                )
                unique_chain_hexes.add(tuple(event["chain_key"]))
                unique_cert_hexes.update(event["chain_key"])
        elif kind == "shard" and len(shards) < completed:
            index, start, stop = current
            dataset.merge(aggregate(group))
            shards.append(ShardStats(
                index=index, start=start, stop=stop,
                observations=len(group), resumed=True,
            ))
            group = []
            current = next(shard_iter, None)
            if len(shards) == completed:
                break
    return shards


def run_sharded(
    campaign: Campaign,
    shard_size: int,
    *,
    vantages: tuple[str, ...] = (VANTAGE_US, VANTAGE_AU),
    journal: RunJournal | None = None,
    progress_factory=None,
    retry_policy: RetryPolicy | None = None,
    breaker_threshold: int | None = None,
    breaker_probe_interval: float = 300.0,
    collect_workers: int = 0,
    workers: int = 0,
    cache=None,
    verdict_store=None,
    store: RootStore | None = None,
    fetcher: AIAFetcher | None = None,
    snapshot_writer=None,
    status=None,
    live_view=None,
    observation_sink=None,
) -> ShardedRunResult:
    """Stream the campaign shard by shard with bounded peak memory.

    This is the campaign's one collect → merge → analyse pipeline; an
    unsharded run is a single shard (``shard_size`` at or above the
    population).  Every shard runs the same
    :class:`~repro.measurement.campaign.CollectSweep` as
    :meth:`Campaign.collect`, then :meth:`Campaign.analyze`.

    Parameters mirror :meth:`Campaign.collect` /
    :meth:`Campaign.analyze`; ``workers``/``collect_workers`` size
    the probe and analyse phases *within* each shard, and
    ``progress_factory`` is called once per vantage per shard.  A
    shared :class:`~repro.measurement.parallel.VerdictCache` is created
    when ``workers`` is set and none is passed, so chain-dedup hit
    rates match an unsharded run; without one each shard dedups on its
    own and the cache never outgrows a shard.  ``verdict_store`` (a
    :class:`~repro.measurement.store.VerdictStore`) backs that cache
    persistently, exactly as in :meth:`Campaign.analyze` — shards of a
    warm run resolve their chains from the store instead of
    re-analysing them.

    ``observation_sink``, when given, is called with each shard's union
    observations in shard order, before they are analysed and
    released; because the merge is prefix-decomposable the
    concatenation is the whole-corpus union for any shard size.  Shards
    folded from a resumed journal have no chains to hand over, so with
    a sink every shard is re-run (its journaled events dedup).

    ``status`` phases are shard-scoped — ``collect.shard.K`` counting
    scans, ``analyze.shard.K`` counting verdicts — as are the
    ``collect.shard.K``/``analyze.shard.K`` ``phase_scope`` resource
    metrics, around the sweep's own ``collect``, ``collect.probe`` and
    ``collect.scan.<vantage>`` scopes and the analysis's ``analyze``.
    """
    tracer = obs.get_tracer()
    domains = [d.domain for d in campaign.ecosystem.deployments]
    bounds = shard_bounds(len(domains), shard_size)
    store = store or campaign.ecosystem.registry.union()
    fetcher = (fetcher if fetcher is not None
               else campaign.ecosystem.aia_repo)
    if cache is None and (workers or verdict_store is not None):
        cache = VerdictCache(backing=verdict_store)
    sweep = CollectSweep(
        campaign._ensure_network(), vantages, journal=journal,
        progress_factory=progress_factory, retry_policy=retry_policy,
        breaker_threshold=breaker_threshold,
        breaker_probe_interval=breaker_probe_interval,
        collect_workers=collect_workers,
        status=status, live_view=live_view,
    )

    dataset = DatasetReport()
    shards: list[ShardStats] = []
    unique_chain_hexes: set[tuple[str, ...]] = set()
    unique_cert_hexes: set[str] = set()
    recorded: set[tuple[int, int, int]] = set()
    completed = 0
    if journal is not None:
        ordered = journal.events()
        recorded = {
            (event.get("index"), event.get("start"), event.get("stop"))
            for event in ordered if event.get("type") == "shard"
        }
        if observation_sink is None:
            completed = _completed_prefix(bounds, recorded)
        if completed:
            shards = _fold_completed(
                dataset, ordered, completed, bounds, domains, sweep,
                unique_chain_hexes, unique_cert_hexes,
            )
            _log.info("shards.resumed", completed=completed,
                      observations=sum(s.observations for s in shards))

    def run_shard(index: int, start: int, stop: int) -> int:
        """Collect, merge, and analyse one shard; returns the union
        observation count.  Everything per-shard — records, chains,
        per-chain reports — lives only in this frame, so it is
        released as soon as the shard's aggregate is merged."""
        with phase_scope(f"collect.shard.{index}"):
            per_vantage, (chain_keys, observations, all_certs) = sweep.run(
                domains[start:stop], f"collect.shard.{index}"
            )
            unique_chain_hexes.update(
                tuple(fp.hex() for fp in key) for key in chain_keys
            )
            unique_cert_hexes.update(fp.hex() for fp in all_certs)
            del per_vantage, chain_keys, all_certs
        if observation_sink is not None:
            observation_sink(observations)
        with phase_scope(f"analyze.shard.{index}"):
            if status is not None:
                status.begin_phase(f"analyze.shard.{index}",
                                   len(observations))
            shard_report, _ = campaign.analyze(
                observations, store=store, fetcher=fetcher,
                journal=journal, snapshot_writer=snapshot_writer,
                workers=workers, cache=cache, verdict_store=verdict_store,
                status=status, live_view=live_view,
            )
            dataset.merge(shard_report)
        return len(observations)

    with phase_scope("run.sharded"), \
            tracer.span("campaign.run_sharded", domains=len(domains),
                        shard_size=shard_size, shards=len(bounds)):
        for index, start, stop in bounds[completed:]:
            with tracer.span("campaign.shard", index=index,
                             domains=stop - start):
                count = run_shard(index, start, stop)
            shards.append(ShardStats(
                index=index, start=start, stop=stop,
                observations=count,
            ))
            if journal is not None and (index, start, stop) not in recorded:
                journal.record("shard", index=index, start=start,
                               stop=stop, observations=count)
            _log.info("shards.completed", index=index,
                      start=start, stop=stop, observations=count)
        total_observations = sum(shard.observations for shard in shards)
        degraded_vantages = sweep.finish(
            domains=len(domains), observations=total_observations,
            unique_chains=len(unique_chain_hexes),
            unique_certificates=len(unique_cert_hexes),
        )
    return ShardedRunResult(
        report=dataset,
        domains=len(domains),
        total_observations=total_observations,
        unique_chains=len(unique_chain_hexes),
        unique_certificates=len(unique_cert_hexes),
        reachable_counts={
            vantage: sweep.successes[vantage] for vantage in vantages
        },
        attempted_counts={
            vantage: sweep.attempted[vantage] for vantage in vantages
        },
        degraded_vantages=degraded_vantages,
        shards=shards,
    )
