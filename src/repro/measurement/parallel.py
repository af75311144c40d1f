"""Deduplicating, parallel execution of the compliance analyse phase.

The paper's corpus has far fewer *unique* chains than observations —
every domain reachable from both vantage points appears twice in the
raw scan stream, almost always serving the byte-identical chain — so
re-running the full Section 3.1 analysis per observation wastes most
of the analyse phase.  This module is the corpus-scale execution
layer behind ``Campaign.analyze``:

1. **Chain dedup.**  Observations are keyed by the tuple of certificate
   fingerprints; one :class:`~repro.core.compliance.ChainComplianceReport`
   is computed per unique chain and fanned back out to every
   observation.  The cache key includes the root-store digest because
   R3 completeness depends on the trust anchors; only R1 leaf placement
   depends on the queried domain, and
   :func:`~repro.core.compliance.rebind_for_domain` recomputes exactly
   that on a cross-domain hit.
2. **One executor.**  Unique chains are analysed in contiguous spans by
   :func:`repro.measurement.executor.run_spans`: inline for one worker,
   across fork-started workers otherwise.  Spans are merged in order,
   so results — and therefore the aggregated
   :class:`~repro.core.report.DatasetReport` and every journal line —
   are byte-identical for any worker count.  The pool is capped at
   ``os.cpu_count()`` (see :func:`~repro.measurement.executor.resolve_workers`).
3. **Journal parity.**  Verdicts append in first-occurrence order with
   the same (domain, chain_key, report) payloads for any worker
   count; observations whose verdict the journal already holds resume
   exactly as before.  Workers pre-encode their journal lines
   (:func:`repro.obs.journal.encode_verdict_event`) so the parent's
   append path is a buffered write, not a re-serialisation.

The relation predicate memo (:func:`repro.core.relation.memoized`) is
enabled for the duration of the analyse spans — topology construction
is quadratic in issuance-relation checks and shared intermediates make
the memo hit rate high — and forked workers inherit it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.core import relation
from repro.core.compliance import (
    ChainComplianceReport,
    analyze_chain,
    rebind_for_domain,
    record_outcome,
)
from repro.measurement.executor import (
    OVERSUBSCRIBE_ENV,
    resolve_workers,
    run_spans,
)
from repro.obs.journal import RunJournal, encode_verdict_event
from repro.obs.probe import phase_scope
from repro.trust.aia import AIAFetcher
from repro.trust.rootstore import RootStore
from repro.x509 import Certificate

__all__ = [
    "OVERSUBSCRIBE_ENV",
    "PipelineStats",
    "VerdictCache",
    "analyze_observations",
    "chain_key",
    "chain_key_hex",
    "resolve_workers",
]

_log = obs.get_logger("measurement.parallel")

#: A chain's identity: the ordered tuple of certificate fingerprints.
ChainKey = tuple[bytes, ...]

#: Span size cap: big enough to amortise IPC, small enough to balance
#: load across workers on mid-sized corpora.
DEFAULT_SPAN = 256


def chain_key(chain: list[Certificate]) -> ChainKey:
    """The dedup identity of a served chain (order-sensitive)."""
    return tuple(cert.fingerprint for cert in chain)


def chain_key_hex(chain: list[Certificate]) -> tuple[str, ...]:
    """The journal form of a chain identity: fingerprint hexes."""
    return tuple(cert.fingerprint_hex for cert in chain)


# ----------------------------------------------------------------------
# Verdict cache
# ----------------------------------------------------------------------

@dataclass
class VerdictCache:
    """Cross-phase cache of per-chain analysis results.

    Compliance reports are keyed on ``(chain_key, root_store_digest)``:
    the same byte-identical chain evaluated against the same trust
    anchors always yields the same R2 order and R3 completeness
    verdicts, and a cross-domain hit only needs the R1 leaf
    classification recomputed (``rebind_for_domain``).  Differential
    client outcomes are keyed on ``(domain, chain_key)`` instead —
    client validation is name-sensitive end to end.

    One cache instance can serve a whole CLI invocation (analyse, then
    ``differential``, then ``explain``), which is what the
    ``--workers``/cache plumbing in ``repro.cli`` does.

    ``backing`` (a :class:`~repro.measurement.store.VerdictStore`)
    extends report lookups across process lifetimes: a miss probes the
    store (promoting a hit into memory, so decoding happens once per
    unique chain per run) and every fresh report is written through.
    Cross-domain R1 rebinding stays in-process — the store holds one
    report per (chain, trust anchors) and ``rebind_for_domain``
    recomputes leaf placement for whichever domain served it.  All
    cache calls happen in the parent process (the pool plan and fan-out
    passes), so the store keeps a single writer under any worker count.
    """

    hits: int = 0
    misses: int = 0
    outcome_hits: int = 0
    outcome_misses: int = 0
    _reports: dict[tuple[ChainKey, str], ChainComplianceReport] = field(
        default_factory=dict, repr=False
    )
    _outcomes: dict[tuple[str, ChainKey], Any] = field(
        default_factory=dict, repr=False
    )
    #: optional persistent VerdictStore backing the report side
    backing: Any | None = None

    @staticmethod
    def _hex(key: ChainKey) -> tuple[str, ...]:
        return tuple(fingerprint.hex() for fingerprint in key)

    # -- compliance reports (keyed on chain + trust anchors) -----------

    def report_for(self, key: ChainKey,
                   store_digest: str) -> ChainComplianceReport | None:
        report = self._reports.get((key, store_digest))
        if report is None and self.backing is not None:
            report = self.backing.get_report(self._hex(key), store_digest)
            if report is not None:
                self._reports[(key, store_digest)] = report
        if report is None:
            self.misses += 1
        else:
            self.hits += 1
        return report

    def store_report(self, key: ChainKey, store_digest: str,
                     report: ChainComplianceReport, *,
                     report_json: str | None = None) -> None:
        """Cache (and write through) one fresh report.

        ``report_json`` is an optional pre-serialised ``to_json`` of
        the same report: pool workers serialise in parallel so the
        parent's write-through is a buffered append instead of a fresh
        encode.
        """
        self._reports[(key, store_digest)] = report
        if self.backing is not None:
            self.backing.put_report(self._hex(key), store_digest, report,
                                    report_json=report_json)

    def has_report(self, key: ChainKey, store_digest: str) -> bool:
        """Membership probe that does not touch the hit/miss counters."""
        if (key, store_digest) in self._reports:
            return True
        return (self.backing is not None
                and self.backing.has_report(self._hex(key), store_digest))

    # -- differential outcomes (keyed on domain + chain) ---------------

    def outcome_for(self, domain: str, key: ChainKey) -> Any | None:
        outcome = self._outcomes.get((domain, key))
        if outcome is None:
            self.outcome_misses += 1
        else:
            self.outcome_hits += 1
        return outcome

    def store_outcome(self, domain: str, key: ChainKey,
                      outcome: Any) -> None:
        self._outcomes[(domain, key)] = outcome

    # -- stats ---------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Report-cache hit share of all lookups (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._reports) + len(self._outcomes)


@dataclass(frozen=True)
class PipelineStats:
    """What one :func:`analyze_observations` run did, for logs/benches."""

    observations: int
    unique_chains: int
    analyzed: int
    resumed: int
    cache_hits: int
    requested_workers: int
    effective_workers: int
    mode: str  # "in-process" | "fork-pool"

    @property
    def hit_rate(self) -> float:
        """Share of observations resolved without a fresh analysis."""
        if not self.observations:
            return 0.0
        return (self.cache_hits + self.resumed) / self.observations


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

def analyze_observations(
    observations: list[tuple[str, list[Certificate]]],
    *,
    store: RootStore,
    fetcher: AIAFetcher | None = None,
    workers: int = 1,
    cache: VerdictCache | None = None,
    journal: RunJournal | None = None,
    snapshot_writer=None,
    status=None,
    live_view=None,
) -> tuple[list[ChainComplianceReport], PipelineStats]:
    """Analyse a corpus with chain dedup across :func:`run_spans`.

    Plan → analyse → fan out.  The plan classifies every observation
    in order: resumed from the journal, a repeat of a (domain, chain)
    pair already verdicted this run, resolvable from the cache (or its
    persistent store), or a fresh unique chain.  The executor analyses
    the fresh chains in contiguous spans (in-process for one worker,
    forked otherwise).  The fan-out walks the plan again, so journal
    appends, metric ticks, cache writes, and the report list are
    sequenced exactly as a one-observation-at-a-time loop sequences
    them, and cache hit/miss counts are the same for any worker count.

    The returned report list is index-aligned with ``observations``;
    journaled runs append one verdict event per new (domain,
    chain_key) pair, resume observations the journal already covers,
    and count them in ``campaign.chains_resumed``;
    ``campaign.chains_analyzed`` ticks once per observation.

    ``status`` (a :class:`~repro.obs.server.RunStatus`) advances once
    per observation — fresh chains as their span completes, the rest
    during the fan-out; ``live_view`` (a
    :class:`~repro.obs.server.LiveRegistryView`) receives forked
    workers' partial snapshots.  Both are pure read-side telemetry.
    """
    cache = cache if cache is not None else VerdictCache()
    digest = store.digest()
    journaled = journal is not None
    persist = cache.backing is not None
    metrics = obs.get_metrics()
    throughput = metrics.counter("campaign.chains_analyzed")
    effective, mode = resolve_workers(workers)

    # -- plan -----------------------------------------------------------
    # entry: (kind, domain, chain, key, hexkey, payload) — payload is the
    # journal record (RESUMED), the cached report (HIT, or None when the
    # chain's report lands in the cache earlier in the fan-out), or the
    # pending index (FRESH)
    RESUMED, PAIR_DUP, HIT, FRESH = range(4)
    plan: list[tuple] = []
    pending: list[tuple[str, list[Certificate], tuple[str, ...]]] = []
    known: set[ChainKey] = set()  # cached by the time the fan-out is here
    seen_pairs: set[tuple[str, ChainKey]] = set()
    unique: set[ChainKey] = set()
    resumed = 0

    for domain, chain in observations:
        key = chain_key(chain)
        unique.add(key)
        hexkey = ()
        if journaled:
            pair = (domain, key)
            if pair in seen_pairs:
                plan.append((PAIR_DUP, domain, chain, key, hexkey, None))
                resumed += 1
                continue
            seen_pairs.add(pair)
            hexkey = chain_key_hex(chain)
            recorded = journal.verdict_for(domain, hexkey)
            if recorded is not None:
                plan.append((RESUMED, domain, chain, key, hexkey, recorded))
                known.add(key)
                resumed += 1
                continue
        if key in known:
            plan.append((HIT, domain, chain, key, hexkey, None))
            continue
        cached = cache.report_for(key, digest)
        if cached is not None:
            plan.append((HIT, domain, chain, key, hexkey, cached))
        else:
            plan.append((FRESH, domain, chain, key, hexkey, len(pending)))
            pending.append((domain, chain, hexkey))
            known.add(key)

    # -- analyse fresh unique chains --------------------------------------
    def analyze_span(start: int, end: int, tick) -> list[tuple]:
        """``(report, encoded_line, report_json)`` per pending chain:
        the journal line and the store payload are encoded here, so a
        pool pays for them in parallel instead of in the fan-out."""
        results = []
        with phase_scope("analyze.worker"), \
                obs.get_tracer().span("analyze.span", start=start,
                                      chains=end - start):
            for domain, chain, hexkey in pending[start:end]:
                report = analyze_chain(domain, chain, store, fetcher)
                results.append((
                    report,
                    encode_verdict_event(domain, hexkey, report)
                    if journaled else None,
                    report.to_json() if persist else None,
                ))
                tick()
        return results

    fresh: list[tuple] = []
    with relation.memoized():
        for _, _, results in run_spans(analyze_span, len(pending),
                                       effective, DEFAULT_SPAN, live_view):
            fresh.extend(results)
            if status is not None:
                status.advance(len(results))

    # -- fan out in observation order -------------------------------------
    reports: list[ChainComplianceReport] = []
    run_reports: dict[tuple[str, ChainKey], ChainComplianceReport] = {}
    analyzed = cache_hits = 0

    for kind, domain, chain, key, hexkey, payload in plan:
        line = None
        if kind == RESUMED:
            report = ChainComplianceReport.from_dict(payload)
            cache.store_report(key, digest, report)
        elif kind == PAIR_DUP:
            report = run_reports[(domain, key)]
        elif kind == FRESH:
            report, line, report_json = fresh[payload]
            analyzed += 1
            cache.store_report(key, digest, report, report_json=report_json)
        else:  # HIT
            cached = (payload if payload is not None
                      else cache.report_for(key, digest))
            report = rebind_for_domain(cached, domain, chain)
            cache_hits += 1
            record_outcome(report)
        if journaled and kind != PAIR_DUP:
            if kind != RESUMED:
                journal.record_verdict(domain, hexkey, report, encoded=line)
            run_reports[(domain, key)] = report
        reports.append(report)
        throughput.inc()
        if status is not None and kind != FRESH:
            status.advance()  # FRESH advanced as its span completed
        if snapshot_writer is not None:
            snapshot_writer.tick()

    stats = PipelineStats(
        observations=len(reports), unique_chains=len(unique),
        analyzed=analyzed, resumed=resumed, cache_hits=cache_hits,
        requested_workers=workers, effective_workers=effective, mode=mode,
    )
    if stats.resumed:
        metrics.counter("campaign.chains_resumed").inc(stats.resumed)
    if stats.cache_hits:
        metrics.counter("campaign.cache_hits").inc(stats.cache_hits)
    if journaled:
        journal.flush()
    _log.info(
        "pipeline.analyzed", observations=stats.observations,
        unique_chains=stats.unique_chains, analyzed=stats.analyzed,
        resumed=stats.resumed, cache_hits=stats.cache_hits,
        workers=stats.effective_workers, mode=stats.mode,
    )
    return reports, stats
