"""Parallel collection: probe workers + deterministic sequential replay.

The collection phase dominates a real campaign's wall-clock, but its
expensive part — the TLS exchange, PEM decode, and fingerprint hashing
per (vantage, domain) — is *pure*: it depends only on the installed
topology, never on the simulated clock, the network RNG, or the fault
plan.  Everything order-dependent (RTT draws, clock advances, fault
counters, token-bucket waits, breaker state) is cheap.  So instead of
trying to parallelise the stateful scan loop itself — which would
interleave RNG draws and clock advances nondeterministically — the
pipeline splits collection in two:

1. **Probe phase (parallel).**  Every statically reachable
   (vantage, domain) unit gets a
   :class:`~repro.net.tls.HandshakeProbe`: the handler's answer
   (negotiated version, decoded chain, wire size, or the deterministic
   protocol failure), computed without touching clock, RNG, or fault
   plan.  Units run in contiguous spans through the shared executor
   (:func:`repro.measurement.executor.run_spans`: inline for one
   worker, forked otherwise); chains are decoded once per unique
   server flight (both vantages almost always share it) and shipped
   back with fingerprints pre-hashed.
2. **Replay phase (sequential, in
   :class:`~repro.measurement.campaign.CollectSweep`).**  The
   ordinary per-vantage sweep runs unchanged, but each
   :meth:`Scanner.scan_domain` replays its probe instead of calling
   the handler: the *real* ``network.connect`` still performs the RNG
   draw, clock advance, fault-plan consultation, and truncation check
   in exactly the legacy order, then the probe supplies the answer the
   handler would have produced.  Retries, rate limiting, and breaker
   transitions all happen in the replay, against the one shared clock.

Because the replay performs every order-dependent effect in the
sequential order, ``CollectionResult``, journal events, scan metrics,
and reports are byte-identical to a direct per-vantage sweep for *any*
worker count — including under an active :class:`~repro.net.simnet.FaultPlan`
(the chaos-parity tests pin this).  The per-vantage 500 KB/s token
bucket is likewise consumed only in the replay, so the ethics bound
holds under sharding by construction.  See docs/PERFORMANCE.md,
"Parallel collection".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.measurement.executor import resolve_workers, run_spans
from repro.net.simnet import SimulatedNetwork
from repro.net.tls import (
    DEFAULT_PORT,
    TLS12,
    HandshakeProbe,
    probe_handshake,
)
from repro.obs.probe import phase_scope
from repro.x509 import Certificate

__all__ = [
    "CollectStats",
    "ProbeTable",
    "probe_collection",
]

_log = obs.get_logger("measurement.parallel_collect")

#: ``(vantage, domain) -> HandshakeProbe`` for every statically
#: reachable unit of a campaign.
ProbeTable = dict[tuple[str, str], HandshakeProbe]

#: Span size cap for probe sharding.  Probes are cheaper than chain
#: analyses, so spans run larger than the analyse pipeline's to keep
#: IPC amortised.
PROBE_SPAN = 512


@dataclass(frozen=True)
class CollectStats:
    """What one :func:`probe_collection` run did, for logs/benches."""

    units: int
    probed: int
    #: statically unreachable units that got no probe (the replay's
    #: connect fails for them before any exchange, live or replayed)
    skipped_unreachable: int
    #: server flights actually decoded (fork mode: summed per worker,
    #: so the count depends on sharding; in-process: the true number
    #: of unique flights)
    unique_flights: int
    requested_workers: int
    effective_workers: int
    mode: str  # "in-process" | "fork-pool"


# ----------------------------------------------------------------------
# Span payloads
# ----------------------------------------------------------------------

def _encode_span(probes: list[HandshakeProbe | None]) -> tuple:
    """Strip a span's probes for IPC: chains deduped into one list.

    Both vantages of a host share the server's cached flight, so a
    span covering the same domains from two vantages would otherwise
    pickle every chain twice; shipping each distinct chain tuple once
    roughly halves the unpickle cost on the parent.
    """
    chains: list[tuple[Certificate, ...]] = []
    refs: dict[int, int] = {}
    entries = []
    for probe in probes:
        if probe is None:
            entries.append(None)
            continue
        ref = -1
        if probe.chain:
            ref = refs.get(id(probe.chain))
            if ref is None:
                ref = len(chains)
                refs[id(probe.chain)] = ref
                chains.append(probe.chain)
        entries.append((probe.domain, probe.kind, probe.version,
                        probe.wire_bytes, probe.message, ref))
    return entries, chains


def _decode_span(payload: tuple, port: int) -> list[HandshakeProbe | None]:
    entries, chains = payload
    probes: list[HandshakeProbe | None] = []
    for entry in entries:
        if entry is None:
            probes.append(None)
            continue
        domain, kind, version, wire_bytes, message, ref = entry
        probes.append(HandshakeProbe(
            domain=domain, port=port, kind=kind, version=version,
            chain=chains[ref] if ref >= 0 else (),
            wire_bytes=wire_bytes, message=message,
        ))
    return probes


def _probe_one(network: SimulatedNetwork, vantage: str, domain: str,
               versions: tuple[str, ...], port: int, memo: dict,
               metrics) -> HandshakeProbe | None:
    """One unit: a probe, or None for a statically unreachable host."""
    if not network.is_reachable(vantage, domain):
        metrics.counter("collect.probe.skipped", vantage=vantage).inc()
        return None
    probe = probe_handshake(network, vantage, domain, versions=versions,
                            port=port, memo=memo)
    metrics.counter("collect.probe.scans", vantage=vantage).inc()
    return probe


# ----------------------------------------------------------------------
# The probe phase
# ----------------------------------------------------------------------

def probe_collection(
    network: SimulatedNetwork,
    vantages: tuple[str, ...],
    domains: list[str],
    *,
    versions: tuple[str, ...] = (TLS12,),
    port: int = DEFAULT_PORT,
    workers: int = 1,
    live_view=None,
) -> tuple[ProbeTable, CollectStats]:
    """Probe every (vantage, domain) unit through :func:`run_spans`.

    The returned table feeds :meth:`Scanner.scan` (via
    :class:`~repro.measurement.campaign.CollectSweep`'s
    ``collect_workers``); its contents are a
    pure function of the installed topology, so worker count and span
    boundaries cannot change it — only how fast it is built.

    ``live_view`` receives the fork workers' periodic partial
    snapshots: read-side telemetry only.
    """
    # Domain-major: a domain's vantage units sit adjacent, so they land
    # in the same span and the second one reuses the first's decoded
    # flight instead of re-decoding it in another worker.
    units = [(vantage, domain) for domain in domains
             for vantage in vantages]
    effective, mode = resolve_workers(workers)
    # Flight-decode memo keyed by flight object id; a forked worker
    # inherits it empty and fills its own copy across its spans.
    memo: dict[int, tuple[Certificate, ...]] = {}

    def probe_span(start: int, end: int, tick) -> tuple:
        """``(payload, decoded)``: the span's probes encoded for IPC,
        and how many flights this span decoded into the memo."""
        metrics = obs.get_metrics()
        memo_before = len(memo)
        probes: list[HandshakeProbe | None] = []
        with phase_scope("collect.probe.worker"), \
                obs.get_tracer().span("collect.probe.span", start=start,
                                      units=end - start):
            for vantage, domain in units[start:end]:
                probes.append(_probe_one(network, vantage, domain,
                                         versions, port, memo, metrics))
                tick()
        return _encode_span(probes), len(memo) - memo_before

    table: ProbeTable = {}
    decoded = 0
    for start, _, (payload, span_decoded) in run_spans(
        probe_span, len(units), effective, PROBE_SPAN, live_view
    ):
        probes = _decode_span(payload, port)
        for offset, probe in enumerate(probes):
            if probe is not None:
                table[units[start + offset]] = probe
        decoded += span_decoded

    stats = CollectStats(
        units=len(units),
        probed=len(table),
        skipped_unreachable=len(units) - len(table),
        unique_flights=decoded,
        requested_workers=workers,
        effective_workers=effective,
        mode=mode,
    )
    _log.info("collect.probed", units=stats.units, probed=stats.probed,
              unique_flights=stats.unique_flights,
              workers=stats.effective_workers, mode=stats.mode)
    return table, stats
