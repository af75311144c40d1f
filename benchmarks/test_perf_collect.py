"""Collection-pipeline benchmark: probe/replay vs the direct scan loop.

Writes ``BENCH_collect.json`` at the repo root.  The probe phase is
the parallelisable ~80% of a collection sweep (handler exchange, PEM
decode, fingerprint hashing per (vantage, domain) unit); the replay
re-runs only the cheap order-dependent part (RNG draw, clock advance,
fault consultation, token-bucket accounting) sequentially.  Three
things are recorded and gated:

* **Speedup** of ``Campaign.collect(collect_workers=4)`` over the
  direct sequential path, on identically-seeded fresh networks.  On a
  multi-core machine the probe pool must actually fork (mode
  ``fork-pool``) and deliver >= 1.5x; a single-core builder records
  its in-process fallback honestly and is gated only against
  regression.
* **Parity**: inside the bench, the parallel run's records and merged
  observations must equal the sequential run's — the speedup is only
  worth publishing if the output is byte-identical.
* **Union-merge scaling** (the precomputed ``chain_key`` fast path):
  merging both vantages must cost well under 2x merging one, because
  the second vantage's records are almost entirely set-membership
  hits on precomputed keys rather than fresh hashing.
"""

import json
import os
import pathlib
import time

from repro.measurement.campaign import (
    Campaign,
    CollectionResult,
    _merge_union,
)
from repro.net.scanner import Scanner
from repro.webpki.ecosystem import VANTAGE_AU, VANTAGE_US


def _fresh_campaign(ecosystem):
    """A campaign on a fresh, identically-seeded network install."""
    return Campaign(ecosystem, network=ecosystem.install())


def test_perf_collect_snapshot(ecosystem):
    """Probe/replay collection vs direct scanning; writes
    BENCH_collect.json."""
    rounds = 5
    workers = 4

    vantages = (VANTAGE_US, VANTAGE_AU)
    all_domains = [d.domain for d in ecosystem.deployments]

    def sequential():
        # the direct sweep: every unit exchanges with its handler live
        network = ecosystem.install()
        start = time.perf_counter()
        per_vantage = {vantage: Scanner(network, vantage).scan(all_domains)
                       for vantage in vantages}
        chain_keys, observations, all_certs = _merge_union(vantages,
                                                           per_vantage)
        result = CollectionResult(
            per_vantage=per_vantage, observations=observations,
            reachable_counts={v: sum(1 for r in records if r.success)
                              for v, records in per_vantage.items()},
            unique_chains=len(chain_keys),
            unique_certificates=len(all_certs),
        )
        return time.perf_counter() - start, result

    def parallel():
        campaign = _fresh_campaign(ecosystem)
        start = time.perf_counter()
        result = campaign.collect(collect_workers=workers)
        return time.perf_counter() - start, result

    sequential()  # warm process-wide caches before timing
    seq_seconds = par_seconds = None
    seq_result = par_result = None
    # Best-of-N with alternating order inside each round, as in the
    # pipeline bench: shared-runner CPU drift otherwise dominates.
    for index in range(rounds):
        if index % 2 == 0:
            s, s_result = sequential()
            p, p_result = parallel()
        else:
            p, p_result = parallel()
            s, s_result = sequential()
        if seq_seconds is None or s < seq_seconds:
            seq_seconds, seq_result = s, s_result
        if par_seconds is None or p < par_seconds:
            par_seconds, par_result = p, p_result

    # Parity first: a fast wrong answer is not a benchmark result.
    assert par_result.per_vantage == seq_result.per_vantage
    assert [
        (domain, [c.fingerprint for c in chain])
        for domain, chain in par_result.observations
    ] == [
        (domain, [c.fingerprint for c in chain])
        for domain, chain in seq_result.observations
    ]
    assert par_result.reachable_counts == seq_result.reachable_counts

    # Probe-phase stats for the published snapshot, from a dedicated
    # run so the timing rounds stay unpolluted.
    from repro.measurement.parallel_collect import probe_collection

    stats_campaign = _fresh_campaign(ecosystem)
    domains = [d.domain for d in ecosystem.deployments]
    _table, stats = probe_collection(
        stats_campaign.network, (VANTAGE_US, VANTAGE_AU), domains,
        workers=workers,
    )

    # Union-merge scaling (the precomputed chain_key fast path).  The
    # real AU sweep legitimately serves fresh chains for the
    # vantage-aware share of domains, so the honest two-vantage timing
    # goes in the snapshot but is not gated.  The *gated* property is
    # the dedup fast path itself: a vantage whose records exactly
    # duplicate already-merged chains must cost far less than the
    # first pass, because its records reduce to set-membership checks
    # on precomputed keys — no per-record fingerprint hashing, chain
    # copying, or cert-set updates.  The merge is pure, so
    # min-of-repeats is meaningful even at microsecond scale.
    per_vantage = seq_result.per_vantage
    duplicated = {
        VANTAGE_US: per_vantage[VANTAGE_US],
        VANTAGE_AU: per_vantage[VANTAGE_US],
    }

    def merge_seconds(vantages, table, repeats=20):
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            _merge_union(vantages, table)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best

    merge_one = merge_seconds((VANTAGE_US,), per_vantage)
    merge_both = merge_seconds((VANTAGE_US, VANTAGE_AU), per_vantage)
    merge_dup = merge_seconds((VANTAGE_US, VANTAGE_AU), duplicated)
    merge_scaling = merge_both / merge_one
    merge_dup_scaling = merge_dup / merge_one
    assert merge_dup_scaling < 1.6, (
        f"merging a fully-duplicate vantage cost "
        f"{merge_dup_scaling:.2f}x the one-vantage merge; the "
        "precomputed chain_key fast path is not being hit"
    )

    speedup = seq_seconds / par_seconds
    units = len(domains) * 2
    snapshot = {
        "bench": "collect",
        "domains": len(domains),
        "vantages": 2,
        "units": units,
        "probed": stats.probed,
        "skipped_unreachable": stats.skipped_unreachable,
        "unique_flights": stats.unique_flights,
        "requested_workers": stats.requested_workers,
        "effective_workers": stats.effective_workers,
        "mode": stats.mode,
        "cpu_count": os.cpu_count(),
        "sequential_seconds": round(seq_seconds, 6),
        "parallel_seconds": round(par_seconds, 6),
        "speedup": round(speedup, 2),
        "sequential_scans_per_second": round(units / seq_seconds, 1),
        "parallel_scans_per_second": round(units / par_seconds, 1),
        "merge_one_vantage_seconds": round(merge_one, 6),
        "merge_two_vantage_seconds": round(merge_both, 6),
        "merge_scaling": round(merge_scaling, 3),
        "merge_duplicate_vantage_scaling": round(merge_dup_scaling, 3),
    }

    # Same loud-fail rule as the pipeline bench: on a multi-core
    # machine the pool must actually fork, or the published speedup
    # measures nothing.
    if (os.cpu_count() or 1) >= 2:
        assert stats.mode == "fork-pool", (
            f"collect bench requested {workers} workers on "
            f"{os.cpu_count()} cores but ran {stats.mode}; the "
            "published speedup would not measure the pool"
        )
        assert speedup >= 1.5, (
            f"probe/replay collection speedup {speedup:.2f}x at "
            f"{stats.effective_workers} workers is below the 1.5x "
            "floor"
        )
    else:
        # Single-core fallback: the probe/replay split must not cost
        # more than a small constant factor over the direct loop.
        assert speedup >= 0.8, (
            f"in-process probe/replay ran {1 / speedup:.2f}x slower "
            "than the direct scan loop"
        )

    out_path = pathlib.Path(__file__).resolve().parent.parent / (
        "BENCH_collect.json"
    )
    out_path.write_text(json.dumps(snapshot, indent=2) + "\n",
                        encoding="utf-8")
    print(f"\n{json.dumps(snapshot, indent=2)}")
