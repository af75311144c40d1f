"""Per-layer metrics of one traced run, from its spans and counts.

Layer names are the program's packages.  Each metric's end-to-end
target and the workloads predicted to leave it at zero are listed in
``NOTES.md``; :data:`PREDICTED_ZERO` and :data:`PREDICTED_NONZERO`
encode the bypass predictions the benchmark checks on every traced run.
"""

from __future__ import annotations

from spans import SpanTable, percentile, tail_percentile

#: (name, unit), in report order
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("host.calib_s", "s"),
    ("webpki.generate_s", "s"), ("webpki.install_s", "s"),
    ("webpki.certificates", "count"),
    ("x509.encode_s", "s"), ("x509.encode_calls", "count"),
    ("x509.decode_s", "s"), ("x509.decode_calls", "count"),
    ("x509.certs_decoded", "count"), ("x509.decode_useful_ratio", "ratio"),
    ("net.scan_s", "s"), ("net.scan_self_s", "s"), ("net.probe_s", "s"),
    ("net.scans", "count"), ("net.scan_failures", "count"),
    ("net.retries", "count"), ("net.unique_flights", "count"),
    ("net.wire_bytes", "bytes"),
    ("measurement.collect_s", "s"), ("measurement.collect_self_s", "s"),
    ("measurement.analyze_s", "s"), ("measurement.analyze_self_s", "s"),
    ("measurement.pool_wait_s", "s"), ("measurement.shards", "count"),
    ("measurement.observations", "count"),
    ("measurement.unique_chains", "count"),
    ("measurement.dedup_ratio", "ratio"), ("measurement.tables_s", "s"),
    ("measurement.tables_reanalysis_s", "s"),
    ("measurement.store_put_s", "s"), ("measurement.store_writes", "count"),
    ("measurement.store_disk_bytes", "bytes"),
    ("core.analyze_chain_s", "s"), ("core.analyze_chain_calls", "count"),
    ("core.analyze_chain_us.p50", "us"), ("core.analyze_chain_us.p99", "us"),
    ("core.topology_s", "s"), ("core.order_s", "s"),
    ("core.completeness_s", "s"), ("core.leaf_s", "s"),
    ("core.relation_calls", "count"), ("core.relation_s", "s"),
    ("trust.aia_fetches", "count"), ("trust.aia_fetch_s", "s"),
    ("trust.rootstore_lookups", "count"), ("trust.rootstore_s", "s"),
    ("trust.intermediate_cache_lookups", "count"),
    ("trust.intermediate_cache_s", "s"),
    ("chainbuilder.run_s", "s"), ("chainbuilder.builds", "count"),
    ("chainbuilder.build_s", "s"), ("chainbuilder.build_us.p50", "us"),
    ("chainbuilder.build_us.p99", "us"),
    ("chainbuilder.validate_path_s", "s"),
    ("obs.journal_record_s", "s"), ("obs.journal_events", "count"),
    ("obs.journal_bytes", "bytes"), ("obs.report_s", "s"),
)
UNITS = dict(PER_LAYER)

#: counts that must repeat exactly across traced runs of one seed
DETERMINISTIC = ("x509.decode_calls", "net.wire_bytes",
                 "core.analyze_chain_calls", "chainbuilder.builds",
                 "measurement.unique_chains")

SCANS = ("campaign-ref", "campaign-sharded", "groundtruth")
#: metric -> workloads on which the layer is bypassed (predicted 0)
PREDICTED_ZERO = {
    "x509.decode_calls": ("groundtruth", "differential"),
    "x509.encode_calls": ("groundtruth", "differential"),
    "net.scans": ("groundtruth", "differential"),
    "chainbuilder.builds": SCANS,
    "measurement.observations": ("differential",),
    "measurement.shards": ("campaign-ref", "groundtruth", "differential"),
    "measurement.store_writes": ("campaign-ref", "groundtruth",
                                 "differential"),
    "obs.journal_events": ("campaign-sharded", "groundtruth",
                           "differential"),
}
#: metric -> workloads on which the wrapper must fire
PREDICTED_NONZERO = {
    "webpki.certificates": SCANS + ("differential",),
    "x509.decode_calls": ("campaign-ref",),
    "net.scans": ("campaign-ref", "campaign-sharded"),
    "measurement.shards": ("campaign-sharded",),
    "measurement.store_writes": ("campaign-sharded",),
    "measurement.pool_wait_s": ("campaign-sharded",),
    "core.analyze_chain_calls": SCANS,
    "core.relation_calls": SCANS + ("differential",),
    "chainbuilder.builds": ("differential",),
    "obs.journal_events": ("campaign-ref",),
    "obs.report_s": ("campaign-ref",),
}


def prediction_misses(workload: str, metrics: dict) -> list[str]:
    """Metrics whose zero/non-zero value contradicts the layer map."""
    misses = [f"{name} = {metrics[name]:g}, predicted 0"
              for name, where in PREDICTED_ZERO.items()
              if workload in where and metrics[name] != 0]
    misses += [f"{name} = 0, predicted > 0"
               for name, where in PREDICTED_NONZERO.items()
               if workload in where and metrics[name] == 0]
    return misses


def derive(table: SpanTable, counts: dict, *, main_s: float,
           extra: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except those only a set of runs
    gives (``trace.overhead_ratio``, ``host.calib_s``), which the
    caller adds; ``extra`` holds the byte sizes measured on disk and
    the unique-chain count of the workload's input."""
    t = table

    def outer_s(*names, where=None):
        return t.seconds(t.outer(*names, where=where))

    def count(*names):
        return len(t.spans(*names))

    def in_tables(index):
        return t.has_ancestor(index, ("measurement.tables",))

    sharded = t.outer("measurement.run_sharded")
    analyze = t.outer("measurement.analyze",
                      where=lambda i: not in_tables(i))
    analyze_in_shards = [i for i in analyze
                         if t.has_ancestor(i, ("measurement.run_sharded",))]
    pipeline = [i for i in t.spans("measurement.pipeline")
                if not in_tables(i)]
    collect = t.outer("measurement.collect")
    chains_us = t.durations_us(t.spans("core.analyze_chain"))
    builds_us = t.durations_us(t.spans("chainbuilder.build"))
    observations = counts["observations"]
    unique_chains = extra["unique_chains"] if observations else 0
    decoded = counts["certs_decoded"]
    m = {
        "cli.import_s": t.seconds(t.spans("cli.import")),
        "cli.unattributed_s": main_s - t.seconds(t.roots()),
        "webpki.generate_s": outer_s("webpki.generate"),
        "webpki.install_s": outer_s("webpki.install"),
        "webpki.certificates": counts["certificates"],
        "x509.encode_s": outer_s("x509.encode"),
        "x509.encode_calls": count("x509.encode"),
        "x509.decode_s": outer_s("x509.decode"),
        "x509.decode_calls": count("x509.decode"),
        "x509.certs_decoded": decoded,
        "x509.decode_useful_ratio":
            counts["unique_blocks"] / decoded if decoded else 0.0,
        "net.scan_s": outer_s("net.scan"),
        "net.scan_self_s": t.self_seconds(t.spans("net.scan")),
        "net.probe_s": outer_s("net.probe"),
        "net.scans": counts["scans"],
        "net.scan_failures": counts["scan_failures"],
        "net.retries": counts["retries"],
        "net.unique_flights": counts["unique_flights"],
        "net.wire_bytes": counts["wire_bytes"],
        "measurement.collect_s": t.seconds(collect) + t.seconds(sharded)
        - t.seconds(analyze_in_shards),
        "measurement.collect_self_s":
            t.self_seconds(collect) + t.self_seconds(sharded),
        "measurement.analyze_s": t.seconds(analyze),
        "measurement.analyze_self_s":
            t.self_seconds(analyze) + t.self_seconds(pipeline),
        "measurement.pool_wait_s": outer_s("measurement.pool_wait"),
        "measurement.shards": counts["shards"],
        "measurement.observations": observations,
        "measurement.unique_chains": unique_chains,
        "measurement.dedup_ratio":
            unique_chains / observations if observations else 0.0,
        "measurement.tables_s": outer_s("measurement.tables",
                                        "measurement.render"),
        "measurement.tables_reanalysis_s":
            outer_s("measurement.analyze", where=in_tables),
        "measurement.store_put_s": outer_s("measurement.store_put",
                                           "measurement.store_flush"),
        "measurement.store_writes": counts["store_writes"],
        "measurement.store_disk_bytes": extra["store_bytes"],
        "core.analyze_chain_s": outer_s("core.analyze_chain"),
        "core.analyze_chain_calls": len(chains_us),
        "core.analyze_chain_us.p50": percentile(chains_us, 50.0),
        "core.analyze_chain_us.p99": _p99(chains_us),
        "core.topology_s": outer_s("core.topology"),
        "core.order_s": outer_s("core.order"),
        "core.completeness_s": outer_s("core.completeness"),
        "core.leaf_s": outer_s("core.leaf"),
        "core.relation_calls": count("core.relation"),
        "core.relation_s": outer_s("core.relation"),
        "trust.aia_fetches": count("trust.aia_fetch"),
        "trust.aia_fetch_s": outer_s("trust.aia_fetch"),
        "trust.rootstore_lookups": count("trust.rootstore"),
        "trust.rootstore_s": outer_s("trust.rootstore"),
        "trust.intermediate_cache_lookups":
            count("trust.intermediate_cache"),
        "trust.intermediate_cache_s": outer_s("trust.intermediate_cache"),
        "chainbuilder.run_s": outer_s("chainbuilder.run"),
        "chainbuilder.builds": len(builds_us),
        "chainbuilder.build_s": outer_s("chainbuilder.build"),
        "chainbuilder.build_us.p50": percentile(builds_us, 50.0),
        "chainbuilder.build_us.p99": _p99(builds_us),
        "chainbuilder.validate_path_s": outer_s("chainbuilder.validate_path"),
        "obs.journal_record_s": outer_s("obs.journal_record",
                                        "obs.journal_flush"),
        "obs.journal_events": len(t.outer("obs.journal_record")),
        "obs.journal_bytes": extra["journal_bytes"],
        "obs.report_s": outer_s("obs.report"),
    }
    return m


def _p99(samples: list[float]) -> float:
    """p99 when at least ten samples lie beyond it; otherwise the
    highest percentile that has ten beyond it (see NOTES.md)."""
    pct, value = tail_percentile(samples)
    if pct is not None and pct >= 99.0:
        return percentile(samples, 99.0)
    return value
