"""Run one ``repro-chain`` command in this process, observed from outside.

Usage: ``python perfbench/launch.py OUT.json SPAWN_NS TRACE -- ARGS...``

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux, so the
two clocks agree).  Every run stamps when set-up ended (the last return
of ``Ecosystem.generate``/``Ecosystem.install``) and which pool modes
ran.  With ``TRACE=1`` the public functions of every layer are wrapped
(see :data:`TRACED`) and the spans, plus counts read from the wrapped
calls' arguments and results, are written beside ``OUT.json``.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
import time

from spans import SpanLog, patch_function, patch_method

#: (span name, module, attribute).  ``Class.method`` attributes are
#: patched on the class; plain functions in every module binding them.
TRACED = (
    ("webpki.generate", "repro.webpki.ecosystem", "Ecosystem.generate"),
    ("webpki.install", "repro.webpki.ecosystem", "Ecosystem.install"),
    ("x509.encode", "repro.x509.encoding", "to_pem"),
    ("x509.decode", "repro.x509.encoding", "load_pem_bundle"),
    ("net.scan", "repro.net.scanner", "Scanner.scan"),
    ("net.probe", "repro.measurement.parallel_collect", "probe_collection"),
    ("measurement.collect", "repro.measurement.campaign", "Campaign.collect"),
    ("measurement.analyze", "repro.measurement.campaign", "Campaign.analyze"),
    ("measurement.run_sharded", "repro.measurement.campaign",
     "Campaign.run_sharded"),
    ("measurement.pipeline", "repro.measurement.parallel",
     "analyze_observations"),
    ("measurement.tables", "repro.measurement.tables", "TableContext.build"),
    ("measurement.render", "repro.measurement.tables", "render_table_3"),
    ("measurement.render", "repro.measurement.tables", "render_table_5"),
    ("measurement.render", "repro.measurement.tables", "render_table_7"),
    ("measurement.store_put", "repro.measurement.store",
     "VerdictStore.put_report"),
    ("measurement.store_put", "repro.measurement.store",
     "VerdictStore.put_outcome"),
    ("measurement.store_flush", "repro.measurement.store",
     "VerdictStore.flush"),
    ("core.analyze_chain", "repro.core.compliance", "analyze_chain"),
    ("core.topology", "repro.core.topology", "ChainTopology.__init__"),
    ("core.order", "repro.core.order", "analyze_order"),
    ("core.completeness", "repro.core.completeness", "analyze_completeness"),
    ("core.leaf", "repro.core.leaf", "classify_leaf_placement"),
    ("core.relation", "repro.core.relation", "issued"),
    ("trust.aia_fetch", "repro.trust.aia", "StaticAIARepository.fetch"),
    ("trust.rootstore", "repro.trust.rootstore", "RootStore.find_issuers_of"),
    ("trust.rootstore", "repro.trust.rootstore", "RootStore.contains_key_of"),
    ("trust.intermediate_cache", "repro.trust.cache",
     "IntermediateCache.find_issuers"),
    ("chainbuilder.run", "repro.chainbuilder.differential",
     "DifferentialHarness.run"),
    ("chainbuilder.build", "repro.chainbuilder.engine", "ChainBuilder.build"),
    ("chainbuilder.validate_path", "repro.chainbuilder.verify",
     "validate_path"),
    ("obs.journal_record", "repro.obs.journal", "RunJournal.record"),
    ("obs.journal_record", "repro.obs.journal", "RunJournal.record_verdict"),
    ("obs.journal_flush", "repro.obs.journal", "RunJournal.flush"),
    ("obs.report", "repro.obs.report", "report_from_journal"),
    # the parent blocking on a fork-pool result: the only view of work
    # done inside pool workers, whose own calls these wrappers miss
    ("measurement.pool_wait", "concurrent.futures._base", "Future.result"),
)

#: spans the per-run stamps need even when tracing is off
STAMPED = ("Ecosystem.generate", "Ecosystem.install")
POOLS = ("probe_collection", "analyze_observations")


class Observer:
    """Counts and results read from the wrapped calls."""

    def __init__(self, log: SpanLog | None) -> None:
        self.log = log
        self.setup_end_ns = 0
        self.pools: list[list] = []
        self.counts = dict.fromkeys((
            "certs_decoded", "scans", "scan_failures", "retries",
            "wire_bytes", "observations", "shards", "store_writes"), 0)
        self.blocks: set[str] = set()
        self.flights: set = set()
        self.ecosystems: list = []
        self.reports: list = []
        self.outcomes: list = []

    def hook(self, attr: str):
        return getattr(self, "on_" + attr.rsplit(".", 1)[-1], None)

    def on_generate(self, ecosystem, args, kwargs) -> None:
        self.setup_end_ns = time.monotonic_ns()
        if self.log is not None:
            self.ecosystems.append(ecosystem)

    def on_install(self, network, args, kwargs) -> None:
        self.setup_end_ns = time.monotonic_ns()

    def on_probe_collection(self, result, args, kwargs) -> None:
        stats = result[1]
        self.pools.append(["collect", stats.mode, stats.effective_workers])

    def on_analyze_observations(self, result, args, kwargs) -> None:
        stats = result[1]
        self.pools.append(["analyze", stats.mode, stats.effective_workers])

    def on_load_pem_bundle(self, certs, args, kwargs) -> None:
        self.counts["certs_decoded"] += len(certs)
        text = args[0] if args else kwargs["text"]
        self.blocks.update(text.split("-----END")[:-1])

    def on_scan(self, records, args, kwargs) -> None:
        counts = self.counts
        counts["scans"] += len(records)
        for record in records:
            counts["retries"] += max(0, record.attempts - 1)
            counts["wire_bytes"] += record.wire_bytes
            if record.success:
                self.flights.add(record.chain_key)
            else:
                counts["scan_failures"] += 1

    def on_analyze(self, result, args, kwargs) -> None:
        if self.log.inside("measurement.tables"):
            return  # the tables' own re-analysis of ground truth
        observations = (args[1] if len(args) > 1
                        else kwargs.get("observations"))
        if observations is not None:
            self.counts["observations"] += len(observations)
        self.reports.extend(result[1])

    def on_run_sharded(self, result, args, kwargs) -> None:
        self.counts["shards"] += len(result.shards)

    def on_put_report(self, written, args, kwargs) -> None:
        self.counts["store_writes"] += bool(written)

    on_put_outcome = on_put_report

    def on_run(self, report, args, kwargs) -> None:
        self.outcomes.extend(report.outcomes)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def install(observer: Observer, table) -> None:
    log = observer.log
    for span_name, module, attr in table:
        owner, name = _resolve(module, attr)
        hook = observer.hook(attr)
        if log is None:
            def wrap(fn, hook=hook):
                def stamped(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    hook(result, args, kwargs)
                    return result
                return stamped
        else:
            def wrap(fn, span_name=span_name, hook=hook):
                return log.wrap(span_name, fn, hook)
        if isinstance(owner, type):
            patch_method(owner, name, wrap)
        else:
            original = getattr(owner, name)
            patch_function("repro", original, wrap(original))


def main() -> int:
    out_path, spawn_ns, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    import repro

    log = SpanLog() if trace == "1" else None
    observer = Observer(log)
    if log is not None:
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        install(observer, TRACED)
        log.add("cli.import", spawn_ns, time.monotonic_ns())
    else:
        import repro.measurement  # noqa: F401  (the CLI imports it too)
        install(observer, [row for row in TRACED
                           if row[2].endswith(STAMPED + POOLS)])
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    main_end_ns = time.monotonic_ns()
    sys.stdout.flush()
    result = {"exit": code, "main_end_ns": main_end_ns,
              "setup_end_ns": observer.setup_end_ns,
              "pools": observer.pools}
    if log is not None:
        log.dump(out_path + ".spans")
        counts = dict(observer.counts)
        counts["unique_blocks"] = len(observer.blocks)
        counts["unique_flights"] = len(observer.flights)
        certs = set()
        for ecosystem in observer.ecosystems:
            for deployment in ecosystem.deployments:
                for chain in (deployment.chain, deployment.alt_vantage_chain,
                              deployment.alt_version_chain):
                    certs.update(map(id, chain or ()))
            certs.update(id(cert) for _, cert in ecosystem.aia_repo.items())
        counts["certificates"] = len(certs)
        result.update(span_names=log.names, span_count=len(log.start),
                      counts=counts)
        with open(out_path + ".results", "w", encoding="utf-8") as handle:
            for report in observer.reports:
                handle.write(report.to_json() + "\n")
            for outcome in observer.outcomes:
                handle.write(json.dumps(outcome.to_event(), sort_keys=True)
                             + "\n")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    raise SystemExit(main())
