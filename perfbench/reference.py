"""The four workloads, the reference output for a seed, and the checks
every run's output must pass.

The reference comes from the library's plain sequential path, computed
in the benchmark process: ground-truth observations analysed one by
one, tables rendered from those reports, the differential harness run
in corpus order.  For the ``--simulate-network`` workloads that is an
independent check: it bypasses the scanner, the wire codec, the fork
pools, the shards and the verdict store, which the parity suites prove
must not change any verdict.  Reachability is static in the simulated
network (``DomainDeployment.unreachable_from``), so an unreachable
domain that the reference also lists as unreachable is a correct
outcome.  ``golden.json`` pins the reference itself for seeds 833 and
834, so a change to what the program computes shows there too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
from dataclasses import dataclass, field, replace

#: stdout lines that report on the run rather than its results
DIAGNOSTIC = ("verdict store:", "verdict cache:", "wrote ", "journal:",
              "note:", "workers:", "cache-dir:")

#: the thresholds CI gates the reference campaign with
BASELINE = "baselines/report-baseline.json"
BASELINE_THRESHOLDS = ("scan.success*=0", "scan.failure*=0",
                       "compliance.*=0", "campaign.chains_analyzed=0")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    domains: int
    why: str
    simulate: bool = False
    journal: bool = False
    shard_size: int = 0
    workers: int = 0
    cache_dir: bool = False

    def argv(self, seed: int, tmp: str) -> list[str]:
        argv = [self.command, "--domains", str(self.domains),
                "--seed", str(seed)]
        if self.simulate:
            argv.append("--simulate-network")
        if self.journal:
            argv += ["--journal", os.path.join(tmp, "journal.jsonl"),
                     "--report-out", os.path.join(tmp, "report.json")]
        if self.shard_size:
            argv += ["--shard-size", str(self.shard_size)]
        if self.workers:
            argv += ["--collect-workers", str(self.workers),
                     "--workers", str(self.workers)]
        if self.cache_dir:
            argv += ["--cache-dir", os.path.join(tmp, "cache")]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        "campaign-ref", "scan", 2000, simulate=True, journal=True,
        why="the ROADMAP reference campaign: sequential flat scan with "
            "journal and report; wire codec, scanner, core/trust analysis "
            "and the tables"),
    Workload(
        "campaign-sharded", "scan", 2000, simulate=True, shard_size=500,
        workers=2, cache_dir=True,
        why="the reference population through 2-worker fork pools, "
            "500-domain shards and cold verdict-store writes: splits pool "
            "gains from sequential-path gains"),
    Workload(
        "groundtruth", "scan", 5000,
        why="scan without network: collection bypassed, core/trust "
            "analysis and the tables' second analysis dominate"),
    Workload(
        "differential", "differential", 2500,
        why="8-client differential: chainbuilder path building, reached "
            "by no scan; core.relation and trust shared with the scans"),
)}


def scaled(workload: Workload, scale: float) -> Workload:
    """``workload`` with its population (and shard size) times
    ``scale``, at least 40 domains; used by the smoke tests."""
    if scale == 1.0:
        return workload
    domains = max(40, int(workload.domains * scale))
    shard = (max(10, int(workload.shard_size * scale))
             if workload.shard_size else 0)
    return replace(workload, domains=domains, shard_size=shard)


@dataclass
class Reference:
    #: the result rows stdout must hold, in order
    rows: list[str]
    #: per observation, in analysis order: the report's JSON (scan) or
    #: the client outcome's JSON (differential)
    results: list[str]
    #: (domain, chain fingerprint hexes) -> report dict (scans)
    keyed: dict = field(default_factory=dict)
    #: vantage -> domains it cannot reach; domains in scan order
    unreachable: dict = field(default_factory=dict)
    domains: list = field(default_factory=list)
    unique_chains: int = 0

    def digests(self) -> dict[str, str]:
        def sha(lines):
            return hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return {"rows": sha(self.rows), "results": sha(self.results)}


def build_reference(workload: Workload, seed: int) -> Reference:
    from repro.webpki import Ecosystem, EcosystemConfig

    ecosystem = Ecosystem.generate(
        EcosystemConfig(n_domains=workload.domains, seed=seed))
    if workload.command == "differential":
        return _differential_reference(ecosystem)
    return _scan_reference(workload, ecosystem)


def _scan_reference(workload: Workload, ecosystem) -> Reference:
    from repro.core.report import aggregate
    from repro.measurement import (
        Campaign, TableContext, render_table_3, render_table_5,
        render_table_7,
    )
    from repro.webpki.ecosystem import VANTAGE_AU, VANTAGE_US

    # ground truth: what the tables are rendered from
    observations = ecosystem.observations()
    _, reports = Campaign(ecosystem).analyze(observations)
    by_key = {}
    for (domain, chain), report in zip(observations, reports):
        key = tuple(cert.fingerprint_hex for cert in chain)
        by_key[(domain, key)] = report
    deployments = ecosystem.deployments
    rows: list[str] = []
    ref = Reference(rows=rows, results=[])
    observed = list(by_key)
    if workload.simulate:
        # the union of what each vantage can reach, domain-major in
        # vantage order; a vantage serving an alternative chain that
        # the other vantage cannot reach contributes only its own
        population = len(deployments)
        for vantage in sorted((VANTAGE_US, VANTAGE_AU)):
            blocked = {d.domain for d in deployments
                       if vantage in d.unreachable_from}
            ref.unreachable[vantage] = blocked
            reached = population - len(blocked)
            rows.append(f"vantage {vantage:<4} reachable {reached:,}/"
                        f"{population:,} "
                        f"({100.0 * reached / population:.1f}%)")
        ref.domains = [d.domain for d in deployments]
        if workload.shard_size:
            rows.append(
                f"shards: {math.ceil(population / workload.shard_size)}"
                f" × {workload.shard_size:,} domains")
        observed = []
        for deployment in deployments:
            for vantage in (VANTAGE_US, VANTAGE_AU):
                if vantage in deployment.unreachable_from:
                    continue
                chain = deployment.chain
                if (vantage == VANTAGE_AU
                        and deployment.alt_vantage_chain is not None):
                    chain = deployment.alt_vantage_chain
                key = (deployment.domain,
                       tuple(cert.fingerprint_hex for cert in chain))
                if key not in observed[-2:]:
                    observed.append(key)
    ref.results = [by_key[key].to_json() for key in observed]
    ref.keyed = {key: json.loads(text)
                 for key, text in zip(observed, ref.results)}
    ref.unique_chains = len({chain for _, chain in observed})
    dataset = aggregate([by_key[key] for key in observed])
    rows.append(f"chains: {dataset.total:,}  "
                f"non-compliant: {dataset.noncompliant:,} "
                f"({dataset.noncompliance_rate:.2f}%)")
    ctx = TableContext(ecosystem, observations, reports)
    for title, renderer in (
        ("Table 3 (leaf placement)", render_table_3),
        ("Table 5 (issuance order)", render_table_5),
        ("Table 7 (completeness)", render_table_7),
    ):
        rows += ["", f"== {title} ==", *renderer(ctx).splitlines()]
    return ref


def _differential_reference(ecosystem) -> Reference:
    from repro.chainbuilder import (
        DIFFERENTIAL_BROWSERS, DifferentialHarness, LIBRARIES,
    )
    from repro.measurement import VerdictCache

    harness = DifferentialHarness(ecosystem.registry,
                                  aia_fetcher=ecosystem.aia_repo)
    report = harness.run(ecosystem.observations(),
                         at_time=ecosystem.config.now,
                         observe_into_cache=True, cache=VerdictCache())
    rows = [
        f"chains evaluated : {report.total:,} x 8 clients",
        f"library failures : {report.failure_rate(LIBRARIES):.1f}%",
        f"browser failures : "
        f"{report.failure_rate(DIFFERENTIAL_BROWSERS):.1f}%",
        "attribution:",
    ]
    rows += [f"  {tag:28} {count:,}"
             for tag, count in sorted(report.attribution_counts().items())]
    return Reference(rows=rows, results=[
        json.dumps(o.to_event(), sort_keys=True) for o in report.outcomes])


# ----------------------------------------------------------------------
# Checks.  Each returns (results attempted, results failed); a missing,
# extra or different result is one failure.
# ----------------------------------------------------------------------

class StaleState(RuntimeError):
    """A run resumed a journal or read a warm verdict store: its timing
    would be a fake speedup, so the measurement is void."""


def compare_lists(expected: list, actual: list) -> tuple[int, int]:
    failed = sum(1 for a, b in zip(expected, actual) if a != b)
    return len(expected), failed + abs(len(expected) - len(actual))


def check_stdout(ref: Reference, stdout: str, workload: Workload,
                 findings: set[str]) -> tuple[int, int]:
    lines = stdout.splitlines()
    for line in lines:
        if line.startswith("journal: resuming"):
            raise StaleState(line)
        if line.startswith("verdict store:") and "loaded from" in line:
            if not line.startswith("verdict store: 0 reports / 0 outcomes"):
                raise StaleState(line)
    attempted, failed = compare_lists(
        ref.rows, [line for line in lines if not line.startswith(DIAGNOSTIC)])
    if workload.cache_dir:
        # hits must be 0 on a fresh store and every unique chain written
        # once; misses are known to be misreported in fork mode (the pool
        # never counts them), so they are recorded, not checked
        attempted += 1
        totals = [line for line in lines
                  if line.startswith("verdict store:") and "hits" in line]
        numbers = ([int(part.split()[0].replace(",", ""))
                    for part in totals[0].split(":", 1)[1].split("/")]
                   if totals else [])
        if len(numbers) != 3 or numbers[0] or numbers[2] != ref.unique_chains:
            failed += 1
        elif numbers[1] != numbers[2]:
            findings.add(
                f"verdict store printed {numbers[1]:,} misses for "
                f"{numbers[2]:,} writes on a cold store")
    return attempted, failed


def check_journal(ref: Reference, path: str) -> tuple[int, int]:
    verdicts: dict = {}
    scans: dict = {}
    duplicates = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            kind = event.get("type")
            if kind == "verdict":
                key = (event["domain"], tuple(event["chain_key"]))
                duplicates += key in verdicts
                verdicts[key] = event["report"]
            elif kind == "scan":
                key = (event["domain"], event["vantage"])
                duplicates += key in scans
                scans[key] = event["success"]
    failed = duplicates
    failed += sum(1 for key, report in ref.keyed.items()
                  if verdicts.get(key) != report)
    failed += sum(1 for key in verdicts if key not in ref.keyed)
    expected_scans = {
        (domain, vantage): domain not in blocked
        for vantage, blocked in ref.unreachable.items()
        for domain in ref.domains
    }
    failed += sum(1 for key, ok in expected_scans.items()
                  if scans.get(key) != ok)
    failed += sum(1 for key in scans if key not in expected_scans)
    return len(ref.keyed) + len(expected_scans), failed


def check_store(ref: Reference, cache_dir: str) -> tuple[int, int]:
    """Every unique chain's report, as the store persisted it."""
    stored: dict = {}
    segments = os.path.join(cache_dir, "segments")
    for name in sorted(os.listdir(segments)):
        with open(os.path.join(segments, name), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("kind") == "report":
                    stored[tuple(record["chain_key"])] = record["report"]
    failed = 0
    for key, report in stored.items():
        if ref.keyed.get((report.get("domain"), key)) != report:
            failed += 1
    failed += max(0, ref.unique_chains - len(stored))
    return ref.unique_chains, failed


def check_baseline(python: str, env: dict, report_path: str) -> bool:
    """``diff-runs`` of a seed-833 reference campaign against the
    committed baseline, with CI's zero-drift thresholds."""
    argv = [python, "-m", "repro.cli", "diff-runs", BASELINE, report_path]
    for threshold in BASELINE_THRESHOLDS:
        argv += ["--threshold", threshold]
    done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=120)
    return done.returncode == 0
