"""``repro watch``: frame sources, rendering, and the poll loop."""

import io

import pytest

from repro.measurement import Campaign
from repro.obs import RunJournal
from repro.obs.health import HealthMonitor, parse_health_rule
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import RunStatus, TelemetryServer
from repro.obs.watch import (
    HttpSource,
    JournalSource,
    SourceError,
    render_frame,
    watch,
    _plain_line,
)
from repro.webpki import Ecosystem, EcosystemConfig


@pytest.fixture(scope="module")
def journal_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("watch") / "run.jsonl"
    ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=30, seed=11))
    campaign = Campaign(ecosystem)
    with RunJournal.create(path, campaign.manifest()) as journal:
        collection = campaign.collect(journal=journal)
        campaign.analyze(collection.observations, journal=journal)
    return path


class FakeSource:
    """Scripted frames; an Exception entry raises instead."""

    label = "fake"

    def __init__(self, frames):
        self.frames = list(frames)
        self.ever_connected = False

    def frame(self):
        item = self.frames.pop(0)
        if isinstance(item, Exception):
            raise item
        self.ever_connected = True
        return item


def frame(**overrides):
    base = {
        "source": "fake", "phase": "analyze", "finished": False,
        "done": 50, "total": 200, "rate": 100.0,
        "health_ok": None, "health_failures": (),
        "vantages": [], "verdicts": None, "rules": [],
        "retries": None, "breaker_trips": None, "scan_errors": 0,
    }
    base.update(overrides)
    return base


class TestJournalSource:
    def test_finished_run_frame(self, journal_path):
        source = JournalSource(journal_path)
        got = source.frame()
        assert got["phase"] == "finished" and got["finished"]
        assert got["done"] == got["total"] > 0
        assert got["verdicts"]["total"] == got["done"]
        assert (got["verdicts"]["compliant"]
                + got["verdicts"]["noncompliant"]) == got["done"]
        assert {v["vantage"] for v in got["vantages"]} == {"us", "au"}
        for vantage in got["vantages"]:
            assert 0 < vantage["reached"] <= vantage["attempted"]
            assert vantage["degraded"] is None
        # violations surface as (rule_id, domains), hottest first
        counts = [count for _, count in got["rules"]]
        assert counts == sorted(counts, reverse=True)

    def test_rate_from_verdict_delta(self, journal_path):
        now = [0.0]
        source = JournalSource(journal_path, clock=lambda: now[0])
        first = source.frame()
        assert first["rate"] == 0.0  # no previous poll to diff against
        now[0] = 2.0
        second = source.frame()
        assert second["rate"] == 0.0  # finished journal: no new verdicts
        assert second["done"] == first["done"]

    def test_mid_collect_journal_reads_as_collect_phase(self, tmp_path):
        """Scan events but no ``collection`` summary yet: still collecting."""
        path = tmp_path / "collect.jsonl"
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=10, seed=2)
        )
        campaign = Campaign(ecosystem)
        with RunJournal.create(path, campaign.manifest()) as journal:
            campaign.collect(journal=journal)
        kept = [line for line in path.read_text().splitlines()
                if not line.startswith('{"type":"collection"')]
        path.write_text("\n".join(kept) + "\n")
        got = JournalSource(path).frame()
        assert got["phase"] == "collect"
        assert not got["finished"]

    def test_collect_finished_journal_reads_as_analyze_phase(self, tmp_path):
        """The ``collection`` summary lands: next phase is analysis."""
        path = tmp_path / "collected.jsonl"
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=10, seed=2)
        )
        campaign = Campaign(ecosystem)
        with RunJournal.create(path, campaign.manifest()) as journal:
            campaign.collect(journal=journal)
        got = JournalSource(path).frame()
        assert got["phase"] == "analyze"
        assert got["done"] == 0 and got["total"] > 0
        assert not got["finished"]

    def test_mid_analyse_one_shard_journal_reads_as_analyze_phase(
            self, tmp_path):
        """A one-shard run journals its ``collection`` summary last, so
        verdicts with no summary yet mean analysis is under way."""
        path = tmp_path / "one-shard.jsonl"
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=10, seed=2)
        )
        campaign = Campaign(ecosystem)
        with RunJournal.create(path, campaign.manifest()) as journal:
            campaign.run_sharded(len(ecosystem.deployments),
                                 journal=journal)
        lines = path.read_text().splitlines()
        last_verdict = max(i for i, line in enumerate(lines)
                           if line.startswith('{"type":"verdict"'))
        path.write_text("\n".join(lines[:last_verdict]) + "\n")
        got = JournalSource(path).frame()
        assert got["phase"] == "analyze"
        assert got["done"] > 0
        assert not got["finished"]

    def test_missing_journal_raises_source_error(self, tmp_path):
        with pytest.raises(SourceError):
            JournalSource(tmp_path / "nope.jsonl").frame()


class TestHttpSource:
    def test_frame_against_live_server(self, journal_path):
        registry = MetricsRegistry()
        registry.counter("scan.error").inc(9)
        registry.counter("scan.attempts").inc(10)
        status = RunStatus()
        status.begin_phase("analyze", 200)
        status.advance(50)
        status.mark_degraded("au", "vantage outage")
        monitor = HealthMonitor([parse_health_rule("scan.error_ratio<=0.1")])
        with TelemetryServer(
            registry, health=monitor, status=status,
            journal_path=journal_path,
        ) as server:
            source = HttpSource(server.url)
            got = source.frame()
        assert source.ever_connected
        assert got["phase"] == "analyze"
        assert (got["done"], got["total"]) == (50, 200)
        assert got["health_ok"] is False
        assert any("scan.error_ratio" in failure
                   for failure in got["health_failures"])
        # /report enriches vantages and verdicts beyond /progress
        degraded = {v["vantage"]: v["degraded"] for v in got["vantages"]}
        assert set(degraded) == {"us", "au"}
        assert got["verdicts"]["total"] > 0

    def test_unreachable_server_raises_source_error(self):
        source = HttpSource("http://127.0.0.1:9")  # discard port
        with pytest.raises(SourceError):
            source.frame()
        assert not source.ever_connected


class TestRendering:
    def test_render_frame_lines(self):
        lines = render_frame(frame(
            health_ok=False, health_failures=("scan.error_ratio=0.3 "
                                              "(rule scan.error_ratio<=0.1)",),
            vantages=[
                {"vantage": "us", "reached": 90, "attempted": 100,
                 "degraded": None},
                {"vantage": "au", "reached": 0, "attempted": 100,
                 "degraded": "breaker open"},
            ],
            verdicts={"total": 50, "compliant": 40, "noncompliant": 10},
            rules=[("R3.1", 7), ("R2.2", 3)],
            retries=4, scan_errors=2,
        ))
        text = "\n".join(lines)
        assert lines[0] == "repro watch — fake"
        assert "analyze" in lines[1] and "50/200" in lines[1]
        assert "health   : FAILING — scan.error_ratio=0.3" in text
        assert "au 0/100 (0.0%) DEGRADED(breaker open)" in text
        assert "50 total — 40 compliant / 10 non-compliant" in text
        assert "R3.1×7  R2.2×3" in text
        assert "retries 4" in text and "scan errors 2" in text

    def test_render_frame_omits_empty_sections(self):
        lines = render_frame(frame())
        assert len(lines) == 2  # header + phase only

    def test_plain_line(self):
        line = _plain_line(frame(
            health_ok=False,
            vantages=[{"vantage": "au", "degraded": "outage"}],
        ))
        assert line.startswith("watch analyze 50/200")
        assert "health=FAILING" in line
        assert "degraded=au" in line

    def test_plain_line_healthy_has_no_tags(self):
        assert "health" not in _plain_line(frame(health_ok=True))


class TestWatchLoop:
    def test_finished_frame_ends_the_loop_with_zero(self):
        stream = io.StringIO()
        source = FakeSource([frame(), frame(finished=True,
                                            phase="finished")])
        slept = []
        code = watch(source, interval=0.5, stream=stream,
                     force_tty=False, sleep=slept.append)
        assert code == 0
        assert slept == [0.5]
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("watch analyze")
        assert lines[1].startswith("watch finished")

    def test_tty_mode_repaints_in_place(self):
        stream = io.StringIO()
        source = FakeSource([frame(), frame(finished=True)])
        watch(source, stream=stream, force_tty=True, sleep=lambda _: None)
        text = stream.getvalue()
        assert "repro watch — fake" in text
        assert "\x1b[2K" in text          # erase-line per painted row
        assert "\x1b[2F" in text          # rewind over the 2-line frame

    def test_once_samples_a_single_frame(self):
        stream = io.StringIO()
        code = watch(FakeSource([frame()]), once=True, stream=stream,
                     force_tty=False)
        assert code == 0
        assert len(stream.getvalue().splitlines()) == 1

    def test_server_vanishing_after_contact_is_a_clean_exit(self):
        source = FakeSource([frame(), SourceError("connection refused")])
        code = watch(source, stream=io.StringIO(), force_tty=False,
                     sleep=lambda _: None)
        assert code == 0

    def test_never_connecting_is_exit_2(self, capsys):
        source = FakeSource([SourceError("no"), SourceError("still no")])
        code = watch(source, stream=io.StringIO(), force_tty=False,
                     sleep=lambda _: None, max_polls=2)
        assert code == 2
        assert "still no" in capsys.readouterr().err

    def test_transient_startup_errors_are_retried(self):
        stream = io.StringIO()
        source = FakeSource([SourceError("not up yet"),
                             frame(finished=True)])
        code = watch(source, stream=stream, force_tty=False,
                     sleep=lambda _: None)
        assert code == 0
        assert stream.getvalue().startswith("watch")

    def test_max_polls_bounds_an_unfinished_run(self):
        stream = io.StringIO()
        source = FakeSource([frame(), frame(), frame()])
        code = watch(source, stream=stream, force_tty=False,
                     sleep=lambda _: None, max_polls=3)
        assert code == 0
        assert len(stream.getvalue().splitlines()) == 3
