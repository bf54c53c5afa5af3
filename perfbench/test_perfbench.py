"""Tests of the benchmark itself: generators, statistics, names, checks.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.audit.events import reused_event
from repro.audit.monitor import Monitor
from repro.crypto.keystore import KeyStore
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.judge import Judge
from repro.pvr.scenarios import serve_network

import harness
import run
import steps
import wl_audit
import wl_cluster
import wl_serve
from checks import (
    check_honest,
    check_probe,
    check_rejudged,
    check_routes_read_back,
    check_trail,
    trail_differences,
)
from harness import CheckFailed
from tracing import LAYERS, LayerTracer

# -- generators ----------------------------------------------------------------

SESSIONS = [("AS0", "AS1"), ("AS0", "AS4"), ("AS2", "AS7"), ("AS5", "AS20"),
            ("AS6", "AS31"), ("AS9", "AS40")]


def first_rounds(generator, count=3):
    return list(itertools.islice(generator, count))


class TestGenerators:
    def test_audit_round_repeats_for_a_seed(self):
        assert (wl_audit.request_round(7, SESSIONS)
                == wl_audit.request_round(7, SESSIONS))

    def test_audit_round_differs_between_seeds(self):
        assert (wl_audit.request_round(7, SESSIONS)
                != wl_audit.request_round(8, SESSIONS))

    def test_audit_round_flaps_then_restores_every_session(self):
        requests = wl_audit.request_round(3, SESSIONS)
        assert len(requests) == 2 * len(SESSIONS)
        for flap, restore in zip(requests[::2], requests[1::2]):
            assert flap[0] is steps.flap and restore[0] is steps.restore
            assert flap[1] == restore[1]
        assert sorted(r[1] for r in requests[::2]) == sorted(SESSIONS)

    @pytest.mark.parametrize("module", [wl_serve, wl_cluster])
    def test_request_stream_repeats_for_a_seed(self, module):
        prefixes = serve_network(module.PREFIX_COUNT)[1]
        assert (first_rounds(module.rounds(5, prefixes))
                == first_rounds(module.rounds(5, prefixes)))

    @pytest.mark.parametrize("module", [wl_serve, wl_cluster])
    def test_request_stream_differs_between_seeds(self, module):
        prefixes = serve_network(module.PREFIX_COUNT)[1]
        assert (first_rounds(module.rounds(5, prefixes))
                != first_rounds(module.rounds(6, prefixes)))

    def test_serve_bursts_fit_the_queue_and_keep_their_layout(self):
        prefixes = serve_network(wl_serve.PREFIX_COUNT)[1]
        for bursts in first_rounds(wl_serve.rounds(1, prefixes), 4):
            assert [len(b) for b in bursts] == [wl_serve.BURST] * 2
            groups = [len(g) for b in bursts for g in wl_serve.churn_groups(b)]
            assert groups == [2, 2, 2, 2, 2, 2]

    def test_zipf_picks_are_distinct(self):
        import random

        picks = steps.zipf_distinct(random.Random(1), 16, 6)
        assert len(set(picks)) == 6


# -- statistics ----------------------------------------------------------------


class TestTailRule:
    def test_forty_samples_report_the_75th_percentile(self):
        values = list(range(1, 41))
        assert harness.tail_percentile(40) == 75.0
        assert harness.tail(values) == 30
        assert harness.nearest_rank(values, 75.0) == 30

    def test_a_hundred_samples_report_the_90th_percentile(self):
        values = list(range(100, 0, -1))
        assert harness.tail_percentile(100) == 90.0
        assert harness.tail(values) == 90
        assert sum(v > harness.tail(values) for v in values) == 10

    def test_median_is_nearest_rank(self):
        assert harness.nearest_rank([5, 1, 3, 2], 50) == 2
        assert harness.nearest_rank([1, 2, 3], 50) == 2

    def test_too_few_samples_have_no_tail(self):
        with pytest.raises(ValueError):
            harness.tail_percentile(39)


# -- names and units -----------------------------------------------------------


class _Tracer:
    counters = {"bgp.updates": 0, "encoding.bytes": 0}
    moduli = ()

    def aggregate(self):
        return {}


def fake_run():
    result = run.Run()
    result.setup_times = [1.0, 2.0, 3.0]
    result.cold_audit_times = [1.0, 1.0, 1.0]
    result.latencies = [0.01 * i for i in range(1, 51)]
    result.measured_s = 1.0
    result.window_s = 4.0
    result.peak_rss_mb = 30.0
    result.counts = {"fresh": 2, "reused": 1, "wire_bytes": 10, "epochs": 3,
                     "store_events": 5}
    return result


class TestDeclaredMetrics:
    def test_end_to_end_names_and_units_match(self):
        run.check_declared(run.end_to_end(fake_run()), "end_to_end")

    def test_per_layer_names_and_units_match(self):
        run.check_declared(run.per_layer(fake_run(), _Tracer(), 3.0),
                           "per_layer")

    def test_a_renamed_metric_is_caught(self):
        metrics = run.end_to_end(fake_run())
        metrics["latency_ms"] = metrics.pop("request_p50_ms")
        with pytest.raises(RuntimeError):
            run.check_declared(metrics, "end_to_end")

    def test_workloads_match(self):
        declared = {w["name"] for w in harness.benchmark_spec()["workloads"]}
        assert declared == set(run.WORKLOADS)


# -- the tracer ----------------------------------------------------------------


class TestTracer:
    def test_every_binding_is_wrapped_and_restored(self):
        from repro.crypto import hashing
        from repro.util import encoding

        original = encoding.canonical_encode
        assert hashing.canonical_encode is original
        with LayerTracer() as tracer:
            assert encoding.canonical_encode is not original
            assert hashing.canonical_encode is encoding.canonical_encode
            hashing.hash_value("test", (1, b"x"))
        assert encoding.canonical_encode is original
        assert hashing.canonical_encode is original
        layers = tracer.aggregate()
        # the encoder recurses through its public name: one call per item
        assert layers["encoding.encode"]["calls"] == 3
        assert layers["crypto.hash"]["calls"] == 1
        assert tracer.counters["encoding.bytes"] == len(
            encoding.canonical_encode((1, b"x")))

    def test_self_times_add_up_to_the_covered_time(self):
        from repro.crypto import hashing

        with LayerTracer() as tracer:
            for index in range(50):
                hashing.hash_value("test", ("x" * index, index))
        layers = tracer.aggregate()
        covered = layers.pop("<covered>")["total_s"]
        assert sum(e["self_s"] for e in layers.values()) == pytest.approx(
            covered)

    def test_every_layer_target_exists(self):
        with LayerTracer() as tracer:
            pass
        assert set(tracer.names) == {layer for layer, _, _ in LAYERS}


# -- output checks reject tampered trails --------------------------------------


@pytest.fixture(scope="module")
def trail():
    """A small real trail: a cold audit, an origin move, one probe."""
    network, prefixes = serve_network(2)
    keystore = KeyStore(seed="perfbench-test", key_bits=512)
    monitor = Monitor(keystore, rng_seed="perfbench-test").attach(network)
    monitor.policy("A", ShortestRoute(), max_length=8)
    monitor.run_until_idle()
    steps.apply((steps.move_origin, (str(prefixes[0]), "O", "X")), network)
    network.run_to_quiescence()
    moved = [e for o in monitor.run_until_idle() for e in o.events]
    probe = monitor.audit_once("A", prefixes[0], "B",
                               prover=LongerRouteProver(keystore))
    read_back = [
        (event, {r.neighbor: r
                 for r in network.router("A").candidates(event.prefix)
                 if r.neighbor not in event.spec.recipients})
        for event in moved
    ]
    return {
        "events": monitor.evidence.events(),
        "moved": moved,
        "probe": probe,
        "read_back": read_back,
        "judge": Judge(keystore),
    }


def flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0x01])


def forge_evidence(probe):
    """``probe`` with one byte of its violation evidence's signature
    flipped."""
    verdict = probe.report.verdicts["B"]
    violation = verdict.violations[0]
    evidence = violation.evidence
    attestation = dataclasses.replace(
        evidence.attestation,
        signature=flip_last_byte(evidence.attestation.signature),
    )
    forged = dataclasses.replace(
        verdict,
        violations=(dataclasses.replace(
            violation,
            evidence=dataclasses.replace(evidence, attestation=attestation),
        ),),
    )
    return dataclasses.replace(
        probe,
        report=dataclasses.replace(
            probe.report, verdicts=dict(probe.report.verdicts, B=forged),
        ),
    )


class TestChecksRejectTampering:
    def test_the_untampered_trail_passes(self, trail):
        check_trail(trail["events"], trail["events"])
        check_routes_read_back(trail["read_back"])
        check_honest(trail["moved"])
        check_probe(trail["probe"], trail["judge"])

    def test_a_stale_reused_verdict_is_rejected(self, trail):
        events = list(trail["events"])
        fresh = trail["moved"][0]
        stale_source = next(
            e for e in events
            if e.epoch == 1 and e.spec.recipients == fresh.spec.recipients
            and e.prefix == fresh.prefix
        )
        stale = reused_event(stale_source, seq=fresh.seq, epoch=fresh.epoch)
        tampered = [stale if e.seq == fresh.seq else e for e in events]
        assert trail_differences(tampered, events)
        with pytest.raises(CheckFailed):
            check_trail(tampered, events)
        held = next(h for e, h in trail["read_back"] if e is fresh)
        with pytest.raises(CheckFailed):
            check_routes_read_back([(stale, held)])

    def test_a_dropped_violation_is_rejected(self, trail):
        events = list(trail["events"])
        dropped = [e for e in events if e.seq != trail["probe"].seq]
        with pytest.raises(CheckFailed):
            check_trail(dropped, events)
        honest = trail["moved"][0]
        silenced = dataclasses.replace(
            trail["probe"],
            report=dataclasses.replace(
                trail["probe"].report,
                verdicts=honest.report.verdicts, equivocations=(),
            ),
        )
        with pytest.raises(CheckFailed):
            check_probe(silenced, trail["judge"])
        with pytest.raises(CheckFailed):
            check_honest([trail["probe"]])

    def test_a_flipped_verdict_byte_is_rejected(self, trail):
        events = list(trail["events"])
        target = trail["moved"][0]
        statement = target.report.transcript.commitment
        flipped = dataclasses.replace(
            statement, signature=flip_last_byte(statement.signature))
        report = dataclasses.replace(
            target.report,
            transcript=dataclasses.replace(
                target.report.transcript, commitment=flipped),
        )
        tampered = [
            dataclasses.replace(e, report=report) if e.seq == target.seq
            else e for e in events
        ]
        assert trail_differences(tampered, events) == [
            f"event seq {target.seq}: commitment"]
        with pytest.raises(CheckFailed):
            check_trail(tampered, events)

    def test_a_flipped_evidence_byte_fails_the_judge(self, trail):
        probe = trail["probe"]
        tampered = forge_evidence(probe)
        with pytest.raises(CheckFailed):
            check_probe(tampered, trail["judge"])
        with pytest.raises(CheckFailed):
            check_trail([tampered], [probe])

    def test_a_ruling_not_upheld_is_rejudged_with_the_reference_keys(
        self, trail
    ):
        probe = trail["probe"]
        # a judge whose keystore registered no key, as the cluster's does
        keyless = Judge(KeyStore(seed="perfbench-keyless", key_bits=512))
        ruling = probe.report.adjudicate(keyless)
        assert not ruling.evidence_ok()
        check_rejudged(probe.seq, ruling, trail["judge"])
        forged = forge_evidence(probe).report.adjudicate(keyless)
        with pytest.raises(CheckFailed):
            check_rejudged(probe.seq, forged, trail["judge"])
        empty = dataclasses.replace(ruling, evidence_rulings=())
        with pytest.raises(CheckFailed):
            check_rejudged(probe.seq, empty, trail["judge"])
