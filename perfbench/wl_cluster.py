"""Workload ``cluster-durable``: a journaled cluster that keeps crashing.

One :class:`~repro.cluster.cluster.Cluster` with the ``inline``
transport, two workers and 512-bit keys over the serving substrate with
:data:`PREFIX_COUNT` prefixes, keeping a write-ahead journal in a fresh
directory under the run's work directory and checkpointing every
:data:`CHECKPOINT_EVERY` commits.

Requests are served one at a time.  A script flaps and restores each of
the three transit sessions once, in an order drawn from ``--seed``, and
between them moves the origin of Zipf-hot prefixes (a re-origination
that changes every route to the prefix) and bounces another session;
every restore carries a Byzantine probe and is followed by an
adjudication of it.  A run serves :data:`SCRIPTS` scripts.  After
each script the coordinator is abandoned as a
crash leaves it — no ``stop()``, no journal close — and a new one is
built from the same spec, which recovers from the journal; the restart
is charged to the next request.  The keys and nonces are fixed per
set-up repeat.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.requests import AdjudicateRequest, AuditProbe, ChurnRequest
from repro.cluster.spec import ClusterSpec, PolicySpec
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.judge import Judge
from repro.pvr.scenarios import serve_network

import steps
from checks import (
    check_honest,
    check_probe,
    check_rejudged,
    check_trail,
    upheld,
)
from harness import expect

NAME = "cluster-durable"
PREFIX_COUNT = 4
KEY_BITS = 512
WORKERS = 2
MAX_LENGTH = 8
CHECKPOINT_EVERY = 8
#: restart scripts per run (21 requests each): a fixed count, so the
#: tail's rank and the mix of work do not depend on the host's speed
SCRIPTS = 6
#: the transit sessions whose flap re-routes every prefix at A
SESSIONS = (("O", "N2"), ("X", "N1"), ("X", "N3"))
#: stands in for the seq of the latest probe, resolved at send time
LATEST_PROBE = "latest-probe"


def cluster_network():
    """The spec's deterministic network factory (one replica per call)."""
    network, _ = serve_network(PREFIX_COUNT)
    return network


def prefixes():
    return serve_network(PREFIX_COUNT)[1]


def rounds(seed: int, prefix_list) -> Iterator[list]:
    """The request script, one restart interval at a time.  Per transit
    session, in
    seeded order: flap it, move a hot prefix's origin, restore it with a
    probe, adjudicate the probe, move another hot prefix, bounce another
    session, move a third hot prefix."""
    rng = random.Random(f"{NAME}/{seed}")
    origin = {str(p): "O" for p in prefix_list}

    def move(prefix) -> ChurnRequest:
        key = str(prefix)
        target = "X" if origin[key] == "O" else "O"
        step = (steps.move_origin, (key, origin[key], target))
        origin[key] = target
        return ChurnRequest(steps=(step,))

    while True:
        order = list(SESSIONS)
        rng.shuffle(order)
        script = []
        for a, b in order:
            moved = [prefix_list[rank] for rank in
                     steps.zipf_distinct(rng, len(prefix_list), 3)]
            probed = prefix_list[steps.zipf_distinct(rng, len(prefix_list), 1)[0]]
            bounced = rng.choice([s for s in SESSIONS if s != (a, b)])
            script.extend([
                ChurnRequest(steps=((steps.flap, (a, b)),)),
                move(moved[0]),
                ChurnRequest(
                    steps=((steps.restore, (a, b)),),
                    probes=(AuditProbe(
                        asn="A", prefix=probed, recipient="B",
                        prover=LongerRouteProver, max_length=MAX_LENGTH,
                    ),),
                ),
                LATEST_PROBE,
                move(moved[1]),
                ChurnRequest(steps=((steps.bounce, bounced),)),
                move(moved[2]),
            ])
        yield script


class ClusterDurable:
    name = NAME
    #: independent set-ups (each with its cold audit) per run; the
    #: medians are reported and the last one serves the requests —
    #: a set-up takes a fraction of a second
    repeats = 5

    def __init__(self, seed: int, work) -> None:
        self.seed = seed
        self.work = Path(work)
        self.spec: Optional[ClusterSpec] = None
        self.cluster: Optional[Cluster] = None
        self.journals: List[object] = []
        self.served: List[object] = []
        self.measured_outcomes: List[object] = []
        #: coordinator epochs over every set-up and the measured phase
        self.epochs = 0
        self.probe_events: List[object] = []
        #: every ruling served, upheld or not, by the seq it judged
        self.rulings: Dict[int, object] = {}
        #: (requests committed before the restart, requests recovered)
        self.recoveries: List[tuple] = []
        #: requests refused, shed or raising
        self.raised = 0
        #: adjudications whose ruling did not uphold a real violation —
        #: every one, today: the coordinator judges with a keystore in
        #: which no key was ever registered (see CHANGES.md, FOUND).
        #: They count as failed; :meth:`check` re-judges their evidence.
        self.not_upheld = 0

    # -- set-up ------------------------------------------------------------

    def setup(self, repeat: int) -> None:
        journal = self.work / f"{NAME}-{repeat}" / "journal"
        self.spec = ClusterSpec(
            network=cluster_network,
            policies=(PolicySpec("A", ShortestRoute(),
                                 {"max_length": MAX_LENGTH}),),
            workers=WORKERS,
            transport="inline",
            key_bits=KEY_BITS,
            rng_seed=f"{NAME}/{repeat}",
            journal=str(journal),
            journal_checkpoint_every=CHECKPOINT_EVERY,
        )
        self.cluster = Cluster(self.spec)
        self.journals.append(self.cluster.journal)
        self.served = []

    def cold_audit(self) -> None:
        request = ChurnRequest()
        completion = self.cluster.request(request)
        self.served.append(request)
        self.epochs += len(completion.payload.reports)

    # -- the measured phase ------------------------------------------------

    def measure(self) -> List[float]:
        latencies: List[float] = []
        scripts = itertools.islice(rounds(self.seed, prefixes()), SCRIPTS)
        for index, script in enumerate(scripts):
            for position, request in enumerate(script):
                began = time.perf_counter()
                if index and not position:
                    self._restart()
                latencies.append(self._serve(request, began))
        return latencies

    def _serve(self, request, began: float) -> float:
        """Serve one request; return its latency from ``began``."""
        if request is LATEST_PROBE:
            request = AdjudicateRequest(seq=self.probe_events[-1].seq)
        try:
            completion = self.cluster.request(request)
        except Exception:
            self.raised += 1
            return time.perf_counter() - began
        latency = time.perf_counter() - began
        self.served.append(request)
        if isinstance(request, AdjudicateRequest):
            self.rulings.update(completion.payload)
            if not all(map(upheld, completion.payload.values())):
                self.not_upheld += 1
        else:
            self.epochs += len(completion.payload.reports)
            self.measured_outcomes.append(completion.payload)
            self.probe_events.extend(completion.payload.probe_events)
        return latency

    def _restart(self) -> None:
        """Abandon the coordinator mid-life and recover a new one."""
        committed = len(self.served)
        self.cluster = Cluster(self.spec)
        self.journals.append(self.cluster.journal)
        self.recoveries.append((committed, self.cluster.recovered_requests))

    def discard(self) -> None:
        """Stop the current coordinator (a clean stop, not a crash)."""
        if self.cluster is not None:
            self.cluster.stop()

    # -- output checks -----------------------------------------------------

    def reference(self):
        """A plain unsharded monitor driven over the same requests, one
        request per group, exactly as the cluster served them."""
        monitor = self.spec.build_monitor()
        network = monitor.network
        for request in self.served:
            if not isinstance(request, ChurnRequest):
                continue  # adjudication leaves the trail unchanged
            for step in request.steps:
                steps.apply(step, network)
            network.run_to_quiescence()
            while monitor.pending():
                monitor.run_epoch()
            for probe in request.probes:
                monitor.audit_once(
                    probe.asn, probe.prefix, probe.recipient,
                    prover=probe.prover(monitor.keystore),
                    max_length=probe.max_length,
                )
        return monitor

    def check(self) -> None:
        expect(self.raised == 0,
               f"{self.raised} requests were refused, shed or raised")
        for committed, recovered in self.recoveries:
            expect(committed == recovered,
                   f"a restart recovered {recovered} requests, "
                   f"{committed} were committed")
        trail = self.cluster.evidence.events()
        reference = self.reference()
        check_trail(trail, reference.evidence.events())
        probes = {event.seq for event in self.probe_events}
        check_honest(e for e in trail if e.seq not in probes)
        expect(self.probe_events, "no probe was injected")
        judge = Judge(reference.keystore)
        for event in self.probe_events:
            check_probe(event, judge)
        expect(len(self.rulings) == len(self.probe_events),
               f"{len(self.rulings)} rulings for "
               f"{len(self.probe_events)} probes")
        for seq, ruling in self.rulings.items():
            if not upheld(ruling):
                check_rejudged(seq, ruling, judge)

    def counts(self) -> Dict[str, float]:
        events = [e for o in self.measured_outcomes for e in o.events]
        fresh = [e for e in events if not e.reused] + [
            e for o in self.measured_outcomes for e in o.probe_events
        ]
        return {
            "fresh": len(fresh),
            "reused": sum(1 for e in events if e.reused),
            "wire_bytes": sum(e.stats.bytes for e in fresh),
            "epochs": self.epochs,
            "store_events": len(self.cluster.evidence),
            "failed": self.raised + self.not_upheld,
            "journal_records": sum(j.appended for j in self.journals),
            "journal_bytes": sum(j.bytes_written for j in self.journals),
            "journal_fsyncs": sum(j.fsyncs for j in self.journals),
        }
