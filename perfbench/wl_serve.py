"""Workload ``serve-mix``: many small requests through the sharded service.

One :class:`~repro.serve.service.VerificationService` fronts the serving
substrate (Figure 1 plus a second customer, 16 prefixes originated at O)
with two shards on the in-process ``serial`` backend and 512-bit keys;
A promises the shortest route to both customers.

A single asyncio client sends bursts of :data:`BURST` requests.  Each
burst is admitted with ``submit_nowait`` in one step and awaited whole;
the burst fits the queue and the dispatcher's batch, so nothing is
refused and the coalesced churn groups are the same on every run.  A
round is the two burst layouts in :data:`LAYOUT`: churn moves the origin
of a Zipf-hot prefix between O and X (two fresh verdicts) or re-announces
one in place (served from the cache), queries read the trail, one churn
request carries a Byzantine probe, and one adjudication judges that
probe.  A run serves :data:`ROUNDS` rounds.  ``--seed`` picks the
prefixes and roots the nonce stream; the keys are fixed per set-up
repeat.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import statistics
import time
from typing import Dict, Iterator, List, Optional

from repro.audit.monitor import Monitor
from repro.cluster.requests import (
    AdjudicateRequest,
    AuditProbe,
    ChurnRequest,
    QueryRequest,
)
from repro.crypto.keystore import KeyStore
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.judge import Judge
from repro.pvr.scenarios import serve_network
from repro.serve.service import VerificationService

import steps
from checks import check_honest, check_probe, check_rulings, check_trail
from harness import expect

NAME = "serve-mix"
PREFIX_COUNT = 16
KEY_BITS = 512
SHARDS = 2
BURST = 8
MAX_LENGTH = 8
#: one round: two bursts; "move" and "reorigin" are churn, "probe" is a
#: move carrying a LongerRouteProver probe, "summary"/"events" are
#: queries and "adjudicate" judges the most recent probe
LAYOUT = (
    ("move", "move", "summary", "probe", "move", "events", "move",
     "reorigin"),
    ("move", "move", "events", "move", "move", "adjudicate", "move",
     "reorigin"),
)
#: rounds per run (16 requests each): a fixed count, so the tail's rank
#: and the mix of work do not depend on the host's speed
ROUNDS = 22
#: stands in for the seq of the latest probe, resolved at send time
LATEST_PROBE = "latest-probe"


def rounds(seed: int, prefixes) -> Iterator[List[list]]:
    """The request stream, one round (a list of bursts) at a time."""
    rng = random.Random(f"{NAME}/{seed}")
    origin = {str(p): "O" for p in prefixes}
    while True:
        bursts = []
        for layout in LAYOUT:
            churn = sum(kind in ("move", "probe", "reorigin") for kind in layout)
            hot = iter(steps.zipf_distinct(rng, len(prefixes), churn))
            burst = []
            for kind in layout:
                if kind in ("move", "probe"):
                    prefix = prefixes[next(hot)]
                    key = str(prefix)
                    target = "X" if origin[key] == "O" else "O"
                    step = (steps.move_origin, (key, origin[key], target))
                    origin[key] = target
                    probes = ()
                    if kind == "probe":
                        probes = (AuditProbe(
                            asn="A", prefix=prefix, recipient="B",
                            prover=LongerRouteProver, max_length=MAX_LENGTH,
                        ),)
                    burst.append(ChurnRequest(steps=(step,), probes=probes))
                elif kind == "reorigin":
                    prefix = str(prefixes[next(hot)])
                    burst.append(ChurnRequest(
                        steps=((steps.reoriginate, (prefix, origin[prefix])),),
                    ))
                elif kind == "summary":
                    burst.append(QueryRequest(what="summary"))
                elif kind == "events":
                    rank = steps.zipf_distinct(rng, len(prefixes), 1)[0]
                    burst.append(QueryRequest(
                        what="events", asn="A", prefix=prefixes[rank],
                    ))
                else:
                    burst.append(LATEST_PROBE)
            bursts.append(burst)
        yield bursts


def churn_groups(burst) -> List[List[ChurnRequest]]:
    """The coalesced groups the dispatcher forms from one whole-burst
    batch: maximal runs of adjacent churn requests."""
    groups, current = [], []
    for request in burst:
        if isinstance(request, ChurnRequest):
            current.append(request)
        elif current:
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


class ServeMix:
    name = NAME
    #: independent set-ups (each with its cold audit) per run; the
    #: medians are reported and the last one serves the requests —
    #: a set-up takes a fraction of a second
    repeats = 9

    def __init__(self, seed: int, work) -> None:
        self.seed = seed
        self.service: Optional[VerificationService] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.prefixes = ()
        self.key_seed = None
        #: the churn groups served, in order — what the reference replays
        self.groups: List[List[ChurnRequest]] = []
        self.measured_outcomes: Dict[int, object] = {}
        self.probe_events: List[object] = []
        self.rulings: Dict[int, object] = {}
        self.completions: List[object] = []
        #: epochs over every set-up's cold audit and the measured phase
        self.epochs = 0
        self.failed = 0
        self.churn_requests = 0

    # -- set-up ------------------------------------------------------------

    def setup(self, repeat: int) -> None:
        network, prefixes = serve_network(PREFIX_COUNT)
        self.key_seed = f"{NAME}/keys/{repeat}"
        service = VerificationService(
            network,
            shards=SHARDS,
            backend="serial",
            keystore=KeyStore(seed=self.key_seed, key_bits=KEY_BITS),
            rng_seed=f"{NAME}/{self.seed}",
            queue_depth=BURST,
            batch_max=BURST,
        )
        service.policy("A", ShortestRoute(), max_length=MAX_LENGTH)
        self.service, self.prefixes = service, prefixes
        self.groups = []

    def cold_audit(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._cold())

    async def _cold(self) -> None:
        await self.service.start()
        request = ChurnRequest()
        completion = await self.service.request(request)
        self.groups.append([request])
        self.epochs += len(completion.payload.reports)

    # -- the measured phase ------------------------------------------------

    def measure(self) -> List[float]:
        return self.loop.run_until_complete(self._measure())

    async def _measure(self) -> List[float]:
        latencies: List[float] = []
        stream = itertools.islice(rounds(self.seed, self.prefixes), ROUNDS)
        for bursts in stream:
            for burst in bursts:
                latencies.extend(await self._send(burst))
        return latencies

    async def _send(self, burst) -> List[float]:
        requests = [
            AdjudicateRequest(seq=self.probe_events[-1].seq)
            if request is LATEST_PROBE else request
            for request in burst
        ]
        sent, done = [], [0.0] * len(requests)
        futures = []
        for index, request in enumerate(requests):
            sent.append(time.perf_counter())
            future = self.service.submit_nowait(request)
            future.add_done_callback(
                lambda _f, i=index: done.__setitem__(i, time.perf_counter())
            )
            futures.append(future)
        results = await asyncio.gather(*futures, return_exceptions=True)
        self.groups.extend(churn_groups(requests))
        for request, result in zip(requests, results):
            if isinstance(result, BaseException):
                self.failed += 1
                continue
            self.completions.append(result)
            if isinstance(request, ChurnRequest):
                self.churn_requests += 1
                outcome = result.payload
                if id(outcome) not in self.measured_outcomes:
                    self.measured_outcomes[id(outcome)] = outcome
                    self.epochs += len(outcome.reports)
                    self.probe_events.extend(outcome.probe_events)
            elif isinstance(request, AdjudicateRequest):
                self.rulings.update(result.payload)
        return [end - start for start, end in zip(sent, done)]

    def discard(self) -> None:
        """Stop the service and its event loop (and the loop's thread)."""
        if self.loop is None:
            return
        self.loop.run_until_complete(self.service.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.loop = None

    # -- output checks -----------------------------------------------------

    def reference(self) -> Monitor:
        """A plain unsharded monitor driven over the same churn groups."""
        network, _ = serve_network(PREFIX_COUNT)
        keystore = KeyStore(seed=self.key_seed, key_bits=KEY_BITS)
        monitor = Monitor(keystore, rng_seed=f"{NAME}/{self.seed}")
        monitor.attach(network)
        monitor.policy("A", ShortestRoute(), max_length=MAX_LENGTH)
        for group in self.groups:
            for request in group:
                for step in request.steps:
                    steps.apply(step, network)
            network.run_to_quiescence()
            monitor.run_epoch()  # the service runs at least one epoch
            while monitor.pending():
                monitor.run_epoch()
            for request in group:
                for probe in request.probes:
                    monitor.audit_once(
                        probe.asn, probe.prefix, probe.recipient,
                        prover=probe.prover(keystore),
                        max_length=probe.max_length,
                    )
        return monitor

    def check(self) -> None:
        expect(self.failed == 0,
               f"{self.failed} requests were refused, shed or raised")
        trail = self.service.evidence.events()
        reference = self.reference()
        check_trail(trail, reference.evidence.events())
        probes = {event.seq for event in self.probe_events}
        check_honest(e for e in trail if e.seq not in probes)
        expect(self.probe_events, "no probe was injected")
        check_rulings(self.rulings)
        judge = Judge(reference.keystore)
        for event in self.probe_events:
            check_probe(event, judge)

    def counts(self) -> Dict[str, float]:
        events = [
            e for outcome in self.measured_outcomes.values()
            for e in outcome.events
        ]
        fresh = [e for e in events if not e.reused] + [
            e for outcome in self.measured_outcomes.values()
            for e in outcome.probe_events
        ]
        measured_epochs = sum(
            len(o.reports) for o in self.measured_outcomes.values()
        )
        return {
            "fresh": len(fresh),
            "reused": sum(1 for e in events if e.reused),
            "wire_bytes": sum(e.stats.bytes for e in fresh),
            "epochs": self.epochs,
            "store_events": len(self.service.evidence),
            "failed": self.failed,
            "queue_wait_ms": 1000.0 * statistics.median(
                c.queue_delay for c in self.completions),
            "service_ms": 1000.0 * statistics.median(
                c.service_time for c in self.completions),
            "batch_mean": (
                self.churn_requests / measured_epochs
                if measured_epochs else 0.0
            ),
        }
