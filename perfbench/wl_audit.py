"""Workload ``audit-internet``: one Monitor over a 64-AS Internet at RSA-1024.

The topology is the 4/12/48 tier shape of the ``churn-64as`` scenario
(generator seed 2011).  Two prefixes are originated at stubs drawn with
the fixed workload seed :data:`ORIGIN_SEED`, and every tier-1 and tier-2
AS promises its lowest-numbered customer the shortest route.

A request flaps or restores one session that carries a provider route
into an audited tuple, converges BGP and runs epochs until the monitor
is idle.  One round of requests flaps and then restores every such
session once, in an order drawn from ``--seed``; each pair starts and
ends in the converged state, so a round does the same work whatever the
order.  A run serves :data:`ROUNDS` rounds.  ``--seed`` also roots the key material and the nonce stream.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.audit.monitor import Monitor
from repro.bgp.prefix import Prefix
from repro.crypto.keystore import KeyStore
from repro.promises.spec import ShortestRoute
from repro.pvr.adversary import LongerRouteProver
from repro.pvr.judge import Judge
from repro.topology.generate import TopologyParams, generate
from repro.topology.internet import build_bgp_network

import steps
from checks import check_probe, check_routes_read_back, check_honest
from harness import expect

NAME = "audit-internet"
TOPOLOGY = TopologyParams(tier1=4, tier2=12, stubs=48, seed=2011)
PREFIXES = tuple(Prefix.parse(f"10.{i}.0.0/16") for i in range(2))
ORIGIN_SEED = 2011
KEY_BITS = 1024
MAX_LENGTH = 16
PROBES = 4
#: rounds per run: a round's 60 requests differ widely in cost, so in
#: one round the tail (rank n - 10) falls between requests whose
#: latencies differ by up to 13%; in two, each level is there twice
ROUNDS = 2

Session = Tuple[str, str]


def _number(asn: str) -> int:
    return int(asn[2:])


def origins(graph) -> List[Tuple[Prefix, str]]:
    """The fixed origin stub of each prefix."""
    stubs = sorted(
        (asn for asn in graph.ases() if not graph.customers(asn)),
        key=_number,
    )
    chosen = random.Random(ORIGIN_SEED).sample(stubs, len(PREFIXES))
    return list(zip(PREFIXES, chosen))


def monitored(graph) -> List[Tuple[str, str]]:
    """(AS, recipient) for every tier-1/tier-2 AS: its lowest-numbered
    customer, or its lowest-numbered neighbor when it has none."""
    core = [f"AS{i}" for i in range(TOPOLOGY.tier1 + TOPOLOGY.tier2)]
    return [
        (asn, min(graph.customers(asn) or graph.neighbors(asn), key=_number))
        for asn in core
    ]


def provider_sessions(events) -> List[Session]:
    """Every session that carries a provider route into an audited
    tuple — the sessions whose flap changes some tuple's inputs."""
    found = set()
    for event in events:
        for provider in event.spec.providers:
            found.add(tuple(sorted((event.asn, provider), key=_number)))
    return sorted(found, key=lambda s: (_number(s[0]), _number(s[1])))


def request_round(seed: int, sessions: Sequence[Session]) -> List[tuple]:
    """One round: each session flapped then restored, in seeded order."""
    order = list(sessions)
    random.Random(f"{NAME}/{seed}").shuffle(order)
    requests = []
    for a, b in order:
        requests.append((steps.flap, (a, b)))
        requests.append((steps.restore, (a, b)))
    return requests


class AuditInternet:
    name = NAME
    #: independent set-ups (each with its cold audit) per run; the
    #: medians are reported and the last one serves the requests —
    #: 64 RSA-1024 keys take seconds
    repeats = 3

    def __init__(self, seed: int, work) -> None:
        self.seed = seed
        self.keystores: List[KeyStore] = []
        self.monitor = None
        self.network = None
        self.graph = None
        self.round: List[tuple] = []
        #: (event, provider routes read back from the routers at its epoch)
        self.read_back: List[Tuple[object, Dict[str, object]]] = []
        self.cold_events: List[object] = []
        self.measured_events: List[object] = []
        self.epochs = 0

    # -- set-up ------------------------------------------------------------

    def setup(self, repeat: int) -> None:
        """Build and converge the network, generate 64 RSA-1024 keys and
        register the policies.  Each repeat uses its own key seed, so
        no repeat can reuse another's keys."""
        graph = generate(TOPOLOGY)
        network = build_bgp_network(graph)
        for prefix, origin in origins(graph):
            network.originate(origin, prefix)
        network.run_to_quiescence()
        key_seed = f"{NAME}/{self.seed}/{repeat}"
        keystore = KeyStore(seed=key_seed, key_bits=KEY_BITS)
        monitor = Monitor(keystore, rng_seed=key_seed).attach(network)
        for asn, recipient in monitored(graph):
            monitor.policy(
                asn, ShortestRoute(), recipients=(recipient,),
                max_length=MAX_LENGTH,
            )
        self.graph, self.network, self.monitor = graph, network, monitor
        self.keystores.append(keystore)
        self.read_back, self.cold_events, self.measured_events = [], [], []

    def cold_audit(self) -> None:
        outcomes = self.monitor.run_until_idle()
        self.epochs += len(outcomes)
        for outcome in outcomes:
            self.cold_events.extend(outcome.events)
        self._read_back(self.cold_events)
        self.round = request_round(
            self.seed, provider_sessions(self.cold_events)
        )

    # -- the measured phase ------------------------------------------------

    def measure(self) -> List[float]:
        latencies: List[float] = []
        network, monitor = self.network, self.monitor
        for _ in range(ROUNDS):
            for step in self.round:
                began = time.perf_counter()
                steps.apply(step, network)
                network.run_to_quiescence()
                outcomes = monitor.run_until_idle()
                latencies.append(time.perf_counter() - began)
                self.epochs += len(outcomes)
                events = [e for o in outcomes for e in o.events]
                self.measured_events.extend(events)
                self._read_back(events)
        return latencies

    def _read_back(self, events) -> None:
        """Record, at this epoch, what the routers hold for each event."""
        for event in events:
            router = self.network.router(event.asn)
            held = {
                route.neighbor: route
                for route in router.candidates(event.prefix)
                if route.neighbor is not None
                and route.neighbor not in event.spec.recipients
            }
            self.read_back.append((event, held))

    def discard(self) -> None:
        """Nothing to release: the monitor holds no thread or file."""

    # -- output checks -----------------------------------------------------

    def check(self) -> None:
        check_routes_read_back(self.read_back)
        check_honest(self.cold_events + self.measured_events)
        targets = probe_targets(self.graph, self.network, self.seed)
        expect(
            len(targets) == PROBES,
            f"only {len(targets)} tuples admit a longer route to probe",
        )
        for asn, prefix, recipient in targets:
            event = self.monitor.audit_once(
                asn, prefix, recipient,
                prover=LongerRouteProver(self.monitor.keystore),
                max_length=MAX_LENGTH,
            )
            check_probe(event, Judge(self.monitor.keystore))

    def counts(self) -> Dict[str, float]:
        fresh = [e for e in self.measured_events if not e.reused]
        return {
            "fresh": len(fresh),
            "reused": len(self.measured_events) - len(fresh),
            "wire_bytes": sum(e.stats.bytes for e in fresh),
            "epochs": self.epochs,
            "store_events": len(self.monitor.evidence),
            "signatures": sum(k.sign_count for k in self.keystores),
            "verifications": sum(k.verify_count for k in self.keystores),
        }


def probe_targets(graph, network, seed: int) -> List[tuple]:
    """Audited tuples whose providers offer routes of different lengths,
    so a prover exporting the longest one breaks the promise."""
    candidates = []
    for asn, recipient in monitored(graph):
        router = network.router(asn)
        for prefix in PREFIXES:
            lengths = {
                route.path_length
                for route in router.candidates(prefix)
                if route.neighbor not in (None, recipient)
            }
            if len(lengths) > 1:
                candidates.append((asn, prefix, recipient))
    rng = random.Random(f"{NAME}/probes/{seed}")
    return rng.sample(candidates, min(PROBES, len(candidates)))
