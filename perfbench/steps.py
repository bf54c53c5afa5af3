"""The benchmark's own churn steps and network factories.

Steps are ``(builder, args)`` pairs — ``builder(*args)`` returns a
``step(network)`` callable — so they pickle by reference and can cross
the cluster's journal.  They use only the public mutators of
:class:`~repro.bgp.network.BGPNetwork`, so a change to the scenario
registry's builders cannot change what a workload does.
"""

from __future__ import annotations

from typing import Callable

from repro.bgp.prefix import Prefix


def flap(a: str, b: str) -> Callable:
    """Drop the a<->b session (both sides withdraw what they learned)."""

    def step(network) -> None:
        network.drop_session(a, b)

    return step


def restore(a: str, b: str) -> Callable:
    """Re-establish a dropped session; both sides resend their tables."""

    def step(network) -> None:
        network.router(a).start_session(network.transport, b)

    return step


def bounce(a: str, b: str) -> Callable:
    """Flap and restore at once: the hooks fire, the routes come back."""

    def step(network) -> None:
        network.drop_session(a, b)
        network.run_to_quiescence()
        network.router(a).start_session(network.transport, b)

    return step


def move_origin(prefix: str, source: str, target: str) -> Callable:
    """Re-originate ``prefix`` at ``target`` instead of ``source``, which
    changes every route to it (a re-origination that moves paths)."""

    def step(network) -> None:
        parsed = Prefix.parse(prefix)
        network.withdraw(source, parsed)
        network.originate(target, parsed)

    return step


def reoriginate(prefix: str, origin: str) -> Callable:
    """Withdraw and re-announce ``prefix`` at the same origin: the routes
    settle back unchanged, so the audit is served from its cache."""

    def step(network) -> None:
        parsed = Prefix.parse(prefix)
        network.withdraw(origin, parsed)
        network.run_to_quiescence()
        network.originate(origin, parsed)

    return step


def apply(step, network) -> None:
    builder, args = step
    builder(*args)(network)


def zipf_distinct(rng, ranks: int, count: int, s: float = 1.1) -> list:
    """``count`` distinct 0-based ranks drawn with weight 1/rank^s, so
    the hot head of a Zipf popularity curve is picked most often."""
    if count > ranks:
        raise ValueError(f"cannot draw {count} distinct of {ranks} ranks")
    weights = [1.0 / (rank ** s) for rank in range(1, ranks + 1)]
    chosen: list = []
    while len(chosen) < count:
        rank = rng.choices(range(ranks), weights=weights)[0]
        if rank not in chosen:
            chosen.append(rank)
    return chosen
