"""Output checks, run after every run's timed window.

Each check compares the program's results against values obtained apart
from the measured path — routes read back from the routers, a plain
unsharded :class:`~repro.audit.monitor.Monitor` driven separately over
the same requests, and the judge over injected faults — and raises
:class:`~harness.CheckFailed` on the first disagreement it reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from harness import expect

#: event fields that must match the reference exactly
_IDENTITY = ("seq", "epoch", "round", "asn", "policy", "reused", "spec",
             "routes")
#: cost counters that must match (wall time is the one that may not)
_STATS = ("signatures", "verifications", "messages", "bytes", "violations",
          "equivocations", "reused")
#: differences a failed trail check reports before it stops looking
REPORTED = 10


def event_differences(ours, theirs) -> List[str]:
    """Every way one recorded event differs from its reference."""
    found = []
    for name in _IDENTITY:
        if getattr(ours, name) != getattr(theirs, name):
            found.append(name)
    if str(ours.prefix) != str(theirs.prefix):
        found.append("prefix")
    mine, other = ours.report, theirs.report
    if mine.verdicts != other.verdicts:
        found.append("verdicts")
    if mine.equivocations != other.equivocations:
        found.append("equivocations")
    if mine.all_evidence() != other.all_evidence():
        found.append("evidence")
    if mine.all_complaints() != other.all_complaints():
        found.append("complaints")
    if mine.transcript.commitment != other.transcript.commitment:
        found.append("commitment")
    for name in _STATS:
        if getattr(ours.stats, name) != getattr(theirs.stats, name):
            found.append(f"stats.{name}")
    return found


def trail_differences(ours: Sequence, reference: Sequence) -> List[str]:
    """Human-readable differences between two evidence trails (at most
    :data:`REPORTED` of them)."""
    problems = []
    if len(ours) != len(reference):
        problems.append(
            f"trail has {len(ours)} events, the reference {len(reference)}"
        )
    for mine, theirs in zip(ours, reference):
        differs = event_differences(mine, theirs)
        if differs:
            problems.append(f"event seq {theirs.seq}: {', '.join(differs)}")
        if len(problems) >= REPORTED:
            break
    return problems


def check_trail(ours: Sequence, reference: Sequence) -> None:
    problems = trail_differences(ours, reference)
    expect(not problems, "trail differs from the unsharded reference: "
           + "; ".join(problems))


def check_routes_read_back(
    read_back: Iterable[Tuple[object, Dict[str, object]]]
) -> None:
    """Each verdict audited exactly the provider routes the converged
    routers held at its epoch (a stale cache hit carries old routes)."""
    for event, held in read_back:
        expect(
            dict(event.routes) == held,
            f"event seq {event.seq} ({event.asn}, {event.prefix}) audited "
            f"providers {sorted(event.routes)} but the router held "
            f"{sorted(held)} or different routes",
        )


def check_honest(events: Iterable) -> None:
    """Honest provers: no verdict of the epoch trail flags a violation."""
    for event in events:
        expect(
            not event.violation_found(),
            f"honest event seq {event.seq} ({event.asn}, {event.prefix}) "
            f"reports a violation",
        )


def upheld(adjudication) -> bool:
    """The judge found transferable evidence and every piece of it valid."""
    return bool(adjudication.guilty()) and adjudication.evidence_ok()


def check_probe(event, judge) -> None:
    """An injected Byzantine probe is flagged, and ``judge`` (holding
    the reference keys) finds its evidence present and valid."""
    expect(event.violation_found(),
           f"injected probe seq {event.seq} was not flagged")
    evidence = event.report.all_evidence()
    expect(bool(evidence) and all(judge.validate(e) for e in evidence),
           f"the judge did not uphold injected probe seq {event.seq}")


def check_rulings(rulings: Dict[int, object]) -> None:
    for seq, ruling in rulings.items():
        expect(upheld(ruling), f"adjudication of seq {seq} was not upheld")


def check_rejudged(seq: int, ruling, judge) -> None:
    """A ruling the program did not uphold is tolerated only when
    ``judge`` (holding the reference keys) upholds the very evidence it
    ruled on: the program then erred in judging, not in what it
    recorded."""
    evidence = [item for item, _ in ruling.evidence_rulings]
    expect(bool(evidence) and all(judge.validate(e) for e in evidence),
           f"adjudication of seq {seq} was not upheld, and its evidence "
           f"does not hold before a judge with the reference keys either")
