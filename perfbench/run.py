"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit-internet --seed 1 \
        --seconds 8 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it first runs the same workload and seed
untraced in a child process, then repeats exactly the same requests
with every layer's entry points wrapped (:mod:`tracing`) and reports the
per-layer metrics, including what the tracing itself cost.  The last
line of standard output is always the result object.

A run serves a fixed number of requests per workload and never stops on
a clock, so the tail's rank and the mix of work cannot depend on the
host's speed.  ``--seconds`` is accepted for the command's interface;
the workloads' round counts are sized so that a run measures about the
run length of ``BENCHMARK.json`` or more on the reference host.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from typing import Dict, List

import harness
from harness import CheckFailed, Clock, metric

WORKLOADS = {
    "audit-internet": ("wl_audit", "AuditInternet"),
    "serve-mix": ("wl_serve", "ServeMix"),
    "cluster-durable": ("wl_cluster", "ClusterDurable"),
}
#: a child run must end well inside the 180 s one benchmark run may take
CHILD_TIMEOUT = 170


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load(name: str, seed: int, work):
    module_name, class_name = WORKLOADS[name]
    workload = getattr(importlib.import_module(module_name), class_name)
    return workload(seed, work)


class Run:
    """What one pass over a workload measured."""

    def __init__(self) -> None:
        self.setup_times: List[float] = []
        self.cold_audit_times: List[float] = []
        self.latencies: List[float] = []
        self.failed = 0
        self.measured_s = 0.0
        self.window_s = 0.0
        self.peak_rss_mb = 0.0
        self.counts: Dict[str, float] = {}


def execute(workload, tracer=None) -> Run:
    """Set up and audit cold several times (keeping the last set-up),
    then serve the workload's fixed rounds of requests."""
    run = Run()
    with tracer if tracer is not None else nullcontext():
        window = Clock()
        for repeat in range(workload.repeats):
            if repeat:
                workload.discard()
            clock = Clock()
            workload.setup(repeat)
            run.setup_times.append(clock.elapsed())
            clock = Clock()
            workload.cold_audit()
            run.cold_audit_times.append(clock.elapsed())
        phase = Clock()
        run.latencies = workload.measure()
        run.measured_s = phase.elapsed()
        run.window_s = window.elapsed()
    run.peak_rss_mb = harness.peak_rss_mb()
    run.counts = workload.counts()
    run.failed = int(run.counts.get("failed", 0))
    workload.discard()
    return run


def end_to_end(run: Run) -> Dict[str, dict]:
    fresh = run.counts["fresh"]
    return {
        "setup_s": metric(harness.median(run.setup_times), "s"),
        "cold_audit_s": metric(harness.median(run.cold_audit_times), "s"),
        "requests_per_s": metric(len(run.latencies) / run.measured_s, "1/s"),
        "request_p50_ms": metric(
            harness.nearest_rank(run.latencies, 50) * 1000.0, "ms"),
        "request_tail_ms": metric(harness.tail(run.latencies) * 1000.0, "ms"),
        "peak_rss_mb": metric(run.peak_rss_mb, "MB"),
        "wire_bytes_per_verdict": metric(
            run.counts["wire_bytes"] / fresh if fresh else 0.0, "B"),
    }


def per_layer(run: Run, tracer, untraced_s: float) -> Dict[str, dict]:
    """The per-layer metrics of a traced run; ``untraced_s`` is the
    measured phase of the same workload and seed run without tracing."""
    layers = tracer.aggregate()

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    counts = run.counts
    fresh, reused = counts["fresh"], counts["reused"]
    keygens = calls("crypto.keygen")
    records = counts.get("journal_records", 0)
    epochs = counts["epochs"]
    covered = layers["<covered>"]["total_s"] if "<covered>" in layers else 0.0
    values = {
        "topology.generate_s": (self_s("topology.generate"), "s"),
        "bgp.converge_s": (self_s("bgp.converge"), "s"),
        "bgp.converge_calls": (calls("bgp.converge"), "count"),
        "bgp.updates": (tracer.counters["bgp.updates"], "count"),
        "crypto.keygen_s": (self_s("crypto.keygen"), "s"),
        "crypto.keygen_calls": (keygens, "count"),
        "crypto.keygen_per_key": (
            keygens / len(tracer.moduli) if tracer.moduli else 0.0, "ratio"),
        "crypto.sign_s": (self_s("crypto.sign"), "s"),
        "crypto.signatures": (calls("crypto.sign"), "count"),
        "crypto.verify_s": (self_s("crypto.verify"), "s"),
        "crypto.verifications": (calls("crypto.verify"), "count"),
        "crypto.hash_s": (self_s("crypto.hash"), "s"),
        "crypto.hashes": (calls("crypto.hash"), "count"),
        "encoding.encode_s": (self_s("encoding.encode"), "s"),
        "encoding.calls": (calls("encoding.encode"), "count"),
        "encoding.bytes": (tracer.counters["encoding.bytes"], "B"),
        "simnet.estimate_s": (self_s("simnet.estimate"), "s"),
        "simnet.estimate_calls": (calls("simnet.estimate"), "count"),
        "audit.plan_s": (self_s("audit.plan"), "s"),
        "audit.execute_s": (self_s("audit.execute"), "s"),
        "audit.epochs": (epochs, "count"),
        "audit.fresh_verdicts": (fresh, "count"),
        "audit.reused_verdicts": (reused, "count"),
        "audit.reuse_ratio": (
            reused / (fresh + reused) if fresh + reused else 0.0, "ratio"),
        "audit.wire_bytes": (counts["wire_bytes"], "B"),
        "audit.query_s": (self_s("audit.query"), "s"),
        "audit.queries": (calls("audit.query"), "count"),
        "audit.store_events": (counts["store_events"], "count"),
        "pvr.judge_s": (self_s("pvr.judge"), "s"),
        "pvr.adjudications": (calls("pvr.judge"), "count"),
        "serve.queue_wait_ms": (counts.get("queue_wait_ms", 0.0), "ms"),
        "serve.service_ms": (counts.get("service_ms", 0.0), "ms"),
        "serve.batch_mean": (counts.get("batch_mean", 0.0), "count"),
        "serve.shard_exec_s": (self_s("serve.shard_exec"), "s"),
        "serve.merge_s": (self_s("serve.merge"), "s"),
        "cluster.fold_s": (self_s("cluster.fold"), "s"),
        "cluster.plans_per_epoch": (
            calls("audit.plan") / epochs if epochs else 0.0, "ratio"),
        "journal.append_s": (self_s("journal.append"), "s"),
        "journal.pack_s": (self_s("journal.pack"), "s"),
        "journal.checkpoint_s": (self_s("journal.checkpoint"), "s"),
        "journal.recover_s": (self_s("journal.recover"), "s"),
        "journal.records": (records, "count"),
        "journal.bytes": (counts.get("journal_bytes", 0), "B"),
        "journal.bytes_per_record": (
            counts.get("journal_bytes", 0) / records if records else 0.0, "B"),
        "journal.fsyncs": (counts.get("journal_fsyncs", 0), "count"),
        "trace.wall_s": (run.window_s, "s"),
        "trace.untraced_s": (run.window_s - covered, "s"),
        "trace.overhead_s": (run.measured_s - untraced_s, "s"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def check_declared(metrics: Dict[str, dict], kind: str) -> None:
    """The printed names and units are exactly those BENCHMARK.json lists."""
    declared = {m["name"]: m["unit"] for m in harness.benchmark_spec()[kind]}
    printed = {name: entry["unit"] for name, entry in metrics.items()}
    if declared != printed:
        raise RuntimeError(
            f"printed {kind} metrics differ from BENCHMARK.json: "
            f"declared {sorted(declared.items())}, "
            f"printed {sorted(printed.items())}"
        )


def verify(workload) -> bool:
    try:
        workload.check()
    except CheckFailed as failure:
        print(f"OUTPUT CHECK FAILED: {failure}", file=sys.stderr, flush=True)
        return False
    return True


def untraced(args, work) -> Dict[str, object]:
    workload = load(args.workload, args.seed, work)
    run = execute(workload)
    correct = verify(workload)
    metrics = end_to_end(run)
    check_declared(metrics, "end_to_end")
    return {"correct": correct, "attempted": len(run.latencies),
            "failed": run.failed, "metrics": metrics}


def untraced_child(args) -> Dict[str, object]:
    """Run the same workload and seed untraced, in a child process, and
    return its result object."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    lines = harness.stdout_lines(child.stdout)
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"untraced baseline run failed:\n{child.stderr[-2000:]}")
    return json.loads(lines[-1])


def traced(args, work) -> Dict[str, object]:
    from repro.crypto import hashing
    from tracing import LayerTracer

    baseline = untraced_child(args)
    workload = load(args.workload, args.seed, work)
    tracer = LayerTracer()
    hashes_before = hashing.hash_count()
    run = execute(workload, tracer)
    hashes = hashing.hash_count() - hashes_before
    correct = verify(workload)
    if baseline["attempted"] != len(run.latencies):
        raise RuntimeError(
            f"the untraced run served {baseline['attempted']} requests, "
            f"the traced run {len(run.latencies)}")
    # requests_per_s is the requests over the measured phase's wall
    untraced_s = (baseline["attempted"]
                  / baseline["metrics"]["requests_per_s"]["value"])
    metrics = per_layer(run, tracer, untraced_s)
    check_declared(metrics, "per_layer")
    if "signatures" in run.counts:
        # the traced op counts must equal the program's own counters
        expected = {
            "crypto.signatures": run.counts["signatures"],
            "crypto.verifications": run.counts["verifications"],
            "crypto.hashes": hashes,
        }
        for name, value in expected.items():
            if metrics[name]["value"] != value:
                print(f"TRACE COUNT MISMATCH: {name} traced "
                      f"{metrics[name]['value']}, counted {value}",
                      file=sys.stderr, flush=True)
                correct = False
    path = harness.work_dir() / f"spans-{args.workload}-{args.seed}.bin"
    tracer.write(path)
    print(f"spans: {len(tracer.layer)} written to {path}", flush=True)
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}")
    return {"correct": correct, "attempted": len(run.latencies),
            "failed": run.failed, "metrics": metrics}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set and dict order of strings must not vary between runs
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)
    try:
        harness.require_source()
    except harness.SourceMissing as missing:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    work = harness.work_dir(f"run-{os.getpid()}")
    try:
        result = (traced if args.trace else untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    harness.emit(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
