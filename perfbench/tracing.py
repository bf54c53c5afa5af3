"""Per-layer spans recorded from the benchmark's own files.

:class:`LayerTracer` wraps the public functions and methods of each
layer of the program (see :data:`LAYERS`) for the duration of a traced
run and restores them afterwards.  Many modules bind a function with
``from ... import``, so a module-level function is replaced in *every*
loaded module whose namespace holds the original function object, not
only in the module that defines it.

Spans stay in memory as four parallel arrays (layer id, parent span,
start, end) and are written out once, at the end of the run.  A layer's
self time is the duration of its spans minus the part their child spans
cover; the self times of all spans add up to the time covered by the
outermost spans, and what the measured wall holds beyond that is
reported as untraced time.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute) — ``Class.method`` names a method
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("topology.generate", "repro.topology.generate", "generate"),
    ("bgp.converge", "repro.bgp.network", "BGPNetwork.run_to_quiescence"),
    ("crypto.keygen", "repro.crypto.rsa", "generate_keypair"),
    ("crypto.sign", "repro.crypto.rsa", "sign"),
    ("crypto.verify", "repro.crypto.rsa", "verify"),
    ("crypto.hash", "repro.crypto.hashing", "hash_bytes"),
    ("crypto.hash", "repro.crypto.hashing", "hash_many"),
    ("encoding.encode", "repro.util.encoding", "canonical_encode"),
    ("simnet.estimate", "repro.net.simnet", "estimate_size"),
    ("audit.plan", "repro.audit.monitor", "Monitor.plan_epoch"),
    ("audit.execute", "repro.audit.monitor", "Monitor.execute_plan"),
    ("audit.query", "repro.cluster.requests", "answer_query"),
    ("pvr.judge", "repro.pvr.session", "SessionReport.adjudicate"),
    ("serve.shard_exec", "repro.serve.sharding", "ShardExecutor.execute"),
    ("serve.merge", "repro.serve.merge", "fold_plan"),
    ("cluster.fold", "repro.cluster.fold", "SliceFold.add"),
    ("journal.append", "repro.journal.journal", "Journal.append"),
    ("journal.pack", "repro.journal.journal", "pack"),
    ("journal.checkpoint", "repro.journal.journal", "Journal.checkpoint"),
    ("journal.recover", "repro.journal.recovery", "recover_state"),
)


class LayerTracer:
    """Wrap every layer entry point while active; collect spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        #: distinct RSA moduli generated (keygen calls per distinct key)
        self.moduli: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, Tuple[object, object]] = {}

    # -- activation ------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for layer, module_name, attribute in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                wrapper = self._wrap(layer, original)
                setattr(owner, method, wrapper)
                self._restore.append((owner, method, original))
                self._wrappers[id(wrapper)] = (wrapper, original)
            else:
                original = getattr(module, attribute)
                wrapper = self._wrap(layer, original)
                self._wrappers[id(wrapper)] = (wrapper, original)
                self._rebind(original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, method, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[method] = original
            else:
                setattr(owner, method, original)
        self._restore.clear()
        # modules imported while active bound the wrappers themselves
        for wrapper, original in self._wrappers.values():
            self._rebind(wrapper, original, record=False)
        self._wrappers.clear()

    def _rebind(self, old: object, new: object, *, record: bool = True) -> None:
        """Replace every module-level binding of ``old`` with ``new``."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is old:
                    namespace[key] = new
                    if record:
                        self._restore.append((namespace, key, old))

    # -- the span recorder -----------------------------------------------------

    def _layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, function: Callable) -> Callable:
        layer_id = self._layer_id(name)
        before, after = _HOOKS.get(name, (None, None))
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        local, lock, clock = self._local, self._lock, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            state = before(tracer, args) if before is not None else None
            # outermost span of its layer on this thread: the encoder
            # recurses through its public name, and only the outer call's
            # output is bytes encoded
            outer = not stack or layer[stack[-1]] != layer_id
            with lock:
                index = len(layer)
                layer.append(layer_id)
                parent.append(stack[-1] if stack else -1)
                start.append(0.0)
                end.append(0.0)
            stack.append(index)
            began = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                finished = clock()
                stack.pop()
                start[index] = began
                end[index] = finished
            if after is not None and outer:
                after(tracer, args, result, state)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- results ---------------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, total and self seconds; plus the time
        covered by the outermost spans under the key ``"<covered>"``."""
        count = len(self.layer)
        child = [0.0] * count
        durations = [e - s for s, e in zip(self.start, self.end)]
        parent = self.parent
        covered = 0.0
        for index in range(count):
            owner = parent[index]
            if owner >= 0:
                child[owner] += durations[index]
            else:
                covered += durations[index]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        layer = self.layer
        names = self.names
        for index in range(count):
            entry = out[names[layer[index]]]
            entry["calls"] += 1
            entry["total_s"] += durations[index]
            entry["self_s"] += durations[index] - child[index]
        out["<covered>"] = {"calls": count, "total_s": covered,
                            "self_s": covered}
        return out

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header line, then the raw arrays."""
        header = {
            "layers": self.names,
            "spans": len(self.layer),
            "arrays": [
                ["layer", self.layer.typecode],
                ["parent", self.parent.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(handle)


# -- per-layer counters kept beside the spans ---------------------------------


def _updates_before(tracer: LayerTracer, args) -> Optional[int]:
    return args[0].total_updates()


def _updates_after(tracer: LayerTracer, args, result, before) -> None:
    tracer.counters["bgp.updates"] += args[0].total_updates() - before


def _encoded_after(tracer: LayerTracer, args, result, before) -> None:
    tracer.counters["encoding.bytes"] += len(result)


def _keygen_after(tracer: LayerTracer, args, result, before) -> None:
    tracer.moduli.add(result.n)


_HOOKS = {
    "bgp.converge": (_updates_before, _updates_after),
    "encoding.encode": (None, _encoded_after),
    "crypto.keygen": (None, _keygen_after),
}
