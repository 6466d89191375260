"""Outside-in span tracing: wrap the program's layer boundaries at run time.

Nothing in ``src/`` knows about this file.  ``TARGETS`` is the one table
of span targets (dotted paths under ``repro.``, grouped by layer).
``Tracer.install`` wraps each: a class method is replaced on its class
with ``setattr``; a module function is rebound in every loaded ``repro.*``
module whose global *is* the original, because callers import functions
by name; a ``cached_property`` gets its ``func`` wrapped.

A span is (layer, start, end, parent).  Spans stay in memory in four flat
arrays and are reduced once, after the run: a layer's ``self_s`` is the
summed duration of its spans minus the part covered by their child spans.
A target that no longer resolves makes its layer ``None`` and lists it
under ``unresolved_layers`` — a refactor must not break the benchmark.

To add a span target, add its dotted path to the layer's tuple below (or
a new layer key, and its two metrics to ``BENCHMARK.json``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

TARGETS: "dict[str, tuple[str, ...]]" = {
    "crypto": (
        "crypto.keys.sign",
        "crypto.keys.verify",
        "crypto.merkle.merkle_root",
        "core.transaction.Transaction.signing_payload",
        "core.transaction.Transaction.tx_hash",
        "core.transaction.Transaction.encoded_size",
    ),
    "core.validation": (
        "core.validation.eager_validate",
        "core.validation.lazy_validate",
        "core.validation.check_signature",
    ),
    "core.txpool": (
        "core.txpool.TxPool.add",
        "core.txpool.TxPool.take_batch",
        "core.txpool.TxPool.remove_hashes",
        "core.txpool.TxPool.expire",
    ),
    "core.node": (
        "core.node.ValidatorNode.on_message",
        "core.node.ValidatorNode.submit_transaction",
        "core.node.ValidatorNode._start_round",
    ),
    "core.blockchain": ("core.blockchain.Blockchain.commit_superblock",),
    "core.rpm": ("core.node.ValidatorNode._invoke_rpm",),
    "consensus.broadcast": (
        "consensus.broadcast.ReliableBroadcast.on_message",
        "consensus.broadcast.ReliableBroadcast.broadcast_payload",
    ),
    "consensus.dbft": (
        "consensus.dbft.BinaryConsensus.on_message",
        "consensus.dbft.BinaryConsensus.propose",
    ),
    "consensus.superblock": (
        "consensus.superblock.SuperBlockConsensus.on_message",
        "consensus.superblock.SuperBlockConsensus.on_constituent",
        "consensus.superblock.SuperBlockConsensus.propose",
    ),
    "consensus.batching": (
        "consensus.batching.VoteBatcher.submit",
        "consensus.batching.VoteBatcher.flush",
    ),
    "net.transport": (
        "net.transport.Network.send",
        "net.transport.Network.broadcast",
        "net.transport.Network.send_to_peers",
    ),
    "net.gossip": (
        "net.gossip.GossipLayer.publish",
        "net.gossip.GossipLayer.handle",
    ),
    "net.simulator": (
        "net.simulator.Simulator.schedule",
        "net.simulator.Simulator.schedule_bucketed",
    ),
    "vm.executor": ("vm.executor.Executor.apply_transaction",),
    "vm.state": (
        "vm.state.WorldState.state_root",
        "vm.state.WorldState.snapshot",
        "vm.state.WorldState.revert",
    ),
}


def _resolve(path: str):
    """``(owner, attribute name, object)`` for a dotted path under
    ``repro.``; the owner is a module or a class.  Raises if it is gone."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module("repro." + ".".join(parts[:split]))
        except ImportError:
            continue
        rest = parts[split:]
        if not rest:
            break
        for name in rest[:-1]:
            owner = getattr(owner, name)
        if isinstance(owner, type):
            return owner, rest[-1], owner.__dict__[rest[-1]]
        return owner, rest[-1], getattr(owner, rest[-1])
    raise AttributeError(path)


def rebind(original, replacement) -> "list[tuple[object, str, object]]":
    """Point every global of every loaded ``repro.*`` module that *is*
    ``original`` at ``replacement`` (callers import functions by name);
    returns ``(module, name, original)`` records for undoing it."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for alias, value in list(vars(module).items()):
            if value is original:
                setattr(module, alias, replacement)
                undo.append((module, alias, original))
    return undo


class Tracer:
    """Records spans for every target in ``targets`` while installed."""

    def __init__(self, targets: "dict[str, tuple[str, ...]] | None" = None):
        self.targets = TARGETS if targets is None else targets
        self.layers = list(self.targets)
        self.unresolved_layers: "list[str]" = []
        self._undo: "list[tuple[object, str, object]]" = []
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span (called when set-up ends)."""
        self._layer = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def _wrap(self, fn, layer_id: int):
        # The recording arrays are looked up through ``self`` on every
        # call so that ``reset`` takes effect on already-installed wrappers.
        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack
            index = len(self._start)
            self._layer.append(layer_id)
            self._parent.append(stack[-1])
            self._end.append(0.0)
            stack.append(index)
            self._start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[index] = perf_counter()
                stack.pop()

        return span

    def install(self) -> None:
        for layer_id, layer in enumerate(self.layers):
            try:
                resolved = [_resolve(path) for path in self.targets[layer]]
            except (AttributeError, KeyError, ImportError):
                self.unresolved_layers.append(layer)
                continue
            for owner, name, obj in resolved:
                if isinstance(obj, functools.cached_property):
                    self._undo.append((obj, "func", obj.func))
                    obj.func = self._wrap(obj.func, layer_id)
                elif isinstance(owner, type):
                    self._undo.append((owner, name, obj))
                    setattr(owner, name, self._wrap(obj, layer_id))
                else:
                    self._undo += rebind(obj, self._wrap(obj, layer_id))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- reduction -------------------------------------------------------------

    def spans(self) -> "dict[str, np.ndarray]":
        """The raw spans as arrays (layer index, parent span, start, end)."""
        return {
            "layer": np.asarray(self._layer, dtype=np.int32),
            "parent": np.asarray(self._parent, dtype=np.int32),
            "start": np.asarray(self._start, dtype=np.float64),
            "end": np.asarray(self._end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per layer ``{"calls", "self_s"}`` (``None`` if unresolved), plus
        ``traced_self_s``, the total time under any span."""
        s = self.spans()
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        covered = np.bincount(
            s["parent"][has_parent], weights=duration[has_parent],
            minlength=len(duration),
        )
        self_time = duration - covered
        count = len(self.layers)
        calls = np.bincount(s["layer"], minlength=count)
        self_s = np.bincount(s["layer"], weights=self_time, minlength=count)
        layers: dict = {}
        for layer_id, layer in enumerate(self.layers):
            if layer in self.unresolved_layers:
                layers[layer] = None
            else:
                layers[layer] = {
                    "calls": int(calls[layer_id]),
                    "self_s": float(self_s[layer_id]),
                }
        return {
            "layers": layers,
            "unresolved_layers": list(self.unresolved_layers),
            "traced_self_s": float(self_time.sum()),
            "spans": int(len(duration)),
        }
