"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions and methods of each oraclesim
layer and rebinds every wrapper wherever the original object is bound: each
``oraclesim.*`` module namespace, and each class that holds it.  Nothing in
the program is edited, and `uninstall` puts every original back.

A wrapper records one span per call, ``(name, start_ns, end_ns, parent,
step)``, in memory.  The benchmark opens a root span per step.  Call counts
and self times are derived from the spans afterwards; a few layer-specific
counts are taken by hooks on the wrapped calls.  Wall-clock values stay in
the tracer, so they can never reach a hashed event log.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

# layer name -> the package or module that defines it
LAYERS = {
    "simchain": "oraclesim.simchain",
    "counterparty": "oraclesim.counterparty",
    "orisi": "oraclesim.orisi",
    "truthcoin": "oraclesim.truthcoin",
    "oraclize": "oraclesim.oraclize",
    "realitykeys": "oraclesim.realitykeys",
    "will_oracle": "oraclesim.will_oracle",
    "datafeed": "oraclesim.datafeed",
    "harness": "oraclesim.harness",
}

STEP = "bench.step"  # root span of one benchmark step


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return list(names)


def _defined_in(obj, package: str) -> bool:
    owner = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", "") or ""
    return owner == package or owner.startswith(package + ".")


def discover() -> list[tuple[str, object, str]]:
    """(metric name, owner, attribute) for every public function and method.

    A function exported by the layer is named ``<layer>.<name>``, a method
    ``<layer>.<Class>.<name>``, and a function of an exported submodule
    ``<layer>.<submodule>.<name>`` (as in ``truthcoin.lmsr.cost``).
    """
    found = []

    def visit(prefix: str, module, package: str) -> None:
        for name in _public_names(module):
            obj = getattr(module, name)
            if inspect.ismodule(obj) and _defined_in(obj, package):
                visit(f"{prefix}.{name}", obj, package)
            elif inspect.isfunction(obj) and _defined_in(obj, package):
                found.append((f"{prefix}.{name}", module, name))
            elif (
                inspect.isclass(obj)
                and _defined_in(obj, package)
                and not issubclass(obj, (BaseException, enum.Enum))
            ):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        found.append((f"{prefix}.{name}.{attr}", obj, attr))

    for layer, package in LAYERS.items():
        visit(layer, importlib.import_module(package), package)
    return found


def _bindings(original) -> list[tuple[object, str]]:
    """Every (namespace, attribute) in oraclesim that binds `original`."""
    where = []
    for modname, module in list(sys.modules.items()):
        if not (modname == "oraclesim" or modname.startswith("oraclesim.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                where.append((module, attr))
            elif inspect.isclass(value) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        where.append((value, cattr))
    return where


# --- hooks: counts taken at layer boundaries ---------------------------------


def _utxos_scanned(counts, args, result):
    counts["simchain.SimChain.utxos_for.scanned"] += len(args[0].utxo)


def _validate_ok(counts, args, result):
    counts["simchain.validate_tx.ok"] += bool(result)


def _submit_accepted(counts, args, result):
    counts["simchain.mempool.accepted"] += bool(result.accepted)


def _candidates_offered(counts, args, result):
    counts["simchain.mine_next.offered"] += len(result)


def _mempool_depth(counts, args):
    depth = len(args[1])
    counts["simchain.mempool.depth_sum"] += depth
    counts["simchain.mempool.depth_samples"] += 1
    counts["simchain.mempool.depth_max"] = max(counts["simchain.mempool.depth_max"], depth)


def _block_included(counts, args, result):
    counts["simchain.mine_next.included"] += len(result.txs)


def _replay_blocks(counts, args):
    counts["counterparty.replay.blocks"] += len(args[0].blocks)


def _mint_hashes(counts, args, result):
    counts["orisi.mint_message.hashes"] += result.nonce + 1


PRE_HOOKS = {
    "simchain.mine_next": _mempool_depth,
    "counterparty.replay": _replay_blocks,
}
POST_HOOKS = {
    "simchain.SimChain.utxos_for": _utxos_scanned,
    "simchain.validate_tx": _validate_ok,
    "simchain.Mempool.submit": _submit_accepted,
    "simchain.Mempool.candidates": _candidates_offered,
    "simchain.mine_next": _block_included,
    "orisi.mint_message": _mint_hashes,
}


class Tracer:
    """Spans and counts for one traced block of work."""

    def __init__(self) -> None:
        self.targets = discover()
        self.names = [STEP] + [name for name, _, _ in self.targets]
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.current = -1
        self.step_id = -1
        self._step_start = (0, 0)

    # --- step root spans, called by the benchmark ---------------------------

    def begin_step(self) -> None:
        self.step_id += 1
        index = len(self.spans)
        self.spans.append(None)
        self.current = index
        self._step_start = (index, perf_counter_ns())

    def end_step(self) -> None:
        index, start = self._step_start
        self.spans[index] = (0, start, perf_counter_ns(), -1, self.step_id)
        self.current = -1

    # --- wrapping -------------------------------------------------------------

    def _wrapper(self, fn, name_id: int, pre, post):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(tracer.counts, args)
            spans = tracer.spans
            parent = tracer.current
            index = len(spans)
            spans.append(None)
            tracer.current = index
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, perf_counter_ns(), parent, tracer.step_id)
                tracer.current = parent
            if post is not None:
                post(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name_id, (name, owner, attr) in enumerate(self.targets, start=1):
            member = vars(owner)[attr]
            pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrapper(member.__func__, name_id, pre, post))
                self._undo.append((owner, attr, member))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrapper(member, name_id, pre, post)
            for namespace, bound in _bindings(member):
                self._undo.append((namespace, bound, member))
                setattr(namespace, bound, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    # --- derived figures --------------------------------------------------------

    def summarize(self) -> tuple[dict[str, int], dict[str, float]]:
        """(calls per name, self seconds per name), derived from the spans.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly because the program is single-threaded.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for index, (name_id, start, end, _, _) in enumerate(spans):
            calls[name_id] += 1
            self_ns[name_id] += end - start - child_ns[index]
        return (
            dict(zip(self.names, calls)),
            {name: ns / 1e9 for name, ns in zip(self.names, self_ns)},
        )

    def write_spans(self, path) -> None:
        """Spans as CSV: one header line naming the columns, then one row each."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,parent,step,name,start_ns,end_ns\n")
            names = self.names
            for index, (name_id, start, end, parent, step) in enumerate(self.spans):
                out.write(f"{index},{parent},{step},{names[name_id]},{start},{end}\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
