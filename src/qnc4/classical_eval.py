"""Run classical protocols on concrete letters and check delivery.

Evaluation walks the network in topological order, so it needs a validated
instance: a D3Network is valid by construction, and a plain Network with
its ClassicalProtocol should pass `validate_network` first.
"""

import itertools
from dataclasses import dataclass

from .errors import SizeError
from .netgraph import D3Network, Letter, as_letter

# 4**8 = 65536 rows; beyond this, exhaustive checks are refused
MAX_EXHAUSTIVE_SOURCES = 8


def _resolve(instance, proto):
    if isinstance(instance, D3Network):
        return instance.network, instance.protocol
    if proto is None:
        raise TypeError("a plain Network needs its ClassicalProtocol")
    return instance, proto


def _combine(group, vals, ins, terms) -> Letter:
    acc = 0
    for t in terms:
        acc = group.add(acc, t.map(vals[ins[t.in_pos]]))
    return acc


def edge_values(instance, proto, inputs) -> list[Letter]:
    """The letter carried by every edge, indexed by edge id.

    `inputs` lists one letter per source, in sorted source-id order.
    """
    net, proto = _resolve(instance, proto)
    sources = net.source_ids
    if len(inputs) != len(sources):
        raise ValueError(f"expected {len(sources)} input letters, got {len(inputs)}")
    by_source = dict(zip(sources, map(as_letter, inputs)))
    vals: list = [None] * len(net.edges)
    for v in net.topo_order:
        kind = net.kind_of[v]
        outs = net.out_edges(v)
        if kind == "source":
            for e in outs:
                vals[e] = by_source[v]
        elif kind == "internal":
            ins = net.in_edges(v)
            for op in proto.ops[v]:
                vals[outs[op.out_pos]] = _combine(proto.group, vals, ins, op.terms)
    return vals


def evaluate(instance, proto, inputs) -> tuple[Letter, ...]:
    """Letters delivered at the sinks, in sorted sink-id order."""
    net, proto = _resolve(instance, proto)
    vals = edge_values(net, proto, inputs)
    out = []
    for t in net.sink_ids:
        out.append(_combine(proto.group, vals, net.in_edges(t), proto.decode_terms(t)))
    return tuple(out)


@dataclass
class TruthTable:
    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    rows: dict[tuple[Letter, ...], tuple[Letter, ...]]


def _guard_sources(n: int, what: str):
    if n > MAX_EXHAUSTIVE_SOURCES:
        raise SizeError(
            f"{what} over {n} sources needs 4**{n} rows; "
            f"refusing beyond {MAX_EXHAUSTIVE_SOURCES} sources"
        )


def truth_table(instance, proto=None) -> TruthTable:
    """Outputs for every input tuple (guarded at 4**8 rows)."""
    net, proto = _resolve(instance, proto)
    sources = tuple(net.source_ids)
    _guard_sources(len(sources), "truth table")
    rows = {}
    for xs in itertools.product((0, 1, 2, 3), repeat=len(sources)):
        rows[xs] = evaluate(net, proto, xs)
    return TruthTable(sources, tuple(net.sink_ids), rows)


@dataclass
class RequirementResult:
    ok: bool
    counterexample: tuple[Letter, ...] | None


def check_requirement(instance, proto=None) -> RequirementResult:
    """Does every sink always receive its required source letter?

    Exhaustive over all input tuples; the first failing tuple is returned.
    """
    net, proto = _resolve(instance, proto)
    sources = net.source_ids
    _guard_sources(len(sources), "requirement check")
    src_index = {s: i for i, s in enumerate(sources)}
    want = [src_index[net.requirements[t]] for t in net.sink_ids]
    for xs in itertools.product((0, 1, 2, 3), repeat=len(sources)):
        ys = evaluate(net, proto, xs)
        if any(y != xs[w] for y, w in zip(ys, want)):
            return RequirementResult(False, xs)
    return RequirementResult(True, None)
