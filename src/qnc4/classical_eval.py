"""Run classical protocols on concrete letters and check delivery.

Evaluation walks the network in topological order, so it needs a validated
instance: a D3Network is valid by construction, and a plain Network with
its ClassicalProtocol should pass `validate_network` first.

One walk evaluates a whole list of input rows (`_columns`).  Each edge
carries a column, its letter on every row, as one byte per row.  Over the
4^S rows of S sources, row j gives source i the letter
(j >> 2(S-1-i)) & 3, so the rows run through the input tuples in
lexicographic order, first source highest.  A node's output column is the
group sum of its terms' mapped input columns, computed entry-wise from each
map's value table and the group's 16-entry addition table; an identity term
reads its input column as is.  A sink's decoded column is summed the same
way in the same walk.  No row count is passed: a column's length is its
row count.  `edge_values` and `evaluate` walk one row, `truth_table` and
`check_requirement` all 4^S rows at once.
"""

from collections import namedtuple
from itertools import product
from operator import getitem

from .errors import SizeError
from .netgraph import IDENTITY_MAP, LETTERS, D3Network, GroupKind, Letter, as_letter

# 4**8 = 65536 rows; beyond this, exhaustive checks are refused
MAX_EXHAUSTIVE_SOURCES = 8

# each group's addition table: _ADD[group][a][b] is a + b
_ADD = {g: tuple(bytes(g.add(a, b) for b in LETTERS) for a in LETTERS) for g in GroupKind}


def _resolve(instance, proto):
    if isinstance(instance, D3Network):
        return instance.network, instance.protocol
    if proto is None:
        raise TypeError("a plain Network needs its ClassicalProtocol")
    return instance, proto


def _sum(add, cols, ins, terms) -> bytes:
    """The column of sum h(X) over the terms, from the edge columns; all
    00 on a node with no terms, as long as its first input's column."""
    acc = None
    for t in terms:
        col = cols[ins[t.in_pos]]
        if t.map != IDENTITY_MAP:
            col = bytes(map(t.map.__getitem__, col))
        acc = col if acc is None else bytes(map(getitem, map(add.__getitem__, acc), col))
    return bytes(len(cols[ins[0]])) if acc is None else acc


def _columns(net, proto, sources: list[bytes]) -> tuple[list, list[bytes]]:
    """Every edge's column, indexed by edge id, and every sink's, in sorted
    sink-id order, from one column per source in sorted source-id order."""
    add = _ADD[proto.group]
    by_source = dict(zip(net.source_ids, sources))
    cols: list = [None] * len(net.edges)
    sinks = {}
    for v in net.topo_order:
        kind = net.kind_of[v]
        ins, outs = net.in_edges(v), net.out_edges(v)
        if kind == "source":
            for e in outs:
                cols[e] = by_source[v]
        elif kind == "internal":
            for op in proto.ops[v]:
                cols[outs[op.out_pos]] = _sum(add, cols, ins, op.terms)
        else:  # a sink
            sinks[v] = _sum(add, cols, ins, proto.decode_terms(v))
    return cols, [sinks[t] for t in net.sink_ids]


def _one_row(net, inputs) -> list[bytes]:
    sources = net.source_ids
    if len(inputs) != len(sources):
        raise ValueError(f"expected {len(sources)} input letters, got {len(inputs)}")
    return [bytes((as_letter(x),)) for x in inputs]


def edge_values(instance, proto, inputs) -> list[Letter]:
    """The letter carried by every edge, indexed by edge id.

    `inputs` lists one letter per source, in sorted source-id order.
    """
    net, proto = _resolve(instance, proto)
    return [col[0] for col in _columns(net, proto, _one_row(net, inputs))[0]]


def evaluate(instance, proto, inputs) -> tuple[Letter, ...]:
    """Letters delivered at the sinks, in sorted sink-id order."""
    net, proto = _resolve(instance, proto)
    return tuple(col[0] for col in _columns(net, proto, _one_row(net, inputs))[1])


def _all_rows(net, what: str) -> list[bytes]:
    """Each source's column over all 4^S rows.  Raises SizeError, naming
    `what`, past MAX_EXHAUSTIVE_SOURCES."""
    n = len(net.source_ids)
    if n > MAX_EXHAUSTIVE_SOURCES:
        raise SizeError(
            f"{what} over {n} sources needs 4**{n} rows; "
            f"refusing beyond {MAX_EXHAUSTIVE_SOURCES} sources"
        )
    # source i holds each letter for 4^(n-1-i) rows in turn, 4^i times over
    return [b"".join(bytes((z,)) * 4 ** (n - 1 - i) for z in LETTERS) * 4 ** i for i in range(n)]


# the sources' and sinks' ids, and each input tuple's output tuple in that order
TruthTable = namedtuple("TruthTable", ("sources", "sinks", "rows"))


def truth_table(instance, proto=None) -> TruthTable:
    """Outputs for every input tuple (guarded at 4**8 rows)."""
    net, proto = _resolve(instance, proto)
    sources = _all_rows(net, "truth table")
    outs = _columns(net, proto, sources)[1]
    rows = dict(zip(product(LETTERS, repeat=len(sources)), zip(*outs)))
    return TruthTable(tuple(net.source_ids), tuple(net.sink_ids), rows)


# whether every sink gets its letter, and if not, the first failing input tuple
RequirementResult = namedtuple("RequirementResult", ("ok", "counterexample"))


def check_requirement(instance, proto=None) -> RequirementResult:
    """Does every sink always receive its required source letter?

    Exhaustive over all input tuples in one walk; the counterexample is the
    lowest failing row over all sinks, the first failing tuple in
    lexicographic order.
    """
    net, proto = _resolve(instance, proto)
    sources = _all_rows(net, "requirement check")
    n = len(sources)
    outs = _columns(net, proto, sources)[1]
    by_source = dict(zip(net.source_ids, sources))
    wants = [by_source[net.requirements[t]] for t in net.sink_ids]
    fails = [
        next(j for j, (y, x) in enumerate(zip(got, want)) if y != x)
        for got, want in zip(outs, wants)
        if got != want
    ]
    if not fails:
        return RequirementResult(True, None)
    j = min(fails)
    return RequirementResult(False, tuple((j >> 2 * (n - 1 - i)) & 3 for i in range(n)))
