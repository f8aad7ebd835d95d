"""Directed acyclic network model over the four-letter alphabet.

The alphabet is Sigma4 = {00, 01, 10, 11}, encoded as the integers 0..3
(value = 2 * first_bit + second_bit).  A classical protocol attaches to each
outgoing edge of a node an operation of the form sum_i h_i(X_i), where the
sum is taken in one of the two abelian group structures on Sigma4 and each
h_i is any of the 256 letter maps.

Any such network can be rewritten into an equivalent degree-3 form whose
nodes are sources (0 in, 1 out), sinks (1 in, 0 out), forks (1 in, 2 out,
pure copy), joins (2 in, 1 out, group addition) and transforms (1 in, 1 out,
one letter map).  The rewrite is `normalize_to_d3`.

Every topological order comes from one Kahn walk, `Network.kahn`, which
by default follows the listing order wherever the edges allow.  The
normalizer walks in that order and lists what it emits in the order it
emits it, so the normal form of a normal form is the same network, node
for node and edge for edge.

The table `_ROLES` gives each role its node kind and degree, one to one,
and `_TERMS` its operations, the one place that `D3Network.protocol`, the
default sink decode and the normalizer's rule for keeping a node read.
`validate_network` checks degrees by kind; `validate_d3`, the check of a
`D3Network` built in Python, reads each node's role from its kind and
degree, so a wrong degree is reported once.  An unknown kind is reported
once too: no check that needs a node's kind runs on it.

An instance has one JSON layout, `instance_to_json`: group, nodes, edges,
requirements and each node's operations.  A normal form is written in it
too, from `D3Network.protocol`.
"""

import enum
import heapq
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

from .errors import QncError, SchemaError, ValidationError

Letter = int

LETTERS: tuple[Letter, ...] = (0, 1, 2, 3)

_LETTER_STRINGS = ("00", "01", "10", "11")


def as_letter(x) -> Letter:
    """x as an int letter: the one check of every entry point that takes
    letters.  Accepts ints and numpy integers (both Integral) from 0 to 3,
    never a bool (type(True) is bool); raises ValueError otherwise."""
    if (type(x) is int or isinstance(x, Integral) and not isinstance(x, bool)) and 0 <= x < 4:
        return int(x)
    raise ValueError(f"not a letter: {x!r} (letters are the ints 0 to 3)")


def letter_to_str(x: Letter) -> str:
    return _LETTER_STRINGS[x]


def letter_from_str(s: str) -> Letter:
    try:
        return _LETTER_STRINGS.index(s)
    except ValueError:
        raise SchemaError(
            f"not a letter: {s!r} (expected one of {', '.join(_LETTER_STRINGS)})"
        ) from None


class GroupKind(enum.Enum):
    """The two abelian group structures on the four letters."""

    Z4 = "Z4"
    Z2xZ2 = "Z2xZ2"

    def add(self, a: Letter, b: Letter) -> Letter:
        if self is GroupKind.Z4:
            return (a + b) & 3
        return a ^ b

    @staticmethod
    def from_name(name: str) -> "GroupKind":
        for kind in GroupKind:
            if kind.value == name:
                return kind
        raise SchemaError(f"unknown group {name!r} (expected Z4 or Z2xZ2)")


@dataclass(frozen=True)
class LetterMap:
    """A letter map given by its value table, indexed by input letter."""

    table: tuple[Letter, Letter, Letter, Letter]

    def __call__(self, x: Letter) -> Letter:
        return self.table[x]

    @property
    def is_identity(self) -> bool:
        return self.table == (0, 1, 2, 3)


IDENTITY_MAP = LetterMap((0, 1, 2, 3))


def constant_map(c: Letter) -> LetterMap:
    return LetterMap((c, c, c, c))


@dataclass(frozen=True)
class Term:
    """One summand h(X_i) of an edge operation; `in_pos` indexes the node's
    incoming edges sorted by edge id."""

    in_pos: int
    map: LetterMap


@dataclass(frozen=True)
class NodeOp:
    """The operation for one outgoing edge (position `out_pos` in the node's
    sorted outgoing-edge list).  An empty term tuple denotes the constant 00."""

    out_pos: int
    terms: tuple[Term, ...]


def node_op(out_pos: int, terms) -> NodeOp:
    """Convenience constructor from (in_pos, LetterMap) pairs."""
    return NodeOp(out_pos, tuple(Term(i, m) for i, m in terms))


@dataclass(frozen=True)
class Node:
    id: str
    kind: str  # source | sink | internal


NODE_KINDS = ("source", "sink", "internal")


@dataclass
class Network:
    """A DAG with typed nodes, ordered edges, and a delivery requirement.

    Edges are identified by their index in `edges`.  `requirements` maps each
    sink id to the source id whose input letter the sink must reproduce.
    Instances are treated as immutable once constructed; derived views are
    cached.
    """

    nodes: list[Node]
    edges: list[tuple[str, str]]
    requirements: dict[str, str]

    @cached_property
    def kind_of(self) -> dict[str, str]:
        return {n.id: n.kind for n in self.nodes}

    @cached_property
    def _incident(self) -> dict[str, tuple[list[int], list[int]]]:
        """Each node's incoming and outgoing edge ids, in one pass."""
        m = {n.id: ([], []) for n in self.nodes}
        for e, (u, v) in enumerate(self.edges):
            if v in m:
                m[v][0].append(e)
            if u in m:
                m[u][1].append(e)
        return m

    def in_edges(self, v: str) -> list[int]:
        return self._incident[v][0]

    def out_edges(self, v: str) -> list[int]:
        return self._incident[v][1]

    def degree(self, v: str) -> tuple[int, int]:
        """(indegree, outdegree)"""
        ins, outs = self._incident[v]
        return len(ins), len(outs)

    @cached_property
    def source_ids(self) -> list[str]:
        return sorted(n.id for n in self.nodes if n.kind == "source")

    @cached_property
    def sink_ids(self) -> list[str]:
        return sorted(n.id for n in self.nodes if n.kind == "sink")

    def kahn(self, key=None) -> list[str]:
        """Kahn's topological walk (CACM 5(11), 1962) over well-formed edges:
        among the ready nodes, the one with the smallest key(id) goes first,
        by default the one listed first.  So a list that is already in
        topological order is walked as listed.  Shorter than the node list
        iff there is a cycle."""
        ids = {n.id: k for k, n in enumerate(self.nodes)}
        key = key or ids.__getitem__
        indeg = {i: 0 for i in ids}
        children = {i: [] for i in ids}
        for u, v in self.edges:
            if u in ids and v in ids:
                indeg[v] += 1
                children[u].append(v)
        ready = [(key(i), i) for i in ids if indeg[i] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            u = heapq.heappop(ready)[1]
            order.append(u)
            for w in children[u]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, (key(w), w))
        return order

    @cached_property
    def topo_order(self) -> list[str]:
        """The default Kahn walk, made once per network; QncError on a cycle."""
        order = self.kahn()
        if len(order) != len(self.nodes):
            raise QncError("network contains a cycle")
        return order


def make_network(nodes, edges, requirements) -> Network:
    """Build a Network from (id, kind) pairs, (from, to) pairs and a
    sink -> source mapping."""
    return Network(
        [Node(i, k) for i, k in nodes],
        [(u, v) for u, v in edges],
        dict(requirements),
    )


@dataclass
class ClassicalProtocol:
    """Edge operations for every non-source node of a Network.

    `ops[node]` lists one NodeOp per outgoing-edge position.  Sinks carry at
    most one NodeOp, under out position 0, describing how the delivered
    letter is decoded from the sink's incoming edges; a sink with a single
    incoming edge may omit it (identity).  Sources pass their input letter
    through unchanged and carry no operations.
    """

    group: GroupKind
    ops: dict[str, tuple[NodeOp, ...]]

    def decode_terms(self, t: str) -> tuple[Term, ...]:
        """The terms sink t decodes its letter from: its operation's, or the
        sink's row in `_TERMS`, the identity on its lone input, when it has
        none.  An explicit decode with no terms means the constant 00."""
        for op in self.ops.get(t, ()):
            return op.terms
        return _TERMS["sink"][0]


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str) -> None:
        self.violations.append(msg)


def _check_graph(net: Network, rep: ValidationReport) -> bool:
    """Ids, kinds, edges and acyclicity.

    Returns False, right after the id and edge checks, when a node id
    repeats: every later check keys nodes by id and would misreport.
    """
    seen = set()
    repeated = False
    for n in net.nodes:
        if n.id in seen:
            rep.add(f"duplicate node id {n.id}")
            repeated = True
        seen.add(n.id)
        if n.kind not in NODE_KINDS:
            rep.add(f"node {n.id} has unknown kind {n.kind!r}")
    for e, (u, v) in enumerate(net.edges):
        if u not in seen:
            rep.add(f"edge {e} starts at unknown node {u}")
        if v not in seen:
            rep.add(f"edge {e} ends at unknown node {v}")
    if repeated:
        return False
    try:
        net.topo_order  # the network's one walk, kept for the normalizer and compiler
    except QncError as e:
        rep.add(str(e))
    return True


def _check_kind_degrees(net: Network, rep: ValidationReport) -> None:
    """Degrees by node kind; `validate_d3` reads each node's role from its
    kind and degree instead."""
    for n in net.nodes:
        indeg, outdeg = net.degree(n.id)
        if n.kind == "source":
            if indeg:
                rep.add(f"source {n.id} has indegree {indeg} (must be 0)")
            if not outdeg:
                rep.add(f"source {n.id} has outdegree 0 (must send its letter somewhere)")
        elif n.kind == "sink":
            if outdeg:
                rep.add(f"sink {n.id} has outdegree {outdeg} (must be 0)")
            if not indeg:
                rep.add(f"sink {n.id} has indegree 0 (receives nothing)")
        elif n.kind == "internal":
            if not indeg:
                rep.add(f"internal node {n.id} has indegree 0")
            if not outdeg:
                rep.add(f"internal node {n.id} has outdegree 0")


def _check_requirements(net: Network, rep: ValidationReport) -> None:
    # only known kinds count, and None is a missing node; _check_graph reports unknown kinds
    if not net.sink_ids and all(n.kind in NODE_KINDS for n in net.nodes):  # the empty network too
        rep.add("network has no sink")
    for t in net.sink_ids:
        if t not in net.requirements:
            rep.add(f"missing requirement for sink {t}")
    for t, s in net.requirements.items():
        if net.kind_of.get(t) in (None, "source", "internal"):
            rep.add(f"requirement names {t}, which is not a sink")
        if net.kind_of.get(s) in (None, "sink", "internal"):
            rep.add(f"requirement for sink {t} names {s}, which is not a source")


def validate_network(net: Network, proto: ClassicalProtocol) -> ValidationReport:
    """Structural validation; every problem becomes one report entry."""
    rep = ValidationReport()
    if not _check_graph(net, rep):
        return rep
    _check_kind_degrees(net, rep)
    _check_requirements(net, rep)
    for v, ops in proto.ops.items():
        kind = net.kind_of.get(v)
        if kind is None:
            rep.add(f"operations given for unknown node {v}")
            continue
        if kind == "source":
            rep.add(f"source {v} carries operations (sources pass their letter through)")
            continue
        indeg = len(net.in_edges(v))
        n_out = 1 if kind == "sink" else len(net.out_edges(v))
        seen_out = set()
        for op in ops:
            # an unknown kind has no outgoing positions to check against
            if kind in NODE_KINDS and not 0 <= op.out_pos < n_out:
                rep.add(f"node {v} has an operation for missing outgoing edge {op.out_pos}")
                continue
            if op.out_pos in seen_out:
                rep.add(f"node {v} has two operations for outgoing edge {op.out_pos}")
            seen_out.add(op.out_pos)
            seen_in = set()
            for term in op.terms:
                if not 0 <= term.in_pos < indeg:
                    # a known kind with no incoming edge has its degree line
                    if indeg or kind not in NODE_KINDS:
                        rep.add(
                            f"operation on node {v} (out {op.out_pos}) references "
                            f"missing incoming edge {term.in_pos}"
                        )
                    continue
                if term.in_pos in seen_in:
                    rep.add(
                        f"operation on node {v} (out {op.out_pos}) references "
                        f"incoming edge {term.in_pos} twice"
                    )
                seen_in.add(term.in_pos)

    for n in net.nodes:
        if n.kind == "internal":
            covered = {op.out_pos for op in proto.ops.get(n.id, ())}
            for j in range(len(net.out_edges(n.id))):
                if j not in covered:
                    rep.add(f"outgoing edge {j} of node {n.id} has no operation")
        elif n.kind == "sink":
            if len(net.in_edges(n.id)) > 1 and not proto.ops.get(n.id):
                rep.add(
                    f"sink {n.id} has {len(net.in_edges(n.id))} incoming edges "
                    "but no decode operation"
                )
    return rep


# ---------------------------------------------------------------------------
# degree-3 form


# each degree-3 role's node kind and degree (indegree, outdegree)
_ROLES = {
    "source": ("source", (0, 1)),
    "sink": ("sink", (1, 0)),
    "fork": ("internal", (1, 2)),
    "join": ("internal", (2, 1)),
    "transform": ("internal", (1, 1)),
}

# the inverse: the role of each (kind, degree) that has one
_ROLE_OF = {shape: role for role, shape in _ROLES.items()}

# each role's terms by output but a source's, row entry i reading input i;
# None stands for a transform's own map, and the sink's one row is its decode
_TERMS = {
    "fork": ((Term(0, IDENTITY_MAP),), (Term(0, IDENTITY_MAP),)),
    "join": ((Term(0, IDENTITY_MAP), Term(1, IDENTITY_MAP)),),
    "transform": ((Term(0, None),),),
    "sink": ((Term(0, IDENTITY_MAP),),),
}
_ZERO = Term(0, constant_map(0))  # the constant 00


@dataclass
class D3Network:
    """A network in degree-3 form, valid by construction.

    Each node's role follows from its kind and degree (`roles`), and its
    operations from its role (`_TERMS`), adding in `group`.  Construction
    runs `validate_d3` and raises ValidationError with its report.
    """

    network: Network
    transforms: dict[str, LetterMap]
    group: GroupKind

    def __post_init__(self):
        report = validate_d3(self)
        if not report.ok:
            raise ValidationError(report)

    @cached_property
    def roles(self) -> dict[str, str | None]:
        """Each node's role, read from its kind and degree; None where they
        belong to no role, which only `validate_d3` sees."""
        net = self.network
        return {n.id: _ROLE_OF.get((n.kind, net.degree(n.id))) for n in net.nodes}

    @cached_property
    def protocol(self) -> ClassicalProtocol:
        """Each internal node's operations, its role's rows in `_TERMS` with a
        transform's map for None, built on first use and kept.  Sinks carry
        none: each decodes by the default of `ClassicalProtocol.decode_terms`."""
        ops = {}
        for n in self.network.nodes:
            if n.kind == "internal":
                m = self.transforms.get(n.id)
                ops[n.id] = tuple(
                    NodeOp(j, tuple(Term(t.in_pos, t.map or m) for t in row))
                    for j, row in enumerate(_TERMS[self.roles[n.id]])
                )
        return ClassicalProtocol(self.group, ops)


def validate_d3(d3: D3Network) -> ValidationReport:
    """Structural validation of a degree-3 network.

    Each node's role, read from its kind and degree, fixes its edge
    operations, so checking that every node of known kind has a role and
    every transform a letter map (any of the 256) covers what
    `validate_network` checks on the implied protocol.  A node of known
    kind whose degree belongs to no role is one violation, and an unknown
    kind is reported by the graph check alone.  A node with no role gets
    no letter map check either.
    """
    rep = ValidationReport()
    net = d3.network
    if not _check_graph(net, rep):
        return rep
    _check_requirements(net, rep)
    roles = d3.roles
    for n in net.nodes:
        role = roles[n.id]
        if role is None and n.kind in NODE_KINDS:
            *rest, last = [str(d) for k, d in _ROLES.values() if k == n.kind]
            expected = f"{', '.join(rest)} or {last}" if rest else last
            rep.add(f"{n.kind} {n.id} has degree {net.degree(n.id)}, expected {expected}")
        elif role == "transform" and d3.transforms.get(n.id) is None:
            rep.add(f"transform {n.id} has no letter map")
    for v in d3.transforms:
        if v not in roles:
            rep.add(f"letter map given for unknown node {v}")
        elif roles[v] not in (None, "transform"):  # a node without a role has its violation
            rep.add(f"letter map given for non-transform node {v}")
    return rep


class _Normalizer:
    """Rewrites one validated instance into degree-3 form.

    A node whose kind and degree have a role, and whose terms by output are
    that role's (`_TERMS`), is kept under its own id, and nodes and edges
    are listed as they are emitted, in the input's listing order where the
    edges allow, so a degree-3 input is reproduced unchanged, node for node
    and edge for edge.  Everything else is decomposed: per-value fork chains
    make the needed copies, non-identity term maps become transform nodes,
    and multi-term sums become left-leaning join chains.
    """

    def __init__(self, net: Network, proto: ClassicalProtocol):
        self.net = net
        self.proto = proto
        self.used = {n.id for n in net.nodes}
        self.nodes: list[Node] = []
        self.copy_forks: set[str] = set()  # the forks `_copies` makes, all under fresh ids
        self.transforms: dict[str, LetterMap] = {}
        self.edges: list[tuple[str, str]] = []
        self.corr: dict[str, list[str]] = {n.id: [] for n in net.nodes}
        self.prod: dict[int, str] = {}  # original edge id -> producing new node

    def fresh(self, base: str) -> str:
        nid = base
        while nid in self.used:
            nid += "_"
        self.used.add(nid)
        return nid

    def add_node(self, nid: str, role: str, orig: str, map_: LetterMap | None = None):
        self.nodes.append(Node(nid, _ROLES[role][0]))
        if role == "transform":
            self.transforms[nid] = map_
        self.corr[orig].append(nid)

    def build(self) -> tuple[D3Network, dict[str, list[str]]]:
        for v in self.net.topo_order:
            kind = self.net.kind_of[v]
            if kind == "source":
                self._emit_source(v)
            elif kind == "sink":
                self._emit_sink(v)
            else:
                self._emit_internal(v)
        d3 = D3Network(
            Network(self.nodes, self.edges, dict(self.net.requirements)),
            self.transforms,
            self.proto.group,
        )
        return d3, self.corr

    def _copies(self, producer: str, n: int, base: str, orig: str) -> list[str]:
        """The producer of each of n copies of producer's value: a chain of
        forks {base}0 .. {base}(n-2), fork k feeding copy k and the next
        fork, the last fork both final copies.  One copy needs no fork."""
        chain = [producer]
        for k in range(n - 1):
            f = self.fresh(f"{base}{k}")
            self.add_node(f, "fork", orig)
            self.copy_forks.add(f)
            self.edges.append((chain[-1], f))
            chain.append(f)
        return [chain[min(k + 1, n - 1)] for k in range(n)]

    def _emit_source(self, v: str):
        outs = self.net.out_edges(v)
        self.add_node(v, "source", v)
        self.prod.update(zip(outs, self._copies(v, len(outs), f"{v}.f", v)))

    def _emit_internal(self, v: str):
        ins, outs = self.net.in_edges(v), self.net.out_edges(v)
        by_out = [()] * len(outs)
        for op in self.proto.ops.get(v, ()):
            by_out[op.out_pos] = op.terms
        by_out = _normal_terms(by_out, len(ins))
        role = _kept_role("internal", ins, outs, by_out)
        if role:
            self.add_node(v, role, v, by_out[0][0].map)
            for e in ins:
                self.edges.append((self.prod[e], v))
            for e in outs:
                self.prod[e] = v
        else:
            self.prod.update(zip(outs, self._build_chains(v, ins, by_out)))

    def _emit_sink(self, v: str):
        ins = self.net.in_edges(v)
        by_out = _normal_terms([self.proto.decode_terms(v)], len(ins))
        kept = _kept_role("sink", ins, (), by_out)
        p = self.prod[ins[0]] if kept else self._build_chains(v, ins, by_out)[0]
        # a value copied just before delivery still needs a carrier operation
        if p in self.copy_forks:
            rx = self.fresh(f"{v}.rx")
            self.add_node(rx, "transform", v, IDENTITY_MAP)
            self.edges.append((p, rx))
            p = rx
        self.add_node(v, "sink", v)
        self.edges.append((p, v))

    def _build_chains(self, v, ins, by_out) -> list[str]:
        """Fork, transform and join structure for one decomposed node, its terms
        in `_normal_terms`' form.  Returns the producing new node per output."""
        consumers = {i: [] for i in range(len(ins))}
        for j, terms in enumerate(by_out):
            for t, term in enumerate(terms):
                consumers[term.in_pos].append((j, t))

        leaf = {}  # (j, t) -> producing node for that copy of the value
        for i, cons in consumers.items():
            copies = self._copies(self.prod[ins[i]], len(cons), f"{v}.f{i}.", v)
            leaf.update(zip(cons, copies))

        producers = []
        for j, terms in enumerate(by_out):
            ports = []
            for t, term in enumerate(terms):
                p = leaf[(j, t)]
                if not term.map.is_identity:
                    tr = self.fresh(f"{v}.h{j}.{t}")
                    self.add_node(tr, "transform", v, term.map)
                    self.edges.append((p, tr))
                    p = tr
                ports.append(p)
            acc = ports[0]
            for t in range(1, len(ports)):
                jn = self.fresh(f"{v}.j{j}.{t - 1}")
                self.add_node(jn, "join", v)
                self.edges.append((acc, jn))
                self.edges.append((ports[t], jn))
                acc = jn
            producers.append(acc)
        return producers


def _normal_terms(by_out: list, n_in: int) -> list:
    """A node's terms by output in the form it is kept or decomposed in: an
    empty output reads the constant 00, and a constant-00 term on the last
    output absorbs each input that no term reads.  Copies nothing in that form."""
    if not all(by_out):
        by_out = [terms or (_ZERO,) for terms in by_out]
    # one input is read once every output is not empty
    if n_in > 1 and len(used := {t.in_pos for terms in by_out for t in terms}) < n_in:
        by_out[-1] += tuple(Term(i, _ZERO.map) for i in range(n_in) if i not in used)
    return by_out


def _kept_role(kind: str, ins, outs, by_out: list) -> str | None:
    """The node's role, if its kind and degree have one whose terms are by_out
    (from `_normal_terms`, each output's in any order); else None.  Each
    output has as many terms as its row: `validate_network` lets it read
    each input at most once, and `_normal_terms` fills it and absorbs every
    unread input."""
    role = _ROLE_OF.get((kind, (len(ins), len(outs))))
    for terms, row in zip(by_out, _TERMS.get(role, ())):
        for t in terms:
            m = row[t.in_pos].map
            if m is not None and m.table != t.map.table:
                return None
    return role


def normalize_to_d3(
    net: Network, proto: ClassicalProtocol
) -> tuple[D3Network, dict[str, list[str]]]:
    """Rewrite an instance into degree-3 form.

    Returns the degree-3 network and a correspondence mapping each original
    node id to the new nodes that replace it (empty for nodes that dissolve
    into plain pass-through wiring).  Raises ValidationError when the input
    fails `validate_network`.
    """
    rep = validate_network(net, proto)
    if not rep.ok:
        raise ValidationError(rep)
    return _Normalizer(net, proto).build()


# ---------------------------------------------------------------------------
# JSON layout


def _map_from_json(data, where: str, *at) -> LetterMap:
    if not isinstance(data, list) or len(data) != 4:
        raise SchemaError(f"{where.format(*at)}: map must be an array of 4 letters")
    return LetterMap(tuple(letter_from_str(s) for s in data))


def instance_to_json(net: Network, proto: ClassicalProtocol) -> dict:
    """The instance as a JSON document, nodes and edges in listing order."""
    return {
        "group": proto.group.value,
        "nodes": [{"id": n.id, "kind": n.kind} for n in net.nodes],
        "edges": [{"from": u, "to": v} for u, v in net.edges],
        "requirements": [
            {"sink": t, "source": s} for t, s in sorted(net.requirements.items())
        ],
        "ops": {
            v: [
                {
                    "out": op.out_pos,
                    "terms": [
                        {"in": t.in_pos, "map": [letter_to_str(x) for x in t.map.table]}
                        for t in op.terms
                    ],
                }
                for op in nops
            ]
            for v, nops in proto.ops.items()
        },
    }


def _require(data, key, types, where, *at):
    """data[key], if data is an object holding a key of one of the types;
    else SchemaError naming the field.  Its path, where.format(*at), is
    formatted only then."""
    if not isinstance(data, dict) or key not in data:
        raise SchemaError(f"{where.format(*at)}: missing field {key!r}")
    value = data[key]
    # JSON true/false load as bool, which Python counts as an int
    if isinstance(value, bool) or not isinstance(value, types):
        raise SchemaError(f"{where.format(*at)}.{key}: unexpected type {type(value).__name__}")
    return value


def instance_from_json(data) -> tuple[Network, ClassicalProtocol]:
    """Parse a document of `instance_to_json`'s layout; SchemaError names
    the first field that is missing or of the wrong type."""
    if not isinstance(data, dict):
        raise SchemaError("top level: expected an object")
    group = GroupKind.from_name(_require(data, "group", str, "top level"))
    nodes = []
    for k, nd in enumerate(_require(data, "nodes", list, "top level")):
        nodes.append(
            Node(
                _require(nd, "id", str, "nodes[{}]", k),
                _require(nd, "kind", str, "nodes[{}]", k),
            )
        )
    edges = []
    for k, ed in enumerate(_require(data, "edges", list, "top level")):
        edges.append(
            (
                _require(ed, "from", str, "edges[{}]", k),
                _require(ed, "to", str, "edges[{}]", k),
            )
        )
    requirements = {}
    for k, rq in enumerate(_require(data, "requirements", list, "top level")):
        sink = _require(rq, "sink", str, "requirements[{}]", k)
        if sink in requirements:
            raise SchemaError(f"requirements[{k}]: a second requirement for sink {sink}")
        requirements[sink] = _require(rq, "source", str, "requirements[{}]", k)
    ops = {}
    term_at = "ops.{}[{}].terms[{}]"
    for v, nops in _require(data, "ops", dict, "top level").items():
        if not isinstance(nops, list):
            raise SchemaError(f"ops.{v}: expected an array of operations")
        parsed = []
        for k, op in enumerate(nops):
            out = _require(op, "out", int, "ops.{}[{}]", v, k)
            terms = []
            for t, term in enumerate(_require(op, "terms", list, "ops.{}[{}]", v, k)):
                terms.append(
                    Term(
                        _require(term, "in", int, term_at, v, k, t),
                        _map_from_json(
                            _require(term, "map", list, term_at, v, k, t), term_at, v, k, t
                        ),
                    )
                )
            parsed.append(NodeOp(out, tuple(terms)))
        ops[v] = tuple(parsed)
    return Network(nodes, edges, requirements), ClassicalProtocol(group, ops)
