"""Random instance generators shared by the structural and protocol tests."""

import random

from qnc4.netgraph import (
    ClassicalProtocol,
    D3Network,
    GroupKind,
    IDENTITY_MAP,
    LetterMap,
    constant_map,
    make_network,
    node_op,
)

HIGH_BIT = LetterMap((0, 0, 2, 2))
LOW_BIT = LetterMap((0, 1, 0, 1))


def random_permutation_map(rng: random.Random) -> LetterMap:
    table = [0, 1, 2, 3]
    rng.shuffle(table)
    return LetterMap(tuple(table))


def random_two_to_one_map(rng: random.Random) -> LetterMap:
    y1, y2 = rng.sample(range(4), 2)
    src = [0, 1, 2, 3]
    rng.shuffle(src)
    table = [0] * 4
    for x in src[:2]:
        table[x] = y1
    for x in src[2:]:
        table[x] = y2
    return LetterMap(tuple(table))


def random_letter_map(rng: random.Random, allow_identity: bool = False) -> LetterMap:
    r = rng.random()
    if r < 0.2:
        return constant_map(rng.randrange(4))
    if r < 0.6:
        if allow_identity and rng.random() < 0.3:
            return IDENTITY_MAP
        return random_permutation_map(rng)
    return random_two_to_one_map(rng)


def random_d3_instance(
    rng: random.Random, max_nodes: int = 12, max_sources: int = 3
) -> D3Network:
    """A random structurally valid normal-form network.

    Grown source-to-sink by consuming open edges, so every draw satisfies
    the degree discipline by construction (and D3Network checks it); the
    delivery requirement is random and usually not satisfied, which these
    instances do not need.
    """
    while True:
        d3 = _grow_d3(rng, max_nodes, max_sources)
        if len(d3.network.nodes) <= max_nodes:
            return d3


def diamond_chain(d: int, fork: bool = False) -> D3Network:
    """d two-to-one diamonds in series from one source, in normal form.

    Each diamond forks the letter into its high bit and its low bit and
    joins them again in Z2xZ2, so it delivers by construction, and it about
    squares the shrink: the shrink's digits double per diamond.  The chain
    ends in one sink, or with `fork` in a fork into two sinks, whose joint
    law needs twice the digits of the fork's shrink.
    """
    nodes, edges = [("s", "source")], []
    maps = {}
    prev = "s"
    for i in range(d):
        f, h, lo, j = (f"{v}{i}" for v in ("d", "h", "l", "j"))
        nodes += [(v, "internal") for v in (f, h, lo, j)]
        edges += [(prev, f), (f, h), (f, lo), (h, j), (lo, j)]
        maps.update({h: HIGH_BIT, lo: LOW_BIT})
        prev = j
    if fork:
        nodes.append(("x", "internal"))
        edges.append((prev, "x"))
        prev = "x"
    sinks = ("t0", "t1") if fork else ("t",)
    for t in sinks:
        nodes.append((t, "sink"))
        edges.append((prev, t))
    net = make_network(nodes, edges, {t: "s" for t in sinks})
    return D3Network(net, maps, GroupKind.Z2xZ2)


def grown_d3(rng: random.Random, sources: int, steps: int) -> D3Network:
    """A wide random normal-form network: `steps` nodes grown on `sources`
    sources, about 40% forks, 40% joins and 20% transforms, each on random
    open edges, then one sink per open edge.

    Forks and joins in equal measure keep many edges open at once, so the
    sweep plan's peak live-edge count is high.  The delivery requirement is
    random and usually not satisfied, which these instances do not need.
    """
    group = rng.choice([GroupKind.Z4, GroupKind.Z2xZ2])
    nodes = [(f"s{i}", "source") for i in range(sources)]
    transforms: dict[str, LetterMap] = {}
    edges: list[tuple[str, str]] = []
    open_producers = [f"s{i}" for i in range(sources)]
    for k in range(steps):
        vid = f"v{k}"
        r = rng.random()
        if r < 0.4:
            role = "fork"
        else:
            role = "join" if r < 0.8 and len(open_producers) > 1 else "transform"
        for _ in range(2 if role == "join" else 1):
            edges.append((open_producers.pop(rng.randrange(len(open_producers))), vid))
        nodes.append((vid, "internal"))
        if role == "transform":
            transforms[vid] = random_letter_map(rng, allow_identity=True)
        open_producers += [vid] * (2 if role == "fork" else 1)
    requirements = {}
    for i, u in enumerate(open_producers):
        nodes.append((f"t{i}", "sink"))
        edges.append((u, f"t{i}"))
        requirements[f"t{i}"] = f"s{rng.randrange(sources)}"
    return D3Network(make_network(nodes, edges, requirements), transforms, group)


def _grow_d3(rng: random.Random, max_nodes: int, max_sources: int) -> D3Network:
    n_src = rng.randint(1, max_sources)
    group = rng.choice([GroupKind.Z4, GroupKind.Z2xZ2])
    nodes = [(f"s{i}", "source") for i in range(n_src)]
    transforms: dict[str, LetterMap] = {}
    edges: list[tuple[str, str]] = []
    open_producers = [f"s{i}" for i in range(n_src)]
    k = 0
    for _ in range(rng.randint(0, 7)):
        # reserve one sink per open edge when sizing
        if len(nodes) + len(open_producers) + 1 > max_nodes:
            break
        acts = ["transform", "fork"]
        if len(open_producers) >= 2:
            acts.append("join")
        act = rng.choice(acts)
        vid = f"v{k}"
        if act == "fork" and len(nodes) + len(open_producers) + 2 > max_nodes:
            act = "transform"
        if act == "transform":
            u = open_producers.pop(rng.randrange(len(open_producers)))
            edges.append((u, vid))
            transforms[vid] = random_letter_map(rng, allow_identity=True)
            open_producers.append(vid)
        elif act == "fork":
            u = open_producers.pop(rng.randrange(len(open_producers)))
            edges.append((u, vid))
            open_producers += [vid, vid]
        else:
            u1 = open_producers.pop(rng.randrange(len(open_producers)))
            u2 = open_producers.pop(rng.randrange(len(open_producers)))
            edges.append((u1, vid))
            edges.append((u2, vid))
            open_producers.append(vid)
        nodes.append((vid, "internal"))
        k += 1
    requirements = {}
    for i, u in enumerate(open_producers):
        tid = f"t{i}"
        nodes.append((tid, "sink"))
        edges.append((u, tid))
        requirements[tid] = f"s{rng.randrange(n_src)}"
    net = make_network(nodes, edges, requirements)
    return D3Network(net, transforms, group)


def random_network_instance(
    rng: random.Random, max_sources: int = 3
) -> tuple:
    """A random general instance with arbitrary degrees and edge operations."""
    n_src = rng.randint(1, max_sources)
    n_int = rng.randint(0, 4)
    n_sink = rng.randint(1, 2)
    sources = [f"s{i}" for i in range(n_src)]
    internals = [f"v{i}" for i in range(n_int)]
    sinks = [f"t{i}" for i in range(n_sink)]
    nodes = (
        [(s, "source") for s in sources]
        + [(v, "internal") for v in internals]
        + [(t, "sink") for t in sinks]
    )
    edges: list[tuple[str, str]] = []
    for j, v in enumerate(internals):
        pool = sources + internals[:j]
        for u in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
            edges.append((u, v))
    for t in sinks:
        pool = sources + internals
        for u in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
            edges.append((u, t))
    for u in sources + internals:
        if not any(e[0] == u for e in edges):
            edges.append((u, rng.choice(sinks)))

    def indeg(v):
        return sum(1 for e in edges if e[1] == v)

    def outdeg(v):
        return sum(1 for e in edges if e[0] == v)

    group = rng.choice([GroupKind.Z4, GroupKind.Z2xZ2])
    ops = {}
    for v in internals:
        n_in, n_out = indeg(v), outdeg(v)
        ops[v] = tuple(
            node_op(
                o,
                [
                    (i, random_letter_map(rng, allow_identity=True))
                    for i in sorted(rng.sample(range(n_in), rng.randint(0, n_in)))
                ],
            )
            for o in range(n_out)
        )
    for t in sinks:
        n_in = indeg(t)
        ops[t] = (
            node_op(
                0,
                [
                    (i, random_letter_map(rng, allow_identity=True))
                    for i in sorted(rng.sample(range(n_in), rng.randint(0, n_in)))
                ],
            ),
        )
    requirements = {t: rng.choice(sources) for t in sinks}
    net = make_network(nodes, edges, requirements)
    return net, ClassicalProtocol(group, ops)


_WRONG_VALUES = (None, True, 7, -1, 2.5, "x", "", [], {}, ["00"], {"id": "s"})


def _dicts(value, found):
    """Every dict inside a JSON value, outermost first."""
    if isinstance(value, dict):
        found.append(value)
        for v in value.values():
            _dicts(v, found)
    elif isinstance(value, list):
        for v in value:
            _dicts(v, found)
    return found


def _items(value, key, kind):
    """The entries of the list value[key] that have type `kind`; none when
    value[key] is missing or not a list."""
    found = value.get(key) if isinstance(value, dict) else None
    return [x for x in found if isinstance(x, kind)] if isinstance(found, list) else []


def mutate_document(rng: random.Random, doc: dict) -> None:
    """Apply one random structural mutation to an instance JSON document,
    in place.

    Drops keys, swaps in values of the wrong type, moves `in`/`out` indices
    and edge ends out of range, repeats node ids, adds cycles, changes
    kinds and letter maps, and drops a node's operations or gives some to
    a node.
    """
    nodes = [n for n in _items(doc, "nodes", dict) if isinstance(n.get("id"), str)]
    edges = _items(doc, "edges", dict)
    by_node = doc.get("ops") if isinstance(doc.get("ops"), dict) else {}
    ops = [op for v in by_node for op in _items(by_node, v, dict)]
    terms = [t for op in ops for t in _items(op, "terms", dict)]
    kind = rng.randrange(9)
    if kind == 0:
        d = rng.choice(_dicts(doc, []))
        if d:
            del d[rng.choice(list(d))]
    elif kind == 1:
        d = rng.choice(_dicts(doc, []))
        if d:
            d[rng.choice(list(d))] = rng.choice(_WRONG_VALUES)
    elif kind == 2 and ops:
        pool, key = (terms, "in") if terms and rng.random() < 0.6 else (ops, "out")
        rng.choice(pool)[key] = rng.randint(-2, 5)
    elif kind == 3 and len(nodes) > 1:
        a, b = rng.sample(nodes, 2)
        a["id"] = b["id"]
    elif kind == 4 and edges:
        e = rng.choice(edges)
        doc["edges"].append({"from": e.get("to"), "to": e.get("from")})
    elif kind == 5 and edges:
        e = rng.choice(edges)
        e[rng.choice(("from", "to"))] = rng.choice([n["id"] for n in nodes] + ["nowhere"])
    elif kind == 6 and nodes:
        n = rng.choice(nodes)
        n["kind"] = rng.choice(
            ("source", "sink", "internal", "fork", "join", "transform", "widget")
        )
    elif kind == 7 and terms:
        rng.choice(terms)["map"] = [rng.choice(("00", "01", "10", "11")) for _ in range(4)]
    elif kind == 8 and isinstance(doc.get("ops"), dict) and nodes:
        if by_node and rng.random() < 0.5:
            del by_node[rng.choice(list(by_node))]
        else:
            identity = {"in": 0, "map": ["00", "01", "10", "11"]}
            by_node[rng.choice(nodes)["id"]] = [{"out": 0, "terms": [identity]}]
