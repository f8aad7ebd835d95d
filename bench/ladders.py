"""Seeded generators for the size-ladder instances.

Each generator returns an instance in the general JSON layout that
`qnc4.netgraph.instance_from_json` reads, built so that every sink decodes
its required source letter for every input tuple (the delivery requirement
holds by construction).  A `random.Random` chooses the group and, per
gadget, a group automorphism that relabels the letters of every map; an
automorphism commutes with the group addition, so delivery still holds.
Node ids do not depend on the seed, so the processing order, and with it
the exact sweep's frontier, is the same for every seed.

This module deliberately does not import qnc4: the program under test only
ever sees the JSON these functions produce.
"""

import itertools

Z4 = "Z4"
Z2XZ2 = "Z2xZ2"
IDENTITY = (0, 1, 2, 3)
NEG_Z4 = (0, 3, 2, 1)
HIGH_BIT = (0, 0, 2, 2)
LOW_BIT = (0, 1, 0, 1)


def _automorphisms(group: str) -> list[tuple[int, ...]]:
    if group == Z4:
        return [IDENTITY, NEG_Z4]
    # GL(2, 2): the bijections of the four letters that fix 00 and respect xor
    return [(0,) + p for p in itertools.permutations((1, 2, 3))
            if p[0] ^ p[1] == p[2]]


def _conjugate(m: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    """The map sigma . m . sigma^-1."""
    inv = [0] * 4
    for x, y in enumerate(sigma):
        inv[y] = x
    return tuple(sigma[m[inv[x]]] for x in range(4))


def _letters(m: tuple[int, ...]) -> list[str]:
    return [format(y, "02b") for y in m]


class _InstanceDoc:
    def __init__(self, group: str):
        self.group = group
        self.nodes: list[dict] = []
        self.edges: list[dict] = []
        self.requirements: list[dict] = []
        self.ops: dict[str, list] = {}

    def node(self, nid: str, kind: str) -> None:
        self.nodes.append({"id": nid, "kind": kind})

    def edge(self, u: str, v: str) -> None:
        self.edges.append({"from": u, "to": v})

    def op(self, nid: str, *outs) -> None:
        """One entry per outgoing edge: a list of (incoming position, map)."""
        self.ops[nid] = [
            {"out": k, "terms": [{"in": i, "map": _letters(m)} for i, m in terms]}
            for k, terms in enumerate(outs)
        ]

    def doc(self) -> dict:
        return {
            "group": self.group,
            "nodes": self.nodes,
            "edges": self.edges,
            "requirements": sorted(self.requirements, key=lambda r: r["sink"]),
            "ops": self.ops,
        }


def _diamond(b: _InstanceDoc, tag: str, feed: str, sigma, out: str | None) -> str:
    """A fork into a high-bit and a low-bit two-to-one map, summed again.

    h(x) + l(x) == x in both groups (the two bits never carry), and stays so
    after conjugating both maps by an automorphism.  With `out` the sum is
    decoded at that sink; otherwise an internal node forwards it and its id
    is returned for the next stage.
    """
    d, ua, ub = f"d{tag}", f"u{tag}a", f"u{tag}b"
    b.node(d, "internal")
    b.node(ua, "internal")
    b.node(ub, "internal")
    b.edge(feed, d)
    b.edge(d, ua)
    b.edge(d, ub)
    b.op(d, [(0, IDENTITY)], [(0, IDENTITY)])
    b.op(ua, [(0, _conjugate(HIGH_BIT, sigma))])
    b.op(ub, [(0, _conjugate(LOW_BIT, sigma))])
    j = out or f"j{tag}"
    if out is None:
        b.node(j, "internal")
    b.edge(ua, j)
    b.edge(ub, j)
    b.op(j, [(0, IDENTITY), (1, IDENTITY)])
    return j


def diamond_stack(k: int, rng) -> dict:
    """k two-to-one diamonds side by side, one source and one sink each.

    The diamonds share nothing, but the (depth, id) processing order visits
    them level by level, so 2k edges are live at once.
    """
    group = rng.choice((Z4, Z2XZ2))
    b = _InstanceDoc(group)
    for i in range(k):
        s, t = f"s{i}", f"t{i}"
        b.node(s, "source")
        b.node(t, "sink")
        _diamond(b, str(i), s, rng.choice(_automorphisms(group)), t)
        b.requirements.append({"sink": t, "source": s})
    return b.doc()


def butterfly_stack(k: int, rng) -> dict:
    """k butterflies side by side; each sink subtracts the letter it receives
    directly from the relayed sum."""
    group = rng.choice((Z4, Z2XZ2))
    neg = NEG_Z4 if group == Z4 else IDENTITY
    b = _InstanceDoc(group)
    for i in range(k):
        x, y, m, r, tx, ty = (f"{n}{i}" for n in ("sa", "sb", "m", "r", "ta", "tb"))
        for v in (x, y):
            b.node(v, "source")
        b.node(m, "internal")
        b.node(r, "internal")
        for v in (tx, ty):
            b.node(v, "sink")
        b.edge(x, m)
        b.edge(x, ty)
        b.edge(y, m)
        b.edge(y, tx)
        b.edge(m, r)
        b.edge(r, tx)
        b.edge(r, ty)
        b.op(m, [(0, IDENTITY), (1, IDENTITY)])
        b.op(r, [(0, IDENTITY)], [(0, IDENTITY)])
        b.op(tx, [(0, neg), (1, IDENTITY)])
        b.op(ty, [(0, neg), (1, IDENTITY)])
        b.requirements.append({"sink": tx, "source": x})
        b.requirements.append({"sink": ty, "source": y})
    return b.doc()


def relay_chain(d: int, rng) -> dict:
    """A chain of d copy nodes from one source; stage i taps sink t<i>.

    Every fork shrinks by 1/9, so the sink at stage i sees shrink 9^-i.  The
    chain carries no letter maps, so only the group varies with the seed.
    """
    b = _InstanceDoc(rng.choice((Z4, Z2XZ2)))
    b.node("s", "source")
    prev = "s"
    for i in range(1, d + 1):
        f = f"f{i:02d}"
        b.node(f, "internal")
        b.edge(prev, f)
        b.op(f, [(0, IDENTITY)], [(0, IDENTITY)])
        t = f"t{i:02d}"
        b.node(t, "sink")
        b.edge(f, t)
        b.requirements.append({"sink": t, "source": "s"})
        prev = f
    t = f"t{d + 1:02d}"
    b.node(t, "sink")
    b.edge(prev, t)
    b.requirements.append({"sink": t, "source": "s"})
    return b.doc()


def diamond_chain(d: int, rng) -> dict:
    """d two-to-one diamonds in series from one source to one sink.

    The two halves of each diamond carry the same shrink, and the join
    multiplies them, so the shrink roughly squares at every stage and its
    denominator doubles in length.
    """
    group = rng.choice((Z4, Z2XZ2))
    b = _InstanceDoc(group)
    b.node("s", "source")
    b.node("t", "sink")
    feed = "s"
    for i in range(1, d + 1):
        sigma = rng.choice(_automorphisms(group))
        feed = _diamond(b, f"{i:02d}", feed, sigma, "t" if i == d else None)
    b.requirements.append({"sink": "t", "source": "s"})
    return b.doc()


GENERATORS = {
    "diamond_stack": diamond_stack,
    "butterfly_stack": butterfly_stack,
    "relay_chain": relay_chain,
    "diamond_chain": diamond_chain,
}
