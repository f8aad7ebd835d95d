"""Every compiled kernel pinned by a hash, on instances of every node kind.

Each instance is compiled, and a sha256 is taken over every op's tag,
alpha, kernel denominator and rows, in listing order, and over the notes.
The hashes must match `kernel_pins.json`, so a change that means to alter
no kernel can show that it alters none.  The instances: the bundled ones,
`diamond_chain(5)` and `diamond_chain(9)`, a source split into two paths
mapped by letter maps of no paper class and summed at the sink, and 150
`random_d3_instance` draws.

This module imports neither numpy nor `_reference`, so it runs where numpy
is not installed.  After a change that is meant to alter a kernel, rewrite
the file from the repository root with

    PYTHONPATH=src:tests python -c "import test_kernel_pins; test_kernel_pins.regenerate()"

and review its diff.
"""

import hashlib
import json
import random
from pathlib import Path

from qnc4 import instances, netgraph
from qnc4.netgraph import GroupKind, IDENTITY_MAP, LetterMap, make_network, node_op
from qnc4.qcompiler import compile_protocol

from _generators import diamond_chain, random_d3_instance

GOLDEN = Path(__file__).with_name("kernel_pins.json")


def _two_path():
    """One Z4 source split into two paths, mapped by 00,01,00,00 and
    00,00,10,11, and summed at the sink."""
    net = make_network(
        nodes=[("s", "source"), ("a", "internal"), ("b", "internal"), ("t", "sink")],
        edges=[("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        requirements={"t": "s"},
    )
    proto = netgraph.ClassicalProtocol(GroupKind.Z4, {
        "a": (node_op(0, [(0, LetterMap((0, 1, 0, 0)))]),),
        "b": (node_op(0, [(0, LetterMap((0, 0, 2, 3)))]),),
        "t": (node_op(0, [(0, IDENTITY_MAP), (1, IDENTITY_MAP)]),),
    })
    return netgraph.normalize_to_d3(net, proto)[0]


def instances_to_pin() -> dict:
    """Every pinned instance, as a normal-form network, by name."""
    out = {}
    for name in sorted(instances.BUNDLED):
        out[name] = netgraph.normalize_to_d3(*instances.bundled(name))[0]
    for d in (5, 9):
        out[f"diamond_chain({d})"] = diamond_chain(d)
    out["two-path"] = _two_path()
    for seed in range(150):
        out[f"random_d3_instance({seed})"] = random_d3_instance(random.Random(seed))
    return out


def kernel_hash(d3) -> str:
    """sha256 over every op's tag, alpha and kernel, and the notes."""
    compiled = compile_protocol(d3)
    h = hashlib.sha256()
    for v in compiled.order:
        op = compiled.ops[v]
        h.update(f"{v} {op.tag} {op.alpha}\n".encode())
        if op.kernel is not None:
            h.update(f"{op.kernel.den} {op.kernel.rows}\n".encode())
    for note in compiled.notes:
        h.update(f"{note}\n".encode())
    return h.hexdigest()


def regenerate() -> None:
    """Rewrite the golden file from the code as it stands."""
    pins = {name: kernel_hash(d3) for name, d3 in instances_to_pin().items()}
    GOLDEN.write_text(json.dumps(pins, indent=1) + "\n")


def test_every_kernel_matches_its_pin():
    want = json.loads(GOLDEN.read_text())
    got = {name: kernel_hash(d3) for name, d3 in instances_to_pin().items()}
    assert list(got) == list(want)
    assert [name for name in got if got[name] != want[name]] == []
