import math
import os
import random
import sys
import threading
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qnc4 import classical_eval, efc, instances, netgraph, qcompiler, qmath, qsim
from qnc4.errors import SizeError
from qnc4.netgraph import GroupKind, LetterMap, constant_map, normalize_to_d3
from qnc4.qcompiler import FORK_EFC, compile_protocol
from qnc4.qmath import ShrunkState
from qnc4.qsim import (
    alias_table,
    chi_square_statistic,
    estimate_fidelity,
    guess_fidelities,
    mixture_fidelity,
    simulate_analytic,
    simulate_montecarlo,
    simulate_oracle,
    source_distribution,
)

import _reference
from _generators import HIGH_BIT, diamond_chain, grown_d3, random_d3_instance
from _reference import enumerate_branches, fork_branch_law, join_branch_law, transform_branch_law

SWAP01 = LetterMap((1, 0, 2, 3))


@pytest.fixture(scope="module")
def single_compiled():
    net, proto = instances.bundled("single-edge")
    d3, _ = normalize_to_d3(net, proto)
    return compile_protocol(d3)


def _swap_chain_compiled():
    net = netgraph.make_network(
        nodes=[("s", "source"), ("h", "internal"), ("t", "sink")],
        edges=[("s", "h"), ("h", "t")],
        requirements={"t": "s"},
    )
    d3 = netgraph.D3Network(net, {"h": SWAP01}, GroupKind.Z2xZ2)
    return compile_protocol(d3)


# ---------------------------------------------------------------------------
# per-node laws


def test_source_distribution_kinds():
    assert source_distribution(2) == {2: Fraction(1)}
    exact = source_distribution(ShrunkState(1, Fraction(1, 2)))
    assert exact[1] == Fraction(3, 8)
    assert exact[0] == exact[2] == exact[3] == Fraction(5, 24)
    vec = source_distribution(np.array([1.0, 0.0]))
    assert abs(sum(vec.values()) - 1) < 1e-12
    assert abs(vec[0] - (1 + 1 / np.sqrt(3)) / 4) < 1e-12
    mat = source_distribution(np.eye(2) / 2)
    assert all(abs(w - 0.25) < 1e-12 for w in mat.values())
    for bad in (7, "00", True):
        with pytest.raises(ValueError, match="not a letter"):
            source_distribution(bad)
    with pytest.raises(ValueError, match="not a single-qubit density matrix"):
        source_distribution(np.eye(3) / 3)


def test_transform_law_one_to_one():
    comp = _swap_chain_compiled()
    law = transform_branch_law(comp.ops["h"], 0)
    assert law == {1: Fraction(1, 2), 0: Fraction(1, 6), 2: Fraction(1, 6), 3: Fraction(1, 6)}


def test_join_law_is_outcome_convolution():
    law = join_branch_law(GroupKind.Z2xZ2, 0, 0)
    assert law[0] == Fraction(1, 3)
    assert law[1] == law[2] == law[3] == Fraction(2, 9)
    for u1, u2 in product(range(4), repeat=2):
        for g in (GroupKind.Z2xZ2, GroupKind.Z4):
            law = join_branch_law(g, u1, u2)
            assert sum(law.values()) == 1
            # the modal output is the group sum of the two inputs
            assert max(law, key=law.get) == g.add(u1, u2)


def test_fork_law_marginals(butterfly_compiled):
    # conditioned on the incoming letter, each clone's letter marginal is the
    # 1/9-shrunk pattern whatever the incoming shrink; that shrink only shapes
    # the correlations between the two clones
    for node in ("s1.f0", "t0"):
        op = butterfly_compiled.ops[node]
        for u in range(4):
            law = fork_branch_law(op, u)
            assert sum(law.values()) == 1
            left = {z: Fraction(0) for z in range(4)}
            right = {z: Fraction(0) for z in range(4)}
            for (z1, z2), w in law.items():
                left[z1] += w
                right[z2] += w
            expect = qmath.tetra_weights(ShrunkState(u, Fraction(1, 9)))
            assert left == expect and right == expect


# ---------------------------------------------------------------------------
# exact modes against each other


def _width_bounds(compiled) -> tuple[int, int]:
    """The fewest and the most edges the sweep's largest factor can hold:
    at least every node's own inputs or outputs, at most every live edge
    plus a node's outputs."""
    net = compiled.d3.network
    live, low, high = 0, 1, 1
    for v in compiled.sweep_order:
        ins, outs = len(net.in_edges(v)), len(net.out_edges(v))
        low = max(low, ins, outs)
        high = max(high, live - ins + max(ins, outs))
        live += outs - ins
    return low, high


def _assert_sweep_matches_enumeration(compiled, inputs, tol=None) -> None:
    """The integer sweep against the Fraction joint over the live edges:
    every edge marginal, fork pair joint and sink mixture, exactly, or
    within tol when a source is given a vector.  Both give every value the
    same type: all Fractions, or all floats once a vector enters.  With
    letter inputs every factor splits down to one node's edges."""
    net = compiled.d3.network
    oracle = simulate_oracle(compiled, inputs)
    ref = enumerate_branches(compiled, inputs)
    assert all(abs(sum(law.values()) - 1) <= (tol or 0) for law in ref.edge_marginals.values())

    assert set(ref.edge_marginals) == set(range(len(net.edges)))
    assert set(ref.sink_mixtures) == set(net.sink_ids)
    forks = [v for v, op in compiled.ops.items() if op.tag == FORK_EFC]
    assert set(forks) == set(ref.fork_joints)
    kind = Fraction if tol is None else float
    for laws, got in ((ref.edge_marginals, oracle.edge_marginals),
                      (ref.sink_mixtures, oracle.sink_mixtures),
                      (ref.fork_joints, oracle.fork_joints)):
        if tol is None:
            assert laws == got
        assert set(laws) == set(got)
        for k, law in laws.items():
            assert set(law) == set(got[k])
            for key, p in law.items():
                assert type(got[k][key]) is type(p) is kind
                assert abs(p - got[k][key]) <= (tol or 0), (k, key)
    low, high = _width_bounds(compiled)
    if all(isinstance(x, int) for x in inputs):
        assert oracle.largest_factor == low
    assert low <= oracle.largest_factor <= high


def test_oracle_matches_full_enumeration(diamond_compiled):
    for x in (0, 3):
        _assert_sweep_matches_enumeration(diamond_compiled, [x])
    rng = random.Random(4711)
    done = 0
    while done < 5:
        d3 = random_d3_instance(rng, max_nodes=8, max_sources=2)
        if len(d3.network.edges) < 4:
            continue
        done += 1
        comp = compile_protocol(d3)
        n_src = len(d3.network.source_ids)
        inputs = [rng.randrange(4) for _ in range(n_src)]
        _assert_sweep_matches_enumeration(comp, inputs)
        _assert_sweep_matches_enumeration(
            comp, [ShrunkState(x, Fraction(1, 2 + x)) for x in inputs]
        )
    # wider draws: letters, shrunk states, and a pure state at one source
    rng = random.Random(4712)
    for _ in range(24):
        comp = compile_protocol(random_d3_instance(rng, max_nodes=10, max_sources=3))
        n_src = len(comp.d3.network.source_ids)
        inputs = [rng.randrange(4) for _ in range(n_src)]
        _assert_sweep_matches_enumeration(comp, inputs)
        shrinks = [Fraction(rng.randrange(1, 10), 9) for _ in inputs]
        _assert_sweep_matches_enumeration(comp, list(map(ShrunkState, inputs, shrinks)))
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        inputs[rng.randrange(n_src)] = np.array(
            [math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))]
        )
        _assert_sweep_matches_enumeration(comp, inputs, tol=1e-12)


def test_split_keeps_a_correlated_pair_merged():
    # equal letters on both edges: each edge is uniform, the pair is not
    diagonal = [1 if a == b else 0 for a in range(4) for b in range(4)]
    assert qsim._split((5, 7), diagonal, 4) == [qsim._Factor((5, 7), diagonal, 4)]


def test_split_cancels_an_exact_product():
    # P(a, b) = x[a] y[b] / 80, stored over 480 with a zero column
    x, y = [1, 2, 3, 4], [2, 2, 4, 0]
    table = [6 * a * b for a in x for b in y]
    assert qsim._split((1, 2), table, 480) == [
        qsim._Factor((1,), [1, 2, 3, 4], 10),
        qsim._Factor((2,), [1, 1, 2, 0], 4),
    ]


def test_split_frees_only_the_independent_middle_edge():
    # edges 10 and 12 carry equal letters; edge 11 is independent of both
    r = [1, 0, 2, 1]
    table = [r[b] * (a == c) for a in range(4) for b in range(4) for c in range(4)]
    diagonal = [1 if a == c else 0 for a in range(4) for c in range(4)]
    assert qsim._split((10, 11, 12), table, 16) == [
        qsim._Factor((11,), r, 4),
        qsim._Factor((10, 12), diagonal, 4),
    ]


def test_merged_orders_interleaved_inputs_by_in_edge():
    # inputs 1 and 3 share a factor, input 2 has its own: the letters of
    # inputs (1, 2, 3) land at row z1*16 + z2*4 + z3, as in a 3-input kernel;
    # entries below 100 times distinct powers of 100 make each product unique
    a, b = list(range(1, 17)), [1, 100, 10**4, 10**6]
    table, total = qsim._merged([qsim._Factor((1, 3), a, 200), qsim._Factor((2,), b, 7)], (1, 2, 3))
    assert total == 1400
    for z1, z2, z3 in product(range(4), repeat=3):
        assert table[z1 * 16 + z2 * 4 + z3] == a[z1 * 4 + z3] * b[z2]


def _fork_rejoined_compiled():
    # s0's fork feeds the join j, together with s1, and the join k
    net = netgraph.make_network(
        nodes=[("s0", "source"), ("s1", "source"), ("f", "internal"),
               ("j", "internal"), ("k", "internal"), ("t", "sink")],
        edges=[("s0", "f"), ("f", "j"), ("s1", "j"), ("j", "k"), ("f", "k"), ("k", "t")],
        requirements={"t": "s1"},
    )
    return compile_protocol(netgraph.D3Network(net, {}, GroupKind.Z4))


def test_vector_source_merges_factors(butterfly_compiled):
    # a fork alone holds 2 edges; fed a vector, a fork's outputs are not a
    # product, so the join behind one of them merges 3 edges or more
    vec = np.array([0.6, 0.8])
    assert simulate_oracle(butterfly_compiled, [2, 1]).largest_factor <= 2
    for inputs in ([2, vec], [vec, 2]):
        assert simulate_oracle(butterfly_compiled, inputs).largest_factor >= 3
    comp = _fork_rejoined_compiled()
    assert simulate_oracle(comp, [2, 1]).largest_factor <= 2
    for inputs in ([vec, 1], [vec, vec]):
        assert simulate_oracle(comp, inputs).largest_factor >= 3
    # the merged factors' values match the joint over the live edges, there
    # and on both butterflies with the vector at each source in turn
    z4 = compile_protocol(normalize_to_d3(*instances.bundled("butterfly-z4"))[0])
    cases = [(comp, [vec, 1]), (comp, [vec, vec])]
    cases += [(c, inputs) for c in (butterfly_compiled, z4)
              for inputs in ([vec, 2], [1, vec])]
    for c, inputs in cases:
        oracle = simulate_oracle(c, inputs)
        ref = enumerate_branches(c, inputs)
        for got, want in ((oracle.edge_marginals, ref.edge_marginals),
                          (oracle.fork_joints, ref.fork_joints),
                          (oracle.sink_mixtures, ref.sink_mixtures)):
            assert set(got) == set(want)
            for k, law in want.items():
                assert set(got[k]) == set(law)
                assert all(abs(got[k][z] - p) <= 1e-12 for z, p in law.items())


def test_oracle_accepts_shrunk_and_vector_inputs(single_compiled):
    res = simulate_oracle(single_compiled, [ShrunkState(0, Fraction(1, 2))])
    assert res.edge_marginals[0][0] == Fraction(3, 8)
    res = simulate_oracle(single_compiled, [np.array([1.0, 0.0])])
    total = sum(res.edge_marginals[0].values())
    assert abs(total - 1) < 1e-12
    rho = qmath.mixture_matrix(res.sink_mixtures["t"])
    assert qmath.is_density_matrix(rho)


def _oracle_values(res) -> list:
    groups = (res.edge_marginals, res.fork_joints, res.sink_mixtures)
    return [p for group in groups for law in group.values() for p in law.values()]


def test_oracle_result_types(butterfly_compiled):
    # exact inputs give Fractions; a state-vector source, wherever it sits,
    # makes every value a float, edges it does not feed included
    res = simulate_oracle(butterfly_compiled, [ShrunkState(1, Fraction(1, 3)), 2])
    values = _oracle_values(res)
    assert values and all(type(p) is Fraction for p in values)
    for inputs in ([np.array([0.6, 0.8]), 2], [2, np.array([0.6, 0.8])]):
        res = simulate_oracle(butterfly_compiled, inputs)
        values = _oracle_values(res)
        assert values and all(type(p) is float for p in values)
        for mix in res.sink_mixtures.values():
            assert abs(sum(mix.values()) - 1) < 1e-12


def test_sink_mixture_is_a_copy_of_its_input_marginal(butterfly_compiled):
    net = butterfly_compiled.d3.network
    for inputs in ([1, 2], [np.array([0.6, 0.8]), 2]):
        res = simulate_oracle(butterfly_compiled, inputs)
        for t in net.sink_ids:
            (e,) = net.in_edges(t)
            kept = dict(res.edge_marginals[e])
            assert res.sink_mixtures[t] == kept
            assert list(res.sink_mixtures[t]) == sorted(kept)
            res.sink_mixtures[t].clear()
            assert res.edge_marginals[e] == kept


def test_oracle_matches_analytic_on_butterfly(butterfly_compiled):
    for x, y in ((0, 0), (1, 3), (2, 1)):
        oracle = simulate_oracle(butterfly_compiled, [x, y])
        report = simulate_analytic(butterfly_compiled, [x, y])
        for t in ("t1", "t2"):
            assert oracle.sink_mixtures[t] == report.sink_mixtures[t]


def test_random_networks_hit_compiled_shrinks():
    # every edge marginal is exactly the compiled shrink of the classical letter
    rng = random.Random(97)
    for _ in range(6):
        d3 = random_d3_instance(rng, max_nodes=9, max_sources=2)
        comp = compile_protocol(d3)
        n_src = len(d3.network.source_ids)
        inputs = tuple(rng.randrange(4) for _ in range(n_src))
        classical = classical_eval.edge_values(d3, None, inputs)
        oracle = simulate_oracle(comp, list(inputs))
        for e in range(len(d3.network.edges)):
            want = qmath.tetra_weights(ShrunkState(classical[e], comp.edge_alpha(e)))
            for z in range(4):
                assert oracle.edge_marginals[e].get(z, 0) == want[z]


def test_float_sweep_is_order_independent(butterfly_compiled, monkeypatch):
    # a vector source's law sums to exactly 1, so every edge fed only by the
    # letter source reads the all-letter sweep's exact value, in either order
    d3 = butterfly_compiled.d3
    net = d3.network
    planned = butterfly_compiled.sweep_order  # built before the patch
    monkeypatch.setattr(qcompiler, "sweep_order", lambda comp: comp.order)
    listed = compile_protocol(d3)
    assert listed.sweep_order == listed.order
    assert planned != listed.order
    fed_by: dict = {}
    for v in butterfly_compiled.order:
        ins = net.in_edges(v)
        fed_by[v] = {v} if not ins else set().union(*(fed_by[net.edges[e][0]] for e in ins))
    letter_only = [e for e, (u, _) in enumerate(net.edges) if fed_by[u] == {"s1"}]
    assert len(letter_only) == 3
    exact = simulate_oracle(butterfly_compiled, [2, 0]).edge_marginals
    for comp in (butterfly_compiled, listed):
        got = simulate_oracle(comp, [2, np.array([0.6, 0.8])]).edge_marginals
        for e in letter_only:
            assert got[e] == {z: float(p) for z, p in exact[e].items()}


def test_size_guards(diamond_compiled, monkeypatch):
    monkeypatch.setattr(qsim, "MAX_ORACLE_BRANCHES", 10)
    monkeypatch.setattr(_reference, "MAX_FULL_BRANCHES", 10)
    with pytest.raises(SizeError):
        simulate_oracle(diamond_compiled, [0])
    with pytest.raises(SizeError):
        enumerate_branches(diamond_compiled, [0])


def test_size_error_names_node_and_branches(diamond_compiled, monkeypatch):
    # two edges are live after the fork d, so the sweep can hold 4^2 keys
    monkeypatch.setattr(qsim, "MAX_ORACLE_BRANCHES", 15)
    with pytest.raises(SizeError, match=r"at node d could reach 16 branches"):
        simulate_oracle(diamond_compiled, [0])
    monkeypatch.setattr(qsim, "MAX_ORACLE_BRANCHES", 16)
    simulate_oracle(diamond_compiled, [0])


def test_size_error_names_the_node_where_a_factor_would_grow(butterfly_compiled, monkeypatch):
    # 4 edges are live at once in sweep order, but letter inputs keep every
    # factor within 2 edges; a vector into s2 keeps its fork's outputs
    # together, and the join s0 would merge them with s1's edge
    monkeypatch.setattr(qsim, "MAX_ORACLE_BRANCHES", 16)
    net = butterfly_compiled.d3.network
    assert 4 ** _peak_live(net, butterfly_compiled.sweep_order) == 256
    simulate_oracle(butterfly_compiled, [2, 1])
    with pytest.raises(SizeError, match=r"at node s0 could reach 64 branches"):
        simulate_oracle(butterfly_compiled, [2, np.array([0.6, 0.8])])


def test_inputs_are_checked_before_the_size_guard(butterfly_compiled, monkeypatch):
    monkeypatch.setattr(qsim, "MAX_ORACLE_BRANCHES", 1)
    with pytest.raises(SizeError):
        simulate_oracle(butterfly_compiled, [2, 1])
    for bad in ([2, np.array([3.0, 0.0])], [2, 7], [2]):
        with pytest.raises(ValueError):
            simulate_oracle(butterfly_compiled, bad)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([3.0, 0.0]),
        np.array([0.6, 0.6]),
        np.array([math.nan, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.eye(2),
        np.array([[0.5, 0.5], [0.0, 0.5]]),
        np.diag([1.5, -0.5]),
    ],
)
def test_unnormalized_inputs_rejected(single_compiled, bad):
    with pytest.raises(ValueError):
        source_distribution(bad)
    with pytest.raises(ValueError):
        simulate_oracle(single_compiled, [bad])
    with pytest.raises(ValueError):
        simulate_montecarlo(single_compiled, [bad], trials=1000, seed=0)


# ---------------------------------------------------------------------------
# sweep order


def _peak_live(net, order) -> int:
    live, peak = set(), 0
    for v in order:
        live.difference_update(net.in_edges(v))
        live.update(net.out_edges(v))
        peak = max(peak, len(live))
    return peak


def _disjoint_copies(d3, k: int) -> netgraph.D3Network:
    net = d3.network
    tags = [f"c{i}." for i in range(k)]
    return netgraph.D3Network(
        netgraph.make_network(
            nodes=[(c + n.id, n.kind) for c in tags for n in net.nodes],
            edges=[(c + u, c + v) for c in tags for u, v in net.edges],
            requirements={c + t: c + s for c in tags for t, s in net.requirements.items()},
        ),
        {c + v: m for c in tags for v, m in d3.transforms.items()},
        d3.group,
    )


def test_plan_is_never_wider_than_listing_order():
    rng = random.Random(7)
    narrower = 0
    for _ in range(100):
        comp = compile_protocol(random_d3_instance(rng, max_nodes=40, max_sources=6))
        net = comp.d3.network
        order = comp.sweep_order
        assert sorted(order) == sorted(comp.order)
        done: set = set()
        for v in order:
            assert all(net.edges[e][0] in done for e in net.in_edges(v))
            done.add(v)
        peak, old = _peak_live(net, order), _peak_live(net, comp.order)
        assert peak <= old
        narrower += peak < old
    assert narrower


def test_plan_sweeps_disjoint_diamonds_one_at_a_time(diamond_compiled, monkeypatch):
    monkeypatch.setattr(qsim, "MAX_ORACLE_BRANCHES", 16)
    d3 = _disjoint_copies(diamond_compiled.d3, 3)
    comp = compile_protocol(d3)
    net = d3.network
    assert _peak_live(net, comp.order) == 6
    assert _peak_live(net, comp.sweep_order) == 2
    for inputs in ((0, 1, 2), (3, 3, 1)):
        oracle = simulate_oracle(comp, list(inputs))
        assert oracle.sink_mixtures == simulate_analytic(comp, inputs).sink_mixtures
        letters = classical_eval.edge_values(d3, None, list(inputs))
        for e in range(len(net.edges)):
            want = qmath.tetra_weights(ShrunkState(letters[e], comp.edge_alpha(e)))
            assert {z: oracle.edge_marginals[e].get(z, 0) for z in range(4)} == want


def test_sweep_is_exact_where_the_plan_is_too_wide():
    # grown networks whose sweep order peaks past 10 live edges, which a
    # sweep over the whole live-edge joint refuses; with letter inputs every
    # factor splits down to single edges after each node
    swept = 0
    for seed in range(7):
        rng = random.Random(seed)
        d3 = grown_d3(rng, rng.randint(8, 16), rng.randint(30, 70))
        comp = compile_protocol(d3)
        net = d3.network
        peak = _peak_live(net, comp.sweep_order)
        if peak <= 10:
            continue
        assert 4**peak > qsim.MAX_ORACLE_BRANCHES
        for _ in range(2):
            inputs = [rng.randrange(4) for _ in net.source_ids]
            oracle = simulate_oracle(comp, inputs)
            assert oracle.largest_factor <= 2
            analytic = simulate_analytic(comp, inputs).sink_mixtures
            for t in net.sink_ids:
                assert {z: oracle.sink_mixtures[t].get(z, 0) for z in range(4)} == analytic[t]
            letters = classical_eval.edge_values(d3, None, inputs)
            for e in range(len(net.edges)):
                want = qmath.tetra_weights(ShrunkState(letters[e], comp.edge_alpha(e)))
                assert {z: oracle.edge_marginals[e].get(z, 0) for z in range(4)} == want
        swept += 1
    assert swept >= 6


def test_sweep_order_is_built_once_on_first_sweep():
    net, proto = instances.bundled("butterfly")
    comp = compile_protocol(normalize_to_d3(net, proto)[0])
    assert "sweep_order" not in vars(comp)
    simulate_oracle(comp, [0, 1])
    order = comp.sweep_order
    simulate_oracle(comp, [2, 3])
    assert comp.sweep_order is order


# ---------------------------------------------------------------------------
# analytic report


def test_analytic_floor_only_without_inputs(butterfly_compiled):
    report = simulate_analytic(butterfly_compiled)
    a = Fraction(1, 531441)
    assert report.fidelity_floor["t1"] == Fraction(1, 2) + a / 6
    assert report.decoded is None and report.sink_mixtures is None
    assert report.fidelity_tetra is None


def test_analytic_delivery_and_mismatch():
    comp = _swap_chain_compiled()
    report = simulate_analytic(comp, [0])
    a = Fraction(1, 3)
    # the chain swaps the letter, so the sink misses its target
    assert report.decoded["t"] == 1
    assert report.fidelity_tetra["t"] == a / 3 + (1 - a) / 2
    assert report.fidelity_floor["t"] == Fraction(1, 2) + a / 6


def test_analytic_butterfly_delivers(butterfly_compiled):
    report = simulate_analytic(butterfly_compiled, [2, 3])
    a = Fraction(1, 531441)
    assert report.decoded == {"t1": 2, "t2": 3}
    for t in ("t1", "t2"):
        assert report.fidelity_tetra[t] == Fraction(1, 2) + a / 2
        peak = (1 + 3 * a) / 4
        assert report.sink_mixtures[t][report.decoded[t]] == peak


# ---------------------------------------------------------------------------
# Monte Carlo


def test_montecarlo_reproducible(diamond_compiled):
    a = simulate_montecarlo(diamond_compiled, [2], trials=20000, seed=5)
    b = simulate_montecarlo(diamond_compiled, [2], trials=20000, seed=5)
    c = simulate_montecarlo(diamond_compiled, [2], trials=20000, seed=6)
    assert all(np.array_equal(a.sink_counts[t], b.sink_counts[t]) for t in a.sink_counts)
    assert any(not np.array_equal(a.sink_counts[t], c.sink_counts[t]) for t in a.sink_counts)
    assert a.sink_counts["t"].sum() == 20000
    assert abs((a.sink_counts["t"] / a.trials).sum() - 1) < 1e-12


def test_montecarlo_stream_is_pinned_across_chunks(diamond_compiled):
    # 70,000 trials span two chunks; the counts pin both chunks' substreams
    assert qsim.CHUNK_SIZE < 70_000 <= 2 * qsim.CHUNK_SIZE
    mc = simulate_montecarlo(diamond_compiled, [2], trials=70_000, seed=5)
    assert {t: c.tolist() for t, c in mc.sink_counts.items()} == {
        "t": [17443, 17694, 17480, 17383]
    }


def test_montecarlo_tracks_oracle(diamond_compiled):
    trials = 200000
    mc = simulate_montecarlo(diamond_compiled, [1], trials=trials, seed=11)
    oracle = simulate_oracle(diamond_compiled, [1])
    stat = chi_square_statistic(mc.sink_counts["t"], oracle.sink_mixtures["t"])
    assert stat < 16.266  # chi-square df=3 at the 0.001 level


def test_montecarlo_vector_input(single_compiled):
    trials = 100000
    mc = simulate_montecarlo(single_compiled, [np.array([1.0, 0.0])], trials=trials, seed=3)
    probs = qmath.ttr_probabilities(np.diag([1.0, 0.0]))
    stat = chi_square_statistic(mc.sink_counts["t"], probs)
    assert stat < 16.266


def test_montecarlo_rejects_bad_trials(diamond_compiled):
    with pytest.raises(ValueError):
        simulate_montecarlo(diamond_compiled, [0], trials=0)
    with pytest.raises(ValueError):
        simulate_montecarlo(diamond_compiled, [0, 1], trials=10)
    for bad in (True, 10.0, 0, -5):
        with pytest.raises(ValueError, match="trials must be a positive int"):
            simulate_montecarlo(diamond_compiled, [0], trials=bad)
    assert simulate_montecarlo(diamond_compiled, [0], trials=np.int64(10)).trials == 10


def test_montecarlo_rejects_bad_seed(diamond_compiled):
    # True would run as seed 1, and None would draw unreproducible OS entropy
    for bad in (True, None, 1.5, "3", -1):
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            simulate_montecarlo(diamond_compiled, [0], trials=10, seed=bad)
    a = simulate_montecarlo(diamond_compiled, [2], trials=100, seed=np.int64(3))
    b = simulate_montecarlo(diamond_compiled, [2], trials=100, seed=3)
    assert a.seed == 3 and a.sink_counts["t"].tolist() == b.sink_counts["t"].tolist()


def _assert_rebuilds_kernel(kernel) -> None:
    """Every outcome's mass in the alias tables, (prob[k] + sum of
    1 - prob[j] over the slots j aliased to k) / K, taken exactly from the
    float tables, is the kernel's n / den within 4 ulp."""
    shift, prob, outcomes = alias_table(kernel)
    size = 1 << shift
    assert len(prob) == len(outcomes) == len(kernel.rows) * size
    assert prob.dtype == np.float64 and outcomes.dtype == np.uint8
    assert (outcomes[:, 0] == np.arange(len(prob)) % size).all()
    for i, row in enumerate(kernel.rows):
        assert len(row) == size
        want = [Fraction(n, kernel.den) for n in row]
        mass = [Fraction(0)] * size
        for j in range(i * size, (i + 1) * size):
            p = Fraction(prob[j])
            assert 0 <= p <= 1
            mass[j - i * size] += p
            mass[outcomes[j, 1]] += 1 - p
        for k in range(size):
            exact = want[k].numerator / want[k].denominator
            assert abs(mass[k] / size - want[k]) <= 4 * math.ulp(exact)


def test_alias_tables_rebuild_kernels():
    samples = [
        compile_protocol(normalize_to_d3(*instances.bundled(name))[0])
        for name in sorted(instances.BUNDLED)
    ]
    rng = random.Random(2718)
    samples += [compile_protocol(random_d3_instance(rng, max_nodes=14)) for _ in range(20)]
    checked = 0
    for comp in samples:
        for op in comp.ops.values():
            if op.kernel is not None:
                _assert_rebuilds_kernel(op.kernel)
                checked += 1
    assert checked > 80
    for value in (3, ShrunkState(1, Fraction(2, 7)), np.array([0.6, 0.8]), np.eye(2) / 2):
        _assert_rebuilds_kernel(qsim._source_kernel(source_distribution(value)))


def _every_op_network(group: GroupKind) -> netgraph.D3Network:
    """Every op kind, with the fork chain f0 -> f1 -> f2 -> f3."""
    net = netgraph.make_network(
        nodes=[("s0", "source"), ("s1", "source")]
        + [(v, "internal") for v in ("f0", "f1", "f2", "f3", "x0", "x1", "x2", "j")]
        + [(f"t{i}", "sink") for i in range(5)],
        edges=[("s0", "f0"), ("f0", "j"), ("f0", "f1"), ("s1", "x0"), ("x0", "j"),
               ("j", "x1"), ("x1", "t0"), ("f1", "f2"), ("f1", "x2"), ("x2", "t1"),
               ("f2", "f3"), ("f2", "t2"), ("f3", "t3"), ("f3", "t4")],
        requirements={f"t{i}": "s0" for i in range(5)},
    )
    maps = {"x0": SWAP01, "x1": HIGH_BIT, "x2": constant_map(3)}
    return netgraph.D3Network(net, maps, group)


@pytest.mark.parametrize("group", [GroupKind.Z2xZ2, GroupKind.Z4])
def test_montecarlo_fits_every_op_kind(group):
    comp = compile_protocol(_every_op_network(group))
    tags = {op.tag for op in comp.ops.values()}
    assert tags == {qcompiler.SOURCE_TTR, qcompiler.JOIN, qcompiler.FORK_EFC,
                    qcompiler.TRANSFORM_CONSTANT, qcompiler.TRANSFORM_ONE_TO_ONE,
                    qcompiler.TRANSFORM_TWO_TO_ONE, qcompiler.SINK_NOOP}
    for inputs in ((1, 2), (3, 0)):
        mc = simulate_montecarlo(comp, list(inputs), trials=200_000, seed=31)
        exact = simulate_analytic(comp, inputs).sink_mixtures
        for t, counts in mc.sink_counts.items():
            assert counts.sum() == 200_000
            assert chi_square_statistic(counts, exact[t]) < 16.266


@pytest.mark.parametrize("trials, expected", [
    # a full chunk and a partial one
    (qsim.CHUNK_SIZE + 4_465, {
        "t0": [17602, 17460, 17400, 17539], "t1": [0, 0, 0, 70001],
        "t2": [17450, 17584, 17592, 17375], "t3": [17541, 17578, 17439, 17443],
        "t4": [17487, 17568, 17387, 17559],
    }),
    # one chunk shorter than CHUNK_SIZE
    (20_000, {
        "t0": [4949, 5050, 5016, 4985], "t1": [0, 0, 0, 20000],
        "t2": [5028, 5075, 4997, 4900], "t3": [5002, 4965, 4960, 5073],
        "t4": [4965, 4985, 5071, 4979],
    }),
])
def test_montecarlo_stream_is_pinned_on_every_op_kind(trials, expected):
    comp = compile_protocol(_every_op_network(GroupKind.Z4))
    mc = simulate_montecarlo(comp, [1, 2], trials=trials, seed=5)
    assert {t: c.tolist() for t, c in mc.sink_counts.items()} == expected


@pytest.mark.parametrize("cpus", [None, 0, 1, 4])
def test_montecarlo_counts_do_not_depend_on_threads(monkeypatch, cpus):
    # six chunks, the last one short: with the cap lifted to four, workers
    # whose trial ranges start and end mid-chunk; one usable CPU starts no
    # thread, and 0 stands for a platform without CPU affinity.
    # A short switch interval makes the threads interleave as often as they
    # can.
    monkeypatch.setattr(qsim, "MAX_WORKERS", 4)
    if cpus == 0:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    elif cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    comp = compile_protocol(_every_op_network(GroupKind.Z4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        mc = simulate_montecarlo(comp, [1, 2], trials=5 * qsim.CHUNK_SIZE + 123, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert {t: c.tolist() for t, c in mc.sink_counts.items()} == {
        "t0": [82195, 81829, 82347, 81432], "t1": [0, 0, 0, 327803],
        "t2": [81747, 82216, 82188, 81652], "t3": [82218, 81998, 82023, 81564],
        "t4": [82065, 81756, 82014, 81968],
    }


@pytest.mark.parametrize("cpus", [1, 4])
def test_montecarlo_raises_a_workers_error(monkeypatch, cpus):
    # with two workers, the thread's worker starts mid-chunk 2, so chunk 3
    # is the second chunk it draws from
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    default_rng = np.random.default_rng

    def failing_rng(seq):
        if seq.spawn_key == (3,):
            raise RuntimeError("chunk 3 failed")
        return default_rng(seq)

    monkeypatch.setattr(np.random, "default_rng", failing_rng)
    comp = compile_protocol(_every_op_network(GroupKind.Z4))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 3 failed"):
        simulate_montecarlo(comp, [1, 2], trials=5 * qsim.CHUNK_SIZE + 123, seed=5)
    assert threading.active_count() == threads


def test_montecarlo_stops_every_worker_when_one_fails(monkeypatch):
    # chunk 0 fails on the calling thread while the thread's worker runs its
    # first piece, from the middle of chunk 2; that worker must stop there
    # rather than run chunks 3, 4 and 5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    default_rng = np.random.default_rng
    drawn, failed = [], threading.Event()

    def failing_rng(seq):
        drawn.append(seq.spawn_key)
        if seq.spawn_key == (0,):
            failed.set()
            raise RuntimeError("chunk 0 failed")
        failed.wait(10)
        return default_rng(seq)

    monkeypatch.setattr(np.random, "default_rng", failing_rng)
    comp = compile_protocol(_every_op_network(GroupKind.Z4))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 0 failed"):
        simulate_montecarlo(comp, [1, 2], trials=5 * qsim.CHUNK_SIZE + 123, seed=5)
    assert sorted(drawn) == [(0,), (2,)]
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_montecarlo_splits_one_chunk_without_changing_counts(monkeypatch, cpus):
    # 60,000 trials are one chunk, cut mid-chunk among one, two or three
    # workers (each gets at least a quarter chunk); counts printed at a
    # commit that ran every chunk whole on one thread
    monkeypatch.setattr(qsim, "MAX_WORKERS", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    comp = compile_protocol(_every_op_network(GroupKind.Z4))
    mc = simulate_montecarlo(comp, [1, 2], trials=60_000, seed=5)
    assert {t: c.tolist() for t, c in mc.sink_counts.items()} == {
        "t0": [15028, 14841, 15011, 15120], "t1": [0, 0, 0, 60000],
        "t2": [14926, 14948, 15125, 15001], "t3": [14991, 15211, 14825, 14973],
        "t4": [14977, 15081, 15110, 14832],
    }


def _threads_started(monkeypatch, cpus: int, trials: int) -> int:
    """How many threads a Monte Carlo call of trials starts on cpus usable
    CPUs; it checks that every trial reached the sinks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    comp = compile_protocol(_every_op_network(GroupKind.Z4))
    mc = simulate_montecarlo(comp, [1, 2], trials=trials, seed=5)
    assert mc.sink_counts["t1"].tolist() == [0, 0, 0, trials]
    return len(started)


@pytest.mark.parametrize("trials, threads", [
    (2 * (qsim.CHUNK_SIZE // 4) - 1, 0),
    (2 * (qsim.CHUNK_SIZE // 4), 1),
])
def test_montecarlo_starts_a_thread_from_two_quarter_chunks(monkeypatch, trials, threads):
    # below a quarter chunk per worker, a thread costs more than it saves
    assert _threads_started(monkeypatch, 4, trials) == threads


def test_montecarlo_result_holds_python_ints(diamond_compiled):
    mc = simulate_montecarlo(diamond_compiled, [2], trials=np.int64(40_000), seed=np.int64(3))
    assert type(mc.trials) is int and type(mc.seed) is int
    assert (mc.trials, mc.seed) == (40_000, 3)


def test_pcg64_skips_reproduce_one_long_draw():
    # Monte Carlo's trial ranges rest on this: every float64 that
    # Generator.random draws takes one 64-bit output of PCG64, so drawing
    # m uniforms and advancing n - m lands where n uniforms would
    seq = np.random.SeedSequence(entropy=2**40 + 7, spawn_key=(3,))
    n = 1000
    whole = np.random.default_rng(seq).random(3 * n)
    for lo, m in ((0, n), (0, 1), (1, n - 1), (617, 383), (999, 1), (250, 500)):
        rng = np.random.default_rng(seq)
        rng.bit_generator.advance(lo)
        u = np.empty(m)
        for b in range(3):
            rng.random(out=u)
            rng.bit_generator.advance(n - m)
            assert np.array_equal(u, whole[b * n + lo:b * n + lo + m])


def test_montecarlo_starts_one_thread_on_many_cpus(monkeypatch):
    # each worker beyond the first adds about 2.5 MB of peak memory, so
    # eight usable CPUs and six chunks still start a single thread
    assert _threads_started(monkeypatch, 8, 5 * qsim.CHUNK_SIZE + 123) == 1


def test_montecarlo_stream_is_pinned_on_a_vector_source(single_compiled):
    # a float source kernel, over two chunks
    mc = simulate_montecarlo(single_compiled, [np.array([0.6, 0.8])], trials=70_000, seed=5)
    assert {t: c.tolist() for t, c in mc.sink_counts.items()} == {
        "t": [24457, 4950, 29992, 10601]
    }


def test_montecarlo_on_huge_denominators():
    # seven two-to-one diamonds in series: the last kernels' denominators
    # pass 2^1024, so their float rows must come from integer true division
    comp = compile_protocol(diamond_chain(7))
    assert max(op.kernel.den for op in comp.ops.values() if op.kernel) > 2**1024
    for x in (0, 2):
        mc = simulate_montecarlo(comp, [x], trials=100_000, seed=17)
        exact = simulate_analytic(comp, [x]).sink_mixtures["t"]
        assert chi_square_statistic(mc.sink_counts["t"], exact) < 16.266


# ---------------------------------------------------------------------------
# one letter check


_LETTER_ENTRY_POINTS = {
    "simulate_analytic": lambda comp, x: simulate_analytic(comp, [x]),
    "simulate_oracle": lambda comp, x: simulate_oracle(comp, [x]),
    "simulate_montecarlo": lambda comp, x: simulate_montecarlo(comp, [x], trials=10),
    "evaluate": lambda comp, x: classical_eval.evaluate(comp.d3, None, [x]),
    "edge_values": lambda comp, x: classical_eval.edge_values(comp.d3, None, [x]),
    "mixture_fidelity": lambda comp, x: mixture_fidelity({0: Fraction(1)}, x),
    "guess_fidelities": lambda comp, x: guess_fidelities(x),
    "ShrunkState": lambda comp, x: ShrunkState(x, Fraction(1, 2)),
    "tetra": lambda comp, x: qmath.tetra(x),
    "tetra_matrix": lambda comp, x: qmath.tetra_matrix(x),
    "tetra_vector": lambda comp, x: qmath.tetra_vector(x),
    "ttr_outcome_weights": lambda comp, x: qmath.ttr_outcome_weights(x),
    "two_to_one_emission": lambda comp, x: _reference.two_to_one_emission(
        x, HIGH_BIT, Fraction(1, 9)),
    "efc_pair_distribution": lambda comp, x: efc.efc_pair_distribution(Fraction(1, 9), x),
}


@pytest.mark.parametrize("bad", [-1, 7, True, None, "01"])
@pytest.mark.parametrize("entry", sorted(_LETTER_ENTRY_POINTS))
def test_every_entry_point_refuses_non_letters(diamond_compiled, entry, bad):
    with pytest.raises(ValueError) as err:
        _LETTER_ENTRY_POINTS[entry](diamond_compiled, bad)
    assert type(err.value) is ValueError
    assert str(err.value) == f"not a letter: {bad!r} (letters are the ints 0 to 3)"


@pytest.mark.parametrize("entry", sorted(_LETTER_ENTRY_POINTS))
def test_every_entry_point_takes_numpy_letters(diamond_compiled, entry):
    _LETTER_ENTRY_POINTS[entry](diamond_compiled, np.int64(2))


# ---------------------------------------------------------------------------
# figures of merit


_STATE_VECTOR_ENTRY_POINTS = {
    "source_distribution": source_distribution,
    "fidelity": lambda psi: qmath.fidelity(psi, qmath.identity2 / 2),
    "guess_fidelities": guess_fidelities,
    "mixture_fidelity": lambda psi: mixture_fidelity({0: Fraction(1)}, psi),
    "estimate_fidelity": lambda psi: estimate_fidelity(np.array([1, 0, 0, 0]), 1, psi),
}


@pytest.mark.parametrize(
    "bad, message",
    [
        # abs(nan - 1) > tol is false, so a NaN must fail a positive test
        (np.array([math.nan, 0.0]), "state vector is not normalized (norm nan)"),
        (np.array([1.0, 1.0]), "state vector is not normalized (norm 1.414"),
        (np.array([1.0, 0.0, 0.0]), "state vector must have 2 entries, got shape (3,)"),
    ],
    ids=["nan", "norm-sqrt2", "three-entries"],
)
@pytest.mark.parametrize("entry", sorted(_STATE_VECTOR_ENTRY_POINTS))
def test_every_entry_point_refuses_bad_state_vectors(entry, bad, message):
    with pytest.raises(ValueError) as err:
        _STATE_VECTOR_ENTRY_POINTS[entry](bad)
    assert str(err.value).startswith(message)


def test_guess_fidelities():
    f = guess_fidelities(0)
    assert f[0] == 1.0 and f[1] == f[2] == f[3] == pytest.approx(1 / 3)
    f = guess_fidelities(np.array([1.0, 0.0]))
    assert f.sum() == pytest.approx(2.0)  # tetra states resolve the identity


def test_mixture_fidelity_exact():
    mix = {2: Fraction(3, 5), 0: Fraction(2, 5)}
    assert mixture_fidelity(mix, 2) == Fraction(11, 15)
    approx = mixture_fidelity(mix, np.array([0.0, 1.0]))
    assert isinstance(approx, float)


def test_estimate_fidelity_closed_form():
    counts = np.array([600, 200, 100, 100])
    est, se = estimate_fidelity(counts, 1000, 2)
    assert est == pytest.approx(0.4)
    assert se == pytest.approx((0.04 / 1000) ** 0.5)


def test_chi_square_zero_prob_bucket():
    probs = {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(0), 3: Fraction(0)}
    assert chi_square_statistic(np.array([5, 5, 0, 0]), probs) == pytest.approx(0.0)
    assert chi_square_statistic(np.array([5, 4, 1, 0]), probs) == float("inf")

