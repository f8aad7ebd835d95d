"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with -s) once its assertions
hold; a failing criterion shows up as the test's FAILED line instead.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from qnc4 import classical_eval, efc, instances, netgraph, qmath, qsim
from qnc4.netgraph import GroupKind, constant_map, normalize_to_d3
from qnc4.qcompiler import (
    TRANSFORM_CONSTANT,
    TRANSFORM_ONE_TO_ONE,
    TRANSFORM_TWO_TO_ONE,
    QuantumOp,
    compile_protocol,
)
from qnc4.qmath import ShrunkState, densify, tetra_matrix, tetra_vector

from _generators import (
    random_d3_instance,
    random_network_instance,
    random_permutation_map,
    random_two_to_one_map,
)
from _reference import join_branch_law, transform_branch_law

GRID_10 = [Fraction(k, 10) for k in range(1, 11)]


def _passed(n: int, detail: str) -> None:
    print(f"PASS criterion {n}: {detail}")


def _shrunk_input_mix(z: int, alpha: Fraction, law) -> dict:
    """Mix a letter-conditioned branch law over the latent letter mixture
    that realizes ShrunkState(z, alpha) on the node's incoming edge."""
    out: dict = {y: Fraction(0) for y in range(4)}
    for u, w in qmath.tetra_weights(ShrunkState(z, alpha)).items():
        for y, p in law(u).items():
            out[y] += w * p
    return out


def test_criterion_01_tetra_geometry():
    signs = {
        0: (1, 1, 1),
        1: (-1, -1, 1),
        2: (1, -1, -1),
        3: (-1, 1, -1),
    }
    qmath.bloch_vector(tetra_matrix(0))  # warm-up outside the timed region
    t0 = time.perf_counter()
    vecs = [qmath.bloch_vector(tetra_matrix(z)) for z in range(4)]
    total = sum(tetra_matrix(z) for z in range(4))
    elapsed = time.perf_counter() - t0
    inv = 1 / math.sqrt(3)
    for z, v in enumerate(vecs):
        assert np.abs(v - inv * np.array(signs[z])).max() < 1e-12
    assert np.abs(sum(vecs)).max() < 1e-12
    assert np.abs(total - 2 * np.eye(2)).max() < 1e-12
    assert elapsed < 1e-3
    _passed(1, f"tetra Bloch geometry exact, {elapsed * 1e6:.0f} us")


def test_criterion_02_ttr_law_and_channel():
    for z in range(4):
        probs = qmath.ttr_probabilities(ShrunkState(z, Fraction(1)))
        assert probs[z] == Fraction(1, 2)
        assert all(probs[w] == Fraction(1, 6) for w in range(4) if w != z)
        approx = qmath.ttr_probabilities(tetra_matrix(z))
        assert abs(approx[z] - 0.5) < 1e-12
        assert all(abs(approx[w] - 1 / 6) < 1e-12 for w in range(4) if w != z)
    rng = np.random.default_rng(321)
    for _ in range(100):
        v1, v2 = qmath.random_pure_state(rng), qmath.random_pure_state(rng)
        w = rng.random()
        rho = w * np.outer(v1, v1.conj()) + (1 - w) * np.outer(v2, v2.conj())
        shrunk = rho / 3 + np.eye(2) / 3
        assert np.abs(qmath.ttr_channel(rho) - shrunk).max() < 1e-12
    _passed(2, "measurement law exact, channel is 1/3-shrinking on 100 densities")


def test_criterion_03_cloner_exactness():
    t0 = time.perf_counter()
    for alpha in (Fraction(1), Fraction(1, 3), Fraction(1, 9), Fraction(1, 5), Fraction(1, 81)):
        for z in range(4):
            state = ShrunkState(z, alpha)
            joint = efc.efc_joint_distribution(state)
            out1, out2 = efc.efc_apply(state)
            marg = qmath.tetra_weights(out1)
            # exact mixture coefficients
            for pair, w in joint.items():
                assert w == marg[pair[0]] * marg[pair[1]]
            # and the joint output matrix at 1e-12
            rho = np.zeros((4, 4), dtype=complex)
            for (z1, z2), w in joint.items():
                rho += float(w) * np.kron(tetra_matrix(z1), tetra_matrix(z2))
            single = densify(ShrunkState(z, alpha / 9))
            assert np.abs(rho - np.kron(single, single)).max() < 1e-12
    for k in range(1, 101):
        par = efc.efc_params(Fraction(k, 100))
        assert min(par.p1, par.p2, par.p3, par.p4) > 0
        assert par.p1 + 6 * par.p2 + 6 * par.p3 + 3 * par.p4 == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(3, f"cloner exact on the 5-point grid, positive on 100 points, {elapsed:.2f} s")


def test_criterion_04_node_rules_on_rational_grid():
    for group in (GroupKind.Z2xZ2, GroupKind.Z4):
        for alpha, beta in product(GRID_10, repeat=2):
            for z1, z2 in ((0, 0), (1, 3), (2, 1)):
                out: dict = {}
                wa = qmath.tetra_weights(ShrunkState(z1, alpha))
                wb = qmath.tetra_weights(ShrunkState(z2, beta))
                for u1, u2 in product(range(4), repeat=2):
                    for y, p in join_branch_law(group, u1, u2).items():
                        out[y] = out.get(y, Fraction(0)) + wa[u1] * wb[u2] * p
                want = qmath.tetra_weights(
                    ShrunkState(group.add(z1, z2), alpha * beta / 9)
                )
                assert out == want
    rng = random.Random(5)
    for alpha in GRID_10:
        perm = random_permutation_map(rng)
        two1 = random_two_to_one_map(rng)
        for z in range(4):
            op = QuantumOp(
                "n", TRANSFORM_CONSTANT, Fraction(1), a_in=(alpha,), map=constant_map(2)
            )
            out = _shrunk_input_mix(z, alpha, lambda u: transform_branch_law(op, u))
            assert out == qmath.tetra_weights(ShrunkState(2, Fraction(1)))

            op = QuantumOp(
                "n", TRANSFORM_ONE_TO_ONE, alpha / 3, a_in=(alpha,), map=perm
            )
            out = _shrunk_input_mix(z, alpha, lambda u: transform_branch_law(op, u))
            assert out == qmath.tetra_weights(ShrunkState(perm(z), alpha / 3))

            op = QuantumOp(
                "n",
                TRANSFORM_TWO_TO_ONE,
                alpha / (6 - alpha),
                a_in=(alpha,),
                map=two1,
            )
            out = _shrunk_input_mix(z, alpha, lambda u: transform_branch_law(op, u))
            assert out == qmath.tetra_weights(ShrunkState(two1(z), alpha / (6 - alpha)))
    _passed(4, "join alpha*beta/9 and transform shrinks {1, a/3, a/(6-a)} exact on the grid")


def test_criterion_05_state_family_ranks():
    tetra = [tetra_matrix(z) for z in range(4)]
    assert qmath.linear_independence_rank(tetra) == 4
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    bb84 = [
        np.diag([1.0, 0.0]),
        np.diag([0.0, 1.0]),
        np.outer(plus, plus),
        np.outer(minus, minus),
    ]
    assert qmath.linear_independence_rank(bb84) == 3
    _passed(5, "projector ranks: tetra family 4, conjugate-basis family 3")


def test_criterion_06_butterfly_end_to_end():
    t0 = time.perf_counter()
    net, proto = instances.bundled("butterfly")
    d3, _ = normalize_to_d3(net, proto)
    comp = compile_protocol(d3)
    floors = {}
    for t, a in comp.sink_alphas.items():
        floor = Fraction(1, 2) + a / 6
        assert floor > Fraction(1, 2)
        floors[t] = floor
    analytic = qsim.simulate_analytic(comp, [1, 2])
    assert analytic.fidelity_floor == floors

    # conditioned on tetra labels: the exact sweep matches the compiled
    # mixtures outright, which is stronger than the 1e-12 the criterion asks
    oracle = qsim.simulate_oracle(comp, [1, 2])
    for t in ("t1", "t2"):
        exact = analytic.sink_mixtures[t]
        assert all(oracle.sink_mixtures[t].get(z, 0) == exact[z] for z in range(4))

    # tetra states fed as unknown pure inputs: fidelity hits the floor at 1e-12
    oracle = qsim.simulate_oracle(comp, [tetra_vector(1), tetra_vector(2)])
    for t, want in (("t1", tetra_vector(1)), ("t2", tetra_vector(2))):
        fid = qsim.mixture_fidelity(oracle.sink_mixtures[t], want)
        assert abs(fid - float(floors[t])) < 1e-12

    rng = np.random.default_rng(123)
    pure_pairs = [
        (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        (qmath.random_pure_state(rng), qmath.random_pure_state(rng)),
    ]
    trials = 10**6
    for pair in pure_pairs:
        mc = qsim.simulate_montecarlo(comp, list(pair), trials=trials, seed=42)
        for t, want in zip(("t1", "t2"), pair):
            est, se = qsim.estimate_fidelity(mc.sink_counts[t], trials, want)
            assert abs(est - float(floors[t])) <= 3 * se
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(6, f"butterfly: floors exact, sampling within 3 sigma, {elapsed:.1f} s")


def test_criterion_07_random_networks_edge_exactness():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    for _ in range(50):
        d3 = random_d3_instance(rng, max_nodes=12, max_sources=3)
        comp = compile_protocol(d3)
        assert all(op.alpha > 0 for op in comp.ops.values())
        n_src = len(d3.network.source_ids)
        for inputs in product(range(4), repeat=n_src):
            classical = classical_eval.edge_values(d3, None, list(inputs))
            oracle = qsim.simulate_oracle(comp, list(inputs))
            for e in range(len(d3.network.edges)):
                want = qmath.tetra_weights(
                    ShrunkState(classical[e], comp.edge_alpha(e))
                )
                got = oracle.edge_marginals[e]
                assert all(got.get(z, 0) == want[z] for z in range(4))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(7, f"50 random networks, every edge exactly on target, {elapsed:.1f} s")


def test_criterion_08_normalization_preserves_truth_tables():
    checked = 0
    for name in sorted(instances.BUNDLED):
        net, proto = instances.bundled(name)
        d3, _ = normalize_to_d3(net, proto)
        before = classical_eval.truth_table(net, proto)
        after = classical_eval.truth_table(d3)
        assert before.rows == after.rows and before.sinks == after.sinks
        checked += 1
    rng = random.Random(4242)
    done = 0
    while done < 10:
        net, proto = random_network_instance(rng)
        if not netgraph.validate_network(net, proto).ok:
            continue
        d3, _ = normalize_to_d3(net, proto)
        before = classical_eval.truth_table(net, proto)
        after = classical_eval.truth_table(d3)
        assert before.rows == after.rows and before.sinks == after.sinks
        done += 1
        checked += 1
    _passed(8, f"truth tables preserved on {checked} instances")


def test_criterion_09_two_state_cloners():
    for p in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        for x in (0, 1):
            res = efc.efco2_apply(x, p)
            own = Fraction(1, 2) + p / 4
            other = Fraction(1, 2) - p / 4
            assert res.output_shrink == p / 2
            assert res.pair_dist[(x, x)] == own * own
            assert res.pair_dist[(x, 1 - x)] == res.pair_dist[(1 - x, x)] == own * other
            assert res.pair_dist[(1 - x, 1 - x)] == other * other
    for theta in (0.0, math.pi / 12, math.pi / 6, math.pi / 5):
        for p in (0.25, 0.5, 1.0):
            res = efc.efc2_apply(theta, 0, p)
            assert res.r > 0
            c, s = math.cos(theta), math.sin(theta)
            eq1 = (res.r * c * c + (1 - res.r) / 2) - (
                (0.5 + res.step1_shrink / 4) * (1 - res.q) + res.q / 2
            )
            eq2 = res.r * s * c - res.q / 2
            assert max(abs(eq1), abs(eq2)) < 1e-12
    _passed(9, "basis-pair cloner exact, mirror-pair closed form solves both equations")


def test_criterion_10_forks_produce_no_correlations():
    found = 0
    for name in sorted(instances.BUNDLED):
        net, proto = instances.bundled(name)
        d3, _ = normalize_to_d3(net, proto)
        comp = compile_protocol(d3)
        n_src = len(d3.network.source_ids)
        for inputs in product(range(4), repeat=n_src):
            oracle = qsim.simulate_oracle(comp, list(inputs))
            for v, joint in oracle.fork_joints.items():
                e1, e2 = d3.network.out_edges(v)
                m1, m2 = oracle.edge_marginals[e1], oracle.edge_marginals[e2]
                for z1, z2 in product(range(4), repeat=2):
                    assert joint.get((z1, z2), 0) == m1.get(z1, 0) * m2.get(z2, 0)
                rho = np.zeros((4, 4), dtype=complex)
                for (z1, z2), w in joint.items():
                    rho += float(w) * np.kron(tetra_matrix(z1), tetra_matrix(z2))
                r1 = qmath.mixture_matrix(m1)
                r2 = qmath.mixture_matrix(m2)
                assert np.abs(rho - np.kron(r1, r2)).max() < 1e-12
                found += 1
    assert found
    _passed(10, f"{found} fork outputs, all exactly product states")
