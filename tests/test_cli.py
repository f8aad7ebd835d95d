import copy
import csv
import itertools
import io
import json
import logging
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from _generators import diamond_chain, mutate_document
from qnc4 import cli, instances, netgraph, qsim
from qnc4.cli import main
from qnc4.errors import VerificationError
from qnc4.instances import BUNDLED
from qnc4.netgraph import (
    D3Network,
    GroupKind,
    IDENTITY_MAP,
    LetterMap,
    letter_to_str,
    make_network,
    node_op,
)
from qnc4.qcompiler import compile_protocol


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _d3_doc(d3):
    """A normal form as a document, in the one layout."""
    return netgraph.instance_to_json(d3.network, d3.protocol)


@pytest.fixture()
def swap_chain_path(tmp_path):
    # valid structure, but the sink receives the swapped letter
    net = make_network(
        nodes=[("s", "source"), ("h", "internal"), ("t", "sink")],
        edges=[("s", "h"), ("h", "t")],
        requirements={"t": "s"},
    )
    d3 = D3Network(net, {"h": LetterMap((1, 0, 2, 3))}, GroupKind.Z2xZ2)
    return _write_json(tmp_path, "swap.json", _d3_doc(d3))


def test_validate_list(capsys):
    assert main(["validate", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(BUNDLED)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_validate_bundled(name, capsys):
    assert main(["validate", name]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_needs_instance(capsys):
    assert main(["validate"]) == 2
    assert "required" in capsys.readouterr().err


def test_validate_list_refuses_an_instance(capsys):
    assert main(["validate", "--list", "butterfly"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--list" in captured.err and "'butterfly'" in captured.err


def test_unknown_instance(capsys):
    assert main(["validate", "no-such-instance"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unreadable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def _repeat_requirement(path):
    doc = instances.read_json("butterfly")
    doc["requirements"].append({"sink": "t1", "source": "s2"})
    path.write_text(json.dumps(doc))


def _repeat_op(path):
    # a second, wrong entry for node t1 ahead of the real one
    text = json.dumps(instances.read_json("butterfly"))
    extra = '"t1": [{"out": 0, "terms": []}], '
    path.write_text(text.replace('"ops": {', '"ops": {' + extra, 1))


def _repeat_group(path):
    text = json.dumps(instances.read_json("butterfly"))
    path.write_text('{"group": "Z4", ' + text[1:])


@pytest.mark.parametrize(
    "write, problem",
    [
        (lambda path: path.mkdir(), "cannot read"),
        (lambda path: path.write_text("[" * 100_000 + "]" * 100_000), "not valid JSON"),
        (lambda path: path.write_bytes(b"\xff\xfe{}"), "not valid JSON"),
        (_repeat_requirement, "a second requirement for sink t1"),
        (_repeat_op, "repeated key 't1'"),
        (_repeat_group, "repeated key 'group'"),
    ],
    ids=["directory", "deep-nesting", "not-utf8", "repeated-requirement", "repeated-op",
         "repeated-group"],
)
def test_unreadable_inputs_exit_2(tmp_path, capsys, write, problem):
    path = tmp_path / "input.json"
    write(path)
    assert main(["validate", str(path)]) == 2
    assert problem in capsys.readouterr().err


def test_validate_reports_violations(tmp_path, capsys):
    net = make_network(
        nodes=[("s", "source"), ("s2", "source"), ("t", "sink")],
        edges=[("s", "t")],
        requirements={"t": "s"},
    )
    proto = netgraph.ClassicalProtocol(GroupKind.Z2xZ2, {})
    path = _write_json(tmp_path, "bad.json", netgraph.instance_to_json(net, proto))
    assert main(["validate", path]) == 3
    assert "violation:" in capsys.readouterr().out


def test_validate_catches_failed_delivery(swap_chain_path, capsys):
    assert main(["validate", swap_chain_path]) == 3
    assert "delivery requirement fails" in capsys.readouterr().out


def test_eval_butterfly_csv(capsys):
    assert main(["eval", "butterfly"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["s1", "s2", "t1", "t2"]
    assert len(rows) == 17
    assert rows[1] == ["00", "00", "00", "00"]
    # crossover: each sink reproduces its own source
    for row in rows[1:]:
        assert row[2] == row[0] and row[3] == row[1]


def test_eval_out_file(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["eval", "single-edge", "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["s", "t"]
    assert len(rows) == 5


@pytest.mark.parametrize("where", ["a-directory", "a-missing-directory"])
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    out = tmp_path if where == "a-directory" else tmp_path / "missing" / "table.csv"
    assert main(["eval", "single-edge", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}: cannot write (")
    assert "Traceback" not in captured.err


def _drop_op(doc):
    del doc["ops"]["t0"]


def _edge_to_nowhere(doc):
    doc["edges"][0]["to"] = "nowhere"


def _term_out_of_range(doc):
    doc["ops"]["s0"][0]["terms"][1]["in"] = 7


def _duplicate_id(doc):
    doc["nodes"][2]["id"] = "s1"


def _ops_for_ghost(doc):
    doc["ops"]["ghost"] = []


def _two_ops_one_edge(doc):
    doc["ops"]["t0"][1]["out"] = 0


def _term_twice(doc):
    doc["ops"]["s0"][0]["terms"][1]["in"] = 0


def _short_map(doc):
    doc["ops"]["s0"][0]["terms"][0]["map"] = ["00", "01", "10"]


def _ops_not_array(doc):
    doc["ops"]["t0"] = {}


def _unknown_group(doc):
    doc["group"] = "Z8"


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (_drop_op, "outgoing edge 0 of node t0 has no operation"),
        (_edge_to_nowhere, "edge 0 ends at unknown node nowhere"),
        (_term_out_of_range, "references missing incoming edge 7"),
        (_duplicate_id, "duplicate node id s1"),
        (_ops_for_ghost, "operations given for unknown node ghost"),
        (_two_ops_one_edge, "node t0 has two operations for outgoing edge 0"),
        (_term_twice, "operation on node s0 (out 0) references incoming edge 0 twice"),
        (_short_map, "ops.s0[0].terms[0]: map must be an array of 4 letters"),
        (lambda doc: [doc], "top level: expected an object"),
        (_ops_not_array, "ops.t0: expected an array of operations"),
        (_unknown_group, "unknown group 'Z8'"),
    ],
    ids=["missing-op", "unknown-node", "term-out-of-range", "duplicate-id",
         "ops-for-unknown-node", "two-ops-one-edge", "term-twice", "short-map",
         "not-an-object", "ops-not-an-array", "unknown-group"],
)
def test_eval_validates_first(tmp_path, capsys, mutate, problem):
    doc = netgraph.instance_to_json(*instances.bundled("butterfly"))
    doc = mutate(doc) or doc  # a mutation edits doc in place or replaces it
    path = _write_json(tmp_path, "mutated.json", doc)
    assert main(["eval", path]) in (2, 3)
    captured = capsys.readouterr()
    assert problem in captured.out + captured.err
    assert "cycle" not in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err


def _normal_form(name):
    return _d3_doc(netgraph.normalize_to_d3(*instances.bundled(name))[0])


def _add_cycle(doc):
    doc["edges"].append({"from": "t0", "to": "s0"})


def _non_source_requirement(doc):
    doc["requirements"][0]["source"] = "t0"


def _edge_into_source(doc):
    doc["edges"].append({"from": "s2", "to": "s1"})


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (_ops_for_ghost, "operations given for unknown node ghost"),
        (_duplicate_id, "duplicate node id s1"),
        (_add_cycle, "network contains a cycle"),
        (_non_source_requirement, "requirement for sink t1 names t0, which is not a source"),
        (_edge_into_source, "source s1 has indegree 1 (must be 0)"),
    ],
    ids=["ops-for-unknown-node", "duplicate-id", "cycle", "non-source-requirement",
         "edge-into-source"],
)
def test_invalid_file_gives_one_answer(tmp_path, capsys, mutate, problem):
    doc = instances.read_json("butterfly")
    mutate(doc)
    path = _write_json(tmp_path, "invalid.json", doc)
    answers = set()
    for command in ("validate", "eval", "normalize", "compile", "simulate", "report"):
        assert main([command, path]) == 3, command
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert all(line.startswith("violation: ") for line in lines), command
        assert "error:" in captured.err and "Traceback" not in captured.err
        answers.add(tuple(lines))
    assert len(answers) == 1
    assert f"violation: {problem}" in answers.pop()


def _identity_term(i):
    return {"in": i, "map": ["00", "01", "10", "11"]}


def _edge_from_nowhere(doc):
    doc["edges"].append({"from": "ghost", "to": "t1"})


def _edge_out_of_sink(doc):
    doc["edges"].append({"from": "t1", "to": "t2"})


def _sink_fed_by_nothing(doc):
    doc["nodes"].append({"id": "t3", "kind": "sink"})
    doc["requirements"].append({"sink": "t3", "source": "s1"})


def _source_op_for_missing_out(doc):
    doc["ops"]["s1"] = [{"out": 3, "terms": []}]


def _op_for_missing_out_reading_missing_in(doc):
    doc["ops"]["t0"].append({"out": 5, "terms": [_identity_term(4)]})


def _two_terms_on_one_missing_in(doc):
    doc["ops"]["s0"][0]["terms"] = [_identity_term(7)] * 2


@pytest.mark.parametrize(
    "mutate, violations",
    [
        # not passed on to the normalizer, which has no producer for it
        (_edge_from_nowhere, ["edge 7 starts at unknown node ghost"]),
        (_edge_out_of_sink, ["sink t1 has outdegree 1 (must be 0)"]),
        (_sink_fed_by_nothing, ["sink t3 has indegree 0 (receives nothing)"]),
        # no degree, requirement or operation check runs once an id repeats
        (_duplicate_id, ["duplicate node id s1", "edge 0 ends at unknown node s0",
                         "edge 2 ends at unknown node s0", "edge 4 starts at unknown node s0"]),
        # a source's operations get one line, not one more per position
        (_source_op_for_missing_out,
         ["source s1 carries operations (sources pass their letter through)"]),
        # an operation for a missing output gets no line for its terms
        (_op_for_missing_out_reading_missing_in,
         ["node t0 has an operation for missing outgoing edge 5"]),
        # a term on a missing input is not also counted as a repeat
        (_two_terms_on_one_missing_in,
         ["operation on node s0 (out 0) references missing incoming edge 7"] * 2),
    ],
    ids=["edge-from-unknown-node", "sink-with-outdegree", "sink-with-indegree-0",
         "duplicate-id", "source-op-for-missing-out", "op-for-missing-out",
         "two-terms-on-one-missing-in"],
)
def test_each_check_gives_exactly_its_violations(tmp_path, capsys, mutate, violations):
    doc = instances.read_json("butterfly")
    mutate(doc)
    path = _write_json(tmp_path, "invalid.json", doc)
    assert main(["validate", path]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"violation: {v}" for v in violations]
    assert "Traceback" not in captured.err


def test_cut_edge_is_reported_by_degrees_only(tmp_path, capsys):
    # s1.f0's operations read its one incoming edge; with that edge cut, the
    # two degree lines say it all, and no line per operation repeats them
    doc = _normal_form("butterfly")
    doc["edges"] = [e for e in doc["edges"] if (e["from"], e["to"]) != ("s1", "s1.f0")]
    path = _write_json(tmp_path, "cut.json", doc)
    assert main(["validate", path]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "violation: source s1 has outdegree 0 (must send its letter somewhere)",
        "violation: internal node s1.f0 has indegree 0",
    ]


def _set_kind(doc, node, kind):
    next(n for n in doc["nodes"] if n["id"] == node)["kind"] = kind
    return doc


@pytest.mark.parametrize(
    "doc, node, kind",
    [
        (lambda: instances.read_json("butterfly"), "t1", "widget"),
        (lambda: _normal_form("butterfly"), "s1.f0", "weird"),
    ],
    ids=["general-layout", "normal-form"],
)
def test_unknown_kind_is_one_violation(tmp_path, capsys, doc, node, kind):
    # no check that depends on a node's kind runs on a node of unknown kind:
    # degrees, requirement ends, operation positions and the role
    path = _write_json(tmp_path, "kind.json", _set_kind(doc(), node, kind))
    for command in ("validate", "eval", "normalize", "compile", "simulate", "report"):
        assert main([command, path]) == 3, command
        assert capsys.readouterr().out.splitlines() == [
            f"violation: node {node} has unknown kind {kind!r}",
        ], command


def test_failed_verification_exits_3_without_traceback(monkeypatch, capsys):
    def refuse(d3):
        raise VerificationError("Join kernel of node j misses its target")

    monkeypatch.setattr(cli, "compile_protocol", refuse)
    assert main(["compile", "butterfly"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Join kernel of node j misses its target\n"


@pytest.mark.parametrize("value", ["debug", "Info", "WARNING", "error", "cRiTiCaL"])
def test_qnc_log_takes_a_level_name_in_any_case(monkeypatch, capsys, value):
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda level: levels.append(level))
    monkeypatch.setenv("QNC_LOG", value)
    assert main(["validate", "single-edge"]) == 0
    assert levels == [getattr(logging, value.upper())]


@pytest.mark.parametrize("value", ["basic_format", "bogus", "warn", "10", "ınfo"])
def test_qnc_log_refuses_other_values(monkeypatch, capsys, value):
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: pytest.fail("configured"))
    monkeypatch.setenv("QNC_LOG", value)
    assert main(["validate", "single-edge"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "QNC_LOG" in captured.err and repr(value) in captured.err
    assert "Traceback" not in captured.err


def _run_six(capsys, path, mode, codes):
    """Run the six subcommands on one document: each ends in a documented
    exit, and all read and validate it the same way."""
    verdicts = set()
    for args in (
        ["validate", path],
        ["eval", path],
        ["normalize", path],
        ["compile", path],
        ["simulate", path, "--mode", mode, "--trials", "50"],
        ["report", path, "--trials", "50"],
    ):
        code = main(args)
        captured = capsys.readouterr()
        assert code in ((0, 1, 2, 3, 4) if args[0] == "report" else (0, 2, 3, 4)), args
        if code == 0:
            assert captured.out, args
        else:
            # a failed report check or delivery prints its reason on stdout
            assert "error:" in captured.err or code in (1, 3) and (
                "FAIL" in captured.out or "delivery requirement fails" in captured.out
            ), (args, captured)
        codes[code] += 1
        verdicts.add(
            "unreadable" if code == 2
            else "invalid" if "violation: " in captured.out
            else "valid"
        )
    assert len(verdicts) == 1, (path, verdicts)


def test_mutated_documents_end_in_documented_exits(tmp_path, capsys):
    rng = random.Random(5150)
    bases = [instances.read_json(n) for n in BUNDLED] + [_normal_form(n) for n in BUNDLED]
    bases.append(_d3_doc(diamond_chain(10)))  # too deep to compile exactly
    codes = Counter()
    # each base once as it is, so the digit-limit refusal (exit 4) is reached
    for k, doc in enumerate(bases):
        _run_six(capsys, _write_json(tmp_path, f"base{k}.json", doc), "oracle", codes)
    for k in range(50):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            mutate_document(rng, doc)
        path = _write_json(tmp_path, f"mutated{k}.json", doc)
        mode = rng.choice(("analytic", "oracle", "montecarlo"))
        _run_six(capsys, path, mode, codes)
    # every outcome the documents should reach is reached
    assert codes[0] and codes[2] and codes[3] and codes[4], codes


_ALL_SIX = (["validate"], ["eval"], ["normalize"], ["compile"],
            ["simulate", "--mode", "oracle"], ["report", "--trials", "100"])


def _run_one(capsys, command, path):
    """One of `_ALL_SIX` on path: its exit code, stdout and stderr."""
    code = main([command[0], path, *command[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nine_diamonds_pass_every_subcommand(tmp_path, capsys):
    path = _write_json(tmp_path, "chain9.json", _d3_doc(diamond_chain(9)))
    for command in _ALL_SIX:
        assert main([command[0], path, *command[1:]]) == 0, command
        assert capsys.readouterr().out


@pytest.mark.parametrize(
    "d3, node",
    [
        (diamond_chain(10), "d9"),
        (diamond_chain(9, fork=True), "x"),
        (diamond_chain(14), "d9"),
    ],
    ids=["ten-diamonds", "nine-diamonds-then-fork", "fourteen-diamonds"],
)
def test_exact_numbers_past_the_digit_limit_exit_4(tmp_path, capsys, d3, node):
    # past 4300 digits, str() of an int raises; each subcommand either
    # prints no exact number or refuses before building one that large
    path = _write_json(tmp_path, "deep.json", _d3_doc(d3))
    for command in _ALL_SIX:
        code = main([command[0], path, *command[1:]])
        captured = capsys.readouterr()
        if command[0] in ("validate", "eval", "normalize"):
            assert code == 0 and captured.out, command
        else:
            assert code == 4, command
            assert f"exact numbers at node {node} would have " in captured.err
            assert "digits, over the limit of 4000" in captured.err


def test_compile_validates_each_normal_form_once(tmp_path, monkeypatch, capsys):
    calls = []
    validate = netgraph.validate_d3

    def counted(d3):
        calls.append(d3)
        return validate(d3)

    # wherever a module bound the function, not only in netgraph
    for name, module in list(sys.modules.items()):
        if name.startswith("qnc4") and getattr(module, "validate_d3", None) is validate:
            monkeypatch.setattr(module, "validate_d3", counted)
    out = tmp_path / "butterfly.d3.json"
    assert main(["normalize", "butterfly", "--out", str(out)]) == 0
    for source in ("butterfly", str(out)):
        calls.clear()
        assert main(["compile", source]) == 0
        assert len(calls) == 1, source
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "eval"])
def test_eval_too_many_sources(tmp_path, capsys, command):
    n = 9
    nodes = [(f"s{i}", "source") for i in range(n)] + [("t", "sink")]
    edges = [(f"s{i}", "t") for i in range(n)]
    proto = netgraph.ClassicalProtocol(
        GroupKind.Z2xZ2,
        {"t": (node_op(0, [(i, IDENTITY_MAP) for i in range(n)]),)},
    )
    net = make_network(nodes, edges, {"t": "s0"})
    path = _write_json(tmp_path, "wide.json", netgraph.instance_to_json(net, proto))
    assert main([command, path]) == 4
    err = capsys.readouterr().err
    assert "needs 4**9 rows; refusing beyond 8 sources" in err


def test_normalize_butterfly(capsys):
    assert main(["normalize", "butterfly"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "ops" in doc and "transforms" not in doc
    assert doc["node_correspondence"]["s1"] == ["s1", "s1.f0"]
    ids = [n["id"] for n in doc["nodes"]]
    assert "t1.j0.0" in ids


def test_normalize_roundtrips_through_cli(tmp_path, capsys):
    out = tmp_path / "d3.json"
    assert main(["normalize", "two-to-one-diamond", "--out", str(out)]) == 0
    # the emitted normal form is itself a valid CLI input
    assert main(["validate", str(out)]) == 0
    assert "ok:" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_normal_form_file_prints_what_its_original_prints(tmp_path, capsys, name):
    # a normal form is its own normal form, node for node and edge for
    # edge, so every subcommand but normalize prints the same on it,
    # Monte Carlo counts included
    out = str(tmp_path / f"{name}.d3.json")
    assert main(["normalize", name, "--out", out]) == 0
    for command in (
        ["validate"], ["eval"], ["compile"],
        ["simulate", "--mode", "analytic"], ["simulate", "--mode", "oracle"],
        ["simulate", "--mode", "montecarlo", "--trials", "5000", "--seed", "3"],
        ["report", "--trials", "20000", "--seed", "1"],
    ):
        want = _run_one(capsys, command, name)
        assert want[0] == 0, command
        assert _run_one(capsys, command, out) == want, command
    # normalize differs only in node_correspondence, which maps each node
    # to itself
    first = json.loads(_run_one(capsys, ["normalize"], name)[1])
    second = json.loads(_run_one(capsys, ["normalize"], out)[1])
    assert second.pop("node_correspondence") == {n["id"]: [n["id"]] for n in first["nodes"]}
    first.pop("node_correspondence")
    assert second == first


def test_old_normal_form_layout_exits_2_naming_ops(tmp_path, capsys):
    # normal-form files written before there was one layout carry each
    # transform's letter map under "transforms" and no "ops"
    d3, _ = netgraph.normalize_to_d3(*instances.bundled("two-to-one-diamond"))
    doc = _d3_doc(d3)
    del doc["ops"]
    doc["transforms"] = {v: [letter_to_str(x) for x in m] for v, m in d3.transforms.items()}
    path = _write_json(tmp_path, "old.json", doc)
    for command in _ALL_SIX:
        assert _run_one(capsys, command, path) == (
            2, "", "error: top level: missing field 'ops'\n"
        ), command


def test_compile_butterfly(capsys):
    assert main(["compile", "butterfly"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"] == "Z2xZ2"
    sink = doc["sinks"]["t1"]
    assert sink["alpha"] == "1/531441"
    assert sink["fidelity_floor"] == "797162/1594323"
    assert doc["ops"]["s1.f0"]["op"] == "ForkEFC"
    assert any("fork law" in n for n in doc["notes"])
    assert "sweep" not in doc


@pytest.mark.parametrize("command", [
    ["compile", "butterfly"],
    ["simulate", "two-to-one-diamond", "--mode", "oracle", "--inputs", "11"],
], ids=["compile", "simulate"])
def test_out_file_holds_exactly_what_stdout_gets(tmp_path, capsys, command):
    assert main(command) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main([*command, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_simulate_analytic_single_edge(capsys):
    assert main(["simulate", "single-edge"]) == 0
    doc = json.loads(capsys.readouterr().out)
    sink = doc["sinks"]["t"]
    assert sink["alpha"] == "1"
    assert sink["decoded"] == "00"
    assert sink["mixture"]["00"] == "1"
    assert sink["fidelity_tetra_input"] == "1"


def test_simulate_oracle_diamond(capsys):
    assert main(["simulate", "two-to-one-diamond", "--mode", "oracle", "--inputs", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"] == {"s": "11"}
    assert "d" in doc["fork_pairs"]
    assert len(doc["fork_pairs"]["d"]) == 16
    capsys.readouterr()
    assert main(["simulate", "two-to-one-diamond", "--inputs", "11"]) == 0
    analytic = json.loads(capsys.readouterr().out)
    assert (
        doc["sinks"]["t"]["fidelity_tetra_input"]
        == analytic["sinks"]["t"]["fidelity_tetra_input"]
    )


def test_simulate_oracle_prints_largest_factor(capsys):
    # 4 edges are live at once in sweep order (test_qsim), but with letter
    # inputs no factor of the sweep holds more than a fork's or a join's 2
    assert main(["simulate", "butterfly", "--mode", "oracle", "--inputs", "01,10"]) == 0
    assert json.loads(capsys.readouterr().out)["largest_factor"] == 2


def test_simulate_oracle_lists_forks_in_listing_order(tmp_path, capsys):
    # the sweep takes fork f0, behind transform x0, before fork f1; the
    # output lists forks by (depth, id) all the same
    net = make_network(
        nodes=[("s0", "source"), ("s1", "source"), ("x0", "internal"),
               ("f0", "internal"), ("f1", "internal")]
        + [(f"t{i}", "sink") for i in range(4)],
        edges=[("s0", "x0"), ("x0", "f0"), ("f0", "t0"), ("f0", "t1"),
               ("s1", "f1"), ("f1", "t2"), ("f1", "t3")],
        requirements={"t0": "s0", "t1": "s0", "t2": "s1", "t3": "s1"},
    )
    d3 = D3Network(net, {"x0": IDENTITY_MAP}, GroupKind.Z4)
    compiled = compile_protocol(d3)
    swept = [v for v in compiled.sweep_order if v in ("f0", "f1")]
    assert swept == ["f0", "f1"]
    path = _write_json(tmp_path, "forks.json", _d3_doc(d3))
    assert main(["simulate", path, "--mode", "oracle", "--inputs", "01,10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["fork_pairs"]) == [v for v in compiled.order if v in ("f0", "f1")]
    assert list(doc["fork_pairs"]) == ["f1", "f0"]


def test_simulate_montecarlo(capsys):
    assert main(
        ["simulate", "single-edge", "--mode", "montecarlo", "--trials", "2000", "--seed", "1"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    counts = doc["sinks"]["t"]["counts"]
    assert sum(counts.values()) == 2000
    assert doc["trials"] == 2000 and doc["seed"] == 1


@pytest.mark.parametrize("seed", ["0", "1", "3"])
def test_simulate_montecarlo_stderr_is_the_exact_mixtures(capsys, seed):
    # at these seeds both trials at some sink land on letters of one
    # fidelity, so the sample's own standard error would read 0 there
    args = ["simulate", "butterfly", "--mode", "montecarlo", "--inputs", "01,10",
            "--trials", "2", "--seed", seed]
    assert main(args) == 0
    sinks = json.loads(capsys.readouterr().out)["sinks"]
    assert all(float(sink["stderr"]) > 0 for sink in sinks.values())


def test_simulate_bad_inputs(capsys):
    assert main(["simulate", "butterfly", "--inputs", "00"]) == 2
    assert "expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["report", "--trials", "0"]])
def test_empty_inputs_are_refused(capsys, command):
    # an empty --inputs names no letters; only a missing one means all 00
    assert main([command[0], "butterfly", "--inputs", "", *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: expected 2 comma-separated letters, got 0\n"
    assert captured.out == ""


def test_report_butterfly(capsys):
    assert main(["report", "butterfly", "--inputs", "01,10", "--trials", "20000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8  # two sinks, four checks each
    assert all(line.startswith("PASS") for line in lines)


def test_maps_of_no_paper_class_validate_compile_and_pass(tmp_path, capsys):
    # one Z4 source split into two paths, mapped by 00,01,00,00 (preimage
    # sizes 3 and 1) and 00,00,10,11 (2, 1 and 1) and summed at the sink,
    # which then holds the source's letter: each path gets a/(3k - (k - 1)a)
    # at incoming 1/9, k its map's largest preimage size, and the sink
    # their join's 1/79 * 1/53 / 9
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
    path = _write_json(tmp_path, "two-path.json", netgraph.instance_to_json(net, proto))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "ok: structure and delivery requirement verified\n"
    assert main(["compile", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sinks"]["t"]["alpha"] == "1/37683"
    assert [(doc["ops"][v]["op"], doc["ops"][v]["alpha"]) for v in "ab"] == [
        ("TransformMap", "1/79"), ("TransformMap", "1/53")
    ]
    compiled = compile_protocol(netgraph.normalize_to_d3(net, proto)[0])
    for x in range(4):
        assert main(["simulate", path, "--mode", "oracle", "--inputs", letter_to_str(x)]) == 0
        got = json.loads(capsys.readouterr().out)["sinks"]["t"]["mixture"]
        exact = qsim.simulate_analytic(compiled, [x]).sink_mixtures["t"]
        assert {z: Fraction(got.get(letter_to_str(z), 0)) for z in range(4)} == exact
        assert main(["report", path, "--inputs", letter_to_str(x), "--trials", "20000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and all(line.startswith("PASS ") for line in lines)


def test_report_passes_a_correct_program_at_few_trials(capsys):
    # the 3-standard-error gate takes its error from the exact mixture: a
    # sample's own error is 0 when every sampled letter has the same
    # fidelity, which failed every seed at 1 trial and 31 of 60 at 5
    failed = []
    for trials in (1, 2, 5, 10):
        for seed in range(60):
            args = ["report", "butterfly", "--inputs", "01,10",
                    "--trials", str(trials), "--seed", str(seed)]
            if main(args) != 0:
                failed.append((trials, seed))
    out = capsys.readouterr().out.splitlines()
    assert failed == []
    assert len(out) == 4 * 60 * 8 and all(line.startswith("PASS ") for line in out)


def test_report_fails_below_the_floor(swap_chain_path, capsys):
    # the exact sweep agrees with the analytic mixture, but the sink holds
    # the swapped letter
    assert main(["report", swap_chain_path]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "PASS t: exact sweep matches the compiled mixture",
        "FAIL t: fidelity 4/9 (floor 5/9)",
    ]


def test_an_instance_without_a_sink_exits_3_on_every_subcommand(tmp_path, capsys):
    # with no nodes, validate printed ok and report passed without a line
    doc = {"group": "Z4", "nodes": [], "edges": [], "requirements": [], "ops": {}}
    path = _write_json(tmp_path, "empty.json", doc)
    for command in _ALL_SIX:
        code, out, err = _run_one(capsys, command, path)
        assert (code, out) == (3, "violation: network has no sink\n"), command
        assert "is not a valid network" in err, command


def _claims(capsys, args, field):
    """The field of each sink that `args` prints, none if it exits non-zero."""
    code = main(args)
    out = capsys.readouterr().out
    return [] if code else [sink.get(field) for sink in json.loads(out)["sinks"].values()]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
def test_sinks_that_do_not_deliver_get_no_floor(tmp_path, capsys):
    # the butterfly with t1 needing s2 and t2 needing s1 fails delivery:
    # validate exits 3, yet compile and simulate printed the floor
    # 797162/1594323 and report --inputs 00,00 passed
    doc = instances.read_json("butterfly")
    for req in doc["requirements"]:
        req["source"] = {"s1": "s2", "s2": "s1"}[req["source"]]
    path = _write_json(tmp_path, "swapped.json", doc)
    assert main(["validate", path]) == 3
    capsys.readouterr()
    assert not any(_claims(capsys, ["compile", path], "fidelity_floor"))
    assert not any(_claims(capsys, ["simulate", path, "--inputs", "01,10"], "fidelity_floor"))
    for x, y in itertools.product(("00", "01", "10", "11"), repeat=2):
        assert main(["report", path, "--inputs", f"{x},{y}"]) == 1, (x, y)
        capsys.readouterr()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
def test_compile_claims_no_fidelity_for_a_sink_that_does_not_deliver(tmp_path, capsys):
    # single-edge whose sink decodes nothing delivers 00 on every input:
    # compile printed fidelity_tetra_input 1 from its own 1/2 + a/2, where
    # simulate --inputs 01 gives 1/3
    doc = instances.read_json("single-edge")
    doc["ops"] = {"t": [{"out": 0, "terms": []}]}
    path = _write_json(tmp_path, "decodes-nothing.json", doc)
    for field in ("fidelity_tetra_input", "fidelity_floor"):
        assert not any(_claims(capsys, ["compile", path], field)), field


@pytest.mark.parametrize(
    "args, flag",
    [
        (["simulate", "single-edge", "--trials", "0"], "--trials"),
        (["simulate", "single-edge", "--trials", "many"], "--trials"),
        (["report", "single-edge", "--trials", "-1"], "--trials"),
        (["simulate", "single-edge", "--seed", "-1"], "--seed"),
        (["report", "single-edge", "--seed", "-1"], "--seed"),
    ],
)
def test_bad_counts_are_refused_by_name(capsys, args, flag):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_report_skips_montecarlo_by_default(capsys):
    assert main(["report", "two-to-one-diamond"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


def test_report_fails_on_bad_statistics(monkeypatch, capsys):
    monkeypatch.setattr(cli.qsim, "chi_square_statistic", lambda *a, **k: 1e9)
    assert main(["report", "single-edge", "--trials", "1000"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("command", ["validate", "report"])
def test_json_booleans_are_not_integers(tmp_path, capsys, command):
    # true and false would otherwise pass as the integers 1 and 0
    doc = netgraph.instance_to_json(*instances.bundled("butterfly"))
    op = doc["ops"]["s0"][0]
    op["out"] = False
    op["terms"][1]["in"] = True
    path = _write_json(tmp_path, "bools.json", doc)
    assert main([command, path]) == 2
    assert "unexpected type bool" in capsys.readouterr().err
