"""Command line front end.

Subcommands: validate, eval, normalize, compile, simulate, report.  An
instance argument is either a bundled name (see `qnc4 validate --list`) or
a path to a JSON file in the layout of `netgraph.instance_to_json`, which
is also the layout `normalize` writes.

Exit codes: 0 success / all checks passed, 1 a simulation check failed,
2 unreadable input or bad arguments, 3 invalid network, 4 too large for
the exact sweep or past the digit limit of exact numbers.  Set QNC_LOG
to a log level (debug, info, warning, error or critical, in any case) for
progress logging; any other value exits 2.

A run imports only what it uses: `logging` once QNC_LOG names a level,
`csv` for `eval` and numpy for Monte Carlo.  A bundled instance name and
a file path are read alike, with one `open`.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import QncError, SchemaError, SizeError, ValidationError
from . import classical_eval, instances, netgraph, qsim
from .netgraph import letter_from_str, letter_to_str
from .qcompiler import compile_protocol, protocol_to_json

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _num(x) -> str:
    """An exact number as its fraction, a float with every digit it needs."""
    return str(x) if isinstance(x, Fraction) else format(x, ".17g")


def load_instance(name: str):
    """Resolve, parse, validate and normalize a bundled name or JSON path.

    Returns (net, proto, d3, corr): the instance as given, its degree-3
    normal form and the node correspondence between them.  A file that
    `normalize` wrote is its own normal form, node for node and edge for
    edge, and corr maps each of its nodes to itself.  Raises SchemaError on
    unreadable input and ValidationError on any violation.
    """
    net, proto = netgraph.instance_from_json(instances.read_json(name))
    d3, corr = netgraph.normalize_to_d3(net, proto)
    return net, proto, d3, corr


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise SchemaError(f"{args.out}: cannot write ({e.strerror})") from None
    else:
        sys.stdout.write(text)


def _parse_inputs(raw: str, n: int) -> list:
    parts = [s.strip() for s in raw.split(",")] if raw else []
    if len(parts) != n:
        raise SchemaError(f"expected {n} comma-separated letters, got {len(parts)}")
    return [letter_from_str(s) for s in parts]


def cmd_validate(args) -> int:
    if args.list and args.instance:
        raise SchemaError(f"--list takes no instance, got {args.instance!r}")
    if args.list:
        for name in sorted(instances.BUNDLED):
            print(name)
        return 0
    if not args.instance:
        raise SchemaError("an instance is required (or use --list)")
    net, proto, _, _ = load_instance(args.instance)
    res = classical_eval.check_requirement(net, proto)
    if not res.ok:
        print(f"delivery requirement fails on inputs {res.counterexample}")
        return 3
    print("ok: structure and delivery requirement verified")
    return 0


def cmd_eval(args) -> int:
    net, proto, _, _ = load_instance(args.instance)
    table = classical_eval.truth_table(net, proto)
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(list(table.sources) + list(table.sinks))
    strs = tuple(map(letter_to_str, netgraph.LETTERS))
    # truth_table lists its rows in lexicographic order of the inputs
    w.writerows([strs[x] for x in ins + outs] for ins, outs in table.rows.items())
    _write(args, buf.getvalue())
    return 0


def cmd_normalize(args) -> int:
    _, _, d3, corr = load_instance(args.instance)
    # no handler can exist before logging is imported, and main imports it
    # once QNC_LOG names a level
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("qnc4").info("normal form has %d nodes", len(d3.network.nodes))
    doc = netgraph.instance_to_json(d3.network, d3.protocol)
    doc["node_correspondence"] = corr
    _write(args, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_compile(args) -> int:
    compiled = compile_protocol(load_instance(args.instance)[2])
    floor = qsim.simulate_analytic(compiled).fidelity_floor
    doc = {
        "group": compiled.d3.group.value,
        "ops": protocol_to_json(compiled),
        "sinks": {
            t: {
                "alpha": _num(a),
                "fidelity_floor": _num(floor[t]),
                "fidelity_tetra_input": _num(Fraction(1, 2) + a / 2),
            }
            for t, a in compiled.sink_alphas.items()
        },
        "notes": [str(note) for note in compiled.notes],
    }
    _write(args, json.dumps(doc, indent=2) + "\n")
    return 0


def _mixture_doc(mix) -> dict:
    return {letter_to_str(z): _num(p) for z, p in sorted(mix.items())}


def _sampled_stderr(mixture: dict, want, trials: int) -> float:
    """Standard error of a sampled tetra-input fidelity under the exact
    mixture on test, not the sample's own: that one is 0 whenever every
    sampled letter has the same fidelity, which is common at few trials.
    A trial scores 1/3 + 2/3 [letter == want], so its variance is
    (2/3)^2 hit (1 - hit)."""
    hit = mixture[want]
    return 2 / 3 * (float(hit * (1 - hit)) / trials) ** 0.5


def _compile_with_inputs(args):
    """The compiled instance, its source ids and the parsed input letters."""
    compiled = compile_protocol(load_instance(args.instance)[2])
    srcs = compiled.d3.network.source_ids
    letters = [0] * len(srcs) if args.inputs is None else _parse_inputs(args.inputs, len(srcs))
    return compiled, srcs, letters


def cmd_simulate(args) -> int:
    compiled, srcs, letters = _compile_with_inputs(args)
    net = compiled.d3.network
    doc = {"inputs": {s: letter_to_str(x) for s, x in zip(srcs, letters)}}
    if args.mode == "analytic":
        rep = qsim.simulate_analytic(compiled, letters)
        alphas = compiled.sink_alphas
        doc["sinks"] = {
            t: {
                "alpha": _num(alphas[t]),
                "decoded": letter_to_str(rep.decoded[t]),
                "mixture": _mixture_doc(rep.sink_mixtures[t]),
                "fidelity_floor": _num(rep.fidelity_floor[t]),
                "fidelity_tetra_input": _num(rep.fidelity_tetra[t]),
            }
            for t in net.sink_ids
        }
    elif args.mode == "oracle":
        res = qsim.simulate_oracle(compiled, letters)
        doc["sinks"] = {
            t: {
                "mixture": _mixture_doc(res.sink_mixtures[t]),
                "fidelity_tetra_input": _num(
                    qsim.mixture_fidelity(
                        res.sink_mixtures[t], letters[srcs.index(net.requirements[t])]
                    )
                ),
            }
            for t in net.sink_ids
        }
        doc["fork_pairs"] = {
            v: {
                "".join(map(letter_to_str, ys)): _num(p)
                for ys, p in sorted(res.fork_joints[v].items())
            }
            for v in compiled.order
            if v in res.fork_joints
        }
        doc["largest_factor"] = res.largest_factor
    else:
        exact = qsim.simulate_analytic(compiled, letters).sink_mixtures
        res = qsim.simulate_montecarlo(compiled, letters, args.trials, seed=args.seed)
        doc["trials"] = args.trials
        doc["seed"] = args.seed
        doc["sinks"] = {}
        for t in net.sink_ids:
            want = letters[srcs.index(net.requirements[t])]
            est, _ = qsim.estimate_fidelity(res.sink_counts[t], res.trials, want)
            doc["sinks"][t] = {
                "counts": {
                    letter_to_str(z): int(res.sink_counts[t][z]) for z in range(4)
                },
                "fidelity_tetra_input": _num(est),
                "stderr": _num(_sampled_stderr(exact[t], want, res.trials)),
            }
    _write(args, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_report(args) -> int:
    """Cross-check the three simulation modes on one input tuple."""
    compiled, srcs, letters = _compile_with_inputs(args)
    net = compiled.d3.network
    analytic = qsim.simulate_analytic(compiled, letters)
    oracle = qsim.simulate_oracle(compiled, letters)
    mc = (
        qsim.simulate_montecarlo(compiled, letters, args.trials, seed=args.seed)
        if args.trials
        else None
    )
    failed = False

    def line(ok: bool, what: str) -> None:
        nonlocal failed
        failed = failed or not ok
        print(("PASS " if ok else "FAIL ") + what)

    for t in net.sink_ids:
        exact = analytic.sink_mixtures[t]
        got = oracle.sink_mixtures[t]
        line(
            all(got.get(z, 0) == exact[z] for z in range(4)),
            f"{t}: exact sweep matches the compiled mixture",
        )
        want = letters[srcs.index(net.requirements[t])]
        fid = qsim.mixture_fidelity(got, want)
        floor = analytic.fidelity_floor[t]
        line(
            fid == analytic.fidelity_tetra[t] and fid > floor,
            f"{t}: fidelity {_num(fid)} (floor {_num(floor)})",
        )
        if mc is not None:
            stat = qsim.chi_square_statistic(
                mc.sink_counts[t], [float(exact[z]) for z in range(4)]
            )
            # chi-square, 3 degrees of freedom, significance 0.001
            line(stat < 16.266, f"{t}: sampled letters fit the mixture (chi2 {stat:.2f})")
            est, _ = qsim.estimate_fidelity(mc.sink_counts[t], mc.trials, want)
            se = _sampled_stderr(exact, want, mc.trials)
            target = float(analytic.fidelity_tetra[t])
            line(
                abs(est - target) <= max(3 * se, 1e-9),
                f"{t}: sampled fidelity {est:.6f} within 3 standard errors",
            )
    return 1 if failed else 0


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qnc4",
        description="Validate, normalize, compile and simulate letter networks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structure and delivery requirement")
    p.add_argument("instance", nargs="?", default="")
    p.add_argument("--list", action="store_true", help="list bundled instances")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="print the classical truth table as CSV")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("normalize", help="emit the normal form as JSON")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("compile", help="emit the compiled protocol as JSON")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run one input tuple through the protocol")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("analytic", "oracle", "montecarlo"), default="analytic")
    p.add_argument("--inputs", help="comma-separated letters, one per source")
    p.add_argument("--trials", type=_at_least(1), default=100_000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="cross-check all simulation modes")
    p.add_argument("instance")
    p.add_argument("--inputs")
    p.add_argument("--trials", type=_at_least(0), default=0, help="0 skips Monte Carlo")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("QNC_LOG", "")
    if level:
        # isascii: str.upper maps some other letters onto ASCII ones
        if not (level.isascii() and level.upper() in _LOG_LEVELS):
            print(
                f"error: QNC_LOG={level!r} is not a log level "
                f"(expected one of {', '.join(_LOG_LEVELS)}, in any case)",
                file=sys.stderr,
            )
            return 2
        import logging

        logging.basicConfig(level=getattr(logging, level.upper()))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValidationError as e:
        for v in e.report.violations:
            print(f"violation: {v}")
        print(f"error: {args.instance} is not a valid network", file=sys.stderr)
        return 3
    except QncError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
