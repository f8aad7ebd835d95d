"""Command line front end.

Subcommands: validate, eval, normalize, compile, simulate, report.  An
instance argument is either a bundled name (see `qnc4 validate --list`) or
a path to a JSON file, in the general or the normal-form layout.

Exit codes: 0 success / all checks passed, 1 a simulation check failed,
2 unreadable input or bad arguments, 3 invalid network, 4 exact mode too
large.  Set QNC_LOG=debug (or info, ...) for progress logging.
"""

import argparse
import csv
import io
import json
import logging
import os
import sys
from fractions import Fraction
from importlib import resources

from .errors import CompileError, QncError, SchemaError, SizeError, ValidationError
from . import classical_eval, instances, netgraph, qsim
from .netgraph import letter_from_str, letter_to_str
from .qcompiler import compile_protocol, protocol_to_json

log = logging.getLogger("qnc4")


def _num(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def load_instance(name: str):
    """Resolve a bundled name or JSON path.

    Returns (net, proto, d3) where d3 is set when the file was already in
    normal form (net and proto are its views then).
    """
    if name in instances.BUNDLED:
        data = json.loads(
            resources.files("qnc4.data").joinpath(name + ".json").read_text()
        )
    else:
        if not os.path.exists(name):
            known = ", ".join(sorted(instances.BUNDLED))
            raise SchemaError(
                f"{name!r} is neither a file nor a bundled instance ({known})"
            )
        try:
            with open(name) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{name}: not valid JSON ({e})") from None
    if netgraph.is_d3_json(data):
        d3 = netgraph.d3_from_json(data)
        net, proto = d3.to_instance()
        return net, proto, d3
    net, proto = netgraph.instance_from_json(data)
    return net, proto, None


def _to_d3(net, proto, d3):
    if d3 is not None:
        return d3, {n.id: [n.id] for n in net.nodes}
    return netgraph.normalize_to_d3(net, proto)


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_inputs(raw: str, n: int) -> list:
    parts = [s.strip() for s in raw.split(",")] if raw else []
    if len(parts) != n:
        raise SchemaError(f"expected {n} comma-separated letters, got {len(parts)}")
    return [letter_from_str(s) for s in parts]


def _print_violations(net, proto, d3) -> bool:
    """Validate the loaded instance and print each violation; True if any."""
    report = (
        netgraph.validate_d3(d3) if d3 is not None else netgraph.validate_network(net, proto)
    )
    for v in report.violations:
        print(f"violation: {v}")
    return not report.ok


def cmd_validate(args) -> int:
    if args.list:
        for name in sorted(instances.BUNDLED):
            print(name)
        return 0
    net, proto, d3 = load_instance(args.instance)
    if _print_violations(net, proto, d3):
        return 3
    res = classical_eval.check_requirement(d3 if d3 is not None else net, proto)
    if not res.ok:
        print(f"delivery requirement fails on inputs {res.counterexample}")
        return 3
    print("ok: structure and delivery requirement verified")
    return 0


def cmd_eval(args) -> int:
    net, proto, d3 = load_instance(args.instance)
    if _print_violations(net, proto, d3):
        return 3
    table = classical_eval.truth_table(d3 if d3 is not None else net, proto)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(list(table.sources) + list(table.sinks))
    for ins, outs in sorted(table.rows.items()):
        w.writerow([letter_to_str(x) for x in ins] + [letter_to_str(y) for y in outs])
    _write(args, buf.getvalue())
    return 0


def cmd_normalize(args) -> int:
    net, proto, d3 = load_instance(args.instance)
    d3, corr = _to_d3(net, proto, d3)
    log.info("normal form has %d nodes", len(d3.network.nodes))
    doc = netgraph.d3_to_json(d3)
    doc["node_correspondence"] = corr
    _write(args, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_compile(args) -> int:
    net, proto, d3 = load_instance(args.instance)
    d3, _ = _to_d3(net, proto, d3)
    compiled = compile_protocol(d3)
    plan = compiled.sweep_plan
    doc = {
        "group": d3.group.value,
        "ops": protocol_to_json(compiled),
        "sinks": {
            t: {
                "alpha": _num(a),
                "fidelity_floor": _num(Fraction(1, 2) + a / 6),
                "fidelity_tetra_input": _num(Fraction(1, 2) + a / 2),
            }
            for t, a in compiled.sink_alphas.items()
        },
        "notes": list(compiled.notes),
        "sweep": {
            "peak_live": plan.peak_live,
            "peak_node": plan.peak_node,
            "predicted_branches": plan.predicted_branches,
        },
    }
    _write(args, json.dumps(doc, indent=2) + "\n")
    return 0


def _mixture_doc(mix) -> dict:
    return {letter_to_str(z): _num(p) for z, p in sorted(mix.items())}


def cmd_simulate(args) -> int:
    net, proto, d3 = load_instance(args.instance)
    d3, _ = _to_d3(net, proto, d3)
    compiled = compile_protocol(d3)
    srcs = d3.network.source_ids
    letters = _parse_inputs(args.inputs, len(srcs)) if args.inputs else [0] * len(srcs)
    doc = {"inputs": {s: letter_to_str(x) for s, x in zip(srcs, letters)}}
    if args.mode == "analytic":
        rep = qsim.simulate_analytic(compiled, letters)
        doc["sinks"] = {
            t: {
                "alpha": _num(rep.sink_alphas[t]),
                "decoded": letter_to_str(rep.decoded[t]),
                "mixture": _mixture_doc(rep.sink_mixtures[t]),
                "fidelity_floor": _num(rep.fidelity_floor[t]),
                "fidelity_tetra_input": _num(rep.fidelity_tetra[t]),
            }
            for t in d3.network.sink_ids
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
            for t in d3.network.sink_ids
        }
        doc["fork_pairs"] = {
            v: {
                letter_to_str(a) + letter_to_str(b): _num(p)
                for (a, b), p in sorted(res.fork_joints[v].items())
            }
            for v in compiled.order
            if v in res.fork_joints
        }
    else:
        res = qsim.simulate_montecarlo(compiled, letters, args.trials, seed=args.seed)
        doc["trials"] = args.trials
        doc["seed"] = args.seed
        doc["sinks"] = {}
        for t in d3.network.sink_ids:
            want = letters[srcs.index(net.requirements[t])]
            est, se = qsim.estimate_fidelity(res.sink_counts[t], res.trials, want)
            doc["sinks"][t] = {
                "counts": {
                    letter_to_str(z): int(res.sink_counts[t][z]) for z in range(4)
                },
                "fidelity_tetra_input": _num(est),
                "stderr": _num(se),
            }
    _write(args, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_report(args) -> int:
    """Cross-check the three simulation modes on one input tuple."""
    net, proto, d3 = load_instance(args.instance)
    d3, _ = _to_d3(net, proto, d3)
    compiled = compile_protocol(d3)
    srcs = d3.network.source_ids
    letters = _parse_inputs(args.inputs, len(srcs)) if args.inputs else [0] * len(srcs)
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

    for t in d3.network.sink_ids:
        exact = analytic.sink_mixtures[t]
        got = oracle.sink_mixtures[t]
        line(
            all(got.get(z, 0) == exact[z] for z in range(4)),
            f"{t}: exact sweep matches the compiled mixture",
        )
        want = letters[srcs.index(net.requirements[t])]
        fid = qsim.mixture_fidelity(got, want)
        line(
            fid == analytic.fidelity_tetra[t],
            f"{t}: fidelity {_num(fid)} (floor {_num(analytic.fidelity_floor[t])})",
        )
        if mc is not None:
            stat = qsim.chi_square_statistic(
                mc.sink_counts[t], [float(exact[z]) for z in range(4)]
            )
            # chi-square, 3 degrees of freedom, significance 0.001
            line(stat < 16.266, f"{t}: sampled letters fit the mixture (chi2 {stat:.2f})")
            est, se = qsim.estimate_fidelity(mc.sink_counts[t], mc.trials, want)
            target = float(analytic.fidelity_tetra[t])
            line(
                abs(est - target) <= max(3 * se, 1e-9),
                f"{t}: sampled fidelity {est:.6f} within 3 standard errors",
            )
    return 1 if failed else 0


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
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="cross-check all simulation modes")
    p.add_argument("instance")
    p.add_argument("--inputs")
    p.add_argument("--trials", type=int, default=0, help="0 skips Monte Carlo")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("QNC_LOG", "").upper()
    if level:
        logging.basicConfig(level=getattr(logging, level, logging.INFO))
    args = build_parser().parse_args(argv)
    if args.func is cmd_validate and not args.list and not args.instance:
        print("error: an instance is required (or use --list)", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (ValidationError, CompileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except QncError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
