"""Command-line frontend.

Commands: validate, construct, m2, bicyclic-max, oracle, improve,
majorize, sweep.  Each ``cmd_*`` returns ``(result, warnings)``, or ``None``
once it has written its own output.  ``main`` wraps them in the JSON report
``{command, inputs, result, warnings}`` on stdout (``--pretty`` renders an
indented view) and maps errors to exit codes: 0 success, 1 domain
rejection, 2 parse error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from itertools import combinations
from typing import Any, Optional

from . import bicyclic as bc
from . import constructor as ctor
from . import graphs as gr
from . import oracle as orc
from . import sequences as sq
from .errors import CapExceededError, DomainError, ParseError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def _emit(report: dict, pretty: bool) -> None:
    # edge tuples go out as they are: json writes a tuple as an array
    if pretty:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _digits(text: str) -> int:
    """``--cap``, ``--n`` and ``ZAGREBMAX_ORACLE_CAP``: a run of ASCII digits,
    like a graph-file field (no sign, underscore or whitespace)."""
    if not sq._is_digits(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a run of decimal digits")
    try:
        return int(text)
    except ValueError as exc:  # past CPython's digit limit for int()
        raise argparse.ArgumentTypeError(str(exc)) from None


def _excess_arg(text: str) -> int:
    """``sweep --excess``: an optional ``-`` followed by ASCII digits."""
    negative = text.startswith("-")
    try:
        value = _digits(text[1:] if negative else text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an optional '-' followed by decimal digits"
        ) from None
    return -value if negative else value


def _cap(args) -> int:
    """``--cap``, else ``ZAGREBMAX_ORACLE_CAP``, else the library default."""
    if args.cap is not None:
        return args.cap
    raw = os.environ.get("ZAGREBMAX_ORACLE_CAP")
    try:
        return orc.DEFAULT_CAP if raw is None else _digits(raw)
    except argparse.ArgumentTypeError:
        raise ParseError(f"ZAGREBMAX_ORACLE_CAP={raw!r} is not an integer") from None


def _read_graph(path: str) -> gr.SimpleGraph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return gr.parse_edge_list(text)


def cmd_validate(args) -> tuple[dict, list[str]]:
    seq = sq.DegreeSequence.parse(args.sequence)
    warnings = ["input was not non-increasing; sorted"] if seq.resorted else []
    graphic = sq.is_graphic(seq)
    realizable = sq.is_connected_realizable(seq)
    cls = dataclasses.asdict(sq.classify(seq)) if realizable else None
    rep = sq.check_optimality_conditions(seq)
    result = {
        "sequence": seq.to_text(),
        "graphic": graphic,
        "connected_realizable": realizable,
        "class": cls,
        "conditions": {
            "i": rep.holds_i,
            "ii": rep.holds_ii,
            "iii": rep.holds_iii,
            "iv": rep.holds_iv,
            "verdict": rep.verdict,
        },
    }
    return result, warnings


def cmd_construct(args) -> Optional[tuple[dict, list[str]]]:
    seq = sq.DegreeSequence.parse(args.sequence)
    trace = ctor.construct_extremal(seq)
    if args.format != "json":
        write = gr.serialize_edge_list if args.format == "edges" else gr.to_dot
        sys.stdout.write(write(trace.graph))
        if trace.warnings:
            print(json.dumps({"warnings": list(trace.warnings)}), file=sys.stderr)
        return None
    result = {
        "sequence": seq.to_text(),
        "n": trace.graph.n,
        "m": trace.graph.m,
        "edges": trace.graph.edges,
        "m2": gr.second_zagreb(trace.graph),
        "ordering": list(trace.ordering),
        "layers": list(trace.layers),
        "triangles": [list(t) for t in trace.triangles],
    }
    return result, list(trace.warnings)


def cmd_m2(args) -> tuple[dict, list[str]]:
    g = _read_graph(args.graph)
    result = {
        "n": g.n,
        "m": g.m,
        "m2": gr.second_zagreb(g),
        "degree_sequence": gr.degree_sequence_of(g).to_text(),
    }
    return result, []


def cmd_bicyclic_max(args) -> tuple[dict, list[str]]:
    seq = sq.DegreeSequence.parse(args.sequence)
    res = bc.bicyclic_max_m2(seq)
    result = {
        "sequence": seq.to_text(),
        "case": res.case_id,
        "value": res.value,
        "family": res.label(),
        "params": list(res.params),
        "edges": res.graph.edges,
    }
    return result, []


def cmd_oracle(args) -> tuple[dict, list[str]]:
    seq = sq.DegreeSequence.parse(args.sequence)
    cap = _cap(args)
    start = time.perf_counter()
    res = orc.search_max_m2(seq, cap=cap)
    elapsed = time.perf_counter() - start
    result = {
        "sequence": seq.to_text(),
        "max_m2": res.max_m2,
        "witness_edges": res.witness.edges,
        "nodes": res.nodes,
    }
    if not args.no_timing:
        result["elapsed_ms"] = round(elapsed * 1000.0, 3)
    return result, []


def cmd_improve(args) -> tuple[dict, list[str]]:
    g = _read_graph(args.graph)
    initial = gr.second_zagreb(g)
    final_graph, moves = orc.hill_climb(g)
    result = {
        "initial_m2": initial,
        "final_m2": gr.second_zagreb(final_graph),
        "moves": [
            {
                "removed": [[mv.v1, mv.u1], [mv.v2, mv.u2]],
                "added": [[mv.v1, mv.v2], [mv.u1, mv.u2]],
            }
            for mv in moves
        ],
        "edges": final_graph.edges,
    }
    return result, []


def cmd_majorize(args) -> tuple[dict, list[str]]:
    a = sq.DegreeSequence.parse(args.a)
    b = sq.DegreeSequence.parse(args.b)
    order = sq.majorization_compare(a, b)
    result: dict[str, Any] = {
        "a": a.to_text(),
        "b": b.to_text(),
        "order": order.value,
    }
    if args.chain:
        if order in (sq.MajorizationOrder.EQUAL, sq.MajorizationOrder.A_BELOW_B):
            chain = sq.majorization_chain(a, b)
            result["chain"] = [s.to_text() for s in chain]
            result["chain_length"] = len(chain)
        else:
            result["chain"] = None
    return result, []


def _max_for(seq: sq.DegreeSequence, excess: int, cap: int) -> tuple[int, str]:
    if excess == 1:
        return bc.bicyclic_max_m2(seq).value, "closed_form"
    return orc.search_max_m2(seq, cap=cap).max_m2, "oracle"


def cmd_sweep(args) -> tuple[dict, list[str]]:
    cap = _cap(args)
    if args.n > cap:
        raise CapExceededError(f"n = {args.n} exceeds the oracle cap {cap}")
    seqs = sq.connected_realizable_sequences(args.n, args.excess)
    rows = []
    maxima = {}
    for seq in seqs:
        value, method = _max_for(seq, args.excess, cap)
        maxima[seq.degrees] = value
        rows.append(
            {"sequence": seq.to_text(), "max_m2": value, "method": method}
        )
    result: dict[str, Any] = {
        "n": args.n,
        "excess": args.excess,
        "count": len(rows),
        "sequences": rows,
    }
    if args.verify_monotone:
        violations = []
        checked = 0
        for sa, sb in combinations(seqs, 2):
            order = sq.majorization_compare(sa, sb)
            if order == sq.MajorizationOrder.A_BELOW_B:
                lo, hi = sa, sb
            elif order == sq.MajorizationOrder.B_BELOW_A:
                lo, hi = sb, sa
            else:
                continue
            checked += 1
            vlo, vhi = maxima[lo.degrees], maxima[hi.degrees]
            if vlo >= vhi:
                violations.append(
                    {
                        "below": lo.to_text(),
                        "above": hi.to_text(),
                        "max_below": vlo,
                        "max_above": vhi,
                        "kind": "tie" if vlo == vhi else "decrease",
                    }
                )
        result["checked_pairs"] = checked
        result["violations"] = violations
    return result, []


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="zagrebmax",
        description="Extremal second-Zagreb-index graphs for degree sequences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="classify a degree sequence")
    p.add_argument("sequence", help='e.g. "4,4,3,3,2,1,1" or "4^5,1^8"')
    p.set_defaults(func=cmd_validate, inputs=("sequence",))

    p = sub.add_parser(
        "construct", parents=[common], help="build the layered candidate-extremal graph"
    )
    p.add_argument("sequence")
    p.add_argument("--format", choices=["edges", "dot", "json"], default="json")
    p.set_defaults(func=cmd_construct, inputs=("sequence",))

    p = sub.add_parser("m2", parents=[common], help="second Zagreb index of a graph file")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=cmd_m2, inputs=("graph",))

    p = sub.add_parser(
        "bicyclic-max", parents=[common], help="closed-form bicyclic maximum"
    )
    p.add_argument("sequence")
    p.set_defaults(func=cmd_bicyclic_max, inputs=("sequence",))

    p = sub.add_parser(
        "oracle", parents=[common], help="exact maximum by branch-and-bound search"
    )
    p.add_argument("sequence")
    p.add_argument("--cap", type=_digits, default=None, help="refuse n beyond this bound")
    p.add_argument(
        "--no-timing", action="store_true", help="omit timing for byte-identical output"
    )
    p.set_defaults(func=cmd_oracle, inputs=("sequence",))

    p = sub.add_parser("improve", parents=[common], help="hill-climb a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_improve, inputs=("graph",))

    p = sub.add_parser(
        "majorize", parents=[common], help="compare two sequences in dominance order"
    )
    p.add_argument("a", metavar="seq_a")
    p.add_argument("b", metavar="seq_b")
    p.add_argument("--chain", action="store_true", help="emit the unit-transfer chain")
    p.set_defaults(func=cmd_majorize, inputs=("a", "b"))

    p = sub.add_parser(
        "sweep", parents=[common], help="maxima for all sequences of given order/excess"
    )
    p.add_argument("--n", type=_digits, required=True)
    p.add_argument("--excess", type=_excess_arg, required=True)
    p.add_argument("--verify-monotone", action="store_true")
    p.add_argument("--cap", type=_digits, default=None)
    p.set_defaults(func=cmd_sweep, inputs=("n", "excess"))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except (ParseError, CapExceededError, DomainError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_DOMAIN
    if out is not None:
        result, warnings = out
        inputs = {key: getattr(args, key) for key in args.inputs}
        report = dict(
            command=args.command, inputs=inputs, result=result, warnings=warnings
        )
        _emit(report, args.pretty)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
