"""Command-line frontend.

Commands: validate, construct, m2, bicyclic-max, oracle, improve,
majorize, sweep.  ``main`` converts each input a subparser declares, in
order, and hands them to its ``cmd_*``, which returns ``(result, warnings)``
or ``None`` once it has written its own output.  ``main`` echoes each parsed
sequence in canonical form, wraps the result in the JSON report
``{command, inputs, result, warnings}`` on stdout (``--pretty`` renders an
indented view) and maps errors to exit codes: 0 success, 1 domain
rejection, 2 parse error, 3 resource cap.  ``run``, the process entry
point, adds 141 for a reader that closed stdout early.
"""

from __future__ import annotations

import argparse
import functools
import io
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
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a tool SIGPIPE ends


# json.dumps builds an encoder per call for any non-default option
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(report: dict, pretty: bool) -> None:
    # records and tuples go out as they are: json writes a tuple as an array
    if pretty:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_COMPACT.encode(report))


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
    n, edges = gr._edge_list_fields(text)
    # m2 and improve reject a vertex on no edge, which n > 2m + 1 forces;
    # refuse it before the graph's n degree counts are allocated
    if n > 2 * len(edges) + 1:
        raise DomainError(
            f"header n = {n}, m = {len(edges)}: n > 2m + 1 leaves a vertex on no edge"
        )
    return gr._edge_list_graph(n, edges)


def _convert(key: str, text):
    """A declared input as its command takes it; ``parse`` is looked up per call."""
    if key == "graph":
        return _read_graph(text)
    return sq.DegreeSequence.parse(text) if key in ("sequence", "a", "b") else text


def cmd_validate(args, seq) -> tuple[dict, list[str]]:
    warnings = ["input was not non-increasing; sorted"] if seq.resorted else []
    graphic = sq.is_graphic(seq)
    realizable = sq.is_connected_realizable(seq)
    # copied: bare vars() would hand out the record's own __dict__
    cls = dict(vars(sq.classify(seq))) if realizable else None
    rep = sq.check_optimality_conditions(seq)
    result = {
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


def cmd_construct(args, seq) -> Optional[tuple[dict, list[str]]]:
    trace = ctor.construct_extremal(seq)
    if args.format != "json":
        write = gr.serialize_edge_list if args.format == "edges" else gr.to_dot
        sys.stdout.write(write(trace.graph))
        if trace.warnings:
            print(json.dumps({"warnings": list(trace.warnings)}), file=sys.stderr)
        return None
    result = {
        "n": trace.graph.n,
        "m": trace.graph.m,
        "edges": trace.graph.edges,
        "m2": gr.second_zagreb(trace.graph),
        "ordering": trace.ordering,
        "layers": trace.layers,
        "triangles": trace.triangles,
    }
    return result, list(trace.warnings)


def cmd_m2(args, g) -> tuple[dict, list[str]]:
    result = {
        "n": g.n,
        "m": g.m,
        "m2": gr.second_zagreb(g),
        "degree_sequence": gr.degree_sequence_of(g).to_text(),
    }
    return result, []


def cmd_bicyclic_max(args, seq) -> tuple[dict, list[str]]:
    res = bc.bicyclic_max_m2(seq)
    result = {
        "case": res.case_id,
        "value": res.value,
        "family": res.label(),
        "params": res.params,
        "edges": res.graph.edges,
    }
    return result, []


def cmd_oracle(args, seq) -> tuple[dict, list[str]]:
    cap = _cap(args)
    start = time.perf_counter()
    res = orc.search_max_m2(seq, cap=cap)
    elapsed = time.perf_counter() - start
    result = {
        "max_m2": res.max_m2,
        "witness_edges": res.witness.edges,
        "nodes": res.nodes,
    }
    if not args.no_timing:
        result["elapsed_ms"] = round(elapsed * 1000.0, 3)
    return result, []


def cmd_improve(args, g) -> tuple[dict, list[str]]:
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


def cmd_majorize(args, a, b) -> tuple[dict, list[str]]:
    order = sq.majorization_compare(a, b)
    result: dict[str, Any] = {"order": order.value}
    if args.chain:
        if order in (sq.MajorizationOrder.EQUAL, sq.MajorizationOrder.A_BELOW_B):
            chain = sq.majorization_chain(a, b)
            result["chain"] = [s.to_text() for s in chain]
            result["chain_length"] = len(chain)
        else:
            result["chain"] = None
    return result, []


def cmd_sweep(args, n, excess) -> tuple[dict, list[str]]:
    cap = _cap(args)
    if n > cap:
        raise CapExceededError(f"n = {n} exceeds the oracle cap {cap}")
    seqs = sq.connected_realizable_sequences(n, excess)
    if excess == 1:
        method = "closed_form"
        values = [bc.bicyclic_max_m2(seq).value for seq in seqs]
    else:
        method = "oracle"
        values = [orc.search_max_m2(seq, cap=cap).max_m2 for seq in seqs]
    result: dict[str, Any] = {
        "n": n,
        "excess": excess,
        "count": len(seqs),
        "sequences": [
            {"sequence": seq.to_text(), "max_m2": value, "method": method}
            for seq, value in zip(seqs, values)
        ],
    }
    if args.verify_monotone:
        violations = []
        checked = 0
        # seqs ascend lexicographically, so only lo can lie below hi
        for (lo, vlo), (hi, vhi) in combinations(zip(seqs, values), 2):
            if sq.majorization_compare(lo, hi) != sq.MajorizationOrder.A_BELOW_B:
                continue
            checked += 1
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
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser by name, built once
    per process; parsing leaves them unchanged."""
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
    commands = sub.choices
    for name, p in commands.items():
        p.set_defaults(command=name)
    return parser, commands


def main(argv: Optional[list[str]] = None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # a command named first is parsed by its subparser alone; anything else
    # (help, no or an unknown command, an option before the command) takes
    # the top-level parser
    sub = commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if sub is None else sub.parse_args(argv[1:])
    inputs = {key: getattr(args, key) for key in args.inputs}
    try:
        # in declared order, so majorize's a fails wholly before b is read
        values = {key: _convert(key, text) for key, text in inputs.items()}
        out = args.func(args, *values.values())
    except (ParseError, CapExceededError, DomainError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_DOMAIN
    if out is not None:
        result, warnings = out
        for key, value in values.items():
            if isinstance(value, sq.DegreeSequence):
                result[key] = value.to_text()
        report = dict(
            command=args.command, inputs=inputs, result=result, warnings=warnings
        )
        _emit(report, args.pretty)
    return EXIT_OK


def run() -> int:
    """``main`` on the process's own arguments, for the ``zagrebmax`` script
    and ``python -m zagrebmax``.

    Standard output is flushed inside the guard, so a reader that closes
    the pipe early (``| head``) ends the process with ``EXIT_PIPE`` and
    nothing on stderr, not a ``BrokenPipeError`` traceback. A standard
    output that is closed or unwritable at start ends it the same way,
    before anything is written. A closed or unwritable standard error loses
    its lines, never the exit code, and nothing meant for it goes to
    standard output."""

    def writable(fd: int, stream: Any) -> bool:
        # a zero-byte write fails on a closed or read-only descriptor and
        # returns 0 on any pipe, even one whose reader has gone
        try:
            os.write(fd, b"")
        except OSError:
            return False
        return stream is not None

    if not writable(1, sys.stdout):
        return EXIT_PIPE
    if not writable(2, sys.stderr):
        # print(file=None) would write to stdout
        sys.stderr = open(os.devnull, "w")
    out = sys.stdout
    # one stack in every mode: under PYTHONUNBUFFERED the text layer would
    # write to the raw file and drop what a short write leaves, while a
    # BufferedWriter retries it, and the retry on a closed pipe raises
    # BrokenPipeError
    sys.stdout = io.TextIOWrapper(
        io.BufferedWriter(io.FileIO(1, "w", closefd=False)),
        encoding=out.encoding,
        errors=out.errors,
        newline="\n",
        line_buffering=out.line_buffering,
    )
    try:
        try:
            return main()
        finally:
            # on every way out, argparse's SystemExit after --help included
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush reach
        # /dev/null instead of the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(run())
