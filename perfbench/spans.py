"""Spans around the calls into each zagrebmax module, recorded from the
benchmark's own code.

``Tracer.install`` replaces each target function by a wrapper in every
zagrebmax module that binds it (``from .sequences import is_graphic``
gives ``zagrebmax.oracle`` its own binding), and on the class for methods.
A span is (name, start, end, parent span, request id); spans stay in memory
until ``write``.  A span's self time is its duration minus the durations of
its direct children, which nest inside it on the single thread.

Functions called millions of times per request (``SimpleGraph.has_edge``,
``degrees``) are deliberately not wrapped: their wrapper would cost more
than the work it times.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "sequences", "constructor", "bicyclic", "graphs", "oracle")

# (module, attribute, span name); "Class.method" wraps the method on the class.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("sequences", "DegreeSequence.parse", "sequences.parse"),
    ("sequences", "is_graphic", "sequences.is_graphic"),
    ("sequences", "is_connected_realizable", "sequences.is_connected_realizable"),
    ("sequences", "classify", "sequences.classify"),
    ("sequences", "check_optimality_conditions", "sequences.check_optimality_conditions"),
    ("sequences", "majorization_compare", "sequences.majorization_compare"),
    ("sequences", "majorization_chain", "sequences.majorization_chain"),
    ("constructor", "construct_extremal", "constructor.construct_extremal"),
    ("constructor", "construct_extremal_bicyclic", "constructor.construct_extremal_bicyclic"),
    ("bicyclic", "bicyclic_max_m2", "bicyclic.bicyclic_max_m2"),
    ("graphs", "SimpleGraph.__init__", "graphs.SimpleGraph"),
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("graphs", "is_connected", "graphs.is_connected"),
    ("graphs", "second_zagreb", "graphs.second_zagreb"),
    ("graphs", "parse_edge_list", "graphs.parse_edge_list"),
    ("graphs", "degree_sequence_of", "graphs.degree_sequence_of"),
    ("oracle", "search_max_m2", "oracle.search_max_m2"),
    ("oracle", "enumerate_realizations", "oracle.enumerate_realizations"),
    ("oracle", "hill_climb", "oracle.hill_climb"),
    ("oracle", "apply_edge_swap", "oracle.apply_edge_swap"),
)


def _count(name: str, args, result) -> dict[str, int]:
    """Work counts read off a call's arguments and result."""
    if name == "sequences.is_graphic":
        return {"vertices": len(args[0]) if hasattr(args[0], "__len__") else 0}
    if name == "sequences.majorization_chain":
        return {"steps": len(result) - 1}
    if name == "oracle.search_max_m2":
        return {"realizations": getattr(result, "realization_count", 0)}
    if name == "oracle.hill_climb":
        return {"moves": len(result[1])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, request]
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid)
                    tracer.counts[name + ".yielded"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            for key, value in _count(name, args, result).items():
                tracer.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every target wherever a zagrebmax module binds it."""
        modules = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for mod_name, attr, span in TARGETS:
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(span, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(span, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds of inclusive time, and number of spans, per name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as fh:
            fh.write('{"fields":["name","start_s","end_s","parent","request"],"spans":[\n')
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                sep = "," if i + 1 < len(self.spans) else ""
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, req]) + sep + "\n")
            fh.write("]}\n")


def layer_metrics(tracer: Tracer, requests: list, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per pass, from the spans and counts."""
    st = tracer.self_times()
    inclusive, spans_of = tracer.totals()
    cnt = tracer.counts

    def ms(name: str) -> float:
        return st.get(name, 0.0) * 1000.0 / passes

    def calls(name: str) -> float:
        return spans_of.get(name, 0) / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # labeled graphs = canonical forms computed inside the enumerator
    names = [s[0] for s in tracer.spans]
    labeled = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == "graphs.canonical_form" and parent >= 0 and names[parent] == "oracle.enumerate_realizations"
    )
    tried = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == "oracle.apply_edge_swap" and parent >= 0 and names[parent] == "oracle.hill_climb"
    )
    bicyclic_requests = {i for i, r in enumerate(requests) if r.kind.startswith("bicyclic") or (
        r.kind == "certify" and sum(r.data[0]) // 2 - len(r.data[0]) == 1)}
    eg_on_bicyclic = sum(
        1 for name, _, _, _, req in tracer.spans if name == "sequences.is_graphic" and req in bicyclic_requests
    )
    m = {
        "cli.calls": (calls("cli.main"), "count"),
        "sequences.parse_ms": (ms("sequences.parse"), "ms"),
        "sequences.is_graphic.calls": (calls("sequences.is_graphic"), "count"),
        "sequences.is_graphic.ms": (ms("sequences.is_graphic"), "ms"),
        "sequences.is_graphic.vertices": (cnt["sequences.is_graphic.vertices"] / passes, "count"),
        "sequences.is_graphic.calls_per_request": (
            ratio(calls("sequences.is_graphic"), len(requests)), "count"),
        "sequences.is_graphic.calls_per_bicyclic_request": (
            ratio(eg_on_bicyclic / passes, len(bicyclic_requests)), "count"),
        "sequences.classify.ms": (ms("sequences.classify"), "ms"),
        "sequences.majorization_chain.ms": (ms("sequences.majorization_chain"), "ms"),
        "sequences.majorization_chain.steps": (cnt["sequences.majorization_chain.steps"] / passes, "count"),
        "constructor.construct_extremal.calls": (calls("constructor.construct_extremal"), "count"),
        "constructor.construct_extremal.ms": (ms("constructor.construct_extremal"), "ms"),
        "bicyclic.bicyclic_max_m2.calls": (calls("bicyclic.bicyclic_max_m2"), "count"),
        "bicyclic.bicyclic_max_m2.ms": (ms("bicyclic.bicyclic_max_m2"), "ms"),
        "graphs.SimpleGraph.calls": (calls("graphs.SimpleGraph"), "count"),
        "graphs.SimpleGraph.ms": (ms("graphs.SimpleGraph"), "ms"),
        "graphs.canonical_form.calls": (calls("graphs.canonical_form"), "count"),
        "graphs.canonical_form.ms": (ms("graphs.canonical_form"), "ms"),
        "graphs.is_connected.calls": (calls("graphs.is_connected"), "count"),
        "graphs.is_connected.ms": (ms("graphs.is_connected"), "ms"),
        "graphs.second_zagreb.ms": (ms("graphs.second_zagreb"), "ms"),
        "graphs.parse_edge_list.ms": (ms("graphs.parse_edge_list"), "ms"),
        "oracle.search_max_m2.calls": (calls("oracle.search_max_m2"), "count"),
        "oracle.search_max_m2.ms": (ms("oracle.search_max_m2"), "ms"),
        "oracle.search_max_m2.realizations": (cnt["oracle.search_max_m2.realizations"] / passes, "count"),
        "oracle.realizations_per_s": (
            ratio(cnt["oracle.search_max_m2.realizations"], inclusive.get("oracle.search_max_m2", 0.0)), "1/s"),
        "oracle.enumerate_realizations.ms": (ms("oracle.enumerate_realizations"), "ms"),
        "oracle.enumerate_realizations.labeled": (labeled / passes, "count"),
        "oracle.enumerate_realizations.yielded": (
            cnt["oracle.enumerate_realizations.yielded"] / passes, "count"),
        "oracle.iso_keep_ratio": (ratio(cnt["oracle.enumerate_realizations.yielded"], labeled), "ratio"),
        "oracle.hill_climb.calls": (calls("oracle.hill_climb"), "count"),
        "oracle.hill_climb.ms": (ms("oracle.hill_climb"), "ms"),
        "oracle.hill_climb.moves": (cnt["oracle.hill_climb.moves"] / passes, "count"),
        "oracle.apply_edge_swap.calls": (calls("oracle.apply_edge_swap"), "count"),
        "oracle.swap_accept_ratio": (ratio(cnt["oracle.hill_climb.moves"], tried), "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (
            sum(v for k, v in st.items() if k.startswith(layer + ".")) * 1000.0 / passes, "ms")
    return m
