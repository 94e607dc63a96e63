"""Span tracing from outside the package, for the benchmark's traced run.

`Tracer.install` wraps public kernelkit functions at module boundaries:
the wrapper replaces the function object in every loaded ``kernelkit*``
module that binds it, so calls through ``from .oracle import X`` and
through ``oracle.X`` are both seen.  Nothing in ``src/`` is edited, and
the timed run never installs a wrapper.

Spans (name, start, end, parent span, op id) live in flat arrays while
the run lasts and are written out once at its end.  A target that no
longer exists is recorded in `Tracer.absent` with the reason; the
metrics that need it are then reported as absent instead of crashing
the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter


def _odd_cycles(args, kwargs, result):
    return len(result) if kwargs.get("parity") == "odd" else 0


def _text_length(args, kwargs, result):
    # inputs are ASCII, so characters are bytes
    return len(args[0])


# (span name, module, attribute, counter).  Several targets may share a
# span name; its metrics then cover all of them.  A counter is
# (count name, function of the call's args, kwargs and result).
SPAN_TARGETS = [
    ("oracle.exists", "kernelkit.oracle", "kernel_exists_masks", None),
    ("oracle.bruteforce", "kernelkit.oracle", "find_kernel_bruteforce", None),
    ("oracle.semikernel_recursion", "kernelkit.oracle", "kernel_via_semikernel_recursion", None),
    # the per-prefix-task clique table has no public entry point
    ("oracle.clique_table", "kernelkit.antiholes", "_clique_completions", None),
    ("antiholes.sweep", "kernelkit.antiholes", "verify_kernel_solvable", None),
    ("antiholes.sweep", "kernelkit.antiholes", "search_clique_acyclic_no_kernel", None),
    ("redblue.gen_ssw", "kernelkit.redblue", "generate_ssw_instance", None),
    ("redblue.gen_comparability", "kernelkit.redblue", "generate_comparability_instance", None),
    ("redblue.gen_path", "kernelkit.redblue", "generate_path_instance", None),
    ("redblue.gen_chain", "kernelkit.redblue", "generate_chain_instance", None),
    ("redblue.check", "kernelkit.redblue", "check_chain_conditions", None),
    ("redblue.check", "kernelkit.redblue", "check_path_conditions", None),
    ("redblue.solve", "kernelkit.redblue", "solve_chain", None),
    ("redblue.solve", "kernelkit.redblue", "solve_fixpoint", None),
    ("redblue.blue_order", "kernelkit.redblue", "blue_component_order", None),
    ("poset.build", "kernelkit.poset", "Poset.__init__", None),
    ("poset.compare", "kernelkit.poset", "compare_antichains", None),
    ("digraph.scc", "kernelkit.digraph", "strongly_connected_components", None),
    ("digraph.is_kernel", "kernelkit.digraph", "is_kernel", None),
    ("digraph.cycles", "kernelkit.digraph", "enumerate_directed_cycles",
     ("digraph.odd_cycles", _odd_cycles)),
    ("digraph.induced", "kernelkit.digraph", "Digraph.induced", None),
    ("chords.check", "kernelkit.chords", "check_chord_conditions", None),
    ("chords.semi_kernel", "kernelkit.chords", "chord_semi_kernel_strategy", None),
    ("io.read", "kernelkit.io", "load_auto", ("io.bytes_read", _text_length)),
    ("io.write", "kernelkit.io", "to_json_obj", None),
    ("io.write", "kernelkit.io", "serialize", None),
]

# Generators are counted, not timed: a span around a lazy generator would
# close before its work is done.  Yields are keyed by the innermost open
# span, as "<name>@<span name>".
COUNT_TARGETS = [
    ("oracle.mis", "kernelkit.oracle", "maximal_independent_set_masks"),
]


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self.missing_spans: dict[str, str] = {}
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, counter in SPAN_TARGETS:
            self._patch(name, module, attr, lambda fn, n=name, c=counter: self._timed(n, c, fn))
        for name, module, attr in COUNT_TARGETS:
            self._patch(name, module, attr, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, name, module_name, attr, make_wrapper) -> None:
        target = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError) as exc:
            # keep the first reason when several targets share the name
            self.missing_spans.setdefault(name, f"wrap target {target} no longer exists ({exc})")
            return
        wrapper = make_wrapper(original)
        if owner is not module:
            # a method: the class attribute covers every caller
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("kernelkit"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def _timed(self, name, counter, fn):
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            key = f"{name}@{tracer.names[tracer.name[stack[-1]]] if stack else ''}"
            for item in fn(*args, **kwargs):
                tracer.counts[key] += 1
                yield item

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped CSV: id,name,start,end,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n"
                )


# -- span arithmetic -----------------------------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Duration minus the time covered by direct children.  Spans of one
    thread nest without overlapping, so the covered time is the sum of the
    children's durations."""
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def outermost(name, parent) -> list[bool]:
    """True for spans with no ancestor of the same name, so that summed
    durations count recursive calls once."""
    flags = []
    for i, p in enumerate(parent):
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        flags.append(p < 0)
    return flags


def summarize(tracer: Tracer, skip_ops=frozenset()) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed outermost duration (`total_s`) and
    summed self time (`self_s`), over spans outside `skip_ops`."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    outer = outermost(tracer.name, tracer.parent)
    table: dict[str, dict[str, float]] = {}
    for i in range(len(tracer.start)):
        if tracer.op[i] in skip_ops:
            continue
        row = table.setdefault(
            tracer.names[tracer.name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if outer[i]:
            row["total_s"] += tracer.end[i] - tracer.start[i]
    return table
