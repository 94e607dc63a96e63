"""The benchmark's traced run wraps kernelkit functions by module and
attribute name (`perfbench/spans.py`).  A target that no longer resolves
turns its per-layer metrics into "absent" instead of failing, so a rename
in the package is caught here.  The workloads also call kernelkit's
public names (`perfbench/workloads.py`), each checked here to resolve.
Both files are read as text; nothing is written under perfbench/."""

import ast
import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    # executed from its source text, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


_spans = _load_spans()
TARGETS = [(module, attr) for _, module, attr, _ in _spans.SPAN_TARGETS] + [
    (module, attr) for _, module, attr in _spans.COUNT_TARGETS
]
# the semi-kernel recursion API, deleted from the package with its
# spans still listed: their metrics read "absent" until the benchmark
# points them elsewhere
RETIRED = (
    ("kernelkit.oracle", "kernel_via_semikernel_recursion"),
    ("kernelkit.digraph", "Digraph.induced"),
    ("kernelkit.chords", "chord_semi_kernel_strategy"),
)
LIVE = [target for target in TARGETS if target not in RETIRED]


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, attr", LIVE, ids=[f"{m}.{a}" for m, a in LIVE])
def test_wrap_target_resolves(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module, attr", RETIRED, ids=[f"{m}.{a}" for m, a in RETIRED])
def test_retired_is_absent(module, attr):
    with pytest.raises(AttributeError):
        _resolve(module, attr)
    (name,) = [n for n, m, a, _ in _spans.SPAN_TARGETS if (m, a) == (module, attr)]
    tracer = _spans.Tracer()
    tracer.install()
    try:
        assert f"{module}.{attr}" in tracer.missing_spans[name]
    finally:
        tracer.uninstall()


def test_solve_path_enters_its_span_targets():
    # a refactor that goes around a target would zero its per-layer metric
    from kernelkit import redblue

    tracer = _spans.Tracer()
    tracer.install()
    try:
        # read through the module, so the call meets the installed wrapper
        redblue.solve_chain(redblue.generate_ssw_instance(0, 12))
    finally:
        tracer.uninstall()
    entered = {tracer.names[i] for i in tracer.name}
    assert entered >= {
        "redblue.solve",
        "redblue.check",
        "redblue.blue_order",
        "digraph.scc",
        "poset.build",
        "poset.compare",
    }


def test_sweeps_enter_their_span_targets():
    # the sweep-full and sweep-reduced calls: the C7-bar witness search,
    # whose witness is re-checked by brute force, and C9-bar up to symmetry
    from kernelkit import antiholes

    tracer = _spans.Tracer()
    tracer.install()
    try:
        antiholes.search_clique_acyclic_no_kernel(antiholes.gen_antihole(7)[0])
        antiholes.verify_kernel_solvable(antiholes.gen_antihole(9)[0], symmetry_reduction=True)
    finally:
        tracer.uninstall()
    entered = {tracer.names[i] for i in tracer.name}
    assert entered >= {
        "antiholes.sweep",
        "oracle.clique_table",
        "oracle.bruteforce",
        "oracle.exists",
    }


def test_sweep_oracle_is_bound_in_antiholes():
    # the traced run patches the name the sweep calls through
    import kernelkit.antiholes
    import kernelkit.oracle

    assert kernelkit.antiholes.kernel_exists_masks is kernelkit.oracle.kernel_exists_masks


WORKLOADS = SPANS.parent / "workloads.py"
# every `kk.<name>` the workloads read, from the source's syntax tree
KK_NAMES = sorted({
    node.attr
    for node in ast.walk(ast.parse(WORKLOADS.read_text()))
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kk"
})


@pytest.mark.parametrize("name", KK_NAMES)
def test_workload_name_resolves(name):
    import kernelkit

    assert hasattr(kernelkit, name)
