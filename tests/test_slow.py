"""Opt-in tests at scale.  Each takes seconds, so they are skipped unless
the environment sets KERNELKIT_SLOW_TESTS=1:

    KERNELKIT_SLOW_TESTS=1 python -m pytest tests/test_slow.py
"""

import os

import pytest

from kernelkit import UndirectedGraph, is_kernel
from kernelkit.antiholes import verify_kernel_solvable
from kernelkit.redblue import (
    check_chain_conditions,
    generate_comparability_instance,
    generate_ssw_instance,
    solve_chain,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("KERNELKIT_SLOW_TESTS") != "1", reason="set KERNELKIT_SLOW_TESTS=1 to run"
)


@pytest.mark.parametrize(
    "generator, n",
    [(generate_ssw_instance, 1000), (generate_comparability_instance, 500)],
    ids=["ssw-1000", "comparability-500"],
)
def test_chain_solver_at_scale(generator, n):
    # every blue component is one vertex, so the solver's component
    # order closes a condensation of n elements
    cd = generator(0, n)
    assert check_chain_conditions(cd, first_only=True).satisfied
    trace = solve_chain(cd)
    assert is_kernel(cd.digraph, trace.result)
    assert trace.improve_steps <= n


@pytest.mark.parametrize("jobs", [1, 2])
def test_k6_general_sweep(jobs):
    # general mode tests K6's cliques of four to six vertices beside its
    # triangles, and at jobs 2 the tasks run on the worker pool
    k6 = UndirectedGraph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    verdict = verify_kernel_solvable(k6, mode="general", jobs=jobs)
    assert (verdict.verdict, verdict.orientations_examined) == ("solvable", 3781503)
