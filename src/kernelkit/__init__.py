"""Kernel toolkit: solvers, checkers, oracles and exhaustive orientation
search for digraph kernels."""

from .digraph import (
    ArcColor,
    ColoredDigraph,
    Digraph,
    EdgeDirection,
    Orientation,
    SccResult,
    UndirectedGraph,
    VertexSet,
    enumerate_directed_cycles,
    is_independent,
    is_kernel,
    is_semi_kernel,
    strongly_connected_components,
)
from .errors import (
    BoundsError,
    BudgetExceededError,
    ConditionsViolatedError,
    ContractError,
    GraphParseError,
    InternalInvariantError,
    KernelKitError,
    SemiKernelRecursionError,
    SizeCapError,
)
from .oracle import (
    KernelReport,
    PredicateReport,
    enumerate_kernels,
    find_kernel_bruteforce,
    find_nonempty_semi_kernel,
    is_M_clique_acyclic,
    is_clique_acyclic,
    kernel_via_semikernel_recursion,
)
from .poset import (
    Comparison,
    Poset,
    compare_antichains,
    max_chain_of_antichains,
)
from .redblue import (
    AntichainPotential,
    ConditionReport,
    SolveTrace,
    check_chain_conditions,
    check_path_conditions,
    find_initial_independent,
    generate_chain_instance,
    generate_comparability_instance,
    generate_path_instance,
    generate_ssw_instance,
    improve_step,
    solve_chain,
    solve_fixpoint,
)
from .chords import (
    Chord,
    ChordConditionReport,
    alternating_path_semi_kernel,
    are_crossing,
    are_nested,
    check_chord_conditions,
    check_duchet_condition,
    check_gsnl_condition,
    classify_chord,
    find_kernel_via_chords,
)
from .antiholes import (
    AntiholeLabeling,
    SearchOutcome,
    SolvabilityVerdict,
    c7_counterexample,
    canonical_orientation_key,
    enumerate_simple_clique_acyclic_orientations,
    find_near_sink,
    gen_antihole,
    search_clique_acyclic_no_kernel,
    verify_kernel_solvable,
)

__version__ = "0.1.0"
