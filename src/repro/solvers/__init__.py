"""Reference solvers for the hardness-reduction source problems."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.solvers.qbf": (
        "ExistsForall3SAT", "ExistsForallExists3SAT", "ForallExists3SAT",
        "random_exists_forall_3sat", "random_exists_forall_exists_3sat",
        "random_forall_exists_3sat"),
    "repro.solvers.sat": (
        "CNF", "dpll_satisfiable", "evaluate_cnf", "random_3sat"),
    "repro.solvers.tiling": (
        "TilingInstance", "random_tiling_instance", "solve_tiling",
        "verify_tiling"),
    "repro.solvers.twohead": ("TwoHeadDFA", "bounded_emptiness"),
})
