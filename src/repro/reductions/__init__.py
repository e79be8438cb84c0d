"""Executable hardness reductions from the paper's lower-bound proofs."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.reductions.dfa_encodings": (
        "DFAEmptinessRCDPInstance", "FOSatisfiabilityRCDPInstance",
        "encode_word", "reduce_dfa_emptiness_to_rcdp",
        "reduce_fo_satisfiability_to_rcdp"),
    "repro.reductions.fo_to_rcqp": (
        "FORCQPInstance", "reduce_fo_satisfiability_to_rcqp"),
    "repro.reductions.qsat_to_rcdp": (
        "ForallExistsRCDPInstance", "reduce_forall_exists_3sat_to_rcdp"),
    "repro.reductions.qsat_to_rcqp_fixed": (
        "ExistsForallRCQPInstance", "reduce_exists_forall_3sat_to_rcqp"),
    "repro.reductions.sat_to_rcqp": ("SatRCQPInstance", "reduce_3sat_to_rcqp"),
    "repro.reductions.tiling_to_rcqp": (
        "TilingRCQPInstance", "reduce_tiling_to_rcqp"),
})
