"""Exact rational norms for Tsirelson-type sequence spaces.

Everything is computed over the rationals; no floats enter any norm
value.  The primal side evaluates the successive-block recursions
directly, the dual side solves one exact linear program over the
maximal patterns of a finitely generated norming set, and every
nontrivial answer carries a certificate that re-verifies by plain
arithmetic.
"""
from .core import (
    BlockPartition,
    BudgetExceededError,
    FinVec,
    IndeterminateComparisonError,
    IntervalScalar,
    PrecisionExhaustedError,
    TsinormError,
    VectorParseError,
    as_scalar,
    ell1_norm,
    enumerate_partitions,
    format_scalar,
    format_vector,
    pairing,
    parse_vector,
    restrict,
    scalar_to_decimal,
    sup_norm,
)
from .families import (
    CardinalityAtMost,
    ExplicitFinite,
    Level,
    MixedSpaceSpec,
    PRESETS,
    SchlumprechtWeight,
    Schreier1,
    is_admissible,
    schlumprecht_spec,
    schlumprecht_theta,
    spec_from_config,
    spec_to_config,
    tsirelson_spec,
)
from .lp import Constraint, LinearProgram, LpError, LpSolution, solve, verify_solution
from .primal import (
    PrimalCertificate,
    fj_norm,
    fj_norm_level,
    mixed_norm,
    verify_fj_certificate,
    verify_primal_certificate,
)
from .norming import (
    NormingFunctional,
    NormingSet,
    build_norming_set,
    export_norming_set,
    import_norming_set,
    norming_generators,
    raw_norming_generation,
    tau,
    verify_norming_functional,
)
from .dualnorm import (
    DualCertificate,
    FalsifierResult,
    FalsifierWitness,
    HullTerm,
    ImplicitEquationReport,
    RhoIterate,
    dual_norm,
    dual_norm_bounds,
    dual_norm_value,
    export_dual_certificate,
    falsify_ell1_variant,
    import_dual_certificate,
    rho_chain,
    rho_partition_upper,
    rho_with_splits_upper,
    sigma_ell1_variant,
    support_bipartitions,
    verify_dual_certificate,
    verify_implicit_equation,
)
from . import dualnorm as _dualnorm
from . import families as _families
from . import norming as _norming


def clear_caches() -> None:
    """Empty the package's four bounded caches: the maximal patterns per
    (space, support, budget), the dual values per (space, |x|, budget),
    the weight enclosures per (m, precision) and those of m's odd factors
    per (factor, precision).  No other state outlives a call."""
    _norming._maximal_patterns.cache_clear()
    _dualnorm._ball_value.cache_clear()
    _families._log2_enclosure.cache_clear()
    _families._log2_bits.cache_clear()


__all__ = [
    "BlockPartition", "BudgetExceededError", "FinVec",
    "IndeterminateComparisonError", "IntervalScalar",
    "PrecisionExhaustedError", "TsinormError", "VectorParseError",
    "as_scalar", "ell1_norm", "enumerate_partitions", "format_scalar",
    "format_vector", "pairing", "parse_vector", "restrict",
    "scalar_to_decimal", "sup_norm",
    "CardinalityAtMost", "ExplicitFinite", "Level", "MixedSpaceSpec",
    "PRESETS", "SchlumprechtWeight", "Schreier1", "is_admissible",
    "schlumprecht_spec", "schlumprecht_theta", "spec_from_config",
    "spec_to_config", "tsirelson_spec",
    "Constraint", "LinearProgram", "LpError", "LpSolution", "solve",
    "verify_solution",
    "PrimalCertificate", "fj_norm", "fj_norm_level", "mixed_norm",
    "verify_fj_certificate", "verify_primal_certificate",
    "NormingFunctional", "NormingSet", "build_norming_set",
    "export_norming_set", "import_norming_set", "norming_generators",
    "raw_norming_generation", "tau", "verify_norming_functional",
    "DualCertificate", "FalsifierResult", "FalsifierWitness", "HullTerm",
    "ImplicitEquationReport", "RhoIterate", "dual_norm",
    "dual_norm_bounds", "dual_norm_value", "export_dual_certificate",
    "falsify_ell1_variant", "import_dual_certificate", "rho_chain",
    "rho_partition_upper", "rho_with_splits_upper", "sigma_ell1_variant",
    "support_bipartitions", "verify_dual_certificate",
    "verify_implicit_equation",
    "clear_caches",
]
