"""Exact symbolic workbench for quadratic Lie conformal algebras.

Builds Lie conformal algebras from finite Gel'fand-Dorfman bialgebras with
rational structure constants, proves the defining axioms as polynomial
identities in (∂, λ, μ), and computes central extensions, conformal
derivations and the induced 2-cocycles of the coefficient Lie algebra with
independently cross-checked solvers.
"""

from .algfile import (AlgebraFile, ParseError, emit_algebra, parse_algebra,
                      parse_algebra_file)
from .catalog import (CatalogEntry, catalog_build, catalog_names, entry_label,
                      standard_entries)
from .conformal import (QuadraticLCA, bracket_basis, bracket_general,
                        check_jacobi, check_skew)
from .derivations import (DerivationAnsatz, DerivationSpace,
                          HypothesisNotDetected, detect_unit_like,
                          inner_derivation, outer_dimension,
                          solve_derivations_direct, solve_derivations_theorem,
                          spaces_agree, verify_derivation)
from .extensions import (CocycleQuadruple, CocycleSpace, check_coeff_cocycle,
                         coeff_bracket, coeff_relation_consistency,
                         solve_extensions_direct,
                         solve_extensions_theorem, verify_cocycle)
from .gd import (GDBialgebra, GDValidationError, Violation, check_gd_compat,
                 check_lie, check_novikov, gd_build)
from .poly import (DEL, LAM, MU, FormalPoly, RatMatrix, nullspace_basis, rank,
                   solve, span_coordinates, span_rank, spans_equal)

__version__ = "0.1.0"

__all__ = [
    "AlgebraFile", "ParseError", "emit_algebra", "parse_algebra",
    "parse_algebra_file",
    "CatalogEntry", "catalog_build", "catalog_names", "entry_label",
    "standard_entries",
    "QuadraticLCA", "bracket_basis", "bracket_general", "check_jacobi",
    "check_skew",
    "DerivationAnsatz", "DerivationSpace", "HypothesisNotDetected",
    "detect_unit_like", "inner_derivation", "outer_dimension",
    "solve_derivations_direct", "solve_derivations_theorem", "spaces_agree",
    "verify_derivation",
    "CocycleQuadruple", "CocycleSpace", "check_coeff_cocycle",
    "coeff_bracket", "coeff_relation_consistency",
    "solve_extensions_direct", "solve_extensions_theorem", "verify_cocycle",
    "GDBialgebra", "GDValidationError", "Violation", "check_gd_compat",
    "check_lie", "check_novikov", "gd_build",
    "DEL", "LAM", "MU", "FormalPoly", "RatMatrix", "nullspace_basis",
    "rank", "solve", "span_coordinates", "span_rank", "spans_equal",
]
