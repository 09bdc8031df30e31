"""monadlab: exact matrix constructions for instanton monads.

Build block data over the rationals or GF(p), form the square multiplication
matrix between symmetric-power bases, take exact determinants, and exercise
the syzygy that forces every orthogonal candidate to be singular.
"""

from .exact import (GF, QQ, ExactMatrix, Field, MatrixFormatError, format_matrix,
                    parse_field, parse_matrix)
from .gens import (GeneratorError, GeneratorReport, SearchSummary, TrialRow,
                   gen_isotropic_orthogonal, gen_special_symplectic,
                   isotropic_basis, random_sl, search_orthogonal, transform_monad)
from .invariant import (DEFECT_NONZERO, DEGENERATE, DET_ZERO_BY_SYZYGY,
                        OrthogonalVerdict, QMatrix, SyzygyMatrix, SyzygyReport,
                        build_q, build_syzygy, det_q, dimension_identity,
                        orthogonal_verdict, verify_syzygy)
from .monad import (ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL, MonadData,
                    Point, RankCounterexample, RankProbeVerdict,
                    canonical_j, chern_coefficients, defects_vanish, evaluate_a,
                    format_monad, max_rank_probe, parse_monad, quadratic_defect)
from .symcomb import (Monomial, QLayout, SymBasis, layout_csv, layout_table,
                      monomial_label, multiply_by_var, q_layout, sym_basis)

__version__ = "0.1.0"

__all__ = [
    "GF", "QQ", "ExactMatrix", "Field", "MatrixFormatError", "format_matrix",
    "parse_field", "parse_matrix",
    "GeneratorError", "GeneratorReport", "SearchSummary", "TrialRow",
    "gen_isotropic_orthogonal", "gen_special_symplectic", "isotropic_basis",
    "random_sl", "search_orthogonal", "transform_monad",
    "DEFECT_NONZERO", "DEGENERATE", "DET_ZERO_BY_SYZYGY", "OrthogonalVerdict",
    "QMatrix", "SyzygyMatrix", "SyzygyReport", "build_q", "build_syzygy",
    "det_q", "dimension_identity", "orthogonal_verdict", "verify_syzygy",
    "ORTHOGONAL_IDENTITY", "SYMPLECTIC_CANONICAL", "MonadData",
    "Point", "RankCounterexample", "RankProbeVerdict",
    "canonical_j", "chern_coefficients", "defects_vanish", "evaluate_a",
    "format_monad", "max_rank_probe", "parse_monad", "quadratic_defect",
    "Monomial", "QLayout", "SymBasis", "layout_csv", "layout_table",
    "monomial_label", "multiply_by_var", "q_layout", "sym_basis",
]
