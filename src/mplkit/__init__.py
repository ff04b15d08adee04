"""mplkit: multiple-polylogarithm identities, generated and verified.

The package generates the depth-2 reduction identities (any Li_{k,l} in
terms of Li_{n-1,1} and Li_n at root-of-unity-twisted monomial arguments),
constructs exact preimages of tensor words under the iterated depth-graded
image map, and certifies everything numerically by truncated series with
closed-form tail bounds.
"""

from .coalgebra import (
    Combination,
    GeneratorCombination,
    GeneratorTerm,
    GroupElement,
    PolylogCombination,
    PolylogSymbol,
    TensorElement,
    cobracket_image,
    construct_preimage,
    distribution_contract,
    distribution_expand,
    root_sum_generator,
    verify_preimage,
)
from .reduction import (
    build_reduction_matrix,
    build_weighted_sum,
    coefficient_identity,
    reduce_li,
    weight4_fixture_identity,
)
from .symalg import (
    ArgMonomial,
    Composition,
    Expr,
    Identity,
    MPLFactor,
    Term,
    normalize,
    root_expand,
    stuffle_product,
)
from .verify import VerificationPlan, VerificationReport, sample_points, verify_identity

__version__ = "0.1.0"

# numeval's names, resolved on first use: importing numeval loads numpy
_NUMERIC = {
    "EvalRequest", "EvalResult", "choose_cutoff", "eval_expr",
    "eval_generating_series", "eval_li", "tail_bound",
}


def __getattr__(name: str):
    if name in _NUMERIC:
        from . import numeval

        return getattr(numeval, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArgMonomial",
    "Combination",
    "Composition",
    "EvalRequest",
    "EvalResult",
    "Expr",
    "GeneratorCombination",
    "GeneratorTerm",
    "GroupElement",
    "Identity",
    "MPLFactor",
    "PolylogCombination",
    "PolylogSymbol",
    "TensorElement",
    "Term",
    "VerificationPlan",
    "VerificationReport",
    "build_reduction_matrix",
    "build_weighted_sum",
    "choose_cutoff",
    "cobracket_image",
    "coefficient_identity",
    "construct_preimage",
    "distribution_contract",
    "distribution_expand",
    "eval_expr",
    "eval_generating_series",
    "eval_li",
    "normalize",
    "reduce_li",
    "root_expand",
    "root_sum_generator",
    "sample_points",
    "stuffle_product",
    "tail_bound",
    "verify_identity",
    "verify_preimage",
    "weight4_fixture_identity",
]
