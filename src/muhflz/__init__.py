"""muhflz: validity checking for higher-order fixpoint logic with integers.

Least-fixpoint formulas are soundly under-approximated by counter-guarded
greatest-fixpoint formulas; approximation parameters are refined
iteratively, and the resulting nu-only systems are discharged by a
built-in bounded-domain evaluator or an external solver.
"""

from .syntax import (
    Abs, And, App, Arrow, Equation, Exists, FALSE, Forall, Formula,
    Ge, Hes, INT, IntAbs, IntExpr, IntType, IntVar, Lit, Mu, Nu, Or, Plus,
    PROP, PropType, SimpleType, Times, TRUE, Var,
)
from .parser import ParseError, parse_formula, parse_hes
from .printer import PrintError, print_formula, print_hes
from .typecheck import TypeCheckError, typecheck
from .convert import IllFormed, formula_to_hes, hes_to_formula
from .eval import (
    BoundedResult, Domain, IterationCap, RangeEscape, Table,
    check_validity_bounded, evaluate,
)
from .tags import TagDerivation, TagInferenceError, TagInt, TagPred
from .transform import (
    AbsInIllegalPosition, ApproxParams, PartialMuApplication, dual_hes,
    dualize, desugar_quantifiers, eliminate_abs, eta_expand_mu_partials,
)
from .backend import (
    BackendSpec, BackendVerdict, Builtin, External, lower, solve,
)
from .driver import (
    VerdictReport, approximate, default_schedule, emit_report, prepare,
    report_from_json, verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
