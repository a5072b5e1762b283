"""Exact verification of negative-dependence properties of finite laws."""

from .distributions import (
    ConditioningEvent,
    FiniteJointDistribution,
    eq_event,
    from_json_dict,
    independent_copy,
    lower_event,
    make_pmf,
    permutation_distribution,
    product,
    to_json_dict,
    upper_event,
)
from .errors import (
    Caps,
    DimMismatch,
    EmptyIndexSet,
    EnumerationCapExceeded,
    GridTooLarge,
    ImplicationViolation,
    InternalConsistencyError,
    MassNotOne,
    NegdepError,
    NonpositiveProbability,
    SupportOutOfRange,
    UndefinedAtAtom,
    ZeroProbabilityEvent,
    default_caps,
)
from .checks import (
    AssociationWitness,
    AuditReport,
    CheckStats,
    ConjectureReport,
    ConjectureWitness,
    MonotonicityWitness,
    OrthantWitness,
    RegressionWitness,
    SupermodularWitness,
    Verdict,
    audit_implications,
    check_conjecture,
    check_na,
    check_nlod,
    check_nltd,
    check_nltd1,
    check_nod,
    check_nrd,
    check_nrd1,
    check_nrtd,
    check_nrtd1,
    check_nsmd,
    check_nuod,
    check_stoch_increasing,
    verify_witness,
)
from .maxflow import FlowNetwork, MaxFlowResult, max_flow
from .rationals import NEG_INF, POS_INF
from .simplex import OPTIMAL, UNBOUNDED, LinearProgram, SimplexResult, simplex_solve
from .stochorder import Coupling, StVerdict, st_leq, st_leq_coupling, st_leq_uppersets
from .supermodular import GridFunction, SupermodularVerdict, supermodular_leq
from .tournaments import (
    FixedDraw,
    KnockoutSpec,
    PairScoreLaw,
    RandomDraw,
    RoundRobinSpec,
    equal_strength,
    knockout_distribution,
    knockout_fixed_draw,
    knockout_random_draw,
    knockout_spec,
    model_spec_from_json,
    model_spec_to_json,
    pair_score_law,
    round_robin_distribution,
    round_robin_spec,
)
from .uppersets import UpperSet, count_upper_sets, enumerate_upper_sets

__version__ = "0.1.0"
