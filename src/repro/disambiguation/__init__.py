"""The §4.2 disambiguation stage: checks, winnowing, and human resolutions."""

from .checks import (
    ArgumentOrderingCheck,
    AssociativityCheck,
    Check,
    CheckSuite,
    DistributivityCheck,
    NestingRule,
    PredicateOrderingCheck,
    TypeCheck,
)
from .profile import (
    profile_delta,
    profile_snapshot,
    reset_profile,
)
from .resolution import (
    RESOLUTION_KINDS,
    DecisionJournal,
    Resolution,
    ResolutionError,
    resolution_for_rewrite,
)
from .winnow import (
    IsolatedEffect,
    WinnowSummary,
    WinnowTrace,
    isolated_effects,
    summarize,
    winnow,
)

__all__ = [
    "ArgumentOrderingCheck",
    "AssociativityCheck",
    "Check",
    "CheckSuite",
    "DecisionJournal",
    "DistributivityCheck",
    "IsolatedEffect",
    "NestingRule",
    "PredicateOrderingCheck",
    "RESOLUTION_KINDS",
    "Resolution",
    "ResolutionError",
    "TypeCheck",
    "WinnowSummary",
    "WinnowTrace",
    "isolated_effects",
    "profile_delta",
    "profile_snapshot",
    "reset_profile",
    "resolution_for_rewrite",
    "summarize",
    "winnow",
]
