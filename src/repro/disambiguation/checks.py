"""The five winnowing checks of §4.2.

Each check filters a sentence's logical-form set:

* **Type** — predicate argument types (allowlist; e.g. @Action's first
  argument must be a function name, @Is cannot assign to a constant).
* **Argument ordering** — order-sensitive predicates must take their
  arguments in source order (@If's condition must be the clause adjacent to
  the "if" token; @Is's target precedes its value).
* **Predicate ordering** — blocklisted nestings are removed (@Is may not
  appear beneath @Of: the "(A of B) is C" vs "A of (B is C)" case).
* **Distributivity** — when both the grouped "(A and B) is C" and the
  distributed "(A is C) and (B is C)" survive, keep the grouped form.
* **Associativity** — logical forms equal up to associative regrouping
  (Figure 3) collapse to one, by canonical-form membership.

Type, Argument Ordering, Predicate Ordering and Distributivity are plain
walks over each form's call list (:func:`~repro.ccg.semantics.calls_of`,
cached per node).  Associativity compares canonical forms, computed over
each grounded LF's interned sid (:mod:`repro.lf.graph`); that is exact
because regrouping is pure, provenance-free structure.  Spans, triggers
and flags are provenance, not part of a sid.  No check keeps a
process-global table: the winnow cache stores each sentence's result.

Each check has a content :meth:`~Check.fingerprint` that keys the
:class:`~repro.core.stages.WinnowStage` result cache.  Custom
:class:`~repro.lf.predicates.TypeRule` sets must give behaviorally
distinct rules distinct names — rule closures cannot be content-hashed,
so the fingerprint identifies them by ``(name, predicate)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha1

from ..ccg.semantics import Call, Sem, calls_of, span_of
from ..lf.graph import canon_of_sid, canonical_signature, sid_for_term
from ..lf.predicates import (
    LEFT_TO_RIGHT_PREDICATES,
    TRIGGER_ADJACENT_PREDICATES,
    ConstantClasses,
    TypeRule,
    default_type_rules,
    rules_by_predicate,
)
from .profile import PROFILE


def _calls(term: Sem) -> tuple[Call, ...]:
    """Profiled access to the per-node cached call list."""
    if "_calls" in term.__dict__:
        PROFILE.calls_cache_hits += 1
    else:
        PROFILE.calls_cache_misses += 1
    return calls_of(term)


def _span(term: Sem):
    """Profiled access to the per-node cached span."""
    if "_span" in term.__dict__:
        PROFILE.span_cache_hits += 1
    else:
        PROFILE.span_cache_misses += 1
    return span_of(term)


class Check:
    """Base winnowing check: filters a list of LFs."""

    name = "check"

    def filter(self, forms: list[Sem]) -> list[Sem]:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Content identity for winnow-cache keys.

        Configuration-free checks are identified by their class; checks
        with tunable rules override this with a content digest.
        """
        return type(self).__name__


class TypeCheck(Check):
    """Remove LFs with ill-typed predicate arguments."""

    name = "Type"

    def __init__(self, rules: list[TypeRule] | None = None,
                 classes: ConstantClasses | None = None) -> None:
        self.rules = rules if rules is not None else default_type_rules()
        self.classes = classes or ConstantClasses()
        self._by_predicate = rules_by_predicate(self.rules)
        self._fp = ""
        self._fp_generation = -1  # no digest yet

    def fingerprint(self) -> str:
        """Digest of the rule set and the *current* constant classes.

        ``ConstantClasses`` is mutable (``register``); its generation
        counter is checked on every call, so registering a class moves
        the winnow cache to a fresh key instead of serving stale verdicts.
        """
        generation = self.classes.generation
        if self._fp_generation != generation:
            payload = repr((
                "Type",
                tuple((rule.name, rule.predicate) for rule in self.rules),
                self.classes.fingerprint(),
            ))
            self._fp = sha1(payload.encode("utf-8")).hexdigest()
            self._fp_generation = generation
        return self._fp

    def well_typed(self, form: Sem) -> bool:
        for call in _calls(form):
            for rule in self._by_predicate.get(call.pred, ()):
                if not rule.check(call, self.classes):
                    return False
        return True

    def filter(self, forms: list[Sem]) -> list[Sem]:
        return [form for form in forms if self.well_typed(form)]


class ArgumentOrderingCheck(Check):
    """Remove LFs whose order-sensitive arguments violate source order.

    For trigger-adjacent predicates (@If, @AdvBefore, @Goal) the first
    argument must be the clause that immediately follows the trigger word.
    For left-to-right predicates (@Is, @Reach) the target's source span must
    begin before the value's.

    """

    name = "Argument Ordering"

    def ordered(self, form: Sem) -> bool:
        for call in _calls(form):
            if call.pred in TRIGGER_ADJACENT_PREDICATES:
                if not self._trigger_adjacent(call):
                    return False
            if call.pred in LEFT_TO_RIGHT_PREDICATES:
                if not self._left_to_right(call):
                    return False
        return True

    @staticmethod
    def _trigger_adjacent(call: Call) -> bool:
        """The first argument owns the tokens right of the trigger word.

        For "If A, B" (trigger sentence-initial) the condition A must start
        after the trigger and the consequent B must follow A.  For "B if A"
        (trailing trigger) A still follows the trigger while B sits wholly
        before it.  A violating LF has B's material between the trigger and
        A — the swapped-argument over-generation.
        """
        if call.trigger is None or len(call.args) < 2:
            return True
        first_span = _span(call.args[0])
        second_span = _span(call.args[1])
        if first_span is None or second_span is None:
            return True
        if first_span[0] <= call.trigger:
            return False  # the trigger's clause must follow the trigger
        return second_span[1] <= call.trigger or second_span[0] >= first_span[0]

    @staticmethod
    def _left_to_right(call: Call) -> bool:
        if len(call.args) < 2:
            return True
        left_span = _span(call.args[0])
        right_span = _span(call.args[1])
        if left_span is None or right_span is None:
            return True
        return left_span[0] < right_span[0]

    def filter(self, forms: list[Sem]) -> list[Sem]:
        return [form for form in forms if self.ordered(form)]


@dataclass(frozen=True)
class NestingRule:
    """``inner`` may not appear as a direct argument of ``outer``.

    ``position`` restricts the rule to one argument slot (None = any slot).
    ``transitive`` widens it to "anywhere beneath ``outer``".
    """

    outer: str
    inner: str
    position: int | None = None
    transitive: bool = False


# The blocklist: structural nestings RFC prose never means.
DEFAULT_ORDERING_BLOCKLIST: tuple[NestingRule, ...] = (
    # "(A of B) is C" is the only reading of "A of B is C" (§4.1).
    NestingRule("Of", "Is", transitive=True),
    # The checksum-range anchor scopes over the whole @Of chain (sentence H).
    NestingRule("Of", "StartsWith"),
    # ... and an assignment never nests inside the range expression.
    NestingRule("StartsWith", "Is", transitive=True),
    # A conditional cannot live inside a field path.
    NestingRule("Of", "If", transitive=True),
    # "A and B of C": of-attachment binds low ("A and (B of C)").
    NestingRule("Of", "And", position=0),
    # "A of B in C" / "A in B of C": prepositional attachment binds low.
    NestingRule("In", "Of", position=0),
    NestingRule("Of", "In", position=0),
    # "A and B from C": the source modifier scopes over the conjunction.
    NestingRule("And", "From"),
    # Advice attaches to its nearest clause, not over a whole conditional.
    NestingRule("AdvBefore", "If", position=1),
)


class PredicateOrderingCheck(Check):
    """Remove LFs containing blocklisted predicate nestings."""

    name = "Predicate Ordering"

    def __init__(self, blocklist: tuple[NestingRule, ...] = DEFAULT_ORDERING_BLOCKLIST):
        self.blocklist = blocklist
        payload = repr(("Nesting",) + tuple(
            (rule.outer, rule.inner, rule.position, rule.transitive)
            for rule in blocklist
        ))
        self._fp = sha1(payload.encode("utf-8")).hexdigest()

    def fingerprint(self) -> str:
        return self._fp

    def ordered(self, form: Sem) -> bool:
        return not any(self._violates(call) for call in _calls(form))

    def _violates(self, call: Call) -> bool:
        for rule in self.blocklist:
            if call.pred != rule.outer:
                continue
            for position, arg in enumerate(call.args):
                if rule.position is not None and position != rule.position:
                    continue
                if rule.transitive:
                    if any(sub.pred == rule.inner for sub in _calls(arg)):
                        return True
                elif isinstance(arg, Call) and arg.pred == rule.inner:
                    return True
        return False

    def filter(self, forms: list[Sem]) -> list[Sem]:
        return [form for form in forms if self.ordered(form)]


class DistributivityCheck(Check):
    """Prefer the non-distributed coordination reading.

    The chart flags LFs built from the distributed coordination rule; when
    any unflagged LF survives, all flagged ones are dropped (§4.2: "sage
    always selects the non-distributive logical form version").
    """

    name = "Distributivity"

    @staticmethod
    def _is_distributed(form: Sem) -> bool:
        return any("distributed" in call.flags for call in _calls(form))

    def filter(self, forms: list[Sem]) -> list[Sem]:
        non_distributed = [form for form in forms if not self._is_distributed(form)]
        return non_distributed if non_distributed else forms


class AssociativityCheck(Check):
    """Collapse LFs that differ only by associative regrouping.

    Equivalence-class membership is one canonical sid per form
    (:func:`repro.lf.graph.canonical_sid` — exact for these rooted trees),
    so the filter is a set probe per form instead of the O(n²) VF2 runs it
    replaced.  The test suite replays the legacy bucket-then-VF2 path over
    every bundled corpus and asserts agreement.
    """

    name = "Associativity"

    def filter(self, forms: list[Sem]) -> list[Sem]:
        if len(forms) <= 1:
            return list(forms)
        kept: list[Sem] = []
        seen: set = set()
        for form in forms:
            key = self._class_key(form)
            if key in seen:
                continue
            seen.add(key)
            kept.append(form)
        return kept

    @staticmethod
    def _class_key(form: Sem):
        sid, grounded = sid_for_term(form)
        if grounded:
            return canon_of_sid(sid)
        # Binder-bearing forms never reach the winnow pipeline; for them
        # the regrouping-invariant string is the same equivalence (non-Call
        # subtrees compare as leaf labels either way).
        return canonical_signature(form)


@dataclass
class CheckSuite:
    """The ordered battery of §4.2 checks (Figure 5's x-axis)."""

    type_check: TypeCheck
    argument_ordering: ArgumentOrderingCheck
    predicate_ordering: PredicateOrderingCheck
    distributivity: DistributivityCheck
    associativity: AssociativityCheck

    @classmethod
    def default(cls) -> "CheckSuite":
        return cls(
            type_check=TypeCheck(),
            argument_ordering=ArgumentOrderingCheck(),
            predicate_ordering=PredicateOrderingCheck(),
            distributivity=DistributivityCheck(),
            associativity=AssociativityCheck(),
        )

    def in_order(self) -> list[Check]:
        return [
            self.type_check,
            self.argument_ordering,
            self.predicate_ordering,
            self.distributivity,
            self.associativity,
        ]

    def fingerprint(self) -> str:
        """Content digest over every check's configuration, in order.

        Keys the :class:`~repro.core.stages.WinnowStage` result cache:
        editing any check's rules moves every sentence to a fresh slot.
        """
        payload = "|".join(check.fingerprint() for check in self.in_order())
        return sha1(payload.encode("utf-8")).hexdigest()
