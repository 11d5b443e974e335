"""Predicate registry, constant classes, and the type system.

The disambiguation type check (§4.2: "Type. For each predicate, sage defines
one or more type checks: action predicates have function name arguments,
assignments cannot have constants on the left hand side, conditionals must
be well-formed, and so on") needs to know what kind of thing every constant
is.  Constants are classed (FIELD, VALUE, MESSAGE, FUNCTION, OPERATION,
STATEVAR, CONCEPT) and each predicate registers argument-type rules; the
paper reports 32 such checks for ICMP and we keep a comparable, enumerable
registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..ccg.semantics import Call, Const, Sem

# -- constant classes ---------------------------------------------------------

VALUE = "value"
FIELD = "field"
MESSAGE = "message"
FUNCTION = "function"
OPERATION = "operation"
STATEVAR = "statevar"
CONCEPT = "concept"
CLAUSE = "clause"  # class of statement-level Calls
EXPR = "expr"  # class of expression-level Calls

_FIELD_CONSTANTS = {
    "checksum", "checksum_field", "code", "code_field", "type", "type_field",
    "type_code", "identifier", "identifier_field", "sequence_number",
    "sequence number", "pointer", "pointer_field", "gateway_address",
    "gateway_internet_address", "source_address", "destination_address",
    "source", "destination", "destination_addresses", "source_addresses",
    "address", "addresses", "type_of_service", "time_to_live", "ttl",
    "internet_header", "total_length", "unused", "unused_field",
    "originate_timestamp", "receive_timestamp", "transmit_timestamp",
    "timestamp", "group_address", "version", "version_field", "stratum",
    "poll", "precision", "leap_indicator", "mode", "mode_field",
    "my_discriminator", "your_discriminator", "your_discriminator_field",
    "my_discriminator_field", "detect_mult", "ip_header", "icmp_header",
    "icmp_checksum", "ip_checksum", "header_checksum", "data", "data_field",
    "icmp_type", "parameter", "peer_timer", "timer", "timer_threshold",
    "timer_threshold_variable", "peer_timer_threshold", "source_network",
    "internet_destination_network_field", "address_mask",
}

_MESSAGE_CONSTANTS = {
    "echo", "echos", "echo_message", "echo_reply", "echo_reply_message",
    "reply", "replies", "reply_message", "request", "request_message",
    "message", "icmp_message", "igmp_message", "ntp_message",
    "destination_unreachable_message", "time_exceeded_message",
    "parameter_problem_message", "source_quench_message", "redirect_message",
    "timestamp_message", "timestamp_reply_message", "information_reply",
    "information_reply_message", "information_request",
    "information_request_message", "timestamps", "timestamp_reply",
    "datagram", "original_datagram", "packet", "bfd_packet",
    "control_packet", "bfd_control_packet", "host_membership_query",
    "host_membership_report", "query", "query_message", "report",
    "udp_datagram", "segment", "bfd_control_packets",
}

_FUNCTION_CONSTANTS = {
    "compute", "recompute", "reverse", "return", "send", "discard", "form",
    "detect", "zero", "select", "find", "cease", "join", "report", "respond",
    "ignore", "update", "take", "increment", "decrement", "match", "copy",
    "pad",
}

_OPERATION_CONSTANTS = {
    "16_bit_ones_complement", "ones_complement", "ones_complement_sum",
    "one's complement", "one's complement sum", "incremental_update",
}

# Statement-level predicates (full clauses) vs expression-level predicates.
STATEMENT_PREDICATES = {
    "Is", "Action", "If", "May", "Goal", "AdvBefore", "Reach", "CalledIn",
    "ActiveOn", "EncapsulatedIn", "AdvComment",
}
EXPRESSION_PREDICATES = {
    "Of", "In", "From", "For", "With", "StartsWith", "And", "Or", "Not",
    "Where",
}

ASSOCIATIVE_PREDICATES = {"Of", "And", "Or"}

# Predicates whose argument order is meaningful and checkable from spans.
TRIGGER_ADJACENT_PREDICATES = {"If", "AdvBefore", "Goal"}
LEFT_TO_RIGHT_PREDICATES = {"Is", "Reach"}


class ConstantClasses:
    """Maps LF constants onto semantic classes; unknowns default to CONCEPT."""

    def __init__(self) -> None:
        self._classes: dict[str, str] = {}
        #: Bumped on every mutation so content fingerprints (and the winnow
        #: cache keys built from them) self-invalidate when a class
        #: registers.
        self.generation = 0
        for name in _FIELD_CONSTANTS:
            self._classes[name] = FIELD
        for name in _MESSAGE_CONSTANTS:
            self._classes[name] = MESSAGE
        for name in _FUNCTION_CONSTANTS:
            self._classes[name] = FUNCTION
        for name in _OPERATION_CONSTANTS:
            self._classes[name] = OPERATION

    def register(self, name: str, klass: str) -> None:
        self._classes[name] = klass
        self.generation += 1

    def fingerprint(self) -> str:
        """Content digest of the class map (cache key material)."""
        import hashlib

        payload = repr(sorted(self._classes.items()))
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def class_of(self, term: Sem) -> str:
        if isinstance(term, Const):
            value = term.value
            if value.replace(".", "").isdigit():
                return VALUE
            if value == "nonzero":
                return VALUE
            if "." in value:
                return STATEVAR
            return self._classes.get(value, CONCEPT)
        if isinstance(term, Call):
            if term.pred in STATEMENT_PREDICATES:
                return CLAUSE
            if term.pred in ("And", "Or") and term.args:
                inner = self.class_of(term.args[0])
                return inner if inner == CLAUSE else EXPR
            return EXPR
        return CONCEPT

    def group_of(self, term: Sem) -> str:
        """Coarse compatibility group used by the @And conjunct rule."""
        klass = self.class_of(term)
        if klass in (FIELD, CONCEPT, STATEVAR, OPERATION, EXPR):
            return "entity"
        if klass == MESSAGE:
            return "message"
        if klass == VALUE:
            return "value"
        if klass == CLAUSE:
            return "clause"
        return klass


# -- type rules ----------------------------------------------------------------


@dataclass(frozen=True)
class TypeRule:
    """One named type check over a predicate's arguments."""

    name: str
    predicate: str
    check: Callable[[Call, ConstantClasses], bool]  # True = well-typed


def _arg_class_in(position: int, allowed: frozenset[str]):
    def check(call: Call, classes: ConstantClasses) -> bool:
        if position >= len(call.args):
            return True
        return classes.class_of(call.args[position]) in allowed

    return check


def _arg_class_not_in(position: int, banned: frozenset[str]):
    def check(call: Call, classes: ConstantClasses) -> bool:
        if position >= len(call.args):
            return True
        return classes.class_of(call.args[position]) not in banned

    return check


def _arg_is_call(position: int):
    def check(call: Call, classes: ConstantClasses) -> bool:
        if position >= len(call.args):
            return True
        return isinstance(call.args[position], Call)

    return check


def _arity_between(low: int, high: int):
    def check(call: Call, classes: ConstantClasses) -> bool:
        return low <= len(call.args) <= high

    return check


def _and_groups_compatible(call: Call, classes: ConstantClasses) -> bool:
    groups = {classes.group_of(arg) for arg in call.args}
    return len(groups) <= 1


def default_type_rules() -> list[TypeRule]:
    """The type-check registry (the paper counts 32 for ICMP)."""
    rules: list[TypeRule] = []

    def rule(name: str, predicate: str, check) -> None:
        rules.append(TypeRule(name, predicate, check))

    # @Action: first argument is a function name; others are not functions.
    # Unknown verbs (CONCEPT class) are tolerated — they surface in
    # descriptive prose and are routed to the non-actionable bin by codegen;
    # what the check rejects is a *known non-function* (a field or value)
    # in function position, the Figure 2 LF1 error.
    rule("action-arg0-function", "Action",
         _arg_class_in(0, frozenset({FUNCTION, CONCEPT})))
    rule("action-arg1-not-function", "Action",
         _arg_class_not_in(1, frozenset({FUNCTION})))
    rule("action-arg2-not-function", "Action",
         _arg_class_not_in(2, frozenset({FUNCTION})))
    rule("action-arity", "Action", _arity_between(1, 3))

    # @Is: assignments cannot have constants (values) on the left-hand side,
    # nor bare function names on either side.
    rule("is-lhs-not-value", "Is", _arg_class_not_in(0, frozenset({VALUE})))
    rule("is-lhs-not-function", "Is", _arg_class_not_in(0, frozenset({FUNCTION})))
    rule("is-rhs-not-function", "Is", _arg_class_not_in(1, frozenset({FUNCTION})))
    rule("is-lhs-not-clause", "Is", _arg_class_not_in(0, frozenset({CLAUSE})))
    rule("is-rhs-not-clause", "Is", _arg_class_not_in(1, frozenset({CLAUSE})))
    rule("is-arity", "Is", _arity_between(2, 2))

    # @If: both branches must be well-formed clauses.
    rule("if-condition-is-clause", "If", _arg_is_call(0))
    rule("if-consequent-is-clause", "If", _arg_is_call(1))
    rule("if-arity", "If", _arity_between(2, 2))

    # @May wraps a clause.
    rule("may-wraps-clause", "May", _arg_is_call(0))

    # @Goal / @AdvBefore: both sides are clauses; the advice/goal side is an
    # action.
    rule("goal-goal-is-clause", "Goal", _arg_is_call(0))
    rule("goal-main-is-clause", "Goal", _arg_is_call(1))
    rule("advbefore-advice-is-clause", "AdvBefore", _arg_is_call(0))
    rule("advbefore-main-is-clause", "AdvBefore", _arg_is_call(1))

    # @Of: left side is a field/concept/operation, never a bare value or a
    # full clause.
    rule("of-lhs-not-value", "Of", _arg_class_not_in(0, frozenset({VALUE})))
    rule("of-lhs-not-clause", "Of", _arg_class_not_in(0, frozenset({CLAUSE})))
    rule("of-rhs-not-clause", "Of", _arg_class_not_in(1, frozenset({CLAUSE})))
    rule("of-rhs-not-function", "Of", _arg_class_not_in(1, frozenset({FUNCTION})))

    # @StartsWith: the range anchor is a field/concept, not a value.
    rule("startswith-anchor-not-value", "StartsWith",
         _arg_class_not_in(1, frozenset({VALUE, FUNCTION})))
    rule("startswith-subject-not-value", "StartsWith",
         _arg_class_not_in(0, frozenset({VALUE, FUNCTION})))

    # @And/@Or: conjuncts must be group-compatible (kills e.g. a field
    # coordinated with a message, or a clause coordinated with a constant).
    rule("and-groups-compatible", "And", _and_groups_compatible)
    rule("or-groups-compatible", "Or", _and_groups_compatible)

    # Prepositions: modifier sides are entities, not clauses or functions.
    for pred in ("In", "From", "For", "With"):
        rule(f"{pred.lower()}-lhs-not-function", pred,
             _arg_class_not_in(0, frozenset({FUNCTION})))
        rule(f"{pred.lower()}-rhs-not-function", pred,
             _arg_class_not_in(1, frozenset({FUNCTION})))

    # @Reach (NTP comparison): both sides are fields/state, not functions.
    rule("reach-lhs-entity", "Reach",
         _arg_class_not_in(0, frozenset({VALUE, FUNCTION})))
    rule("reach-rhs-not-function", "Reach",
         _arg_class_not_in(1, frozenset({FUNCTION})))

    # @Where: the relative clause is a clause.
    rule("where-clause-is-call", "Where", _arg_is_call(1))

    return rules


def rules_by_predicate(rules: list[TypeRule]) -> dict[str, list[TypeRule]]:
    grouped: dict[str, list[TypeRule]] = {}
    for type_rule in rules:
        grouped.setdefault(type_rule.predicate, []).append(type_rule)
    return grouped
