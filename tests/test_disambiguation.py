"""Tests for the §4.2 winnowing checks and the LF graph machinery."""

import pytest

from repro.ccg.semantics import Call, Const
from repro.disambiguation import (
    ArgumentOrderingCheck,
    AssociativityCheck,
    CheckSuite,
    DistributivityCheck,
    PredicateOrderingCheck,
    TypeCheck,
    isolated_effects,
    summarize,
    winnow,
)
from repro.lf import canonical_signature, flatten_associative, isomorphic, to_graph


def const(value, span=None):
    return Const(value, span=span)


def call(pred, *args, trigger=None, flags=frozenset()):
    return Call(pred, tuple(args), trigger=trigger, flags=flags)


class TestTypeCheck:
    def test_action_needs_function_name(self):
        check = TypeCheck()
        good = call("Action", const("compute"), const("checksum"))
        bad = call("Action", const("0"), const("compute"))
        assert check.filter([good, bad]) == [good]

    def test_is_rejects_value_lhs(self):
        check = TypeCheck()
        good = call("Is", const("checksum"), const("0"))
        bad = call("Is", const("0"), const("checksum"))
        assert check.filter([good, bad]) == [good]

    def test_and_group_compatibility(self):
        check = TypeCheck()
        fields = call("And", const("source"), const("destination"))
        mixed = call("And", const("identifier"), const("replies"))
        good = call("Is", fields, const("0"))
        bad = call("Is", mixed, const("0"))
        assert check.filter([good, bad]) == [good]

    def test_if_needs_clauses(self):
        check = TypeCheck()
        good = call("If", call("Is", const("code"), const("0")),
                    call("Action", const("discard"), const("datagram")))
        bad = call("If", const("code"), const("0"))
        assert check.filter([good, bad]) == [good]


class TestArgumentOrdering:
    def test_swapped_conditional_removed(self):
        check = ArgumentOrderingCheck()
        condition = call("Is", const("code", (1, 2)), const("0", (3, 4)))
        action = call("Is", const("type", (5, 6)), const("3", (7, 8)))
        good = call("If", condition, action, trigger=0)
        swapped = call("If", action, condition, trigger=0)
        assert check.filter([good, swapped]) == [good]

    def test_trailing_conditional_accepted(self):
        check = ArgumentOrderingCheck()
        condition = call("Is", const("timer", (5, 6)), const("64", (7, 8)))
        action = call("Action", const("call", (0, 1)), const("proc", (1, 2)))
        trailing = call("If", condition, action, trigger=4)
        assert check.filter([trailing]) == [trailing]

    def test_is_left_to_right(self):
        check = ArgumentOrderingCheck()
        good = call("Is", const("checksum", (0, 1)), const("0", (3, 4)))
        reverse = call("Is", const("0", (3, 4)), const("checksum", (0, 1)))
        assert check.filter([good, reverse]) == [good]


class TestPredicateOrdering:
    def test_is_under_of_removed(self):
        check = PredicateOrderingCheck()
        good = call("Is", call("Of", const("a"), const("b")), const("c"))
        bad = call("Of", const("a"), call("Is", const("b"), const("c")))
        assert check.filter([good, bad]) == [good]

    def test_positional_rule(self):
        check = PredicateOrderingCheck()
        # @Of with @And in position 0 is blocked; in position 1 allowed.
        blocked = call("Of", call("And", const("a"), const("b")), const("c"))
        allowed = call("And", const("a"), call("Of", const("b"), const("c")))
        assert check.filter([blocked, allowed]) == [allowed]


class TestDistributivity:
    def test_prefers_non_distributed(self):
        check = DistributivityCheck()
        grouped = call("Is", call("And", const("a"), const("b")), const("c"))
        distributed = call(
            "And",
            call("Is", const("a"), const("c")),
            call("Is", const("b"), const("c")),
            flags=frozenset({"distributed"}),
        )
        assert check.filter([grouped, distributed]) == [grouped]

    def test_keeps_distributed_when_alone(self):
        check = DistributivityCheck()
        distributed = call("And", const("a"), const("b"),
                           flags=frozenset({"distributed"}))
        assert check.filter([distributed]) == [distributed]


class TestAssociativity:
    def test_of_regroupings_collapse(self):
        check = AssociativityCheck()
        left = call("Of", call("Of", const("a"), const("b")), const("c"))
        right = call("Of", const("a"), call("Of", const("b"), const("c")))
        assert len(check.filter([left, right])) == 1

    def test_different_orders_do_not_collapse(self):
        check = AssociativityCheck()
        one = call("Of", const("a"), const("b"))
        other = call("Of", const("b"), const("a"))
        assert len(check.filter([one, other])) == 2

    def test_and_is_commutative(self):
        check = AssociativityCheck()
        one = call("And", const("a"), const("b"))
        other = call("And", const("b"), const("a"))
        assert len(check.filter([one, other])) == 1


class TestGraphs:
    def test_flatten_merges_chains(self):
        nested = call("Of", call("Of", const("a"), const("b")), const("c"))
        flat = flatten_associative(nested)
        assert len(flat.args) == 3

    def test_isomorphic_figure3(self):
        # The two Figure 3 readings of sentence H are isomorphic.
        one = call("Of", call("Of", const("ones"), const("sum")), const("msg"))
        two = call("Of", const("ones"), call("Of", const("sum"), const("msg")))
        assert isomorphic(one, two)

    def test_not_isomorphic_across_predicates(self):
        assert not isomorphic(
            call("Of", const("a"), const("b")), call("And", const("a"), const("b"))
        )

    def test_graph_shape(self):
        graph = to_graph(call("Is", const("a"), const("b")))
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2

    def test_canonical_signature_invariant(self):
        one = call("And", const("a"), call("And", const("b"), const("c")))
        two = call("And", call("And", const("c"), const("a")), const("b"))
        assert canonical_signature(one) == canonical_signature(two)


class TestMemoInvalidation:
    """Verdicts and cache keys must follow configuration changes.

    The winnow cache is keyed by each check's content fingerprint;
    mutating a check's configuration (registering a constant class) must
    move it to a fresh key, never serve a stale verdict.
    """

    def test_type_verdict_follows_class_registration(self):
        from repro.lf.predicates import FIELD

        check = TypeCheck()
        form = call("Action", const("frobnicate"), const("checksum"))
        # Unknown verbs class as CONCEPT, which @Action tolerates...
        assert check.well_typed(form)
        fp_before = check.fingerprint()
        # ...but registering the constant as a known non-function must
        # flip the verdict — a stale memo would keep saying True.
        check.classes.register("frobnicate", FIELD)
        assert check.fingerprint() != fp_before
        assert not check.well_typed(form)

    def test_suite_fingerprint_tracks_class_registration(self):
        from repro.lf.predicates import FUNCTION

        suite = CheckSuite.default()
        fp_before = suite.fingerprint()
        suite.type_check.classes.register("frobnicate", FUNCTION)
        assert suite.fingerprint() != fp_before

    def test_winnow_stage_cache_invalidates_on_suite_change(self):
        from types import SimpleNamespace

        from repro.core.stages import WinnowStage
        from repro.lf.predicates import FUNCTION
        from repro.rfc.registry import ParseCache

        stage = WinnowStage(cache=ParseCache())
        parsed = SimpleNamespace(
            spec=SimpleNamespace(field="checksum", text="the checksum is 0"),
            logical_forms=[call("Is", const("checksum", (0, 1)),
                                const("0", (2, 3)))],
        )
        first = stage.run(parsed)
        assert stage.run(parsed) is first  # served from the result cache
        key_before = stage.cache_key(parsed)
        stage.suite.type_check.classes.register("frobnicate", FUNCTION)
        assert stage.cache_key(parsed) != key_before
        assert stage.run(parsed) is not first  # stale entry unreachable


class TestCorpusAssociativityPairs:
    def test_canonical_matches_vf2_on_real_parse_ambiguity(self):
        """Canonical signatures agree with VF2 on the corpus's own LF
        pairs — the associativity regroupings Figure 3 is about, not just
        synthetic hypothesis terms."""
        from itertools import combinations

        from repro.rfc.registry import ProtocolRegistry

        registry = ProtocolRegistry()
        corpus = registry.load_corpus("ICMP")
        chunker = registry.chunker()
        parser = registry.parser()
        pairs = equivalent = 0
        for spec in corpus.sentences:
            forms = parser.parse(
                chunker.chunk_text(spec.text)).logical_forms[:12]
            for a, b in combinations(forms, 2):
                same_class = (canonical_signature(a)
                              == canonical_signature(b))
                assert same_class == isomorphic(a, b), spec.text
                pairs += 1
                equivalent += same_class
        assert pairs > 100  # the corpus is genuinely ambiguous
        assert equivalent > 0  # ...including real regrouping pairs


class TestVf2Reference:
    """The canonical-sid associativity filter keeps exactly the forms the
    legacy bucket-plus-VF2 filter (``tests/vf2_associativity.py``) keeps,
    on every bundled corpus: on each sentence's base forms (Figure 6's
    isolated run) and on the forms the earlier checks pass along."""

    def test_regrouping_pair_collapses_like_vf2(self):
        from vf2_associativity import filter_vf2

        left = call("Of", call("Of", const("a"), const("b")), const("c"))
        right = call("Of", const("a"), call("Of", const("b"), const("c")))
        other = call("And", const("x"), const("y"))
        forms = [left, right, other]
        kept = AssociativityCheck().filter(forms)
        assert kept == [left, other]
        assert [id(f) for f in filter_vf2(forms)] == [id(f) for f in kept]

    @pytest.mark.parametrize("protocol", ["ICMP", "IGMP", "NTP", "BFD"])
    def test_corpus_agrees_with_vf2(self, protocol):
        from vf2_associativity import filter_vf2

        from repro.rfc.registry import ProtocolRegistry

        registry = ProtocolRegistry()
        chunker = registry.chunker()
        parser = registry.parser()
        suite = CheckSuite.default()
        earlier = suite.in_order()[:-1]
        check = suite.associativity
        compared = collapsed = 0
        for spec in registry.load_corpus(protocol).sentences:
            base = parser.parse(chunker.chunk_text(spec.text)).logical_forms
            current = list(base)
            for step in earlier:  # winnow()'s non-annihilating order
                current = step.filter(current) or current
            for forms in (base, current):
                if len(forms) <= 1:
                    continue
                kept = check.filter(forms)
                assert ([id(f) for f in kept]
                        == [id(f) for f in filter_vf2(forms)]), spec.text
                compared += 1
                collapsed += len(kept) < len(forms)
        assert compared > 0
        if protocol == "ICMP":
            assert collapsed > 0  # real regroupings, not just singletons


class TestWinnowDriver:
    def test_trace_records_all_stages(self):
        forms = [call("Is", const("checksum", (0, 1)), const("0", (2, 3)))]
        trace = winnow("s", forms)
        assert trace.counts["Base"] == 1
        assert trace.final_count == 1
        assert "Type" in trace.counts
        assert "Final Selection" in trace.counts

    def test_checks_never_annihilate(self):
        # A set where every LF is ill-typed: the type check must not empty it.
        bad = call("Action", const("0"), const("1"))
        trace = winnow("s", [bad])
        assert trace.final_count == 1

    def test_summarize_monotone(self):
        forms = [
            call("Is", const("checksum", (0, 1)), const("0", (2, 3))),
            call("Is", const("0", (2, 3)), const("checksum", (0, 1))),
        ]
        summary = summarize([winnow("s", forms)])
        assert summary.max_counts[0] >= summary.max_counts[-1]

    def test_isolated_effects_shapes(self):
        forms = [
            call("Is", const("checksum", (0, 1)), const("0", (2, 3))),
            call("Is", const("0", (2, 3)), const("checksum", (0, 1))),
        ]
        effects = isolated_effects([("s", forms)])
        by_name = {e.check_name: e for e in effects}
        assert by_name["Argument Ordering"].affected_sentences == 1
        assert by_name["Type"].mean_removed >= 1
