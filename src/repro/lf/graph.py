"""Logical forms as graphs: canonicalization and isomorphism.

§4.2 Associativity: "If predicates are associative, their logical form trees
(Figure 3) will be isomorphic.  sage detects associativity using a standard
graph isomorphism algorithm."  We flatten chains of associative predicates
(@Of, @And, @Or) into n-ary nodes and compare the results up to permutation
of commutative arguments.

Two equivalent implementations live here:

* the **canonical form** — grounded logical forms (Call/Const trees, the
  only kind the winnow stage ever sees) canonicalize in one pass over
  their interned structural ids (:mod:`repro.parsing.values`): flatten
  associative chains and sort commutative argument lists at the sid level,
  interning the canonical shape as a sid of its own.  Two forms are
  isomorphic **iff** their canonical sids are equal — for rooted trees,
  hereditary canonical labeling is exact, no hashing heuristics.  This is
  the hot path; it never imports networkx.
* the **VF2 oracle** — :func:`to_graph` + :func:`isomorphic` convert to
  labeled networkx DiGraphs and run the VF2 matcher, exactly as before.
  networkx is imported lazily inside these functions only, so the warm
  pipeline never pays the import; the oracle survives for the property
  tests and the corpus-wide replay of the legacy associativity filter in
  the test suite.

The string :func:`canonical_signature` (regrouping-invariant render) is
unchanged in output; for grounded forms it renders from the canonical sid
instead of rebuilding flattened terms.
"""

from __future__ import annotations

from ..ccg.semantics import Call, Const, Sem
from ..parsing.values import _KEY_OF, normalize, sid_of_key
from .predicates import ASSOCIATIVE_PREDICATES

# Associative AND commutative: argument order is semantically irrelevant.
COMMUTATIVE_PREDICATES = {"And", "Or"}


def flatten_associative(term: Sem) -> Sem:
    """Collapse nested chains of associative predicates into n-ary calls.

    ``@Of(@Of(a,b),c)`` and ``@Of(a,@Of(b,c))`` both become ``@Of(a,b,c)``,
    making the two Figure 3 readings identical.
    """
    if not isinstance(term, Call):
        return term
    flattened_args = [flatten_associative(arg) for arg in term.args]
    if term.pred in ASSOCIATIVE_PREDICATES:
        merged: list[Sem] = []
        for arg in flattened_args:
            if isinstance(arg, Call) and arg.pred == term.pred:
                merged.extend(arg.args)
            else:
                merged.append(arg)
        flattened_args = merged
    return Call(
        term.pred, tuple(flattened_args), trigger=term.trigger, flags=term.flags
    )


def to_graph(term: Sem):
    """Convert a logical form into a labeled DiGraph (Figure 3's trees).

    Internal nodes are predicates, leaves are constants; edges carry the
    argument position (dropped for associative predicates, where order does
    not matter).  networkx loads lazily — only oracle/test callers pay it.
    """
    import networkx as nx

    graph = nx.DiGraph()
    counter = [0]

    def add(node: Sem) -> int:
        node_id = counter[0]
        counter[0] += 1
        if isinstance(node, Call):
            graph.add_node(node_id, label=f"@{node.pred}")
            ordered = node.pred not in COMMUTATIVE_PREDICATES
            for position, arg in enumerate(node.args):
                child = add(arg)
                graph.add_edge(node_id, child, position=position if ordered else -1)
        elif isinstance(node, Const):
            graph.add_node(node_id, label=node.value)
        else:
            graph.add_node(node_id, label=str(node))
        return node_id

    add(term)
    return graph


def isomorphic(a: Sem, b: Sem) -> bool:
    """True when two LFs are equal up to associative regrouping.

    Flattens associative chains, then runs VF2 isomorphism over the labeled
    graphs (matching both node labels and argument positions).  This is the
    oracle the canonical form is property-tested against — the hot path
    uses :func:`canonical_sid` instead and never imports networkx.
    """
    import networkx as nx

    graph_a = to_graph(flatten_associative(a))
    graph_b = to_graph(flatten_associative(b))
    return nx.is_isomorphic(
        graph_a,
        graph_b,
        node_match=lambda n1, n2: n1["label"] == n2["label"],
        edge_match=lambda e1, e2: e1["position"] == e2["position"],
    )


# -- the canonical form over interned sids -------------------------------------
#
# Every grounded LF carries (or cheaply acquires) an interned structural id
# from the parser's hash-consing tables; its key decomposes the whole tree
# as nested ("@", pred, arg-sids) / ("c", value) tuples.  Canonicalization
# rewrites that key bottom-up — flatten same-predicate associative chains,
# sort commutative argument lists — and interns the result, so equality up
# to regrouping becomes integer equality.  Nothing here is memoized: LFs
# are small, and the winnow cache already stores each sentence's verdict.


def sid_for_term(term: Sem) -> tuple[int, bool]:
    """The interned ``(sid, grounded)`` of ``term``, normalizing on demand.

    Parser-produced forms carry their triple already (``_norm`` stamped by
    the fused normalizer); disk-decoded or hand-built forms pay one
    normalize walk, cached on the node for every later probe.
    """
    cached = term.__dict__.get("_norm")
    if cached is None:
        cached = normalize(term, {})
    return cached[1], cached[2]


def _canon_str(canon_sid: int) -> str:
    """Render a canonical sid as the legacy signature string."""
    key = _KEY_OF[canon_sid]
    tag = key[0]
    if tag == "c":
        return f"'{key[1]}'"
    if tag == "@":
        return f"@{key[1]}({','.join(_canon_str(a) for a in key[2])})"
    return key[1]  # "v" — ungrounded structures never canonicalize


def canon_of_sid(sid: int) -> int:
    """The canonical sid for ``sid`` (grounded structures only)."""
    key = _KEY_OF[sid]
    if key[0] != "@":
        return sid  # constants are their own canonical form
    pred = key[1]
    canon_args = [canon_of_sid(arg) for arg in key[2]]
    if pred in ASSOCIATIVE_PREDICATES:
        flat: list[int] = []
        for arg in canon_args:
            arg_key = _KEY_OF[arg]
            if arg_key[0] == "@" and arg_key[1] == pred:
                flat.extend(arg_key[2])
            else:
                flat.append(arg)
        canon_args = flat
    if pred in COMMUTATIVE_PREDICATES:
        # Sort by rendered string — the legacy commutative order — with
        # the sid as tiebreak so equal renders of distinct structures
        # still canonicalize permutation-invariantly.
        canon_args = sorted(canon_args, key=lambda a: (_canon_str(a), a))
    return sid_of_key(("@", pred, tuple(canon_args)))


def canonical_sid(term: Sem) -> int | None:
    """The canonical sid of ``term``, or None when it is not grounded.

    Two grounded forms have equal canonical sids **iff** they are
    :func:`isomorphic` — the equivalence the associativity check collapses.
    (Exactness assumes constant values with faithful string renders, true
    of every token-derived constant; the property suite locks agreement
    with the VF2 oracle.)
    """
    sid, grounded = sid_for_term(term)
    if not grounded:
        return None
    return canon_of_sid(sid)


def canonical_signature(term: Sem) -> str:
    """A string invariant under associative regrouping (exact for trees).

    Associative predicates' argument lists are flattened and commutative
    predicates' arguments sorted by their own canonical signatures, so any
    regrouping/reordering of an @And/@Of chain produces the same string.
    Grounded forms render from the canonical sid; anything with binders
    falls back to the term-level walk (same output either way).
    """
    sid, grounded = sid_for_term(term)
    if grounded:
        return _canon_str(canon_of_sid(sid))
    flat = flatten_associative(term)

    def render(node: Sem) -> str:
        if isinstance(node, Call):
            parts = [render(arg) for arg in node.args]
            if node.pred in COMMUTATIVE_PREDICATES:
                parts = sorted(parts)  # commutative: order irrelevant
            return f"@{node.pred}({','.join(parts)})"
        if isinstance(node, Const):
            return f"'{node.value}'"
        return str(node)

    return render(flat)
