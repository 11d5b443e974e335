"""The ``spec_edit`` inputs and their independent oracle.

:func:`seeded_edits` models Figure 4's rewrite-and-rerun loop: a spec
author swaps one dictionary term of a corpus sentence for another and
reruns the pipeline.  Each edit keeps the sentence's protocol, message and
field context, so the program receives ordinary :class:`SpecSentence`
objects and nothing that names the benchmark.

The edits come from one fixed pool (:func:`edit_pool`), and the seed
chooses their order.  Runs with different seeds therefore do the same
work in a different order, and their costs compare: when each seed drew
its own 900 edits, the few pathological ones (about 1% of edits, 20 to
1000 times slower than the rest) moved edits per CPU second by 23% and
peak memory by 11% between seeds.  The pool is built in rounds.  Each
round visits every editable corpus sentence once, in a shuffled order,
and swaps one of its terms.  An edit whose text was produced before (or
is a corpus sentence) is skipped, so every edit misses the sentence-level
caches.

:func:`outcome_hash` digests each edit's (status, pruned, survivor
signatures); the benchmark compares the hash of every edit of the timed
run with the one the reference parser backend gives for the same edit
(:func:`reference_hashes`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re


def corpus_sentences(registry) -> list:
    """Every sentence of every registered protocol, in registry order."""
    return [spec for name in registry.protocols()
            for spec in registry.load_corpus(name).sentences]


def term_pattern(terms) -> re.Pattern:
    """Whole-word, case-insensitive matcher for any of ``terms``, longest
    term first at each position."""
    alternatives = sorted(terms, key=len, reverse=True)
    return re.compile(
        r"(?<![\w-])(?:" + "|".join(re.escape(t) for t in alternatives)
        + r")(?![\w-])",
        re.IGNORECASE,
    )


#: The seed of the edit pool every run draws from.
POOL_SEED = 0


def edit_pool(sentences, terms, count: int) -> list:
    """The first ``count`` edits of the pool (see module docstring); a
    shorter pool is a prefix of a longer one."""
    terms = sorted(terms)
    pattern = term_pattern(terms)
    editable = []
    for spec in sentences:
        spans = [match.span() for match in pattern.finditer(spec.text)]
        if spans:
            editable.append((spec, spans))
    if not editable:
        raise ValueError("no corpus sentence contains a dictionary term")
    rng = random.Random(POOL_SEED)
    seen = {spec.text for spec in sentences}
    pool = []
    while len(pool) < count:
        order = list(range(len(editable)))
        rng.shuffle(order)
        for index in order:
            spec, spans = editable[index]
            start, end = rng.choice(spans)
            old = spec.text[start:end].lower()
            new = rng.choice(terms)
            if new == old:
                continue
            text = spec.text[:start] + new + spec.text[end:]
            if text in seen:
                continue
            seen.add(text)
            pool.append(dataclasses.replace(spec, text=text))
            if len(pool) == count:
                break
    return pool


def edit_order(seed: int, count: int) -> list[int]:
    """The pool indices of a run's ``count`` edits, in the order ``seed``
    gives them."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def seeded_edits(sentences, terms, seed: int, count: int) -> list:
    """The ``count`` edits of a run with ``seed``, in order."""
    pool = edit_pool(sentences, terms, count)
    return [pool[index] for index in edit_order(seed, count)]


def outcome_hash(result) -> str:
    """SHA-1 of the part of a :class:`SentenceResult` the oracle compares."""
    from repro.ccg.semantics import signature

    status = getattr(result.status, "value", result.status)
    survivors = result.trace.survivors if result.trace is not None else []
    observed = (str(status), bool(result.pruned),
                [signature(form) for form in survivors])
    return hashlib.sha1(repr(observed).encode("utf-8")).hexdigest()


def reference_hashes(start: int, stop: int) -> list[str]:
    """The oracle: :func:`outcome_hash` of pool edits ``start .. stop-1``
    through a fresh registry on the ``reference`` parser backend, with no
    disk cache."""
    from repro.core import SageEngine
    from repro.rfc.registry import ProtocolRegistry

    registry = ProtocolRegistry(cache_dir=None)
    engine = SageEngine(mode="revised", protocol_registry=registry,
                        parser_backend="reference")
    pool = edit_pool(corpus_sentences(registry),
                     registry.dictionary().all_terms(), stop)
    return [outcome_hash(engine.process_sentence(spec))
            for spec in pool[start:]]
