"""Reference associativity filter: signature buckets confirmed with VF2.

This is the implementation :class:`repro.disambiguation.checks.
AssociativityCheck` replaced with canonical sids.  It is kept here, not in
the program, so the test suite can replay it over every bundled corpus and
demand that both keep exactly the same forms.
"""

from __future__ import annotations

from repro.ccg.semantics import Sem
from repro.lf.graph import canonical_signature, isomorphic


def filter_vf2(forms: list[Sem]) -> list[Sem]:
    """Keep the first form of each regrouping class, in input order per
    bucket.  Candidates are tried cheapest-signature-first so the scan
    short-circuits on the smallest graphs."""
    buckets: dict[str, list[Sem]] = {}
    for form in forms:
        buckets.setdefault(canonical_signature(form), []).append(form)
    representatives: list[Sem] = []
    for bucket in buckets.values():
        kept: list[Sem] = []
        for form in bucket:
            candidates = sorted(kept, key=lambda f: len(canonical_signature(f)))
            if not any(isomorphic(form, existing) for existing in candidates):
                kept.append(form)
        representatives.extend(kept)
    return representatives
