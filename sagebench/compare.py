"""Compare two saved benchmark results (``.bench_results/*.json``).

Usage::

    python3 sagebench/compare.py BASE.json NEW.json

Prints each metric of both runs and NEW/BASE.  Results from different
hosts (CPU count, Python version or platform), workloads or trace modes
are refused with exit code 2: their numbers do not measure the same thing.
"""

from __future__ import annotations

import json
import sys


def refusal(base: dict, new: dict) -> str | None:
    for key in ("host", "workload", "trace"):
        if base[key] != new[key]:
            return (f"refusing to compare: {key} differs "
                    f"({json.dumps(base[key])} vs {json.dumps(new[key])})")
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    reason = refusal(base, new)
    if reason:
        print(reason, file=sys.stderr)
        return 2
    print(f"{base['workload']}: {base['commit']} -> {new['commit']}")
    for name, entry in base["metrics"].items():
        old, now = entry["value"], new["metrics"][name]["value"]
        ratio = f"{now / old:.3f}" if old else "n/a"
        print(f"{name:36} {old:12.6g} {now:12.6g} {entry['unit']:6} "
              f"x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
