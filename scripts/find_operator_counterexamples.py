#!/usr/bin/env python3
"""Search small posets for closure operators whose induced vertex maps fail.

Enumerates monotone idempotent self-maps of every poset up to a given size
and reports the ones that are neither descending nor ascending and whose
blue/red candidate fails verification under both conventions (so passing to
the dual poset does not help either).
"""

import argparse
import os
import sys

from trispcat.accat import check_closure_operator
from trispcat.closure import TrispClosureMap, verify_trisp_closure_map
from trispcat.nerve import nerve

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import all_posets_upto_iso, monotone_idempotent_maps  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--limit", type=int, default=10, help="stop after this many hits")
    parser.add_argument(
        "--include-antichains",
        action="store_true",
        help="also report relation-free posets, which fail for the trivial reason",
    )
    args = parser.parse_args()

    hits = 0
    for p in all_posets_upto_iso(args.max_n):
        if p.n < 2 or not (p.mor_of or args.include_antichains):
            continue
        nv = nerve(p.category)
        for f in monotone_idempotent_maps(p):
            if check_closure_operator(p, f).direction() is not None:
                continue
            red = frozenset(f)
            blue = frozenset(range(p.n)) - red
            mapping = {b: f[b] for b in blue}
            reports = {
                conv: verify_trisp_closure_map(nv.trisp, TrispClosureMap(blue, red, mapping, conv))
                for conv in ("min", "max")
            }
            if all(not r.ok for r in reports.values()):
                hits += 1
                print(f"poset {sorted(p.mor_of)}  operator {f}")
                for conv, r in reports.items():
                    print(f"  {conv}: first failure {r.failures[0]}")
                if hits >= args.limit:
                    return 0
    print(f"total hits: {hits}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
