"""Inputs and an independent checker for the certificate-audit workload.

Nothing here imports trispcat: the checker trusts only the trisp document
and the steps, so it can reject a certificate that trispcat itself accepts.
"""

from __future__ import annotations

import random


class CertificateError(Exception):
    """A collapse certificate that does not replay to the red subtrisp."""


def relabel(trisp_doc, map_doc, seed):
    """Renumber the simplices of every dimension with a permutation from `seed`.

    The result is isomorphic to the input, so it collapses in the same number
    of steps onto a red subtrisp of the same shape; only the ids change.
    """
    rng = random.Random(seed)
    perms = []
    for entry in trisp_doc["dims"]:
        perm = list(range(entry["count"]))
        rng.shuffle(perm)
        perms.append(perm)
    dims = [{"count": trisp_doc["dims"][0]["count"]}]
    for d in range(1, len(trisp_doc["dims"])):
        entry = trisp_doc["dims"][d]
        rows = [None] * entry["count"]
        for s, row in enumerate(entry["bnd"]):
            rows[perms[d][s]] = [perms[d - 1][f] for f in row]
        dims.append({"count": entry["count"], "bnd": rows})
    v = perms[0]
    new_map = {
        "blue": sorted(v[b] for b in map_doc["blue"]),
        "red": sorted(v[r] for r in map_doc["red"]),
        "map": {str(v[int(b)]): v[r] for b, r in map_doc["map"].items()},
        "convention": map_doc["convention"],
    }
    return {"dims": dims}, new_map


class Replayer:
    """Replays collapse steps on one trisp; the static tables are built once."""

    def __init__(self, trisp_doc, red_vertices):
        dims = trisp_doc["dims"]
        self.counts = [entry["count"] for entry in dims]
        self.bnd = [None] + [[tuple(row) for row in entry["bnd"]] for entry in dims[1:]]
        self.coface_total = [[0] * c for c in self.counts]
        for d in range(1, len(self.counts)):
            below = self.coface_total[d - 1]
            for row in self.bnd[d]:
                for f in row:
                    below[f] += 1
        red = set(red_vertices)
        in_red = [[s in red for s in range(self.counts[0])]]
        for d in range(1, len(self.counts)):
            prev = in_red[d - 1]
            in_red.append([all(prev[f] for f in row) for row in self.bnd[d]])
        self.red = {(d, s) for d, flags in enumerate(in_red) for s, ok in enumerate(flags) if ok}

    def replay(self, steps):
        """Remaining simplices after the steps; raises CertificateError on a bad step.

        Each step (σ, τ) needs both simplices present, dim τ = dim σ + 1,
        σ a face of τ, σ in no other remaining simplex (counting repeated
        faces), and τ a face of no remaining simplex.
        """
        top = len(self.counts) - 1
        cofaces = [list(c) for c in self.coface_total]
        removed = set()
        for k, step in enumerate(steps):
            try:
                (d, s), (d1, t) = step
            except (TypeError, ValueError):
                raise CertificateError(f"step {k} is not a pair of simplices: {step!r}") from None
            if not all(type(x) is int for x in (d, s, d1, t)) or d1 != d + 1 \
                    or not 0 <= d < top or not 0 <= s < self.counts[d] \
                    or not 0 <= t < self.counts[d1]:
                raise CertificateError(f"step {k}: bad simplices {step!r}")
            if (d, s) in removed or (d1, t) in removed:
                raise CertificateError(f"step {k}: removes an absent simplex {step!r}")
            if s not in self.bnd[d1][t]:
                raise CertificateError(f"step {k}: {(d, s)} is not a face of {(d1, t)}")
            if cofaces[d][s] != 1:
                raise CertificateError(f"step {k}: {(d, s)} is not free ({cofaces[d][s]} cofaces)")
            if cofaces[d1][t] != 0:
                raise CertificateError(f"step {k}: {(d1, t)} is not maximal")
            for dd, ss in ((d1, t), (d, s)):
                removed.add((dd, ss))
                if dd > 0:
                    for f in self.bnd[dd][ss]:
                        cofaces[dd - 1][f] -= 1
        return {(d, s) for d, c in enumerate(self.counts) for s in range(c)} - removed

    def check(self, steps, expected_steps, expected_red_counts):
        """Raise CertificateError unless the steps collapse exactly onto the red subtrisp."""
        if len(steps) != expected_steps:
            raise CertificateError(f"{len(steps)} steps, expected {expected_steps}")
        remaining = self.replay(steps)
        if remaining != self.red:
            raise CertificateError(
                f"{len(remaining)} simplices remain, the red subtrisp has {len(self.red)}"
            )
        counts = [0] * len(self.counts)
        for d, _s in remaining:
            counts[d] += 1
        while counts and counts[-1] == 0:
            counts.pop()
        if counts != list(expected_red_counts):
            raise CertificateError(f"red subtrisp counts {counts}, expected {expected_red_counts}")
