"""Trisp closure maps and the collapse certificates they generate.

A trisp closure map partitions the vertices into blue and red and maps each
blue vertex to a red one, so that every simplex with a blue vertex either
contains the image of its extreme blue vertex or extends by it in exactly
one way.  Such a map certifies that the trisp collapses onto the subtrisp
spanned by the red vertices; here the certificate is made executable as an
acyclic matching plus an elementary collapse sequence.  The kernels keep
per-dimension lists and bytearrays indexed by simplex id and read coface
incidences off the boundary rows; no coface table is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .accat import check_closure_operator, directed_cycle, find_terminal_object
from .errors import InputError, PreconditionError, SoundnessError, malformed
from .trisp import euler_characteristic, induced_subtrisp, regularity_violations


@dataclass
class TrispClosureMap:
    blue: frozenset
    red: frozenset
    mapping: dict  # blue vertex -> red vertex
    convention: str  # "min" | "max": which extreme blue vertex is selected

    def __post_init__(self):
        self.blue = frozenset(self.blue)
        self.red = frozenset(self.red)
        if self.convention not in ("min", "max"):
            raise InputError(f"convention must be 'min' or 'max', got {self.convention!r}")
        vertices = (*self.blue, *self.red, *self.mapping, *self.mapping.values())
        if not all(type(v) is int for v in vertices):
            raise InputError("vertices must be integers")
        if self.blue & self.red:
            raise InputError("blue and red overlap")
        if set(self.mapping) != set(self.blue):
            raise InputError("map domain must be exactly the blue vertices")
        if not set(self.mapping.values()) <= set(self.red):
            raise InputError("map must land in the red vertices")

    def check_vertices(self, t):
        if self.blue | self.red != set(range(t.n(0))):
            raise InputError("blue and red must partition the vertex set")

    def to_json(self):
        return {
            "blue": sorted(self.blue),
            "red": sorted(self.red),
            "map": {str(b): r for b, r in sorted(self.mapping.items())},
            "convention": self.convention,
        }

    @classmethod
    def from_json(cls, data):
        with malformed("closure-map"):
            mapping = {}
            for k, v in data["map"].items():
                if str(int(k)) != k:
                    raise InputError(f"map key {k!r} is not a vertex index")
                mapping[int(k)] = v
            return cls(
                frozenset(data["blue"]),
                frozenset(data["red"]),
                mapping,
                data.get("convention", "min"),
            )


def _coface_counts(t):
    """count[d][s] = number of pairs (τ, j) with ∂_j τ = s, read off the boundary rows."""
    counts = [[0] * t.n(d) for d in range(t.dim + 1)]
    for d in range(1, t.dim + 1):
        count = counts[d - 1]
        for row in t.boundary_table(d):
            for f in row:
                count[f] += 1
    return counts


def _targets(t, cmap):
    """target[d][s] = image of the extreme blue vertex of (d, s), or -1 if none is blue.

    The vertex tuple of (d, s) is that of its face ∂_d followed by one more
    vertex, so the extreme blue vertex is either that face's or the new one.
    """
    phi = [cmap.mapping.get(v, -1) for v in range(t.n(0))]
    targets = [phi]
    for d in range(1, t.dim + 1):
        prev, level = targets[-1], []
        for row, vt in zip(t.boundary_table(d), t.vertex_tuples(d)):
            head, last = prev[row[d]], phi[vt[-1]]
            if cmap.convention == "min":
                level.append(head if head >= 0 else last)
            else:
                level.append(last if last >= 0 else head)
        targets.append(level)
    return targets


def _extensions(t, targets, d):
    """Per d-simplex σ: count of (τ, j), ∂_j τ = σ, j-th vertex σ's target; and the last τ."""
    target, count, last = targets[d], [0] * t.n(d), [-1] * t.n(d)
    for tau, (row, vt) in enumerate(zip(t.boundary_table(d + 1), t.vertex_tuples(d + 1))):
        for f, v in zip(row, vt):
            if target[f] == v:
                count[f] += 1
                last[f] = tau
    return count, last


@dataclass
class ClosureVerifyReport:
    ok: bool
    failures: list  # (d, s, extension count)
    contained: int  # simplices whose extreme blue vertex maps into the simplex
    extended: int

    def to_json(self):
        return {
            "ok": self.ok,
            "failures": [list(f) for f in self.failures],
            "contained": self.contained,
            "extended": self.extended,
        }


def verify_trisp_closure_map(t, cmap):
    """Check the closure-map property for every simplex with a blue vertex.

    For each such simplex, with b its extreme blue vertex: either the image
    of b is one of its vertices (then the face dropping that vertex exists
    automatically), or there must be exactly one coface extending it by the
    image of b; `_extensions` counts them from the boundary rows.
    """
    cmap.check_vertices(t)
    irregular = regularity_violations(t)
    if irregular:
        raise PreconditionError(f"trisp is not regular at {irregular[0]}")
    targets = _targets(t, cmap)
    failures = []
    contained = extended = 0
    for d in range(t.dim + 1):
        count, _last = _extensions(t, targets, d)
        for s, (b, vt) in enumerate(zip(targets[d], t.vertex_tuples(d))):
            if b < 0:
                continue
            if b in vt:
                contained += 1
            elif count[s] == 1:
                extended += 1
            else:
                failures.append((d, s, count[s]))
    return ClosureVerifyReport(not failures, failures, contained, extended)


def induced_trisp_closure_map(p, f, report=None):
    """Closure map on the nerve of a poset induced by a one-sided closure operator.

    Red vertices are the image of the operator, blue the rest; a descending
    operator selects minimal blue vertices, an ascending one maximal.
    """
    if report is None:
        report = check_closure_operator(p, f)
    direction = report.direction()
    if direction is None:
        raise PreconditionError(
            "operator is not a one-sided closure operator: " + str(report.to_json())
        )
    red = frozenset(f)
    blue = frozenset(range(p.n)) - red
    mapping = {b: f[b] for b in blue}
    convention = "min" if direction == "descending" else "max"
    return TrispClosureMap(blue, red, mapping, convention)


@dataclass
class Matching:
    """A perfect matching on the blue-containing simplices.

    Each pair (σ, τ) has dim τ = dim σ + 1 and σ a boundary face of τ; the
    simplices in no pair are exactly those with only red vertices.
    """

    pairs: tuple  # ((d, s), (d + 1, tau)) sorted


def closure_matching(t, cmap, verify_report):
    """Realize a verified closure map as a matching.

    `verify_report` is the outcome of `verify_trisp_closure_map` on the same
    map.  A blue-containing simplex σ not containing the image of its extreme
    blue vertex pairs up with its unique extension τ; one containing it pairs
    down with the face obtained by deleting that image vertex.  The two rules
    must agree: τ's own down partner is σ, and both kinds are equally many.
    """
    if not verify_report.ok:
        raise PreconditionError(f"not a closure map: {verify_report.failures[:3]}")
    targets = _targets(t, cmap)
    pairs = []
    down = 0
    for d in range(t.dim + 1):
        count, ext = _extensions(t, targets, d)
        up_targets = targets[d + 1] if d < t.dim else ()
        up_vts, up_rows = t.vertex_tuples(d + 1), t.boundary_table(d + 1)
        for s, (b, vt) in enumerate(zip(targets[d], t.vertex_tuples(d))):
            if b < 0:
                continue
            if b in vt:
                down += 1
            elif count[s] != 1:
                raise SoundnessError(f"{(d, s)} has {count[s]} extensions in a verified map")
            else:
                tau = ext[s]
                tb, tvt = up_targets[tau], up_vts[tau]
                if tb not in tvt or up_rows[tau][tvt.index(tb)] != s:
                    raise SoundnessError(f"inconsistent pairing at {(d, s)} / {(d + 1, tau)}")
                pairs.append(((d, s), (d + 1, tau)))
    if len(pairs) != down:
        raise SoundnessError("matching rules disagree in size")
    return Matching(tuple(pairs))


def check_matching_acyclic(t, matching):
    """No directed cycle alternating up matched pairs and down face relations."""
    out_edges = {}
    nodes = set()
    for sigma, tau in matching.pairs:
        nodes.add(sigma)
        nodes.add(tau)
        out_edges.setdefault(sigma, []).append(tau)
        d, s = tau
        for f in t.faces(d, s):
            if (d - 1, f) != sigma:
                out_edges.setdefault(tau, []).append((d - 1, f))
    cycle = directed_cycle(sorted(nodes), lambda node: out_edges.get(node, ()))
    return cycle is None, cycle


@dataclass
class CollapseCertificate:
    """An executable collapse: matched pairs removed in a free order.

    `steps` lists (free face, coface) in removal order — a topological order
    of the matching.  The final subtrisp is spanned by the red vertices and
    the Euler characteristic is unchanged after every step.
    """

    steps: tuple
    final: object  # Subtrisp
    euler: int

    def to_json(self):
        return {
            "steps": [[list(a), list(b)] for a, b in self.steps],
            "final_counts": list(self.final.trisp.counts),
            "euler": self.euler,
        }


def collapse(t, matching, red_vertices):
    """Execute an acyclic matching as an elementary collapse onto the red subtrisp.

    Repeatedly removes a matched pair whose face is free (contained in
    exactly one remaining simplex, its partner).  A collapse that finishes
    proves the matching acyclic; getting stuck raises with the cycle that
    `check_matching_acyclic` finds.  What is left must be the subtrisp that
    `red_vertices` induce.  The steps follow a LIFO queue seeded with the
    free matched faces in matching order, fed in boundary order.
    """
    dims = range(t.dim + 1)
    count = _coface_counts(t)
    removed = [bytearray(t.n(d)) for d in dims]
    up = [[-1] * t.n(d) for d in dims]
    for (d, s), (d1, tau) in matching.pairs:
        if d1 != d + 1 or up[d][s] >= 0:
            raise PreconditionError(f"malformed matched pair {((d, s), (d1, tau))}")
        up[d][s] = tau
    queue = [sigma for sigma, _tau in matching.pairs if count[sigma[0]][sigma[1]] == 1]
    steps = []
    chi = euler_characteristic(t)
    while queue:
        sigma = queue.pop()
        d, s = sigma
        if removed[d][s] or count[d][s] != 1:
            continue
        tau = (d + 1, up[d][s])
        if removed[d + 1][tau[1]]:
            raise SoundnessError(
                f"matched pair {(sigma, tau)}: the coface {tau} is already removed"
            )
        steps.append((sigma, tau))
        # χ is untouched: the pair contributes (-1)^d + (-1)^(d+1) = 0
        for dd, ss in (tau, sigma):
            removed[dd][ss] = 1
            if dd > 0:
                fcount, fup, fremoved = count[dd - 1], up[dd - 1], removed[dd - 1]
                for f in t.faces(dd, ss):
                    fcount[f] -= 1
                    if fcount[f] == 1 and fup[f] >= 0 and not fremoved[f]:
                        queue.append((dd - 1, f))
    if len(steps) != len(matching.pairs):
        _acyclic, cycle = check_matching_acyclic(t, matching)
        left = len(matching.pairs) - len(steps)
        raise SoundnessError(f"collapse got stuck with {left} pairs left; cycle: {cycle}")
    final = induced_subtrisp(t, red_vertices)
    for d in dims:
        if tuple(s for s, gone in enumerate(removed[d]) if not gone) != final.to_parent[d]:
            raise SoundnessError("final subtrisp is not the red subtrisp")
    if euler_characteristic(final.trisp) != chi:
        raise SoundnessError("collapse changed the Euler characteristic")
    return CollapseCertificate(tuple(steps), final, chi)


def full_collapse_audit(t, cmap, report=None):
    """verify -> match -> collapse onto the red subtrisp.

    Verifies the map only when no `verify_trisp_closure_map` report is
    given.  Raises PreconditionError when the map does not verify.
    """
    if report is None:
        report = verify_trisp_closure_map(t, cmap)
    return collapse(t, closure_matching(t, cmap, report), cmap.red)


def _present(removed, cell):
    """Is `cell` a pair of ints (d, s) naming a simplex not yet removed?"""
    d, s = cell if isinstance(cell, (tuple, list)) and len(cell) == 2 else (None, None)
    return (
        type(d) is int and type(s) is int
        and 0 <= d < len(removed) and 0 <= s < len(removed[d]) and not removed[d][s]
    )


def verify_collapse_sequence(t, steps):
    """Replay a collapse sequence of the whole trisp, checking freeness at every step.

    Each step must remove two present simplices, given as int pairs (d, s)
    in range, of adjacent dimensions, the first a free face of the second
    and the second maximal (which freeness implies only on a regular trisp).
    Coface counts and removal flags are per-dimension arrays.  Returns the
    set of remaining simplices.
    """
    dims = range(t.dim + 1)
    count = _coface_counts(t)
    removed = [bytearray(t.n(d)) for d in dims]
    for sigma, tau in steps:
        if not (_present(removed, sigma) and _present(removed, tau)):
            raise SoundnessError(f"step removes absent simplex: {sigma}, {tau}")
        (d, s), (d1, s1) = sigma, tau
        if d1 != d + 1:
            raise SoundnessError(f"step pair has wrong dimensions: {sigma}, {tau}")
        if count[d][s] != 1:
            raise SoundnessError(f"face {sigma} is not free (count {count[d][s]})")
        if s not in t.faces(d1, s1):
            raise SoundnessError(f"{sigma} is not a face of {tau}")
        if count[d1][s1]:
            raise SoundnessError(f"coface {tau} is not maximal (count {count[d1][s1]})")
        removed[d1][s1] = removed[d][s] = 1
        for dd, ss in (tau, sigma):
            for f in t.faces(dd, ss) if dd > 0 else ():
                count[dd - 1][f] -= 1
    return {(d, s) for d in dims for s, gone in enumerate(removed[d]) if not gone}


def search_collapse_to_point(t):
    """Exhaustive depth-first search for a collapse down to a single vertex.

    Tries the free pairs of each state in sorted order and memoizes the
    states that cannot reach a vertex.  Returns the steps, or None when no
    order of elementary collapses reaches one.  The search keeps its own
    stack; it is exponential in general (deciding collapsibility is
    NP-complete), so it is meant for desk-scale complexes.
    """
    failed = set()

    def free_pairs(remaining):
        count, partner = {}, {}
        for (d, s) in remaining:
            for f in t.faces(d, s) if d > 0 else ():
                count[(d - 1, f)] = count.get((d - 1, f), 0) + 1
                partner[(d - 1, f)] = (d, s)
        # σ lies in exactly one simplex τ, and τ in none
        return sorted(
            (sigma, partner[sigma])
            for sigma, c in count.items()
            if c == 1 and sigma in remaining and partner[sigma] not in count
        )

    start = frozenset((d, s) for d in range(t.dim + 1) for s in range(t.n(d)))
    path, pending = [(start, None)], [iter(free_pairs(start))]  # (state, step into it)
    while pending:
        remaining = path[-1][0]
        if len(remaining) == 1 and next(iter(remaining))[0] == 0:
            return tuple(step for _state, step in path[1:])
        for sigma, tau in pending[-1]:
            after = remaining - {sigma, tau}
            if after not in failed:
                path.append((after, (sigma, tau)))
                pending.append(iter(free_pairs(after)))
                break
        else:
            pending.pop()
            failed.add(path.pop()[0])
    return None


def cone_closure_map(c, t_obj):
    """Closure map collapsing the nerve of a category with terminal object to a point.

    Every object except the terminal one is blue and maps to it; maximal
    convention.  The unique morphism into the terminal object provides the
    unique extension of every chain not already ending there.
    """
    terminal = find_terminal_object(c)
    if terminal is None or terminal != t_obj:
        raise PreconditionError(f"object {t_obj} is not terminal (found {terminal})")
    blue = frozenset(range(c.n_objects)) - {t_obj}
    return TrispClosureMap(blue, frozenset({t_obj}), {b: t_obj for b in blue}, "max")
