"""Trisp closure maps and the collapse certificates they generate.

A trisp closure map partitions the vertices into blue and red and maps each
blue vertex to a red one, so that every simplex with a blue vertex either
contains the image of its extreme blue vertex or extends by it in exactly
one way.  Such a map certifies that the trisp collapses onto the subtrisp
spanned by the red vertices; here the certificate is made executable as an
acyclic matching plus an elementary collapse sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

from .accat import directed_cycle, find_terminal_object
from .errors import InputError, PreconditionError, malformed
from .trisp import euler_characteristic, induced_subtrisp


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


def extreme_blue(t, d, s, cmap):
    """Position and vertex of the extreme blue vertex of a simplex, or None."""
    vt = t.vertex_tuple(d, s)
    positions = [p for p, v in enumerate(vt) if v in cmap.blue]
    if not positions:
        return None
    p = positions[0] if cmap.convention == "min" else positions[-1]
    return p, vt[p]


def extensions_by_vertex(t, d, s, vertex):
    """All (coface, j) whose j-th face is (d, s) and whose j-th vertex is `vertex`."""
    return [
        (tau, j)
        for (tau, j) in t.cofaces(d, s)
        if t.vertex_tuple(d + 1, tau)[j] == vertex
    ]


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
    image of b.
    """
    cmap.check_vertices(t)
    for d in range(1, t.dim + 1):
        for s in range(t.n(d)):
            if len(set(t.vertex_tuple(d, s))) != d + 1:
                raise PreconditionError(f"trisp is not regular at {(d, s)}")
    failures = []
    contained = extended = 0
    for d in range(t.dim + 1):
        for s in range(t.n(d)):
            hit = extreme_blue(t, d, s, cmap)
            if hit is None:
                continue
            _, b = hit
            phi_b = cmap.mapping[b]
            if phi_b in t.vertex_tuple(d, s):
                contained += 1
                continue
            exts = extensions_by_vertex(t, d, s, phi_b)
            if len(exts) == 1:
                extended += 1
            else:
                failures.append((d, s, len(exts)))
    return ClosureVerifyReport(not failures, failures, contained, extended)


def induced_trisp_closure_map(p, f, report=None):
    """Closure map on the nerve of a poset induced by a one-sided closure operator.

    Red vertices are the image of the operator, blue the rest; a descending
    operator selects minimal blue vertices, an ascending one maximal.
    """
    from .accat import check_closure_operator

    if report is None:
        report = check_closure_operator(p, f)
    direction = report.direction()
    if direction is None:
        raise PreconditionError(
            "operator is not a one-sided closure operator: " + str(report.to_json())
        )
    red = frozenset(f.obj)
    blue = frozenset(range(p.n)) - red
    mapping = {b: f.obj[b] for b in blue}
    convention = "min" if direction == "descending" else "max"
    return TrispClosureMap(blue, red, mapping, convention)


@dataclass
class Matching:
    """A perfect matching on the blue-containing simplices.

    Each pair (σ, τ) has dim τ = dim σ + 1 and σ a boundary face of τ; the
    unmatched simplices are exactly those with only red vertices.
    """

    pairs: tuple  # ((d, s), (d + 1, tau)) sorted
    unmatched: tuple


def closure_matching(t, cmap, verify_report):
    """Realize a verified closure map as a matching.

    `verify_report` is the outcome of `verify_trisp_closure_map` on the same
    map.  A blue-containing simplex not containing the image of its extreme
    blue vertex pairs with its unique extension; one containing it pairs with
    the face obtained by deleting that image vertex.  The two rules agree.
    """
    if not verify_report.ok:
        raise PreconditionError(f"not a closure map: {verify_report.failures[:3]}")
    up = {}
    down_partner = {}
    unmatched = []
    for d in range(t.dim + 1):
        for s in range(t.n(d)):
            hit = extreme_blue(t, d, s, cmap)
            if hit is None:
                unmatched.append((d, s))
                continue
            _, b = hit
            phi_b = cmap.mapping[b]
            vt = t.vertex_tuple(d, s)
            if phi_b in vt:
                pos = vt.index(phi_b)
                down_partner[(d, s)] = (d - 1, t.face(d, s, pos))
            else:
                (tau, _j), = extensions_by_vertex(t, d, s, phi_b)
                up[(d, s)] = (d + 1, tau)
    # consistency: the two rules must produce the same involution
    if len(up) != len(down_partner):
        raise AssertionError("matching rules disagree in size")
    for sigma, tau in up.items():
        if down_partner.get(tau) != sigma:
            raise AssertionError(f"inconsistent pairing at {sigma} / {tau}")
    pairs = tuple(sorted((sigma, tau) for sigma, tau in up.items()))
    return Matching(pairs, tuple(sorted(unmatched)))


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

    matching: Matching
    steps: tuple
    final: object  # Subtrisp
    euler: int

    def to_json(self):
        return {
            "steps": [[list(a), list(b)] for a, b in self.steps],
            "final_counts": list(self.final.trisp.counts),
            "euler": self.euler,
        }


def collapse(t, matching, red_vertices=None):
    """Execute an acyclic matching as an elementary collapse sequence.

    Repeatedly removes a matched pair whose face is free (contained in
    exactly one remaining simplex, its partner).  A collapse that finishes
    proves the matching acyclic; getting stuck raises with the cycle that
    `check_matching_acyclic` finds.
    """
    removed = set()
    coface_count = {}
    for d in range(t.dim + 1):
        for s in range(t.n(d)):
            coface_count[(d, s)] = len(t.cofaces(d, s))
    up = dict(matching.pairs)

    def is_free(sigma):
        return coface_count[sigma] == 1

    queue = [sigma for sigma in up if is_free(sigma)]
    steps = []
    chi = euler_characteristic(t)
    while queue:
        sigma = queue.pop()
        if sigma in removed or sigma not in up:
            continue
        if not is_free(sigma):
            continue
        tau = up[sigma]
        if tau in removed:
            raise AssertionError(f"matched pair {(sigma, tau)}: the coface {tau} is already removed")
        steps.append((sigma, tau))
        # χ is untouched: the pair contributes (-1)^d + (-1)^(d+1) = 0
        for cell in (tau, sigma):
            removed.add(cell)
            d, s = cell
            if d > 0:
                for f in t.faces(d, s):
                    key = (d - 1, f)
                    coface_count[key] -= 1
                    if key in up and key not in removed and is_free(key):
                        queue.append(key)
    if len(steps) != len(up):
        _acyclic, cycle = check_matching_acyclic(t, matching)
        raise AssertionError(
            f"collapse got stuck with {len(up) - len(steps)} pairs left; cycle: {cycle}"
        )
    if red_vertices is None:
        red_set = {v for v in range(t.n(0)) if (0, v) not in removed}
    else:
        red_set = set(red_vertices)
    final = induced_subtrisp(t, red_set)
    remaining = {(d, s) for d in range(t.dim + 1) for s in range(t.n(d))} - removed
    if remaining != final.parent_simplices():
        raise AssertionError("final subtrisp is not the red subtrisp")
    if euler_characteristic(final.trisp) != chi:
        raise AssertionError("collapse changed the Euler characteristic")
    return CollapseCertificate(matching, tuple(steps), final, chi)


def full_collapse_audit(t, cmap, report=None):
    """verify -> match -> collapse onto the red subtrisp.

    Verifies the map only when no `verify_trisp_closure_map` report is
    given.  Raises PreconditionError when the map does not verify.
    """
    if report is None:
        report = verify_trisp_closure_map(t, cmap)
    return collapse(t, closure_matching(t, cmap, report), cmap.red)


def verify_collapse_sequence(t, steps):
    """Replay a collapse sequence of the whole trisp, checking freeness at every step.

    Returns the set of remaining simplices.
    """
    remaining = {(d, s) for d in range(t.dim + 1) for s in range(t.n(d))}
    coface_count = {}
    for (d, s) in remaining:
        count = sum(1 for (tau, _j) in t.cofaces(d, s) if (d + 1, tau) in remaining)
        coface_count[(d, s)] = count
    for sigma, tau in steps:
        d, s = sigma
        if sigma not in remaining or tau not in remaining:
            raise AssertionError(f"step removes absent simplex: {sigma}, {tau}")
        if tau[0] != d + 1:
            raise AssertionError(f"step pair has wrong dimensions: {sigma}, {tau}")
        if coface_count[sigma] != 1:
            raise AssertionError(f"face {sigma} is not free (count {coface_count[sigma]})")
        if sigma[1] not in t.faces(tau[0], tau[1]):
            raise AssertionError(f"{sigma} is not a face of {tau}")
        for cell in (tau, sigma):
            remaining.discard(cell)
            dd, ss = cell
            if dd > 0:
                for f in t.faces(dd, ss):
                    if (dd - 1, f) in remaining:
                        coface_count[(dd - 1, f)] -= 1
    return remaining


def search_collapse_to_point(t, budget_seconds=60.0):
    """Exhaustive (backtracking) search for a collapse down to a single vertex.

    Returns (status, steps) with status one of "collapsed", "stuck",
    "timeout".  Memoizes failed states; meant for desk-scale complexes.
    """
    start = frozenset((d, s) for d in range(t.dim + 1) for s in range(t.n(d)))
    deadline = time.monotonic() + budget_seconds
    failed = set()

    def free_pairs(remaining):
        pairs = []
        for (d, s) in remaining:
            cofs = [
                (d + 1, tau)
                for (tau, _j) in t.cofaces(d, s)
                if (d + 1, tau) in remaining
            ]
            if len(cofs) == 1:
                pairs.append(((d, s), cofs[0]))
        return sorted(pairs)

    def dfs(remaining):
        if time.monotonic() > deadline:
            return "timeout", None
        if len(remaining) == 1 and next(iter(remaining))[0] == 0:
            return "collapsed", []
        if remaining in failed:
            return "stuck", None
        for sigma, tau in free_pairs(remaining):
            status, steps = dfs(remaining - {sigma, tau})
            if status == "collapsed":
                return "collapsed", [(sigma, tau)] + steps
            if status == "timeout":
                return "timeout", None
        failed.add(remaining)
        return "stuck", None

    status, steps = dfs(start)
    return status, tuple(steps) if steps is not None else None


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
