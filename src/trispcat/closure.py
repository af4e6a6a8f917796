"""Trisp closure maps and the collapse certificates they generate.

A trisp closure map partitions the vertices into blue and red and maps each
blue vertex to a red one, so that every simplex with a blue vertex either
contains the image of its extreme blue vertex or extends by it in exactly
one way.  Such a map certifies that the trisp collapses onto the subtrisp
spanned by the red vertices; here the certificate is made executable as an
acyclic matching plus an elementary collapse sequence.  The matching is the
verification's own per-dimension partner arrays (the unique extension of
each simplex, or -1), checked and then read as they are.  The kernels keep
per-dimension arrays indexed by simplex id and read coface incidences off
the boundary rows.  A replay gives each simplex its removal time in one
pass over the steps and checks those times in one pass over the boundary
columns, with no simplex removed after one of its faces; the stepwise
replay runs only to name the first bad step of a sequence that fails.
Replaying a certificate, reading a trisp and every CLI command run with
the cyclic garbage collector paused (`trisp.nogc`): their tables are
flat containers of ints with no reference cycles, so each collection
their allocations would set off scans them all and frees nothing.  A
check returns its witnesses: the verification report holds its failures
beside what the matching reads, and the map verifies when there are none
(`ok`).
"""

from array import array
from itertools import compress
from operator import itemgetter, le

from .accat import check_closure_operator, closure_direction, directed_cycle, find_terminal_object
from .errors import InputError, PreconditionError, SoundnessError, malformed
from .trisp import euler_characteristic, induced_subtrisp, nogc, regularity_violations


class TrispClosureMap:
    def __init__(self, blue, red, mapping, convention):
        self.blue = frozenset(blue)
        self.red = frozenset(red)
        self.mapping = mapping  # blue vertex -> red vertex
        self.convention = convention  # "min" | "max": which extreme blue vertex is selected
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

    def __eq__(self, other):
        return type(other) is TrispClosureMap and vars(self) == vars(other)

    def check_vertices(self, t):
        # blue and red are disjoint ints, so n of them in range(n) are all of it
        vertices = self.blue | self.red
        if len(vertices) != t.n(0) or vertices and not 0 <= min(vertices) <= max(vertices) < t.n(0):
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
    targets = [phi] if t.dim >= 0 else []
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
    """Per d-simplex σ: count of (τ, j), ∂_j τ = σ, j-th vertex σ's target; and the last τ.

    Each coface τ is read once, at j = vt(τ).index(target(τ)), which needs
    a regular trisp whose faces satisfy the simplicial identities, so that
    vt(∂_j τ) is vt(τ) without its j-th vertex.  Say (τ, j) counts for
    σ = ∂_j τ: the j-th vertex v of τ is σ's target, an image, so red.
    Dropping a red vertex keeps the blue vertices in their order, so τ has
    σ's extreme blue vertex and target v, and regularity makes j the one
    position of v in τ.  Conversely, if v = target(τ) is the j-th vertex
    of τ, it is red, so ∂_j τ has target v too.  A τ with no blue vertex
    (target -1) counts for nothing, as none of its faces has one either.
    """
    count, last = [0] * t.n(d), array("l", [-1]) * t.n(d)
    up = targets[d + 1] if d < t.dim else ()
    for tau, (b, row, vt) in enumerate(zip(up, t.boundary_table(d + 1), t.vertex_tuples(d + 1))):
        if b in vt:
            f = row[vt.index(b)]
            count[f] += 1
            last[f] = tau
    return count, last


class ClosureVerifyReport:
    def __init__(self, failures, contained, extended, partners, targets):
        self.failures = failures  # (d, s, extension count)
        self.contained = contained  # simplices whose extreme blue vertex maps into the simplex
        self.extended = extended
        self.partners = partners  # per dimension, array: the unique extension τ of s, or -1
        self.targets = targets  # per dimension, image of each simplex's extreme blue vertex, or -1

    def __eq__(self, other):
        return type(other) is ClosureVerifyReport and vars(self) == vars(other)

    @property
    def ok(self):
        return not self.failures

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
    image of b; `_extensions` counts them, reading each coface once, and
    the report records that unique coface as the simplex's partner.
    """
    cmap.check_vertices(t)
    irregular = regularity_violations(t)
    if irregular:
        raise PreconditionError(f"trisp is not regular at {irregular[0]}")
    targets = _targets(t, cmap)
    failures, partners = [], []
    contained = extended = 0
    for d in range(t.dim + 1):
        count, last = _extensions(t, targets, d)
        for s, (b, vt) in enumerate(zip(targets[d], t.vertex_tuples(d))):
            if b < 0:
                continue
            if b in vt:
                contained += 1  # regularity leaves such a simplex no extension
            elif count[s] == 1:
                extended += 1
            else:
                failures.append((d, s, count[s]))
                last[s] = -1
        partners.append(last)
    return ClosureVerifyReport(failures, contained, extended, partners, targets)


def induced_trisp_closure_map(p, f, witnesses=None):
    """Closure map on the nerve of a poset induced by a one-sided closure operator.

    Red vertices are the image of the operator, blue the rest; a descending
    operator selects minimal blue vertices, an ascending one maximal.
    `witnesses` is `check_closure_operator(p, f)`, computed when not given.
    """
    if witnesses is None:
        witnesses = check_closure_operator(p, f)
    direction = closure_direction(witnesses)
    if direction is None:
        raise PreconditionError(f"operator is not a one-sided closure operator: {witnesses}")
    red = frozenset(f)
    blue = frozenset(range(p.n)) - red
    mapping = {b: f[b] for b in blue}
    convention = "min" if direction == "descending" else "max"
    return TrispClosureMap(blue, red, mapping, convention)


def closure_matching(t, cmap, verify_report):
    """Read the matching off a verified closure map's report, as per-dimension partner arrays.

    `verify_report` is the outcome of `verify_trisp_closure_map` on the same
    map, which records each extended d-simplex σ's unique extension τ as
    `partners[d][σ]` (-1 when σ has none); those arrays are the matching.
    It also records each simplex's target, the image of its extreme blue
    vertex, as `targets[d][σ]`; those are read from the report, except that
    the vertex targets come from `cmap`, so a report made for another map
    fails at its first matched vertex whose image differs.
    Each pair (σ, τ) is checked: σ and τ share the target b, b is a vertex of
    τ, τ drops b to σ, and the pairs are as many as the contained simplices.
    """
    if not verify_report.ok:
        raise PreconditionError(f"not a closure map: {verify_report.failures[:3]}")
    targets = [[cmap.mapping.get(v, -1) for v in range(t.n(0))], *verify_report.targets[1:]]
    pairs = 0
    for d, (partner, target) in enumerate(zip(verify_report.partners, targets)):
        up_targets = targets[d + 1] if d < t.dim else ()
        up_vts, up_rows = t.vertex_tuples(d + 1), t.boundary_table(d + 1)
        for s, tau in enumerate(partner):
            if tau >= 0:
                b, tvt = target[s], up_vts[tau]
                if up_targets[tau] != b or b not in tvt or up_rows[tau][tvt.index(b)] != s:
                    raise SoundnessError(f"inconsistent pairing at {(d, s)} / {(d + 1, tau)}")
                pairs += 1
    if pairs != verify_report.contained:
        raise SoundnessError("matching rules disagree in size")
    return verify_report.partners


def check_matching_acyclic(t, up):
    """No directed cycle alternating up matched pairs and down face relations.

    `up[d][σ]` is the d-simplex σ's matched coface τ in dimension d + 1, or -1.
    Returns the first such cycle, or None.
    """
    out_edges = {}
    nodes = set()
    for d, partner in enumerate(up):
        for s, tau in enumerate(partner):
            if tau < 0:
                continue
            sigma, coface = (d, s), (d + 1, tau)
            nodes.add(sigma)
            nodes.add(coface)
            out_edges.setdefault(sigma, []).append(coface)
            for f in t.faces(d + 1, tau):
                if f != s:
                    out_edges.setdefault(coface, []).append((d, f))
    return directed_cycle(sorted(nodes), lambda node: out_edges.get(node, ()))


class CollapseCertificate:
    """An executable collapse: matched pairs removed in a free order.

    `steps` lists (free face, coface) in removal order — a topological order
    of the matching.  The final subtrisp is spanned by the red vertices and
    the Euler characteristic is unchanged after every step.
    """

    def __init__(self, steps, final, euler):
        self.steps = steps
        self.final = final  # Subtrisp
        self.euler = euler

    def to_json(self):
        # json writes the step tuples as arrays, so they need no copy into lists
        return {
            "steps": self.steps,
            "final_counts": list(self.final.trisp.counts),
            "euler": self.euler,
        }


def collapse(t, up, red_vertices):
    """Execute an acyclic matching as an elementary collapse onto the red subtrisp.

    The matching is given as per-dimension partner arrays, as
    `closure_matching` returns them: `up[d][σ]` is the d-simplex σ's matched
    coface in dimension d + 1, or -1.  Each σ has one slot and its partner
    always lies one dimension up, so a matched pair cannot be malformed.
    Repeatedly removes a pair whose σ is free (its one remaining coface is
    τ).  Finishing proves the matching acyclic; getting stuck raises with
    the cycle that `check_matching_acyclic` finds.  What is left must be the
    subtrisp that `red_vertices` induce.  That subtrisp has the Euler
    characteristic χ of the whole trisp with no further check: each step
    removes one d-simplex and one (d+1)-simplex, which changes χ by
    (-1)^d + (-1)^(d+1) = 0.  The steps follow a LIFO queue seeded with the
    free matched faces in (d, σ) order, fed in boundary order.
    """
    dims = range(t.dim + 1)
    bnd = [t.boundary_table(d) for d in dims]
    count = _coface_counts(t)
    present = [bytearray(b"\x01") * t.n(d) for d in dims]
    queue = [
        (d, s) for d, partner, free in zip(dims, up, count)
        for s, tau in enumerate(partner) if tau >= 0 and free[s] == 1
    ]
    steps = []
    while queue:
        sigma = queue.pop()
        d, s = sigma
        count_d, present_d, up_d = count[d], present[d], up[d]
        if not present_d[s] or count_d[s] != 1:
            continue
        tau = up_d[s]
        coface, present_up = (d + 1, tau), present[d + 1]
        if not present_up[tau]:
            raise SoundnessError(
                f"matched pair {(sigma, coface)}: the coface {coface} is already removed"
            )
        steps.append((sigma, coface))
        present_up[tau] = present_d[s] = 0
        for f in bnd[d + 1][tau]:
            count_d[f] -= 1
            if count_d[f] == 1 and up_d[f] >= 0 and present_d[f]:
                queue.append((d, f))
        if d:
            count_d, present_d, up_d = count[d - 1], present[d - 1], up[d - 1]
            for f in bnd[d][s]:
                count_d[f] -= 1
                if count_d[f] == 1 and up_d[f] >= 0 and present_d[f]:
                    queue.append((d - 1, f))
    pairs = sum(len(partner) - partner.count(-1) for partner in up)
    if len(steps) != pairs:
        cycle = check_matching_acyclic(t, up)
        left = pairs - len(steps)
        raise SoundnessError(f"collapse got stuck with {left} pairs left; cycle: {cycle}")
    final = induced_subtrisp(t, red_vertices)
    for d in dims:
        if tuple(compress(range(t.n(d)), present[d])) != final.to_parent[d]:
            raise SoundnessError("final subtrisp is not the red subtrisp")
    return CollapseCertificate(tuple(steps), final, euler_characteristic(t))


def full_collapse_audit(t, cmap, report=None):
    """verify -> match -> collapse onto the red subtrisp.

    Verifies the map only when no `verify_trisp_closure_map` report is
    given.  Raises PreconditionError when the map does not verify.
    """
    if report is None:
        report = verify_trisp_closure_map(t, cmap)
    return collapse(t, closure_matching(t, cmap, report), cmap.red)


@nogc
def verify_collapse_sequence(t, steps):
    """Replay a collapse sequence of the whole trisp, checking freeness at every step.

    Each step must remove two present simplices, given as lists or tuples
    (d, s) of two ints (bools and floats are refused) in range, of adjacent
    dimensions, the first a free face of the second and the second maximal
    (which freeness implies only on a regular trisp).  Returns the set of
    remaining simplices.

    The steps are checked as one order relation, not replayed one by one.
    `_removal_times` gives each simplex the index of the step that removes
    it, or len(steps) if none; then the sequence replays exactly when every
    boundary incidence (c, f) has rm[c] <= rm[f], one pass per boundary
    column.  Proof: only a step's own pair shares a removal time, σ occurs
    once in τ's row, and before step k the present simplices are those with
    rm >= k.  So the step (σ, τ) at k finds σ free iff every incidence of σ
    other than the one in τ has rm < k, that is rm <= rm[σ] = k; and τ
    maximal iff every coface of τ has rm < k, that is rm <= rm[τ] = k.  A
    face never removed has the greatest time, so its incidences hold
    anyway.  When either pass fails, `_replay_stepwise` runs on the same
    steps to name the first bad step.
    """
    if not isinstance(steps, (list, tuple)):
        steps = list(steps)  # both passes may read it
    end, dims = len(steps), range(t.dim + 1)
    rm = _removal_times(t, steps)
    if rm is not None and all(
        all(map(le, rm[d], map(rm[d - 1].__getitem__, map(itemgetter(j), t.boundary_table(d)))))
        for d in dims[1:] for j in range(d + 1)
    ):
        return {(d, s) for d in dims for s in compress(range(t.n(d)), map(end.__eq__, rm[d]))}
    return _replay_stepwise(t, steps)


def _removal_times(t, steps):
    """rm[d][s] = index of the step removing (d, s), or len(steps); None for an unfit list.

    A list is unfit when a step is not a pair of lists or tuples (d, s) of
    ints, its simplices are out of range, of dimensions other than d and
    d + 1 or already removed, or σ does not occur exactly once in τ's
    boundary row.  The stepwise replay decides an unfit list; it refuses
    every one whose pairs are exactly lists or tuples, not subclasses.
    """
    end, bnd = len(steps), [t.boundary_table(d) for d in range(t.dim + 1)]
    rm = [[end] * t.n(d) for d in range(t.dim + 1)]
    try:
        for k, (sigma, tau) in enumerate(steps):
            if not (type(sigma) in (tuple, list) and type(tau) in (tuple, list)):
                return None
            (d, s), (d1, s1) = sigma, tau
            if not (
                type(d) is type(s) is type(d1) is type(s1) is int
                and 0 <= d and d1 == d + 1 and 0 <= s and 0 <= s1
                and rm[d][s] == end == rm[d1][s1] and bnd[d1][s1].count(s) == 1
            ):
                return None
            rm[d][s] = rm[d1][s1] = k
    except (TypeError, ValueError, IndexError):  # not a pair of pairs, or out of range
        return None
    return rm


def _replay_stepwise(t, steps):
    """`verify_collapse_sequence` step by step: coface counts and presence flags per dimension."""
    dims = range(t.dim + 1)
    bnd = [t.boundary_table(d) for d in dims]
    count = _coface_counts(t)
    present = [bytearray(b"\x01") * t.n(d) for d in dims]
    n_dims = len(present)
    for sigma, tau in steps:
        if not (
            isinstance(sigma, (tuple, list)) and len(sigma) == 2
            and isinstance(tau, (tuple, list)) and len(tau) == 2
            and type(d := sigma[0]) is int and type(s := sigma[1]) is int
            and type(d1 := tau[0]) is int and type(s1 := tau[1]) is int
            and 0 <= d < n_dims and 0 <= d1 < n_dims
            and 0 <= s < len(present[d]) and 0 <= s1 < len(present[d1])
            and present[d][s] and present[d1][s1]
        ):
            raise SoundnessError(f"step removes absent simplex: {sigma}, {tau}")
        if d1 != d + 1:
            raise SoundnessError(f"step pair has wrong dimensions: {sigma}, {tau}")
        below = count[d]
        if below[s] != 1:
            raise SoundnessError(f"face {sigma} is not free (count {below[s]})")
        row = bnd[d1][s1]
        if s not in row:
            raise SoundnessError(f"{sigma} is not a face of {tau}")
        if count[d1][s1]:
            raise SoundnessError(f"coface {tau} is not maximal (count {count[d1][s1]})")
        present[d1][s1] = present[d][s] = 0
        for f in row:
            below[f] -= 1
        if d:
            below = count[d - 1]
            for f in bnd[d][s]:
                below[f] -= 1
    return {(d, s) for d in dims for s in compress(range(t.n(d)), present[d])}


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
