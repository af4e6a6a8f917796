"""Transfer of closure maps across quotients.

Pushing forward: an equivariant closure map on a trisp with a quotient-
regular action descends to the orbit trisp.  One function, `push_to_orbits`,
builds every pushed map: for a trisp quotient, for pipeline 61's orbit nerve
and for a poset quotient.  Lifting: a closure map on the quotient lifts back
exactly when each blue vertex has a unique red partner in the right orbit
(and the trisp is an honest simplicial complex).  Finally, a poset quotient
need not be a poset, but the quotient of a one-sided equivariant closure
operator still induces a closure map on the nerve of the quotient category:
the push of the map the operator induces on the nerve of the poset.  One
check, `check_equivariant`, decides equivariance, of operators too.
"""

from .accat import subposet
from .closure import TrispClosureMap, induced_trisp_closure_map, verify_trisp_closure_map
from .errors import PreconditionError, SoundnessError
from .symmetry import check_regular_action, close_group, lift_elements, poset_quotient_category
from .trisp import induced_subtrisp, is_simplicial, trisps_equal_over_vertices


def check_equivariant(action, cmap):
    """φ(gb) = gφ(b), plus blue and red closed under the action.

    Returns the witnesses, empty when all three hold: ("blue-not-closed",
    gi, b), ("not-equivariant", gi, b) and ("red-not-closed", gi, r).
    Checked on the generators, so witnesses name a generator index: what
    holds for each generator holds for every product of generators.

    On the map that an idempotent operator f on a poset induces on its
    nerve (red the image of f, blue the rest, b -> f(b)), the list is empty
    iff f(gx) = g f(x) for every object x and generator g.
    ⇒: red x has gx red and f(gx) = gx = g f(x); blue x has f(gx) = g f(x).
    ⇐: a blue b with gb red gives gb = f(gb) = g f(b), so f(b) = b, and a
    red r with gr blue gives f(gr) = g f(r) = gr; both contradict.
    """
    witnesses = []
    for gi, g in enumerate(action.generators):
        vperm = g.dims[0] if g.dims else ()  # the empty trisp has no dimensions
        for b in sorted(cmap.blue):
            if vperm[b] not in cmap.blue:
                witnesses.append(("blue-not-closed", gi, b))
            elif cmap.mapping[vperm[b]] != vperm[cmap.mapping[b]]:
                witnesses.append(("not-equivariant", gi, b))
        for r in sorted(cmap.red):
            if vperm[r] not in cmap.red:
                witnesses.append(("red-not-closed", gi, r))
    return witnesses


def push_to_orbits(t, orbit, least, cmap):
    """(the pushed map, its report on `t`) of a closure map on the vertices upstairs.

    `t` is the orbit trisp, `orbit[v]` the orbit of the vertex v upstairs and
    `least[o]` the least vertex of the orbit o.  An orbit is blue or red as
    its vertices are, and a blue orbit goes to the orbit of the image of its
    least vertex.  The caller judges the report.
    """
    blue = frozenset(orbit[b] for b in cmap.blue)
    red = frozenset(orbit[r] for r in cmap.red)
    if blue & red:
        raise SoundnessError("blue and red orbits overlap despite closedness")
    mapping = {o: orbit[cmap.mapping[least[o]]] for o in sorted(blue)}
    pushed = TrispClosureMap(blue, red, mapping, cmap.convention)
    return pushed, verify_trisp_closure_map(t, pushed)


def push_closure_map(qt, cmap):
    """(the pushed map, its report) of an equivariant closure map on `qt.source`.

    Preconditions checked in order: the action satisfies the quotient-
    regularity condition, the map verifies on the source, and it is
    equivariant with blue/red closed.  The pushed map must verify on the
    orbit trisp.

    Pipeline 61 calls `push_to_orbits` on its orbit nerve instead and never
    verifies upstairs, because there the check cannot fail.  Its map is
    induced by an operator f that `check_closure_operator` found monotone,
    idempotent and ascending (convention max).  Let σ be a chain with a
    blue element, b its largest blue element and c = f(b) > b.  An element
    x < b of σ has x < c.  An element x > b of σ is red, so x = f(x) >= f(b)
    = c by monotonicity.  So either c is in σ, or σ + c is a chain, the one
    simplex of the nerve on those elements: exactly one extension, which
    is the closure-map condition at σ.
    """
    witness = check_regular_action(qt)
    if witness is not None:
        raise PreconditionError(f"quotient-regularity fails: {witness}")
    base_report = verify_trisp_closure_map(qt.source, cmap)
    if not base_report.ok:
        raise PreconditionError(f"map does not verify upstairs: {base_report.failures[:3]}")
    witnesses = check_equivariant(qt.action, cmap)
    if witnesses:
        raise PreconditionError(f"equivariance fails: {witnesses[:3]}")
    # the empty trisp has no dimensions
    orbit, least = (qt.projection[0], qt.reps[0]) if qt.projection else ((), ())
    pushed, report = push_to_orbits(qt.trisp, orbit, least, cmap)
    if not report.ok:
        raise SoundnessError(f"pushed map failed verification: {report.failures[:3]}")
    return pushed, report


class LiftConditionReport:
    """Per blue vertex: candidate red partners in the prescribed orbit.

    The condition holds when each candidate list is a single vertex joined
    by a single 1-simplex; the assignment, blue vertex -> red partner, is
    then forced, and empty when the condition fails.
    """

    def __init__(self, candidates):
        self.candidates = candidates  # blue vertex -> list of (red vertex, 1-simplex count)

    @property
    def holds(self):
        return all(len(c) == 1 and c[0][1] == 1 for c in self.candidates.values())

    @property
    def assignment(self):
        return {b: c[0][0] for b, c in self.candidates.items()} if self.holds else {}

    def to_json(self):
        return {
            "holds": self.holds,
            "candidates": {str(b): c for b, c in sorted(self.candidates.items())},
            "assignment": {str(b): r for b, r in sorted(self.assignment.items())},
        }


def check_lift_condition(qt, psi):
    """Unique red partner in the image orbit, joined by a unique 1-simplex."""
    t = qt.source
    proj0 = qt.projection[0] if qt.projection else ()
    members = {}  # orbit -> its vertices, ascending
    for v, orbit in enumerate(proj0):
        members.setdefault(orbit, []).append(v)
    blue = [v for v in range(t.n(0)) if proj0[v] in psi.blue]
    edges_between = {}
    for e in range(t.n(1)):
        u, w = t.vertex_tuple(1, e)
        for key in ((u, w), (w, u)):
            edges_between.setdefault(key, []).append(e)
    candidates = {}
    for b in blue:
        orbit = members.get(psi.mapping[proj0[b]], ())
        counts = ((r, len(edges_between.get((b, r), ()))) for r in orbit)
        candidates[b] = [(r, count) for r, count in counts if count]
    return LiftConditionReport(candidates)


def lift_candidate(qt, psi, condition):
    """The unverified forced lift to `qt.source`; `condition` is `check_lift_condition(qt, psi)`."""
    if not condition.holds:
        raise PreconditionError(f"lift condition fails: {condition.to_json()['candidates']}")
    proj0 = qt.projection[0] if qt.projection else ()
    blue = frozenset(v for v, orbit in enumerate(proj0) if orbit in psi.blue)
    red = frozenset(v for v, orbit in enumerate(proj0) if orbit in psi.red)
    return TrispClosureMap(blue, red, dict(condition.assignment), psi.convention)


def lift_closure_map(qt, psi, condition):
    """(the forced lift, its report on `qt.source`) of a closure map on the orbit trisp `qt`.

    `condition` is `check_lift_condition(qt, psi)`.  Guaranteed only for
    abstract simplicial complexes, so other input is rejected.  The caller
    judges the report.

    The lift is equivariant and pushes to psi, so `push_closure_map` would
    find nothing more.  Blue and red are unions of orbits.  g carries the
    one edge from a blue b to its partner r onto an edge from gb to gr, and
    gr is red in psi([b]) = psi([gb]); as gb has one partner, it is gr.  psi
    verifies, so its blue and red orbits partition the orbits; the lift
    colours each vertex as psi colours its orbit, and sends the least vertex
    of a blue orbit o into psi(o).  So its push is psi, verified on `qt`.
    """
    if not is_simplicial(qt.source):
        raise PreconditionError(
            "lifting is guaranteed only for abstract simplicial complexes; "
            "use lift_candidate to inspect the forced assignment"
        )
    witness = check_regular_action(qt)
    if witness is not None:
        raise PreconditionError(f"quotient-regularity fails: {witness}")
    psi_report = verify_trisp_closure_map(qt.trisp, psi)
    if not psi_report.ok:
        raise PreconditionError("psi does not verify on the quotient")
    lift = lift_candidate(qt, psi, condition)
    return lift, verify_trisp_closure_map(qt.source, lift)


# -- poset quotients --------------------------------------------------------


def image_quotient_nerve(p, action, group, image):
    """(kept elements, quotient) of the induced subposet on an action-closed subset,
    read off its orbit nerve under `group` lifted as `action` (`lift_elements`)."""
    sub_p, keep = subposet(p, set(image))
    pos = {x: i for i, x in enumerate(keep)}
    gens = []
    for g in action.generators:
        if any(g.dims[0][x] not in pos for x in keep):
            raise PreconditionError("subset is not closed under the action")
        gens.append([pos[g.dims[0][x]] for x in keep])
    act = close_group(gens, on=sub_p)
    return keep, poset_quotient_category(sub_p, act, list(dict.fromkeys(lift_elements(group, act))))


def check_image_subtrisp_equality(p, f, qc, group):
    """(mapping, witness): is the red part of the nerve of `qc`, a quotient of `p`,
    the nerve of the image quotient?  As `trisps_equal_over_vertices` returns them.

    Red vertices of the quotient are the classes meeting the operator image.
    The subtrisp of the quotient nerve they induce must equal, boundary for
    boundary, the nerve of the image subposet's quotient by `group`, lifted
    as ``qc.action`` (`image_quotient_nerve`).
    """
    if qc.source is not p.category:
        raise PreconditionError("the quotient is not a quotient of this poset")
    image = sorted(set(f))
    red_classes = sorted({qc.obj_class[x] for x in image})
    sub = induced_subtrisp(qc.nerve.trisp, set(red_classes))

    keep, sub_qc = image_quotient_nerve(p, qc.action, group, image)

    # vertex identification: class of x in the image quotient -> position of
    # the class of x among the red classes of the big quotient
    red_pos = {cls: i for i, cls in enumerate(red_classes)}
    vertex_map = [None] * sub_qc.category.n_objects
    for i, x in enumerate(keep):
        vertex_map[sub_qc.obj_class[i]] = red_pos[qc.obj_class[x]]
    return trisps_equal_over_vertices(sub_qc.nerve.trisp, sub.trisp, vertex_map)


def quotient_poset_closure_map(p, f, qc):
    """(the closure map, its report) on the nerve of the quotient `qc` of `p`.

    The closure map that an equivariant one-sided operator induces on the
    nerve of `p`, pushed to the classes: red classes are those meeting the
    operator image, a blue class goes to the class of the operator image of
    each of its members, and the convention follows the operator direction.
    The caller judges the report.
    """
    if qc.source is not p.category:
        raise PreconditionError("the quotient is not a quotient of this poset")
    cmap = induced_trisp_closure_map(p, f)
    if check_equivariant(qc.action, cmap):
        raise PreconditionError("operator is not equivariant")
    least = [members[0] for members in qc.obj_members]
    pushed, verify = push_to_orbits(qc.nerve.trisp, qc.obj_class, least, cmap)
    if any(qc.obj_class[f[x]] != pushed.mapping[qc.obj_class[x]] for x in cmap.blue):
        raise SoundnessError("operator image is not constant on classes")
    return pushed, verify
