"""Transfer of closure maps across quotients.

Pushing forward: an equivariant closure map on a trisp with a quotient-
regular action descends to the orbit trisp.  Lifting: a closure map on the
quotient lifts back exactly when each blue vertex has a unique red partner
in the right orbit (and the trisp is an honest simplicial complex).
Finally, a poset quotient need not be a poset, but the quotient of a
one-sided equivariant closure operator still induces a closure map on the
nerve of the quotient category.
"""

from __future__ import annotations

from dataclasses import dataclass

from .accat import check_closure_operator, subposet
from .closure import TrispClosureMap, verify_trisp_closure_map
from .errors import PreconditionError, SoundnessError
from .symmetry import (
    CatAut,
    check_regular_action,
    close_group,
    quotient_category,
)
from .trisp import compute_simplicial_flag, induced_subtrisp, trisps_equal_over_vertices


@dataclass
class EquivarianceReport:
    map_equivariant: bool
    blue_closed: bool
    red_closed: bool
    witnesses: list

    @property
    def ok(self):
        return self.map_equivariant and self.blue_closed and self.red_closed


def check_equivariant(action, cmap):
    """φ(gb) = gφ(b), plus blue and red closed under the action.

    Checked on the generators, so witnesses name a generator index: what
    holds for each generator holds for every product of generators.
    """
    witnesses = []
    map_eq = blue_closed = red_closed = True
    for gi, g in enumerate(action.generators):
        vperm = g.dims[0] if g.dims else ()  # the empty trisp has no dimensions
        for b in sorted(cmap.blue):
            if vperm[b] not in cmap.blue:
                blue_closed = False
                witnesses.append(("blue-not-closed", gi, b))
            elif cmap.mapping[vperm[b]] != vperm[cmap.mapping[b]]:
                map_eq = False
                witnesses.append(("not-equivariant", gi, b))
        for r in sorted(cmap.red):
            if vperm[r] not in cmap.red:
                red_closed = False
                witnesses.append(("red-not-closed", gi, r))
    return EquivarianceReport(map_eq, blue_closed, red_closed, witnesses)


@dataclass
class PushedClosureMap:
    qt: object  # QuotientTrisp
    cmap: TrispClosureMap
    verify_report: object  # of the pushed map on the orbit trisp
    base_report: object  # of the original map on t


def push_closure_map(qt, cmap):
    """Quotient of an equivariant closure map on `qt.source`; verified on the orbit trisp.

    Preconditions checked in order: the action satisfies the quotient-
    regularity condition, the map verifies on the source, and it is
    equivariant with blue/red closed.
    """
    regular_report = check_regular_action(qt)
    if not regular_report.ok:
        raise PreconditionError(f"quotient-regularity fails: {regular_report.witness}")
    base_report = verify_trisp_closure_map(qt.source, cmap)
    if not base_report.ok:
        raise PreconditionError(f"map does not verify upstairs: {base_report.failures[:3]}")
    eq = check_equivariant(qt.action, cmap)
    if not eq.ok:
        raise PreconditionError(f"equivariance fails: {eq.witnesses[:3]}")
    proj0 = qt.projection[0] if qt.projection else ()
    blue = frozenset(proj0[b] for b in cmap.blue)
    red = frozenset(proj0[r] for r in cmap.red)
    if blue & red:
        raise SoundnessError("blue and red orbits overlap despite closedness")
    mapping = {orbit: proj0[cmap.mapping[qt.reps[0][orbit]]] for orbit in sorted(blue)}
    pushed = TrispClosureMap(blue, red, mapping, cmap.convention)
    report = verify_trisp_closure_map(qt.trisp, pushed)
    if not report.ok:
        raise SoundnessError(f"pushed map failed verification: {report.failures[:3]}")
    return PushedClosureMap(qt, pushed, report, base_report)


@dataclass
class LiftConditionReport:
    """Per blue vertex: candidate red partners in the prescribed orbit.

    The condition holds when each candidate set is a single vertex joined by
    a single 1-simplex; the assignment is then forced.
    """

    holds: bool
    candidates: dict  # blue vertex -> list of (red vertex, 1-simplex count)
    assignment: dict  # blue vertex -> red vertex, when holds

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
    blue = [v for v in range(t.n(0)) if proj0[v] in psi.blue]
    edges_between = {}
    for e in range(t.n(1)):
        u, w = t.vertex_tuple(1, e)
        for key in ((u, w), (w, u)):
            edges_between.setdefault(key, []).append(e)
    candidates = {}
    assignment = {}
    holds = True
    for b in blue:
        target_orbit = psi.mapping[proj0[b]]
        orbit_vertices = [v for v in range(t.n(0)) if proj0[v] == target_orbit]
        cand = []
        for r in orbit_vertices:
            count = len(edges_between.get((b, r), ()))
            if count:
                cand.append((r, count))
        candidates[b] = cand
        if len(cand) == 1 and cand[0][1] == 1:
            assignment[b] = cand[0][0]
        else:
            holds = False
    return LiftConditionReport(holds, candidates, assignment if holds else {})


def lift_candidate(qt, psi):
    """The forced candidate lift to `qt.source`, without any verification."""
    report = check_lift_condition(qt, psi)
    if not report.holds:
        raise PreconditionError(f"lift condition fails: {report.to_json()['candidates']}")
    proj0 = qt.projection[0] if qt.projection else ()
    blue = frozenset(v for v, orbit in enumerate(proj0) if orbit in psi.blue)
    red = frozenset(v for v, orbit in enumerate(proj0) if orbit in psi.red)
    return TrispClosureMap(blue, red, dict(report.assignment), psi.convention)


def lift_closure_map(qt, psi):
    """Lift a closure map from the orbit trisp `qt` back to its source.

    Guaranteed only for abstract simplicial complexes; on general trisps the
    forced candidate may fail, so non-simplicial input is rejected.
    """
    if not compute_simplicial_flag(qt.source).is_simplicial:
        raise PreconditionError(
            "lifting is guaranteed only for abstract simplicial complexes; "
            "use lift_candidate to inspect the forced assignment"
        )
    rep = check_regular_action(qt)
    if not rep.ok:
        raise PreconditionError(f"quotient-regularity fails: {rep.witness}")
    psi_report = verify_trisp_closure_map(qt.trisp, psi)
    if not psi_report.ok:
        raise PreconditionError("psi does not verify on the quotient")
    lift = lift_candidate(qt, psi)
    pushed = push_closure_map(qt, lift)  # verifies the lift on the source
    if pushed.cmap != psi:
        raise SoundnessError("push of the lift does not recover the original map")
    return lift


# -- poset quotients --------------------------------------------------------


def _poset_action_is_equivariant(p, action, f):
    """First object x with f(gx) != g f(x) for a generator g, as (x,), else None."""
    for g in action.generators:
        for x in range(p.n):
            if f[g.obj[x]] != g.obj[f[x]]:
                return (x,)
    return None


def image_quotient_nerve(p, action, image):
    """(kept elements, quotient) of the induced subposet on an action-closed subset."""
    sub_p, keep = subposet(p, set(image))
    pos = {x: i for i, x in enumerate(keep)}
    gens = []
    for g in action.generators:
        if any(g.obj[x] not in pos for x in keep):
            raise PreconditionError("subset is not closed under the action")
        gens.append(CatAut.from_poset(sub_p, (pos[g.obj[x]] for x in keep)))
    return keep, quotient_category(sub_p.category, close_group(gens, on=sub_p))


def check_image_subtrisp_equality(p, f, qc):
    """The red part of the nerve of `qc`, a quotient of `p`, is the nerve of the image quotient.

    Red vertices of the quotient are the classes meeting the operator image.
    The subtrisp of the quotient nerve they induce must equal, boundary for
    boundary, the nerve of the quotient category of the image subposet.
    """
    if qc.source is not p.category:
        raise PreconditionError("the quotient is not a quotient of this poset")
    image = sorted(set(f))
    red_classes = sorted({qc.obj_class[x] for x in image})
    sub = induced_subtrisp(qc.nerve.trisp, set(red_classes))

    keep, sub_qc = image_quotient_nerve(p, qc.action, image)

    # vertex identification: class of x in the image quotient -> position of
    # the class of x among the red classes of the big quotient
    red_pos = {cls: i for i, cls in enumerate(red_classes)}
    vertex_map = [None] * sub_qc.category.n_objects
    for i, x in enumerate(keep):
        vertex_map[sub_qc.obj_class[i]] = red_pos[qc.obj_class[x]]
    return trisps_equal_over_vertices(sub_qc.nerve.trisp, sub.trisp, vertex_map)


@dataclass
class QuotientPosetClosure:
    cmap: TrispClosureMap
    verify_report: object


def quotient_poset_closure_map(p, f, qc):
    """Closure map on the nerve of the quotient `qc` of `p`, from an equivariant operator.

    Red classes are those meeting the operator image, the map sends a blue
    class to the class of the operator image of any member, and the
    convention follows the operator direction.  The result is verified.
    """
    if qc.source is not p.category:
        raise PreconditionError("the quotient is not a quotient of this poset")
    report = check_closure_operator(p, f)
    direction = report.direction()
    if direction is None:
        raise PreconditionError("operator is not a one-sided closure operator")
    if _poset_action_is_equivariant(p, qc.action, f) is not None:
        raise PreconditionError("operator is not equivariant")
    image = set(f)
    red = frozenset(qc.obj_class[x] for x in image)
    blue = frozenset(range(qc.category.n_objects)) - red
    mapping = {}
    for cls in blue:
        members = qc.obj_members[cls]
        images = {qc.obj_class[f[x]] for x in members}
        if len(images) != 1:
            raise SoundnessError("operator image is not constant on classes")
        mapping[cls] = images.pop()
    cmap = TrispClosureMap(blue, red, mapping, "min" if direction == "descending" else "max")
    verify = verify_trisp_closure_map(qc.nerve.trisp, cmap)
    return QuotientPosetClosure(cmap, verify)
