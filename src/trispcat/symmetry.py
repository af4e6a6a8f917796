"""Group actions on categories and trisps; orbits, quotients, and the canonical map.

Group elements are explicit permutation tables: an automorphism of a
category permutes objects and morphisms, an automorphism of a trisp
permutes simplices dimension by dimension, commuting with the boundary
operators.  An action is given by its generators; orbits, quotients,
equivariance and horizontality read only those, and a quotient category is
read off the composable pairs whose first source is an orbit representative.
A poset automorphism is checked against the order, not the composition
table.  The group itself is closed, by breadth-first products of generators,
only when a caller reads its elements or order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .accat import AcyclicCategory, Poset, validate_category
from .errors import InputError, PreconditionError, SoundnessError
from .nerve import Nerve, nerve
from .trisp import Trisp, regularity_violations


def _compose_perm(g, h):
    """Permutation g∘h (apply h first)."""
    return tuple(g[x] for x in h)


def _is_perm(p, n):
    return len(p) == n and sorted(p) == list(range(n))


@dataclass(frozen=True)
class CatAut:
    """Automorphism of a category: an object permutation plus a morphism permutation."""

    obj: tuple
    mor: tuple

    def __mul__(self, other):
        return CatAut(_compose_perm(self.obj, other.obj), _compose_perm(self.mor, other.mor))

    @classmethod
    def from_poset(cls, p, obj):
        """The automorphism of a poset that moves its objects by `obj`.

        Raises InputError if `obj` is not a permutation of the objects, or
        names the first relation x < y whose image is not a relation.
        """
        obj = tuple(obj)
        if not _is_perm(obj, p.n):
            raise InputError(f"{list(obj)} is not a permutation of the {p.n} objects")
        mor = [None] * p.category.n_morphisms
        for (x, y), m in p.mor_of.items():
            image = p.mor_of.get((obj[x], obj[y]))
            if image is None:
                raise InputError(f"relabelling does not keep the order at {(x, y)}")
            mor[m] = image
        return cls(obj, tuple(mor))


@dataclass(frozen=True)
class TrispAut:
    """Automorphism of a trisp: one simplex permutation per dimension."""

    dims: tuple

    def __mul__(self, other):
        return TrispAut(tuple(_compose_perm(g, h) for g, h in zip(self.dims, other.dims)))


def cat_automorphism_violation(c, g):
    """None if g is an automorphism of c, else a witness tuple."""
    if not _is_perm(g.obj, c.n_objects) or not _is_perm(g.mor, c.n_morphisms):
        return ("not-a-permutation",)
    for m in range(c.n_morphisms):
        gm = g.mor[m]
        if c.src[gm] != g.obj[c.src[m]]:
            return ("source", m)
        if c.tgt[gm] != g.obj[c.tgt[m]]:
            return ("target", m)
    for (m1, m2), m12 in c.comp.items():
        if c.comp.get((g.mor[m1], g.mor[m2])) != g.mor[m12]:
            return ("composition", (m1, m2))
    return None


def _poset_automorphism_violation(p, g):
    """`cat_automorphism_violation` on a poset, read off the order.

    A poset's hom-sets have at most one element and its composition is total
    (as `poset_from_relation` builds it), so the composite of the images of
    x < y < z is the one morphism gx -> gz, the image of the composite.  It
    suffices that g.mor sends each x -> y to the morphism gx -> gy.
    """
    c = p.category
    if not _is_perm(g.obj, c.n_objects) or not _is_perm(g.mor, c.n_morphisms):
        return ("not-a-permutation",)
    obj, mor_of = g.obj, p.mor_of
    for m, (x, y) in enumerate(zip(c.src, c.tgt)):
        if g.mor[m] != mor_of.get((obj[x], obj[y])):
            return ("order", m)
    return None


def trisp_automorphism_violation(t, g):
    if len(g.dims) != t.dim + 1:
        return ("wrong-dimension-count",)
    for d in range(t.dim + 1):
        if not _is_perm(g.dims[d], t.n(d)):
            return ("not-a-permutation", d)
    for d in range(1, t.dim + 1):
        for s in range(t.n(d)):
            gs = g.dims[d][s]
            for i in range(d + 1):
                if t.face(d, gs, i) != g.dims[d - 1][t.face(d, s, i)]:
                    return ("boundary", (d, s, i))
    return None


@dataclass
class GroupAction:
    """A finite group of automorphisms, given by a nonempty tuple of generators.

    Orbits, equivariance and horizontality are decided from the generators
    alone; the group's elements are closed from them only when first read.
    """

    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise InputError("a group action needs at least one generator")

    @cached_property
    def elements(self):
        """Every element, by breadth-first products of the generators, sorted."""
        first = self.generators[0]
        if isinstance(first, CatAut):
            identity = CatAut(tuple(range(len(first.obj))), tuple(range(len(first.mor))))
        else:
            identity = TrispAut(tuple(tuple(range(len(p))) for p in first.dims))
        seen = {identity}
        frontier = [g for g in self.generators if g not in seen]
        seen.update(frontier)
        while frontier:
            new = []
            for g in self.generators:
                for h in frontier:
                    gh = g * h
                    if gh not in seen:
                        seen.add(gh)
                        new.append(gh)
            frontier = new
        ordered = sorted(seen, key=lambda g: (g.obj, g.mor) if isinstance(g, CatAut) else g.dims)
        return tuple(ordered)

    @property
    def order(self):
        return len(self.elements)


def close_group(generators, on):
    """The action generated by `generators`, each checked to be an automorphism of `on`.

    `on` is a category, a poset or a trisp; a generator that is not a genuine
    automorphism raises with a witness.  A category is checked entry by entry
    of its composition table, a poset only by its order, in one pass over
    its morphisms: a `Poset` must have a total composition.
    """
    generators = tuple(generators)
    if isinstance(on, Poset):
        violation = _poset_automorphism_violation
    elif isinstance(on, AcyclicCategory):
        violation = cat_automorphism_violation
    else:
        violation = trisp_automorphism_violation
    for k, g in enumerate(generators):
        witness = violation(on, g)
        if witness is not None:
            raise InputError(f"generator {k} is not an automorphism: {witness}")
    return GroupAction(generators)


def trivial_cat_action(c):
    identity = CatAut(tuple(range(c.n_objects)), tuple(range(c.n_morphisms)))
    return GroupAction((identity,))


def trivial_trisp_action(t):
    identity = TrispAut(tuple(tuple(range(t.n(d))) for d in range(t.dim + 1)))
    return GroupAction((identity,))


class _UnionFind:
    """Disjoint sets on 0..n-1 whose root is always the least member."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def classes(self):
        """(class id per item, least member per class), classes numbered by least member."""
        roots = [self.find(x) for x in range(len(self.parent))]
        reps = sorted(set(roots))
        rank = {r: k for k, r in enumerate(reps)}
        return [rank[r] for r in roots], reps


def orbit_partition(perms, n):
    """(orbit id per item, orbit representatives) for a list of permutations.

    Orbits are numbered by their least member, in increasing order.  The
    generators of a group suffice: its orbits are the components of their graph.
    """
    uf = _UnionFind(n)
    for p in perms:
        for i, j in enumerate(p):
            uf.union(i, j)
    return uf.classes()


def check_horizontal(c, action):
    """No morphism joins two distinct objects of one orbit: every orbit is an antichain.

    The witness is (source, target) of the first such morphism.  Generator
    orbits suffice: if y = hx and z = kx, then z = (kh⁻¹)y.
    """
    orbit, _reps = orbit_partition([g.obj for g in action.generators], c.n_objects)
    for x, y in zip(c.src, c.tgt):
        if x != y and orbit[x] == orbit[y]:
            return False, (x, y)
    return True, None


def induced_trisp_action(nv, action):
    """Transport a category action to the nerve: g sends a chain to its image chain."""
    t = nv.trisp
    gens = []
    for g in action.generators:
        dims = [g.obj] if t.dim >= 0 else []  # the empty category has an empty nerve
        for d in range(1, t.dim + 1):
            images = [nv.simplex_of_morphisms(tuple(g.mor[m] for m in ms)) for ms in nv.chains[d]]
            dims.append(tuple(images))
        aut = TrispAut(tuple(dims))
        witness = trisp_automorphism_violation(t, aut)
        if witness is not None:
            raise SoundnessError(f"induced map is not an automorphism: {witness}")
        gens.append(aut)
    return GroupAction(tuple(gens))


@dataclass
class QuotientTrisp:
    """The orbit trisp of `action` on `source`, with its projection."""

    source: Trisp
    action: GroupAction
    trisp: Trisp
    projection: tuple  # per dimension, item -> orbit index
    reps: tuple  # per dimension, orbit -> least original index
    regularity_violations: list

    @property
    def regular(self):
        return not self.regularity_violations


def quotient_trisp(t, action):
    """Orbit trisp: simplices are orbits, boundaries act on representatives."""
    projection = []
    reps = []
    for d in range(t.dim + 1):
        proj, rep = orbit_partition([g.dims[d] for g in action.generators], t.n(d))
        projection.append(tuple(proj))
        reps.append(tuple(rep))
    bnd = [
        [tuple(projection[d - 1][f] for f in t.faces(d, rep)) for rep in reps[d]]
        for d in range(1, t.dim + 1)
    ]
    qt = Trisp([len(r) for r in reps], bnd)
    return QuotientTrisp(t, action, qt, tuple(projection), tuple(reps), regularity_violations(qt))


@dataclass
class RegularActionReport:
    """Outcome of the quotient-regularity condition on a trisp action.

    The condition: for every group element g and simplex σ, every common
    iterated face of σ and gσ (including σ itself when gσ = σ) is fixed by
    g and fixed vertexwise.  It guarantees that T/G is a regular trisp.

    On a trisp whose simplices have pairwise distinct vertices it holds iff no
    simplex has two distinct vertices in one orbit.  ⇒: if w = gv ≠ v in σ, g
    moves the common face {w} of σ and gσ.  ⇐: a vertex u of a common face τ has
    g⁻¹u in σ and in u's orbit, so g⁻¹u = u, and g⁻¹τ = τ as both are faces of σ
    on one vertex set.
    """

    ok: bool
    witness: tuple | None  # (element index, simplex, face, kind)


def check_regular_action(qt):
    """The quotient-regularity condition, read off the orbit trisp `qt`.

    The generators commute with the boundaries, so the representative σ of the
    first irregular orbit repeats a vertex (PreconditionError) or has vertices
    v ≠ w in one orbit; only then is the group closed, to name a g with gv = w:
    g moves the common face {w} of σ and gσ.
    """
    if qt.regular:
        return RegularActionReport(True, None)
    d, orbit = qt.regularity_violations[0]
    sigma = qt.reps[d][orbit]
    vertices = qt.source.vertex_tuple(d, sigma)
    if len(set(vertices)) != len(vertices):
        raise PreconditionError(f"trisp is not regular at {(d, sigma)}")
    proj0 = qt.projection[0]
    v, w = next((v, w) for v in vertices for w in vertices if v != w and proj0[v] == proj0[w])
    gi = next(gi for gi, g in enumerate(qt.action.elements) if g.dims[0][v] == w)
    return RegularActionReport(False, (gi, (d, sigma), (0, w), "moved"))


@dataclass
class QuotientCategory:
    """Colimit quotient of a category by a group action.

    Objects are object orbits; morphisms are classes of the congruence
    generated by m ~ gm and closed under composition of equal classes.
    """

    source: AcyclicCategory
    action: GroupAction
    category: AcyclicCategory
    obj_class: tuple  # object -> class index
    mor_class: tuple  # morphism -> class index
    obj_members: tuple

    @cached_property
    def nerve(self):
        """The nerve of the quotient category, built on first read."""
        return nerve(self.category)


def quotient_category(c, action):
    """Quotient of `c` by a horizontal action; composition is read off the composable pairs.

    Preconditions: `c` is a valid acyclic category (`validate_category`) and
    the generators are automorphisms of it (as `close_group` checks).

    Only the representative pairs are scanned: the composable pairs (m1, m2)
    whose first source is an object-orbit representative.  Every class holds
    whole morphism orbits from the start, and every composable pair is a
    translate (g r1, g r2) of a representative pair, with composite g r12.
    So the pair has the class key of (r1, r2), and its composite lies in the
    class of r12: a fixpoint over the representative pairs is closed over
    all pairs too, and it is the same least congruence.  The same argument
    makes the functor check over them a check over all pairs.
    Union-find roots are least members, so the classes do not depend on the
    order of the unions.
    """
    horizontal, witness = check_horizontal(c, action)
    if not horizontal:
        raise PreconditionError(f"action is not horizontal at {witness}")
    obj_class, obj_reps = orbit_partition([g.obj for g in action.generators], c.n_objects)

    out = {}
    for m, x in enumerate(c.src):
        out.setdefault(x, []).append(m)
    pairs = []  # (m1, m2, composite) with src[m1] an orbit representative
    for x in obj_reps:
        for m1 in out.get(x, ()):
            for m2 in out.get(c.tgt[m1], ()):
                m12 = c.comp.get((m1, m2))
                if m12 is None:
                    raise PreconditionError(f"composition table incomplete at {(m1, m2)}")
                pairs.append((m1, m2, m12))

    uf = _UnionFind(c.n_morphisms)
    for g in action.generators:
        for m in range(c.n_morphisms):
            uf.union(m, g.mor[m])
    # congruence: composites of pairs in one class pair share a class; a pass
    # without a union is run with fixed classes, so the fixpoint is closed
    changed = True
    while changed:
        changed = False
        first = {}
        for m1, m2, m12 in pairs:
            key = (uf.find(m1), uf.find(m2))
            changed |= uf.union(first.setdefault(key, m12), m12)

    mor_class, roots = uf.classes()
    mor_members = [[] for _ in roots]
    for m in range(c.n_morphisms):
        mor_members[mor_class[m]].append(m)
    obj_members = [[] for _ in obj_reps]
    for x in range(c.n_objects):
        obj_members[obj_class[x]].append(x)

    # endpoints must be constant on classes
    q_src, q_tgt = [], []
    for members in mor_members:
        srcs = {obj_class[c.src[m]] for m in members}
        tgts = {obj_class[c.tgt[m]] for m in members}
        if len(srcs) != 1 or len(tgts) != 1:
            raise SoundnessError("congruence broke endpoint classes")
        q_src.append(srcs.pop())
        q_tgt.append(tgts.pop())

    # the class composition is the image of the composition; a second
    # value for one class pair means the projection is not a functor
    comp_entries = {}
    for m1, m2, m12 in pairs:
        key = (mor_class[m1], mor_class[m2])
        if comp_entries.setdefault(key, mor_class[m12]) != mor_class[m12]:
            raise SoundnessError(f"the projection is not a functor at {(m1, m2)}")

    labels = [f"[{c.objects[obj_members[k][0]]}]" for k in range(len(obj_reps))]
    mor_list = [
        (q_src[k], q_tgt[k], f"[{c.mor_labels[mor_members[k][0]]}]") for k in range(len(roots))
    ]
    quotient = AcyclicCategory(labels, mor_list, [(a, b, m) for (a, b), m in comp_entries.items()])
    report = validate_category(quotient)
    if not report.ok:
        raise SoundnessError(f"quotient category invalid: {report.to_json()}")
    return QuotientCategory(
        c,
        action,
        quotient,
        tuple(obj_class),
        tuple(mor_class),
        tuple(tuple(m) for m in obj_members),
    )


@dataclass
class CanonicalMap:
    """The canonical comparison from the orbit trisp of the nerve to the nerve
    of the quotient category, as its simplex map.

    It is bijective on vertices and surjective in every dimension.
    """

    nerve_dst: Nerve
    entries: tuple  # per dimension, orbit index -> simplex of nerve_dst

    @property
    def surjective_by_dim(self):
        out = []
        for d in range(self.nerve_dst.trisp.dim + 1):
            image = set(self.entries[d]) if d < len(self.entries) else set()
            out.append(len(image) == self.nerve_dst.trisp.n(d))
        return tuple(out)

    @property
    def vertex_bijective(self):
        entries = self.entries[0] if self.entries else ()
        return len(set(entries)) == len(entries) == self.nerve_dst.trisp.n(0)


def canonical_map(qc):
    """The canonical map of `qc`, from the orbit trisp of the nerve of its source."""
    nerve_src = nerve(qc.source)
    qt = quotient_trisp(nerve_src.trisp, induced_trisp_action(nerve_src, qc.action))
    nerve_dst = qc.nerve
    entries = []
    for d in range(nerve_src.trisp.dim + 1):
        level = []
        for rep in qt.reps[d]:
            if d == 0:
                level.append(qc.obj_class[rep])
            else:
                img = tuple(qc.mor_class[m] for m in nerve_src.chains[d][rep])
                level.append(nerve_dst.simplex_of_morphisms(img))
        entries.append(tuple(level))
    cmap = CanonicalMap(nerve_dst, tuple(entries))
    # commutes with boundaries
    for d in range(1, qt.trisp.dim + 1):
        for o in range(qt.trisp.n(d)):
            img = entries[d][o]
            for i in range(d + 1):
                if entries[d - 1][qt.trisp.face(d, o, i)] != nerve_dst.trisp.face(d, img, i):
                    raise SoundnessError("canonical map does not commute with boundaries")
    if not cmap.vertex_bijective:
        raise SoundnessError("canonical map must be bijective on vertices")
    return cmap
