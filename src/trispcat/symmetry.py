"""Group actions on categories and trisps; orbits, quotients, and the canonical map.

A group element is one type, `Aut`: one permutation per level.  The levels
of a trisp are its dimensions; those of a category are its objects and its
morphisms, which are the vertices and edges of its nerve, and S_n on n
points has one level.  Elements multiply level by level.  An automorphism
of a category keeps sources, targets and composition; one of a trisp
commutes with the boundary operators.  An action is given by its
generators; orbits, quotients, equivariance and horizontality read only
those.  A quotient category is read off the composable pairs whose first
source is an orbit representative, or a poset's off its chain orbits.  A
poset action holds object maps only, checked on the pairs that generate
the order; it has no morphism level, so the paths that map morphisms
(`quotient_category`, `induced_trisp_action`) refuse it.
The group itself is closed, by breadth-first products of generators, only
when a caller reads its elements or order.  Kernels on a nerve read whole
tables: an induced action maps chains column by column, the automorphism
check compares boundary columns, and orbits are labelled by a stack search
along the generators.  The orbit trisp of a poset's nerve is also built
without the nerve: `orbit_nerve` takes the group as the object maps of its
elements, closed by the caller, and lists each orbit of chains once, by its
least chain, extending each least chain at its top under its stabilizer
(orderly generation) and finding its faces by transporters carried down.
"""

from bisect import bisect_left
from functools import cached_property
from operator import attrgetter, itemgetter

from .accat import AcyclicCategory, Poset, validate_category
from .errors import InputError, PreconditionError, SoundnessError
from .nerve import nerve
from .trisp import Trisp, regularity_violations


def _compose_perm(g, h):
    """Permutation g∘h (apply h first)."""
    return tuple(map(g.__getitem__, h))


def _is_perm(p, n):
    return len(p) == n and sorted(p) == list(range(n))


class Aut:
    """A group element: `dims` holds one permutation per level.

    A trisp's levels are its dimensions, a category's are (objects,
    morphisms), and S_n on n points has the one level of its points.
    """

    def __init__(self, dims):
        self.dims = dims

    def __eq__(self, other):
        return type(other) is Aut and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __mul__(self, other):
        return Aut(tuple(map(_compose_perm, self.dims, other.dims)))


def _identity(sizes):
    """The element that fixes every level, of the given sizes."""
    return Aut(tuple(tuple(range(n)) for n in sizes))


def poset_automorphism(p, obj):
    """The automorphism ``Aut((obj,))`` of a poset that moves its objects by `obj`.

    Raises InputError if `obj` is not a permutation of the objects, or
    names the first pair x < y of ``p.relation`` whose image is not a
    relation.  The pairs suffice: a bijection that sends each of them to a
    relation sends their transitive closure, the order, into the order, so
    it maps the finite set of relations injectively into itself, hence onto
    it, and is an automorphism.
    """
    obj, above = tuple(obj), p.above
    if not _is_perm(obj, p.n):
        raise InputError(f"{list(obj)} is not a permutation of the {p.n} objects")
    for x, y in p.relation:
        if obj[y] not in above[obj[x]]:
            raise InputError(f"relabelling sends {x} < {y} to {obj[x]}, {obj[y]}, not a relation")
    return Aut((obj,))


def morphism_maps(action):
    """Each generator's morphism map, its second level; a poset action has none."""
    if len(action.generators[0].dims) == 1:
        raise PreconditionError("a poset action has no morphism level; see poset_quotient_category")
    return [g.dims[1] for g in action.generators]


def cat_automorphism_violation(c, g):
    """None if g, on levels (objects, morphisms), is an automorphism of c, else a witness tuple."""
    if len(g.dims) != 2 or not all(map(_is_perm, g.dims, (c.n_objects, c.n_morphisms))):
        return ("not-a-permutation",)
    obj, mor = g.dims
    for m in range(c.n_morphisms):
        gm = mor[m]
        if c.src[gm] != obj[c.src[m]]:
            return ("source", m)
        if c.tgt[gm] != obj[c.tgt[m]]:
            return ("target", m)
    for (m1, m2), m12 in c.comp.items():
        if c.comp.get((mor[m1], mor[m2])) != mor[m12]:
            return ("composition", (m1, m2))
    return None


def trisp_automorphism_violation(t, g):
    """None if g is an automorphism of t, else a witness tuple.

    Boundary columns are compared whole, ``col[g_d[s]]`` against
    ``g_{d-1}[col[s]]``; a dimension where one differs is scanned face by
    face for the first witness ("boundary", (d, s, i)).
    """
    if len(g.dims) != t.dim + 1:
        return ("wrong-dimension-count",)
    for d in range(t.dim + 1):
        if not _is_perm(g.dims[d], t.n(d)):
            return ("not-a-permutation", d)
    for d in range(1, t.dim + 1):
        table, g_d, g_low = t.boundary_table(d), g.dims[d], g.dims[d - 1]
        if all([col[x] for x in g_d] == [g_low[f] for f in col] for col in zip(*table)):
            continue
        for s, gs in enumerate(g_d):
            for i, f in enumerate(table[s]):
                if table[gs][i] != g_low[f]:
                    return ("boundary", (d, s, i))
    return None


class GroupAction:
    """A finite group, given by a nonempty tuple of generators, each an `Aut`.

    Orbits, equivariance and horizontality are decided from the generators
    alone; the group's elements are closed from them only when first read.
    """

    def __init__(self, generators):
        if not generators:
            raise InputError("a group action needs at least one generator")
        self.generators = generators

    @cached_property
    def tree(self):
        """Every element once, by breadth-first products of the generators.

        Entry i is (element, k, j): the element was first reached as
        generator k times entry j.  Entry 0 is (identity, -1, -1), and each
        level multiplies the last one on the left by each generator in turn.
        """
        identity = _identity(map(len, self.generators[0].dims))
        index = {identity: 0}
        tree, frontier = [(identity, -1, -1)], [identity]
        while frontier:
            new = []
            for k, g in enumerate(self.generators):
                for h in frontier:
                    gh = g * h
                    if gh not in index:
                        index[gh] = len(tree)
                        tree.append((gh, k, index[h]))
                        new.append(gh)
            frontier = new
        return tuple(tree)

    @cached_property
    def elements(self):
        """Every element of `tree`, sorted by its permutations."""
        return tuple(sorted((g for g, _k, _j in self.tree), key=attrgetter("dims")))

    @property
    def order(self):
        return len(self.tree)


def close_group(generators, on):
    """The action generated by `generators`, each checked to be an automorphism of `on`.

    `on` is a category, a poset or a trisp.  A generator of a category is
    ``Aut((obj, mor))`` and one of a trisp has one permutation per
    dimension; one that is not a genuine automorphism raises with a
    witness.  No generators give the trivial action, generated by the
    identity on the level sizes of `on`.  A category is checked entry by
    entry of its composition.  A poset's generators are object maps, each
    checked and held as ``Aut((obj,))`` by `poset_automorphism`.  Such an
    action has no morphism level: `orbit_nerve` and `poset_quotient_category`
    take it, and the paths that map morphisms refuse it (`morphism_maps`).
    """
    if not generators:
        if isinstance(on, Poset):
            return GroupAction((_identity((on.n,)),))
        sizes = (on.n_objects, on.n_morphisms) if isinstance(on, AcyclicCategory) else on.counts
        return GroupAction((_identity(sizes),))
    built = []
    for k, g in enumerate(generators):
        if isinstance(on, Poset):
            try:
                g, witness = poset_automorphism(on, g), None
            except InputError as exc:  # names the first relation whose image is not one
                witness = exc
        elif isinstance(on, AcyclicCategory):
            witness = cat_automorphism_violation(on, g)
        else:
            witness = trisp_automorphism_violation(on, g)
        if witness is not None:
            raise InputError(f"generator {k} is not an automorphism: {witness}")
        built.append(g)
    return GroupAction(tuple(built))


def lift_elements(group, action):
    """The object map in `action` of each element of the closed `group`, in tree order.

    A homomorphism must send generator k of `group` to that of `action`, as
    S_n on n points goes to its relabellings, or an action to its restriction.
    Element i, generator k times element j in `group.tree`, lifts to L_k∘lift(j),
    L_k the object map of generator k; each is listed once when the homomorphism
    is one to one.  `itemgetter` gives a tuple for two or more indices; on fewer
    objects the action is trivial.
    """
    gens = [g.dims[0] for g in action.generators]
    lifted = [tuple(range(len(gens[0])))]
    for _g, k, j in group.tree[1:] if len(lifted[0]) > 1 else ():
        lifted.append(itemgetter(*lifted[j])(gens[k]))
    return lifted


class _UnionFind:
    """Disjoint sets on 0..n-1 whose root is always the least member."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:  # path halving: point x at its grandparent, then step there
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def classes(self):
        """(class id per item, least member per class), classes numbered by least member, in
        one ascending pass, as `union` and `find` point an item only at a smaller one."""
        class_of, reps = [], []
        for x, p in enumerate(self.parent):
            class_of.append(len(reps) if p == x else class_of[p])
            if p == x:
                reps.append(x)
        return class_of, reps


def orbit_partition(perms, n):
    """(orbit id per item, orbit representatives) for a list of permutations of 0..n-1.

    Orbits are numbered by their least member, in increasing order.  The
    generators of a group suffice: each orbit is labelled by a stack search
    from its least item along the generators, whose powers hold the inverses.
    """
    orbit, reps = [-1] * n, []
    for x in range(n):
        if orbit[x] < 0:
            k = orbit[x] = len(reps)
            reps.append(x)
            stack = [x]
            while stack:
                y = stack.pop()
                for p in perms:
                    z = p[y]
                    if orbit[z] < 0:
                        orbit[z] = k
                        stack.append(z)
    return orbit, reps


def check_horizontal(c, action):
    """No morphism joins two distinct objects of one orbit: every orbit is an antichain.

    Returns (source, target) of the first such morphism, or None.  Generator
    orbits suffice: if y = hx and z = kx, then z = (kh⁻¹)y.
    """
    orbit, _reps = orbit_partition([g.dims[0] for g in action.generators], c.n_objects)
    for x, y in zip(c.src, c.tgt):
        if x != y and orbit[x] == orbit[y]:
            return (x, y)
    return None


def induced_trisp_action(nv, action):
    """Transport a category action to the nerve: g sends a chain to its image chain.

    Chains are mapped column by column: position j of every chain of one
    dimension goes through g's morphism map at once.  Each image is checked
    to be an automorphism of the nerve.  A poset action has no morphism
    level and is refused (`morphism_maps`).

    A poset's orbit trisp is built by `orbit_nerve`, which runs no such
    check, because on a poset it cannot fail.  There each generator comes
    from `poset_automorphism`, so its object map g is a permutation
    with x < y => gx < gy.  As a permutation of the finite set of relations
    it has an inverse that keeps the order too.  So g sends a chain
    x_0 < ... < x_d to the chain gx_0 < ... < gx_d, bijectively in each
    dimension, and dropping x_i commutes with applying g: the induced map
    commutes with every boundary.
    """
    t, index = nv.trisp, nv.index
    columns = [list(zip(*nv.chains[d])) for d in range(1, t.dim + 1)]
    gens = []
    for g, mor in zip(action.generators, morphism_maps(action)):
        obj = g.dims[0]
        dims = [obj] if t.dim >= 0 else []  # the empty category has an empty nerve
        for cols in columns:
            images = zip(*[[mor[m] for m in col] for col in cols])
            dims.append(tuple([index[ms] for ms in images]))
        aut = Aut(tuple(dims))
        witness = trisp_automorphism_violation(t, aut)
        if witness is not None:
            raise SoundnessError(f"induced map is not an automorphism: {witness}")
        gens.append(aut)
    return GroupAction(tuple(gens))


class QuotientTrisp:
    """The orbit trisp of `action` on `source`, with its projection."""

    def __init__(self, source, action, trisp, projection, reps, regularity_violations):
        self.source = source  # Trisp
        self.action = action  # GroupAction
        self.trisp = trisp
        self.projection = projection  # per dimension, item -> orbit index
        self.reps = reps  # per dimension, orbit -> least original index
        self.regularity_violations = regularity_violations

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


class OrbitNerve:
    """The orbit trisp of the nerve of a poset under a group of its automorphisms.

    Built from chain orbits by `orbit_nerve`, never from the nerve itself,
    and numbered as `quotient_trisp` numbers the orbits of the nerve: in
    each dimension by least member.  A chain is its object tuple, listed
    from the least object up, as the nerve's vertex tuples are.  Of a least
    chain only the top is kept; its row's last entry is the orbit of the rest.
    """

    def __init__(self, trisp, tops, orbit_sizes, obj_orbit, regularity_violations):
        self.trisp = trisp
        self.tops = tops  # per dimension, orbit -> the top object of its least chain
        self.orbit_sizes = orbit_sizes  # per dimension, orbit -> |G| / |Stab| of its chains
        self.obj_orbit = obj_orbit  # object -> vertex orbit
        self.regularity_violations = regularity_violations

    @property
    def regularity_witness(self):
        """None when the orbit trisp is regular, else its first irregular orbit.

        The witness is read off that orbit's least chain: ((d, orbit), the
        chain, the vertex orbit of each of its objects), two of which agree.
        """
        if not self.regularity_violations:
            return None
        d, o = self.regularity_violations[0]
        chain, s = [self.tops[d][o]], o
        for k in range(d, 0, -1):  # down the last faces, the chain less its top each time
            s = self.trisp.boundary_table(k)[s][-1]
            chain.append(self.tops[k - 1][s])
        return ((d, o), tuple(chain[::-1]), tuple(self.obj_orbit[x] for x in chain[::-1]))


def orbit_nerve(p, elements):
    """The orbit trisp of the nerve of the poset `p` under a group, by orderly generation.

    `elements` is the group, closed by the caller, as the object map of
    each element, listed once: two that agree on the base below raise
    PreconditionError.  Preconditions: each is an automorphism of `p`, and
    the targets of each ``out[x]`` ascend, as `poset_from_relation` lists
    them: they are x's up-list, not sorted again.  The order of the
    elements does not matter.  An object's orbit is its set of images, and
    orbits are numbered by least member.  Each orbit o of chains is listed
    once, by its least chain L(o) in the lexicographic order of object tuples:
    - the least chains of the vertex orbits are their least objects;
    - a least chain C with stabilizer S is extended at its top by each y
      above it that is least in its S-orbit (every y when S is the
      identity alone), and C + y has stabilizer {g in S : gy = y}.
    C + y is least in its orbit: an image gC + gy is larger unless gC = C,
    and then g is in S and gy >= y.  Every orbit is reached once: a chain
    D + z is moved by some g onto C + gz with C least, and then by some h
    in S onto C + y with y least in the S-orbit of gz; two such y in one
    orbit would lie in one S-orbit.  Taking the parents in order and each
    y ascending lists every level sorted by least chain.

    Each least chain carries, for its face F_i in orbit o_i, an element h_i
    with h_i F_i = L(o_i).  The faces of C + y are C and each F_i + y.  An
    image gF + gy is least only if gF = L(o), that is for g in Stab(L(o))∘h:
    the least image of F + y is L(o) + y', the child of o at y', where y'
    is least in the Stab(L(o))-orbit of w = h y, and s∘h carries F + y onto
    it for the s with s w = y'.  A vertex y is the empty chain + y, carried
    by the inverse of an element that takes y's least object to y.  An
    element is named by its images of a base, objects each moved by an
    element that fixes the ones before, so s∘h is one lookup.
    """
    obj_orbit = next(levels := _chain_orbits(p, elements))
    tops, sizes, bnd = list(zip(*levels)) or ((), (), ())
    t = Trisp(list(map(len, tops)), list(bnd[1:]))
    return OrbitNerve(t, tops, sizes, tuple(obj_orbit), regularity_violations(t))


def _chain_orbits(p, elements):
    """`orbit_nerve`'s object orbits, then per level (tops, sizes, rows), grown lazily."""
    n, order, tgt = p.n, len(elements), p.category.tgt
    up = [tgt[ms[0]:ms[-1] + 1] if ms else () for ms in p.category.out]
    obj_orbit, reps, images = [-1] * n, [], []
    for x in range(n):
        if obj_orbit[x] < 0:
            images.append(list(map(itemgetter(x), elements)))
            for y in images[-1]:
                obj_orbit[y] = len(reps)
            reps.append(x)
    base, fixers = [], elements
    for x in range(n):
        if len(fixers) > 1 and any(g[x] != x for g in fixers):
            base.append(x)
            fixers = [g for g in fixers if g[x] == x]
    keys = list(zip(*[list(map(itemgetter(b), elements)) for b in base])) or [()] * order
    index = dict(zip(keys, range(order)))
    if len(index) < order:
        j = next(j for j, key in enumerate(keys) if index[key] != j)
        raise PreconditionError(f"elements {j} and {index[keys[j]]} agree on the base {base}")
    e = index[tuple(base)]
    trivial = [elements[e]]  # the one stabilizer that is the identity alone
    yield obj_orbit

    def least_point(o, w):
        """The least point of w's orbit under Stab(L(o)), and an element taking w to it."""
        if prev[o] is elements:  # o is the empty chain
            g = elements[images[obj_orbit[w]].index(w)]
            return reps[obj_orbit[w]], elements[index[tuple(map(g.index, base))]]
        moved = [s[w] for s in prev[o]]
        return min(moved), prev[o][moved.index(min(moved))]

    # level 0: a vertex's one face is the empty chain, whose stabilizer is the group
    prev, tops, first, ids = [elements], reps, [0, len(reps)], range(len(reps))
    rows, carried = [(0,)] * len(reps), [e] * len(reps)
    stabs = [[g for g in elements if g[r] == r] for r in reps]
    stabs = [stab if len(stab) > 1 else trivial for stab in stabs]
    while tops:
        # one shared int for the many chains whose stabilizer is the identity alone
        sizes = tuple(order if stab is trivial else order // len(stab) for stab in stabs)
        yield tops, sizes, rows
        width, least = len(rows[0]), {}  # a chain's length, its number of faces
        grown, grown_stabs, grown_rows, grown_carried, grown_first = [], [], [], [], []
        for k, top in enumerate(tops):
            stab = stabs[k]
            grown_first.append(len(grown))
            if not up[top]:
                continue
            faces = [(first[o], first[o + 1], o, elements[h], h, prev[o] is trivial)
                     for o, h in zip(rows[k], carried[k * width:(k + 1) * width])]
            for y in up[top]:
                if stab is not trivial and any(g[y] < y for g in stab):
                    continue
                fixing = trivial if stab is trivial else [g for g in stab if g[y] == y]
                grown.append(y)
                grown_stabs.append(trivial if len(fixing) == 1 else fixing)
                row = []
                for lo, hi, o, g, h, plain in faces:
                    w = g[y]
                    if not plain:
                        w, s = least.get((o, w)) or least.setdefault((o, w), least_point(o, w))
                        if s is not trivial[0]:
                            h = index[tuple(map(s.__getitem__, keys[h]))]
                    # the child of o at w: o's children have the tops tops[lo:hi], ascending
                    row.append(ids[bisect_left(tops, w, lo, hi)])
                    grown_carried.append(h)
                grown_rows.append((*row, k))
                grown_carried.append(e)
        grown_first.append(len(grown))
        # one int object per index, shared by every row that names it
        tops, first, ids = grown, grown_first, list(range(len(grown)))
        prev, stabs, rows, carried = stabs, grown_stabs, grown_rows, grown_carried


def check_regular_action(qt):
    """The quotient-regularity condition, read off the orbit trisp `qt`.

    The condition: for every group element g and simplex σ, every common
    iterated face of σ and gσ (including σ itself when gσ = σ) is fixed by
    g and fixed vertexwise.  It guarantees that T/G is a regular trisp.

    On a trisp whose simplices have pairwise distinct vertices it holds iff no
    simplex has two distinct vertices in one orbit.  ⇒: if w = gv ≠ v in σ, g
    moves the common face {w} of σ and gσ.  ⇐: a vertex u of a common face τ has
    g⁻¹u in σ and in u's orbit, so g⁻¹u = u, and g⁻¹τ = τ as both are faces of σ
    on one vertex set.

    The generators commute with the boundaries, so the representative σ of the
    first irregular orbit repeats a vertex (PreconditionError) or has vertices
    v ≠ w in one orbit; only then is the group closed, to name a g with gv = w:
    g moves the common face {w} of σ and gσ.  The witness is (element index,
    simplex, face, kind); None when the condition holds.
    """
    if qt.regular:
        return None
    d, orbit = qt.regularity_violations[0]
    sigma = qt.reps[d][orbit]
    vertices = qt.source.vertex_tuple(d, sigma)
    if len(set(vertices)) != len(vertices):
        raise PreconditionError(f"trisp is not regular at {(d, sigma)}")
    proj0 = qt.projection[0]
    v, w = next((v, w) for v in vertices for w in vertices if v != w and proj0[v] == proj0[w])
    gi = next(gi for gi, g in enumerate(qt.action.elements) if g.dims[0][v] == w)
    return (gi, (d, sigma), (0, w), "moved")


class QuotientCategory:
    """Colimit quotient of a category by a group action.

    Objects are object orbits; morphisms are classes of the congruence
    generated by m ~ gm and closed under composition of equal classes;
    ``mor_class`` is None when read off chain orbits (`poset_quotient_category`)."""

    def __init__(self, source, action, category, obj_class, mor_class, obj_members):
        self.source = source  # AcyclicCategory
        self.action = action  # GroupAction
        self.category = category
        self.obj_class = obj_class  # object -> class index
        self.mor_class = mor_class  # morphism -> class index
        self.obj_members = obj_members

    @cached_property
    def nerve(self):
        """The nerve of the quotient category, built on first read."""
        return nerve(self.category)


def quotient_category(c, action):
    """Quotient of `c` by a horizontal action; composition is read off the composable pairs.

    Preconditions: `c` is a valid acyclic category (`validate_category`) and
    the generators are automorphisms of it (as `close_group` checks).

    Only the representative pairs (m1, m2), whose first source is an
    object-orbit representative, are scanned.  The union-find runs on the
    morphism orbits.  A composable pair is a translate (g r1, g r2) of a
    representative pair, with composite g r12, so it has the class key of
    (r1, r2) and its composite lies in the class of r12: the first
    composites give the class composition.  Roots are least orbits, so the
    classes do not depend on the order of the unions.

    One pass over the representative pairs reaches the least congruence,
    so there is no second pass.  Call ab and ab' adjacent when b and b'
    lie in one morphism orbit, and let ≈ be the equivalence generated by
    the orbits and adjacency; every congruence holding the orbits holds ≈.
    And ≈ is a congruence:
    - if b ≈ b' and both follow a, then ab ≈ ab': move each morphism of a
      chain from b to b' onto the source of b by a group element; an orbit
      step becomes one by an element fixing that source, so a times its
      two sides is an adjacency, and an adjacency pq, pq' becomes the
      adjacency (ap)q, (ap)q';
    - if a ≈ a' in one step, each b after a has b' = g b after a' with
      ab ≈ a'b': for a' = g a, a'b' = g(ab); for a = pq, a' = pq' with
      q' = g q, ab = p(qb) and a'b' = p g(qb) are adjacent.  Walking a
      chain from a to a' and ending with the first case, ab ≈ a'b'
      whenever b ≈ b'.
    The pass makes every adjacency, and each of its unions is forced, so
    its classes are those of ≈.  A group element moves ab and ab' onto the
    composites of two representative pairs in the inner loop of one first
    factor r1, where their keys agree: the second factors share an orbit,
    so a class from the start, and no union in that loop touches the class
    of r1.  Such a union joins composites that end in the orbit of the
    second factor's target, which is not the orbit of r1's target (the
    action is horizontal and `c` acyclic), and each class keeps the
    endpoint orbits of its members.

    A check is left out because it cannot fail.  Endpoints are constant on
    classes, so each class takes those of its least member: the members of
    a morphism orbit have their sources in one object orbit and their
    targets in another, as each generator is an automorphism, and a union
    joins two composites whose first factors share a class and whose last
    factors share a class.  Each class pair has one composite class, as the
    classes are a congruence (`AcyclicCategory` rejects a second one), so
    the projection is a functor.
    """
    maps = morphism_maps(action)  # a poset action is refused first
    witness = check_horizontal(c, action)
    if witness is not None:
        raise PreconditionError(f"action is not horizontal at {witness}")
    # union-find nodes are the morphism orbits, by least member
    mor_orbit, mor_reps = orbit_partition(maps, c.n_morphisms)
    obj_class, obj_reps = orbit_partition([g.dims[0] for g in action.generators], c.n_objects)
    uf = _UnionFind(len(mor_reps))
    # congruence: composites of pairs in one class pair share a class
    first = {}  # (class of m1's orbit, class of m2's orbit) -> orbit of the first composite
    for x in obj_reps:
        for m1 in c.out[x]:
            r1 = uf.find(mor_orbit[m1])  # once: no union in m1's loop touches its class (above)
            for m2 in c.out[c.tgt[m1]]:
                m12 = c.comp.get((m1, m2))
                if m12 is None:
                    raise PreconditionError(f"composition table incomplete at {(m1, m2)}")
                o12 = mor_orbit[m12]
                uf.union(first.setdefault((r1, uf.find(mor_orbit[m2])), o12), o12)
    return _class_quotient(c, action, obj_class, uf, first, mor_reps, mor_orbit)


def poset_quotient_category(p, action, elements):
    """`quotient_category` of the poset `p`, read off the 2-skeleton of its orbit nerve.

    `elements` is the group `action` generates, as `orbit_nerve` takes it.
    The union-find runs on the morphism orbits, each led by its least chain
    x < y, whose morphism is its least, so the classes are numbered and
    labelled as in `quotient_category`.  An orbit of chains x < y < z has
    the row ∂0, ∂1, ∂2, the orbits of y < z, x < z, x < y.  One pass keys
    each row by (class ∂2, class ∂0) and unites ∂1 with the first composite
    of its key.  It is enough, by `quotient_category`'s argument on rows: a
    group element moves adjacent ab, ab' onto x < y < z, x < y < z', x < y
    least; a least chain's prefix is least, so their orbits' rows share the
    parent x < y and the orbit ∂0 of b and b', and come one after another.
    No union among them touches the class of ∂2 or of a ∂0, as it joins
    composites from x's orbit into another than y's (the action is
    horizontal, `p` acyclic), where ∂2 ends and each ∂0 starts.
    """
    levels = _chain_orbits(p, elements)
    obj_class, vertices = next(levels), next(levels, ((),))[0]
    tops, _sizes, rows = next(levels, ((), (), ()))  # no morphism: no level 1, nor 2
    edges = [(vertices[row[-1]], y) for row, y in zip(rows, tops)]  # parent x, top y
    witness = next(((x, y) for x, y in edges if obj_class[x] == obj_class[y]), None)
    if witness is not None:  # as `check_horizontal` names it: the first is least in its orbit
        raise PreconditionError(f"action is not horizontal at {witness}")
    uf, first = _UnionFind(len(edges)), {}
    for a0, a1, a2 in next(levels, ((), (), ()))[2]:
        uf.union(first.setdefault((uf.find(a2), uf.find(a0)), a1), a1)
    tgt, out = p.category.tgt, p.category.out
    least = [bisect_left(tgt, y, out[x][0], out[x][-1] + 1) for x, y in edges]
    return _class_quotient(p.category, action, obj_class, uf, first, least, None)


def _class_quotient(c, action, obj_class, uf, first, least, mor_orbit):
    """The quotient whose morphisms are `uf`'s classes of orbits, each orbit k led by
    the morphism `least[k]`; `mor_orbit`, morphism -> orbit, or None, gives mor_class."""
    orbit_class, root_orbits = uf.classes()  # each class's least orbit
    obj_members = [[] for _ in range(max(obj_class, default=-1) + 1)]
    for x, k in enumerate(obj_class):
        obj_members[k].append(x)
    labels = [f"[{c.objects[members[0]]}]" for members in obj_members]
    roots = map(least.__getitem__, root_orbits)  # each class's least morphism
    mor_list = [(obj_class[c.src[m]], obj_class[c.tgt[m]], f"[{c.mor_labels[m]}]") for m in roots]
    # the class composition is the image of the first-composite table
    comp = [(orbit_class[a], orbit_class[b], orbit_class[o]) for (a, b), o in first.items()]
    quotient = AcyclicCategory(labels, mor_list, comp)
    report = validate_category(quotient)
    if not report.ok:
        raise SoundnessError(f"quotient category invalid: {report.to_json()}")
    mor_class = None if mor_orbit is None else tuple(map(orbit_class.__getitem__, mor_orbit))
    obj_members = tuple(map(tuple, obj_members))
    return QuotientCategory(c, action, quotient, tuple(obj_class), mor_class, obj_members)


class CanonicalMap:
    """The canonical comparison from the orbit trisp of the nerve to the nerve
    of the quotient category, as its simplex map.

    It is bijective on vertices and surjective in every dimension.
    """

    def __init__(self, nerve_dst, entries):
        self.nerve_dst = nerve_dst  # Nerve
        self.entries = entries  # per dimension, orbit index -> simplex of nerve_dst

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
    """The canonical map of `qc` (from `quotient_category`), off its source nerve's orbit trisp.

    It commutes with the boundaries with no check.  The class projection is
    a functor (`quotient_category`), so the i-th face of a chain, which drops
    an end or composes two neighbours, goes to the i-th face of its image.
    The i-th face of an orbit is the orbit of that face of its least chain,
    and the map is constant on orbits, as each class holds whole orbits.
    On vertices it is the identity, so bijective with no check: the vertex
    orbits of the nerve and the object classes of `qc` are the orbits of
    the same object permutations, both numbered by their least member
    (`orbit_partition`), and the vertex orbit o goes to the class of its
    least vertex, which is o.
    """
    nerve_src = nerve(qc.source)
    qt = quotient_trisp(nerve_src.trisp, induced_trisp_action(nerve_src, qc.action))
    nerve_dst = qc.nerve
    entries = [tuple(qc.obj_class[v] for v in qt.reps[0])] if qt.reps else []
    for chains, reps in zip(nerve_src.chains[1:], qt.reps[1:]):
        images = (tuple(qc.mor_class[m] for m in chains[rep]) for rep in reps)
        entries.append(tuple(map(nerve_dst.simplex_of_morphisms, images)))
    return CanonicalMap(nerve_dst, tuple(entries))
