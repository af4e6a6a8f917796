"""Independent oracles and enumerators used to cross-check the implementation.

Everything here recomputes results by brute force along a different route
than the library: path counting for nerve sizes, factorization matching for
morphism classes, exhaustive enumeration of posets and operators, the
closure kernels on dicts and sets keyed by (d, s) with an explicit coface
table, as they were before the library moved them onto per-dimension arrays,
the category quotient over the whole composition table, as it was before
the library scanned only orbit-representative pairs, and the recursive
search for a collapse to a point, as it was before the library gave it its
own stack.  Inverses and identity tests of group elements live here too,
with the small constructions only tests read: chain posets, opposite
categories, the functor an order-preserving map of a poset induces, functor
checks, nerves of functors, class coherence of an operator and lifts
through the canonical map.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple

from trispcat.accat import (
    AcyclicCategory,
    as_poset,
    check_closure_operator,
    poset_from_relation,
    validate_category,
)
from trispcat.closure import (
    ClosureVerifyReport,
    CollapseCertificate,
    Matching,
    check_matching_acyclic,
)
from trispcat.equivariant import image_quotient_nerve
from trispcat.errors import PreconditionError, SoundnessError
from trispcat.graphs import lift_to_edges, sn_generator_perms
from trispcat.nerve import nerve
from trispcat.symmetry import (
    CatAut,
    GroupAction,
    QuotientCategory,
    TrispAut,
    _UnionFind,
    check_horizontal,
    close_group,
    induced_trisp_action,
    orbit_partition,
    quotient_category,
    quotient_trisp,
    trivial_cat_action,
)
from trispcat.trisp import euler_characteristic, induced_subtrisp


def natural_orders(n):
    """All transitive relations contained in the numeric order on n elements."""
    pairs_all = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs_all)):
        rel = {pairs_all[i] for i in range(len(pairs_all)) if (mask >> i) & 1}
        if all(
            (a, c) in rel
            for (a, b) in rel
            for (b2, c) in rel
            if b2 == b
        ):
            out.append(rel)
    return out


def all_posets_upto_iso(max_n):
    """One poset per isomorphism class, for every size up to max_n."""
    posets = []
    for n in range(1, max_n + 1):
        seen = set()
        for rel in natural_orders(n):
            canon = min(
                tuple(sorted((p[x], p[y]) for (x, y) in rel))
                for p in permutations(range(n))
            )
            if canon in seen:
                continue
            seen.add(canon)
            posets.append(poset_from_relation(n, rel))
    return posets


def count_chains_by_length(c):
    """Number of composable chains of each length, by path counting."""
    totals = [c.n_objects]
    count = {x: 1 for x in range(c.n_objects)}
    while True:
        nxt = {}
        for m in range(c.n_morphisms):
            nxt[c.tgt[m]] = nxt.get(c.tgt[m], 0) + count.get(c.src[m], 0)
        total = sum(nxt.values())
        if total == 0:
            return totals
        totals.append(total)
        count = nxt


def decomposition_quotient_classes(c, action):
    """Morphism classes from factorization matching, the direct definition.

    Two morphisms are related when they admit factorizations of equal length
    whose factors are orbit-equal position by position; the classes are the
    transitive closure of that relation.
    """
    orbit = list(range(c.n_morphisms))
    changed = True
    while changed:
        changed = False
        for g in action.elements:
            for m in range(c.n_morphisms):
                a, b = orbit[m], orbit[g.mor[m]]
                if a != b:
                    lo, hi = min(a, b), max(a, b)
                    for i in range(c.n_morphisms):
                        if orbit[i] == hi:
                            orbit[i] = lo
                    changed = True

    splits = {}
    for (m1, m2), m12 in c.comp.items():
        splits.setdefault(m12, []).append((m1, m2))

    memo = {}

    def decompositions(m):
        if m in memo:
            return memo[m]
        memo[m] = {(m,)}
        for m1, m2 in splits.get(m, ()):
            for rest in decompositions(m2):
                memo[m].add((m1,) + rest)
        return memo[m]

    parent = list(range(c.n_morphisms))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    buckets = {}
    for m in range(c.n_morphisms):
        for decomp in decompositions(m):
            signature = tuple(orbit[z] for z in decomp)
            buckets.setdefault(signature, []).append(m)
    for members in buckets.values():
        for m in members[1:]:
            ra, rb = find(members[0]), find(m)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(m) for m in range(c.n_morphisms)})
    rank = {r: i for i, r in enumerate(roots)}
    return [rank[find(m)] for m in range(c.n_morphisms)]


def monotone_idempotent_maps(p):
    """All monotone idempotent self-maps of a poset, as tuples of object images."""
    n = p.n
    out = []

    def extend(values):
        if len(values) == n:
            if all(values[values[x]] == values[x] for x in range(n)):
                out.append(tuple(values))
            return
        x = len(values)
        for y in range(n):
            if all(
                not p.lt(z, x) or p.leq(values[z], y)
                for z in range(x)
            ) and all(
                not p.lt(x, z) or p.leq(y, values[z])
                for z in range(x)
            ):
                extend(values + [y])

    extend([])
    return out


def poset_automorphisms(p):
    """All automorphisms of a poset, as category automorphisms."""
    out = []
    for perm in permutations(range(p.n)):
        if all(p.lt(perm[x], perm[y]) == p.lt(x, y) for x in range(p.n) for y in range(p.n)):
            mor = [None] * p.category.n_morphisms
            for (x, y), m in p.mor_of.items():
                mor[m] = p.mor_of[(perm[x], perm[y])]
            out.append(CatAut(tuple(perm), tuple(mor)))
    return out


def subgroups_upto_order(p, max_order):
    """All subgroups of Aut(P) of order at most max_order (as GroupActions)."""
    auts = poset_automorphisms(p)
    seen = {}
    trivial = trivial_cat_action(p.category)
    seen[frozenset(trivial.elements)] = trivial
    for g in auts:
        action = GroupAction((g,))
        if action.order <= max_order:
            seen.setdefault(frozenset(action.elements), action)
    for g, h in combinations(auts, 2):
        action = GroupAction((g, h))
        if action.order <= max_order:
            seen.setdefault(frozenset(action.elements), action)
    return list(seen.values())


def random_poset(rng, max_n=7, p_edge=0.4):
    n = rng.randint(1, max_n)
    pairs = [pair for pair in combinations(range(n), 2) if rng.random() < p_edge]
    return poset_from_relation(n, pairs)


def random_action(rng, p, max_order=6, attempts=8):
    """A random subgroup of Aut(P) with order at most max_order."""
    auts = poset_automorphisms(p)
    for _ in range(attempts):
        gens = rng.sample(auts, k=min(len(auts), rng.choice([1, 2])))
        action = GroupAction(tuple(gens))
        if 1 < action.order <= max_order:
            return action
    return trivial_cat_action(p.category)


def random_path_category(rng, max_nodes=5, max_edges=6):
    """Free category on a random DAG multigraph: morphisms are directed paths.

    Duplicate edges give parallel morphisms, so this exercises the
    non-poset corners of the category machinery.
    """
    n = rng.randint(2, max_nodes)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    by_src = {}
    for i, (a, _b) in enumerate(edges):
        by_src.setdefault(a, []).append(i)
    paths = [(i,) for i in range(len(edges))]
    frontier = list(paths)
    while frontier:
        new = [
            p + (e,)
            for p in frontier
            for e in by_src.get(edges[p[-1]][1], ())
        ]
        paths.extend(new)
        frontier = new
    paths.sort()
    index = {p: i for i, p in enumerate(paths)}
    morphisms = [
        (edges[p[0]][0], edges[p[-1]][1], "e" + "".join(map(str, p))) for p in paths
    ]
    comp = [
        (index[p1], index[p2], index[p1 + p2])
        for p1 in paths
        for p2 in paths
        if edges[p1[-1]][1] == edges[p2[0]][0]
    ]
    return AcyclicCategory(n, morphisms, comp)


def chain_poset(k):
    """The total order 0 < 1 < ... < k-1."""
    return poset_from_relation(k, [(i, i + 1) for i in range(k - 1)])


def opposite_category(c):
    """Same objects, all morphisms reversed."""
    morphisms = [(c.tgt[m], c.src[m], c.mor_labels[m]) for m in range(c.n_morphisms)]
    comp = [(m2, m1, m12) for (m1, m2), m12 in c.comp.items()]
    return AcyclicCategory(c.objects, morphisms, comp)


class Functor(NamedTuple):
    """A functor given by an object map and a morphism map.

    A morphism entry of None means the morphism collapses to the identity
    at the (shared) image of its endpoints.
    """

    obj: tuple
    mor: tuple


def poset_functor(p, obj):
    """The functor on a poset that an order-preserving object map induces."""
    obj = tuple(obj)
    mor = [None] * p.category.n_morphisms
    for (x, y), m in p.mor_of.items():
        fx, fy = obj[x], obj[y]
        if not p.leq(fx, fy):
            raise ValueError(f"object map is not order-preserving at {(x, y)}")
        mor[m] = None if fx == fy else p.mor_of[(fx, fy)]
    return Functor(obj, tuple(mor))


def check_functor(c, d, f):
    """Witnesses where the Functor f: c -> d breaks an endpoint or a defined composite."""
    witnesses = []
    for m in range(c.n_morphisms):
        fs, ft, fm = f.obj[c.src[m]], f.obj[c.tgt[m]], f.mor[m]
        if (fs, ft) != ((fs, fs) if fm is None else (d.src[fm], d.tgt[fm])):
            witnesses.append(("endpoints", m))
    for (m1, m2), m12 in c.comp.items():
        fm1, fm2 = f.mor[m1], f.mor[m2]
        if fm1 is None or fm2 is None:
            expected = fm2 if fm1 is None else fm1
        else:
            expected = d.comp.get((fm1, fm2), "undefined")
        if f.mor[m12] != expected:
            witnesses.append(("composition", (m1, m2)))
    return witnesses


def nerve_map_images(nv_src, nv_dst, f):
    """images[d][s] = (dim, index) in nv_dst of the simplex (d, s) of nv_src under f.

    Identity components of the image chain are deleted; a chain that
    collapses entirely goes to the vertex of its image object.
    """
    images = []
    for d, level in enumerate(nv_src.chains):
        row = []
        for s, ms in enumerate(level):
            img = tuple(f.mor[m] for m in ms if f.mor[m] is not None)
            if img:
                row.append((len(img), nv_dst.simplex_of_morphisms(img)))
            else:
                row.append((0, f.obj[nv_src.trisp.vertex_tuple(d, s)[0]]))
        images.append(tuple(row))
    return tuple(images)


def check_operator_class_coherence(p, action, f):
    """Do equal morphism classes stay equal after a one-sided equivariant operator?

    Each class of the quotient of `p` must go to one class (or one identity)
    both in that quotient and in the quotient of the image subposet.  An
    ascending operator is checked as a descending one on the opposite poset,
    where the same permutations act.  Returns (ok, witnesses).
    """
    report = check_closure_operator(p, f)
    if report.direction() is None:
        raise PreconditionError("operator is not one-sided")
    if not report.descending:
        p = as_poset(opposite_category(p.category))
        action = close_group(list(action.generators), on=p)
    if any(f[g.obj[x]] != g.obj[f[x]] for g in action.generators for x in range(p.n)):
        raise PreconditionError("operator is not equivariant")
    qc = quotient_category(p.category, action)
    keep, sub_qc = image_quotient_nerve(p, action, f)
    sub_p = as_poset(sub_qc.source)
    pos = {x: i for i, x in enumerate(keep)}

    def arrow_class(q, poset, x, y):
        return ("id", q.obj_class[x]) if x == y else ("mor", q.mor_class[poset.mor_of[(x, y)]])

    witnesses = []
    for members in class_members(qc.mor_class):
        tags_q, tags_img = set(), set()
        for m in members:
            fx, fy = f[p.category.src[m]], f[p.category.tgt[m]]
            tags_q.add(arrow_class(qc, p, fx, fy))
            tags_img.add(arrow_class(sub_qc, sub_p, pos[fx], pos[fy]))
        if len(tags_q) > 1:
            witnesses.append(("quotient", members, tuple(sorted(tags_q))))
        if len(tags_img) > 1:
            witnesses.append(("image-quotient", members, tuple(sorted(tags_img))))
    return (not witnesses), witnesses


def class_members(classes):
    """members[k] = the items of class k, in increasing order."""
    members = [[] for _ in range(max(classes, default=-1) + 1)]
    for item, k in enumerate(classes):
        members[k].append(item)
    return tuple(tuple(m) for m in members)


def canonical_lifts(qc, cm):
    """lifts[d][s] = an orbit of the source nerve over the simplex (d, s) of the quotient nerve.

    `cm` is the canonical map of `qc`; its orbits are those of the orbit
    trisp rebuilt here.  A chain of classes is lifted one morphism at a
    time: each next class member must start where the lifted chain ends.
    """
    c = qc.source
    nerve_src = nerve(c)
    qt = quotient_trisp(nerve_src.trisp, induced_trisp_action(nerve_src, qc.action))
    mor_members = class_members(qc.mor_class)
    lifts = [tuple(qt.projection[0][members[0]] for members in qc.obj_members)]
    for d in range(1, cm.nerve_dst.trisp.dim + 1):
        level = []
        for classes in cm.nerve_dst.chains[d]:
            lifted = []
            for cls in classes:
                lifted.append(next(
                    m for m in mor_members[cls] if not lifted or c.src[m] == c.tgt[lifted[-1]]
                ))
            level.append(qt.projection[d][nerve_src.simplex_of_morphisms(lifted)])
        lifts.append(tuple(level))
    return tuple(lifts)


def invert_perm(g):
    inv = [0] * len(g)
    for i, x in enumerate(g):
        inv[x] = i
    return tuple(inv)


def inverse(g):
    """Inverse of a CatAut or a TrispAut."""
    if isinstance(g, CatAut):
        return CatAut(invert_perm(g.obj), invert_perm(g.mor))
    return TrispAut(tuple(invert_perm(p) for p in g.dims))


def is_identity(g):
    """Does the CatAut or TrispAut fix everything?"""
    perms = (g.obj, g.mor) if isinstance(g, CatAut) else g.dims
    return all(all(i == x for i, x in enumerate(p)) for p in perms)


def regular_action_oracle(t, action):
    """The quotient-regularity condition by its definition, over every group element.

    For every element g and simplex σ, every common iterated face of σ and
    gσ must be fixed by g and fixed vertexwise.  Returns (ok, witness) with
    the witness (element index, simplex, face, kind).
    """
    moving = [(gi, g, inverse(g)) for gi, g in enumerate(action.elements) if not is_identity(g)]
    for d in range(t.dim + 1):
        for s in range(t.n(d)):
            face_list = sorted(iterated_faces(t, d, s))
            face_set = set(face_list)
            for gi, g, inv in moving:
                for (dd, ss) in face_list:
                    if (dd, inv.dims[dd][ss]) not in face_set:
                        continue  # not a face of g(σ)
                    if g.dims[dd][ss] != ss:
                        return False, (gi, (d, s), (dd, ss), "moved")
                    if any(g.dims[0][v] != v for v in t.vertex_tuple(dd, ss)):
                        return False, (gi, (d, s), (dd, ss), "vertex")
    return True, None


def quotient_category_oracle(c, action):
    """`symmetry.quotient_category` as it was before it scanned only
    representative pairs: the fixpoint and the functor check run over every
    entry of the composition table."""
    horizontal, witness = check_horizontal(c, action)
    if not horizontal:
        raise PreconditionError(f"action is not horizontal at {witness}")
    obj_class, obj_reps = orbit_partition([g.obj for g in action.generators], c.n_objects)

    uf = _UnionFind(c.n_morphisms)
    for g in action.generators:
        for m in range(c.n_morphisms):
            uf.union(m, g.mor[m])
    changed = True
    while changed:
        changed = False
        first = {}
        for (m1, m2), m12 in c.comp.items():
            key = (uf.find(m1), uf.find(m2))
            changed |= uf.union(first.setdefault(key, m12), m12)

    mor_class, roots = uf.classes()
    mor_members = [[] for _ in roots]
    for m in range(c.n_morphisms):
        mor_members[mor_class[m]].append(m)
    obj_members = [[] for _ in obj_reps]
    for x in range(c.n_objects):
        obj_members[obj_class[x]].append(x)

    q_src, q_tgt = [], []
    for members in mor_members:
        srcs = {obj_class[c.src[m]] for m in members}
        tgts = {obj_class[c.tgt[m]] for m in members}
        if len(srcs) != 1 or len(tgts) != 1:
            raise SoundnessError("congruence broke endpoint classes")
        q_src.append(srcs.pop())
        q_tgt.append(tgts.pop())

    comp_entries = {}
    for (m1, m2), m12 in c.comp.items():
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


def simplicial_automorphism_violation(t, g):
    """Setwise automorphism check: faces must map to faces, but positions may permute.

    Vertex relabelings of a simplicial complex are automorphisms in this
    sense even when they reverse the vertex order inside a simplex; they
    need not commute with the ordered boundary operators, which is what the
    quotient machinery requires.
    """
    if len(g.dims) != t.dim + 1:
        return ("wrong-dimension-count",)
    for d in range(t.dim + 1):
        if sorted(g.dims[d]) != list(range(t.n(d))):
            return ("not-a-permutation", d)
    for d in range(1, t.dim + 1):
        for s in range(t.n(d)):
            image_faces = set(t.faces(d, g.dims[d][s]))
            mapped_faces = {g.dims[d - 1][f] for f in t.faces(d, s)}
            if image_faces != mapped_faces:
                return ("faces", (d, s))
    return None


def dgn_trisp_action(k, perms=None):
    """The relabeling action on the complex DG_n itself (not on its face poset).

    Generated by the vertex permutations `perms` (by default the generators
    of S_n).  Relabelings permute the vertices inside a simplex, so they are
    only setwise automorphisms; the action fails the quotient-regularity
    condition unless it is trivial, which is why the pipelines act on the
    face poset instead.
    """
    gens = []
    for perm in sn_generator_perms(k.n) if perms is None else perms:
        eperm = lift_to_edges(perm, k.edges, k.edge_index)
        dims = []
        for level in k.faces_by_dim:
            table = []
            for face in level:
                image = tuple(sorted(eperm[e] for e in face))
                table.append(k.index[frozenset(image)][1])
            dims.append(tuple(table))
        g = TrispAut(tuple(dims))
        witness = simplicial_automorphism_violation(k.trisp, g)
        if witness is not None:
            raise AssertionError(f"relabeling {perm} is not a setwise automorphism: {witness}")
        gens.append(g)
    return GroupAction(tuple(gens))


def iterated_faces(t, d, s):
    """All simplices reachable by repeated boundaries, including (d, s) itself."""
    seen = {(d, s)}
    frontier = [(d, s)]
    while frontier:
        dd, ss = frontier.pop()
        if dd == 0:
            continue
        for f in t.faces(dd, ss):
            key = (dd - 1, f)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return seen


# -- reference closure kernels -------------------------------------------------


def coface_table(t):
    """cofaces[(d, s)] = all (τ, j) with ∂_j τ = s in dimension d + 1."""
    cofaces = {(d, s): [] for d in range(t.dim + 1) for s in range(t.n(d))}
    for d in range(1, t.dim + 1):
        for tau in range(t.n(d)):
            for j, f in enumerate(t.faces(d, tau)):
                cofaces[(d - 1, f)].append((tau, j))
    return cofaces


def extreme_blue(t, d, s, cmap):
    """Position and vertex of the extreme blue vertex of a simplex, or None."""
    vt = t.vertex_tuple(d, s)
    positions = [p for p, v in enumerate(vt) if v in cmap.blue]
    if not positions:
        return None
    p = positions[0] if cmap.convention == "min" else positions[-1]
    return p, vt[p]


def extensions_by_vertex(t, cofaces, d, s, vertex):
    """All (coface, j) whose j-th face is (d, s) and whose j-th vertex is `vertex`."""
    return [
        (tau, j)
        for (tau, j) in cofaces[(d, s)]
        if t.vertex_tuple(d + 1, tau)[j] == vertex
    ]


def verify_trisp_closure_map_oracle(t, cmap):
    cmap.check_vertices(t)
    for d in range(1, t.dim + 1):
        for s in range(t.n(d)):
            if len(set(t.vertex_tuple(d, s))) != d + 1:
                raise PreconditionError(f"trisp is not regular at {(d, s)}")
    cofaces = coface_table(t)
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
            exts = extensions_by_vertex(t, cofaces, d, s, phi_b)
            if len(exts) == 1:
                extended += 1
            else:
                failures.append((d, s, len(exts)))
    return ClosureVerifyReport(not failures, failures, contained, extended)


def closure_matching_oracle(t, cmap, verify_report):
    if not verify_report.ok:
        raise PreconditionError(f"not a closure map: {verify_report.failures[:3]}")
    cofaces = coface_table(t)
    up = {}
    down_partner = {}
    for d in range(t.dim + 1):
        for s in range(t.n(d)):
            hit = extreme_blue(t, d, s, cmap)
            if hit is None:
                continue
            _, b = hit
            phi_b = cmap.mapping[b]
            vt = t.vertex_tuple(d, s)
            if phi_b in vt:
                pos = vt.index(phi_b)
                down_partner[(d, s)] = (d - 1, t.face(d, s, pos))
            else:
                (tau, _j), = extensions_by_vertex(t, cofaces, d, s, phi_b)
                up[(d, s)] = (d + 1, tau)
    if len(up) != len(down_partner):
        raise AssertionError("matching rules disagree in size")
    for sigma, tau in up.items():
        if down_partner.get(tau) != sigma:
            raise AssertionError(f"inconsistent pairing at {sigma} / {tau}")
    pairs = tuple(sorted((sigma, tau) for sigma, tau in up.items()))
    return Matching(pairs)


def parent_simplices(sub):
    """The simplices (d, s) of the parent trisp that a subtrisp keeps."""
    return {(d, s) for d, level in enumerate(sub.to_parent) for s in level}


def collapse_oracle(t, matching, red_vertices):
    removed = set()
    cofaces = coface_table(t)
    coface_count = {key: len(cofs) for key, cofs in cofaces.items()}
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
            raise AssertionError(
                f"matched pair {(sigma, tau)}: the coface {tau} is already removed"
            )
        steps.append((sigma, tau))
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
    final = induced_subtrisp(t, red_vertices)
    remaining = {(d, s) for d in range(t.dim + 1) for s in range(t.n(d))} - removed
    if remaining != parent_simplices(final):
        raise AssertionError("final subtrisp is not the red subtrisp")
    if euler_characteristic(final.trisp) != chi:
        raise AssertionError("collapse changed the Euler characteristic")
    return CollapseCertificate(tuple(steps), final, chi)


def verify_collapse_sequence_oracle(t, steps):
    remaining = {(d, s) for d in range(t.dim + 1) for s in range(t.n(d))}
    cofaces = coface_table(t)
    coface_count = {}
    for (d, s) in remaining:
        count = sum(1 for (tau, _j) in cofaces[(d, s)] if (d + 1, tau) in remaining)
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
        if coface_count[tau] != 0:
            raise AssertionError(f"coface {tau} is not maximal (count {coface_count[tau]})")
        for cell in (tau, sigma):
            remaining.discard(cell)
            dd, ss = cell
            if dd > 0:
                for f in t.faces(dd, ss):
                    if (dd - 1, f) in remaining:
                        coface_count[(dd - 1, f)] -= 1
    return remaining


def search_collapse_to_point_oracle(t):
    """Recursive backtracking search for a collapse to a vertex: the steps, or None.

    Least free pair first, failed states memoized; recursion depth is the
    number of steps, so this is for small complexes only.
    """
    failed = set()

    def free_pairs(remaining):
        count, partner = {}, {}
        for (d, s) in remaining:
            for f in t.faces(d, s) if d > 0 else ():
                count[(d - 1, f)] = count.get((d - 1, f), 0) + 1
                partner[(d - 1, f)] = (d, s)
        return sorted(
            (sigma, partner[sigma])
            for sigma, c in count.items()
            if c == 1 and sigma in remaining and partner[sigma] not in count
        )

    def dfs(remaining):
        if len(remaining) == 1 and next(iter(remaining))[0] == 0:
            return []
        if remaining in failed:
            return None
        for sigma, tau in free_pairs(remaining):
            steps = dfs(remaining - {sigma, tau})
            if steps is not None:
                return [(sigma, tau)] + steps
        failed.add(remaining)
        return None

    steps = dfs(frozenset((d, s) for d in range(t.dim + 1) for s in range(t.n(d))))
    return tuple(steps) if steps is not None else None
