"""Complexes of disconnected graphs, partition posets, and the two collapse pipelines.

The complex DG_n has one vertex per possible edge of a graph on n labeled
vertices and one simplex per nonempty edge set whose graph is disconnected
(isolated vertices count).  It is built by extending each face by one larger
edge, and each face carries the partition of {0..n-1} into the components of
its graph.  The symmetric group acts by relabeling graph vertices; taking
transitive closures of graphs gives an ascending, equivariant closure
operator on the face poset whose image is the poset of nontrivial set
partitions.
"""

import math
import time
from itertools import combinations

from .accat import check_closure_operator, find_terminal_object, poset_from_relation
from .closure import (
    cone_closure_map,
    full_collapse_audit,
    induced_trisp_closure_map,
    search_collapse_to_point,
    verify_collapse_sequence,
)
from .equivariant import (
    check_equivariant,
    check_image_subtrisp_equality,
    image_quotient_nerve,
    push_to_orbits,
    quotient_poset_closure_map,
)
from .errors import InputError, PipelineError, SoundnessError
from .nerve import chain_counts
from .symmetry import (
    Aut, GroupAction, close_group, lift_elements, orbit_nerve, poset_quotient_category,
)
from .trisp import (
    euler_characteristic,
    reverse_trisp,
    simplicial_from_faces,
    trisps_equal_over_vertices,
)


# -- the complex of disconnected graphs -------------------------------------


def edge_list(n):
    """Possible edges of a labeled graph on {0..n-1}, in lexicographic order."""
    return tuple(combinations(range(n), 2))


class GraphComplex:
    def __init__(self, n, edges, trisp, faces_by_dim, index, edge_index, components, closed):
        self.n = n
        self.edges = edges  # edge id -> vertex pair
        self.trisp = trisp
        self.faces_by_dim = faces_by_dim  # per dimension, sorted tuples of edge ids
        self.index = index  # frozenset of edge ids -> (d, s)
        self.edge_index = edge_index  # vertex pair -> edge id
        # per dimension, the partition of each face (one object per partition)
        self.components = components
        self.closed = closed  # partition -> (d, s) of the union of complete graphs on its blocks

    def edge_label(self, e):
        a, b = self.edges[e]
        return f"{a + 1}{b + 1}"


def build_dgn(n):
    """All nonempty edge sets of disconnected graphs on n labeled vertices.

    A face of k+1 edges extends a face of k edges by a larger edge, since a
    subset of a disconnected edge set is disconnected.  Each level comes in
    lexicographic order, as `faces_by_dim` sorts it, so the partitions line
    up with it.  An extension's partition merges the blocks of the new
    edge's ends; one block left means connected, and it is dropped.  A face
    is its partition's closure when it has as many edges as the complete
    graphs on the blocks.  Blocks are sorted, ordered by least member.
    """
    if not 3 <= n <= 6:
        raise InputError(f"n must be between 3 and 6, got {n}")
    edges = edge_list(n)
    m = len(edges)
    interned, merged = {}, {}  # partition -> its one object; (partition, edge) -> merge

    def merge(p, e):
        if (p, e) not in merged:
            a, b = edges[e]
            ends = [block for block in p if a in block or b in block]
            rest = [block for block in p if block not in ends]
            q = tuple(sorted(rest + [tuple(sorted(sum(ends, ())))]))
            merged[(p, e)] = interned.setdefault(q, q)
        return merged[(p, e)]

    levels = [[((e,), merge(tuple((v,) for v in range(n)), e)) for e in range(m)]]
    while levels[-1]:
        levels.append([
            (face + (e,), q)
            for face, p in levels[-1]
            for e in range(face[-1] + 1, m)
            if len(q := merge(p, e)) > 1
        ])
    levels.pop()  # the first empty level
    faces = [face for level in levels for face, _p in level]
    trisp, faces_by_dim, index = simplicial_from_faces(m, faces)
    components = tuple(tuple(p for _face, p in level) for level in levels)
    closed = {
        p: (d, s)
        for d, parts in enumerate(components)
        for s, p in enumerate(parts)
        if d + 1 == sum(len(b) * (len(b) - 1) // 2 for b in p)
    }
    edge_index = {pair: e for e, pair in enumerate(edges)}
    return GraphComplex(n, edges, trisp, faces_by_dim, index, edge_index, components, closed)


class FacePoset:
    def __init__(self, poset, elements, position):
        self.poset = poset
        self.elements = elements  # object -> (d, s) of the underlying trisp
        self.position = position  # (d, s) -> object

    @property
    def category(self):
        return self.poset.category


def face_poset(k):
    """Poset of the nonempty faces of a simplicial trisp, ordered by inclusion.

    The relation only puts each face over its boundary facets: every subface
    is reached through facets, so the transitive closure is inclusion.
    The pairs of a level are its boundary columns, shifted by level offsets.
    Its vertex sets must be distinct, each d-simplex having d+1 vertices.
    """
    t = k.trisp if isinstance(k, GraphComplex) else k
    elements = [(d, s) for d in range(t.dim + 1) for s in range(t.n(d))]
    position = {ds: i for i, ds in enumerate(elements)}
    pairs, labels, offset = [], [], 0
    for d in range(t.dim + 1):
        keys = list(map(frozenset, t.vertex_tuples(d)))
        if len(set(keys)) < len(keys) or any(len(key) != d + 1 for key in keys):
            raise InputError("face poset needs a simplicial complex")
        labels += ["{" + ",".join(map(str, sorted(key))) + "}" for key in keys]
        if d:
            below, faces = offset - t.n(d - 1), range(offset, offset + t.n(d))
            for column in zip(*t.boundary_table(d)):
                pairs += zip(map(below.__add__, column), faces)
        offset += t.n(d)
    poset = poset_from_relation(labels, pairs)
    return FacePoset(poset, tuple(elements), position)


# -- partitions --------------------------------------------------------------


def set_partitions(n):
    """All partitions of {0..n-1} in canonical form (sorted tuples of sorted tuples), sorted.

    Built level by level: each partition of {0..k-1} puts k into each of its
    blocks in turn, or into a new block.  k exceeds every element placed, so
    each block stays sorted, and so do the blocks by their first elements.
    """
    partitions = [()]
    for k in range(n):
        grown = []
        for p in partitions:
            grown += [p[:i] + (block + (k,),) + p[i + 1:] for i, block in enumerate(p)]
            grown.append(p + ((k,),))
        partitions = grown
    return sorted(partitions)


def partition_label(partition):
    return "|".join("".join(str(x + 1) for x in block) for block in partition)


def number_partition(partition):
    return tuple(sorted((len(b) for b in partition), reverse=True))


class PartitionPoset:
    """Set partitions of {0..n-1} except the discrete and one-block partitions.

    Built by `partition_poset`: with ``fine_on_top=True`` morphisms point
    from coarser to finer partitions, so the one-doubleton classes sit at the
    top and survive as a terminal object in the quotient.  With
    ``fine_on_top=False`` the order matches inclusion of the corresponding
    unions of complete graphs.
    """

    def __init__(self, n, partitions, poset, index):
        self.n = n
        self.partitions = partitions
        self.poset = poset
        self.index = index

    @property
    def category(self):
        return self.poset.category


def partition_poset(n, fine_on_top=True):
    if n < 3:
        raise InputError("partition poset needs n >= 3")
    parts = [
        p for p in set_partitions(n) if 1 < len(p) < n
    ]
    index = {p: i for i, p in enumerate(parts)}
    pairs = []  # the covers: q merges two blocks of p, so p is finer than q
    for i, p in enumerate(parts):
        for a, b in combinations(range(len(p)), 2):
            rest = [block for k, block in enumerate(p) if k != a and k != b]
            j = index.get(tuple(sorted(rest + [tuple(sorted(p[a] + p[b]))])))
            if j is not None:  # None: the merge is the one-block partition
                pairs.append((j, i) if fine_on_top else (i, j))
    labels = [partition_label(p) for p in parts]
    poset = poset_from_relation(labels, pairs)
    return PartitionPoset(n, tuple(parts), poset, index)


def transitive_closure_operator(k, fp):
    """The operator sending each face to the edge set of its transitive closure.

    Returned as the tuple of object images.  Ascending, idempotent, monotone,
    and equivariant on the face poset (`check_closure_operator` checks the
    first three); its image is the poset of nontrivial set partitions.
    """
    return tuple(fp.position[k.closed[k.components[d][s]]] for d, s in fp.elements)


def image_partition_isomorphism(k, fp, f, pp):
    """None if the operator image is order isomorphic to `pp`, else a witness.

    The image, as a subposet of the inclusion-ordered face poset, is matched
    against the partition poset `pp` in its inclusion orientation
    (``fine_on_top=False``); the map sends a closed edge set to the
    partition of its components.  Unless it is a bijection, the witness is
    ("sizes", image elements, partitions they reach, partitions).  The
    mapped up-sets are compared with those of the partition order; when
    they differ, the bijection shows it at a first pair (x, y).
    """
    image = sorted(set(f))
    elements = map(fp.elements.__getitem__, image)
    bijection = {x: pp.index[k.components[d][s]] for x, (d, s) in zip(image, elements)}
    reached = len(set(bijection.values()))
    if not len(image) == reached == len(pp.partitions):
        return ("sizes", len(image), reached, len(pp.partitions))
    b, above, pp_above = bijection, fp.poset.above, pp.poset.above
    if all({b[y] for y in above[x] if y in b} == pp_above[b[x]] for x in image):
        return None
    lt, pp_lt = fp.poset.lt, pp.poset.lt
    return next((x, y) for x in image for y in image if lt(x, y) != pp_lt(b[x], b[y]))


# -- symmetric group actions -------------------------------------------------


def sn_generator_perms(n):
    """The transposition (1 2) and the n-cycle, as vertex permutations."""
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return (transposition, cycle)


def lift_to_edges(perm, edges, edge_index):
    return tuple(edge_index[tuple(sorted((perm[a], perm[b])))] for a, b in edges)


def _sn_action(p, n, relabel):
    """S_n on a poset, moving its objects by `relabel(perm)`; the group is not closed.

    Generator k is built from ``sn_generator_perms(n)[k]``, so `lift_elements` can
    carry the elements of `_sn_group(n)` to the poset.  `relabel` must be an
    action, relabel(g∘h) = relabel(g)∘relabel(h), as moving faces and
    partitions by a vertex permutation is.

    The action is horizontal: `close_group` checks each generator to be a
    poset automorphism, so every element h is one, and x < hx for h of order
    k would close a cycle x < hx < ... < h^k x = x; hx < x likewise.
    """
    return close_group([relabel(perm) for perm in sn_generator_perms(n)], on=p)


def face_poset_action(k, fp):
    def relabel(perm):
        eperm = lift_to_edges(perm, k.edges, k.edge_index)
        return [
            fp.position[k.index[frozenset(eperm[e] for e in k.faces_by_dim[d][s])]]
            for (d, s) in fp.elements
        ]

    return _sn_action(fp.poset, k.n, relabel)


def partition_action(pp):
    def relabel(perm):
        return [
            pp.index[tuple(sorted(tuple(sorted(perm[x] for x in block)) for block in p))]
            for p in pp.partitions
        ]

    return _sn_action(pp.poset, pp.n, relabel)


def _sn_group(n):
    """S_n closed once, on n points, from `sn_generator_perms`; raises unless its order is n!."""
    group = GroupAction(tuple(Aut((perm,)) for perm in sn_generator_perms(n)))
    if group.order != math.factorial(n):
        raise SoundnessError(f"the S_{n} generators generate a group of order {group.order}")
    return group


# -- pipelines ----------------------------------------------------------------


class PipelineReport:
    """A pipeline's stages, each as its JSON and timed from the end of the one before."""

    def __init__(self, variant, n):
        self.variant = variant
        self.n = n
        self.ok = False
        self.stages = []
        self.certificates = {}
        self._t0 = time.perf_counter()

    def done(self, name, **info):
        t1 = time.perf_counter()
        self.stages.append({"name": name, "seconds": round(t1 - self._t0, 4), "info": info})
        self._t0 = t1

    def fail(self, name, message):
        raise PipelineError(name, message)

    def to_json(self):
        # json writes the step tuples as arrays, so they need no copy into lists
        return {
            "variant": self.variant,
            "n": self.n,
            "ok": self.ok,
            "stages": self.stages,
            "certificates": self.certificates,
        }


def pipeline_quotient_trisp(n):
    """Collapse the quotient of the barycentric subdivision onto the partition complex.

    Pushes the closure map that the transitive-closure operator induces on
    the subdivision of the disconnected-graph complex through the
    symmetric-group action, collapses the quotient onto the subtrisp of
    partition chains, and certifies by exhaustive search, with no time
    budget, that this subtrisp collapses to a point.  CLI name: pipeline 61.

    The subdivision, the nerve of the face poset, is never built.  Its
    counts come from `chain_counts`, and the quotient is built from chain
    orbits by `orbit_nerve`.  The quotient stage fails unless the orbit
    sizes |G| / |Stab| add up to those counts in every dimension, so an
    orbit listed twice or missed shows.  The pushed map is verified on the
    quotient; `push_closure_map` and `induced_trisp_action` say in their
    docstrings why their upstairs checks cannot fail here.  The
    partition-chain complex is built the same way.  S_n is closed once, on
    n points, and each element is lifted to the faces and to the partitions
    by one product (`lift_elements`).  Runs for n <= 6: DG_7 has 230,895 faces, and
    n = 7 is not measured.
    """
    if n > 6:
        raise InputError(f"pipeline 61 runs for n <= 6, got {n}")
    report = PipelineReport("quotient-trisp", n)

    k = build_dgn(n)
    report.done("build_complex", counts=list(k.trisp.counts))
    fp = face_poset(k)
    counts = chain_counts(fp.category)
    report.done("barycentric", counts=counts)

    f = transitive_closure_operator(k, fp)
    witnesses = check_closure_operator(fp.poset, f)
    if witnesses["monotone"] or witnesses["idempotent"] or witnesses["ascending"]:
        report.fail("closure_operator", str(witnesses))
    pp = partition_poset(n, fine_on_top=False)
    iso_witness = image_partition_isomorphism(k, fp, f, pp)
    if iso_witness is not None:
        report.fail("closure_operator", f"image not isomorphic to partitions at {iso_witness}")
    cmap = induced_trisp_closure_map(fp.poset, f, witnesses)
    report.done("closure_operator", image_size=len(set(f)))

    act = face_poset_action(k, fp)
    equivariance = check_equivariant(act, cmap)
    if equivariance:
        report.fail("action", f"operator not equivariant: {equivariance[:3]}")
    group = _sn_group(n)
    report.done("action", order=group.order)

    qt = orbit_nerve(fp.poset, lift_elements(group, act))
    sums = [sum(sizes) for sizes in qt.orbit_sizes]
    if sums != counts:
        report.fail("quotient", f"the orbits hold {sums} chains, the subdivision {counts}")
    report.done("quotient", counts=list(qt.trisp.counts))
    if qt.regularity_witness is not None:
        report.fail("regularity_condition", str(qt.regularity_witness))
    report.done("regularity_condition")

    pushed, verify = push_to_orbits(qt.trisp, qt.obj_orbit, qt.tops[0], cmap)
    if not verify.ok:
        report.fail("induced_closure_map", f"pushed map failed verification: {verify.failures[:3]}")
    # the orbits with a partner are the extended ones, each standing for its chains
    extended = sum(
        size
        for sizes, partners in zip(qt.orbit_sizes, verify.partners)
        for size, tau in zip(sizes, partners)
        if tau >= 0
    )
    report.done("induced_closure_map", extended=extended, verified=verify.ok)

    cert = full_collapse_audit(qt.trisp, pushed, verify)
    report.done("collapse", steps=len(cert.steps), final_counts=list(cert.final.trisp.counts))

    # the final subtrisp must be the quotient of the partition-chain complex
    pqt = orbit_nerve(pp.poset, lift_elements(group, partition_action(pp)))
    vmap = []
    for parent in cert.final.to_parent[0]:
        d, s = fp.elements[qt.tops[0][parent]]
        vmap.append(pqt.obj_orbit[pp.index[k.components[d][s]]])
    _mapping, witness = trisps_equal_over_vertices(cert.final.trisp, pqt.trisp, vmap)
    if witness is not None:
        report.fail("target_equality", str(witness))
    report.done("target_equality", counts=list(pqt.trisp.counts))

    chi = euler_characteristic(cert.final.trisp)
    if chi != 1:
        report.fail("endpoint_search", f"final complex has Euler characteristic {chi}")
    steps = search_collapse_to_point(cert.final.trisp)
    if steps is None:
        report.fail("endpoint_search", "no sequence of elementary collapses reaches a vertex")
    report.certificates["collapse"] = cert.steps
    report.certificates["endpoint"] = steps
    report.done("endpoint_search", steps=len(steps))

    report.ok = True
    return report, cert


def pipeline_quotient_category(n):
    """Collapse the nerve of the quotient of the face poset down to a point.

    Builds the quotient category of the face poset by the symmetric group,
    the closure map its equivariant operator induces there, collapses onto
    the nerve of the image quotient, and finishes through the terminal
    object of the partition quotient.  CLI name: pipeline 62.  Its four
    quotients are read off orbit nerves (`poset_quotient_category`) under S_n
    closed on n points and lifted (`lift_elements`): no morphism is mapped.

    The stitch carries the cone collapse into the big nerve through
    `match_mirror`, from the partition quotient's nerve to the mirror of the
    image quotient's, and `match52`, the image_subtrisp_equality stage's
    match from the image quotient's nerve to
    `induced_subtrisp(nerve_q.trisp, red)`, red the classes meeting the
    operator image.  That is `cert.final`: the collapse ends on
    `induced_subtrisp(nerve_q.trisp, qmap.red)`, and `qmap.red`, the
    operator image pushed to its classes, is the same set.  The stitch
    builds its image quotient by the same call as the stage, so the
    numbering `match52` reads is its own.

    The cone collapse ends on the single vertex `terminal` with no check:
    `verify_trisp_closure_map` refuses an irregular trisp, `collapse` raises
    unless what is left is `induced_subtrisp(pn_q.trisp, {terminal})`, and
    on a regular trisp no simplex of positive dimension has one vertex
    only, so that subtrisp has the counts (1,).

    At n = 4, 5, 6 the quotient is the poset of the faces' isomorphism
    classes under "is isomorphic to a subgraph of", as a test checks: one
    morphism per related class pair, 4, 44, 462, from 4, 55, 843 morphism
    orbits.  At n = 7 its order complex has 2,997,716,809 simplices, a lower
    bound on the nerve: every related pair carries a morphism, and chains compose.
    """
    report = PipelineReport("quotient-category", n)

    k = build_dgn(n)
    fp = face_poset(k)
    report.done("build_complex", faces=fp.category.n_objects)
    f = transitive_closure_operator(k, fp)
    act = face_poset_action(k, fp)
    group = _sn_group(n)
    report.done("action", order=group.order)

    qc = poset_quotient_category(fp.poset, act, lift_elements(group, act))
    nerve_q = qc.nerve
    report.done(
        "quotient_category",
        objects=qc.category.n_objects,
        morphisms=qc.category.n_morphisms,
        nerve_counts=list(nerve_q.trisp.counts),
    )

    qmap, qverify = quotient_poset_closure_map(fp.poset, f, qc)
    if not qverify.ok:
        report.fail("quotient_closure_map", str(qverify.failures[:3]))
    report.done("quotient_closure_map", blue=len(qmap.blue), red=len(qmap.red))

    cert = full_collapse_audit(nerve_q.trisp, qmap, qverify)
    report.done("collapse", steps=len(cert.steps), final_counts=list(cert.final.trisp.counts))

    match52, witness = check_image_subtrisp_equality(fp.poset, f, qc, group)
    if witness is not None:
        report.fail("image_subtrisp_equality", str(witness))
    report.done("image_subtrisp_equality")

    pp = partition_poset(n, fine_on_top=True)
    pact = partition_action(pp)
    pqc = poset_quotient_category(pp.poset, pact, lift_elements(group, pact))
    expected_objects = len({number_partition(p) for p in pp.partitions})
    if pqc.category.n_objects != expected_objects:
        report.fail(
            "partition_quotient",
            f"{pqc.category.n_objects} objects, expected {expected_objects}",
        )
    terminal = find_terminal_object(pqc.category)
    if terminal is None:
        report.fail("partition_quotient", "no terminal object")
    rep_partition = pp.partitions[pqc.obj_members[terminal][0]]
    if number_partition(rep_partition) != tuple([2] + [1] * (n - 2)):
        report.fail("partition_quotient", f"terminal object is {rep_partition}")
    report.done("partition_quotient", objects=pqc.category.n_objects, terminal=terminal)

    pn_q = pqc.nerve
    cone = cone_closure_map(pqc.category, terminal)
    cone_cert = full_collapse_audit(pn_q.trisp, cone)
    report.done("cone_collapse", steps=len(cone_cert.steps))

    # stitch the cone collapse back into the big nerve through the two
    # identifications: partition quotient ~ mirror of image quotient ~ red subtrisp
    image = sorted(set(f))
    keep, sub_qc = image_quotient_nerve(fp.poset, act, group, image)
    pos = {x: i for i, x in enumerate(keep)}
    vmap2 = [None] * pn_q.trisp.n(0)
    for cls in range(pqc.category.n_objects):
        x = fp.position[k.closed[pp.partitions[pqc.obj_members[cls][0]]]]
        vmap2[cls] = sub_qc.obj_class[pos[x]]
    match_mirror, witness = trisps_equal_over_vertices(
        pn_q.trisp, reverse_trisp(sub_qc.nerve.trisp), vmap2
    )
    if witness is not None:
        report.fail("stitch", f"partition nerve mismatch: {witness}")
    translated = []
    for (d, s), (d2, s2) in cone_cert.steps:
        a = match52[d][match_mirror[d][s]]
        b = match52[d2][match_mirror[d2][s2]]
        translated.append(((d, cert.final.to_parent[d][a]), (d2, cert.final.to_parent[d2][b])))
    full_steps = list(cert.steps) + translated
    remaining = verify_collapse_sequence(nerve_q.trisp, full_steps)
    if len(remaining) != 1 or next(iter(remaining))[0] != 0:
        report.fail("stitch", f"stitched collapse leaves {sorted(remaining)[:5]}")
    report.certificates["collapse"] = tuple(full_steps)
    report.done("stitch", total_steps=len(full_steps))

    report.ok = True
    return report, full_steps
