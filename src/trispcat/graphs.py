"""Complexes of disconnected graphs, partition posets, and the two collapse pipelines.

The complex DG_n has one vertex per possible edge of a graph on n labeled
vertices and one simplex per nonempty edge set whose graph is disconnected
(isolated vertices count).  The symmetric group acts by relabeling graph
vertices; taking transitive closures of graphs gives an ascending,
equivariant closure operator on the face poset whose image is the poset of
nontrivial set partitions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations

from .accat import Poset, check_closure_operator, find_terminal_object, poset_from_relation
from .closure import (
    cone_closure_map,
    full_collapse_audit,
    induced_trisp_closure_map,
    search_collapse_to_point,
    verify_collapse_sequence,
)
from .equivariant import (
    _poset_action_is_equivariant,
    check_image_subtrisp_equality,
    image_quotient_nerve,
    push_closure_map,
    quotient_poset_closure_map,
)
from .errors import InputError, PipelineError, SoundnessError
from .nerve import nerve
from .symmetry import (
    CatAut,
    GroupAction,
    _UnionFind,
    check_horizontal,
    check_regular_action,
    close_group,
    induced_trisp_action,
    quotient_category,
    quotient_trisp,
)
from .trisp import (
    euler_characteristic,
    induced_subtrisp,
    reverse_trisp,
    simplicial_from_faces,
    trisps_equal_over_vertices,
)


# -- the complex of disconnected graphs -------------------------------------


def edge_list(n):
    """Possible edges of a labeled graph on {0..n-1}, in lexicographic order."""
    return tuple(combinations(range(n), 2))


@dataclass(eq=False)
class GraphComplex:
    n: int
    edges: tuple  # edge id -> vertex pair
    trisp: object
    faces_by_dim: tuple  # per dimension, sorted tuples of edge ids
    index: dict  # frozenset of edge ids -> (d, s)
    edge_index: dict  # vertex pair -> edge id

    def edge_label(self, e):
        a, b = self.edges[e]
        return f"{a + 1}{b + 1}"


def build_dgn(n):
    """All nonempty edge sets of disconnected graphs on n labeled vertices."""
    if not 3 <= n <= 6:
        raise InputError(f"n must be between 3 and 6, got {n}")
    edges = edge_list(n)
    m = len(edges)
    faces = []
    for size in range(1, m + 1):
        found = False
        for subset in combinations(range(m), size):
            if len(partition_of_edges(n, subset, edges)) > 1:
                faces.append(subset)
                found = True
        if not found:
            break
    trisp, faces_by_dim, index = simplicial_from_faces(m, faces)
    edge_index = {pair: e for e, pair in enumerate(edges)}
    return GraphComplex(n, edges, trisp, faces_by_dim, index, edge_index)


@dataclass(eq=False)
class FacePoset:
    poset: Poset
    elements: tuple  # object -> (d, s) of the underlying trisp
    position: dict  # (d, s) -> object

    @property
    def category(self):
        return self.poset.category


def face_poset(k):
    """Poset of the nonempty faces of a simplicial trisp, ordered by inclusion.

    The relation only puts each face over its boundary facets: every subface
    is reached through facets, so the transitive closure is inclusion.
    """
    t = k.trisp if isinstance(k, GraphComplex) else k
    elements = [(d, s) for d in range(t.dim + 1) for s in range(t.n(d))]
    position = {ds: i for i, ds in enumerate(elements)}
    pairs = []
    for d in range(1, t.dim + 1):
        seen = set()
        for s in range(t.n(d)):
            key = frozenset(t.vertex_tuple(d, s))
            if key in seen or len(key) != d + 1:
                raise InputError("face poset needs a simplicial complex")
            seen.add(key)
            pairs.extend((position[(d - 1, f)], position[(d, s)]) for f in t.faces(d, s))
    labels = ["{" + ",".join(map(str, sorted(t.vertex_tuple(d, s)))) + "}" for d, s in elements]
    poset = poset_from_relation(labels, pairs)
    return FacePoset(poset, tuple(elements), position)


# -- partitions --------------------------------------------------------------


def set_partitions(n):
    """All partitions of {0..n-1} in canonical form (sorted tuples of sorted tuples)."""
    if n == 0:
        return [()]
    out = []

    def grow(k, blocks):
        if k == n:
            out.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
            return
        for i in range(len(blocks)):
            grow(k + 1, blocks[:i] + [blocks[i] + [k]] + blocks[i + 1:])
        grow(k + 1, blocks + [[k]])

    grow(1, [[0]])
    return sorted(out)


def refines(fine, coarse):
    """Every block of `fine` is contained in a block of `coarse`."""
    lookup = {}
    for i, block in enumerate(coarse):
        for x in block:
            lookup[x] = i
    return all(len({lookup[x] for x in block}) == 1 for block in fine)


def partition_label(partition):
    return "|".join("".join(str(x + 1) for x in block) for block in partition)


def number_partition(partition):
    return tuple(sorted((len(b) for b in partition), reverse=True))


@dataclass(eq=False)
class PartitionPoset:
    """Set partitions of {0..n-1} except the discrete and one-block partitions.

    Built by `partition_poset`: with ``fine_on_top=True`` morphisms point
    from coarser to finer partitions, so the one-doubleton classes sit at the
    top and survive as a terminal object in the quotient.  With
    ``fine_on_top=False`` the order matches inclusion of the corresponding
    unions of complete graphs.
    """

    n: int
    partitions: tuple
    poset: Poset
    index: dict

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
    pairs = []
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            if i != j and refines(p, q):
                # p strictly finer than q
                pairs.append((j, i) if fine_on_top else (i, j))
    labels = [partition_label(p) for p in parts]
    poset = poset_from_relation(labels, pairs)
    return PartitionPoset(n, tuple(parts), poset, index)


def partition_of_edges(n, edge_ids, edges):
    """Partition of {0..n-1} into the connected components of an edge set.

    Blocks are sorted, and ordered by their least member.
    """
    uf = _UnionFind(n)
    for e in edge_ids:
        uf.union(*edges[e])
    block_of, reps = uf.classes()
    blocks = [[] for _ in reps]
    for x, k in enumerate(block_of):
        blocks[k].append(x)
    return tuple(tuple(b) for b in blocks)


def edges_of_partition(partition, edge_index):
    """Edge ids of the union of complete graphs on the blocks."""
    out = []
    for block in partition:
        for pair in combinations(block, 2):
            out.append(edge_index[pair])
    return tuple(sorted(out))


def transitive_closure_operator(k, fp):
    """The operator sending each face to the edge set of its transitive closure.

    Returned as the tuple of object images.  Ascending, idempotent, monotone,
    and equivariant on the face poset (`check_closure_operator` checks the
    first three); its image is the poset of nontrivial set partitions.
    """
    obj_map = []
    for (d, s) in fp.elements:
        face = k.faces_by_dim[d][s]
        partition = partition_of_edges(k.n, face, k.edges)
        closed = edges_of_partition(partition, k.edge_index)
        obj_map.append(fp.position[k.index[frozenset(closed)]])
    return tuple(obj_map)


def image_partition_isomorphism(k, fp, f):
    """Order isomorphism between the operator image and the partition poset.

    The image, as a subposet of the inclusion-ordered face poset, is matched
    against the partition poset in its inclusion orientation
    (``fine_on_top=False``); the bijection sends a closed edge set to the
    partition of its components.
    """
    pp = partition_poset(k.n, fine_on_top=False)
    image = sorted(set(f))
    bijection = {}
    for x in image:
        d, s = fp.elements[x]
        partition = partition_of_edges(k.n, k.faces_by_dim[d][s], k.edges)
        bijection[x] = pp.index[partition]
    if sorted(bijection.values()) != list(range(len(pp.partitions))):
        return False, None, pp
    for x in image:
        for y in image:
            if x == y:
                continue
            if fp.poset.lt(x, y) != pp.poset.lt(bijection[x], bijection[y]):
                return False, (x, y), pp
    return True, bijection, pp


# -- symmetric group actions -------------------------------------------------


def sn_generator_perms(n):
    """The transposition (1 2) and the n-cycle, as vertex permutations."""
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return (transposition, cycle)


def lift_to_edges(perm, edges, edge_index):
    return tuple(edge_index[tuple(sorted((perm[a], perm[b])))] for a, b in edges)


def _sn_action(p, n, relabel):
    """S_n on a poset, moving its objects by `relabel(perm)`: checked horizontal, not closed."""
    gens = [CatAut.from_poset(p, relabel(perm)) for perm in sn_generator_perms(n)]
    action = close_group(gens, on=p)
    horizontal, witness = check_horizontal(p.category, action)
    if not horizontal:
        raise SoundnessError(f"S_{n} action must be horizontal, witness {witness}")
    return action


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


def _sn_order(n):
    """Order of the group the S_n generators generate on n points; raises unless n!."""
    order = GroupAction(tuple(CatAut(p, ()) for p in sn_generator_perms(n))).order
    if order != math.factorial(n):
        raise SoundnessError(f"the S_{n} generators generate a group of order {order}")
    return order


# -- pipelines ----------------------------------------------------------------


@dataclass
class Stage:
    name: str
    seconds: float
    info: dict = field(default_factory=dict)

    def to_json(self):
        return {"name": self.name, "seconds": round(self.seconds, 4), "info": self.info}


@dataclass
class PipelineReport:
    variant: str
    n: int
    ok: bool
    stages: list
    certificates: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "variant": self.variant,
            "n": self.n,
            "ok": self.ok,
            "stages": [s.to_json() for s in self.stages],
            "certificates": {
                name: [[list(a), list(b)] for a, b in steps]
                for name, steps in self.certificates.items()
            },
        }


class _StageClock:
    def __init__(self, report):
        self.report = report
        self.t0 = time.perf_counter()

    def done(self, name, **info):
        t1 = time.perf_counter()
        self.report.stages.append(Stage(name, t1 - self.t0, info))
        self.t0 = t1

    def fail(self, name, message):
        raise PipelineError(name, message)


def pipeline_quotient_trisp(n):
    """Collapse the quotient of the barycentric subdivision onto the partition complex.

    Builds the subdivision of the disconnected-graph complex, pushes the
    closure map induced by the transitive-closure operator through the
    symmetric-group action, collapses the quotient onto the subtrisp of
    partition chains, and certifies by exhaustive search, with no time
    budget, that this subtrisp collapses to a point.  Runs for n <= 5: at
    n = 6 the subdivision of the 6,063-face poset does not fit in memory.
    CLI name: pipeline 61.
    """
    if n > 5:
        raise InputError(f"pipeline 61 runs for n <= 5, got {n}")
    report = PipelineReport("quotient-trisp", n, False, [])
    clock = _StageClock(report)

    k = build_dgn(n)
    clock.done("build_complex", counts=list(k.trisp.counts))
    fp = face_poset(k)
    bd = nerve(fp.category)
    clock.done("barycentric", counts=list(bd.trisp.counts))

    f = transitive_closure_operator(k, fp)
    cls = check_closure_operator(fp.poset, f)
    if not (cls.monotone and cls.idempotent and cls.ascending):
        clock.fail("closure_operator", str(cls.to_json()))
    iso_ok, iso_witness, pp = image_partition_isomorphism(k, fp, f)
    if not iso_ok:
        clock.fail("closure_operator", f"image not isomorphic to partitions at {iso_witness}")
    clock.done("closure_operator", image_size=len(set(f)))

    act = face_poset_action(k, fp)
    witness = _poset_action_is_equivariant(fp.poset, act, f)
    if witness is not None:
        clock.fail("action", f"operator not equivariant at {witness[0]}")
    tact = induced_trisp_action(bd, act)
    clock.done("action", order=_sn_order(n))

    qt = quotient_trisp(bd.trisp, tact)
    regular_report = check_regular_action(qt)
    if not regular_report.ok:
        clock.fail("regularity_condition", str(regular_report.witness))
    clock.done("regularity_condition")

    # push_closure_map verifies cmap upstairs; it is not verified again here
    cmap = induced_trisp_closure_map(fp.poset, f, cls)
    pushed = push_closure_map(qt, cmap)
    clock.done("induced_closure_map", extended=pushed.base_report.extended)
    clock.done("quotient", counts=list(qt.trisp.counts), verified=pushed.verify_report.ok)

    cert = full_collapse_audit(qt.trisp, pushed.cmap, pushed.verify_report)
    clock.done("collapse", steps=len(cert.steps), final_counts=list(cert.final.trisp.counts))

    # the final subtrisp must be the quotient of the partition-chain complex
    pact = partition_action(pp)
    pn = nerve(pp.category)
    ptact = induced_trisp_action(pn, pact)
    pqt = quotient_trisp(pn.trisp, ptact)
    vmap = []
    for parent in cert.final.to_parent[0]:
        rep_vertex = qt.reps[0][parent]
        d, s = fp.elements[rep_vertex]
        partition = partition_of_edges(n, k.faces_by_dim[d][s], k.edges)
        vmap.append(pqt.projection[0][pp.index[partition]])
    match = trisps_equal_over_vertices(cert.final.trisp, pqt.trisp, vmap)
    if not match.ok:
        clock.fail("target_equality", str(match.witness))
    clock.done("target_equality", counts=list(pqt.trisp.counts))

    chi = euler_characteristic(cert.final.trisp)
    if chi != 1:
        clock.fail("endpoint_search", f"final complex has Euler characteristic {chi}")
    steps = search_collapse_to_point(cert.final.trisp)
    if steps is None:
        clock.fail("endpoint_search", "no sequence of elementary collapses reaches a vertex")
    report.certificates["collapse"] = cert.steps
    report.certificates["endpoint"] = steps
    clock.done("endpoint_search", steps=len(steps))

    report.ok = True
    return report, cert


def pipeline_quotient_category(n):
    """Collapse the nerve of the quotient of the face poset down to a point.

    Builds the quotient category of the face poset by the symmetric group,
    the closure map its equivariant operator induces there, collapses onto
    the nerve of the image quotient, and finishes through the terminal
    object of the partition quotient.  CLI name: pipeline 62.
    """
    report = PipelineReport("quotient-category", n, False, [])
    clock = _StageClock(report)

    k = build_dgn(n)
    fp = face_poset(k)
    clock.done("build_complex", faces=fp.category.n_objects)
    f = transitive_closure_operator(k, fp)
    act = face_poset_action(k, fp)
    clock.done("action", order=_sn_order(n))

    qc = quotient_category(fp.category, act)
    nerve_q = qc.nerve
    clock.done(
        "quotient_category",
        objects=qc.category.n_objects,
        morphisms=qc.category.n_morphisms,
        nerve_counts=list(nerve_q.trisp.counts),
    )

    qp = quotient_poset_closure_map(fp.poset, f, qc)
    if not qp.verify_report.ok:
        clock.fail("quotient_closure_map", str(qp.verify_report.failures[:3]))
    clock.done("quotient_closure_map", blue=len(qp.cmap.blue), red=len(qp.cmap.red))

    cert = full_collapse_audit(nerve_q.trisp, qp.cmap, qp.verify_report)
    clock.done("collapse", steps=len(cert.steps), final_counts=list(cert.final.trisp.counts))

    match52 = check_image_subtrisp_equality(fp.poset, f, qc)
    if not match52.ok:
        clock.fail("image_subtrisp_equality", str(match52.witness))
    clock.done("image_subtrisp_equality")

    pp = partition_poset(n, fine_on_top=True)
    pact = partition_action(pp)
    pqc = quotient_category(pp.category, pact)
    expected_objects = len({number_partition(p) for p in pp.partitions})
    if pqc.category.n_objects != expected_objects:
        clock.fail(
            "partition_quotient",
            f"{pqc.category.n_objects} objects, expected {expected_objects}",
        )
    terminal = find_terminal_object(pqc.category)
    if terminal is None:
        clock.fail("partition_quotient", "no terminal object")
    rep_partition = pp.partitions[pqc.obj_members[terminal][0]]
    if number_partition(rep_partition) != tuple([2] + [1] * (n - 2)):
        clock.fail("partition_quotient", f"terminal object is {rep_partition}")
    clock.done("partition_quotient", objects=pqc.category.n_objects, terminal=terminal)

    pn_q = pqc.nerve
    cone = cone_closure_map(pqc.category, terminal)
    cone_cert = full_collapse_audit(pn_q.trisp, cone)
    if cone_cert.final.trisp.counts != (1,):
        clock.fail("cone_collapse", f"final counts {cone_cert.final.trisp.counts}")
    clock.done("cone_collapse", steps=len(cone_cert.steps))

    # stitch the cone collapse back into the big nerve through the two
    # identifications: partition quotient ~ mirror of image quotient ~ red subtrisp
    image = sorted(set(f))
    keep, sub_qc = image_quotient_nerve(fp.poset, act, image)
    pos = {x: i for i, x in enumerate(keep)}
    vmap2 = [None] * pn_q.trisp.n(0)
    for cls in range(pqc.category.n_objects):
        partition = pp.partitions[pqc.obj_members[cls][0]]
        closed = edges_of_partition(partition, k.edge_index)
        x = fp.position[k.index[frozenset(closed)]]
        vmap2[cls] = sub_qc.obj_class[pos[x]]
    match_mirror = trisps_equal_over_vertices(pn_q.trisp, reverse_trisp(sub_qc.nerve.trisp), vmap2)
    if not match_mirror.ok:
        clock.fail("stitch", f"partition nerve mismatch: {match_mirror.witness}")
    red_classes = sorted({qc.obj_class[x] for x in image})
    sub = induced_subtrisp(nerve_q.trisp, set(red_classes))
    vmap52 = [None] * sub_qc.nerve.trisp.n(0)
    red_pos = {c: i for i, c in enumerate(red_classes)}
    for i, x in enumerate(keep):
        vmap52[sub_qc.obj_class[i]] = red_pos[qc.obj_class[x]]
    match52b = trisps_equal_over_vertices(sub_qc.nerve.trisp, sub.trisp, vmap52)
    if not match52b.ok:
        raise SoundnessError(f"image quotient is not the red subtrisp: {match52b.witness}")
    translated = []
    for (d, s), (d2, s2) in cone_cert.steps:
        a = match52b.mapping[d][match_mirror.mapping[d][s]]
        b = match52b.mapping[d2][match_mirror.mapping[d2][s2]]
        translated.append(((d, sub.to_parent[d][a]), (d2, sub.to_parent[d2][b])))
    full_steps = list(cert.steps) + translated
    remaining = verify_collapse_sequence(nerve_q.trisp, full_steps)
    if len(remaining) != 1 or next(iter(remaining))[0] != 0:
        clock.fail("stitch", f"stitched collapse leaves {sorted(remaining)[:5]}")
    report.certificates["collapse"] = tuple(full_steps)
    clock.done("stitch", total_steps=len(full_steps))

    report.ok = True
    return report, full_steps
