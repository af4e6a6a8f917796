import functools
import math
from itertools import combinations, permutations

import pytest

from trispcat.accat import check_closure_operator, find_terminal_object, validate_category
from trispcat.closure import induced_trisp_closure_map, verify_trisp_closure_map
from trispcat.equivariant import check_equivariant, push_closure_map, push_to_orbits
from trispcat.errors import InputError
from trispcat.graphs import (
    _sn_group,
    build_dgn,
    edge_list,
    face_poset,
    face_poset_action,
    image_partition_isomorphism,
    lift_to_edges,
    number_partition,
    partition_action,
    partition_poset,
    pipeline_quotient_category,
    pipeline_quotient_trisp,
    set_partitions,
    transitive_closure_operator,
)
from trispcat.nerve import nerve
from trispcat.symmetry import (
    Aut,
    GroupAction,
    check_regular_action,
    induced_trisp_action,
    lift_elements,
    orbit_nerve,
    poset_quotient_category,
    quotient_category,
    quotient_trisp,
)
from trispcat.trisp import Trisp, simplicial_from_faces, validate_trisp

from oracles import (
    dgn_trisp_action,
    explicit_action,
    graph_class_oracle,
    morphism_index,
    object_maps,
    partition_of_edges,
    partition_poset_oracle,
    transitive_closure_oracle,
)


def test_dgn3_is_three_isolated_vertices():
    k = build_dgn(3)
    assert k.trisp.counts == (3,)


def test_dgn4_counts():
    k = build_dgn(4)
    assert k.trisp.counts == (6, 15, 4)
    assert k.trisp.total == 25


def test_dgn_range_checked():
    with pytest.raises(InputError):
        build_dgn(2)
    with pytest.raises(InputError):
        build_dgn(7)


def test_dgn_faces_are_hereditary(dgn4_bundle):
    k = dgn4_bundle["k"]
    report = validate_trisp(k.trisp)
    assert report.ok and report.is_simplicial
    for level in k.faces_by_dim:
        for face in level:
            for size in range(1, len(face)):
                for sub in combinations(face, size):
                    assert frozenset(sub) in k.index


def test_face_poset_shapes(dgn4_bundle):
    fp = dgn4_bundle["fp"]
    assert fp.category.n_objects == 25
    assert validate_category(fp.category).ok
    point = simplicial_from_faces(1, [(0,)])[0]
    assert face_poset(point).category.n_objects == 1
    edge = simplicial_from_faces(2, [(0,), (1,), (0, 1)])[0]
    assert face_poset(edge).category.n_objects == 3
    assert face_poset(edge).poset.category.n_morphisms == 2


def test_face_poset_rejects_non_simplicial(double_filled):
    t, _, _ = double_filled
    with pytest.raises(InputError):
        face_poset(t)


@pytest.mark.parametrize(
    "t",
    [
        Trisp((2, 2), [[(1, 0), (1, 0)]]),  # two edges on the vertex pair {0, 1}
        Trisp((3, 3, 1), [[(1, 0), (2, 0), (1, 2)], [(2, 1, 0)]]),  # a triangle on (0, 1, 1)
    ],
)
def test_face_poset_refuses_a_repeated_vertex_set(t):
    with pytest.raises(InputError) as err:
        face_poset(t)
    assert str(err.value) == "face poset needs a simplicial complex"


def test_barycentric_of_edge_is_path():
    edge = simplicial_from_faces(2, [(0,), (1,), (0, 1)])[0]
    nv = nerve(face_poset(edge).category)
    assert nv.trisp.counts == (3, 2)


def test_barycentric_of_hollow_triangle_is_hexagon():
    hollow = simplicial_from_faces(3, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])[0]
    nv = nerve(face_poset(hollow).category)
    assert nv.trisp.counts == (6, 6)


def test_barycentric_dgn4_has_25_vertices(dgn4_bundle):
    assert dgn4_bundle["bd"].trisp.n(0) == 25


def test_transitive_closure_operator_properties(dgn4_bundle):
    fp, f = dgn4_bundle["fp"], dgn4_bundle["f"]
    witnesses = dgn4_bundle["closure_witnesses"]
    assert not (witnesses["monotone"] or witnesses["idempotent"] or witnesses["ascending"])
    assert witnesses["descending"]
    assert len(set(f)) == 13


def test_single_edge_is_fixed_point(dgn4_bundle):
    k, fp, f = dgn4_bundle["k"], dgn4_bundle["fp"], dgn4_bundle["f"]
    x = k.index[frozenset({0})]
    assert f[x] == x


def test_path_closes_to_triangle_at_n5():
    k = build_dgn(5)
    fp = face_poset(k)
    f = transitive_closure_operator(k, fp)
    edge_index = {pair: e for e, pair in enumerate(k.edges)}
    path = frozenset({edge_index[(0, 1)], edge_index[(1, 2)]})
    triangle = frozenset({edge_index[(0, 1)], edge_index[(0, 2)], edge_index[(1, 2)]})
    x = k.index[path]
    assert f[x] == k.index[triangle]


@pytest.mark.parametrize("n", [4, 5])
def test_a_face_is_numbered_as_the_face_poset_numbers_its_objects(n):
    # `index` gives the face poset's object, which is the face's place in (d, s) order
    k = build_dgn(n)
    fp = face_poset(k)
    for d, level in enumerate(k.faces_by_dim):
        for s, face in enumerate(level):
            assert fp.elements[k.index[frozenset(face)]] == (d, s)
    assert len(k.index) == len(fp.elements)


def test_partition_poset_counts():
    assert len(partition_poset(3).partitions) == 3
    assert len(partition_poset(4).partitions) == 13
    assert len(partition_poset(5).partitions) == 50


@pytest.mark.parametrize("fine_on_top", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_partition_poset_from_merges_matches_the_refinement_scan(n, fine_on_top):
    # the covers (two blocks merged) close to the same order as all refinements
    pp = partition_poset(n, fine_on_top)
    parts, p = partition_poset_oracle(n, fine_on_top)
    assert pp.partitions == parts
    assert pp.index == {q: i for i, q in enumerate(parts)}
    c, expected = pp.category, p.category
    assert (c.objects, c.src, c.tgt, tuple(c.mor_labels)) == (
        expected.objects, expected.src, expected.tgt, tuple(expected.mor_labels)
    )


def test_partition_helpers():
    assert number_partition(((0, 1), (2,), (3,))) == (2, 1, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_each_face_carries_its_components_and_each_partition_its_closure(n):
    k = build_dgn(n)
    assert partition_of_edges(n, [0], edge_list(n)) == ((0, 1),) + tuple((v,) for v in range(2, n))
    assert [len(parts) for parts in k.components] == [len(level) for level in k.faces_by_dim]
    for level, parts in zip(k.faces_by_dim, k.components):
        assert list(parts) == [partition_of_edges(n, face, k.edges) for face in level]
    # equal partitions are one stored object
    distinct = {p for parts in k.components for p in parts}
    assert len({id(p) for parts in k.components for p in parts}) == len(distinct)
    # every partition but the discrete and the one-block ones (Bell number minus 2)
    assert len(k.closed) == {3: 3, 4: 13, 5: 50, 6: 201}[n]
    fp = face_poset(k)
    for partition, x in k.closed.items():
        inside = [k.edge_index[pair] for block in partition for pair in combinations(block, 2)]
        d, s = fp.elements[x]
        assert k.faces_by_dim[d][s] == tuple(sorted(inside))
    assert transitive_closure_operator(k, fp) == transitive_closure_oracle(k, fp)


def test_image_isomorphic_to_partition_poset(dgn4_bundle):
    k, fp, f = dgn4_bundle["k"], dgn4_bundle["fp"], dgn4_bundle["f"]
    pp = partition_poset(4, fine_on_top=False)
    assert image_partition_isomorphism(k, fp, f, pp) is None
    assert len(set(f)) == len(pp.partitions) == 13
    # inclusion orientation: a finer partition lies below a coarser one
    assert pp.poset.lt(pp.index[((0, 1), (2,), (3,))], pp.index[((0, 1, 2), (3,))])


def test_image_partition_isomorphism_names_a_missed_partition(dgn4_bundle):
    k, fp, f = dgn4_bundle["k"], dgn4_bundle["fp"], dgn4_bundle["f"]
    # an operator that sends one image element onto another misses a partition
    a, b = sorted(set(f))[:2]
    merged = tuple(b if x == a else x for x in f)
    pp = partition_poset(4, fine_on_top=False)
    assert image_partition_isomorphism(k, fp, merged, pp) == ("sizes", 12, 12, 13)


def test_set_partitions_are_every_partition_once_canonical_and_sorted():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n, count in enumerate(bell):
        partitions = set_partitions(n)
        assert len(partitions) == len(set(partitions)) == count
        assert partitions == sorted(partitions)
        for p in partitions:
            assert all(block == tuple(sorted(block)) and block for block in p)
            assert list(p) == sorted(p)
            assert sorted(x for block in p for x in block) == list(range(n))


def test_partition_poset_orientation():
    pp = partition_poset(4)  # fine on top
    doubleton = pp.index[((0, 1), (2,), (3,))]
    halves = pp.index[((0, 1), (2, 3))]
    assert pp.poset.lt(halves, doubleton)
    std = partition_poset(4, fine_on_top=False)
    assert std.poset.lt(std.index[((0, 1), (2,), (3,))], std.index[((0, 1), (2, 3))])


def test_sn_actions_have_full_order():
    # the pipelines check the order on n points only; this pins the faithful lift
    for n in (3, 4, 5):
        k = build_dgn(n)
        assert dgn_trisp_action(k).order == math.factorial(n)
        assert face_poset_action(k, face_poset(k)).order == math.factorial(n)
        assert partition_action(partition_poset(n)).order == math.factorial(n)


def _face_map(k, fp, perm):
    # the relabelling `face_poset_action` applies to a generator
    eperm = lift_to_edges(perm, k.edges, k.edge_index)
    return tuple(
        k.index[frozenset(eperm[e] for e in k.faces_by_dim[d][s])]
        for d, s in fp.elements
    )


def _partition_map(pp, perm):
    # the relabelling `partition_action` applies to a generator
    return tuple(
        pp.index[tuple(sorted(tuple(sorted(perm[x] for x in block)) for block in p))]
        for p in pp.partitions
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lifted_elements_are_the_relabellings(n):
    group = _sn_group(n)
    perms = [g.dims[0] for g, _k, _j in group.tree]
    assert sorted(perms) == sorted(permutations(range(n)))
    k = build_dgn(n)
    fp = face_poset(k)
    posets = [(face_poset_action(k, fp), functools.partial(_face_map, k, fp))]
    for fine_on_top in (False, True):
        pp = partition_poset(n, fine_on_top=fine_on_top)
        posets.append((partition_action(pp), functools.partial(_partition_map, pp)))
    for act, relabel in posets:
        lifted = lift_elements(group, act)
        assert lifted == [relabel(perm) for perm in perms]
        # the old path: the object maps `GroupAction.elements` closes
        assert sorted(lifted) == object_maps(act)
        assert len(set(lifted)) == math.factorial(n)


def test_sn_actions_leave_the_group_unclosed():
    k = build_dgn(4)
    for act in (face_poset_action(k, face_poset(k)), partition_action(partition_poset(4))):
        assert "elements" not in act.__dict__


def test_s4_on_dgn4_and_face_poset(dgn4_bundle):
    act = dgn4_bundle["act"]
    assert act.order == math.factorial(4)
    direct = dgn_trisp_action(dgn4_bundle["k"])
    assert direct.order == 24


def test_direct_action_fails_regularity_induced_passes(dgn4_bundle):
    k, bd, tact = dgn4_bundle["k"], dgn4_bundle["bd"], dgn4_bundle["tact"]
    direct = dgn_trisp_action(k)
    assert check_regular_action(quotient_trisp(k.trisp, direct)) is not None
    assert check_regular_action(quotient_trisp(bd.trisp, tact)) is None


def test_operator_is_equivariant(dgn4_bundle):
    f, act = dgn4_bundle["f"], dgn4_bundle["act"]
    for g in act.elements:
        for x in range(len(f)):
            assert f[g.dims[0][x]] == g.dims[0][f[x]]


def test_partition_quotient_objects_and_terminal():
    for n, expected in ((4, 3), (5, 5)):
        pp = partition_poset(n)
        qc = quotient_category(pp.category, explicit_action(pp.poset, partition_action(pp)))
        assert qc.category.n_objects == expected
        t = find_terminal_object(qc.category)
        assert t is not None
        rep = pp.partitions[qc.obj_reps[t]]
        assert number_partition(rep) == tuple([2] + [1] * (n - 2))
        for x in range(qc.category.n_objects):
            if x != t:
                assert len(qc.category.hom(x, t)) == 1
                assert not qc.category.hom(t, x)


def test_cone_on_partition_quotient_collapses_to_point():
    from trispcat.closure import cone_closure_map, full_collapse_audit, verify_trisp_closure_map

    pp = partition_poset(4)
    qc = quotient_category(pp.category, explicit_action(pp.poset, partition_action(pp)))
    nv = nerve(qc.category)
    t = find_terminal_object(qc.category)
    cone = cone_closure_map(qc.category, t)
    assert cone.convention == "max"
    assert verify_trisp_closure_map(nv.trisp, cone).ok
    cert = full_collapse_audit(nv.trisp, cone)
    assert cert.final.trisp.counts == (1,)
    assert cert.final.to_parent[0] == (t,)


def test_barycentric_dgn4_is_simplicial_flag_nerve(dgn4_bundle):
    report = validate_trisp(dgn4_bundle["bd"].trisp)
    assert report.ok
    assert report.is_simplicial
    assert report.is_flag_complex


def test_pipeline_quotient_trisp_n3():
    report, cert = pipeline_quotient_trisp(3)
    assert report.ok
    assert cert.final.trisp.counts == (1,)


def test_pipeline_quotient_trisp_n4():
    report, cert = pipeline_quotient_trisp(4)
    assert report.ok
    stages = {s["name"]: s for s in report.stages}
    assert stages["barycentric"]["info"]["counts"][0] == 25
    assert stages["collapse"]["info"]["final_counts"] == [3, 2]
    assert stages["endpoint_search"]["info"]["steps"] == 2


def test_pipeline_quotient_trisp_stage_order():
    """The quotient stage times the orbit nerve, before the pushed map is verified on it."""
    report, _cert = pipeline_quotient_trisp(4)
    assert [s["name"] for s in report.stages] == [
        "build_complex",
        "barycentric",
        "closure_operator",
        "action",
        "quotient",
        "induced_closure_map",
        "collapse",
        "target_equality",
        "endpoint_search",
    ]
    # each stage is stored as its JSON, with seconds rounded as it prints them
    assert all(list(s) == ["name", "seconds", "info"] for s in report.stages)
    assert all(s["seconds"] == round(s["seconds"], 4) >= 0 for s in report.stages)
    stages = {s["name"]: s for s in report.stages}
    assert stages["quotient"]["info"] == {"counts": [4, 4, 1]}
    assert stages["induced_closure_map"]["info"]["verified"] is True


@pytest.mark.parametrize("n", [4, 5])
def test_pipeline_61_scans_its_orbit_trisp_for_regularity_once(monkeypatch, n):
    # the orbit nerve is regular by construction; the one scan is the
    # closure-map verification's, on the orbit trisp
    from trispcat import closure, symmetry, trisp

    scans, scan = [], trisp.regularity_violations
    for module in (closure, symmetry, trisp):
        monkeypatch.setattr(
            module, "regularity_violations",
            lambda t, name=module.__name__: scans.append((name, t.counts)) or scan(t),
        )
    report, _cert = pipeline_quotient_trisp(n)
    stages = {s["name"]: s["info"] for s in report.stages}
    assert report.ok
    assert scans == [("trispcat.closure", tuple(stages["quotient"]["counts"]))]


@pytest.mark.parametrize("n, extended", [(3, 0), (4, 36), (5, 23_645)])
def test_pipeline_61_pushes_what_the_subdivision_pushes(n, extended):
    """The upstairs path pipeline 61 no longer runs, kept as its differential."""
    report, _cert = pipeline_quotient_trisp(n)
    stages = {s["name"]: s["info"] for s in report.stages}
    assert stages["induced_closure_map"] == {"extended": extended, "verified": True}

    k = build_dgn(n)
    fp = face_poset(k)
    f = transitive_closure_operator(k, fp)
    act = face_poset_action(k, fp)
    cmap = induced_trisp_closure_map(fp.poset, f, check_closure_operator(fp.poset, f))
    bd = nerve(fp.category)
    tact = induced_trisp_action(bd, explicit_action(fp.poset, act))
    upstairs, upstairs_report = push_closure_map(quotient_trisp(bd.trisp, tact), cmap)
    on = orbit_nerve(fp.poset, object_maps(act))
    pushed, verify = push_to_orbits(on.trisp, on.obj_orbit, on.tops[0], cmap)
    # the same map on the same orbit numbering, with the same report downstairs
    assert (pushed.blue, pushed.red, pushed.mapping, pushed.convention) == (
        upstairs.blue, upstairs.red, upstairs.mapping, upstairs.convention
    )
    assert verify.to_json() == upstairs_report.to_json()
    # what push_closure_map verifies upstairs, and the closedness it requires
    base = verify_trisp_closure_map(bd.trisp, cmap)
    assert base.ok and base.extended == extended
    assert check_equivariant(tact, cmap) == []


def test_pipeline_quotient_category_n4():
    report, steps = pipeline_quotient_category(4)
    assert report.ok
    stages = {s["name"]: s for s in report.stages}
    assert stages["partition_quotient"]["info"]["objects"] == 3


@pytest.mark.parametrize("n", [4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_pipeline_62_quotient_is_the_poset_of_graph_classes(n):
    # the face poset's quotient by S_n against graph isomorphism classes: the
    # same object classes, one morphism per related class pair (4, 44, 462,
    # where the morphism orbits number 4, 55, 843), and the order complex;
    # both paths: off the orbit nerve, as pipeline 62 reads it, and off the
    # morphism orbits, as `trispcat quotient` reads it.  `face_poset_action`
    # checked the generators as poset automorphisms, so the morphism maps
    # are read off the order without `close_group`'s composition scan.
    oracle = graph_class_oracle(n)
    bit = {pair: 1 << i for i, pair in enumerate(oracle.edges)}
    k = build_dgn(n)
    fp = face_poset(k)
    act = face_poset_action(k, fp)
    c, mor_of = fp.category, morphism_index(fp.category)
    ends = list(zip(c.src, c.tgt))
    objs = [g.dims[0] for g in act.generators]
    gens = tuple(Aut((g, tuple(mor_of[(g[x], g[y])] for x, y in ends))) for g in objs)
    masks = [sum(bit[k.edges[e]] for e in k.faces_by_dim[d][s]) for d, s in fp.elements]
    assert sorted(masks) == sorted(oracle.class_of)
    for qc in (
        poset_quotient_category(fp.poset, act, lift_elements(_sn_group(n), act)),
        quotient_category(c, GroupAction(gens)),
    ):
        to_oracle = dict(zip(qc.obj_class, (oracle.class_of[mask] for mask in masks)))
        assert len(to_oracle) == qc.category.n_objects == len(set(to_oracle.values()))
        assert all(
            to_oracle[qc.obj_class[x]] == oracle.class_of[mask] for x, mask in enumerate(masks)
        )
        q = qc.category
        pairs = sorted((to_oracle[a], to_oracle[b]) for a, b in zip(q.src, q.tgt))
        assert pairs == sorted(oracle.related)
        assert qc.nerve.trisp.counts == oracle.chain_counts


def test_pipeline_61_builds_no_morphism_map_and_no_morphism_label(monkeypatch):
    # its actions are object maps checked on generating pairs; pipeline 62
    # reads its four category quotients off chain orbits, so it reads no
    # morphism map either, and labels only the least morphism of each class
    from trispcat import accat, symmetry

    read = []
    maps, label = symmetry.morphism_maps, accat._OrderLabels.__getitem__
    monkeypatch.setattr(symmetry, "morphism_maps", lambda a: read.append("map") or maps(a))
    monkeypatch.setattr(
        accat._OrderLabels, "__getitem__", lambda o, m: read.append("label") or label(o, m)
    )
    report, _cert = pipeline_quotient_trisp(4)
    assert report.ok and read == []
    report, _steps = pipeline_quotient_category(4)
    stages = {s["name"]: s["info"] for s in report.stages}
    assert report.ok and "map" not in read
    assert 0 < read.count("label") == len(read)
    assert stages["quotient_category"]["morphisms"] <= read.count("label")


@pytest.mark.slow
def test_pipeline_quotient_trisp_n5():
    report, cert = pipeline_quotient_trisp(5)
    assert report.ok
    stages = {s["name"]: s for s in report.stages}
    assert stages["barycentric"]["info"]["counts"] == [295, 3210, 10980, 17040, 12600, 3600]


@pytest.mark.slow
def test_pipeline_quotient_category_n5():
    report, steps = pipeline_quotient_category(5)
    assert report.ok
    stages = {s["name"]: s for s in report.stages}
    assert stages["partition_quotient"]["info"]["objects"] == 5


@pytest.mark.slow
def test_dgn6_construction_only():
    k = build_dgn(6)
    assert k.trisp.n(0) == 15
    # 2^15 subsets minus connected graphs minus the empty set
    assert k.trisp.total == 6063


@pytest.mark.slow
def test_canonical_map_surjectivity_n5():
    from trispcat.symmetry import canonical_map

    k = build_dgn(5)
    fp = face_poset(k)
    act = explicit_action(fp.poset, face_poset_action(k, fp))
    cm = canonical_map(quotient_category(fp.category, act))
    assert cm.vertex_bijective and all(cm.surjective_by_dim)
