import math

import pytest

from trispcat.accat import find_terminal_object, validate_category
from trispcat.errors import InputError
from trispcat.graphs import (
    build_dgn,
    edge_list,
    face_poset,
    face_poset_action,
    image_partition_isomorphism,
    number_partition,
    partition_action,
    partition_of_edges,
    partition_poset,
    pipeline_quotient_category,
    pipeline_quotient_trisp,
    transitive_closure_operator,
)
from trispcat.nerve import nerve
from trispcat.symmetry import check_regular_action, quotient_category, quotient_trisp
from trispcat.trisp import simplicial_from_faces, validate_trisp

from oracles import dgn_trisp_action


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
    assert report.ok and report.flags.is_simplicial
    from itertools import combinations

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
    assert len(face_poset(edge).poset.mor_of) == 2


def test_face_poset_rejects_non_simplicial(double_filled):
    t, _, _ = double_filled
    with pytest.raises(InputError):
        face_poset(t)


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
    report = dgn4_bundle["closure_report"]
    assert report.monotone and report.idempotent and report.ascending
    assert not report.descending
    assert len(set(f)) == 13


def test_single_edge_is_fixed_point(dgn4_bundle):
    k, fp, f = dgn4_bundle["k"], dgn4_bundle["fp"], dgn4_bundle["f"]
    x = fp.position[k.index[frozenset({0})]]
    assert f[x] == x


def test_path_closes_to_triangle_at_n5():
    k = build_dgn(5)
    fp = face_poset(k)
    f = transitive_closure_operator(k, fp)
    edge_index = {pair: e for e, pair in enumerate(k.edges)}
    path = frozenset({edge_index[(0, 1)], edge_index[(1, 2)]})
    triangle = frozenset({edge_index[(0, 1)], edge_index[(0, 2)], edge_index[(1, 2)]})
    x = fp.position[k.index[path]]
    assert f[x] == fp.position[k.index[triangle]]


def test_partition_poset_counts():
    assert len(partition_poset(3).partitions) == 3
    assert len(partition_poset(4).partitions) == 13
    assert len(partition_poset(5).partitions) == 50


def test_partition_helpers():
    assert number_partition(((0, 1), (2,), (3,))) == (2, 1, 1)
    edges = edge_list(4)
    assert partition_of_edges(4, [0], edges) == ((0, 1), (2,), (3,))


def test_image_isomorphic_to_partition_poset(dgn4_bundle):
    ok, bijection, pp = image_partition_isomorphism(
        dgn4_bundle["k"], dgn4_bundle["fp"], dgn4_bundle["f"]
    )
    assert ok
    assert len(bijection) == 13
    # inclusion orientation: a finer partition lies below a coarser one
    assert pp.poset.lt(pp.index[((0, 1), (2,), (3,))], pp.index[((0, 1, 2), (3,))])


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
    report = check_regular_action(quotient_trisp(k.trisp, direct))
    assert not report.ok
    induced = check_regular_action(quotient_trisp(bd.trisp, tact))
    assert induced.ok


def test_operator_is_equivariant(dgn4_bundle):
    f, act = dgn4_bundle["f"], dgn4_bundle["act"]
    for g in act.elements:
        for x in range(len(f)):
            assert f[g.obj[x]] == g.obj[f[x]]


def test_partition_quotient_objects_and_terminal():
    for n, expected in ((4, 3), (5, 5)):
        pp = partition_poset(n)
        act = partition_action(pp)
        qc = quotient_category(pp.category, act)
        assert qc.category.n_objects == expected
        t = find_terminal_object(qc.category)
        assert t is not None
        rep = pp.partitions[qc.obj_members[t][0]]
        assert number_partition(rep) == tuple([2] + [1] * (n - 2))
        for x in range(qc.category.n_objects):
            if x != t:
                assert len(qc.category.hom(x, t)) == 1
                assert not qc.category.hom(t, x)


def test_cone_on_partition_quotient_collapses_to_point():
    from trispcat.closure import cone_closure_map, full_collapse_audit, verify_trisp_closure_map

    pp = partition_poset(4)
    act = partition_action(pp)
    qc = quotient_category(pp.category, act)
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
    assert report.flags.is_simplicial
    assert report.flags.is_flag_complex


def test_pipeline_quotient_trisp_n3():
    report, cert = pipeline_quotient_trisp(3)
    assert report.ok
    assert cert.final.trisp.counts == (1,)


def test_pipeline_quotient_trisp_n4():
    report, cert = pipeline_quotient_trisp(4)
    assert report.ok
    stages = {s.name: s for s in report.stages}
    assert stages["barycentric"].info["counts"][0] == 25
    assert stages["collapse"].info["final_counts"] == [3, 2]
    assert stages["endpoint_search"].info["steps"] == 2


def test_pipeline_quotient_category_n4():
    report, steps = pipeline_quotient_category(4)
    assert report.ok
    stages = {s.name: s for s in report.stages}
    assert stages["partition_quotient"].info["objects"] == 3


@pytest.mark.slow
def test_pipeline_quotient_trisp_n5():
    report, cert = pipeline_quotient_trisp(5)
    assert report.ok
    stages = {s.name: s for s in report.stages}
    assert stages["barycentric"].info["counts"] == [295, 3210, 10980, 17040, 12600, 3600]


@pytest.mark.slow
def test_pipeline_quotient_category_n5():
    report, steps = pipeline_quotient_category(5)
    assert report.ok
    stages = {s.name: s for s in report.stages}
    assert stages["partition_quotient"].info["objects"] == 5


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
    act = face_poset_action(k, fp)
    cm = canonical_map(quotient_category(fp.category, act))
    assert cm.vertex_bijective and all(cm.surjective_by_dim)
