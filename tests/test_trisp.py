import random

import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations

from trispcat.errors import InputError
from trispcat.nerve import nerve
from trispcat.trisp import (
    CLASSIFY_LIMIT,
    Trisp,
    euler_characteristic,
    induced_subtrisp,
    regularity_violations,
    reverse_trisp,
    simplicial_from_faces,
    skeleton_dot,
    trisps_equal_over_vertices,
    validate_trisp,
)

from oracles import (
    chain_poset,
    flag_failure_dimension,
    opposite_category,
    random_path_category,
    random_poset,
    validate_trisp_oracle,
)
from test_accat import posets


def full_triangle():
    return nerve(chain_poset(3).category).trisp


def test_point_is_valid():
    t = Trisp((1,), [])
    assert validate_trisp(t).ok
    assert euler_characteristic(t) == 1


def test_double_filled_triangle_valid_not_simplicial(double_filled):
    t, _action, _psi = double_filled
    report = validate_trisp(t)
    assert report.ok
    assert not report.is_simplicial
    assert not report.is_flag_complex
    assert euler_characteristic(t) == 2


def test_loop_edge_fails_regularity():
    t = Trisp((1, 1), [[(0, 0)]])
    report = validate_trisp(t)
    assert not report.ok
    assert report.regularity_violations == [(1, 0)]


def test_an_irregular_face_makes_its_cofaces_irregular():
    # the triangle's vertices are (0, 0, 1): its last vertex is new, but its
    # last face, the loop, repeats one
    t = Trisp((2, 2, 1), [[(0, 0), (1, 0)], [(1, 1, 0)]])
    assert t.vertex_tuple(2, 0) == (0, 0, 1)
    assert regularity_violations(t) == [(1, 0), (2, 0)]


def _regularity_oracle(t):
    return [
        (d, s)
        for d in range(1, t.dim + 1)
        for s, vt in enumerate(t.vertex_tuples(d))
        if len(set(vt)) != d + 1
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_regularity_violations_match_distinct_vertices_random(seed):
    # any boundary rows, simplicial identities or not: vertex tuples are defined
    rng = random.Random(seed)
    counts = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
    bnd = [
        [tuple(rng.randrange(counts[d - 1]) for _ in range(d + 1)) for _ in range(counts[d])]
        for d in range(1, len(counts))
    ]
    t = Trisp(counts, bnd)
    assert regularity_violations(t) == _regularity_oracle(t)


def test_identity_violation_detected():
    # two triangles over a square of edges, wired so ∂_i∂_j breaks
    t = Trisp((4, 4, 1), [[(1, 0), (2, 1), (3, 2), (3, 0)], [(1, 3, 0)]])
    report = validate_trisp(t)
    assert not report.ok
    assert report.identity_violations


def test_vertex_tuple_conventions():
    t = Trisp((2, 1), [[(1, 0)]])
    assert t.vertex_tuple(1, 0) == (0, 1)
    tri = full_triangle()
    assert tri.vertex_tuple(2, 0) == (0, 1, 2)


@pytest.mark.parametrize("counts, bnd", [((2, 1), [[(1.0, 0)]]), ((True,), [])])
def test_counts_and_face_indices_must_be_ints(counts, bnd):
    with pytest.raises(InputError):
        Trisp(counts, bnd)


def test_vertex_tuple_deletion_identity(dgn4_bundle):
    for t in (full_triangle(), dgn4_bundle["bd"].trisp):
        for d in range(1, t.dim + 1):
            for s in range(t.n(d)):
                vt = t.vertex_tuple(d, s)
                for j in range(d + 1):
                    expected = vt[:j] + vt[j + 1:]
                    assert t.vertex_tuple(d - 1, t.face(d, s, j)) == expected


def test_hollow_triangle_not_flag():
    faces = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    t, _ = simplicial_from_faces(3, faces)
    report = validate_trisp(t)
    assert report.ok and report.is_simplicial
    assert not report.is_flag_complex


def _hollow_tetrahedron():
    faces = [f for size in (1, 2, 3) for f in combinations(range(4), size)]
    return simplicial_from_faces(4, faces)[0]


def test_boundary_of_tetrahedron_not_flag():
    report = validate_trisp(_hollow_tetrahedron())
    assert report.ok and report.is_simplicial
    assert not report.is_flag_complex


def _top_changed(t, rng, duplicate):
    """`t` with one top simplex dropped, or listed twice."""
    bnd = [list(t.boundary_table(d)) for d in range(1, t.dim + 1)]
    top = bnd[-1]
    s = rng.randrange(len(top))
    if duplicate:
        top.append(top[s])
    else:
        del top[s]
    return Trisp(list(t.counts[:-1]) + [len(top)], bnd)


def _random_trisp(rng):
    """A small trisp of one of the families the flag check is compared on."""
    family = rng.randrange(6)
    if family == 0:  # random boundary rows, mostly invalid
        counts = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        return Trisp(counts, [
            [tuple(rng.randrange(counts[d - 1]) for _ in range(d + 1)) for _ in range(counts[d])]
            for d in range(1, len(counts))
        ])
    if family == 1:  # a simplicial complex on random facets
        n = rng.randint(1, 6)
        sizes = [rng.randint(1, min(n, 4)) for _ in range(rng.randint(1, 6))]
        facets = [rng.sample(range(n), k) for k in sizes]
        faces = [(v,) for v in range(n)]
        faces += [sub for f in facets for k in range(1, len(f) + 1) for sub in combinations(f, k)]
        return simplicial_from_faces(n, faces)[0]
    c = random_poset(rng, max_n=6).category if rng.random() < 0.6 else random_path_category(rng)
    t = nerve(c).trisp
    if family == 2 or t.dim < 1:
        return t
    if family == 3:
        return induced_subtrisp(t, [v for v in range(t.n(0)) if rng.random() < 0.7]).trisp
    return _top_changed(t, rng, duplicate=family == 5)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_validate_trisp_matches_the_brute_force_oracle(seed):
    t = _random_trisp(random.Random(seed))
    assert validate_trisp(t).to_json() == validate_trisp_oracle(t)


def test_flag_check_meets_failures_above_dimension_two():
    # condition A holds on these, and a clique at d = 3 is missing or filled twice
    tetrahedron = nerve(chain_poset(4).category).trisp
    fixed = [_hollow_tetrahedron()] + [
        _top_changed(tetrahedron, random.Random(0), duplicate) for duplicate in (False, True)
    ]
    assert [flag_failure_dimension(t) for t in fixed] == [3, 3, 3]
    for t in fixed:
        assert validate_trisp(t).to_json() == validate_trisp_oracle(t)
    # the families the differential test draws from reach such failures too
    rng = random.Random(0)
    drawn = [_random_trisp(rng) for _ in range(400)]
    assert any(validate_trisp(t).ok and (flag_failure_dimension(t) or 0) >= 3 for t in drawn)


def test_classification_is_left_out_above_the_limit():
    at_limit = validate_trisp(Trisp((CLASSIFY_LIMIT,), []))
    assert at_limit.is_simplicial and at_limit.is_flag_complex
    report = validate_trisp(Trisp((CLASSIFY_LIMIT + 1,), []))
    assert report.ok and report.is_simplicial is None and report.is_flag_complex is None
    assert "is_flag_complex" not in report.to_json()


def test_nerve_with_parallel_composite_is_flag():
    # a -> b -> c with both the composite and an extra parallel arrow a -> c
    from trispcat.accat import AcyclicCategory, validate_category

    c = AcyclicCategory(
        ["a", "b", "c"],
        [(0, 1), (1, 2), (0, 2, "composite"), (0, 2, "extra")],
        [(0, 1, 2)],
    )
    assert validate_category(c).ok
    report = validate_trisp(nerve(c).trisp)
    assert report.ok
    assert report.is_flag_complex
    assert not report.is_simplicial  # two edges a -> c share a vertex set


def test_induced_subtrisp_full_and_empty():
    t = full_triangle()
    sub = induced_subtrisp(t, range(3))
    _mapping, witness = trisps_equal_over_vertices(sub.trisp, t, range(3))
    assert witness is None
    empty = induced_subtrisp(t, set())
    assert empty.trisp.counts == ()


def test_induced_subtrisp_skips_middle_vertex():
    sub = induced_subtrisp(full_triangle(), {0, 2})
    assert sub.trisp.counts == (2, 1)
    assert sub.trisp.vertex_tuple(1, 0) == (0, 1)  # reindexed a < c edge


def test_euler_characteristic_values(double_filled):
    assert euler_characteristic(full_triangle()) == 1
    hollow, _ = simplicial_from_faces(
        3, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    )
    assert euler_characteristic(hollow) == 0


def test_equality_rejects_dimension_mismatch():
    edge = Trisp((2, 1), [[(1, 0)]])
    point = Trisp((1,), [])
    assert trisps_equal_over_vertices(edge, point, [0]) == (None, ("counts", (2, 1), (1,)))


def test_equality_is_boundary_sensitive():
    path_012 = Trisp((3, 2), [[(1, 0), (2, 1)]])
    fork_from_0 = Trisp((3, 2), [[(1, 0), (2, 0)]])
    assert trisps_equal_over_vertices(path_012, fork_from_0, range(3))[0] is None
    path_201 = Trisp((3, 2), [[(0, 2), (1, 0)]])
    assert trisps_equal_over_vertices(path_012, path_201, range(3))[0] is None
    assert trisps_equal_over_vertices(path_012, path_201, (2, 0, 1))[1] is None


def test_reverse_trisp_matches_opposite_nerve(chain3):
    forward = nerve(chain3.category).trisp
    backward = nerve(opposite_category(chain3.category)).trisp
    rev = reverse_trisp(forward)
    assert validate_trisp(rev).ok
    _mapping, witness = trisps_equal_over_vertices(backward, rev, range(3))
    assert witness is None


def test_simplicial_from_faces_requires_closure():
    with pytest.raises(InputError) as err:
        simplicial_from_faces(3, [(0,), (1,), (2,), (0, 1, 2)])
    assert str(err.value) == "family not downward closed: (0, 1) missing under (0, 1, 2)"


@pytest.mark.parametrize(
    "faces, message",
    [
        ([(0,), (2,), (0, 2)], "all vertices must appear as 0-dimensional faces"),
        ([(0,), (5,)], "face (5,) out of vertex range"),
        ([(0,), (), (5,)], "empty face"),
    ],
)
def test_simplicial_from_faces_names_what_it_refuses(faces, message):
    with pytest.raises(InputError) as err:
        simplicial_from_faces(3, faces)
    assert str(err.value) == message


def test_json_roundtrip(double_filled):
    t, _, _ = double_filled
    doc = t.to_json()
    back = Trisp.from_json(doc)
    assert back.counts == t.counts
    assert all(back.boundary_table(d) == t.boundary_table(d) for d in range(1, t.dim + 1))
    with pytest.raises(InputError):
        Trisp.from_json({"nope": 1})


def test_skeleton_dot():
    out = skeleton_dot(full_triangle())
    assert out.count("->") == 3


@settings(max_examples=50, deadline=None)
@given(posets())
def test_nerves_of_posets_are_regular_simplicial_flag(p):
    report = validate_trisp(nerve(p.category).trisp)
    assert report.ok
    assert report.is_simplicial
    assert report.is_flag_complex


@settings(max_examples=30, deadline=None)
@given(posets(max_n=5))
def test_subtrisp_of_all_vertices_is_identity(p):
    t = nerve(p.category).trisp
    sub = induced_subtrisp(t, range(t.n(0)))
    assert trisps_equal_over_vertices(sub.trisp, t, range(t.n(0)))[1] is None
