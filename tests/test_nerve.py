import pytest
from hypothesis import given, settings

from trispcat.accat import ACMap, AcyclicCategory, find_terminal_object
from trispcat.errors import InputError
from trispcat.nerve import nerve
from trispcat.trisp import validate_trisp

from oracles import chain_poset, count_chains_by_length, nerve_map_images
from test_accat import posets


def test_nerve_of_single_object_is_point():
    nv = nerve(AcyclicCategory(["*"], []))
    assert nv.trisp.counts == (1,)


def test_nerve_of_three_chain_is_full_triangle(chain3):
    nv = nerve(chain3.category)
    assert nv.trisp.counts == (3, 3, 1)
    assert nv.trisp.vertex_tuple(2, 0) == (0, 1, 2)


def test_nerve_boundaries_follow_chain_structure(chain3):
    nv = nerve(chain3.category)
    d0, d1, d2 = nv.trisp.faces(2, 0)
    assert nv.trisp.vertex_tuple(1, d0) == (1, 2)  # drops the minimal object
    assert nv.trisp.vertex_tuple(1, d1) == (0, 2)  # composes through the middle
    assert nv.trisp.vertex_tuple(1, d2) == (0, 1)  # drops the maximal object


def test_chains_are_morphism_tuples_over_vertex_tuples(dgn4_bundle):
    nv = dgn4_bundle["bd"]
    c = nv.category
    for d in range(nv.trisp.dim + 1):
        for s, ms in enumerate(nv.chains[d]):
            assert type(ms) is tuple and len(ms) == d
            assert all(c.tgt[a] == c.src[b] for a, b in zip(ms, ms[1:]))
            objects = (c.src[ms[0]],) + tuple(c.tgt[m] for m in ms) if d else (s,)
            assert nv.trisp.vertex_tuple(d, s) == objects
            assert not d or nv.simplex_of_morphisms(ms) == s


def test_nerve_needs_total_composition():
    c = AcyclicCategory(["a", "b", "c"], [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        nerve(c)


def test_nerve_of_partition_poset_has_thirteen_vertices():
    from trispcat.graphs import partition_poset

    nv = nerve(partition_poset(4).category)
    assert nv.trisp.n(0) == 13


def test_simplex_counts_match_path_counting(dgn4_bundle):
    for c in (chain_poset(4).category, dgn4_bundle["fp"].category):
        nv = nerve(c)
        assert list(nv.trisp.counts) == count_chains_by_length(c)


@settings(max_examples=40, deadline=None)
@given(posets())
def test_simplex_counts_match_path_counting_random(p):
    nv = nerve(p.category)
    assert list(nv.trisp.counts) == count_chains_by_length(p.category)


def test_identity_map_induces_identity(chain3):
    nv = nerve(chain3.category)
    tm = nerve_map_images(nv, nv, ACMap.from_objects(chain3, [0, 1, 2]))
    for d in range(nv.trisp.dim + 1):
        for s in range(nv.trisp.n(d)):
            assert tm[d][s] == (d, s)


def test_constant_map_collapses_edge_to_vertex():
    p = chain_poset(2)
    nv = nerve(p.category)
    t = find_terminal_object(p.category)
    f = ACMap.from_objects(p, [t, t])
    assert nerve_map_images(nv, nv, f)[1][0] == (0, t)


def _degeneracy_aware_commutes(nv_src, nv_dst, f, tm):
    for d in range(1, nv_src.trisp.dim + 1):
        for s in range(nv_src.trisp.n(d)):
            pos = [0]  # image position of each vertex of the chain
            for m in nv_src.chains[d][s]:
                pos.append(pos[-1] + (f.mor[m] is not None))
            img_d, img_s = tm[d][s]
            for j in range(d + 1):
                face_image = tm[d - 1][nv_src.trisp.face(d, s, j)]
                collapses = pos.count(pos[j]) > 1
                if collapses:
                    assert face_image == (img_d, img_s)
                else:
                    expected = (img_d - 1, nv_dst.trisp.face(img_d, img_s, pos[j]))
                    assert face_image == expected


def test_nerve_map_commutes_with_boundaries_after_degeneracy_removal(chain3):
    nv = nerve(chain3.category)
    f = ACMap.from_objects(chain3, [0, 0, 2])
    _degeneracy_aware_commutes(nv, nv, f, nerve_map_images(nv, nv, f))


def test_transitive_closure_images_are_chains(dgn4_bundle):
    f, bd = dgn4_bundle["f"], dgn4_bundle["bd"]
    tm = nerve_map_images(bd, bd, f)
    _degeneracy_aware_commutes(bd, bd, f, tm)
    for d in range(1, bd.trisp.dim + 1):
        for s in range(bd.trisp.n(d)):
            # image objects are closed
            assert all(f.obj[o] == o for o in bd.trisp.vertex_tuple(*tm[d][s]))


@settings(max_examples=30, deadline=None)
@given(posets(max_n=5))
def test_nerves_regular_on_random_posets(p):
    assert validate_trisp(nerve(p.category).trisp, compute_flags=False).ok


def test_nerves_of_random_path_categories_are_regular_flag():
    import random

    from trispcat.accat import validate_category
    from oracles import random_path_category

    rng = random.Random(3)
    for _ in range(40):
        c = random_path_category(rng)
        assert validate_category(c).ok
        report = validate_trisp(nerve(c).trisp)
        assert report.ok
        assert report.flags.is_flag_complex
        assert list(nerve(c).trisp.counts) == count_chains_by_length(c)
