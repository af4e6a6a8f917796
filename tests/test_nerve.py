import random

import pytest
from hypothesis import given, settings

from trispcat.accat import AcyclicCategory, find_terminal_object
from trispcat.errors import InputError
from trispcat.nerve import nerve
from trispcat.trisp import validate_trisp

from oracles import (
    chain_poset,
    count_chains_by_length,
    nerve_map_images,
    nerve_oracle,
    poset_functor,
    random_path_category,
    random_poset,
)
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
    c = dgn4_bundle["fp"].category
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
    tm = nerve_map_images(nv, nv, poset_functor(chain3, [0, 1, 2]))
    for d in range(nv.trisp.dim + 1):
        for s in range(nv.trisp.n(d)):
            assert tm[d][s] == (d, s)


def test_constant_map_collapses_edge_to_vertex():
    p = chain_poset(2)
    nv = nerve(p.category)
    t = find_terminal_object(p.category)
    f = poset_functor(p, [t, t])
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
    f = poset_functor(chain3, [0, 0, 2])
    _degeneracy_aware_commutes(nv, nv, f, nerve_map_images(nv, nv, f))


def test_transitive_closure_images_are_chains(dgn4_bundle):
    f, bd = poset_functor(dgn4_bundle["fp"].poset, dgn4_bundle["f"]), dgn4_bundle["bd"]
    tm = nerve_map_images(bd, bd, f)
    _degeneracy_aware_commutes(bd, bd, f, tm)
    for d in range(1, bd.trisp.dim + 1):
        for s in range(bd.trisp.n(d)):
            # image objects are closed
            assert all(f.obj[o] == o for o in bd.trisp.vertex_tuple(*tm[d][s]))


@settings(max_examples=30, deadline=None)
@given(posets(max_n=5))
def test_nerves_regular_on_random_posets(p):
    assert validate_trisp(nerve(p.category).trisp).ok


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
        assert report.is_flag_complex
        assert list(nerve(c).trisp.counts) == count_chains_by_length(c)


def _assert_nerve_matches_oracle(c):
    nv = nerve(c)
    chains, bnd, index = nerve_oracle(c)
    assert nv.chains == chains
    assert [nv.trisp.boundary_table(d) for d in range(1, len(chains))] == bnd
    assert nv.index == index
    for level in chains[1:]:
        for s, ms in enumerate(level):
            assert nv.simplex_of_morphisms(ms) == s
    return nv


def _has_tied_object_lists(nv):
    return any(
        len(set(nv.trisp.vertex_tuples(d))) < nv.trisp.n(d) for d in range(1, nv.trisp.dim + 1)
    )


def test_nerve_matches_chain_by_chain_oracle(dgn4_bundle):
    from trispcat.graphs import build_dgn, face_poset

    rng = random.Random(61)
    for _ in range(60):
        _assert_nerve_matches_oracle(random_poset(rng).category)
    # parallel morphisms give two chains one object list: the sort breaks the tie
    tied = [_has_tied_object_lists(_assert_nerve_matches_oracle(random_path_category(rng)))
            for _ in range(60)]
    assert any(tied)
    dg3 = face_poset(build_dgn(3)).category
    assert dg3.n_morphisms == 0
    _assert_nerve_matches_oracle(dg3)
    _assert_nerve_matches_oracle(AcyclicCategory(["*"], []))
    _assert_nerve_matches_oracle(dgn4_bundle["fp"].category)


def _same_input_error(c):
    with pytest.raises(InputError) as expected:
        nerve_oracle(c)
    with pytest.raises(InputError) as got:
        nerve(c)
    assert str(got.value) == str(expected.value)
    return str(got.value)


def test_nerve_errors_match_oracle():
    cycle = "chains do not terminate; the category has a directed cycle"
    # a directed cycle is reported even where a composite is missing too
    assert _same_input_error(AcyclicCategory(["a", "b"], [(0, 1), (1, 0)])) == cycle
    assert _same_input_error(AcyclicCategory(["a"], [(0, 0)], [(0, 0, 0)])) == cycle
    missing = AcyclicCategory(["a", "b", "c"], [(0, 1), (1, 2)])
    assert _same_input_error(missing) == "composition table incomplete at (0, 1)"
    rng = random.Random(62)
    dropped = 0
    while dropped < 20:
        c = random_path_category(rng)
        if not c.comp:
            continue
        comp = sorted((m1, m2, m12) for (m1, m2), m12 in c.comp.items())
        del comp[rng.randrange(len(comp))]
        morphisms = list(zip(c.src, c.tgt, c.mor_labels))
        assert _same_input_error(AcyclicCategory(c.objects, morphisms, comp)).startswith(
            "composition table incomplete"
        )
        dropped += 1
