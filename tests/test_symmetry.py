import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from trispcat.accat import (
    AcyclicCategory,
    as_poset,
    poset_from_relation,
    validate_category,
)
from trispcat.closure import induced_trisp_closure_map
from trispcat.equivariant import push_closure_map
from trispcat.errors import InputError, NotAPosetError, PreconditionError
from trispcat.graphs import build_dgn
from trispcat.nerve import nerve
from trispcat.symmetry import (
    CatAut,
    GroupAction,
    TrispAut,
    _poset_automorphism_violation,
    canonical_map,
    cat_automorphism_violation,
    check_horizontal,
    check_regular_action,
    close_group,
    induced_trisp_action,
    orbit_partition,
    quotient_category,
    quotient_trisp,
    trivial_cat_action,
    trivial_trisp_action,
)
from trispcat.trisp import Trisp

from oracles import (
    canonical_lifts,
    chain_poset,
    decomposition_quotient_classes,
    dgn_trisp_action,
    inverse,
    is_identity,
    iterated_faces,
    quotient_category_oracle,
    random_action,
    random_path_category,
    random_poset,
    regular_action_oracle,
)
from test_accat import posets


def test_close_group_s3_on_antichain():
    p = poset_from_relation(3, [])
    swap = CatAut((1, 0, 2), ())
    cycle = CatAut((1, 2, 0), ())
    action = close_group([swap, cycle], on=p.category)
    assert action.order == 6


def test_close_group_rejects_non_automorphism(chain3):
    bad = CatAut((1, 0, 2), (0, 1, 2))
    with pytest.raises(InputError):
        close_group([bad], on=chain3.category)


def test_from_poset_names_the_first_unordered_pair(chain3):
    # relations in morphism order: 0 < 1, 0 < 2, 1 < 2; (1 0 2) sends 0 < 1 to 1, 0
    with pytest.raises(InputError, match=r"does not keep the order at \(0, 1\)"):
        CatAut.from_poset(chain3, (1, 0, 2))
    with pytest.raises(InputError, match=r"does not keep the order at \(1, 2\)"):
        CatAut.from_poset(chain3, (0, 2, 1))
    assert CatAut.from_poset(chain3, (0, 1, 2)) == CatAut((0, 1, 2), (0, 1, 2))


@pytest.mark.parametrize("obj", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3)])
def test_from_poset_rejects_a_non_permutation(chain3, obj):
    with pytest.raises(InputError, match="is not a permutation of the 3 objects"):
        CatAut.from_poset(chain3, obj)


def test_close_group_checks_a_poset_by_its_order(chain3):
    swapped = CatAut((0, 1, 2), (1, 0, 2))
    assert _poset_automorphism_violation(chain3, swapped) == ("order", 0)
    with pytest.raises(InputError, match=r"generator 0 is not an automorphism: \('order', 0\)"):
        close_group([swapped], on=chain3)
    with pytest.raises(InputError, match="not-a-permutation"):
        close_group([CatAut((0, 1, 1), (0, 1, 2))], on=chain3)


@settings(max_examples=40, deadline=None)
@given(posets(max_n=5))
def test_order_check_agrees_with_the_composition_scan(p):
    # every object permutation: from_poset accepts exactly the automorphisms,
    # which both checks accept, and both reject one with two morphisms swapped
    c = p.category
    for perm in itertools.permutations(range(p.n)):
        keeps = all(p.lt(perm[x], perm[y]) for (x, y) in p.mor_of)
        try:
            g = CatAut.from_poset(p, perm)
        except InputError:
            assert not keeps
            continue
        assert keeps
        assert _poset_automorphism_violation(p, g) is None
        assert cat_automorphism_violation(c, g) is None
        if c.n_morphisms >= 2:
            mor = list(g.mor)
            mor[0], mor[-1] = mor[-1], mor[0]
            bad = CatAut(g.obj, tuple(mor))
            assert _poset_automorphism_violation(p, bad) is not None
            assert cat_automorphism_violation(c, bad) is not None


def _quotient_outcome(quotient, c, action):
    try:
        qc = quotient(c, action)
    except Exception as exc:  # the outcome compared is the exception and its message
        return (type(exc), str(exc))
    return (
        qc.obj_class, qc.mor_class, qc.obj_members, qc.category.to_json()
    )


def _criterion_10_fixtures(triangle_boundary, two_edges_z2):
    """Acceptance criterion 10's fixtures, with non-poset categories and quotients,
    and a swap of the ends of an arrow, which is not horizontal."""
    p1, a1 = triangle_boundary
    p2, _nv, a2, _t, _c = two_edges_z2
    par = AcyclicCategory(["a", "b"], [(0, 1), (0, 1)])
    fork = AcyclicCategory(
        ["a", "b1", "b2", "c"],
        [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (0, 3)],
        [(0, 2, 4), (1, 3, 5)],
    )
    arrow = AcyclicCategory(["a", "b"], [(0, 1)])
    c3 = chain_poset(3).category
    return [
        (p1.category, a1),
        (p2.category, a2),
        (par, close_group([CatAut((0, 1), (1, 0))], on=par)),
        (fork, close_group([CatAut((0, 2, 1, 3), (1, 0, 3, 2, 5, 4))], on=fork)),
        (c3, trivial_cat_action(c3)),
        (arrow, GroupAction((CatAut((1, 0), (0,)),))),
    ]


def test_representative_pairs_match_the_full_scan_on_fixtures(triangle_boundary, two_edges_z2):
    for c, action in _criterion_10_fixtures(triangle_boundary, two_edges_z2):
        assert _quotient_outcome(quotient_category, c, action) == _quotient_outcome(
            quotient_category_oracle, c, action
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_representative_pairs_match_the_full_scan_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_n=7)
    action = random_action(rng, p)
    path = random_path_category(rng)
    for c, action in ((p.category, action), (path, trivial_cat_action(path))):
        assert _quotient_outcome(quotient_category, c, action) == _quotient_outcome(
            quotient_category_oracle, c, action
        )


def test_trivial_action_order_one(chain3):
    assert trivial_cat_action(chain3.category).order == 1


def test_trivial_actions_are_generated_by_the_identity(chain3):
    t = nerve(chain3.category).trisp
    for action in (trivial_cat_action(chain3.category), trivial_trisp_action(t)):
        assert action.generators == action.elements
        assert is_identity(action.generators[0])


def test_group_action_needs_a_generator():
    with pytest.raises(InputError):
        GroupAction(())


def _orbits_agree(action, n_by_dim, perm_of):
    for d, n in enumerate(n_by_dim):
        by_gens = orbit_partition([perm_of(g, d) for g in action.generators], n)
        assert by_gens == orbit_partition([perm_of(g, d) for g in action.elements], n)


def test_orbits_from_generators_dgn4(dgn4_bundle):
    tact = dgn4_bundle["tact"]
    t = dgn4_bundle["bd"].trisp
    _orbits_agree(tact, t.counts, lambda g, d: g.dims[d])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_orbits_from_generators_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_n=6)
    action = random_action(rng, p)
    c = p.category
    _orbits_agree(action, (c.n_objects, c.n_morphisms), lambda g, d: (g.obj, g.mor)[d])
    nv = nerve(c)
    tact = induced_trisp_action(nv, action)
    _orbits_agree(tact, nv.trisp.counts, lambda g, d: g.dims[d])
    assert tact.order == action.order
    # horizontality by its all-elements definition: gx != x is never joined to x
    horizontal = not any(
        g.obj[x] != x and (c.hom(x, g.obj[x]) or c.hom(g.obj[x], x))
        for g in action.elements
        for x in range(c.n_objects)
    )
    assert check_horizontal(c, action)[0] == horizontal


def test_pushing_through_the_induced_action_closes_no_group(dgn4_bundle):
    # the bundle's own action is shared with tests that read its elements
    b = dgn4_bundle
    tact = induced_trisp_action(b["bd"], b["act"])
    cmap = induced_trisp_closure_map(b["fp"].poset, b["f"], b["closure_report"])
    push_closure_map(quotient_trisp(b["bd"].trisp, tact), cmap)
    assert "elements" not in tact.__dict__


def test_z2_on_double_filled_triangle(double_filled):
    t, action, _psi = double_filled
    assert action.order == 2
    report = check_regular_action(quotient_trisp(t, action))
    assert report.ok


def test_horizontality_of_poset_automorphisms(two_edges_z2):
    _p, _nv, cat_action, _tact, _cmap = two_edges_z2
    ok, witness = check_horizontal(_p.category, cat_action)
    assert ok and witness is None


def test_horizontality_witness_on_raw_permutation():
    c = AcyclicCategory(["a", "b"], [(0, 1)])
    ok, witness = check_horizontal(c, GroupAction((CatAut((1, 0), (0,)),)))
    assert not ok
    assert witness == (0, 1)


def test_induced_action_on_hexagon(triangle_boundary):
    p, action = triangle_boundary
    nv = nerve(p.category)
    tact = induced_trisp_action(nv, action)
    assert tact.order == 3
    g = next(g for g in tact.elements if not is_identity(g))
    assert sorted(g.dims[0]) == list(range(6))


def test_induced_action_checks_generators_under_optimize():
    # the automorphism check must not vanish under `python -O`
    import os
    import subprocess
    import sys

    code = (
        "from trispcat.accat import AcyclicCategory\n"
        "from trispcat.nerve import nerve\n"
        "from trispcat.symmetry import CatAut, GroupAction, induced_trisp_action\n"
        "c = AcyclicCategory(['a', 'b', 'c'], [(0, 2), (1, 2)])\n"
        "swap = CatAut((0, 1, 2), (1, 0))  # fixes every object, swaps a->c and b->c\n"
        "try:\n"
        "    induced_trisp_action(nerve(c), GroupAction((swap,)))\n"
        "except AssertionError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.startswith("rejected: induced map is not an automorphism: ('boundary'")


def _assert_witness_violates(t, action, witness):
    """(g, σ, ρ, kind): ρ is a common face of σ and gσ that g moves or moves a vertex of."""
    gi, (d, s), (dd, ss), _kind = witness
    g = action.elements[gi]
    faces = iterated_faces(t, d, s)
    assert (dd, ss) in faces and (dd, inverse(g).dims[dd][ss]) in faces
    assert g.dims[dd][ss] != ss or any(g.dims[0][v] != v for v in t.vertex_tuple(dd, ss))


def test_regular_action_fails_on_direct_complex_action():
    k = build_dgn(4)
    action = dgn_trisp_action(k)
    report = check_regular_action(quotient_trisp(k.trisp, action))
    assert not report.ok
    _assert_witness_violates(k.trisp, action, report.witness)


def _assert_regularity_matches_oracle(t, action, regular):
    report = check_regular_action(quotient_trisp(t, action))
    assert report.ok == regular
    if regular:
        assert "elements" not in action.__dict__
    else:
        _assert_witness_violates(t, action, report.witness)
    assert regular_action_oracle(t, action)[0] == regular


@settings(max_examples=60, deadline=None)
@given(posets(), st.randoms(use_true_random=False))
def test_regularity_from_orbits_matches_the_definition_on_nerves(p, rng):
    # an automorphism of a finite poset is horizontal, so every induced action is regular
    nv = nerve(p.category)
    action = random_action(rng, p)
    _assert_regularity_matches_oracle(nv.trisp, induced_trisp_action(nv, action), True)


def test_regularity_from_orbits_matches_the_definition_on_other_actions(double_filled):
    rng = random.Random(31337)
    k = build_dgn(4)
    for _ in range(25):
        perms = [tuple(rng.sample(range(4), 4)) for _ in range(rng.choice([1, 2]))]
        action = dgn_trisp_action(k, perms)
        trivial = all(p == (0, 1, 2, 3) for p in perms)
        _assert_regularity_matches_oracle(k.trisp, action, trivial)
    t, action, _psi = double_filled  # its two 2-simplices share every vertex
    _assert_regularity_matches_oracle(t, action, True)
    digon = Trisp((2, 2), [[(1, 0), (0, 1)]])
    _assert_regularity_matches_oracle(digon, GroupAction((TrispAut(((1, 0), (1, 0))),)), False)


def test_regularity_rejects_a_loop_edge():
    t = Trisp((1, 1), [[(0, 0)]])
    with pytest.raises(PreconditionError, match=r"trisp is not regular at \(1, 0\)"):
        check_regular_action(quotient_trisp(t, trivial_trisp_action(t)))


def test_double_transposition_edge_pair_is_a_witness():
    from trispcat.graphs import build_dgn, edge_list, lift_to_edges

    k = build_dgn(4)
    edges = edge_list(4)
    edge_index = {pair: e for e, pair in enumerate(edges)}
    perm = (2, 3, 0, 1)  # the double transposition (1 3)(2 4), zero-based
    eperm = lift_to_edges(perm, edges, edge_index)
    e12, e34 = edge_index[(0, 1)], edge_index[(2, 3)]
    sigma = k.index[frozenset({e12, e34})]
    assert eperm[e12] == e34 and eperm[e34] == e12
    # the simplex {12, 34} is fixed as a set while its vertices swap
    d, s = sigma
    face = k.faces_by_dim[d][s]
    assert tuple(sorted(eperm[e] for e in face)) == face


def test_quotient_trisp_trivial_group_is_identity(chain3):
    t = nerve(chain3.category).trisp
    qt = quotient_trisp(t, trivial_trisp_action(t))
    assert qt.trisp.counts == t.counts
    assert all(qt.projection[d] == tuple(range(t.n(d))) for d in range(t.dim + 1))


def test_quotient_of_double_filled_is_filled_triangle(double_filled):
    t, action, _psi = double_filled
    qt = quotient_trisp(t, action)
    assert qt.trisp.counts == (3, 3, 1)
    assert qt.regular


def test_quotient_of_hexagon_is_two_gon(triangle_boundary):
    p, action = triangle_boundary
    nv = nerve(p.category)
    tact = induced_trisp_action(nv, action)
    qt = quotient_trisp(nv.trisp, tact)
    assert qt.trisp.counts == (2, 2)
    assert qt.regular


def test_projection_commutes_with_boundaries(triangle_boundary):
    p, action = triangle_boundary
    nv = nerve(p.category)
    tact = induced_trisp_action(nv, action)
    qt = quotient_trisp(nv.trisp, tact)
    t = nv.trisp
    for d in range(1, t.dim + 1):
        for s in range(t.n(d)):
            for i in range(d + 1):
                assert qt.projection[d - 1][t.face(d, s, i)] == qt.trisp.face(
                    d, qt.projection[d][s], i
                )


def test_quotient_category_trivial_group_is_identity(chain3):
    qc = quotient_category(chain3.category, trivial_cat_action(chain3.category))
    assert qc.category.n_objects == chain3.category.n_objects
    assert qc.category.n_morphisms == chain3.category.n_morphisms
    assert qc.obj_class == tuple(range(3))
    assert qc.mor_class == tuple(range(3))


def test_quotient_category_of_swapped_chains(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    qc = quotient_category(p.category, cat_action)
    assert qc.category.n_objects == 2
    assert qc.category.n_morphisms == 1
    as_poset(qc.category)  # quotient of the swap is again a poset


def test_quotient_category_hexagon_not_poset(triangle_boundary):
    p, action = triangle_boundary
    qc = quotient_category(p.category, action)
    assert qc.category.n_objects == 2
    assert qc.category.n_morphisms == 2
    with pytest.raises(NotAPosetError):
        as_poset(qc.category)


def test_quotient_category_requires_horizontal():
    from trispcat.errors import PreconditionError

    # a raw permutation pair that is not an automorphism, wrapped without validation
    c = AcyclicCategory(["a", "b"], [(0, 1)])
    fake = GroupAction((CatAut((1, 0), (0,)),))
    with pytest.raises(PreconditionError):
        quotient_category(c, fake)


def test_orbit_partition_least_representative():
    ids, reps = orbit_partition([(1, 2, 0, 3)], 4)
    assert ids == [0, 0, 0, 1]
    assert reps == [0, 3]


def test_canonical_map_trivial_group_is_isomorphism(chain3):
    cm = canonical_map(quotient_category(chain3.category, trivial_cat_action(chain3.category)))
    assert cm.vertex_bijective
    assert all(cm.surjective_by_dim)
    for d in range(cm.nerve_dst.trisp.dim + 1):
        assert len(set(cm.entries[d])) == len(cm.entries[d])


def test_canonical_map_hexagon_bijective(triangle_boundary):
    p, action = triangle_boundary
    cm = canonical_map(quotient_category(p.category, action))
    assert cm.vertex_bijective and all(cm.surjective_by_dim)
    assert tuple(len(level) for level in cm.entries) == cm.nerve_dst.trisp.counts


def test_canonical_map_lifts_round_trip(dgn4_bundle):
    fp, act = dgn4_bundle["fp"], dgn4_bundle["act"]
    qc = quotient_category(fp.category, act)
    cm = canonical_map(qc)
    assert all(cm.surjective_by_dim)
    lifts = canonical_lifts(qc, cm)
    for d in range(cm.nerve_dst.trisp.dim + 1):
        for s in range(cm.nerve_dst.trisp.n(d)):
            assert cm.entries[d][lifts[d][s]] == s


def test_congruence_matches_decomposition_oracle_fixtures(triangle_boundary, two_edges_z2):
    fixtures = []
    p1, a1 = triangle_boundary
    fixtures.append((p1.category, a1))
    p2, _nv, a2, _t, _c = two_edges_z2
    fixtures.append((p2.category, a2))
    # parallel pair swapped by an involution
    par = AcyclicCategory(["a", "b"], [(0, 1), (0, 1)])
    swap = close_group([CatAut((0, 1), (1, 0))], on=par)
    fixtures.append((par, swap))
    # free category on a fork with two composite routes
    fork = AcyclicCategory(
        ["a", "b1", "b2", "c"],
        [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (0, 3)],
        [(0, 2, 4), (1, 3, 5)],
    )
    assert validate_category(fork).ok
    sym = close_group([CatAut((0, 2, 1, 3), (1, 0, 3, 2, 5, 4))], on=fork)
    fixtures.append((fork, sym))
    for c, action in fixtures:
        qc = quotient_category(c, action)
        assert list(qc.mor_class) == decomposition_quotient_classes(c, action)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_congruence_matches_decomposition_oracle_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_n=6)
    action = random_action(rng, p)
    qc = quotient_category(p.category, action)
    assert list(qc.mor_class) == decomposition_quotient_classes(p.category, action)
    assert validate_category(qc.category).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_map_surjective_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_n=6)
    action = random_action(rng, p)
    cm = canonical_map(quotient_category(p.category, action))
    assert cm.vertex_bijective
    assert all(cm.surjective_by_dim)
