import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from trispcat import symmetry
from trispcat.accat import (
    AcyclicCategory,
    as_poset,
    poset_from_relation,
    subposet,
    validate_category,
)
from trispcat.closure import induced_trisp_closure_map
from trispcat.equivariant import image_quotient_nerve, push_closure_map
from trispcat.errors import InputError, NotAPosetError, PreconditionError, SoundnessError
from trispcat.graphs import (
    _sn_group,
    build_dgn,
    face_poset,
    face_poset_action,
    partition_action,
    partition_poset,
    transitive_closure_operator,
)
from trispcat.nerve import Nerve, chain_counts, nerve
from trispcat.symmetry import (
    Aut,
    GroupAction,
    canonical_map,
    cat_automorphism_violation,
    check_horizontal,
    check_regular_action,
    close_group,
    induced_trisp_action,
    lift_elements,
    orbit_nerve,
    orbit_partition,
    poset_automorphism,
    poset_quotient_category,
    quotient_category,
    quotient_trisp,
    trisp_automorphism_violation,
)
from trispcat.trisp import Trisp, regularity_violations

from oracles import (
    automorphism_violation_by_face,
    burnside_chain_orbit_counts,
    canonical_lifts,
    chain_poset,
    decomposition_quotient_classes,
    dgn_trisp_action,
    explicit_action,
    inverse,
    is_identity,
    iterated_faces,
    morphism_index,
    object_maps,
    path_category,
    poset_automorphism_violation,
    quotient_category_oracle,
    random_action,
    random_path_category,
    random_poset,
    regular_action_oracle,
    union_find_orbits,
)
from test_accat import assert_terminal_object_is_the_definition, posets
from test_graphs import _face_map


def test_close_group_s3_on_antichain():
    p = poset_from_relation(3, [])
    swap = Aut(((1, 0, 2), ()))
    cycle = Aut(((1, 2, 0), ()))
    action = close_group([swap, cycle], on=p.category)
    assert action.order == 6


def test_close_group_rejects_non_automorphism(chain3):
    bad = Aut(((1, 0, 2), (0, 1, 2)))
    with pytest.raises(InputError):
        close_group([bad], on=chain3.category)


def test_from_poset_names_the_first_generating_pair_it_breaks(chain3):
    # the generating pairs are 0 < 1 and 1 < 2; (1 0 2) sends 0 < 1 to 1, 0
    with pytest.raises(InputError) as got:
        poset_automorphism(chain3, (1, 0, 2))
    assert str(got.value) == "relabelling sends 0 < 1 to 1, 0, not a relation"
    with pytest.raises(InputError) as got:
        poset_automorphism(chain3, (0, 2, 1))
    assert str(got.value) == "relabelling sends 1 < 2 to 2, 1, not a relation"
    assert poset_automorphism(chain3, (0, 1, 2)) == Aut(((0, 1, 2),))


@pytest.mark.parametrize("obj", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3)])
def test_from_poset_rejects_a_non_permutation(chain3, obj):
    with pytest.raises(InputError, match="is not a permutation of the 3 objects"):
        poset_automorphism(chain3, obj)


def test_close_group_checks_a_poset_by_its_order(chain3):
    # a poset generator is an object map, checked against the order; a
    # morphism map is checked by the composition scan of the category
    swapped = Aut(((0, 1, 2), (1, 0, 2)))
    assert poset_automorphism_violation(chain3, swapped) == ("order", 0)
    with pytest.raises(InputError, match=r"generator 0 is not an automorphism: \('target', 0\)"):
        close_group([swapped], on=chain3.category)
    with pytest.raises(InputError, match=r"\[0, 1, 1\] is not a permutation of the 3 objects"):
        close_group([(0, 1, 1)], on=chain3)


def test_close_group_builds_a_poset_generator_from_its_object_map(chain3):
    # an object map is built into its automorphism; one that breaks the
    # order is refused at the first relation whose image is not one
    action = close_group([(0, 1, 2), [0, 1, 2]], on=chain3)
    assert action.generators == (Aut(((0, 1, 2),)),) * 2
    antichain = poset_from_relation(3, [])
    assert close_group([[1, 2, 0]], on=antichain).order == 3
    refused = "generator {} is not an automorphism: "
    with pytest.raises(InputError) as got:
        close_group([(0, 1, 2), (1, 0, 2)], on=chain3)
    assert str(got.value) == refused.format(1) + "relabelling sends 0 < 1 to 1, 0, not a relation"
    with pytest.raises(InputError, match="relabelling sends 1 < 2 to 2, 1, not a relation"):
        close_group([(0, 2, 1)], on=chain3)
    with pytest.raises(InputError) as got:
        close_group([(0, 1)], on=chain3)
    assert str(got.value) == refused.format(0) + "[0, 1] is not a permutation of the 3 objects"


@settings(max_examples=40, deadline=None)
@given(posets(max_n=5))
def test_order_check_agrees_with_the_composition_scan(p):
    # every object permutation: poset_automorphism accepts exactly the automorphisms,
    # and close_group on the poset holds their object maps; with the morphism
    # map read off the order both checks accept them, and both reject one
    # with two morphisms swapped, as close_group on the category does, with
    # the scan's witness
    c = p.category
    for perm in itertools.permutations(range(p.n)):
        keeps = all(p.lt(perm[x], perm[y]) for x, y in zip(c.src, c.tgt))
        try:
            g = poset_automorphism(p, perm)
        except InputError as exc:
            assert not keeps
            with pytest.raises(InputError) as got:
                close_group([perm], on=p)
            assert str(got.value) == f"generator 0 is not an automorphism: {exc}"
            continue
        assert keeps and g == Aut((perm,))
        assert close_group([perm], on=p).generators == (g,)
        [g] = explicit_action(p, GroupAction((g,))).generators
        assert poset_automorphism_violation(p, g) is None
        assert cat_automorphism_violation(c, g) is None
        assert close_group([g], on=c).generators == (g,)
        if c.n_morphisms >= 2:
            mor = list(g.dims[1])
            mor[0], mor[-1] = mor[-1], mor[0]
            bad = Aut((g.dims[0], tuple(mor)))
            assert poset_automorphism_violation(p, bad) is not None
            witness = cat_automorphism_violation(c, bad)
            assert witness is not None
            with pytest.raises(InputError) as got:
                close_group([bad], on=c)
            assert str(got.value) == f"generator 0 is not an automorphism: {witness}"


@st.composite
def generated_posets(draw, max_n=5):
    """A poset from a relabelled relation with transitive pairs thrown in, its
    view through `as_poset`, and a subposet of it."""
    p = draw(posets(max_n))
    rng = draw(st.randoms(use_true_random=False))
    label = rng.sample(range(p.n), p.n)
    pairs = [(label[x], label[y]) for x, y in p.relation]
    ends = zip(p.category.src, p.category.tgt)
    pairs += [(label[x], label[y]) for x, y in ends if rng.random() < 0.5]
    q = poset_from_relation(p.n, rng.sample(pairs, len(pairs)) * 2)
    keep = [x for x in range(q.n) if rng.random() < 0.7]
    return [q, as_poset(q.category), subposet(q, keep)[0]]


@settings(max_examples=60, deadline=None)
@given(generated_posets())
def test_the_relation_check_accepts_what_the_order_oracle_accepts(ps):
    # each object permutation is checked on the generating pairs only; it
    # passes exactly when the morphism map it fixes keeps the whole order
    for p in ps:
        mor_of = morphism_index(p.category)
        assert set(p.relation) <= set(mor_of)
        for perm in itertools.permutations(range(p.n)):
            ends = zip(p.category.src, p.category.tgt)
            mor = tuple(mor_of.get((perm[x], perm[y]), -1) for x, y in ends)
            accepted = poset_automorphism_violation(p, Aut((perm, mor))) is None
            try:
                poset_automorphism(p, perm)
            except InputError as exc:
                assert not accepted and str(exc).startswith("relabelling sends ")
            else:
                assert accepted


def _quotient_outcome(quotient, c, action):
    try:
        qc = quotient(c, action)
    except Exception as exc:  # the outcome compared is the exception and its message
        return (type(exc), str(exc))
    return (
        qc.obj_class, qc.mor_class, qc.obj_reps, qc.category.to_json()
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
        (par, close_group([Aut(((0, 1), (1, 0)))], on=par)),
        (fork, close_group([Aut(((0, 2, 1, 3), (1, 0, 3, 2, 5, 4)))], on=fork)),
        (c3, close_group([], on=c3)),
        (arrow, GroupAction((Aut(((1, 0), (0,))),))),
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
    for c, action in ((p.category, action), (path, close_group([], on=path))):
        assert _quotient_outcome(quotient_category, c, action) == _quotient_outcome(
            quotient_category_oracle, c, action
        )


_NO_MORPHISM_LEVEL = "a poset action has no morphism level; see poset_quotient_category"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_quotient_category_refuses_a_poset_action(seed):
    # object maps only: a named refusal before any other check, not an
    # IndexError; the same action given with its morphism maps quotients as
    # the oracle does
    rng = random.Random(seed)
    p = random_poset(rng, max_n=7)
    action = close_group([g.dims[0] for g in random_action(rng, p).generators], on=p)
    assert all(len(g.dims) == 1 for g in action.generators)
    assert _quotient_outcome(quotient_category, p.category, action) == (
        PreconditionError, _NO_MORPHISM_LEVEL
    )
    explicit = explicit_action(p, action)
    assert _quotient_outcome(quotient_category, p.category, explicit) == _quotient_outcome(
        quotient_category_oracle, p.category, explicit
    )


def test_induced_trisp_action_refuses_a_poset_action(dgn4_bundle):
    # the S_4 action on DG_4's face poset as face_poset_action builds it, object
    # maps only, and the same action with its morphism maps
    fp, act, bd = dgn4_bundle["fp"], dgn4_bundle["act"], dgn4_bundle["bd"]
    assert all(len(g.dims) == 1 for g in act.generators)
    with pytest.raises(PreconditionError) as got:
        induced_trisp_action(bd, act)
    assert str(got.value) == _NO_MORPHISM_LEVEL
    tact = induced_trisp_action(bd, explicit_action(fp.poset, act))
    assert [g.dims[0] for g in tact.generators] == [g.dims[0] for g in act.generators]


def _assert_orbit_rows_agree(p, action, elements, explicit):
    """The orbit-row quotient of `p` equals `quotient_category` and its oracle, each
    as (obj_class, obj_reps, category JSON) or as (exception type, message).

    `quotient_category` and the oracle take `explicit`, the action with its
    morphism maps.  Each union-find the orbit rows run is kept, and a second
    pass over the rows must unite nothing.
    """
    made = []

    class Recorded(symmetry._UnionFind):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry, "_UnionFind", Recorded)
        orbit = _quotient_outcome(lambda _c, a: poset_quotient_category(p, a, elements), p, action)
    if made:
        [uf], t = made, orbit_nerve(p, elements).trisp
        first = {}
        for a0, a1, a2 in t.boundary_table(2) if t.dim >= 2 else ():
            assert not uf.union(first.setdefault((uf.find(a2), uf.find(a0)), a1), a1)
    outcomes = [
        orbit,
        _quotient_outcome(quotient_category, p.category, explicit),
        _quotient_outcome(quotient_category_oracle, p.category, explicit),
    ]
    orbit, path, oracle = [o if len(o) == 2 else (o[0], *o[2:]) for o in outcomes]
    assert orbit == path == oracle


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_the_orbit_row_quotient_is_the_morphism_orbit_quotient_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_n=7)
    action = random_action(rng, p)
    _assert_orbit_rows_agree(p, action, object_maps(action), action)


def _sn_posets(n):
    """(poset, S_n action, lifted elements) for the DG_n face poset, its
    operator image and both orientations of the partition poset."""
    group, k = _sn_group(n), build_dgn(n)
    fp = face_poset(k)
    act = face_poset_action(k, fp)
    sub, keep = subposet(fp.poset, set(transitive_closure_operator(k, fp)))
    pos = {x: i for i, x in enumerate(keep)}
    sub_act = close_group([[pos[g.dims[0][x]] for x in keep] for g in act.generators], on=sub)
    out = [(fp.poset, act, lift_elements(group, act)), (sub, sub_act, object_maps(sub_act))]
    for pp in (partition_poset(n), partition_poset(n, fine_on_top=False)):
        pact = partition_action(pp)
        out.append((pp.poset, pact, lift_elements(group, pact)))
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_orbit_row_quotient_is_the_morphism_orbit_quotient_on_the_sn_posets(n):
    # DG_3's face poset has no morphism, so its orbit nerve has no level 1
    for p, action, elements in _sn_posets(n):
        _assert_orbit_rows_agree(p, action, elements, explicit_action(p, action))
    assert _sn_posets(3)[0][0].category.n_morphisms == 0


def test_the_category_quotient_refuses_a_non_horizontal_action():
    # a swap of the ends of an arrow, not an automorphism, wrapped unchecked
    c, explicit = chain_poset(2).category, GroupAction((Aut(((1, 0), (0,))),))
    outcomes = [_quotient_outcome(q, c, explicit) for q in (quotient_category, quotient_category_oracle)]
    assert outcomes == [(PreconditionError, "action is not horizontal at (0, 1)")] * 2


def test_close_group_refuses_the_arrow_swap():
    # the premise the orbit-row quotient rests on: no checked action swaps
    # the ends of an arrow, as a swap is no automorphism
    p = chain_poset(2)
    with pytest.raises(InputError) as on_poset:
        close_group([(1, 0)], on=p)
    assert str(on_poset.value) == (
        "generator 0 is not an automorphism: relabelling sends 0 < 1 to 1, 0, not a relation"
    )
    with pytest.raises(InputError) as on_category:
        close_group([Aut(((1, 0), (0,)))], on=p.category)
    assert str(on_category.value) == "generator 0 is not an automorphism: ('source', 0)"


def test_the_orbit_row_quotient_of_an_unchecked_arrow_swap_has_a_loop():
    # the orbit-row path checks no horizontality; given the swap unchecked,
    # its one class is a loop, which the quotient's validation refuses
    p = chain_poset(2)
    with pytest.raises(SoundnessError, match=r"^quotient category invalid: .*'self_loops': \[0\]"):
        poset_quotient_category(p, GroupAction((Aut(((1, 0),)),)), [(0, 1), (1, 0)])


def test_an_image_quotient_on_fewer_than_two_objects_lifts_the_identity():
    # two minimal objects swapped below a fixed top: the top alone, or no
    # object, is a closed subset, on which the group lifts to one element
    p = poset_from_relation(3, [(0, 2), (1, 2)])
    action = close_group([(1, 0, 2)], on=p)
    for image, objects in (([2], 1), ([], 0)):
        keep, qc = image_quotient_nerve(p, action, action, image)
        assert keep == tuple(image) and qc.category.n_objects == objects
        assert lift_elements(action, qc.action) == [tuple(range(objects))]


PATH_ORDERS = {
    "shortest-first": lambda paths: sorted(paths, key=lambda p: (len(p), p)),
    "longest-first": lambda paths: sorted(paths, key=lambda p: (-len(p), p)),
    "shuffled": lambda paths: random.Random(3).sample(paths, len(paths)),
}


@pytest.mark.parametrize("order", sorted(PATH_ORDERS))
def test_one_pass_reaches_the_congruence_on_a_twisted_free_category(order):
    # the free category on edges a_i: x -> y, e_i: y -> m(i) and f_i: m(i) -> w,
    # i in Z2 x Z2, with m(i) = z for i in {0, 3} and z' otherwise; the group
    # acts on each edge index by xor and swaps z and z' by either generator.
    # With q ~ q' the paths a e q and a e q' lie in different orbits: its 68
    # paths fall into 17 orbits, which the congruence joins into 6 classes.
    # The pass meets the pairs in whatever order the morphism ids give them.
    x, y, z, z2, w = range(5)
    mid = [z, z2, z2, z]
    edges = [(x, y)] * 4 + [(y, mid[i]) for i in range(4)] + [(mid[i], w) for i in range(4)]
    c, paths = path_category(5, edges, PATH_ORDERS[order])
    index = {p: m for m, p in enumerate(paths)}
    gens = []
    for g in (1, 2):
        edge_map = [e - e % 4 + (e % 4 ^ g) for e in range(len(edges))]
        mor = tuple(index[tuple(edge_map[e] for e in p)] for p in paths)
        gens.append(Aut(((x, y, z2, z, w), mor)))
    action = close_group(gens, on=c)
    assert action.order == 4
    assert len(set(orbit_partition([g.dims[1] for g in gens], len(paths))[0])) == 17
    outcome = _quotient_outcome(quotient_category, c, action)
    assert outcome == _quotient_outcome(quotient_category_oracle, c, action)
    quotient = outcome[-1]  # the free category on the path x -> y -> {z, z'} -> w
    assert (len(quotient["objects"]), len(quotient["morphisms"])) == (4, 6)


def test_terminal_object_of_fixture_quotients_is_the_definition(triangle_boundary, two_edges_z2):
    # the last fixture's action is not horizontal, so it has no quotient
    for c, action in _criterion_10_fixtures(triangle_boundary, two_edges_z2)[:-1]:
        assert_terminal_object_is_the_definition(quotient_category(c, action).category)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_terminal_object_of_random_quotients_is_the_definition(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_n=6)
    ends = zip(p.category.src, p.category.tgt)
    with_top = poset_from_relation(p.n + 1, [*ends, *((x, p.n) for x in range(p.n))])
    for q in (p, with_top):
        assert_terminal_object_is_the_definition(
            quotient_category(q.category, random_action(rng, q)).category
        )


def test_trivial_action_order_one(chain3):
    assert close_group([], on=chain3.category).order == 1


def test_trivial_actions_are_generated_by_the_identity(chain3):
    # no generators: the identity of a category, a poset or a trisp, empty or not
    cases = [
        (chain3.category, Aut(((0, 1, 2), (0, 1, 2)))),
        (chain3, Aut(((0, 1, 2),))),
        (nerve(chain3.category).trisp, Aut(((0, 1, 2), (0, 1, 2), (0,)))),
        (Trisp([], []), Aut(())),
        (AcyclicCategory([], []), Aut(((), ()))),
        (poset_from_relation(0, []), Aut(((),))),
    ]
    for on, identity in cases:
        action = close_group([], on=on)
        assert action.generators == action.elements == (identity,)
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
    _orbits_agree(action, (c.n_objects, c.n_morphisms), lambda g, d: g.dims[d])
    nv = nerve(c)
    tact = induced_trisp_action(nv, action)
    _orbits_agree(tact, nv.trisp.counts, lambda g, d: g.dims[d])
    assert tact.order == action.order
    # horizontality by its all-elements definition: gx != x is never joined to x
    horizontal = not any(
        g.dims[0][x] != x and (c.hom(x, g.dims[0][x]) or c.hom(g.dims[0][x], x))
        for g in action.elements
        for x in range(c.n_objects)
    )
    obj_orbit = orbit_partition([g.dims[0] for g in action.generators], c.n_objects)[0]
    assert (check_horizontal(obj_orbit, zip(c.src, c.tgt)) is None) == horizontal
    # a group of poset automorphisms is horizontal: x < hx would give the
    # cycle x < hx < ... < h^k x = x
    assert horizontal


def test_pushing_through_the_induced_action_closes_no_group(dgn4_bundle):
    # the bundle's own action is shared with tests that read its elements
    b = dgn4_bundle
    tact = induced_trisp_action(b["bd"], b["cat_act"])
    cmap = induced_trisp_closure_map(b["fp"].poset, b["f"], b["closure_witnesses"])
    push_closure_map(quotient_trisp(b["bd"].trisp, tact), cmap)
    assert "elements" not in tact.__dict__


def test_z2_on_double_filled_triangle(double_filled):
    t, action, _psi = double_filled
    assert action.order == 2
    assert check_regular_action(quotient_trisp(t, action)) is None


def test_horizontality_of_poset_automorphisms(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    obj_orbit = orbit_partition([g.dims[0] for g in cat_action.generators], p.n)[0]
    assert check_horizontal(obj_orbit, zip(p.category.src, p.category.tgt)) is None


def _acyclic(n, edges):
    """Whether the quiver on n objects with these (source, target) edges has no cycle."""
    indegree, seen = [0] * n, 0
    for _a, b in edges:
        indegree[b] += 1
    ready = [x for x in range(n) if not indegree[x]]
    while ready:
        x, seen = ready.pop(), seen + 1
        for a, b in edges:
            if a == x:
                indegree[b] -= 1
                if not indegree[b]:
                    ready.append(b)
    return seen == n


def _random_symmetric_free_category(rng, max_edges=8):
    """The free category on a random acyclic quiver closed under a random object
    permutation, and the action of the automorphism that permutation induces.

    Edges are added an orbit at a time, an orbit whose edges would close a
    cycle is skipped, and an orbit may come twice, so that the category has
    parallel morphisms.  Edge i of an orbit goes to edge i + 1.
    """
    n = rng.randint(2, 5)
    perm = rng.sample(range(n), n)
    edges, edge_map = [], []
    for _ in range(rng.randint(1, 4)):
        orbit = [tuple(rng.sample(range(n), 2))]
        while (perm[orbit[-1][0]], perm[orbit[-1][1]]) != orbit[0]:
            orbit.append((perm[orbit[-1][0]], perm[orbit[-1][1]]))
        copies = rng.choice([1, 2])
        if len(edges) + copies * len(orbit) > max_edges or not _acyclic(n, edges + orbit):
            continue
        for _copy in range(copies):
            start = len(edges)
            edges += orbit
            edge_map += [start + (i + 1) % len(orbit) for i in range(len(orbit))]
    c, paths = path_category(n, edges)
    index = {path: m for m, path in enumerate(paths)}
    mor = tuple(index[tuple(edge_map[e] for e in path)] for path in paths)
    return c, close_group([Aut((tuple(perm), mor))], on=c)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_automorphisms_of_acyclic_categories_are_horizontal_random(seed):
    # the premise that would let `quotient_category` drop `check_horizontal`:
    # no morphism of an acyclic category, parallel ones included, joins two
    # distinct objects of one orbit, orbits taken over every group element
    c, action = _random_symmetric_free_category(random.Random(seed))
    orbit = [{g.dims[0][x] for g in action.elements} for x in range(c.n_objects)]
    assert not any(y in orbit[x] for x, y in zip(c.src, c.tgt))
    obj_orbit = orbit_partition([g.dims[0] for g in action.generators], c.n_objects)[0]
    assert check_horizontal(obj_orbit, zip(c.src, c.tgt)) is None


def test_the_random_symmetric_free_categories_have_parallel_morphisms():
    # the generator above reaches parallel morphisms and moved objects
    parallel = moved = 0
    for seed in range(40):
        c, action = _random_symmetric_free_category(random.Random(seed))
        ends = list(zip(c.src, c.tgt))
        parallel += len(set(ends)) < len(ends)
        moved += any(g.dims[0] != tuple(range(c.n_objects)) for g in action.generators)
    assert parallel and moved


def test_horizontality_witness_on_raw_permutation():
    # the swap of a and b, not an automorphism of a -> b: that arrow joins its orbit
    obj_orbit = orbit_partition([(1, 0)], 2)[0]
    assert check_horizontal(obj_orbit, [(0, 1)]) == (0, 1)
    assert check_horizontal(obj_orbit, [(1, 1)]) is None  # a loop joins no two objects


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
        "from trispcat.symmetry import Aut, GroupAction, induced_trisp_action\n"
        "c = AcyclicCategory(['a', 'b', 'c'], [(0, 2), (1, 2)])\n"
        "swap = Aut(((0, 1, 2), (1, 0)))  # fixes every object, swaps a->c and b->c\n"
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
    witness = check_regular_action(quotient_trisp(k.trisp, action))
    assert witness is not None
    _assert_witness_violates(k.trisp, action, witness)


def _assert_regularity_matches_oracle(t, action, regular):
    witness = check_regular_action(quotient_trisp(t, action))
    assert (witness is None) == regular
    if regular:
        assert "elements" not in action.__dict__
    else:
        _assert_witness_violates(t, action, witness)
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
    _assert_regularity_matches_oracle(digon, GroupAction((Aut(((1, 0), (1, 0))),)), False)


def test_regularity_rejects_a_loop_edge():
    t = Trisp((1, 1), [[(0, 0)]])
    with pytest.raises(PreconditionError, match=r"trisp is not regular at \(1, 0\)"):
        check_regular_action(quotient_trisp(t, close_group([], on=t)))


def test_double_transposition_edge_pair_is_a_witness():
    from trispcat.graphs import build_dgn, edge_list, lift_to_edges

    k = build_dgn(4)
    edges = edge_list(4)
    edge_index = {pair: e for e, pair in enumerate(edges)}
    perm = (2, 3, 0, 1)  # the double transposition (1 3)(2 4), zero-based
    eperm = lift_to_edges(perm, edges, edge_index)
    e12, e34 = edge_index[(0, 1)], edge_index[(2, 3)]
    d, s = face_poset(k).elements[k.index[frozenset({e12, e34})]]
    assert eperm[e12] == e34 and eperm[e34] == e12
    # the simplex {12, 34} is fixed as a set while its vertices swap
    face = k.faces_by_dim[d][s]
    assert tuple(sorted(eperm[e] for e in face)) == face


def test_quotient_trisp_trivial_group_is_identity(chain3):
    t = nerve(chain3.category).trisp
    qt = quotient_trisp(t, close_group([], on=t))
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
    qc = quotient_category(chain3.category, close_group([], on=chain3.category))
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
    fake = GroupAction((Aut(((1, 0), (0,))),))
    with pytest.raises(PreconditionError):
        quotient_category(c, fake)


def test_quotient_category_requires_a_complete_composition_table():
    # a -> b -> c with no composite a -> c: the pair (0, 1) has no entry
    c = AcyclicCategory(["a", "b", "c"], [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError) as got:
        quotient_category(c, close_group([], on=c))
    assert str(got.value) == "composition table incomplete at (0, 1)"


def test_quotient_category_validates_the_quotient(chain3, monkeypatch):
    from trispcat import symmetry
    from trispcat.accat import CategoryReport

    looped = CategoryReport([0], None, [], [], [])
    monkeypatch.setattr(symmetry, "validate_category", lambda c: looped)
    with pytest.raises(SoundnessError) as got:
        quotient_category(chain3.category, close_group([], on=chain3.category))
    assert str(got.value) == f"quotient category invalid: {looped.to_json()}"
    trivial = close_group([], on=chain3)
    with pytest.raises(SoundnessError) as got:  # and on the orbit rows
        poset_quotient_category(chain3, trivial, [(0, 1, 2)])
    assert str(got.value) == f"quotient category invalid: {looped.to_json()}"


def test_orbit_partition_least_representative():
    ids, reps = orbit_partition([(1, 2, 0, 3)], 4)
    assert ids == [0, 0, 0, 1]
    assert reps == [0, 3]


def test_orbit_partition_matches_union_find():
    """Stack-search labels equal union-find classes, ids and representatives alike.

    The lists are random generating sets, which are not groups themselves,
    whole groups, the empty list and n = 0.
    """
    rng = random.Random(7)
    cases = [([], 0), ([], 5), ([()], 0), ([(0,)], 1)]
    for _ in range(200):
        n = rng.randrange(0, 12)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(rng.randrange(0, 4))]
        cases.append((perms, n))
    for n in range(1, 5):
        cases.append((list(itertools.permutations(range(n))), n))
    for perms, n in cases:
        assert orbit_partition(perms, n) == union_find_orbits(perms, n)


def _swap(perm, a, b):
    perm = list(perm)
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def test_automorphism_violation_names_the_first_face(dgn4_bundle):
    t = dgn4_bundle["bd"].trisp
    rng = random.Random(11)
    for g in dgn4_bundle["tact"].generators:
        assert trisp_automorphism_violation(t, g) is None
        for d in range(t.dim + 1):
            for _ in range(5):
                a, b = rng.sample(range(t.n(d)), 2)
                dims = list(g.dims)
                dims[d] = _swap(dims[d], a, b)
                broken = Aut(tuple(dims))
                witness = trisp_automorphism_violation(t, broken)
                assert witness is not None and witness[0] == "boundary"
                assert witness == automorphism_violation_by_face(t, broken)


def test_induced_action_checks_the_edge_morphisms(dgn4_bundle):
    nv = nerve(dgn4_bundle["fp"].category)
    swapped = list(nv.morphisms)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(SoundnessError, match="not an automorphism"):
        induced_trisp_action(Nerve(nv.trisp, tuple(swapped)), dgn4_bundle["cat_act"])


def test_canonical_map_trivial_group_is_isomorphism(chain3):
    cm = canonical_map(quotient_category(chain3.category, close_group([], on=chain3.category)))
    assert cm.vertex_bijective
    assert all(cm.surjective_by_dim)
    for d in range(cm.nerve_dst.trisp.dim + 1):
        assert len(set(cm.entries[d])) == len(cm.entries[d])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_map_commutes_with_boundaries(seed):
    # why canonical_map has no boundary check: the class projection is a
    # functor, and the map is constant on orbits
    rng = random.Random(seed)
    p = random_poset(rng, max_n=6)
    qc = quotient_category(p.category, random_action(rng, p))
    cm = canonical_map(qc)
    nv = nerve(p.category)
    qt = quotient_trisp(nv.trisp, induced_trisp_action(nv, qc.action))
    dst = cm.nerve_dst.trisp
    for d in range(1, qt.trisp.dim + 1):
        for o in range(qt.trisp.n(d)):
            for i in range(d + 1):
                assert cm.entries[d - 1][qt.trisp.face(d, o, i)] == dst.face(d, cm.entries[d][o], i)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_map_is_the_identity_on_vertices(seed):
    # why canonical_map has no bijectivity check: vertex orbit o goes to class o
    rng = random.Random(seed)
    p = random_poset(rng, max_n=6)
    qc = quotient_category(p.category, random_action(rng, p))
    assert canonical_map(qc).entries[0] == tuple(range(qc.category.n_objects))


def test_canonical_map_hexagon_bijective(triangle_boundary):
    p, action = triangle_boundary
    cm = canonical_map(quotient_category(p.category, action))
    assert cm.vertex_bijective and all(cm.surjective_by_dim)
    assert tuple(len(level) for level in cm.entries) == cm.nerve_dst.trisp.counts


def test_canonical_map_lifts_round_trip(dgn4_bundle):
    qc = quotient_category(dgn4_bundle["fp"].category, dgn4_bundle["cat_act"])
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
    swap = close_group([Aut(((0, 1), (1, 0)))], on=par)
    fixtures.append((par, swap))
    # free category on a fork with two composite routes
    fork = AcyclicCategory(
        ["a", "b1", "b2", "c"],
        [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (0, 3)],
        [(0, 2, 4), (1, 3, 5)],
    )
    assert validate_category(fork).ok
    sym = close_group([Aut(((0, 2, 1, 3), (1, 0, 3, 2, 5, 4)))], on=fork)
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


def _assert_orbit_nerve_is_the_quotient_of_the_nerve(p, action):
    """The orbit nerve equals `quotient_trisp` of the nerve, table for table.

    Each orbit's top is the top of the vertex tuple of its least member
    upstairs, and the orbit trisp is regular, as `orbit_nerve` proves.
    """
    on = orbit_nerve(p, object_maps(action))
    nv = nerve(p.category)
    qt = quotient_trisp(nv.trisp, induced_trisp_action(nv, explicit_action(p, action)))
    assert on.trisp.counts == qt.trisp.counts
    for d in range(qt.trisp.dim + 1):
        assert on.trisp.boundary_table(d) == qt.trisp.boundary_table(d)
        assert list(on.tops[d]) == [nv.trisp.vertex_tuple(d, rep)[-1] for rep in qt.reps[d]]
    assert on.obj_orbit == qt.projection[0]
    # each orbit counted once: the orbit sizes add up to the chains, per dimension
    assert [sum(sizes) for sizes in on.orbit_sizes] == list(nv.trisp.counts)
    assert chain_counts(p.category) == list(nv.trisp.counts)
    assert regularity_violations(on.trisp) == qt.regularity_violations == []
    assert burnside_chain_orbit_counts(p, action) == list(on.trisp.counts)
    return on


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_orbit_nerve_is_the_quotient_of_the_nerve_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng)
    _assert_orbit_nerve_is_the_quotient_of_the_nerve(p, random_action(rng, p))


@pytest.mark.parametrize("n, counts", [
    (3, [1]), (4, [4, 4, 1]), (5, [12, 55, 122, 153, 105, 30])
])
def test_orbit_nerve_of_the_dgn_face_poset(n, counts):
    k = build_dgn(n)
    fp = face_poset(k)
    on = _assert_orbit_nerve_is_the_quotient_of_the_nerve(fp.poset, face_poset_action(k, fp))
    assert list(on.trisp.counts) == counts


def _cyclic_dihedral_alternating(n):
    """Generators of Z_n, the dihedral group of order 2n and A_n, as vertex permutations."""
    cycle = tuple(range(1, n)) + (0,)
    reflection = tuple(-i % n for i in range(n))
    three_cycles = [tuple({0: 1, 1: i, i: 0}.get(x, x) for x in range(n)) for i in range(2, n)]
    return {"Z": [cycle], "D": [cycle, reflection], "A": three_cycles}


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", ["Z", "D", "A"])
def test_orbit_nerve_of_the_dgn_face_poset_under_subgroups_of_sn(n, name):
    # the orbit nerve against the quotient of the nerve and the Burnside
    # counts, under groups that are not S_n; A_5's counts are pinned
    k = build_dgn(n)
    fp = face_poset(k)
    # each generator moves the faces as `face_poset_action` moves them under S_n
    action = close_group([_face_map(k, fp, g) for g in _cyclic_dihedral_alternating(n)[name]],
                         on=fp.poset)
    assert action.order == {"Z": n, "D": 2 * n, "A": math.factorial(n) // 2}[name]
    on = _assert_orbit_nerve_is_the_quotient_of_the_nerve(fp.poset, action)
    if (n, name) == (5, "A"):
        assert list(on.trisp.counts) == [13, 73, 201, 290, 210, 60]


def test_orbit_nerve_keeps_one_int_per_simplex_and_no_chain():
    # on DG_5's face poset each orbit of chains keeps one int, the top object
    # of its least chain; no chain tuple is stored, and its rows are the trisp's
    k = build_dgn(5)
    fp = face_poset(k)
    on = orbit_nerve(fp.poset, object_maps(face_poset_action(k, fp)))
    assert list(map(len, on.tops)) == list(on.trisp.counts) == [12, 55, 122, 153, 105, 30]
    assert {type(top) for level in on.tops for top in level} == {int}
    assert not hasattr(on, "chains")


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("fine_on_top", [False, True])
def test_orbit_nerve_of_the_partition_poset(n, fine_on_top):
    pp = partition_poset(n, fine_on_top=fine_on_top)
    _assert_orbit_nerve_is_the_quotient_of_the_nerve(pp.poset, partition_action(pp))


def _ranks_under_s3(ranks):
    """`ranks` ranks of the objects 0, 1, 2, every object below every one of a higher rank.

    S_3 permutes each rank alike; its generators swap the first two and
    the last two objects of every rank.
    """
    p = poset_from_relation(3 * ranks, [
        (x, y) for x in range(3 * ranks) for y in range(3 * (x // 3 + 1), 3 * ranks)
    ])
    gens = [tuple(x - x % 3 + g[x % 3] for x in range(3 * ranks)) for g in [(1, 0, 2), (0, 2, 1)]]
    return p, close_group(gens, on=p)


def test_orbit_nerve_composes_a_stabilizer_element_with_a_transporter():
    # Stab((3, 6)) swaps the last two objects of every rank, so the least
    # image of a face such as (4, 7) + 11, carried onto (3, 6) + 11 by a
    # transporter h, is found by a non-identity s in that stabilizer, and s∘h
    # carries the face down to the chains above it
    p, action = _ranks_under_s3(4)
    on = _assert_orbit_nerve_is_the_quotient_of_the_nerve(p, action)
    assert list(on.trisp.counts) == [4, 12, 20, 14]
    # the least chains (0, 3), (0, 4), (0, 6): one parent, the vertex 0
    assert on.tops[1][:3] == [3, 4, 6] and on.tops[0][0] == 0
    assert [row[-1] for row in on.trisp.boundary_table(1)[:3]] == [0, 0, 0]


@pytest.mark.parametrize("repeated", [0, 3])
def test_orbit_nerve_refuses_an_element_listed_twice(repeated):
    # the identity listed twice leaves two elements that fix every object, so
    # the base search covers them all; another element listed twice is found
    # once the base is; either would make |G| / |Stab| miscount orbit sizes
    p, action = _ranks_under_s3(2)
    elements = object_maps(action)
    elements.append(elements[repeated])
    with pytest.raises(PreconditionError) as got:
        orbit_nerve(p, elements)
    assert str(got.value) == f"elements {repeated} and 6 agree on the base [0, 1]"


def test_orbit_nerve_of_the_empty_poset():
    p = poset_from_relation(0, [])
    on = orbit_nerve(p, object_maps(close_group([], on=p.category)))
    assert on.trisp.counts == () and on.tops == () and on.obj_orbit == ()


def test_chain_counts_refuse_a_cycle():
    loop = AcyclicCategory(2, [(0, 1), (1, 0)])
    with pytest.raises(InputError, match="directed cycle"):
        chain_counts(loop)
    with pytest.raises(InputError, match="directed cycle"):
        nerve(loop)
