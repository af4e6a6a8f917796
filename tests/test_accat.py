import json
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from trispcat.accat import (
    AcyclicCategory,
    as_poset,
    check_closure_operator,
    closure_direction,
    covers,
    find_terminal_object,
    poset_from_relation,
    to_dot,
    validate_category,
)
from trispcat.closure import TrispClosureMap, verify_trisp_closure_map
from trispcat.errors import InputError, NotAPosetError
from trispcat.graphs import build_dgn, face_poset
from trispcat.nerve import nerve

from oracles import (
    Functor,
    all_posets_upto_iso,
    chain_poset,
    check_functor,
    covers_oracle,
    leq,
    nerve_oracle,
    opposite_category,
    poset_composition_table,
    poset_from_relation_oracle,
    poset_functor,
    random_path_category,
    terminal_objects,
)


def two_chain():
    return AcyclicCategory(["a", "b"], [(0, 1)])


def test_validate_two_chain():
    assert validate_category(two_chain()).ok


def test_validate_cycle_witness():
    c = AcyclicCategory(["a", "b"], [(0, 1), (1, 0)])
    report = validate_category(c)
    assert not report.ok
    assert report.cycle is not None
    assert set(report.cycle) == {0, 1}


def test_validate_missing_composition():
    c = AcyclicCategory(["a", "b", "c"], [(0, 1), (1, 2)])
    report = validate_category(c)
    assert not report.composition_total
    assert report.missing_compositions == [(0, 1)]


def test_validate_self_loop_rejected():
    c = AcyclicCategory(["a"], [(0, 0)])
    report = validate_category(c)
    assert not report.ok and report.self_loops == [0]


def test_malformed_index_is_input_error():
    with pytest.raises(InputError):
        AcyclicCategory(["a"], [(0, 5)])
    with pytest.raises(InputError):
        AcyclicCategory(["a", "b"], [(0, 1)], [(0, 0, 7)])


def test_constructor_takes_two_morphism_shapes():
    assert AcyclicCategory(2, [(0, 1), (0, 1, "f")]).mor_labels == ("m0", "f")
    for bad in [(0,), (0, 1, "f", "g")]:
        with pytest.raises(ValueError):
            AcyclicCategory(2, [(0, 1), bad])


@pytest.mark.parametrize("bad", [(0, True), (0, 1.0), (1, 2), (-1, 0, "f"), ("0", 1)])
def test_constructor_names_the_first_bad_morphism(bad):
    # the endpoint columns are checked at once; the message still names the
    # first bad morphism, after valid ones, in the shape it was given
    with pytest.raises(InputError) as err:
        AcyclicCategory(["a", "b"], [(0, 1), (1, 1, "loop"), bad, (0, 7)])
    assert str(err.value) == f"morphism endpoint out of range: {bad}"


def test_as_poset_two_chain():
    p = as_poset(two_chain())
    assert p.lt(0, 1) and not p.lt(1, 0) and leq(p, 0, 0)


def test_as_poset_rejects_parallel_pair():
    c = AcyclicCategory(["a", "b"], [(0, 1), (0, 1)])
    with pytest.raises(NotAPosetError) as err:
        as_poset(c)
    assert err.value.pair == (0, 1)
    # the witness is the first pair, by first occurrence, with two morphisms
    c = AcyclicCategory(["a", "b", "c"], [(0, 1), (1, 2), (1, 2), (0, 1)])
    with pytest.raises(NotAPosetError) as err:
        as_poset(c)
    assert err.value.pair == (0, 1)


def test_triangle_boundary_face_poset_is_poset(triangle_boundary):
    p, _action = triangle_boundary
    assert p.category.n_objects == 6
    assert p.category.n_morphisms == 6
    assert validate_category(p.category).ok
    assert len(covers(p)) == 6


def test_poset_from_relation_closes_transitively():
    p = poset_from_relation(3, [(0, 1), (1, 2)])
    assert p.lt(0, 2)
    assert p.category.n_morphisms == 3


def test_poset_from_relation_names_the_cycle_a_search_meets_first():
    # two disjoint cycles, f <-> e (reached from a) and b <-> c: the search
    # from a meets f first, though b is the least object left unordered
    with pytest.raises(InputError) as err:
        poset_from_relation(list("abcdef"), [(0, 5), (5, 4), (4, 5), (1, 2), (2, 1)])
    assert str(err.value) == "relation has a cycle through f"


def test_poset_from_relation_rejects_cycles():
    with pytest.raises(InputError):
        poset_from_relation(2, [(0, 1), (1, 0)])
    # the search keeps its own stack, so a long cycle is no recursion error
    with pytest.raises(InputError, match="cycle through"):
        poset_from_relation(1500, [(i, (i + 1) % 1500) for i in range(1500)])


@st.composite
def relations(draw, max_n=7):
    # half forward pairs under a random numbering, which are acyclic; half
    # any pairs, endpoints one out of range included
    n = draw(st.integers(min_value=0, max_value=max_n))
    labels = n if draw(st.booleans()) else [f"v{i}" for i in range(n)]
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        forward = list(combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(forward), max_size=20)) if forward else []
        pairs = [(perm[a], perm[b]) for a, b in chosen]
    else:
        end = st.integers(min_value=-1, max_value=n)
        pairs = draw(st.lists(st.tuples(end, end), max_size=12))
    return labels, pairs


@settings(max_examples=200, deadline=None)
@given(relations())
@example((3, [(0, 1), (1, 3)]))
@example((["a", "b"], [(0, 1), (1, 1)]))
@example((list("abc"), [(0, 1), (1, 2), (2, 1)]))
def test_poset_from_relation_matches_the_bitmask_builder(relation):
    labels, pairs = relation
    try:
        expected = poset_from_relation_oracle(labels, pairs)
    except InputError as refusal:
        with pytest.raises(InputError) as err:
            poset_from_relation(labels, pairs)
        assert str(err.value) == str(refusal)
        return
    p = poset_from_relation(labels, pairs)
    c, e = p.category, expected.category
    assert c.objects == e.objects
    # the labels "x<y", read off the object labels, are the strings the oracle stores
    assert (c.src, c.tgt, c.out, tuple(c.mor_labels)) == (e.src, e.tgt, e.out, e.mor_labels)
    assert p.above == expected.above  # the up-sets, kept from the closure
    assert p.relation == tuple(sorted(set(pairs)))
    assert len(c.comp) == len(e.comp)


def test_identity_map_is_functor(chain3):
    f = poset_functor(chain3, [0, 1, 2])
    assert f.mor == tuple(range(chain3.category.n_morphisms))
    assert check_functor(chain3.category, chain3.category, f) == []


def test_order_preserving_map_on_chain(chain3):
    f = poset_functor(chain3, [0, 0, 2])
    assert check_functor(chain3.category, chain3.category, f) == []


def test_non_order_preserving_map_has_witness(chain3):
    witnesses = check_closure_operator(chain3, (2, 1, 0))
    assert witnesses["monotone"][0] == (0, 1)
    with pytest.raises(ValueError, match=r"order-preserving at \(0, 1\)"):
        poset_functor(chain3, [2, 1, 0])


def test_broken_morphism_map_detected(chain3):
    good = poset_functor(chain3, [0, 0, 2])
    bad = Functor(good.obj, tuple(0 for _ in good.mor))
    assert check_functor(chain3.category, chain3.category, bad) != []


def test_closure_report_identity(chain3):
    witnesses = check_closure_operator(chain3, (0, 1, 2))
    assert witnesses == {"monotone": [], "idempotent": [], "descending": [], "ascending": []}
    assert closure_direction(witnesses) == "descending"


def test_closure_report_two_chain_drop():
    p = chain_poset(2)
    witnesses = check_closure_operator(p, (0, 0))
    assert closure_direction(witnesses) == "descending"
    assert witnesses["ascending"] == [1]


def test_closure_prerequisites_two_chain():
    # on a -> b, sending the blue b down to the red a is a closure map;
    # blue and red sharing a vertex is refused
    t = nerve(two_chain()).trisp
    assert verify_trisp_closure_map(t, TrispClosureMap({1}, {0}, {1: 0}, "max")).ok
    with pytest.raises(InputError, match="overlap"):
        TrispClosureMap({0, 1}, {0}, {0: 0, 1: 0}, "min")


def test_closure_prerequisites_parallel_pair():
    # two parallel morphisms b -> r give b two edges to its image r
    t = nerve(AcyclicCategory(["b", "r"], [(0, 1), (0, 1)])).trisp
    for convention in ("min", "max"):
        report = verify_trisp_closure_map(t, TrispClosureMap({0}, {1}, {0: 1}, convention))
        assert not report.ok and report.failures == [(0, 0, 2)]


def test_terminal_object_chain_and_antichain():
    assert find_terminal_object(chain_poset(2).category) == 1
    assert find_terminal_object(poset_from_relation(2, []).category) is None


def test_opposite_category_roundtrip(chain3):
    op = opposite_category(chain3.category)
    assert validate_category(op).ok
    back = opposite_category(op)
    assert back.src == chain3.category.src and back.tgt == chain3.category.tgt
    assert back.comp == chain3.category.comp


def test_json_roundtrip(chain3):
    doc = chain3.category.to_json()
    c = AcyclicCategory.from_json(doc)
    assert c.src == chain3.category.src
    assert c.comp == chain3.category.comp
    with pytest.raises(InputError):
        AcyclicCategory.from_json({"objects": []})


def test_dot_outputs(chain3):
    assert "digraph hasse" in to_dot(chain3)
    assert "digraph category" in to_dot(chain3.category)
    # the Hasse diagram of a 3-chain has two cover edges
    assert to_dot(chain3).count("->") == 2


def test_enumerated_posets_are_valid_partial_orders():
    for p in all_posets_upto_iso(4):
        assert validate_category(p.category).ok
        n = p.n
        for x in range(n):
            assert leq(p, x, x)
            for y in range(n):
                if x != y and leq(p, x, y):
                    assert not leq(p, y, x)
                for z in range(n):
                    if leq(p, x, y) and leq(p, y, z):
                        assert leq(p, x, z)


@st.composite
def posets(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    pairs = [pair for i, pair in enumerate(combinations(range(n), 2)) if (mask >> i) & 1]
    return poset_from_relation(n, pairs)


@settings(max_examples=80, deadline=None)
@given(posets(max_n=8), st.randoms(use_true_random=False))
def test_covers_match_the_brute_force(p, rng):
    # on the poset, on a relabelled copy read back through as_poset, and on
    # any relation read as a category document: cycles and self-loops too
    label = rng.sample(range(p.n), p.n)
    ends = zip(p.category.src, p.category.tgt)
    relabelled = AcyclicCategory(p.n, [(label[x], label[y]) for x, y in ends])
    pairs = {(rng.randrange(p.n), rng.randrange(p.n)) for _ in range(rng.randrange(3 * p.n))}
    for q in (p, as_poset(relabelled), as_poset(AcyclicCategory(p.n, sorted(pairs)))):
        assert covers(q) == covers_oracle(q)


def test_covers_of_the_dg4_face_poset_are_its_facets():
    fp = face_poset(build_dgn(4))
    assert covers(fp.poset) == covers_oracle(fp.poset) == sorted(fp.poset.relation)


@settings(max_examples=60, deadline=None)
@given(posets())
def test_random_posets_validate(p):
    assert validate_category(p.category).ok


@settings(max_examples=40, deadline=None)
@given(posets(max_n=5), st.randoms(use_true_random=False))
def test_ac_maps_on_posets_preserve_order(p, rng):
    values = tuple(rng.randrange(p.n) for _ in range(p.n))
    if check_closure_operator(p, values)["monotone"]:
        return
    f = poset_functor(p, values)
    assert check_functor(p.category, p.category, f) == []
    for x, y in zip(p.category.src, p.category.tgt):
        assert leq(p, f.obj[x], f.obj[y])


def _assert_composition_is_the_table(p):
    # the composition read off the order is the table once stored, entry for
    # entry and in the same order, and every reader sees the same category
    c = p.category
    table = poset_composition_table(p)
    assert list(c.comp.items()) == list(table.items())
    assert len(c.comp) == len(table) and c.comp == table
    n = c.n_morphisms
    for m1 in range(-1, n + 1):
        for m2 in range(-1, n + 1):
            if (m1, m2) not in table:
                assert c.comp.get((m1, m2)) is None and (m1, m2) not in c.comp
                with pytest.raises(KeyError):
                    c.comp[(m1, m2)]
    stored = AcyclicCategory(
        c.objects, zip(c.src, c.tgt, c.mor_labels), [(a, b, m) for (a, b), m in table.items()]
    )
    assert json.dumps(c.to_json()) == json.dumps(stored.to_json())
    assert validate_category(c).ok and validate_category(stored).ok
    assert validate_category(c).to_json() == validate_category(stored).to_json()
    nv = nerve(c)
    chains, bnd, index = nerve_oracle(stored)
    assert nv.chains == chains and nv.index == index
    assert [nv.trisp.boundary_table(d) for d in range(1, len(chains))] == bnd


@settings(max_examples=60, deadline=None)
@given(posets())
def test_poset_composition_is_the_stored_table(p):
    _assert_composition_is_the_table(p)


@pytest.mark.parametrize("n", [3, 4])
def test_face_poset_composition_is_the_stored_table(n):
    _assert_composition_is_the_table(face_poset(build_dgn(n)).poset)


def test_long_chain_composes_without_a_table():
    # a stored table would hold C(800, 3) composites and take minutes to build
    p = poset_from_relation(800, [(i, i + 1) for i in range(799)])
    assert len(p.category.comp) == 85_013_600
    [m1], [m2] = p.category.hom(10, 500), p.category.hom(500, 799)
    assert (p.category.comp[(m1, m2)],) == p.category.hom(10, 799)
    assert p.category.comp.get((m2, m1)) is None


def _assert_index_is_the_scan(c):
    # out[x] lists the morphisms with source x in increasing order, and hom(x, y)
    # those among them ending at y
    mors = range(c.n_morphisms)
    for x in range(c.n_objects):
        assert c.out[x] == tuple(m for m in mors if c.src[m] == x)
        for y in range(c.n_objects):
            assert c.hom(x, y) == tuple(m for m in mors if (c.src[m], c.tgt[m]) == (x, y))


def assert_terminal_object_is_the_definition(c):
    found = terminal_objects(c)
    assert len(found) <= 1
    assert find_terminal_object(c) == (found[0] if found else None)


@settings(max_examples=60, deadline=None)
@given(posets())
def test_index_and_terminal_object_on_posets(p):
    _assert_index_is_the_scan(p.category)
    assert_terminal_object_is_the_definition(p.category)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_index_and_terminal_object_on_path_categories(seed):
    c = random_path_category(random.Random(seed))
    _assert_index_is_the_scan(c)
    assert_terminal_object_is_the_definition(c)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8),
        )
    )
)
def test_index_and_terminal_object_on_any_category_data(data):
    # self-loops, parallel morphisms and cycles: at most one object is terminal
    n, morphisms = data
    c = AcyclicCategory(n, morphisms)
    _assert_index_is_the_scan(c)
    assert_terminal_object_is_the_definition(c)


@pytest.mark.parametrize("n", [3, 4])
def test_index_and_terminal_object_on_face_posets(n):
    c = face_poset(build_dgn(n)).poset.category
    _assert_index_is_the_scan(c)
    assert_terminal_object_is_the_definition(c)
