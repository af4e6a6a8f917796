import pytest
from hypothesis import given, settings, strategies as st

from trispcat.accat import (
    AcyclicCategory,
    as_poset,
    check_closure_operator,
    covers,
    find_terminal_object,
    poset_from_relation,
    to_dot,
    validate_category,
)
from trispcat.closure import TrispClosureMap, verify_trisp_closure_map
from trispcat.errors import InputError, NotAPosetError
from trispcat.nerve import nerve

from oracles import (
    Functor,
    all_posets_upto_iso,
    chain_poset,
    check_functor,
    opposite_category,
    poset_functor,
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


def test_as_poset_two_chain():
    p = as_poset(two_chain())
    assert p.lt(0, 1) and not p.lt(1, 0) and p.leq(0, 0)


def test_as_poset_rejects_parallel_pair():
    c = AcyclicCategory(["a", "b"], [(0, 1), (0, 1)])
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


def test_poset_from_relation_rejects_cycles():
    with pytest.raises(InputError):
        poset_from_relation(2, [(0, 1), (1, 0)])
    # the search keeps its own stack, so a long cycle is no recursion error
    with pytest.raises(InputError, match="cycle through"):
        poset_from_relation(1500, [(i, (i + 1) % 1500) for i in range(1500)])


def test_identity_map_is_functor(chain3):
    f = poset_functor(chain3, [0, 1, 2])
    assert f.mor == tuple(range(chain3.category.n_morphisms))
    assert check_functor(chain3.category, chain3.category, f) == []


def test_order_preserving_map_on_chain(chain3):
    f = poset_functor(chain3, [0, 0, 2])
    assert check_functor(chain3.category, chain3.category, f) == []


def test_non_order_preserving_map_has_witness(chain3):
    report = check_closure_operator(chain3, (2, 1, 0))
    assert not report.monotone and report.witnesses["monotone"][0] == (0, 1)
    with pytest.raises(ValueError, match=r"order-preserving at \(0, 1\)"):
        poset_functor(chain3, [2, 1, 0])


def test_broken_morphism_map_detected(chain3):
    good = poset_functor(chain3, [0, 0, 2])
    bad = Functor(good.obj, tuple(0 for _ in good.mor))
    assert check_functor(chain3.category, chain3.category, bad) != []


def test_closure_report_identity(chain3):
    rep = check_closure_operator(chain3, (0, 1, 2))
    assert rep.monotone and rep.idempotent and rep.descending and rep.ascending


def test_closure_report_two_chain_drop():
    p = chain_poset(2)
    rep = check_closure_operator(p, (0, 0))
    assert rep.direction() == "descending"
    assert not rep.ascending and rep.witnesses["ascending"] == [1]


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
            assert p.leq(x, x)
            for y in range(n):
                if x != y and p.leq(x, y):
                    assert not p.leq(y, x)
                for z in range(n):
                    if p.leq(x, y) and p.leq(y, z):
                        assert p.leq(x, z)


@st.composite
def posets(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    from itertools import combinations

    pairs = [pair for i, pair in enumerate(combinations(range(n), 2)) if (mask >> i) & 1]
    return poset_from_relation(n, pairs)


@settings(max_examples=60, deadline=None)
@given(posets())
def test_random_posets_validate(p):
    assert validate_category(p.category).ok


@settings(max_examples=40, deadline=None)
@given(posets(max_n=5), st.randoms(use_true_random=False))
def test_ac_maps_on_posets_preserve_order(p, rng):
    values = tuple(rng.randrange(p.n) for _ in range(p.n))
    if not check_closure_operator(p, values).monotone:
        return
    f = poset_functor(p, values)
    assert check_functor(p.category, p.category, f) == []
    for (x, y) in p.mor_of:
        assert p.leq(f.obj[x], f.obj[y])
