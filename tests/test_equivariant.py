import random

import pytest
from hypothesis import given, settings, strategies as st

from trispcat import equivariant
from trispcat.accat import check_closure_operator, closure_direction, poset_from_relation
from trispcat.closure import (
    ClosureVerifyReport,
    TrispClosureMap,
    full_collapse_audit,
    verify_trisp_closure_map,
)
from trispcat.equivariant import (
    check_equivariant,
    check_image_subtrisp_equality,
    check_lift_condition,
    lift_candidate,
    lift_closure_map,
    push_closure_map,
    push_to_orbits,
    quotient_poset_closure_map,
)
from trispcat.errors import InputError, PreconditionError, SoundnessError
from trispcat.graphs import build_dgn, face_poset, face_poset_action, transitive_closure_operator
from trispcat.nerve import nerve
from trispcat.symmetry import (
    Aut,
    GroupAction,
    close_group,
    induced_trisp_action,
    poset_quotient_category,
    quotient_category,
    quotient_trisp,
)
from trispcat.trisp import Trisp

from oracles import (
    check_operator_class_coherence,
    explicit_action,
    monotone_idempotent_maps,
    object_maps,
    quotient_poset_closure_oracle,
    random_action,
    random_poset,
)


def test_equivariance_trivial_group(two_edges_z2):
    _p, nv, _cat, tact, cmap = two_edges_z2
    triv = close_group([], on=nv.trisp)
    assert check_equivariant(triv, cmap) == []


def test_equivariance_two_edge_fixture(two_edges_z2):
    _p, _nv, _cat, tact, cmap = two_edges_z2
    assert check_equivariant(tact, cmap) == []


def test_equivariance_witness_for_skewed_map(two_edges_z2):
    _p, nv, _cat, tact, _cmap = two_edges_z2
    skew = TrispClosureMap(frozenset({1, 3}), frozenset({0, 2}), {1: 0, 3: 0}, "min")
    witnesses = check_equivariant(tact, skew)
    assert witnesses == [("not-equivariant", 0, 1), ("not-equivariant", 0, 3)]
    assert any(w[0] == "not-equivariant" for w in witnesses)


def test_push_trivial_group_keeps_map(two_edges_z2):
    _p, nv, _cat, _tact, cmap = two_edges_z2
    triv = close_group([], on=nv.trisp)
    pushed, _report = push_closure_map(quotient_trisp(nv.trisp, triv), cmap)
    assert pushed.blue == cmap.blue and pushed.mapping == cmap.mapping


def test_push_two_edge_fixture(two_edges_z2):
    _p, nv, _cat, tact, cmap = two_edges_z2
    qt = quotient_trisp(nv.trisp, tact)
    pushed, report = push_closure_map(qt, cmap)
    assert qt.trisp.counts == (2, 1)
    assert report.ok
    assert pushed == TrispClosureMap(frozenset({1}), frozenset({0}), {1: 0}, "min")


def test_push_requires_a_regular_action():
    digon = Trisp((2, 2), [[(1, 0), (0, 1)]])
    qt = quotient_trisp(digon, GroupAction((Aut(((1, 0), (1, 0))),)))
    cmap = TrispClosureMap(frozenset({1}), frozenset({0}), {1: 0}, "min")
    with pytest.raises(PreconditionError, match="quotient-regularity fails"):
        push_closure_map(qt, cmap)


def test_push_requires_the_map_to_verify_upstairs(two_edges_z2):
    _p, nv, _cat, tact, _cmap = two_edges_z2
    # 3 -> 0 is no edge, and the map is not equivariant either
    skew = TrispClosureMap(frozenset({1, 3}), frozenset({0, 2}), {1: 0, 3: 0}, "min")
    with pytest.raises(PreconditionError, match="map does not verify upstairs"):
        push_closure_map(quotient_trisp(nv.trisp, tact), skew)


def test_push_requires_equivariance(two_edges_z2):
    _p, nv, _cat, tact, _cmap = two_edges_z2
    # verifies on the two edges, but the swap takes the blue b1 to the red b2
    one_sided = TrispClosureMap(frozenset({1}), frozenset({0, 2, 3}), {1: 0}, "min")
    assert verify_trisp_closure_map(nv.trisp, one_sided).ok
    with pytest.raises(PreconditionError, match=r"equivariance fails: \[\('blue-not-closed', 0, 1\)"):
        push_closure_map(quotient_trisp(nv.trisp, tact), one_sided)


def test_push_refuses_a_pushed_map_that_does_not_verify(two_edges_z2, monkeypatch):
    _p, nv, _cat, tact, cmap = two_edges_z2
    push = equivariant.push_to_orbits
    failing = ClosureVerifyReport([(0, 1, 2)], 0, 0, [], [])
    monkeypatch.setattr(equivariant, "push_to_orbits", lambda *args: (push(*args)[0], failing))
    with pytest.raises(SoundnessError, match=r"pushed map failed verification: \[\(0, 1, 2\)\]"):
        push_closure_map(quotient_trisp(nv.trisp, tact), cmap)


def test_push_to_orbits_refuses_an_orbit_with_blue_and_red_vertices(two_edges_z2):
    _p, nv, _cat, _tact, cmap = two_edges_z2
    # r1 and b1 put in one orbit, which no action closed on blue and red does;
    # no caller skips the equivariance check, and the map refuses the overlap itself
    with pytest.raises(InputError, match="blue and red overlap"):
        push_to_orbits(nv.trisp, (0, 0, 1, 1), (0, 2), cmap)


def test_lift_condition_trivial_group(two_edges_z2):
    _p, nv, _cat, _tact, cmap = two_edges_z2
    triv = close_group([], on=nv.trisp)
    qt = quotient_trisp(nv.trisp, triv)
    report = check_lift_condition(qt, cmap)
    assert report.holds
    assert report.assignment == dict(cmap.mapping)


def test_lift_condition_double_filled(double_filled):
    t, action, psi = double_filled
    report = check_lift_condition(quotient_trisp(t, action), psi)
    assert report.holds
    assert report.assignment == {0: 2}


def test_lift_two_edge_fixture_roundtrip(two_edges_z2):
    _p, nv, _cat, tact, cmap = two_edges_z2
    qt = quotient_trisp(nv.trisp, tact)
    psi = push_closure_map(qt, cmap)[0]
    lifted, report = lift_closure_map(qt, psi, check_lift_condition(qt, psi))
    assert report.ok
    assert lifted.mapping == dict(cmap.mapping)
    assert lifted.blue == cmap.blue


def test_lift_tests_simpliciality_without_the_flag_search(monkeypatch, two_edges_z2):
    # the lift reads only whether the source is simplicial, not whether it is flag
    from trispcat import trisp

    def forbidden(_t):
        raise AssertionError("the flag search ran")

    monkeypatch.setattr(trisp, "is_flag_complex", forbidden)
    monkeypatch.setattr(equivariant, "is_flag_complex", forbidden, raising=False)
    _p, nv, _cat, tact, cmap = two_edges_z2
    qt = quotient_trisp(nv.trisp, tact)
    psi = push_closure_map(qt, cmap)[0]
    lifted, _report = lift_closure_map(qt, psi, check_lift_condition(qt, psi))
    assert lifted.mapping == dict(cmap.mapping)


def test_lift_rejected_on_double_filled(double_filled):
    t, action, psi = double_filled
    qt = quotient_trisp(t, action)
    condition = check_lift_condition(qt, psi)
    with pytest.raises(PreconditionError, match="simplicial"):
        lift_closure_map(qt, psi, condition)
    cand = lift_candidate(qt, psi, condition)
    assert not verify_trisp_closure_map(t, cand).ok


# the path 0 - 1 - 2, with edges (0, 1) and (1, 2)
_PATH = Trisp((3, 2), [[(1, 0), (2, 1)]])


def test_lift_candidate_refuses_a_blue_vertex_with_no_partner():
    # under the trivial group, 0 must go to 2, which no edge joins it to
    qt = quotient_trisp(_PATH, close_group([], on=_PATH))
    psi = TrispClosureMap(frozenset({0}), frozenset({1, 2}), {0: 2}, "min")
    with pytest.raises(PreconditionError, match=r"^lift condition fails: \{'0': \[\]\}$"):
        lift_candidate(qt, psi, check_lift_condition(qt, psi))


def test_lift_requires_a_regular_action():
    # the cyclically oriented hollow triangle and its rotation: simplicial,
    # but each edge has both its vertices in the one vertex orbit
    cycle = Trisp((3, 3), [[(1, 0), (2, 1), (0, 2)]])
    qt = quotient_trisp(cycle, close_group([Aut(((1, 2, 0), (1, 2, 0)))], on=cycle))
    psi = TrispClosureMap(frozenset(), frozenset({0}), {}, "min")
    with pytest.raises(PreconditionError) as got:
        lift_closure_map(qt, psi, check_lift_condition(qt, psi))
    assert str(got.value) == "quotient-regularity fails: (1, (1, 0), (0, 1), 'moved')"


def test_lift_requires_psi_to_verify_on_the_quotient():
    qt = quotient_trisp(_PATH, close_group([], on=_PATH))
    psi = TrispClosureMap(frozenset({0}), frozenset({1, 2}), {0: 2}, "min")
    with pytest.raises(PreconditionError, match="^psi does not verify on the quotient$"):
        lift_closure_map(qt, psi, check_lift_condition(qt, psi))


def test_image_quotient_nerve_refuses_a_subset_the_action_moves_out(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    # the swap sends r1 to r2, which the subset leaves out
    with pytest.raises(PreconditionError, match="^subset is not closed under the action$"):
        equivariant.image_quotient_nerve(p, cat_action, cat_action, [0])


def test_class_coherence_trivial_and_identity(chain3):
    f = (0, 1, 2)
    ok, witnesses = check_operator_class_coherence(
        chain3, close_group([], on=chain3.category), f
    )
    assert ok and not witnesses


def test_class_coherence_two_edges(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    f = (0, 0, 2, 2)
    ok, witnesses = check_operator_class_coherence(p, cat_action, f)
    assert ok, witnesses


def test_image_subtrisp_equality_trivial(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    f = (0, 0, 2, 2)
    trivial = quotient_category(p.category, close_group([], on=p.category))
    _mapping, witness = check_image_subtrisp_equality(p, f, trivial, trivial.action)
    assert witness is None
    _mapping, witness = check_image_subtrisp_equality(
        p, f, quotient_category(p.category, cat_action), cat_action
    )
    assert witness is None


def test_quotient_poset_closure_trivial_group_reduces_to_induced(chain3):
    from trispcat.closure import induced_trisp_closure_map

    f = (0, 1, 1)
    trivial = quotient_category(chain3.category, close_group([], on=chain3.category))
    qmap, report = quotient_poset_closure_map(chain3, f, trivial)
    assert qmap == induced_trisp_closure_map(chain3, f)
    assert report.ok


def test_quotient_poset_closure_two_edges(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    f = (0, 0, 2, 2)
    qc = quotient_category(p.category, cat_action)
    qmap, report = quotient_poset_closure_map(p, f, qc)
    assert report.ok
    assert qc.category.n_objects == 2
    assert qmap.convention == "min"
    cert = full_collapse_audit(qc.nerve.trisp, qmap)
    assert cert.final.trisp.counts == (1,)


def test_poset_transfers_reject_a_quotient_of_another_poset(chain3):
    other = poset_from_relation(["a", "b", "c"], [(0, 1)])
    qc = quotient_category(other.category, close_group([], on=other.category))
    f = (0, 1, 1)
    transfers = [(quotient_poset_closure_map, ()), (check_image_subtrisp_equality, (qc.action,))]
    for transfer, group in transfers:
        with pytest.raises(PreconditionError, match="not a quotient of this poset"):
            transfer(chain3, f, qc, *group)


def test_quotient_poset_closure_map_requires_a_one_sided_operator(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    qc = quotient_category(p.category, cat_action)
    # monotone and idempotent, but it raises r1 and lowers b2; it is not
    # equivariant either, and the one-sided check comes first
    with pytest.raises(PreconditionError, match="operator is not a one-sided closure operator"):
        quotient_poset_closure_map(p, (1, 1, 2, 2), qc)


def test_quotient_poset_closure_map_requires_an_equivariant_operator(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    qc = quotient_category(p.category, cat_action)
    # descending, but it lowers b1 and fixes its image b2 under the swap
    with pytest.raises(PreconditionError, match="operator is not equivariant"):
        quotient_poset_closure_map(p, (0, 0, 2, 3), qc)


def _assert_push_matches_the_class_by_class_map(p, f, qc):
    qmap, report = quotient_poset_closure_map(p, f, qc)
    reference = quotient_poset_closure_oracle(p, f, qc)
    assert (qmap.blue, qmap.red, qmap.mapping, qmap.convention) == (
        reference.blue, reference.red, reference.mapping, reference.convention
    )
    assert report.ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_quotient_poset_closure_map_is_the_class_by_class_map_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_n=5)
    action = random_action(rng, p, max_order=6)
    # the category path, and the poset path on the object maps of the same group
    quotients = (
        quotient_category(p.category, action),
        poset_quotient_category(p, close_group([g.dims[0] for g in action.generators], on=p),
                                object_maps(action)),
    )
    for f, _witnesses in _equivariant_one_sided_operators(p, action)[:6]:
        for qc in quotients:
            _assert_push_matches_the_class_by_class_map(p, f, qc)


@pytest.mark.parametrize("n", [4, 5])
def test_quotient_poset_closure_map_is_the_class_by_class_map_on_dgn(n):
    k = build_dgn(n)
    fp = face_poset(k)
    f = transitive_closure_operator(k, fp)
    act = explicit_action(fp.poset, face_poset_action(k, fp))
    _assert_push_matches_the_class_by_class_map(fp.poset, f, quotient_category(fp.category, act))


def _equivariant_one_sided_operators(p, action):
    out = []
    for f in monotone_idempotent_maps(p):
        witnesses = check_closure_operator(p, f)
        if closure_direction(witnesses) is None:
            continue
        if all(
            f[g.dims[0][x]] == g.dims[0][f[x]] for g in action.elements for x in range(p.n)
        ):
            out.append((f, witnesses))
    return out


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_push_and_sectionwise_checks_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng, max_n=5)
    action = random_action(rng, p, max_order=6)
    nv = nerve(p.category)
    tact = induced_trisp_action(nv, action)
    operators = _equivariant_one_sided_operators(p, action)[:4]
    for f, witnesses in operators:
        from trispcat.closure import induced_trisp_closure_map

        cmap = induced_trisp_closure_map(p, f, witnesses)
        qt = quotient_trisp(nv.trisp, tact)
        pushed, report = push_closure_map(qt, cmap)
        assert report.ok
        ok, witnesses = check_operator_class_coherence(p, action, f)
        assert ok, witnesses
        qc = quotient_category(p.category, action)
        assert check_image_subtrisp_equality(p, f, qc, action)[1] is None
        _qmap, report = quotient_poset_closure_map(p, f, qc)
        assert report.ok
        # round trip through the quotient when the nerve is simplicial
        lifted, lift_report = lift_closure_map(qt, pushed, check_lift_condition(qt, pushed))
        assert lift_report.ok
        assert lifted.blue == cmap.blue and lifted.mapping == dict(cmap.mapping)


def test_lift_condition_necessity_by_exhaustive_assignment_search():
    """Wherever some lift of a verified quotient map exists, the condition holds."""
    import itertools

    rng = random.Random(11)
    cases = 0
    for seed in range(40):
        p = random_poset(rng, max_n=5)
        action = random_action(rng, p, max_order=6)
        nv = nerve(p.category)
        if nv.trisp.n(0) > 12:
            continue
        tact = induced_trisp_action(nv, action)
        for f, report in _equivariant_one_sided_operators(p, action)[:3]:
            from trispcat.closure import induced_trisp_closure_map

            cmap = induced_trisp_closure_map(p, f, report)
            qt = quotient_trisp(nv.trisp, tact)
            psi, _report = push_closure_map(qt, cmap)
            blue = sorted(v for v in range(nv.trisp.n(0)) if qt.projection[0][v] in psi.blue)
            red = sorted(v for v in range(nv.trisp.n(0)) if qt.projection[0][v] in psi.red)
            if not blue or len(red) ** len(blue) > 4000:
                continue
            lift_exists = False
            for values in itertools.product(red, repeat=len(blue)):
                candidate = TrispClosureMap(
                    frozenset(blue), frozenset(red), dict(zip(blue, values)), psi.convention
                )
                if verify_trisp_closure_map(nv.trisp, candidate).ok:
                    also_pushes = all(
                        qt.projection[0][candidate.mapping[b]] == psi.mapping[qt.projection[0][b]]
                        for b in blue
                    )
                    if also_pushes and check_equivariant(tact, candidate) == []:
                        lift_exists = True
                        break
            if lift_exists:
                cases += 1
                assert check_lift_condition(qt, psi).holds
    assert cases >= 3  # the search must actually have exercised the property
