import random

import pytest
from hypothesis import given, settings, strategies as st

from trispcat.accat import check_closure_operator, poset_from_relation
from trispcat.closure import TrispClosureMap, full_collapse_audit, verify_trisp_closure_map
from trispcat.equivariant import (
    check_equivariant,
    check_image_subtrisp_equality,
    check_lift_condition,
    lift_candidate,
    lift_closure_map,
    push_closure_map,
    quotient_poset_closure_map,
)
from trispcat.errors import PreconditionError
from trispcat.nerve import nerve
from trispcat.symmetry import (
    induced_trisp_action,
    quotient_category,
    quotient_trisp,
    trivial_cat_action,
    trivial_trisp_action,
)

from oracles import (
    check_operator_class_coherence,
    monotone_idempotent_maps,
    random_action,
    random_poset,
)


def test_equivariance_trivial_group(two_edges_z2):
    _p, nv, _cat, tact, cmap = two_edges_z2
    triv = trivial_trisp_action(nv.trisp)
    assert check_equivariant(triv, cmap).ok


def test_equivariance_two_edge_fixture(two_edges_z2):
    _p, _nv, _cat, tact, cmap = two_edges_z2
    report = check_equivariant(tact, cmap)
    assert report.ok


def test_equivariance_witness_for_skewed_map(two_edges_z2):
    _p, nv, _cat, tact, _cmap = two_edges_z2
    skew = TrispClosureMap(frozenset({1, 3}), frozenset({0, 2}), {1: 0, 3: 0}, "min")
    report = check_equivariant(tact, skew)
    assert not report.map_equivariant
    assert any(w[0] == "not-equivariant" for w in report.witnesses)


def test_push_trivial_group_keeps_map(two_edges_z2):
    _p, nv, _cat, _tact, cmap = two_edges_z2
    triv = trivial_trisp_action(nv.trisp)
    pushed = push_closure_map(quotient_trisp(nv.trisp, triv), cmap)
    assert pushed.cmap.blue == cmap.blue and pushed.cmap.mapping == cmap.mapping


def test_push_two_edge_fixture(two_edges_z2):
    _p, nv, _cat, tact, cmap = two_edges_z2
    pushed = push_closure_map(quotient_trisp(nv.trisp, tact), cmap)
    assert pushed.qt.trisp.counts == (2, 1)
    assert pushed.verify_report.ok
    assert pushed.cmap.convention == "min"


def test_push_requires_equivariance(two_edges_z2):
    _p, nv, _cat, tact, _cmap = two_edges_z2
    skew = TrispClosureMap(frozenset({1, 3}), frozenset({0, 2}), {1: 0, 3: 0}, "min")
    with pytest.raises(PreconditionError):
        push_closure_map(quotient_trisp(nv.trisp, tact), skew)


def test_lift_condition_trivial_group(two_edges_z2):
    _p, nv, _cat, _tact, cmap = two_edges_z2
    triv = trivial_trisp_action(nv.trisp)
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
    pushed = push_closure_map(quotient_trisp(nv.trisp, tact), cmap)
    lifted = lift_closure_map(pushed.qt, pushed.cmap)
    assert lifted.mapping == dict(cmap.mapping)
    assert lifted.blue == cmap.blue


def test_lift_rejected_on_double_filled(double_filled):
    t, action, psi = double_filled
    with pytest.raises(PreconditionError, match="simplicial"):
        lift_closure_map(quotient_trisp(t, action), psi)
    cand = lift_candidate(quotient_trisp(t, action), psi)
    assert not verify_trisp_closure_map(t, cand).ok


def test_class_coherence_trivial_and_identity(chain3):
    f = (0, 1, 2)
    ok, witnesses = check_operator_class_coherence(
        chain3, trivial_cat_action(chain3.category), f
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
    trivial = quotient_category(p.category, trivial_cat_action(p.category))
    match = check_image_subtrisp_equality(p, f, trivial)
    assert match.ok
    match = check_image_subtrisp_equality(p, f, quotient_category(p.category, cat_action))
    assert match.ok


def test_quotient_poset_closure_trivial_group_reduces_to_induced(chain3):
    from trispcat.closure import induced_trisp_closure_map

    f = (0, 1, 1)
    trivial = quotient_category(chain3.category, trivial_cat_action(chain3.category))
    result = quotient_poset_closure_map(chain3, f, trivial)
    direct = induced_trisp_closure_map(chain3, f)
    assert result.cmap.blue == direct.blue
    assert result.cmap.mapping == dict(direct.mapping)
    assert result.cmap.convention == direct.convention
    assert result.verify_report.ok


def test_quotient_poset_closure_two_edges(two_edges_z2):
    p, _nv, cat_action, _tact, _cmap = two_edges_z2
    f = (0, 0, 2, 2)
    qc = quotient_category(p.category, cat_action)
    result = quotient_poset_closure_map(p, f, qc)
    assert result.verify_report.ok
    assert qc.category.n_objects == 2
    assert result.cmap.convention == "min"
    cert = full_collapse_audit(qc.nerve.trisp, result.cmap)
    assert cert.final.trisp.counts == (1,)


def test_poset_transfers_reject_a_quotient_of_another_poset(chain3):
    other = poset_from_relation(["a", "b", "c"], [(0, 1)])
    qc = quotient_category(other.category, trivial_cat_action(other.category))
    f = (0, 1, 1)
    for transfer in (quotient_poset_closure_map, check_image_subtrisp_equality):
        with pytest.raises(PreconditionError, match="not a quotient of this poset"):
            transfer(chain3, f, qc)


def _equivariant_one_sided_operators(p, action):
    out = []
    for f in monotone_idempotent_maps(p):
        report = check_closure_operator(p, f)
        if report.direction() is None:
            continue
        if all(
            f[g.obj[x]] == g.obj[f[x]] for g in action.elements for x in range(p.n)
        ):
            out.append((f, report))
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
    for f, report in operators:
        from trispcat.closure import induced_trisp_closure_map

        cmap = induced_trisp_closure_map(p, f, report)
        pushed = push_closure_map(quotient_trisp(nv.trisp, tact), cmap)
        assert pushed.verify_report.ok
        ok, witnesses = check_operator_class_coherence(p, action, f)
        assert ok, witnesses
        assert check_image_subtrisp_equality(p, f, quotient_category(p.category, action)).ok
        result = quotient_poset_closure_map(p, f, quotient_category(p.category, action))
        assert result.verify_report.ok
        # round trip through the quotient when the nerve is simplicial
        lifted = lift_closure_map(pushed.qt, pushed.cmap)
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
            pushed = push_closure_map(quotient_trisp(nv.trisp, tact), cmap)
            qt, psi = pushed.qt, pushed.cmap
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
                    if also_pushes and check_equivariant(tact, candidate).ok:
                        lift_exists = True
                        break
            if lift_exists:
                cases += 1
                assert check_lift_condition(qt, psi).holds
    assert cases >= 3  # the search must actually have exercised the property
