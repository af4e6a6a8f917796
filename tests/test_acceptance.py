"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values marked as enumeration pins below were computed by the
independent oracles in oracles.py and frozen.
"""

import random
import time

import pytest

from trispcat.accat import check_closure_operator, find_terminal_object
from trispcat.closure import (
    TrispClosureMap,
    full_collapse_audit,
    induced_trisp_closure_map,
    verify_trisp_closure_map,
)
from trispcat.equivariant import (
    check_equivariant,
    check_image_subtrisp_equality,
    check_lift_condition,
    lift_candidate,
    push_closure_map,
    quotient_poset_closure_map,
)
from trispcat.graphs import (
    edge_list,
    lift_to_edges,
    number_partition,
    partition_action,
    partition_poset,
    pipeline_quotient_category,
    pipeline_quotient_trisp,
)
from trispcat.nerve import nerve
from trispcat.symmetry import (
    canonical_map,
    check_regular_action,
    close_group,
    induced_trisp_action,
    quotient_category,
    quotient_trisp,
)
from trispcat.trisp import euler_characteristic

from oracles import (
    all_posets_upto_iso,
    canonical_lifts,
    chain_poset,
    check_operator_class_coherence,
    decomposition_quotient_classes,
    dgn_trisp_action,
    inverse,
    iterated_faces,
    monotone_idempotent_maps,
    parent_simplices,
    random_action,
    random_poset,
    subgroups_upto_order,
)


def report_pass(number, label, seconds):
    print(f"ACCEPTANCE criterion {number:2d} ({label}): PASS in {seconds:.2f}s")


@pytest.fixture(scope="module")
def poset_corpus():
    """Every poset with at most five elements (up to isomorphism), with its
    nerve and all monotone idempotent self-maps, classified."""
    corpus = []
    for p in all_posets_upto_iso(5):
        nv = nerve(p.category)
        maps = [(f, check_closure_operator(p, f)) for f in monotone_idempotent_maps(p)]
        corpus.append((p, nv, maps))
    return corpus


@pytest.fixture(scope="module")
def equivariant_corpus(poset_corpus):
    """(poset, nerve, action, induced trisp action, one-sided equivariant maps)."""
    out = []
    for p, nv, maps in poset_corpus:
        one_sided = [(f, rep) for f, rep in maps if rep.direction() is not None]
        for action in subgroups_upto_order(p, 4):
            equivariant = [
                (f, rep)
                for f, rep in one_sided
                if all(
                    f[g.obj[x]] == g.obj[f[x]]
                    for g in action.elements
                    for x in range(p.n)
                )
            ]
            if equivariant:
                tact = induced_trisp_action(nv, action)
                out.append((p, nv, action, tact, equivariant))
    return out


def _candidate(f, p, convention):
    red = frozenset(f)
    blue = frozenset(range(p.n)) - red
    return TrispClosureMap(blue, red, {b: f[b] for b in blue}, convention)


def _chi_preserved_stepwise(t, steps):
    counts = list(t.counts)
    chi = sum((-1) ** d * c for d, c in enumerate(counts))
    for (d, _s), (d2, _s2) in steps:
        counts[d] -= 1
        counts[d2] -= 1
        if sum((-1) ** dd * c for dd, c in enumerate(counts)) != chi:
            return False
    return True


def test_criterion_01_double_filling_obstruction(double_filled):
    t0 = time.perf_counter()
    t, action, psi = double_filled

    assert check_regular_action(quotient_trisp(t, action)).ok
    qt = quotient_trisp(t, action)
    assert qt.trisp.counts == (3, 3, 1) and qt.regular
    assert verify_trisp_closure_map(qt.trisp, psi).ok
    condition = check_lift_condition(qt, psi)
    assert condition.holds and condition.assignment == {0: 2}

    # the forced candidate fails with the double extension of the edge {b, x}
    forced = lift_candidate(qt, psi)
    report = verify_trisp_closure_map(t, forced)
    assert not report.ok and report.failures == [(1, 0, 2)]
    assert t.vertex_tuple(1, 0) == (0, 1)  # vertices b and x
    # and no other blue-to-red assignment verifies either
    for target in sorted(psi.red | psi.blue - {0}):
        if target == 0:
            continue
        cand = TrispClosureMap(frozenset({0}), frozenset({1, 2}), {0: target}, "min")
        rep = verify_trisp_closure_map(t, cand)
        assert not rep.ok and rep.failures[0][2] == 2

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_pass(1, "double-filling lift obstruction", elapsed)


def test_criterion_02_canonical_map_surjectivity(triangle_boundary, dgn4_bundle):
    t0 = time.perf_counter()
    p, action = triangle_boundary
    cm = canonical_map(quotient_category(p.category, action))
    assert cm.vertex_bijective and all(cm.surjective_by_dim)

    fp, act = dgn4_bundle["fp"], dgn4_bundle["act"]
    qc = quotient_category(fp.category, act)
    cm = canonical_map(qc)
    assert cm.vertex_bijective and all(cm.surjective_by_dim)
    lifts = canonical_lifts(qc, cm)
    for d in range(cm.nerve_dst.trisp.dim + 1):
        for s in range(cm.nerve_dst.trisp.n(d)):
            assert cm.entries[d][lifts[d][s]] == s

    rng = random.Random(20260810)
    failures = 0
    for _ in range(200):
        q = random_poset(rng, max_n=7)
        a = random_action(rng, q, max_order=6)
        cmq = canonical_map(quotient_category(q.category, a))
        if not (cmq.vertex_bijective and all(cmq.surjective_by_dim)):
            failures += 1
    assert failures == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report_pass(2, "canonical map surjective in every dimension", elapsed)


def test_criterion_03_one_sided_operators_induce_closure_maps(poset_corpus):
    t0 = time.perf_counter()
    assert len(poset_corpus) == 87  # posets with <= 5 elements, up to isomorphism

    one_sided = mixed = 0
    mixed_fail_min = mixed_fail_max = mixed_fail_both = 0
    for p, nv, maps in poset_corpus:
        for f, rep in maps:
            direction = rep.direction()
            if direction is not None:
                one_sided += 1
                cmap = induced_trisp_closure_map(p, f, rep)
                assert verify_trisp_closure_map(nv.trisp, cmap).ok, (p.mor_of, f)
            else:
                mixed += 1
                bad_min = not verify_trisp_closure_map(nv.trisp, _candidate(f, p, "min")).ok
                bad_max = not verify_trisp_closure_map(nv.trisp, _candidate(f, p, "max")).ok
                mixed_fail_min += bad_min
                mixed_fail_max += bad_max
                mixed_fail_both += bad_min and bad_max
    # enumeration pins
    assert one_sided == 861
    assert mixed == 3860
    assert mixed_fail_min == mixed_fail_max == 3579
    assert mixed_fail_both == 3575
    assert mixed_fail_both >= 1  # the dual poset does not remedy these

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report_pass(3, "one-sided operators induce closure maps, mixed ones can fail", elapsed)


def test_criterion_04_pushforward_verifies(equivariant_corpus):
    t0 = time.perf_counter()
    pushed_count = 0
    for p, nv, action, tact, equivariant in equivariant_corpus:
        for f, rep in equivariant:
            cmap = induced_trisp_closure_map(p, f, rep)
            eq = check_equivariant(tact, cmap)
            assert eq.ok
            pushed = push_closure_map(quotient_trisp(nv.trisp, tact), cmap)
            assert pushed.verify_report.ok
            pushed_count += 1
    assert pushed_count >= 861  # at least the trivial action covers every operator

    elapsed = time.perf_counter() - t0
    report_pass(4, f"{pushed_count} pushforwards verified on quotient trisps", elapsed)


def test_criterion_05_poset_quotient_transfer(equivariant_corpus, dgn4_bundle):
    t0 = time.perf_counter()
    for p, nv, action, tact, equivariant in equivariant_corpus:
        for f, rep in equivariant:
            ok, witnesses = check_operator_class_coherence(p, action, f)
            assert ok, witnesses
            assert check_image_subtrisp_equality(p, f, quotient_category(p.category, action)).ok
            result = quotient_poset_closure_map(p, f, quotient_category(p.category, action))
            assert result.verify_report.ok

    fp, f, act = dgn4_bundle["fp"], dgn4_bundle["f"], dgn4_bundle["act"]
    ok, witnesses = check_operator_class_coherence(fp.poset, act, f)
    assert ok, witnesses
    qc = quotient_category(fp.category, act)
    assert check_image_subtrisp_equality(fp.poset, f, qc).ok
    result = quotient_poset_closure_map(fp.poset, f, qc)
    assert result.verify_report.ok

    elapsed = time.perf_counter() - t0
    report_pass(5, "class coherence, image equality, quotient closure maps", elapsed)


def test_criterion_06_every_verified_map_collapses(poset_corpus, two_edges_z2, dgn4_bundle):
    t0 = time.perf_counter()
    audited = 0

    def audit(t, cmap):
        nonlocal audited
        cert = full_collapse_audit(t, cmap)
        assert _chi_preserved_stepwise(t, cert.steps)
        red_simplices = {
            (d, s)
            for d in range(t.dim + 1)
            for s in range(t.n(d))
            if set(t.vertex_tuple(d, s)) <= cmap.red
        }
        assert parent_simplices(cert.final) == red_simplices
        audited += 1

    for p, nv, maps in poset_corpus:
        for f, rep in maps:
            if rep.direction() is not None:
                audit(nv.trisp, induced_trisp_closure_map(p, f, rep))

    _p, nv, _cat, tact, cmap = two_edges_z2
    audit(nv.trisp, cmap)
    pushed = push_closure_map(quotient_trisp(nv.trisp, tact), cmap)
    audit(pushed.qt.trisp, pushed.cmap)

    fp, f, bd, tact4 = dgn4_bundle["fp"], dgn4_bundle["f"], dgn4_bundle["bd"], dgn4_bundle["tact"]
    cmap4 = induced_trisp_closure_map(fp.poset, f, dgn4_bundle["closure_report"])
    audit(bd.trisp, cmap4)
    pushed4 = push_closure_map(quotient_trisp(bd.trisp, tact4), cmap4)
    audit(pushed4.qt.trisp, pushed4.cmap)

    assert audited == 861 + 4

    elapsed = time.perf_counter() - t0
    report_pass(6, f"{audited} verified maps yield acyclic matchings and collapses", elapsed)


def test_criterion_07_quotient_trisp_pipeline():
    t0 = time.perf_counter()
    report, cert = pipeline_quotient_trisp(4)
    assert report.ok
    stages = {s.name: s for s in report.stages}
    assert stages["barycentric"].info["counts"][0] == 25
    assert stages["collapse"].info["final_counts"] == [3, 2]
    assert euler_characteristic(cert.final.trisp) == 1
    elapsed_n4 = time.perf_counter() - t0
    assert elapsed_n4 < 60.0

    report5, cert5 = pipeline_quotient_trisp(5)
    assert report5.ok
    stages5 = {s.name: s for s in report5.stages}
    assert stages5["collapse"].info["final_counts"] == [5, 9, 5]
    assert len(report5.certificates["endpoint"]) == 9

    elapsed = time.perf_counter() - t0
    report_pass(7, "subdivision quotient collapses onto the partition complex", elapsed)


def test_criterion_08_quotient_category_pipeline():
    t0 = time.perf_counter()
    for n, expected_objects in ((4, 3), (5, 5)):
        pp = partition_poset(n)
        act = partition_action(pp)
        qc = quotient_category(pp.category, act)
        assert qc.category.n_objects == expected_objects
        terminal = find_terminal_object(qc.category)
        assert terminal is not None
        rep = pp.partitions[qc.obj_members[terminal][0]]
        assert number_partition(rep) == tuple([2] + [1] * (n - 2))
        for x in range(qc.category.n_objects):
            if x != terminal:
                assert len(qc.category.hom(x, terminal)) == 1
                assert not qc.category.hom(terminal, x)

        report, steps = pipeline_quotient_category(n)
        assert report.ok
        stages = {s.name: s for s in report.stages}
        assert stages["partition_quotient"].info["objects"] == expected_objects
        assert stages["stitch"].info["total_steps"] == len(steps)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report_pass(8, "quotient category pipeline collapses to a point", elapsed)


def test_criterion_09_regularity_condition_witness(dgn4_bundle):
    t0 = time.perf_counter()
    k = dgn4_bundle["k"]
    direct = dgn_trisp_action(k)
    report = check_regular_action(quotient_trisp(k.trisp, direct))
    assert not report.ok
    gi, sigma, rho, kind = report.witness
    g = direct.elements[gi]
    d, s = sigma
    assert (rho[0], inverse(g).dims[rho[0]][rho[1]]) in iterated_faces(k.trisp, d, s)
    assert g.dims[rho[0]][rho[1]] != rho[1] or any(
        g.dims[0][v] != v for v in k.trisp.vertex_tuple(*rho)
    )

    # the documented witness: the double transposition fixing the edge pair
    # {12, 34} as a simplex while swapping its two vertices
    edges = edge_list(4)
    edge_index = {pair: e for e, pair in enumerate(edges)}
    eperm = lift_to_edges((2, 3, 0, 1), edges, edge_index)
    element = next(g for g in direct.elements if g.dims[0] == eperm)
    e12, e34 = edge_index[(0, 1)], edge_index[(2, 3)]
    d, s = k.index[frozenset({e12, e34})]
    assert element.dims[d][s] == s
    assert any(element.dims[0][v] != v for v in k.trisp.vertex_tuple(d, s))

    induced = check_regular_action(quotient_trisp(dgn4_bundle["bd"].trisp, dgn4_bundle["tact"]))
    assert induced.ok

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_pass(9, "direct action fails regularity, induced action passes", elapsed)


def test_criterion_10_congruence_equals_decomposition(triangle_boundary, two_edges_z2):
    t0 = time.perf_counter()
    from trispcat.accat import AcyclicCategory, validate_category
    from trispcat.symmetry import CatAut, trivial_cat_action

    fixtures = []
    p1, a1 = triangle_boundary
    fixtures.append((p1.category, a1))
    p2, _nv, a2, _t, _c = two_edges_z2
    fixtures.append((p2.category, a2))
    par = AcyclicCategory(["a", "b"], [(0, 1), (0, 1)])
    fixtures.append((par, close_group([CatAut((0, 1), (1, 0))], on=par)))
    fork = AcyclicCategory(
        ["a", "b1", "b2", "c"],
        [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (0, 3)],
        [(0, 2, 4), (1, 3, 5)],
    )
    assert validate_category(fork).ok
    fixtures.append((fork, close_group([CatAut((0, 2, 1, 3), (1, 0, 3, 2, 5, 4))], on=fork)))
    c3 = chain_poset(3).category
    fixtures.append((c3, trivial_cat_action(c3)))
    assert all(c.n_morphisms <= 10 for c, _a in fixtures)

    discrepancies = 0
    for c, action in fixtures:
        qc = quotient_category(c, action)
        if list(qc.mor_class) != decomposition_quotient_classes(c, action):
            discrepancies += 1

    rng = random.Random(104729)
    for _ in range(100):
        p = random_poset(rng, max_n=6)
        action = random_action(rng, p, max_order=6)
        qc = quotient_category(p.category, action)
        if list(qc.mor_class) != decomposition_quotient_classes(p.category, action):
            discrepancies += 1
    assert discrepancies == 0

    elapsed = time.perf_counter() - t0
    report_pass(10, "congruence closure equals factorization matching", elapsed)
