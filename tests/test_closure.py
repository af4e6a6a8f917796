import contextlib
import gc
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from trispcat.accat import (
    as_poset,
    check_closure_operator,
    closure_direction,
    poset_from_relation,
)
from trispcat.closure import (
    ClosureVerifyReport,
    TrispClosureMap,
    check_matching_acyclic,
    closure_matching,
    collapse,
    cone_closure_map,
    full_collapse_audit,
    induced_trisp_closure_map,
    search_collapse_to_point,
    verify_collapse_sequence,
    verify_trisp_closure_map,
)
from trispcat.errors import InputError, PreconditionError, SoundnessError
from trispcat.nerve import nerve
from trispcat.trisp import Trisp, euler_characteristic

import oracles
from oracles import chain_poset, monotone_idempotent_maps, opposite_category, parent_simplices
from test_accat import posets


def edge_fixture():
    """The nerve of r < b with b -> r, minimal convention."""
    p = chain_poset(2)
    nv = nerve(p.category)
    cmap = TrispClosureMap(frozenset({1}), frozenset({0}), {1: 0}, "min")
    return nv.trisp, cmap


def test_edge_fixture_verifies():
    t, cmap = edge_fixture()
    assert verify_trisp_closure_map(t, cmap).ok


def test_closure_map_validation():
    with pytest.raises(InputError):
        TrispClosureMap(frozenset({0}), frozenset({0}), {0: 0}, "min")
    with pytest.raises(InputError):
        TrispClosureMap(frozenset({0}), frozenset({1}), {0: 1}, "sideways")
    with pytest.raises(InputError):
        TrispClosureMap(frozenset({0}), frozenset({1}), {}, "min")


def test_double_filled_candidate_fails_with_two_extensions(double_filled):
    t, _action, _psi = double_filled
    cand = TrispClosureMap(frozenset({0}), frozenset({1, 2}), {0: 2}, "min")
    report = verify_trisp_closure_map(t, cand)
    assert not report.ok
    assert report.failures == [(1, 0, 2)]  # edge {b, x} extends twice
    assert report.partners[1][0] == -1
    assert report == oracles.verify_trisp_closure_map_oracle(t, cand)


def test_nonregular_trisp_rejected():
    loop = Trisp((1, 1), [[(0, 0)]])
    cmap = TrispClosureMap(frozenset(), frozenset({0}), {}, "min")
    with pytest.raises(PreconditionError):
        verify_trisp_closure_map(loop, cmap)


def test_induced_identity_operator_is_vacuous(chain3):
    cmap = induced_trisp_closure_map(chain3, (0, 1, 2))
    assert cmap.blue == frozenset()
    assert verify_trisp_closure_map(nerve(chain3.category).trisp, cmap).ok


def test_induced_two_chain():
    p = chain_poset(2)
    cmap = induced_trisp_closure_map(p, (0, 0))
    assert cmap.blue == frozenset({1}) and cmap.convention == "min"


def test_induced_requires_one_sided(chain3):
    # monotone idempotent but neither descending nor ascending
    p = poset_from_relation(3, [(0, 1), (0, 2)])
    f = (1, 1, 1)
    witnesses = check_closure_operator(p, f)
    assert not witnesses["monotone"] and not witnesses["idempotent"]
    assert closure_direction(witnesses) is None
    with pytest.raises(PreconditionError):
        induced_trisp_closure_map(p, f)


def test_matching_on_three_chain_descending():
    # r < m < b with b -> m: pairs (b, {m,b}) and ({r,b}, {r,m,b})
    p = chain_poset(3)
    nv = nerve(p.category)
    cmap = induced_trisp_closure_map(p, (0, 1, 1))
    matching = oracles.matching_pairs(
        closure_matching(nv.trisp, cmap, verify_trisp_closure_map(nv.trisp, cmap))
    )
    pair_tuples = {(nv.trisp.vertex_tuple(*a), nv.trisp.vertex_tuple(*b)) for a, b in matching}
    assert pair_tuples == {((2,), (1, 2)), ((0, 2), (0, 1, 2))}
    matched = {x for pair in matching for x in pair}
    unmatched = {
        vt for d in range(nv.trisp.dim + 1) for s, vt in enumerate(nv.trisp.vertex_tuples(d))
        if (d, s) not in matched
    }
    assert unmatched == {(0,), (1,), (0, 1)}


def _three_chain_report(f):
    """The nerve of 0 < 1 < 2, the closure map that f induces on it, and its report."""
    p = chain_poset(3)
    t = nerve(p.category).trisp
    cmap = induced_trisp_closure_map(p, f)
    return t, cmap, verify_trisp_closure_map(t, cmap)


def _swap_partner(report, t):
    # vertex 2 extends by vertex 1 to the edge {1, 2}; point it at the edge {0, 2}
    edges = t.vertex_tuples(1)
    assert report.partners[0][2] == edges.index((1, 2))
    report.partners[0][2] = edges.index((0, 2))
    return report, f"inconsistent pairing at (0, 2) / (1, {edges.index((0, 2))})"


def _other_map(report, t):
    # 0 <- 1, 0 <- 2 verifies too, but vertex 1 is red under the map (0, 1, 1)
    _t, _cmap, other = _three_chain_report((0, 0, 0))
    assert other.ok
    return other, f"inconsistent pairing at (0, 1) / (1, {t.vertex_tuples(1).index((0, 1))})"


def _contained_off_by_one(report, t):
    tampered = ClosureVerifyReport(
        report.failures, report.contained + 1, report.extended, report.partners, report.targets,
    )
    return tampered, "matching rules disagree in size"


@pytest.mark.parametrize("tamper", [_swap_partner, _other_map, _contained_off_by_one])
def test_closure_matching_refuses_a_tampered_report(tamper):
    t, cmap, report = _three_chain_report((0, 1, 1))
    assert report.ok
    bad, message = tamper(report, t)
    with pytest.raises(SoundnessError) as exc:
        closure_matching(t, cmap, bad)
    assert str(exc.value) == message


def test_closure_matching_refuses_a_failing_report(double_filled):
    # the forced lift of the double filling: the edge {b, x} extends twice
    t, _action, psi = double_filled
    report = verify_trisp_closure_map(t, psi)
    with pytest.raises(PreconditionError) as exc:
        closure_matching(t, psi, report)
    assert str(exc.value) == "not a closure map: [(1, 0, 2)]"


def test_edge_fixture_collapse():
    t, cmap = edge_fixture()
    cert = full_collapse_audit(t, cmap)
    assert len(cert.steps) == 1
    assert cert.final.trisp.counts == (1,)
    assert cert.euler == 1


def test_three_chain_collapse_to_edge():
    p = chain_poset(3)
    nv = nerve(p.category)
    cmap = induced_trisp_closure_map(p, (0, 1, 1))
    cert = full_collapse_audit(nv.trisp, cmap)
    assert len(cert.steps) == 2
    assert cert.final.trisp.counts == (2, 1)
    assert euler_characteristic(cert.final.trisp) == 1


def test_empty_matching_is_acyclic():
    t, _ = edge_fixture()
    cycle = check_matching_acyclic(t, oracles.partner_arrays(t, ()))
    assert cycle is None


def test_cyclic_matching_detected():
    # hollow triangle with every vertex matched to the edge it does not start
    from trispcat.trisp import simplicial_from_faces

    t, _, index = simplicial_from_faces(3, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    pairs = (
        ((0, 0), (1, index[frozenset({0, 1})][1])),
        ((0, 1), (1, index[frozenset({1, 2})][1])),
        ((0, 2), (1, index[frozenset({0, 2})][1])),
    )
    cycle = check_matching_acyclic(t, oracles.partner_arrays(t, pairs))
    assert cycle


def test_deep_acyclic_matching_has_no_recursion_limit():
    # vertex i is matched up to edge i, whose other end is vertex i + 1
    t = Trisp([1500, 1499], [[(i + 1, i) for i in range(1499)]])
    pairs = tuple(((0, i), (1, i)) for i in range(1499))
    assert check_matching_acyclic(t, oracles.partner_arrays(t, pairs)) is None


def test_collapse_rejects_stuck_matching():
    from trispcat.trisp import simplicial_from_faces

    t, _, index = simplicial_from_faces(3, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    pairs = (
        ((0, 0), (1, index[frozenset({0, 1})][1])),
        ((0, 1), (1, index[frozenset({1, 2})][1])),
        ((0, 2), (1, index[frozenset({0, 2})][1])),
    )
    with pytest.raises(AssertionError, match=r"cycle: \[\("):
        collapse(t, oracles.partner_arrays(t, pairs), ())


def test_collapse_checks_red_subtrisp_under_optimize():
    # the certificate checks must not vanish under `python -O`
    import os
    import subprocess
    import sys

    code = (
        "from trispcat.accat import poset_from_relation\n"
        "from trispcat.closure import closure_matching, collapse, induced_trisp_closure_map, "
        "verify_trisp_closure_map\n"
        "from trispcat.nerve import nerve\n"
        "p = poset_from_relation(3, [(0, 1), (1, 2)])\n"
        "nv = nerve(p.category)\n"
        "cmap = induced_trisp_closure_map(p, (0, 1, 1))\n"
        "matching = closure_matching(nv.trisp, cmap, verify_trisp_closure_map(nv.trisp, cmap))\n"
        "try:\n"
        "    collapse(nv.trisp, matching, {0})\n"
        "except AssertionError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "rejected: final subtrisp is not the red subtrisp\n"


def test_closure_matching_refuses_a_tampered_report_under_optimize():
    # the cross-check is all that stands between a report and `collapse`
    import os
    import subprocess
    import sys

    code = (
        "from trispcat.accat import poset_from_relation\n"
        "from trispcat.closure import closure_matching, induced_trisp_closure_map, "
        "verify_trisp_closure_map\n"
        "from trispcat.nerve import nerve\n"
        "p = poset_from_relation(3, [(0, 1), (1, 2)])\n"
        "t = nerve(p.category).trisp\n"
        "cmap = induced_trisp_closure_map(p, (0, 1, 1))\n"
        "report = verify_trisp_closure_map(t, cmap)\n"
        "report.partners[0][2] = t.vertex_tuples(1).index((0, 2))\n"
        "try:\n"
        "    closure_matching(t, cmap, report)\n"
        "except AssertionError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    edge = nerve(chain_poset(3).category).trisp.vertex_tuples(1).index((0, 2))
    assert out.stdout == f"rejected: inconsistent pairing at (0, 2) / (1, {edge})\n"


def test_collapse_rejects_a_removed_coface_under_optimize():
    # two vertices matched to one edge: the second pair must raise, even under `python -O`
    import os
    import subprocess
    import sys

    code = (
        "from oracles import partner_arrays\n"
        "from trispcat.closure import collapse\n"
        "from trispcat.trisp import Trisp\n"
        "t = Trisp((3, 2), [[(1, 0), (2, 1)]])\n"
        "up = partner_arrays(t, (((0, 0), (1, 0)), ((0, 1), (1, 0))))\n"
        "try:\n"
        "    collapse(t, up, {2})\n"
        "except AssertionError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, "..", "src"), here]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == (
        "rejected: matched pair ((0, 1), (1, 0)): the coface (1, 0) is already removed\n"
    )


def test_verify_collapse_sequence_checks_freeness():
    t, cmap = edge_fixture()
    cert = full_collapse_audit(t, cmap)
    remaining = verify_collapse_sequence(t, cert.steps)
    assert remaining == {(0, 0)}
    with pytest.raises(AssertionError):
        verify_collapse_sequence(t, list(cert.steps) * 2)


def test_cone_closure_map_two_chain():
    p = chain_poset(2)
    nv = nerve(p.category)
    cmap = cone_closure_map(p.category, 1)
    assert cmap.convention == "max" and cmap.mapping == {0: 1}
    cert = full_collapse_audit(nv.trisp, cmap)
    assert cert.final.trisp.counts == (1,)


def test_cone_closure_map_full_triangle(chain3):
    nv = nerve(chain3.category)
    cmap = cone_closure_map(chain3.category, 2)
    cert = full_collapse_audit(nv.trisp, cmap)
    assert len(cert.steps) == 3
    assert cert.final.trisp.counts == (1,)
    assert cert.euler == 1


def test_cone_requires_terminal_object():
    p = poset_from_relation(2, [])
    with pytest.raises(PreconditionError):
        cone_closure_map(p.category, 0)


def test_search_collapse_full_triangle(chain3):
    t = nerve(chain3.category).trisp
    steps = search_collapse_to_point(t)
    assert steps is not None
    remaining = verify_collapse_sequence(t, steps)
    assert len(remaining) == 1


def test_search_detects_non_collapsible():
    from trispcat.trisp import simplicial_from_faces

    hollow, _, _ = simplicial_from_faces(3, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    assert search_collapse_to_point(hollow) is None
    assert oracles.search_collapse_to_point_oracle(hollow) is None


def test_search_rejects_the_one_triangle_dunce_hat():
    # χ = 1 - 1 + 1, but the vertex is a face of the edge twice and the edge
    # a face of the triangle three times, so nothing is free
    hat = Trisp((1, 1, 1), [[(0, 0)], [(0, 0, 0)]])
    assert euler_characteristic(hat) == 1
    assert search_collapse_to_point(hat) is None
    assert oracles.search_collapse_to_point_oracle(hat) is None


def test_a_free_face_needs_a_maximal_coface():
    # the cone over the one-triangle dunce hat: edge (1, 1) is a face of the
    # apex (0, 1) once, but still a face of triangle (2, 1) twice
    cone = Trisp((2, 2, 2, 1), [[(0, 0), (1, 0)], [(0, 0, 0), (1, 1, 0)], [(1, 1, 1, 0)]])
    assert euler_characteristic(cone) == 1
    steps = search_collapse_to_point(cone)
    assert steps == (((2, 0), (3, 0)), ((1, 0), (2, 1)), ((0, 0), (1, 1)))
    assert steps == oracles.search_collapse_to_point_oracle(cone)
    assert verify_collapse_sequence(cone, steps) == {(0, 1)}
    false_collapse = [((0, 1), (1, 1)), ((2, 0), (3, 0)), ((1, 0), (2, 1))]
    for replay in (verify_collapse_sequence, oracles.verify_collapse_sequence_oracle):
        with pytest.raises(AssertionError, match=r"coface \(1, 1\) is not maximal \(count 2\)"):
            replay(cone, false_collapse)


# The dunce hat times an interval, cut as a prism over the one-triangle hat
# into three tetrahedra.  Vertex 0 is the bottom, vertex 1 the top; edges:
# the bottom loop 0, the top loop 1, the vertical edge 2 and the diagonal 3;
# triangles: the bottom hat 0, the four triangles of the prism 1-4 and the
# top hat 5.
HAT_PRISM = (
    (2, 4, 6, 3),
    [
        [(0, 0), (1, 1), (1, 0), (1, 0)],
        [(0, 0, 0), (2, 3, 0), (1, 3, 2), (3, 3, 0), (1, 3, 3), (1, 1, 1)],
        [(1, 1, 3, 0), (2, 4, 3, 1), (5, 4, 2, 2)],
    ],
)
# the least free pair at every state collapses the prism onto the top hat
HAT_PRISM_DEAD_END = (
    ((2, 0), (3, 0)), ((2, 1), (3, 1)), ((1, 0), (2, 3)),
    ((2, 4), (3, 2)), ((1, 2), (2, 2)), ((0, 0), (1, 3)),
)


def test_search_backtracks_out_of_a_dead_end():
    t = Trisp(*HAT_PRISM)
    assert euler_characteristic(t) == 1
    assert verify_collapse_sequence(t, HAT_PRISM_DEAD_END) == {(0, 1), (1, 1), (2, 5)}
    steps = search_collapse_to_point(t)
    # back at the state after three steps, the top hat goes with the last tetrahedron
    assert steps == HAT_PRISM_DEAD_END[:3] + (
        ((2, 5), (3, 2)), ((1, 2), (2, 2)), ((1, 1), (2, 4)), ((0, 0), (1, 3)),
    )
    assert steps == oracles.search_collapse_to_point_oracle(t)
    assert verify_collapse_sequence(t, steps) == {(0, 1)}


@pytest.mark.parametrize("n, expected_steps", [(3, 0), (4, 2), (5, 9)])
def test_search_on_the_pipeline_61_endpoint(n, expected_steps):
    from trispcat.graphs import pipeline_quotient_trisp

    report, cert = pipeline_quotient_trisp(n)
    t = cert.final.trisp
    steps = search_collapse_to_point(t)
    assert len(steps) == expected_steps
    assert steps == oracles.search_collapse_to_point_oracle(t)
    assert steps == report.certificates["endpoint"]
    remaining = verify_collapse_sequence(t, steps)
    assert len(remaining) == 1 and next(iter(remaining))[0] == 0


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_search_agrees_with_the_recursive_search(rng):
    from trispcat.trisp import induced_subtrisp

    t = nerve(oracles.random_poset(rng, max_n=6).category).trisp
    trisps = [t] + [
        induced_subtrisp(t, [v for v in range(t.n(0)) if rng.random() < 0.7]).trisp
        for _ in range(2)
    ]
    for u in trisps:
        steps = search_collapse_to_point(u)
        assert steps == oracles.search_collapse_to_point_oracle(u)
        if steps is not None:
            remaining = verify_collapse_sequence(u, steps)
            assert len(remaining) == 1 and next(iter(remaining))[0] == 0


def test_convention_swap_through_opposite(chain3):
    # a descending operator on P is ascending on the opposite poset, and the
    # induced closure maps verify on the mirrored nerve with swapped convention
    p = chain3
    cmap = induced_trisp_closure_map(p, (0, 1, 1))
    assert cmap.convention == "min"
    op = as_poset(opposite_category(p.category))
    f_op = (0, 1, 1)
    assert closure_direction(check_closure_operator(op, f_op)) == "ascending"
    cmap_op = induced_trisp_closure_map(op, f_op)
    assert cmap_op.convention == "max"
    assert verify_trisp_closure_map(nerve(op.category).trisp, cmap_op).ok


def test_json_roundtrip():
    _t, cmap = edge_fixture()
    back = TrispClosureMap.from_json(cmap.to_json())
    assert back == cmap


@pytest.mark.slow
def test_one_sided_operators_verify_exhaustively_n6():
    from oracles import all_posets_upto_iso

    for p in all_posets_upto_iso(6):
        nv = nerve(p.category)
        for f in monotone_idempotent_maps(p):
            witnesses = check_closure_operator(p, f)
            if closure_direction(witnesses) is None:
                continue
            cmap = induced_trisp_closure_map(p, f, witnesses)
            assert verify_trisp_closure_map(nv.trisp, cmap).ok, (p.relation, f)


def _collapse_agrees_with_the_oracle(t, cmap):
    """`collapse` on the partner arrays, checked against the oracle fed the pairs read off them."""
    up = closure_matching(t, cmap, verify_trisp_closure_map(t, cmap))
    cert = collapse(t, up, cmap.red)
    expected = oracles.collapse_oracle(t, oracles.matching_pairs(up), cmap.red)
    assert (cert.steps, cert.final.to_parent, cert.euler) == (
        expected.steps, expected.final.to_parent, expected.euler
    )
    return cert


@pytest.mark.parametrize("n, expected_steps", [(3, 0), (4, 36)])
def test_collapse_of_the_dgn_subdivision_agrees_with_the_oracle(n, expected_steps):
    from trispcat.graphs import build_dgn, face_poset, transitive_closure_operator

    k = build_dgn(n)
    fp = face_poset(k)
    cmap = induced_trisp_closure_map(fp.poset, transitive_closure_operator(k, fp))
    cert = _collapse_agrees_with_the_oracle(nerve(fp.category).trisp, cmap)
    assert len(cert.steps) == expected_steps


@settings(max_examples=30, deadline=None)
@given(posets(max_n=5), st.randoms(use_true_random=False))
def test_random_descending_operators_collapse(p, rng):
    maps = monotone_idempotent_maps(p)
    rng.shuffle(maps)
    for f in maps[:6]:
        witnesses = check_closure_operator(p, f)
        if closure_direction(witnesses) is None:
            continue
        cmap = induced_trisp_closure_map(p, f, witnesses)
        t = nerve(p.category).trisp
        cert = _collapse_agrees_with_the_oracle(t, cmap)
        assert euler_characteristic(cert.final.trisp) == euler_characteristic(t)
        red_simplices = {
            (d, s)
            for d in range(t.dim + 1)
            for s in range(t.n(d))
            if set(t.vertex_tuple(d, s)) <= cmap.red
        }
        assert red_simplices == parent_simplices(cert.final)


def _outcome(fn, *args):
    """What a kernel did: ("returned", value), or the kind and message of what it raised."""
    try:
        return "returned", fn(*args)
    except AssertionError as exc:  # a SoundnessError here, a bare AssertionError in the oracles
        return "unsound", str(exc)
    except PreconditionError as exc:
        return "precondition", str(exc)


def _random_maps(rng, p):
    """Closure maps on the nerve of p: induced ones (they verify) and random ones (most fail)."""
    maps = []
    for f in monotone_idempotent_maps(p)[:4]:
        if closure_direction(check_closure_operator(p, f)) is not None:
            red = frozenset(f)
            blue = frozenset(range(p.n)) - red
            maps.append((blue, red, {b: f[b] for b in blue}))
    for _ in range(3):
        blue = frozenset(v for v in range(p.n) if rng.random() < 0.5)
        red = frozenset(range(p.n)) - blue
        if red:
            maps.append((blue, red, {b: rng.choice(sorted(red)) for b in blue}))
    return [TrispClosureMap(*m, convention) for m in maps for convention in ("min", "max")]


def _collapse_outcome(fn, t, matching, red):
    kind, value = _outcome(fn, t, matching, red)
    if kind != "returned":
        return kind, value
    return kind, (value.steps, value.final.to_parent, value.euler)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_array_kernels_agree_with_the_reference_kernels(rng):
    p = oracles.random_poset(rng)
    t = nerve(p.category).trisp
    for cmap in _random_maps(rng, p):
        report = verify_trisp_closure_map(t, cmap)
        assert report == oracles.verify_trisp_closure_map_oracle(t, cmap)
        kind, up = _outcome(closure_matching, t, cmap, report)
        pairs = oracles.matching_pairs(up) if kind == "returned" else up
        assert (kind, pairs) == _outcome(oracles.closure_matching_oracle, t, cmap, report)
        if kind != "returned":
            assert not report.ok
            continue
        kind, cert = _collapse_outcome(collapse, t, up, cmap.red)
        assert (kind, cert) == _collapse_outcome(oracles.collapse_oracle, t, pairs, cmap.red)
        if kind != "returned":
            continue
        steps = list(cert[0])
        trials = [steps, steps + steps[:1], steps[::-1]]
        trials += [steps[:k] for k in rng.sample(range(len(steps)), min(3, len(steps)))]
        if len(steps) >= 2:
            i, j = rng.sample(range(len(steps)), 2)
            swapped = list(steps)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            trials.append(swapped)
        for trial in trials:
            assert _outcome(verify_collapse_sequence, t, trial) == _outcome(
                oracles.verify_collapse_sequence_oracle, t, trial
            )


# the path 0 - 1 - 2: edge 0 spans vertices (0, 1), edge 1 spans (1, 2)
PATH = ((3, 2), [[(1, 0), (2, 1)]])
REPLAY_REJECTIONS = [
    ([((0, -1), (1, 0))], "step removes absent simplex: (0, -1), (1, 0)"),
    ([((0, 3), (1, 0))], "step removes absent simplex: (0, 3), (1, 0)"),
    ([((0, 0), (1, 2))], "step removes absent simplex: (0, 0), (1, 2)"),
    ([((0, 0.0), (1, 0))], "step removes absent simplex: (0, 0.0), (1, 0)"),
    ([((0, True), (1, 0))], "step removes absent simplex: (0, True), (1, 0)"),
    ([((0, 0, 0), (1, 0))], "step removes absent simplex: (0, 0, 0), (1, 0)"),
    ([(0, (1, 0))], "step removes absent simplex: 0, (1, 0)"),
    ([((0, 0), None)], "step removes absent simplex: (0, 0), None"),
    ([((1, 0), (2, 0))], "step removes absent simplex: (1, 0), (2, 0)"),
    ([((-1, 0), (0, 0))], "step removes absent simplex: (-1, 0), (0, 0)"),
    ([((0, 0), (1, 0)), ((0, 1), (1, 0))], "step removes absent simplex: (0, 1), (1, 0)"),
    ([((0, 0), (0, 1))], "step pair has wrong dimensions: (0, 0), (0, 1)"),
    ([((0, 0), (1, 1))], "(0, 0) is not a face of (1, 1)"),
    ([((0, 0), (1, 0)), ((0, 0), (1, 0))], "step removes absent simplex: (0, 0), (1, 0)"),
    ([((0, 1), (1, 1)), ((0, 0), (1, 0))], "face (0, 1) is not free (count 2)"),
    (
        [((0, 1), (1, 1)), ((0, 0), (1, 0)), ((0, 0), (1, 0))],
        "face (0, 1) is not free (count 2)",
    ),
]


def test_replay_rejects_malformed_and_unsound_steps():
    t = Trisp(*PATH)
    assert verify_collapse_sequence(t, [((0, 0), (1, 0)), ((0, 1), (1, 1))]) == {(0, 2)}
    for steps, message in REPLAY_REJECTIONS:
        with pytest.raises(SoundnessError) as info:
            verify_collapse_sequence(t, steps)
        assert str(info.value) == message
    loop = Trisp((1, 1), [[(0, 0)]])  # one edge whose two faces are the one vertex
    with pytest.raises(SoundnessError) as info:
        verify_collapse_sequence(loop, [((0, 0), (1, 0))])
    assert str(info.value) == "face (0, 0) is not free (count 2)"


def test_replay_rejections_survive_optimize():
    import os
    import subprocess
    import sys

    code = (
        "from trispcat.closure import verify_collapse_sequence\n"
        "from trispcat.trisp import Trisp\n"
        f"t = Trisp(*{PATH!r})\n"
        f"for steps, _message in {REPLAY_REJECTIONS!r}:\n"
        "    try:\n"
        "        verify_collapse_sequence(t, steps)\n"
        "        print('accepted')\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == [message for _steps, message in REPLAY_REJECTIONS]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
@pytest.mark.parametrize("entry", ["from_json", "replay", "cli"])
def test_the_certificate_path_pauses_the_collector_and_restores_it(
    entry, fails, enabled, tmp_path, monkeypatch
):
    from trispcat import cli, closure

    t, cmap = edge_fixture()
    steps = list(full_collapse_audit(t, cmap).steps)
    seen = []  # the collector's state, noted inside each call

    class Document(dict):
        def __getitem__(self, key):
            seen.append(gc.isenabled())
            return dict.__getitem__(self, key)

    def noted(steps):
        seen.append(gc.isenabled())
        yield from steps

    if entry == "from_json":
        doc = Document({"dims": [{}]} if fails else t.to_json())
        call, error = (lambda: Trisp.from_json(doc)), InputError
    elif entry == "replay":
        replay = steps * 2 if fails else steps
        call, error = (lambda: verify_collapse_sequence(t, noted(replay))), SoundnessError
    else:
        t_file, m_file = tmp_path / "t.json", tmp_path / "m.json"
        t_file.write_text(json.dumps(t.to_json()), encoding="utf-8")
        m_file.write_text(json.dumps(cmap.to_json()), encoding="utf-8")
        verify = closure.verify_trisp_closure_map

        def noted_verify(*args):
            seen.append(gc.isenabled())
            return verify(*args)

        monkeypatch.setattr(closure, "verify_trisp_closure_map", noted_verify)
        if fails:
            def stuck(*_args):
                raise SoundnessError("collapse got stuck")

            monkeypatch.setattr(closure, "collapse", stuck)
        argv = ["closure", "collapse", "--input", str(t_file), "--map", str(m_file),
                "--output", str(tmp_path / "cert.json")]
        call, error = (lambda: cli.main(argv)), None
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fails and error is not None:
            with pytest.raises(error):
                call()
        else:
            outcome = call()
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    assert seen and not any(seen)
    if entry == "cli":
        assert outcome == (1 if fails else 0)


def test_the_pipelines_and_the_audit_build_no_reference_cycles(tmp_path):
    # what makes the pause in `cli.main` safe: with the collector off, all
    # these calls allocate is freed by reference counting, so a collection
    # afterwards finds nothing, not even among their dropped results; the
    # commands run whole, their parse included
    from trispcat import cli, graphs

    was, flags = gc.isenabled(), gc.get_debug()
    gc.collect()  # what earlier tests left
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        results = [graphs.pipeline_quotient_trisp(4), graphs.pipeline_quotient_category(4)]
        k = graphs.build_dgn(4)
        fp = graphs.face_poset(k)
        f = graphs.transitive_closure_operator(k, fp)
        cmap = induced_trisp_closure_map(fp.poset, f, check_closure_operator(fp.poset, f))
        bd = nerve(fp.category).trisp
        cert = full_collapse_audit(bd, cmap)
        assert [report.ok for report, _cert in results] == [True, True]
        assert cert.final.trisp.counts == (13, 18)  # the proper part of the partition lattice
        files = [tmp_path / "bd4.json", tmp_path / "map.json"]
        for path, doc in zip(files, [bd.to_json(), cmap.to_json()]):
            path.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [
                cli.main(["dgn", "pipeline", "--n", "4"]),
                cli.main(["closure", "collapse", "--input", str(files[0]), "--map", str(files[1])]),
            ]
        assert codes == [0, 0] and out.getvalue().count("\n") == 2
        del results, k, fp, f, cmap, bd, cert, files, out
        found = gc.collect()
        saved = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        (gc.enable if was else gc.disable)()
    assert (found, saved) == (0, [])
