import pytest
from hypothesis import given, settings, strategies as st

from trispcat.accat import (
    as_poset,
    check_closure_operator,
    poset_from_relation,
)
from trispcat.closure import (
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
    report = check_closure_operator(p, f)
    assert report.is_closure_operator and report.direction() is None
    with pytest.raises(PreconditionError):
        induced_trisp_closure_map(p, f)


def test_matching_on_three_chain_descending():
    # r < m < b with b -> m: pairs (b, {m,b}) and ({r,b}, {r,m,b})
    p = chain_poset(3)
    nv = nerve(p.category)
    cmap = induced_trisp_closure_map(p, (0, 1, 1))
    matching = closure_matching(nv.trisp, cmap, verify_trisp_closure_map(nv.trisp, cmap))
    pair_tuples = {
        (nv.trisp.vertex_tuple(*a), nv.trisp.vertex_tuple(*b)) for a, b in matching.pairs
    }
    assert pair_tuples == {((2,), (1, 2)), ((0, 2), (0, 1, 2))}
    matched = {x for pair in matching.pairs for x in pair}
    unmatched = {
        vt for d in range(nv.trisp.dim + 1) for s, vt in enumerate(nv.trisp.vertex_tuples(d))
        if (d, s) not in matched
    }
    assert unmatched == {(0,), (1,), (0, 1)}


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
    from trispcat.closure import Matching

    ok, cycle = check_matching_acyclic(t, Matching(()))
    assert ok and cycle is None


def test_cyclic_matching_detected():
    # hollow triangle with every vertex matched to the edge it does not start
    from trispcat.closure import Matching
    from trispcat.trisp import simplicial_from_faces

    t, _, index = simplicial_from_faces(3, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    pairs = (
        ((0, 0), (1, index[frozenset({0, 1})][1])),
        ((0, 1), (1, index[frozenset({1, 2})][1])),
        ((0, 2), (1, index[frozenset({0, 2})][1])),
    )
    ok, cycle = check_matching_acyclic(t, Matching(pairs))
    assert not ok and cycle


def test_deep_acyclic_matching_has_no_recursion_limit():
    # vertex i is matched up to edge i, whose other end is vertex i + 1
    from trispcat.closure import Matching

    t = Trisp([1500, 1499], [[(i + 1, i) for i in range(1499)]])
    pairs = tuple(((0, i), (1, i)) for i in range(1499))
    assert check_matching_acyclic(t, Matching(pairs)) == (True, None)


def test_collapse_rejects_stuck_matching():
    from trispcat.closure import Matching
    from trispcat.trisp import simplicial_from_faces

    t, _, index = simplicial_from_faces(3, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    pairs = (
        ((0, 0), (1, index[frozenset({0, 1})][1])),
        ((0, 1), (1, index[frozenset({1, 2})][1])),
        ((0, 2), (1, index[frozenset({0, 2})][1])),
    )
    with pytest.raises(AssertionError, match=r"cycle: \[\("):
        collapse(t, Matching(pairs), ())


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


def test_collapse_rejects_a_removed_coface_under_optimize():
    # two vertices matched to one edge: the second pair must raise, even under `python -O`
    import os
    import subprocess
    import sys

    code = (
        "from trispcat.closure import Matching, collapse\n"
        "from trispcat.trisp import Trisp\n"
        "t = Trisp((3, 2), [[(1, 0), (2, 1)]])\n"
        "try:\n"
        "    collapse(t, Matching((((0, 0), (1, 0)), ((0, 1), (1, 0)))), {2})\n"
        "except AssertionError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
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
    assert check_closure_operator(op, f_op).direction() == "ascending"
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
            report = check_closure_operator(p, f)
            if report.direction() is None:
                continue
            cmap = induced_trisp_closure_map(p, f, report)
            assert verify_trisp_closure_map(nv.trisp, cmap).ok, (p.mor_of, f)


@settings(max_examples=30, deadline=None)
@given(posets(max_n=5), st.randoms(use_true_random=False))
def test_random_descending_operators_collapse(p, rng):
    maps = monotone_idempotent_maps(p)
    rng.shuffle(maps)
    for f in maps[:6]:
        report = check_closure_operator(p, f)
        direction = report.direction()
        if direction is None:
            continue
        cmap = induced_trisp_closure_map(p, f, report)
        t = nerve(p.category).trisp
        cert = full_collapse_audit(t, cmap)
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
        if check_closure_operator(p, f).direction() is not None:
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
        kind, matching = _outcome(closure_matching, t, cmap, report)
        assert (kind, matching) == _outcome(oracles.closure_matching_oracle, t, cmap, report)
        if kind != "returned":
            assert not report.ok
            continue
        kind, cert = _collapse_outcome(collapse, t, matching, cmap.red)
        assert (kind, cert) == _collapse_outcome(oracles.collapse_oracle, t, matching, cmap.red)
        if kind != "returned":
            continue
        steps = list(cert[0])
        trials = [steps, steps + steps[:1]]
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
    ([((0, 0), (0, 1))], "step pair has wrong dimensions: (0, 0), (0, 1)"),
    ([((0, 0), (1, 1))], "(0, 0) is not a face of (1, 1)"),
    ([((0, 0), (1, 0)), ((0, 0), (1, 0))], "step removes absent simplex: (0, 0), (1, 0)"),
    ([((0, 1), (1, 1)), ((0, 0), (1, 0))], "face (0, 1) is not free (count 2)"),
]


def test_replay_rejects_malformed_and_unsound_steps():
    t = Trisp(*PATH)
    assert verify_collapse_sequence(t, [((0, 0), (1, 0)), ((0, 1), (1, 1))]) == {(0, 2)}
    for steps, message in REPLAY_REJECTIONS:
        with pytest.raises(SoundnessError) as info:
            verify_collapse_sequence(t, steps)
        assert str(info.value) == message


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
