import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from trispcat.cli import main
from trispcat.nerve import nerve
from trispcat.symmetry import CatAut

from oracles import chain_poset, is_identity


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def chain3_file(tmp_path, chain3):
    return write(tmp_path / "chain3.json", chain3.category.to_json())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_category_ok(capsys, chain3_file):
    code, out = run(capsys, "validate", "--input", chain3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["kind"] == "category"


def test_validate_cycle_exits_one(capsys, tmp_path):
    payload = {
        "objects": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}],
        "morphisms": [
            {"id": 0, "src": 0, "tgt": 1, "label": "m"},
            {"id": 1, "src": 1, "tgt": 0, "label": "w"},
        ],
        "composition": [],
    }
    code, out = run(capsys, "validate", "--input", write(tmp_path / "c.json", payload))
    assert code == 1
    assert json.loads(out)["cycle"]


def test_validate_truncated_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"objects": [', encoding="utf-8")
    code, _ = run(capsys, "validate", "--input", str(bad))
    assert code == 2


def test_validate_non_utf8_input_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["validate", "--input", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {bad} is not valid JSON: ")


def test_validate_trisp_and_dot(capsys, tmp_path, chain3):
    t = nerve(chain3.category).trisp
    path = write(tmp_path / "t.json", t.to_json())
    code, out = run(capsys, "validate", "--input", path)
    assert code == 0 and json.loads(out)["kind"] == "trisp"
    code, out = run(capsys, "validate", "--input", path, "--format", "dot")
    assert code == 0 and "digraph" in out


def test_nerve_command_counts(capsys, chain3_file, tmp_path):
    out_path = tmp_path / "nerve.json"
    code, _ = run(capsys, "nerve", "--input", chain3_file, "--output", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert [layer["count"] for layer in doc["dims"]] == [3, 3, 1]


def test_nerve_deterministic_bytes(capsys, chain3_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "nerve", "--input", chain3_file, "--output", str(a))
    run(capsys, "nerve", "--input", chain3_file, "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_single_object_nerve_is_point(capsys, tmp_path):
    payload = {"objects": [{"id": 0, "label": "*"}], "morphisms": [], "composition": []}
    code, out = run(capsys, "nerve", "--input", write(tmp_path / "pt.json", payload))
    assert code == 0
    assert json.loads(out)["dims"] == [{"count": 1}]


def test_quotient_category_command(capsys, tmp_path, triangle_boundary):
    p, action = triangle_boundary
    cat_file = write(tmp_path / "cat.json", p.category.to_json())
    g = action.generators[0]
    act_file = write(
        tmp_path / "act.json",
        {"generators": [{"objects": list(g.obj), "morphisms": list(g.mor)}]},
    )
    code, out = run(capsys, "quotient", "--input", cat_file, "--action", act_file)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["quotient"]["objects"]) == 2
    assert len(doc["quotient"]["morphisms"]) == 2
    assert doc["is_poset"] is False
    assert doc["canonical_map"]["surjective_by_dim"] == [True, True]


def test_quotient_trisp_command(capsys, tmp_path, double_filled):
    t, action, _psi = double_filled
    t_file = write(tmp_path / "t.json", t.to_json())
    g = next(g for g in action.elements if not is_identity(g))
    act_file = write(tmp_path / "act.json", {"generators": [{"dims": [list(p) for p in g.dims]}]})
    code, out = run(
        capsys, "quotient", "--input", t_file, "--action", act_file, "--mode", "trisp"
    )
    assert code == 0
    doc = json.loads(out)
    assert [layer["count"] for layer in doc["quotient"]["dims"]] == [3, 3, 1]
    assert doc["regular"] is True


def test_closure_verify_and_collapse(capsys, tmp_path):
    p = chain_poset(2)
    t = nerve(p.category).trisp
    t_file = write(tmp_path / "t.json", t.to_json())
    map_file = write(
        tmp_path / "m.json",
        {"blue": [1], "red": [0], "map": {"1": 0}, "convention": "min"},
    )
    code, out = run(capsys, "closure", "verify", "--input", t_file, "--map", map_file)
    assert code == 0 and json.loads(out)["ok"]
    code, out = run(capsys, "closure", "collapse", "--input", t_file, "--map", map_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] and doc["final_counts"] == [1]


def test_closure_push_command(capsys, tmp_path, two_edges_z2):
    _p, nv, _cat, tact, cmap = two_edges_z2
    t_file = write(tmp_path / "t.json", nv.trisp.to_json())
    map_file = write(tmp_path / "m.json", cmap.to_json())
    g = next(g for g in tact.elements if not is_identity(g))
    act_file = write(tmp_path / "act.json", {"generators": [{"dims": [list(p) for p in g.dims]}]})
    code, out = run(
        capsys, "closure", "push", "--input", t_file, "--map", map_file, "--action", act_file
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["verify"]["ok"]


def test_closure_push_rejects_an_irregular_action(capsys, tmp_path):
    # the swap of the two edges of a digon identifies its two vertices
    digon = {"dims": [{"count": 2}, {"count": 2, "bnd": [[1, 0], [0, 1]]}]}
    t_file = write(tmp_path / "t.json", digon)
    map_file = write(tmp_path / "m.json", {"blue": [0], "red": [1], "map": {"0": 1}})
    act_file = write(tmp_path / "act.json", {"generators": [{"dims": [[1, 0], [1, 0]]}]})
    code, out = run(
        capsys, "closure", "push", "--input", t_file, "--map", map_file, "--action", act_file
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and "quotient-regularity fails" in doc["error"]


def test_closure_lift_documented_failure(capsys, tmp_path, double_filled):
    t, action, psi = double_filled
    t_file = write(tmp_path / "t.json", t.to_json())
    map_file = write(tmp_path / "m.json", psi.to_json())
    g = next(g for g in action.elements if not is_identity(g))
    act_file = write(tmp_path / "act.json", {"generators": [{"dims": [list(p) for p in g.dims]}]})
    code, out = run(
        capsys, "closure", "lift", "--input", t_file, "--map", map_file, "--action", act_file
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["lift_condition"]["holds"] is True
    assert doc["candidate_verify"]["ok"] is False
    assert doc["candidate_verify"]["failures"] == [[1, 0, 2]]


def test_dgn_build_and_pipeline(capsys, tmp_path):
    code, out = run(capsys, "dgn", "build", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert [layer["count"] for layer in doc["dims"]] == [6, 15, 4]
    code, out = run(capsys, "dgn", "pipeline", "--n", "3", "--pipeline", "61")
    assert code == 0 and json.loads(out)["ok"]
    code, out = run(capsys, "dgn", "pipeline", "--n", "4", "--pipeline", "62")
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_is_input_error(capsys, tmp_path, where):
    path = tmp_path / "missing" / "out.json" if where == "missing directory" else tmp_path
    assert main(["dgn", "build", "--n", "3", "--output", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {path}: ")


def test_unknown_pipeline_is_input_error(capsys):
    code, _ = run(capsys, "dgn", "pipeline", "--n", "4", "--pipeline", "99")
    assert code == 2


def test_pipeline_61_refuses_n6_before_building(capsys):
    assert main(["dgn", "pipeline", "--n", "6", "--pipeline", "61"]) == 2
    assert "pipeline 61 runs for n <= 5" in capsys.readouterr().err


def test_pipeline_dot_format_is_input_error(capsys):
    assert main(["dgn", "pipeline", "--n", "3", "--format", "dot"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: dgn pipeline has no dot format\n"


def test_build_with_pipeline_is_input_error(capsys):
    assert main(["dgn", "build", "--n", "3", "--pipeline", "62"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: dgn build takes no --pipeline\n"


def test_closure_verify_and_collapse_reject_an_action(capsys, tmp_path):
    t_file = write(tmp_path / "t.json", nerve(chain_poset(2).category).trisp.to_json())
    map_file = write(tmp_path / "m.json", {"blue": [1], "red": [0], "map": {"1": 0}})
    action_file = write(tmp_path / "a.json", {"generators": []})
    for verb in ("verify", "collapse"):
        argv = ["closure", verb, "--input", t_file, "--map", map_file, "--action", action_file]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: closure {verb} takes no --action\n"


def test_counterexample_script_prints_operator_tuples():
    root = os.path.join(os.path.dirname(__file__), "..")
    out = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "find_operator_counterexamples.py"),
         "--max-n", "3"],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "poset [(0, 1)]  operator (0, 0, 0)"


def test_nerve_of_partition_poset_file(capsys, tmp_path):
    from trispcat.graphs import partition_poset

    pp = partition_poset(4)
    path = write(tmp_path / "pp.json", pp.category.to_json())
    code, out = run(capsys, "nerve", "--input", path)
    assert code == 0
    assert json.loads(out)["dims"][0]["count"] == 13


def test_quotient_of_dgn4_face_poset(capsys, tmp_path, dgn4_bundle):
    fp, act = dgn4_bundle["fp"], dgn4_bundle["act"]
    cat_file = write(tmp_path / "fp.json", fp.category.to_json())
    act_file = write(
        tmp_path / "act.json",
        {
            "generators": [
                {"objects": list(g.obj), "morphisms": list(g.mor)} for g in act.generators
            ]
        },
    )
    code, out = run(capsys, "quotient", "--input", cat_file, "--action", act_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["canonical_map"]["vertex_bijective"] is True
    assert all(doc["canonical_map"]["surjective_by_dim"])


_CATEGORY = {"objects": [{"id": 0}, {"id": 1}]}
_POINT = {"dims": [{"count": 1}]}
_EDGE = {"dims": [{"count": 2}, {"count": 1, "bnd": [[1, 0]]}]}


@pytest.mark.parametrize(
    "argv, docs",
    [
        (["validate"], [{"dims": [{"count": "a"}]}]),
        (["validate"], [{"dims": [{"count": 2}, {"count": 1, "bnd": [5]}]}]),
        (["validate"], [{**_CATEGORY, "morphisms": [{"id": 0, "src": "0", "tgt": 1}]}]),
        (["validate"], [{**_CATEGORY, "morphisms": [{"id": 0, "tgt": 1}]}]),
        (["closure", "verify"], [_POINT, {"blue": [], "red": [0], "map": {"x": 0}}]),
        (["quotient"], [{**_CATEGORY, "morphisms": []}, {"generators": [3]}]),
        (["validate"], [{"dims": [{"count": 2.7}, {"count": 1, "bnd": [[1.9, 0]]}]}]),
        (["validate"], [{**_CATEGORY, "morphisms": [{"id": 0, "src": 0.0, "tgt": 1}]}]),
        (["closure", "verify"], [_EDGE, {"blue": [1.0], "red": [0], "map": {"1": 0.0}}]),
        (
            ["quotient"],
            [
                {**_CATEGORY, "morphisms": []},
                {"generators": [{"objects": [1.0, 0.0], "morphisms": []}]},
            ],
        ),
        (["validate"], [{"dims": [{"count": 2}, {"count": 0, "bnd": [[1, 0]]}]}]),
        (
            ["closure", "verify"],
            [
                {"dims": [{"count": 11}, {"count": 1, "bnd": [[10, 0]]}]},
                {"blue": [10], "red": list(range(10)), "map": {"1_0": 0}},
            ],
        ),
        (["closure", "verify"], [_EDGE, {"blue": [1], "red": [0], "map": {" 1": 0}}]),
        (["closure", "verify"], [_EDGE, {"blue": [1], "red": [0], "map": {"+1": 0}}]),
    ],
)
def test_malformed_documents_exit_two(capsys, tmp_path, argv, docs):
    files = [write(tmp_path / f"doc{i}.json", doc) for i, doc in enumerate(docs)]
    flags = ["--input", "--map" if argv[0] == "closure" else "--action"]
    code = main(argv + [arg for pair in zip(flags, files) for arg in pair])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and "Traceback" not in err


def test_quotient_checks_the_input_category(capsys, tmp_path):
    # 0 -> 1 -> 2 with no composite: composable but not a category
    path = write(tmp_path / "c.json", {**_path_category(3), "composition": []})
    action = write(tmp_path / "a.json", {"generators": []})
    code = main(["quotient", "--input", path, "--action", action])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["error"] == "input category invalid" and doc["missing_compositions"] == [[0, 1]]


def _path_category(n, closed=False):
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    return {
        "objects": [{"id": i} for i in range(n)],
        "morphisms": [{"id": m, "src": a, "tgt": b} for m, (a, b) in enumerate(edges)],
    }


def test_validate_deep_path_has_no_recursion_limit(capsys, tmp_path):
    # no composition entries, so the path is acyclic but not a category
    path = write(tmp_path / "p.json", _path_category(1500))
    code, out = run(capsys, "validate", "--input", path)
    assert code == 1
    assert json.loads(out)["acyclic"] is True


def test_validate_deep_cycle_has_no_recursion_limit(capsys, tmp_path):
    path = write(tmp_path / "c.json", _path_category(1500, closed=True))
    code, out = run(capsys, "validate", "--input", path)
    assert code == 1
    assert json.loads(out)["cycle"] == list(range(1500))


@pytest.mark.parametrize("variant", ["61", "62"])
def test_pipeline_certificates_survive_optimize(capsys, variant):
    # the certificate checks must not rest on `assert`, which `python -O` strips
    argv = ["dgn", "pipeline", "--n", "4", "--pipeline", variant]
    code, out = run(capsys, *argv)
    assert code == 0
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "trispcat.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert optimized.returncode == 0, optimized.stderr
    assert json.loads(optimized.stdout)["certificates"] == json.loads(out)["certificates"]


def test_soundness_failure_exits_one_without_traceback(capsys, tmp_path, monkeypatch):
    from trispcat import closure
    from trispcat.errors import SoundnessError

    def unsound(*_args, **_kwargs):
        raise SoundnessError("final subtrisp is not the red subtrisp")

    monkeypatch.setattr(closure, "collapse", unsound)
    t_file = write(tmp_path / "t.json", nerve(chain_poset(2).category).trisp.to_json())
    map_file = write(tmp_path / "m.json", {"blue": [1], "red": [0], "map": {"1": 0}})
    code = main(["closure", "collapse", "--input", t_file, "--map", map_file])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "failed: final subtrisp is not the red subtrisp\n"
    assert "Traceback" not in captured.err


# sha256 of the `certificates` of `dgn pipeline`, serialised with sorted keys and no spaces
CERTIFICATE_SHA256 = {
    ("61", 3): "a30f987a8c9aab844c1ba6927838f87b9aebc73bd54209ebc469fb0f14c00376",
    ("61", 4): "e03a5d6fbbc46a456dd10260b729c59d2e134c26fc6f55ecaaa3c61822ad2f61",
    ("61", 5): "568161f668ea32232dd4c106bb8a2ac3383da4c6743ccce2591f61800b3cf4f0",
    ("62", 3): "cb68daeeabb5c6f750a3d1f2b13661a9cd88bbed9f3aef7b64434f7a51419cd8",
    ("62", 4): "e15a715ad3d03ef09930d2f4fc0d3f9af5d41857150806e9bed889445a67918a",
    ("62", 5): "0e82ad39bf3f4341f426a7879fe107a5bb15170d53eb0287fe967dd9316260d2",
}


@pytest.mark.parametrize("variant, n", sorted(CERTIFICATE_SHA256))
def test_pipeline_certificates_are_pinned(capsys, variant, n):
    code, out = run(capsys, "dgn", "pipeline", "--n", str(n), "--pipeline", variant)
    assert code == 0
    certs = json.dumps(json.loads(out)["certificates"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(certs.encode()).hexdigest() == CERTIFICATE_SHA256[(variant, n)]


@pytest.mark.slow
def test_pipeline_62_n6_is_pinned():
    # a child process, so that the run's 1.2 GB is handed back when it exits
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    run62 = subprocess.run(
        [sys.executable, "-m", "trispcat.cli", "dgn", "pipeline", "--n", "6", "--pipeline", "62"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run62.returncode == 0, run62.stderr
    report = json.loads(run62.stdout)
    certs = json.dumps(report["certificates"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(certs.encode()).hexdigest() == (
        "6854b8c2bd8a1d2513cb76facd9ccdaa52e1e11b7e65688dfd42778e3e597e8d"
    )
    assert len(report["certificates"]["collapse"]) == 45_068
    stages = {s["name"]: s["info"] for s in report["stages"]}
    assert stages["quotient_category"]["nerve_counts"] == [
        43, 462, 2451, 7874, 16543, 23245, 21650, 12830, 4382, 657
    ]


def _quotient_documents():
    """Valid `quotient` inputs: a category and a trisp, each with a generating action."""
    from trispcat.accat import poset_from_relation

    hexagon = poset_from_relation(
        ["v0", "v1", "v2", "e0", "e1", "e2"],
        [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5)],
    )
    rotation = CatAut.from_poset(hexagon, (1, 2, 0, 4, 5, 3))
    rotate = {"objects": list(rotation.obj), "morphisms": list(rotation.mor)}
    return [
        ("category", hexagon.category.to_json(), {"generators": [rotate]}),
        # no generators: a mutated category reaches validation and the quotient
        ("category", hexagon.category.to_json(), {"generators": []}),
        ("category", chain_poset(4).category.to_json(), {"generators": []}),
        ("trisp", _FILLED, _FILLED_SWAP),
        ("category", _EMPTY_CATEGORY, {"generators": []}),
    ]


_FUZZ_VALUES = [None, True, False, -1, 0, 1, 2, 5, 1.5, "0", "x", [], [0], [[1, 0]], {}, {"id": 0}]
_EMPTY_CATEGORY = {"objects": [], "morphisms": []}
_EMPTY_TRISP = {"dims": []}
_EMPTY_MAP = {"blue": [], "red": [], "map": {}}
_FILLED = {
    "dims": [
        {"count": 3},
        {"count": 3, "bnd": [[1, 0], [2, 0], [2, 1]]},
        {"count": 2, "bnd": [[2, 1, 0], [2, 1, 0]]},
    ]
}
_FILLED_SWAP = {"generators": [{"dims": [[0, 1, 2], [0, 1, 2], [1, 0]]}]}
_TWO_EDGES = {"dims": [{"count": 4}, {"count": 2, "bnd": [[1, 0], [3, 2]]}]}
_TWO_EDGES_MAP = {"blue": [1, 3], "red": [0, 2], "map": {"1": 0, "3": 2}, "convention": "min"}
_TWO_EDGES_SWAP = {"generators": [{"dims": [[2, 3, 0, 1], [1, 0]]}]}


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _retarget(doc, data):
    """Point one morphism at another object, within range."""
    objects, morphisms = doc.get("objects"), doc.get("morphisms")
    if isinstance(objects, list) and objects and isinstance(morphisms, list) and morphisms:
        m = data.draw(st.sampled_from(morphisms))
        if isinstance(m, dict):
            end = data.draw(st.sampled_from(["src", "tgt"]))
            m[end] = data.draw(st.integers(min_value=0, max_value=len(objects) - 1))


def _drop_composite(doc, data):
    """Delete one entry of the composition table."""
    comp = doc.get("composition")
    if isinstance(comp, list) and comp:
        del comp[data.draw(st.integers(min_value=0, max_value=len(comp) - 1))]


def _swap_faces(doc, data):
    """Swap two entries of one boundary row."""
    layers = doc.get("dims") if isinstance(doc.get("dims"), list) else []
    rows = [
        row
        for layer in layers
        if isinstance(layer, dict) and isinstance(layer.get("bnd"), list)
        for row in layer["bnd"]
        if isinstance(row, list) and len(row) > 1
    ]
    if rows:
        row = data.draw(st.sampled_from(rows))
        positions = st.sampled_from(range(len(row)))
        i, j = data.draw(st.lists(positions, min_size=2, max_size=2, unique=True))
        row[i], row[j] = row[j], row[i]


# mutations that keep a document well formed, so that its checks get to fail
_WELL_FORMED = {"retarget": _retarget, "drop-composite": _drop_composite, "swap-faces": _swap_faces}


def _mutate(doc, data):
    """Renumber, replace, delete or duplicate one to three nodes, or mutate them well formed."""
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        well_formed = data.draw(st.sampled_from([None, *_WELL_FORMED]))
        if well_formed is not None:
            if isinstance(doc, dict):
                _WELL_FORMED[well_formed](doc, data)
            continue
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_VALUES)))
        if not path:
            doc = value
            continue
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        key = path[-1]
        how = data.draw(st.sampled_from(["renumber", "replace", "delete", "duplicate"]))
        if how == "renumber" and type(parent[key]) is int:
            parent[key] = data.draw(st.integers(min_value=0, max_value=6))
        elif how == "delete":
            del parent[key]
        elif how == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(range(len(_quotient_documents()))),
    st.sampled_from(["input", "action", "both"]),
    st.booleans(),
    st.data(),
)
def test_quotient_exit_codes_hold_on_mutated_documents(which, target, with_mode, data):
    kind, doc, action = copy.deepcopy(_quotient_documents()[which])
    if target != "action":
        doc = _mutate(doc, data)
    if target != "input":
        action = _mutate(action, data)
    argv = ["quotient", "--mode", kind] if with_mode else ["quotient"]
    with tempfile.TemporaryDirectory() as tmp:
        _run_documents(argv, [doc, action], tmp)


def _check_exit_contract(argv):
    """Exit 0, 1 or 2 with no traceback; 2 says `input error:`, 1 names its witness."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("input error:")
    if code == 1 and not err.getvalue().startswith("failed:"):
        assert isinstance(json.loads(out.getvalue()), dict)
    return code


_FLAGS = {
    "validate": ["--input"],
    "nerve": ["--input"],
    "closure": ["--input", "--map", "--action"],
    "quotient": ["--input", "--action"],
}

# inputs of validate, nerve and closure, each a command and its documents in flag order
_CLI_DOCUMENTS = [
    (["validate"], [_quotient_documents()[0][1]]),
    (["validate"], [_FILLED]),
    (["validate"], [_EMPTY_CATEGORY]),
    (["validate"], [_EMPTY_TRISP]),
    (["nerve"], [chain_poset(4).category.to_json()]),
    (["nerve"], [_EMPTY_CATEGORY]),
    (["closure", "verify"], [_TWO_EDGES, _TWO_EDGES_MAP]),
    (["closure", "collapse"], [_TWO_EDGES, _TWO_EDGES_MAP]),
    (["closure", "push"], [_TWO_EDGES, _TWO_EDGES_MAP, _TWO_EDGES_SWAP]),
    (["closure", "lift"], [_FILLED, {"blue": [0], "red": [1, 2], "map": {"0": 2}}, _FILLED_SWAP]),
    (["closure", "verify"], [_EMPTY_TRISP, _EMPTY_MAP]),
    (["closure", "collapse"], [_EMPTY_TRISP, _EMPTY_MAP]),
    (["closure", "push"], [_EMPTY_TRISP, _EMPTY_MAP, {"generators": []}]),
    (["closure", "push"], [_EMPTY_TRISP, _EMPTY_MAP, {"generators": [{"dims": []}]}]),
    (["closure", "lift"], [_EMPTY_TRISP, _EMPTY_MAP, {"generators": []}]),
    (["closure", "lift"], [_EMPTY_TRISP, _EMPTY_MAP, {"generators": [{"dims": []}]}]),
]


def _run_documents(argv, docs, tmp):
    paths = [os.path.join(tmp, f"doc{i}.json") for i in range(len(docs))]
    for path, payload in zip(paths, docs):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return _check_exit_contract(argv + [a for pair in zip(_FLAGS[argv[0]], paths) for a in pair])


@pytest.mark.parametrize(
    "argv, docs",
    [(["quotient"], [_EMPTY_CATEGORY, {"generators": []}])]
    + [(argv, docs) for argv, docs in _CLI_DOCUMENTS if docs[0] in (_EMPTY_CATEGORY, _EMPTY_TRISP)],
)
def test_empty_documents_exit_zero(tmp_path, argv, docs):
    assert _run_documents(argv, docs, str(tmp_path)) == 0


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(_CLI_DOCUMENTS))), st.data())
def test_exit_codes_hold_on_mutated_documents(which, data):
    argv, docs = copy.deepcopy(_CLI_DOCUMENTS[which])
    i = data.draw(st.sampled_from(range(len(docs))))
    docs[i] = _mutate(docs[i], data)
    with tempfile.TemporaryDirectory() as tmp:
        _run_documents(argv, docs, tmp)
