import contextlib
import copy
import functools
import gc
import hashlib
import importlib
import io
import json
import operator
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from trispcat import equivariant
from trispcat.cli import COMMANDS, _parse_plain, build_parser, main
from trispcat.closure import full_collapse_audit, induced_trisp_closure_map
from trispcat.nerve import nerve
from trispcat.symmetry import close_group, quotient_trisp

from oracles import chain_poset, explicit_action, is_identity


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


@pytest.mark.parametrize("argv", [["validate"], ["nerve"], ["closure", "collapse"]])
def test_deeply_nested_json_exits_two(capsys, tmp_path, argv):
    # json reads nested arrays by recursion, which 100,000 levels exhaust
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    flags = ["--input", str(deep)] + (["--map", str(deep)] if argv[0] == "closure" else [])
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {deep} nests too deeply to read\n"


def test_validate_trisp_and_dot(capsys, tmp_path, chain3):
    t = nerve(chain3.category).trisp
    path = write(tmp_path / "t.json", t.to_json())
    code, out = run(capsys, "validate", "--input", path)
    assert code == 0 and json.loads(out)["kind"] == "trisp"
    code, out = run(capsys, "validate", "--input", path, "--format", "dot")
    assert code == 0 and "digraph" in out


def test_validate_dot_escapes_labels(capsys, tmp_path):
    # a `"` inside a label, or a `\` at its end, must not close the DOT string
    objects = [{"id": 0, "label": 'a"b'}, {"id": 1, "label": "c\\"}]
    poset = {"objects": objects, "morphisms": [{"id": 0, "src": 0, "tgt": 1, "label": "m"}]}
    code, out = run(capsys, "validate", "--input", write(tmp_path / "p.json", poset),
                    "--format", "dot")
    assert code == 0
    assert out == 'digraph hasse {\n  n0 [label="a\\"b"];\n  n1 [label="c\\\\"];\n  n0 -> n1;\n}\n'
    parallel = {
        "objects": objects,
        "morphisms": [
            {"id": 0, "src": 0, "tgt": 1, "label": 'm"'},
            {"id": 1, "src": 0, "tgt": 1, "label": "n\\"},
        ],
    }
    code, out = run(capsys, "validate", "--input", write(tmp_path / "c.json", parallel),
                    "--format", "dot")
    assert code == 0
    assert out.splitlines()[1:5] == [
        '  n0 [label="a\\"b"];',
        '  n1 [label="c\\\\"];',
        '  n0 -> n1 [label="m\\""];',
        '  n0 -> n1 [label="n\\\\"];',
    ]


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
        {"generators": [{"objects": list(g.dims[0]), "morphisms": list(g.dims[1])}]},
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
    code, out = run(capsys, "quotient", "--input", t_file, "--action", act_file)
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


def test_collapse_certificate_is_one_line_with_sorted_keys(capsys, tmp_path):
    p = chain_poset(3)
    t = nerve(p.category).trisp
    cmap = induced_trisp_closure_map(p, (0, 0, 0))
    t_file = write(tmp_path / "t.json", t.to_json())
    map_file = write(tmp_path / "m.json", cmap.to_json())
    out_path = tmp_path / "cert.json"
    code, _ = run(
        capsys, "closure", "collapse", "--input", t_file, "--map", map_file,
        "--output", str(out_path),
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert len(text.splitlines()) == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    expected = {"verified": True, **full_collapse_audit(t, cmap).to_json()}
    assert json.loads(text) == json.loads(json.dumps(expected))
    assert expected["steps"]


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


def _count_calls(monkeypatch, names):
    """A counter of calls to each named function, wherever the package imported it."""
    from trispcat import closure, symmetry

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(equivariant, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (closure, symmetry, equivariant):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


_LIFT_CHECKS = (
    "check_lift_condition", "check_regular_action", "verify_trisp_closure_map", "check_equivariant",
)


def test_closure_lift_decides_each_hypothesis_once(capsys, monkeypatch, tmp_path, two_edges_z2):
    # psi verified on the quotient and the lift on the source; equivariance
    # and the push of the lift follow, as `lift_closure_map` proves
    _p, nv, _cat, tact, cmap = two_edges_z2
    psi = equivariant.push_closure_map(quotient_trisp(nv.trisp, tact), cmap)[0]
    t_file = write(tmp_path / "t.json", nv.trisp.to_json())
    map_file = write(tmp_path / "m.json", psi.to_json())
    gens = [{"dims": [list(p) for p in g.dims]} for g in tact.generators]
    act_file = write(tmp_path / "act.json", {"generators": gens})
    calls = _count_calls(monkeypatch, _LIFT_CHECKS)
    code, out = run(
        capsys, "closure", "lift", "--input", t_file, "--map", map_file, "--action", act_file
    )
    assert (code, json.loads(out)["map"]) == (0, json.loads(json.dumps(cmap.to_json())))
    assert calls == {
        "check_lift_condition": 1, "check_regular_action": 1,
        "verify_trisp_closure_map": 2, "check_equivariant": 0,
    }


def test_failing_closure_lift_checks_its_condition_once(
    capsys, monkeypatch, tmp_path, double_filled
):
    # the source is not simplicial; the forced candidate is built from the
    # one condition report and verified once
    t, _action, psi = double_filled
    t_file = write(tmp_path / "t.json", t.to_json())
    map_file = write(tmp_path / "m.json", psi.to_json())
    act_file = write(tmp_path / "act.json", _FILLED_SWAP)
    calls = _count_calls(monkeypatch, _LIFT_CHECKS)
    code, out = run(
        capsys, "closure", "lift", "--input", t_file, "--map", map_file, "--action", act_file
    )
    assert (code, json.loads(out)["candidate_verify"]["ok"]) == (1, False)
    assert calls == {
        "check_lift_condition": 1, "check_regular_action": 0,
        "verify_trisp_closure_map": 1, "check_equivariant": 0,
    }


def test_closure_lift_reports_a_lift_that_fails_upstairs(
    capsys, monkeypatch, tmp_path, double_filled
):
    # with the simpliciality check waved through, the double filling's forced
    # lift fails on the source; the report says so and shows the candidate
    t, _action, psi = double_filled
    monkeypatch.setattr(equivariant, "is_simplicial", lambda t: True)
    t_file = write(tmp_path / "t.json", t.to_json())
    map_file = write(tmp_path / "m.json", psi.to_json())
    act_file = write(tmp_path / "act.json", _FILLED_SWAP)
    code, out = run(
        capsys, "closure", "lift", "--input", t_file, "--map", map_file, "--action", act_file
    )
    doc = json.loads(out)
    assert (code, doc["ok"]) == (1, False)
    assert doc["error"] == "map does not verify upstairs: [(1, 0, 2)]"
    assert doc["candidate"] == {"blue": [0], "red": [1, 2], "map": {"0": 2}, "convention": "min"}
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


@pytest.mark.parametrize("alias", ["trisp", "category"])
def test_pipeline_takes_only_61_or_62(capsys, alias):
    assert main(["dgn", "pipeline", "--n", "3", "--pipeline", alias]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --pipeline: invalid choice: '{alias}'" in captured.err


def test_pipeline_61_refuses_n7_before_building(capsys, monkeypatch):
    from trispcat import graphs

    def build_dgn(n):
        raise AssertionError(f"DG_{n} was built")

    monkeypatch.setattr(graphs, "build_dgn", build_dgn)
    assert main(["dgn", "pipeline", "--n", "7", "--pipeline", "61"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: pipeline 61 runs for n <= 6, got 7\n"


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


@pytest.mark.parametrize("argv", [["--help"], ["closure", "--help"]])
def test_help_is_argparse_help(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: trispcat") and captured.err == ""


@pytest.mark.parametrize("argv", [[], ["frobnicate"]])
def test_no_command_or_an_unknown_one_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: trispcat") and captured.out == ""


def test_abbreviated_and_joined_options_still_parse(capsys, chain3_file):
    code, out = run(capsys, "validate", "--inp", chain3_file)
    assert code == 0 and json.loads(out)["kind"] == "category"
    code, out = run(capsys, "dgn", "pipeline", "--n=3")
    assert code == 0 and json.loads(out)["n"] == 3


def test_a_repeated_option_takes_its_last_value(capsys):
    code, out = run(capsys, "dgn", "pipeline", "--n", "3", "--pipeline", "61", "--pipeline", "62")
    assert code == 0 and json.loads(out)["variant"] == "quotient-category"


def _argparse_fields(argv):
    """The fields of argparse's namespace for `argv`, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


_ALL_FLAGS = sorted({flag for *_head, options in COMMANDS.values() for flag in options})
_ALL_VERBS = sorted({verb for *_head, verbs, _options in COMMANDS.values() for verb in verbs or []})
_VALUES = ["", "-", "-3", "05", "1_0", "²", "٣", " 7", "+4", "3", "x y", "in.json", "61", "62",
           "json", "dot", "svg", "--", "-h", "--help", *_ALL_VERBS]
_INTS = ["3", "05", "1_0", " 7", "+4", "٣", "²", "-3"]  # `int` refuses only "²"
_WORDS = st.one_of(
    st.sampled_from([*COMMANDS, *_ALL_FLAGS, *_VALUES]),
    st.sampled_from(_ALL_FLAGS).flatmap(lambda f: st.integers(3, len(f)).map(lambda k: f[:k])),
    st.text(max_size=3),
)


def _rarely(draw, strategy):
    """One draw from `strategy` a quarter of the time, else nothing."""
    return [draw(strategy)] if draw(st.integers(0, 3)) == 0 else []


@st.composite
def _command_lines(draw):
    """A command and verb, then options exact, abbreviated, `=`-joined or bare, with stray words."""
    command = draw(st.sampled_from([*COMMANDS, "dgnx", ""]))
    _handler, _text, verbs, options = COMMANDS.get(command, (None, "", None, {}))
    argv = [command]
    if verbs:
        argv.append(draw(st.sampled_from(verbs) if draw(st.integers(0, 3)) else _WORDS))
    flags = [flag for flag in draw(st.permutations(sorted(options))) if draw(st.integers(0, 3))]
    for flag in flags + _rarely(draw, st.sampled_from(_ALL_FLAGS)):
        spec = options.get(flag, {})
        likely = spec.get("choices") or (_INTS if "type" in spec else ["in.json"])
        value = draw(st.sampled_from(likely) if draw(st.integers(0, 3)) else _WORDS)
        how = draw(st.sampled_from(["exact"] * 6 + ["abbreviated", "joined", "bare"]))
        if how == "abbreviated":
            flag = flag[:draw(st.integers(3, len(flag)))]
        argv += {"joined": [f"{flag}={value}"], "bare": [flag]}.get(how, [flag, value])
    for word in _rarely(draw, _WORDS):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


@settings(max_examples=500, deadline=None)
@given(_command_lines())
@example(["dgn", "pipeline", "--n", "²"])  # a digit to `str.isdigit`, not to `int`
@example(["dgn", "pipeline", "--n", " 7", "--pipeline", "61"])  # argparse's `int` strips it
@example(["dgn", "build", "--n", "1_0", "--format", "dot", "--format", "json"])
@example(["closure", "build", "--input", "t.json", "--map", "m.json"])
@example(["validate", "--input", "-"])
@example(["validate", "--output", "out.json", "--input"])
def test_a_plain_line_parses_as_argparse_parses_it(argv):
    plain, fields = _parse_plain(argv), _argparse_fields(argv)
    assert plain is None or vars(plain) == fields


# every form the README and the benchmark run, with and without their optional options
_PLAIN_LINES = [
    ["validate", "--input", "in.json"],
    ["validate", "--input", "in.json", "--output", "out.json", "--format", "dot"],
    ["nerve", "--input", "category.json", "--output", "trisp.json", "--format", "json"],
    ["quotient", "--input", "in.json", "--action", "action.json"],
    ["quotient", "--input", "in.json", "--action", "action.json", "--output", "out.json"],
    *(["closure", verb, "--input", "trisp.json", "--map", "closure.json"]
      for verb in ["verify", "push", "lift", "collapse"]),
    ["closure", "push", "--input", "t.json", "--map", "m.json", "--action", "a.json",
     "--output", "out.json"],
    ["closure", "collapse", "--input", "t.json", "--map", "m.json", "--output", "cert.json"],
    ["dgn", "build", "--n", "4", "--format", "dot", "--output", "dg4.dot"],
    *(["dgn", "pipeline", "--n", n, "--pipeline", v] for n in "56" for v in ["61", "62"]),
    ["dgn", "pipeline", "--n", "5"],
]


@pytest.mark.parametrize("argv", _PLAIN_LINES, ids=" ".join)
def test_documented_and_benchmarked_lines_take_the_plain_path(argv):
    plain = _parse_plain(argv)
    assert plain is not None and vars(plain) == _argparse_fields(argv)


def test_closure_takes_no_convention_option(capsys, tmp_path):
    # the map document states its convention
    t_file = write(tmp_path / "t.json", nerve(chain_poset(2).category).trisp.to_json())
    map_file = write(tmp_path / "m.json", {"blue": [1], "red": [0], "map": {"1": 0}})
    argv = ["closure", "verify", "--input", t_file, "--map", map_file, "--convention", "max"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --convention max" in captured.err


def test_quotient_takes_no_mode_option(capsys, tmp_path, double_filled):
    # the kind of the input is read off the document
    t, action, _psi = double_filled
    t_file = write(tmp_path / "t.json", t.to_json())
    generators = [{"dims": [list(p) for p in g.dims]} for g in action.generators]
    act_file = write(tmp_path / "act.json", {"generators": generators})
    argv = ["quotient", "--input", t_file, "--action", act_file, "--mode", "trisp"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --mode trisp" in captured.err


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


def _run_under_1gib(argv):
    """The CLI run in a child process whose address space is capped at 1 GiB."""
    import resource

    def limit_memory():  # a regression fails with MemoryError instead of filling the machine
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run(
        [sys.executable, "-m", "trispcat.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit_memory,
        capture_output=True, text=True, timeout=120,
    )


def _huge_count_files(tmp_path):
    t_file = write(tmp_path / "t.json", {"dims": [{"count": 100_000_000_000}]})
    map_file = write(tmp_path / "m.json", {"blue": [0], "red": [1, 2], "map": {"0": 2}})
    action_file = write(tmp_path / "a.json", {"generators": []})
    return t_file, map_file, action_file


def test_closure_verify_collapse_and_push_refuse_a_huge_vertex_count_without_allocating(
    tmp_path,
):
    t_file, map_file, action_file = _huge_count_files(tmp_path)
    # push checks the map before it builds the action, whose arrays hold every vertex
    for verb, extra in (("verify", []), ("collapse", []), ("push", ["--action", action_file])):
        child = _run_under_1gib(["closure", verb, "--input", t_file, "--map", map_file, *extra])
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == "input error: blue and red must partition the vertex set\n"


def test_lift_and_quotient_exit_2_on_a_vertex_count_too_large_to_hold(tmp_path):
    # both build the action's arrays on every vertex before any check can refuse
    t_file, map_file, action_file = _huge_count_files(tmp_path)
    for argv in (
        ["closure", "lift", "--input", t_file, "--map", map_file, "--action", action_file],
        ["quotient", "--input", t_file, "--action", action_file],
    ):
        child = _run_under_1gib(argv)
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == "input error: the input is too large to hold in memory\n"


def test_counterexample_script_prints_operator_tuples():
    root = os.path.join(os.path.dirname(__file__), "..")

    def search(*args):
        out = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "find_operator_counterexamples.py"),
             *args],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        return out

    assert search("--max-n", "3").stdout.splitlines()[0] == "poset [(0, 1)]  operator (0, 0, 0)"
    # every poset on at most 4 elements, so the count pins which operators are one-sided
    assert search("--max-n", "4", "--limit", "1000").stderr == "total hits: 223\n"


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
    gens = [g.dims for g in explicit_action(fp.poset, act).generators]
    act_file = write(
        tmp_path / "act.json",
        {"generators": [{"objects": list(obj), "morphisms": list(mor)} for obj, mor in gens]},
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


class _CollectorProbe(io.StringIO):
    """An output stream that notes, at every write, whether the cyclic collector runs."""

    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def write(self, text):
        self.seen.append(gc.isenabled())
        return super().write(text)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("outcome", ["succeeds", "fails", "input-error", "usage-error"])
@pytest.mark.parametrize("command", ["pipeline", "validate"])
def test_every_command_pauses_the_collector_and_restores_it(
    command, outcome, enabled, tmp_path, monkeypatch
):
    # the pause is taken once, in `main`: every write a command makes, its
    # usage errors included, and every stage runs with the collector off
    from trispcat import graphs

    seen = []
    if command == "pipeline":
        build_dgn = graphs.build_dgn

        def noted_build(n):
            seen.append(gc.isenabled())
            return build_dgn(n)

        monkeypatch.setattr(graphs, "build_dgn", noted_build)
        argv = ["dgn", "pipeline", "--n", "3"]
        if outcome == "fails":
            monkeypatch.setattr(graphs, "search_collapse_to_point", lambda t: None)
        elif outcome == "input-error":
            argv += ["--output", str(tmp_path / "missing" / "report.json")]
        elif outcome == "usage-error":
            argv[-1] = "three"
    else:
        cycle = {
            "objects": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}],
            "morphisms": [
                {"id": 0, "src": 0, "tgt": 1, "label": "m"},
                {"id": 1, "src": 1, "tgt": 0, "label": "w"},
            ],
            "composition": [],
        }
        path = tmp_path / "input.json"
        if outcome == "input-error":
            path.write_text('{"objects": [', encoding="utf-8")
        else:
            write(path, cycle if outcome == "fails" else chain_poset(3).category.to_json())
        argv = ["validate", "--input", str(path)]
        if outcome == "usage-error":
            argv += ["--format", "svg"]
    out, err = _CollectorProbe(seen), _CollectorProbe(seen)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    assert seen and not any(seen)
    assert code == {"succeeds": 0, "fails": 1, "input-error": 2, "usage-error": 2}[outcome]
    # each case ends on the path it is named for
    if outcome == "succeeds":
        assert json.loads(out.getvalue())["ok"] and err.getvalue() == ""
    elif outcome == "fails" and command == "pipeline":
        assert err.getvalue().startswith("failed: stage 'endpoint_search'")
    elif outcome == "fails":
        assert json.loads(out.getvalue())["cycle"] and err.getvalue() == ""
    elif outcome == "input-error":
        assert err.getvalue().startswith("input error: ")
    else:
        assert "usage: trispcat" in err.getvalue() and out.getvalue() == ""
    if command == "pipeline" and outcome != "usage-error":
        assert len(seen) > 1  # the stage probe and the output


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


def _certificate_sha256_under_hash_seed(variant, n, seed):
    # string hashing varies with PYTHONHASHSEED; no certificate may follow it
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    argv = ["dgn", "pipeline", "--n", str(n), "--pipeline", variant]
    child = subprocess.run(
        [sys.executable, "-m", "trispcat.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert child.returncode == 0, child.stderr
    certs = json.loads(child.stdout)["certificates"]
    certs = json.dumps(certs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(certs.encode()).hexdigest()


@pytest.mark.parametrize("seed", ["0", "12345"])
@pytest.mark.parametrize("variant", ["61", "62"])
def test_pipeline_certificates_do_not_depend_on_the_hash_seed(variant, seed):
    sha = _certificate_sha256_under_hash_seed(variant, 4, seed)
    assert sha == CERTIFICATE_SHA256[(variant, 4)]


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_pipeline_61_n5_certificates_do_not_depend_on_the_hash_seed(seed):
    # the orbit trisp is built from dicts of chains and minima over group elements
    assert _certificate_sha256_under_hash_seed("61", 5, seed) == CERTIFICATE_SHA256[("61", 5)]


@pytest.mark.parametrize("n", [4, 5])
def test_pipeline_61_builds_no_subdivision(capsys, monkeypatch, n):
    from trispcat import equivariant, graphs, symmetry

    nerve_module = importlib.import_module("trispcat.nerve")

    def forbidden(*_args, **_kwargs):
        raise AssertionError("pipeline 61 reached the subdivision")

    for module in (graphs, symmetry, nerve_module):
        monkeypatch.setattr(module, "nerve", forbidden, raising=False)
    for module in (graphs, symmetry):
        monkeypatch.setattr(module, "induced_trisp_action", forbidden, raising=False)
        monkeypatch.setattr(module, "quotient_trisp", forbidden, raising=False)
    for module in (graphs, equivariant):
        monkeypatch.setattr(module, "push_closure_map", forbidden, raising=False)
    code, out = run(capsys, "dgn", "pipeline", "--n", str(n), "--pipeline", "61")
    assert code == 0
    certs = json.dumps(json.loads(out)["certificates"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(certs.encode()).hexdigest() == CERTIFICATE_SHA256[("61", n)]


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("variant", ["61", "62"])
def test_pipelines_close_no_group_of_automorphisms(capsys, monkeypatch, variant, n):
    # S_n is closed once, on n points, as elements of one level; pipeline 61
    # lifts them to the posets, and no element of two levels is multiplied
    from trispcat import symmetry

    product = symmetry.Aut.__mul__

    def one_level_only(g, h):
        if len(g.dims) > 1:
            raise AssertionError("a group of category automorphisms was closed")
        return product(g, h)

    monkeypatch.setattr(symmetry.Aut, "__mul__", one_level_only)
    code, out = run(capsys, "dgn", "pipeline", "--n", str(n), "--pipeline", variant)
    assert code == 0
    certs = json.dumps(json.loads(out)["certificates"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(certs.encode()).hexdigest() == CERTIFICATE_SHA256[(variant, n)]


@pytest.mark.parametrize("variant", ["61", "62"])
def test_pipelines_check_the_order_of_the_symmetric_group(capsys, monkeypatch, variant):
    from trispcat import graphs

    transposition = (1, 0, 2, 3, 4)
    monkeypatch.setattr(graphs, "sn_generator_perms", lambda n: (transposition, transposition))
    code = main(["dgn", "pipeline", "--n", "5", "--pipeline", variant])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "failed: the S_5 generators generate a group of order 2\n"


@pytest.mark.parametrize("n, witness", [(4, (0, 10)), (5, (0, 16))])
def test_pipeline_61_fails_when_the_image_is_not_the_partition_order(capsys, monkeypatch, n, witness):
    from trispcat import graphs

    partition_poset = graphs.partition_poset
    monkeypatch.setattr(
        graphs, "partition_poset", lambda m, fine_on_top=True: partition_poset(m, not fine_on_top)
    )
    code = main(["dgn", "pipeline", "--n", str(n), "--pipeline", "61"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"failed: stage 'closure_operator': image not isomorphic to partitions at {witness}\n"
    )


def _pipeline_61_n4_failure(capsys):
    code = main(["dgn", "pipeline", "--n", "4", "--pipeline", "61"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    return captured.err


def test_pipeline_61_fails_its_quotient_when_an_orbit_is_miscounted(capsys, monkeypatch):
    from trispcat import graphs
    from trispcat.nerve import chain_counts

    monkeypatch.setattr(graphs, "chain_counts", lambda c: chain_counts(c)[:-1] + [25])
    assert _pipeline_61_n4_failure(capsys) == (
        "failed: stage 'quotient': the orbits hold [25, 54, 24] chains, "
        "the subdivision [25, 54, 25]\n"
    )


def test_pipeline_61_refuses_an_irregular_quotient_in_its_verification(capsys, monkeypatch):
    # the orbit nerve is regular by construction, so its one regularity check
    # is the closure-map verification's, which names the first irregular orbit
    from trispcat import closure

    monkeypatch.setattr(closure, "regularity_violations", lambda t: [(1, 2)])
    assert _pipeline_61_n4_failure(capsys) == "failed: trisp is not regular at (1, 2)\n"


def test_pipeline_61_fails_when_the_pushed_map_does_not_verify(capsys, monkeypatch):
    from trispcat import equivariant
    from trispcat.closure import ClosureVerifyReport

    failing = ClosureVerifyReport([(1, 0, 2)], 0, 0, [], [])
    monkeypatch.setattr(equivariant, "verify_trisp_closure_map", lambda t, cmap: failing)
    assert _pipeline_61_n4_failure(capsys) == (
        "failed: stage 'induced_closure_map': pushed map failed verification: [(1, 0, 2)]\n"
    )


def test_pipeline_61_fails_when_the_operator_is_not_ascending(capsys, monkeypatch):
    # pipeline 61 pushes the map with convention max, which needs an ascending operator
    from trispcat import graphs

    witnesses = {"monotone": [], "idempotent": [], "descending": [], "ascending": [3]}
    monkeypatch.setattr(graphs, "check_closure_operator", lambda p, f: witnesses)
    assert _pipeline_61_n4_failure(capsys) == (
        "failed: stage 'closure_operator': "
        "{'monotone': [], 'idempotent': [], 'descending': [], 'ascending': [3]}\n"
    )


def test_pipeline_61_fails_when_the_collapse_ends_off_the_partition_quotient(capsys, monkeypatch):
    from trispcat import graphs

    mismatch = (None, ("counts", (3, 2), (3, 3)))
    monkeypatch.setattr(graphs, "trisps_equal_over_vertices", lambda t1, t2, vmap: mismatch)
    assert _pipeline_61_n4_failure(capsys) == (
        "failed: stage 'target_equality': ('counts', (3, 2), (3, 3))\n"
    )


def test_pipeline_61_fails_when_the_operator_is_not_equivariant(capsys, monkeypatch):
    from trispcat import graphs

    witnesses = [("not-equivariant", 0, 7)]
    monkeypatch.setattr(graphs, "check_equivariant", lambda action, cmap: witnesses)
    assert _pipeline_61_n4_failure(capsys) == (
        "failed: stage 'action': operator not equivariant: [('not-equivariant', 0, 7)]\n"
    )


def test_pipeline_61_fails_when_the_final_complex_is_not_acyclic(capsys, monkeypatch):
    from trispcat import graphs

    monkeypatch.setattr(graphs, "euler_characteristic", lambda t: 0)
    assert _pipeline_61_n4_failure(capsys) == (
        "failed: stage 'endpoint_search': final complex has Euler characteristic 0\n"
    )


def test_pipeline_61_fails_when_no_collapse_reaches_a_vertex(capsys, monkeypatch):
    from trispcat import graphs

    monkeypatch.setattr(graphs, "search_collapse_to_point", lambda t: None)
    assert _pipeline_61_n4_failure(capsys) == (
        "failed: stage 'endpoint_search': no sequence of elementary collapses reaches a vertex\n"
    )


def _pipeline_62_n4_failure(capsys):
    code = main(["dgn", "pipeline", "--n", "4", "--pipeline", "62"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    return captured.err


def test_pipeline_62_fails_when_the_image_quotient_is_not_the_red_subtrisp(capsys, monkeypatch):
    # the stitch translates the cone collapse through this stage's match
    from trispcat import graphs

    failing = (None, ("counts", (3, 2), (3, 3)))
    monkeypatch.setattr(graphs, "check_image_subtrisp_equality", lambda p, f, qc, g: failing)
    assert _pipeline_62_n4_failure(capsys) == (
        "failed: stage 'image_subtrisp_equality': ('counts', (3, 2), (3, 3))\n"
    )


def test_pipeline_62_fails_when_the_quotient_map_does_not_verify(capsys, monkeypatch):
    from trispcat import graphs
    from trispcat.closure import ClosureVerifyReport

    failing = ClosureVerifyReport([(1, 0, 2)], 0, 0, [], [])
    monkeypatch.setattr(graphs, "quotient_poset_closure_map", lambda p, f, qc: (None, failing))
    assert _pipeline_62_n4_failure(capsys) == (
        "failed: stage 'quotient_closure_map': [(1, 0, 2)]\n"
    )


def test_pipeline_62_fails_when_the_partition_quotient_has_too_many_objects(
    capsys, monkeypatch
):
    # one number partition for all: the quotient's 3 objects are too many
    from trispcat import graphs

    monkeypatch.setattr(graphs, "number_partition", lambda partition: ())
    assert _pipeline_62_n4_failure(capsys) == (
        "failed: stage 'partition_quotient': 3 objects, expected 1\n"
    )


def test_pipeline_62_fails_when_the_partition_quotient_has_no_terminal_object(
    capsys, monkeypatch
):
    from trispcat import graphs

    monkeypatch.setattr(graphs, "find_terminal_object", lambda c: None)
    assert _pipeline_62_n4_failure(capsys) == (
        "failed: stage 'partition_quotient': no terminal object\n"
    )


def test_pipeline_62_fails_when_the_terminal_object_is_not_the_finest_class(
    capsys, monkeypatch
):
    # at n = 4 the terminal class is object 0, of the partition type (2, 1, 1)
    from trispcat import graphs

    monkeypatch.setattr(graphs, "find_terminal_object", lambda c: 1)
    assert _pipeline_62_n4_failure(capsys) == (
        "failed: stage 'partition_quotient': terminal object is ((0,), (1, 2, 3))\n"
    )


def test_pipeline_62_fails_when_the_partition_nerve_is_not_the_mirrored_image(
    capsys, monkeypatch
):
    from trispcat import graphs

    mismatch = (None, ("counts", (3, 2), (3, 3)))
    monkeypatch.setattr(graphs, "trisps_equal_over_vertices", lambda t1, t2, vmap: mismatch)
    assert _pipeline_62_n4_failure(capsys) == (
        "failed: stage 'stitch': partition nerve mismatch: ('counts', (3, 2), (3, 3))\n"
    )


def test_pipeline_62_fails_when_the_stitched_collapse_leaves_more_than_a_vertex(
    capsys, monkeypatch
):
    from trispcat import graphs

    monkeypatch.setattr(graphs, "verify_collapse_sequence", lambda t, steps: {(0, 0), (0, 1)})
    assert _pipeline_62_n4_failure(capsys) == (
        "failed: stage 'stitch': stitched collapse leaves [(0, 0), (0, 1)]\n"
    )


@pytest.mark.slow
def test_pipeline_62_n6_is_pinned():
    # a child process, so that the run's memory is handed back when it exits
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


@pytest.mark.slow
def test_pipeline_61_n6_is_pinned():
    # a child process, so that the run's memory, about 1 GB, is handed back when it exits
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    run61 = subprocess.run(
        [sys.executable, "-m", "trispcat.cli", "dgn", "pipeline", "--n", "6", "--pipeline", "61"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run61.returncode == 0, run61.stderr
    report = json.loads(run61.stdout)
    certs = json.dumps(report["certificates"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(certs.encode()).hexdigest() == (
        "a979e10df804fb899d4abbd49f5d53b011fdfa3b545df3107f926fd70b836c4f"
    )
    assert len(report["certificates"]["collapse"]) == 858_610
    assert len(report["certificates"]["endpoint"]) == 44
    stages = {s["name"]: s["info"] for s in report["stages"]}
    assert stages["quotient"]["counts"] == [
        43, 843, 8925, 52979, 183777, 386512, 499590, 388080, 166320, 30240
    ]
    assert stages["collapse"]["final_counts"] == [9, 28, 36, 16]


@pytest.mark.slow
def test_dgn5_subdivision_certificate_replays(capsys, tmp_path):
    # the barycentric subdivision of DG_5 collapsed onto the image of its
    # transitive-closure operator, emitted by the CLI and replayed from the file
    from trispcat.accat import check_closure_operator
    from trispcat.closure import verify_collapse_sequence
    from trispcat.graphs import build_dgn, face_poset, transitive_closure_operator
    from trispcat.trisp import Trisp, induced_subtrisp

    k = build_dgn(5)
    fp = face_poset(k)
    t = nerve(fp.category).trisp
    f = transitive_closure_operator(k, fp)
    cmap = induced_trisp_closure_map(fp.poset, f, check_closure_operator(fp.poset, f))
    t_file = write(tmp_path / "t.json", t.to_json())
    map_file = write(tmp_path / "m.json", cmap.to_json())
    out_path = tmp_path / "cert.json"
    code, _ = run(
        capsys, "closure", "collapse", "--input", t_file, "--map", map_file,
        "--output", str(out_path),
    )
    assert code == 0
    cert = json.loads(out_path.read_text(encoding="utf-8"))
    assert cert["verified"] is True
    assert len(cert["steps"]) == 23_645
    assert cert["final_counts"] == [50, 205, 180]
    with open(t_file, encoding="utf-8") as fh:
        replayed = Trisp.from_json(json.load(fh))
    steps = [(tuple(a), tuple(b)) for a, b in cert["steps"]]
    remaining = verify_collapse_sequence(replayed, steps)
    red = induced_subtrisp(t, cmap.red).to_parent
    assert remaining == {(d, s) for d, kept in enumerate(red) for s in kept}
    assert len(remaining) == 435


def _quotient_documents():
    """Valid `quotient` inputs: a category and a trisp, each with a generating action."""
    from trispcat.accat import poset_from_relation

    hexagon = poset_from_relation(
        ["v0", "v1", "v2", "e0", "e1", "e2"],
        [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5)],
    )
    [rotation] = explicit_action(hexagon, close_group([(1, 2, 0, 4, 5, 3)], on=hexagon)).generators
    rotate = {"objects": list(rotation.dims[0]), "morphisms": list(rotation.dims[1])}
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
    st.data(),
)
def test_quotient_exit_codes_hold_on_mutated_documents(which, target, data):
    _kind, doc, action = copy.deepcopy(_quotient_documents()[which])
    if target != "action":
        doc = _mutate(doc, data)
    if target != "input":
        action = _mutate(action, data)
    with tempfile.TemporaryDirectory() as tmp:
        _run_documents(["quotient"], [doc, action], tmp)


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
