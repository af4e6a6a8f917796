import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import trispcat


def _package_nodes():
    """(file name, node) for every AST node of every module in the package."""
    for path in sorted(Path(trispcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_package_has_no_assert_statement():
    # `python -O` strips `assert`, so every soundness check must raise instead
    found = [
        f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def _importers(module):
    """File names of the package modules that import `module`."""
    return {
        name
        for name, node in _package_nodes()
        if isinstance(node, ast.Import) and any(alias.name == module for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == module
    }


def test_only_the_stage_clock_imports_time():
    # no result may depend on a clock; graphs.PipelineReport only times stages
    assert _importers("time") == {"graphs.py"}


def test_no_package_module_imports_dataclasses():
    # every CLI call starts a process: importing dataclasses loads inspect,
    # ast, dis and tokenize, and decorating a class execs generated source
    assert _importers("dataclasses") == set()


def _loaded_by(setup, probe):
    """The modules a fresh interpreter loads running `probe` after `setup`."""
    # a fresh interpreter, so that what the test run has loaded does not count
    src = str(Path(__file__).parents[1] / "src")
    child = subprocess.run(
        [
            sys.executable, "-c",
            f"import sys; {setup}; before = set(sys.modules); {probe}; "
            "sys.__stdout__.write(' '.join(sorted(set(sys.modules) - before)))",
        ],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(child.stdout.split())


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    loaded = _loaded_by("pass", "import trispcat, trispcat.cli")
    assert "trispcat.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy"}
    # argparse is built only for the command lines the plain parse declines
    assert loaded & (heavy | {"argparse", "gettext"}) == set()


def test_a_plain_cli_call_loads_no_argparse_gettext_or_locale():
    loaded = _loaded_by(
        "import io, trispcat, trispcat.cli; sys.stdout = io.StringIO()",
        "assert trispcat.cli.main(['dgn', 'pipeline', '--n', '3']) == 0",
    )
    assert loaded & {"argparse", "gettext", "locale"} == set()


def test_no_quotient_piece_is_an_optional_parameter():
    # a quotient carries its source and its action, so a function that needs
    # one takes it whole; an optional piece would be a second, unchecked path
    pieces = {"qt", "qc", "nerve_q", "nerve_src", "taction"}
    found = []
    for name, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
            ]
            found += [f"{name}:{node.lineno} {a.arg}" for a in defaulted if a.arg in pieces]
    assert found == []


def _modules():
    return [(name, node) for name, node in _package_nodes() if isinstance(node, ast.Module)]


def test_only_the_action_builders_call_group_action():
    # every action on a category, a poset or a trisp comes from close_group;
    # the two others carry a checked action to a nerve and close S_n on n points
    callers = set()
    for name, module in _modules():
        for top in module.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == "GroupAction":
                        callers.add((name, getattr(top, "name", None)))
    assert callers == {
        ("symmetry.py", "close_group"),
        ("symmetry.py", "induced_trisp_action"),
        ("graphs.py", "_sn_group"),
    }


def test_no_module_function_calls_itself():
    # recursion stops at the interpreter's depth limit, which a large input
    # reaches; a method that calls the module function of its own name, as
    # QuotientCategory.nerve calls nerve, is not a self-call
    found = [
        f"{name}:{top.name}"
        for name, module in _modules()
        for top in module.body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == top.name
    ]
    assert found == []


def test_every_public_definition_is_used_in_the_package():
    # what only tests reach belongs in tests/oracles.py, not in the package;
    # an import alias is not a use, and neither is a call from its own body;
    # a method is used only as an attribute, so a local variable of the same
    # name does not count
    modules = _modules()
    defined = []
    for name, module in modules:
        if name == "__init__.py":
            continue
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    uses = {}
    for _name, module in modules:
        for node in ast.walk(module):
            if isinstance(node, (ast.Name, ast.Attribute)):
                key = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(key, []).append(node)
    unused = []
    for qualname, node in defined:
        owner, _dot, short = qualname.rpartition(".")
        if short.startswith("_"):
            continue
        own = {id(n) for n in ast.walk(node)}
        found = [n for n in uses.get(short, ()) if not owner or isinstance(n, ast.Attribute)]
        if all(id(n) in own for n in found):
            unused.append(qualname)
    assert unused == []


def _stored_fields():
    """Class.attr for every attribute a package class's __init__ stores on self.

    errors.py is left out: exception attributes serve handlers.
    """
    return [
        f"{cls.name}.{n.attr}"
        for name, module in _modules()
        if name != "errors.py"
        for cls in module.body
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        for n in ast.walk(item)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    ]


# every field of the package's 17 record classes: 64 in all
RECORD_FIELDS = {
    "CategoryReport": "self_loops cycle missing_compositions bad_endpoints associativity_failures",
    "TrispClosureMap": "blue red mapping convention",
    "ClosureVerifyReport": "failures contained extended partners",
    "CollapseCertificate": "steps final euler",
    "LiftConditionReport": "candidates",
    "GraphComplex": "n edges trisp faces_by_dim index edge_index components closed",
    "FacePoset": "poset elements position",
    "PartitionPoset": "n partitions poset index",
    "PipelineReport": "variant n ok stages certificates",
    "Aut": "dims",
    "GroupAction": "generators",
    "QuotientTrisp": "source action trisp projection reps regularity_violations",
    "OrbitNerve": "trisp tops orbit_sizes obj_orbit regularity_violations",
    "QuotientCategory": "source action category obj_class mor_class obj_members",
    "CanonicalMap": "nerve_dst entries",
    "TrispReport": "identity_violations regularity_violations is_simplicial is_flag_complex",
    "Subtrisp": "trisp to_parent",
}


def test_the_field_guard_sees_every_record_field():
    # the guard below reads fields off __init__ stores; a record class that
    # stopped storing its fields there would drop out of it unseen
    expected = [f"{cls}.{field}" for cls, names in RECORD_FIELDS.items() for field in names.split()]
    assert len(expected) == 64
    assert sorted(set(expected) - set(_stored_fields())) == []


def test_every_public_field_is_read_in_the_package():
    # a stored value nothing in the package reads is dead weight that its
    # owner keeps alive.  Reads are matched by attribute name alone, so an
    # unread field passes when another attribute of its name is read: a
    # stored Nerve.category would pass through Poset.category.
    fields = _stored_fields()
    read = {
        node.attr
        for _name, module in _modules()
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    shorts = {f: f.rpartition(".")[2] for f in fields}
    unread = sorted(f for f, a in shorts.items() if not a.startswith("_") and a not in read)
    assert unread == []


def test_every_benchmark_span_names_a_function_of_the_package():
    # the benchmark's traced run wraps module-level functions by name and
    # marks a metric null, failing the run, when its function is gone; a
    # span metric is <module>.<function>.<field>, and two-part names count work
    names = [
        metric["name"]
        for metric in json.loads(
            (Path(__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
        )["per_layer"]
    ]
    spans = {
        name.rpartition(".")[0]
        for name in names
        if name.count(".") >= 2 and name.split(".")[0] not in ("stage", "layer", "trace")
    }
    assert "trisp.from_json" in spans and "graphs.pipeline" in spans
    missing = []
    for span in sorted(spans):
        module_name, function = span.split(".")
        module = importlib.import_module(f"trispcat.{module_name}")
        if span == "trisp.from_json":  # a classmethod, wrapped on its class
            found = isinstance(module.Trisp.__dict__.get("from_json"), classmethod)
        elif span == "graphs.pipeline":  # the sum over the pipeline_* functions
            found = any(
                isinstance(obj, types.FunctionType) and attr.startswith("pipeline_")
                for attr, obj in vars(module).items()
            )
        else:
            obj = vars(module).get(function)
            found = isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
        if not found:
            missing.append(span)
    assert missing == []


def test_the_collector_is_paused_once_per_command():
    # `cli.main` pauses the collector for every command, so no handler takes
    # a pause of its own; the other pauses are the library entry points that
    # callers use without `main`, as `trisp.nogc` says
    paused = {
        (name, node.name)
        for name, node in _package_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        if (decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", None))
        == "nogc"
    }
    assert paused == {
        ("cli.py", "main"),
        ("trisp.py", "from_json"),
        ("closure.py", "verify_collapse_sequence"),
        ("accat.py", "poset_from_relation"),
    }


def test_every_benchmark_work_counter_reads_a_count_off_its_function(dgn4_bundle):
    # the traced run applies each reader in the tracer's COUNTERS to what its
    # span's function returns; on DG_4's real return values each must give a
    # non-negative int, so a change to what they read fails here, untraced
    import importlib.util

    from trispcat.closure import full_collapse_audit, induced_trisp_closure_map
    from trispcat.graphs import face_poset

    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    fp, bd = dgn4_bundle["fp"], dgn4_bundle["bd"]
    returned = {
        "symmetry.close_group": dgn4_bundle["act"],  # what face_poset_action returns
        "accat.poset_from_relation": face_poset(dgn4_bundle["k"]).poset,
        "nerve.nerve": bd,
        "closure.collapse": full_collapse_audit(
            bd.trisp, induced_trisp_closure_map(fp.poset, dgn4_bundle["f"])
        ),
    }
    assert sorted(tracer.COUNTERS) == sorted(returned)
    for span, (_counter, read) in tracer.COUNTERS.items():
        count = read(returned[span])
        assert type(count) is int and count >= 0, span
