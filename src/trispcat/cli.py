"""Command-line front end.

Exit codes: 0 success / property holds, 1 checked mathematical failure with
a witness in the report, 2 malformed input.
"""

import json
import sys
import types

from . import accat, closure, equivariant, graphs, symmetry, trisp
from .errors import (
    InputError, NotAPosetError, PipelineError, PreconditionError, SoundnessError, malformed,
)
from .nerve import nerve


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # json reads nested arrays and objects by recursion
        raise InputError(f"{path} nests too deeply to read") from exc


def _emit(args, payload, text=None):
    if text is None:
        # one line: without `indent`, json serves the dump from its C encoder;
        # no payload holds a reference cycle, so none is looked for
        text = json.dumps(payload, sort_keys=True, check_circular=False) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _detect(doc):
    if isinstance(doc, dict) and "objects" in doc and "morphisms" in doc:
        return "category"
    if isinstance(doc, dict) and "dims" in doc:
        return "trisp"
    raise InputError("document is neither a category nor a trisp")


def _indices(entries):
    entries = tuple(entries)
    if not all(type(x) is int for x in entries):
        raise InputError(f"permutation entries must be integers: {list(entries)}")
    return entries


def _load_action(doc, on):
    """The action that the generators of `doc` generate on the trisp or category `on`."""
    is_trisp = isinstance(on, trisp.Trisp)
    with malformed("action"):
        auts = []
        for g in doc["generators"]:
            if is_trisp and "dims" not in g:
                raise InputError("trisp action generators need 'dims'")
            if not is_trisp and ("objects" not in g or "morphisms" not in g):
                raise InputError("category action generators need 'objects' and 'morphisms'")
            levels = g["dims"] if is_trisp else (g["objects"], g["morphisms"])
            auts.append(symmetry.Aut(tuple(map(_indices, levels))))
        return symmetry.close_group(auts, on=on)


def cmd_validate(args):
    doc = _load(args.input)
    kind = _detect(doc)
    if kind == "category":
        c = accat.AcyclicCategory.from_json(doc)
        report = accat.validate_category(c)
        if args.format == "dot":
            try:
                obj = accat.as_poset(c)
            except NotAPosetError:
                obj = c
            _emit(args, None, accat.to_dot(obj))
            return 0 if report.ok else 1
        _emit(args, {"kind": "category", **report.to_json()})
        return 0 if report.ok else 1
    t = trisp.Trisp.from_json(doc)
    report = trisp.validate_trisp(t)
    if args.format == "dot":
        _emit(args, None, trisp.skeleton_dot(t))
        return 0 if report.ok else 1
    _emit(args, {"kind": "trisp", **report.to_json()})
    return 0 if report.ok else 1


def cmd_nerve(args):
    doc = _load(args.input)
    c = accat.AcyclicCategory.from_json(doc)
    report = accat.validate_category(c)
    if not report.ok:
        _emit(args, {"error": "input category invalid", **report.to_json()})
        return 1
    nv = nerve(c)
    if args.format == "dot":
        _emit(args, None, trisp.skeleton_dot(nv.trisp))
        return 0
    _emit(args, nv.trisp.to_json())
    return 0


def cmd_quotient(args):
    doc = _load(args.input)
    act_doc = _load(args.action)
    if _detect(doc) == "trisp":
        t = trisp.Trisp.from_json(doc)
        action = _load_action(act_doc, t)
        qt = symmetry.quotient_trisp(t, action)
        payload = {
            "quotient": qt.trisp.to_json(),
            "projection": [list(p) for p in qt.projection],
            "regular": qt.regular,
            "regularity_violations": [list(v) for v in qt.regularity_violations],
        }
        _emit(args, payload)
        return 0
    c = accat.AcyclicCategory.from_json(doc)
    action = _load_action(act_doc, c)
    report = accat.validate_category(c)
    if not report.ok:
        _emit(args, {"error": "input category invalid", **report.to_json()})
        return 1
    qc = symmetry.quotient_category(c, action)
    cmap = symmetry.canonical_map(qc)
    is_poset = True
    try:
        accat.as_poset(qc.category)
    except NotAPosetError:
        is_poset = False
    payload = {
        "quotient": qc.category.to_json(),
        "projection": {
            "objects": list(qc.obj_class),
            "morphisms": list(qc.mor_class),
        },
        "is_poset": is_poset,
        "canonical_map": {
            "surjective_by_dim": list(cmap.surjective_by_dim),
            "vertex_bijective": cmap.vertex_bijective,
        },
    }
    _emit(args, payload)
    return 0 if all(cmap.surjective_by_dim) and cmap.vertex_bijective else 1


def cmd_closure(args):
    t = trisp.Trisp.from_json(_load(args.input))
    cmap = closure.TrispClosureMap.from_json(_load(args.map))
    sub = args.verb
    if sub in ("verify", "collapse") and args.action is not None:
        raise InputError(f"closure {sub} takes no --action")
    if sub == "verify":
        report = closure.verify_trisp_closure_map(t, cmap)
        _emit(args, report.to_json())
        return 0 if report.ok else 1
    if sub == "collapse":
        report = closure.verify_trisp_closure_map(t, cmap)
        if not report.ok:
            _emit(args, {"verified": False, **report.to_json()})
            return 1
        cert = closure.full_collapse_audit(t, cmap, report)
        _emit(args, {"verified": True, **cert.to_json()})
        return 0
    if args.action is None:
        raise InputError(f"closure {sub} needs --action")
    if sub == "push":
        cmap.check_vertices(t)  # the map lives on t; refuse it before the action is built
    qt = symmetry.quotient_trisp(t, _load_action(_load(args.action), t))
    if sub == "push":
        try:
            pushed, report = equivariant.push_closure_map(qt, cmap)
        except PreconditionError as exc:
            _emit(args, {"ok": False, "error": str(exc)})
            return 1
        _emit(
            args,
            {
                "ok": True,
                "quotient": qt.trisp.to_json(),
                "map": pushed.to_json(),
                "verify": report.to_json(),
            },
        )
        return 0
    condition = equivariant.check_lift_condition(qt, cmap)  # the verb is "lift"
    payload = {"lift_condition": condition.to_json(), "ok": False}
    try:
        lifted, report = equivariant.lift_closure_map(qt, cmap, condition)
        if not report.ok:
            payload["error"] = f"map does not verify upstairs: {report.failures[:3]}"
    except PreconditionError as exc:
        payload["error"], lifted = str(exc), None
        if condition.holds:
            lifted = equivariant.lift_candidate(qt, cmap, condition)
            report = closure.verify_trisp_closure_map(t, lifted)
    if "error" not in payload:
        payload.update({"ok": True, "map": lifted.to_json()})
    elif lifted is not None:
        payload.update({"candidate": lifted.to_json(), "candidate_verify": report.to_json()})
    _emit(args, payload)
    return 0 if payload["ok"] else 1


def cmd_dgn(args):
    if args.verb == "build":
        if args.pipeline is not None:
            raise InputError("dgn build takes no --pipeline")
        k = graphs.build_dgn(args.n)
        if args.format == "dot":
            _emit(args, None, trisp.skeleton_dot(k.trisp))
            return 0
        payload = k.trisp.to_json()
        payload["edge_labels"] = [k.edge_label(e) for e in range(len(k.edges))]
        _emit(args, payload)
        return 0
    if args.format == "dot":  # the verb is "pipeline"
        raise InputError("dgn pipeline has no dot format")
    if args.pipeline == "62":
        report, _steps = graphs.pipeline_quotient_category(args.n)
    else:
        report, _cert = graphs.pipeline_quotient_trisp(args.n)
    _emit(args, report.to_json())
    return 0 if report.ok else 1


_FORMAT = {"choices": ["json", "dot"], "default": "json"}

# command -> (handler, help, verbs or None, {long option: argparse's `add_argument` keywords})
COMMANDS = {
    "validate": (cmd_validate, "validate a category or trisp file", None,
                 {"--input": {"required": True}, "--output": {}, "--format": _FORMAT}),
    "nerve": (cmd_nerve, "nerve of a category file", None,
              {"--input": {"required": True}, "--output": {}, "--format": _FORMAT}),
    "quotient": (cmd_quotient, "quotient by a group action", None,
                 {"--input": {"required": True}, "--action": {"required": True}, "--output": {}}),
    "closure": (cmd_closure, "closure map operations", ["verify", "push", "lift", "collapse"], {
        "--input": {"required": True, "help": "trisp file"},
        "--map": {"required": True, "help": "closure map file"},
        "--action": {"help": "trisp action file (push/lift)"},
        "--output": {},
    }),
    "dgn": (cmd_dgn, "disconnected graph complexes and pipelines", ["build", "pipeline"], {
        "--n": {"type": int, "required": True},
        "--pipeline": {"choices": ["61", "62"], "help": "61 (the default) or 62"},
        "--output": {},
        "--format": _FORMAT,
    }),
}


def build_parser():
    import argparse  # only the lines `_parse_plain` declines pay for it

    parser = argparse.ArgumentParser(prog="trispcat")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, text, verbs, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if verbs is not None:
            p.add_argument("verb", choices=verbs)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
    return parser


def _parse_plain(argv):
    """The namespace argparse makes of a plain command line, or None for any other.

    A plain line is a command, its verb where it has verbs, then `--name
    value` pairs of its options, each at most once and every required one
    given.  A value does not start with `-`, passes the option's type and
    lies in its choices.  Help, abbreviations, `--name=value`, repeated
    options and usage errors are left to argparse, which prints them.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _handler, _text, verbs, options = COMMANDS[argv[0]]
    args, rest = {"command": argv[0]}, argv[1:]
    if verbs is not None:
        if not rest or rest[0] not in verbs:
            return None
        args["verb"], rest = rest[0], rest[1:]
    args.update((flag[2:], spec.get("default")) for flag, spec in options.items())
    flags, given = rest[::2], set(rest[::2])
    required = {flag for flag, spec in options.items() if spec.get("required")}
    if len(rest) % 2 or len(given) < len(flags) or not required <= given <= options.keys():
        return None
    for flag, text in zip(flags, rest[1::2]):
        spec = options[flag]
        try:  # the `int` argparse calls: it takes ' 7' and '1_0', and refuses '²'
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if text.startswith("-") or value not in spec.get("choices", [value]):
            return None
        args[flag[2:]] = value
    return types.SimpleNamespace(**args)


@trisp.nogc
def main(argv=None):
    args = _parse_plain(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse wrote its usage error (code 2) or help (0)
            return exc.code
    try:
        return COMMANDS[args.command][0](args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except MemoryError:  # an input too large to hold, such as a huge simplex count
        sys.stderr.write("input error: the input is too large to hold in memory\n")
        return 2
    except NotAPosetError as exc:
        sys.stderr.write(f"not a poset: {exc}\n")
        return 1
    except (PreconditionError, PipelineError, SoundnessError) as exc:
        sys.stderr.write(f"failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
