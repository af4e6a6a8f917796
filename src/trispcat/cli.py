"""Command-line front end.

Exit codes: 0 success / property holds, 1 checked mathematical failure with
a witness in the report, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _emit(args, payload, text=None):
    if text is None:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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


def _load_trisp_action(doc, t):
    with malformed("action"):
        auts = []
        for g in doc["generators"]:
            if "dims" not in g:
                raise InputError("trisp action generators need 'dims'")
            auts.append(symmetry.TrispAut(tuple(_indices(p) for p in g["dims"])))
        if not auts:
            return symmetry.trivial_trisp_action(t)
        return symmetry.close_group(auts, on=t)


def _load_cat_action(doc, c):
    with malformed("action"):
        auts = []
        for g in doc["generators"]:
            if "objects" not in g or "morphisms" not in g:
                raise InputError("category action generators need 'objects' and 'morphisms'")
            auts.append(symmetry.CatAut(_indices(g["objects"]), _indices(g["morphisms"])))
        if not auts:
            return symmetry.trivial_cat_action(c)
        return symmetry.close_group(auts, on=c)


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
    report = trisp.validate_trisp(t, compute_flags=t.total <= 3000)
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
    kind = _detect(doc)
    if args.mode and args.mode != kind:
        raise InputError(f"--mode {args.mode} but input is a {kind}")
    if kind == "trisp":
        t = trisp.Trisp.from_json(doc)
        action = _load_trisp_action(act_doc, t)
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
    action = _load_cat_action(act_doc, c)
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
    if args.convention:
        cmap = closure.TrispClosureMap(cmap.blue, cmap.red, cmap.mapping, args.convention)
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
    qt = symmetry.quotient_trisp(t, _load_trisp_action(_load(args.action), t))
    if sub == "push":
        try:
            pushed = equivariant.push_closure_map(qt, cmap)
        except PreconditionError as exc:
            _emit(args, {"ok": False, "error": str(exc)})
            return 1
        _emit(
            args,
            {
                "ok": True,
                "quotient": pushed.qt.trisp.to_json(),
                "map": pushed.cmap.to_json(),
                "verify": pushed.verify_report.to_json(),
            },
        )
        return 0
    if sub == "lift":
        condition = equivariant.check_lift_condition(qt, cmap)
        payload = {"lift_condition": condition.to_json()}
        try:
            lifted = equivariant.lift_closure_map(qt, cmap)
            payload.update({"ok": True, "map": lifted.to_json()})
            _emit(args, payload)
            return 0
        except PreconditionError as exc:
            payload.update({"ok": False, "error": str(exc)})
            if condition.holds:
                candidate = equivariant.lift_candidate(qt, cmap)
                report = closure.verify_trisp_closure_map(t, candidate)
                payload["candidate"] = candidate.to_json()
                payload["candidate_verify"] = report.to_json()
            _emit(args, payload)
            return 1
    raise InputError(f"unknown closure subcommand {sub!r}")


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
    if args.verb == "pipeline":
        if args.format == "dot":
            raise InputError("dgn pipeline has no dot format")
        variant = args.pipeline or "61"
        if variant in ("61", "trisp"):
            report, _cert = graphs.pipeline_quotient_trisp(args.n)
        elif variant in ("62", "category"):
            report, _steps = graphs.pipeline_quotient_category(args.n)
        else:
            raise InputError(f"unknown pipeline {variant!r} (use 61 or 62)")
        _emit(args, report.to_json())
        return 0 if report.ok else 1
    raise InputError(f"unknown dgn subcommand {args.verb!r}")


def build_parser():
    parser = argparse.ArgumentParser(prog="trispcat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a category or trisp file")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = sub.add_parser("nerve", help="nerve of a category file")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = sub.add_parser("quotient", help="quotient by a group action")
    p.add_argument("--input", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--mode", choices=["category", "trisp"])
    p.add_argument("--output")

    p = sub.add_parser("closure", help="closure map operations")
    p.add_argument("verb", choices=["verify", "push", "lift", "collapse"])
    p.add_argument("--input", required=True, help="trisp file")
    p.add_argument("--map", required=True, help="closure map file")
    p.add_argument("--action", help="trisp action file (push/lift)")
    p.add_argument("--convention", choices=["min", "max"])
    p.add_argument("--output")

    p = sub.add_parser("dgn", help="disconnected graph complexes and pipelines")
    p.add_argument("verb", choices=["build", "pipeline"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pipeline", help="61 or 62")
    p.add_argument("--output")
    p.add_argument("--format", choices=["json", "dot"], default="json")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "nerve": cmd_nerve,
        "quotient": cmd_quotient,
        "closure": cmd_closure,
        "dgn": cmd_dgn,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except NotAPosetError as exc:
        sys.stderr.write(f"not a poset: {exc}\n")
        return 1
    except (PreconditionError, PipelineError, SoundnessError) as exc:
        sys.stderr.write(f"failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
