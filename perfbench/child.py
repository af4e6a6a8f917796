"""One call into trispcat in a fresh process; started by perfbench/run.py.

Usage: python3 perfbench/child.py TASK_JSON

TASK_JSON names the kind of call ("pipeline", "audit", "prepare-audit" or
"setup"), the source tree to import trispcat from, and the parent's
``time.monotonic()`` just before it launched this process, so that set-up is
measured across the process boundary.  The child prints one JSON line with
its result as the last line of its output.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time

from speed import Speedometer


def run_pipeline(task, meter):
    from trispcat import cli

    buf = io.StringIO()
    argv = ["dgn", "pipeline", "--n", str(task["n"]), "--pipeline", task["variant"]]
    with meter, contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    report = json.loads(buf.getvalue())
    certs = json.dumps(report["certificates"], sort_keys=True, separators=(",", ":"))
    return {
        "rc": rc,
        "ok": report["ok"],
        "certificates_sha256": hashlib.sha256(certs.encode()).hexdigest(),
        "certificate_lengths": {k: len(v) for k, v in report["certificates"].items()},
        "stages": [[s["name"], s["seconds"], s["info"]] for s in report["stages"]],
    }


def run_audit(task, meter):
    from trispcat import cli, closure, trisp

    argv = ["closure", "collapse", "--input", task["trisp"], "--map", task["map"],
            "--output", task["output"]]
    with meter:
        # producer: parse, verify, match, check acyclicity, collapse, emit
        rc = cli.main(argv)
        # checker: parse the trisp and the emitted steps, replay them
        with open(task["trisp"], encoding="utf-8") as fh:
            t = trisp.Trisp.from_json(json.load(fh))
        with open(task["output"], encoding="utf-8") as fh:
            cert = json.load(fh)
        steps = [(tuple(a), tuple(b)) for a, b in cert["steps"]]
        remaining = closure.verify_collapse_sequence(t, steps)
    counts = [0] * (t.dim + 1)
    for d, _s in remaining:
        counts[d] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return {
        "rc": rc,
        "ok": cert.get("verified") is True,
        "final_counts": cert.get("final_counts"),
        "checker_counts": counts,
    }


def prepare_audit(task, meter):
    """Write the relabelled barycentric subdivision of DG_n and its closure map."""
    from audit import relabel
    from trispcat import accat, closure, graphs, nerve

    with meter:
        k = graphs.build_dgn(task["n"])
        fp = graphs.face_poset(k)
        bd = nerve(fp.category)
        f = graphs.transitive_closure_operator(k, fp)
        report = accat.check_closure_operator(fp.poset, f)
        cmap = closure.induced_trisp_closure_map(fp.poset, f, report)
    trisp_doc, map_doc = relabel(bd.trisp.to_json(), cmap.to_json(), task["seed"])
    for path, doc in ((task["trisp"], trisp_doc), (task["map"], map_doc)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return {"rc": 0, "ok": True, "trisp_counts": list(bd.trisp.counts)}


def run_nothing(_task, meter):
    with meter:
        pass
    return {"rc": 0, "ok": True}


RUNNERS = {
    "pipeline": run_pipeline,
    "audit": run_audit,
    "prepare-audit": prepare_audit,
    "setup": run_nothing,
}


def main(argv):
    task = json.loads(argv[1])
    sys.path.insert(0, task["src"])
    import trispcat
    import trispcat.cli  # the package itself does not import its CLI

    tracer = None
    if task.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - task["launch"]
    with Speedometer() as setup_meter:
        pass  # too short for a timer sample: the kernel runs right after set-up

    src = os.path.realpath(task["src"])
    if not os.path.realpath(trispcat.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported trispcat from {trispcat.__file__}, not from {src}")
    meter = Speedometer()
    facts = RUNNERS[task["kind"]](task, meter)
    result = {
        "setup_s": setup_s,
        "setup_scale": setup_meter.scale,
        "wall_s": meter.wall_s,
        "probe_s": meter.probe_s,
        "scale": meter.scale,
        **facts,
    }
    if tracer is not None:
        from tracer import aggregate, stage_times

        result["functions"] = aggregate(tracer.spans, meter.pauses)
        result["counts"] = dict(tracer.counts)
        result["wrapped"] = sorted(tracer.wrapped)
        result["stage_s"] = stage_times(facts.get("stages"), tracer.spans, meter.pauses)
        tracer.write(task["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv)
