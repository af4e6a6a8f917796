"""Smoke tests of the benchmark itself, at small sizes.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

import run
from audit import CertificateError, Replayer, relabel
from speed import INTERVAL_S, MIN_SAMPLES, Speedometer
from tracer import SKIP, Tracer, aggregate, stage_times

sys.path.insert(0, run.SRC)

from trispcat import accat, closure, graphs, nerve  # noqa: E402
from trispcat.trisp import Trisp  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(run.HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def bench(*args, cwd=run.ROOT, script=None):
    script = script or os.path.join(run.HERE, "run.py")
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


def result(*args):
    out = bench(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def values(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


def bd_docs(n, seed):
    k = graphs.build_dgn(n)
    fp = graphs.face_poset(k)
    bd = nerve(fp.category)
    f = graphs.transitive_closure_operator(k, fp)
    cmap = closure.induced_trisp_closure_map(fp.poset, f, accat.check_closure_operator(fp.poset, f))
    return relabel(bd.trisp.to_json(), cmap.to_json(), seed)


def test_pipeline_61_small():
    res = result("--workload", "p61-n4", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= run.MIN_SAMPLES
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v in values(res).values())


def test_pipeline_62_small_traced():
    res = result("--workload", "p62-n4", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert res["correct"]
    assert list(res["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    v = values(res)
    assert v["symmetry.close_group.calls"] > 0 and v["symmetry.perm_entries"] > 0
    assert v["accat.composition_entries"] > 0 and v["nerve.simplices"] > 0
    assert v["equivariant.image_quotient_nerve.calls"] == 2
    assert v["stage.quotient_category.s"] > 0 and v["stage.quotient.s"] == 0


def test_audit_small_traced_has_no_symmetry():
    res = result("--workload", "audit-bd4", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert res["correct"]
    v = values(res)
    assert all(val == 0 for name, val in v.items() if name.startswith("symmetry."))
    assert v["trisp.from_json.s"] > 0 and v["closure.verify_collapse_sequence.s"] > 0
    assert v["closure.collapse.steps"] == EXPECTED["audit-bd4"]["steps"]
    assert v["layer.closure.self_s"] > 0
    with open(os.path.join(run.OUT, "records", "audit-bd4-seed3-trace1.json"), encoding="utf-8") as fh:
        traced = json.load(fh)["traced"]
    assert "closure.collapse" in traced["wrapped"] and "symmetry.close_group" in traced["wrapped"]
    assert not SKIP & set(traced["wrapped"]) and not SKIP & set(traced["functions"])


def test_relabel_depends_only_on_seed():
    a = bd_docs(4, 7)
    assert a == bd_docs(4, 7)
    assert a != bd_docs(4, 8)
    trisp_doc, map_doc = a
    cert = closure.full_collapse_audit(Trisp.from_json(trisp_doc),
                                       closure.TrispClosureMap.from_json(map_doc))
    exp = EXPECTED["audit-bd4"]
    steps = [[list(s), list(t)] for s, t in cert.steps]
    Replayer(trisp_doc, map_doc["red"]).check(steps, exp["steps"], exp["red_counts"])


def test_swapped_steps_are_rejected_and_counted_as_failed():
    trisp_doc, map_doc = bd_docs(4, 5)
    t = Trisp.from_json(trisp_doc)
    cert = closure.full_collapse_audit(t, closure.TrispClosureMap.from_json(map_doc))
    steps = [[list(s), list(tau)] for s, tau in cert.steps]
    replayer = Replayer(trisp_doc, map_doc["red"])
    exp = EXPECTED["audit-bd4"]
    swapped = None
    for j in range(1, len(steps)):
        trial = list(steps)
        trial[0], trial[j] = trial[j], trial[0]
        try:
            replayer.replay(trial)
        except CertificateError:
            swapped = trial
            break
    assert swapped is not None, "no swap of two steps breaks the certificate"
    with pytest.raises(AssertionError):
        closure.verify_collapse_sequence(t, [(tuple(a), tuple(b)) for a, b in swapped])

    os.makedirs(run.OUT, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.OUT)
    try:
        output = os.path.join(work, "output.json")
        with open(output, "w", encoding="utf-8") as fh:
            json.dump({"verified": True, "steps": swapped}, fh)
        rec = {"rc": 0, "ok": True, "final_counts": exp["red_counts"],
               "checker_counts": exp["red_counts"], "wall_s": 1.0, "setup_s": 0.1,
               "peak_rss_mb": 20.0}
        rec["error"] = run.audit_error(rec, exp, replayer, output)
        assert rec["error"].startswith("independent replay")
        record = run.finish({"trace": 0}, [rec], [], [])
        assert (record["attempted"], record["failed"]) == (1, 1)
        assert not run.result_line(record, BENCH)["correct"]
    finally:
        shutil.rmtree(work)


def test_changed_certificate_fails_the_pipeline_gate():
    exp = EXPECTED["p61-n4"]
    rec = {"rc": 0, "ok": True, "certificates_sha256": "0" * 64,
           "certificate_lengths": exp["certificate_lengths"],
           "stages": [["quotient", 0.1, exp["stage_info"]["quotient"]]]}
    assert run.pipeline_error(rec, exp).startswith("certificates changed")
    rec["certificates_sha256"] = exp["certificates_sha256"]
    assert run.pipeline_error(rec, exp) is None
    rec["stages"] = [["quotient", 0.1, {"counts": [4, 4, 2]}]]
    assert run.pipeline_error(rec, exp).startswith("stage quotient")


def test_tracer_self_time_and_parents():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    def outer():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap("m.leaf", leaf)
    tracer.wrap("m.outer", outer)()
    (s1, l1, *_), (s2, l2, *_), (s3, o, start, end, parent) = tracer.spans
    assert (l1, l2, o, parent) == ("m.leaf", "m.leaf", "m.outer", -1)
    assert tracer.spans[0][4] == tracer.spans[1][4] == s3
    stats = aggregate(tracer.spans)
    children = sum(sp[3] - sp[2] for sp in tracer.spans[:2])
    assert stats["m.outer"]["self_s"] == pytest.approx(end - start - children)
    assert stats["m.leaf"]["calls"] == 2


def test_pauses_are_taken_out_of_spans_and_stages():
    # g [0, 10] calls f [2, 6]; pauses at 3-4 (in f), 7-7.5 (in g only), 11-12 (outside)
    spans = [(1, "f", 2.0, 6.0, 0), (0, "graphs.pipeline_x", 0.0, 10.0, -1)]
    pauses = [(3.0, 4.0), (7.0, 7.5), (11.0, 12.0)]
    stats = aggregate(spans, pauses)
    assert stats["f"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
    assert stats["graphs.pipeline_x"] == {"calls": 1, "s": 8.5, "self_s": 5.5}
    stages = [["a", 5.0, {}], ["b", 4.0, {}]]
    assert stage_times(stages, spans, pauses) == {"a": 4.0, "b": 3.5}
    assert stage_times([], [], pauses) == {}
    assert stage_times(stages, spans[:1], pauses) is None


def test_metrics_of_unwrapped_functions_are_null():
    traced = {"error": None, "scale": 1.0, "wall_s": 1.0, "probe_s": 0.0, "stage_s": {"a": 0.5},
              "wrapped": ["symmetry.close_group", "cli.main"],
              "functions": {"cli.main": {"calls": 1, "s": 1.0, "self_s": 1.0}},
              "counts": {}}
    record = {"traced": traced, "samples": [traced], "wall_s": []}
    names = ["symmetry.close_group.s", "symmetry.close_group.calls", "symmetry.perm_entries",
             "layer.symmetry.self_s", "cli.main.self_s", "stage.a.s", "stage.b.s",
             "symmetry.orbit_partition.s", "layer.accat.self_s", "accat.composition_entries",
             "graphs.pipeline.self_s"]
    v = run.per_layer(record, names)
    assert v == {"symmetry.close_group.s": 0.0, "symmetry.close_group.calls": 0,
                 "symmetry.perm_entries": 0, "layer.symmetry.self_s": 0.0,
                 "cli.main.self_s": 1.0, "stage.a.s": 0.5, "stage.b.s": 0.0,
                 "symmetry.orbit_partition.s": None, "layer.accat.self_s": None,
                 "accat.composition_entries": None, "graphs.pipeline.self_s": None}
    traced["stage_s"] = None
    assert run.per_layer(record, ["stage.a.s"]) == {"stage.a.s": None}


def test_speedometer_samples_while_the_block_runs():
    previous = signal.getsignal(signal.SIGALRM)
    with Speedometer() as meter:
        end = time.perf_counter() + 10 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(meter.samples) >= 5
    assert 0 < meter.probe_s < meter.wall_s and meter.reference_s > 0
    assert len(meter.pauses) == len(meter.samples)
    assert sum(b - a for a, b in meter.pauses) == pytest.approx(meter.probe_s)
    assert signal.getsignal(signal.SIGALRM) is previous
    with Speedometer() as short:
        pass
    assert short.probe_s == 0 and len(short.samples) == MIN_SAMPLES and short.scale > 0


def test_aggregate_counts_recursion_once():
    spans = [(2, "f", 2.0, 3.0, 1), (1, "f", 1.0, 4.0, 0), (0, "g", 0.0, 5.0, -1)]
    stats = aggregate(spans)
    assert stats["f"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert stats["g"] == {"calls": 1, "s": 5.0, "self_s": 2.0}


def test_benchmark_json_contract():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(name_re.fullmatch(n) for n in names) and len(names) == len(set(names))
    assert all(w["name"] in EXPECTED for w in BENCH["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_refuses_to_run_without_the_source_tree():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", "p61-n5", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare, script=os.path.join("perfbench", "run.py"))
        assert out.returncode != 0 and out.stdout == ""
    finally:
        shutil.rmtree(bare)
