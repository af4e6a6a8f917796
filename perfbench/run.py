"""trispcat benchmark: time to a collapse certificate, set-up time and peak memory.

Run from the root of a checkout (no installation needed, trispcat is
imported from ``src/``):

    python3 perfbench/run.py --workload p61-n5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 -m pytest perfbench -q        # the benchmark's own smoke tests

Workloads are the names in expected.json: ``p61-nN`` and ``p62-nN`` run
``trispcat dgn pipeline --n N --pipeline 61|62`` through ``cli.main``;
``audit-bdN`` produces a certificate with ``closure collapse`` on the
barycentric subdivision of DG_N, relabelled from the seed, and checks it
with ``closure.verify_collapse_sequence``.  BENCHMARK.json names the ones
the benchmark runs; the small ones are for the smoke tests.

Each measured call runs in a fresh child process (perfbench/child.py), one
at a time, from this single parent: a closed loop with one client.  Calls
are made until ``--seconds`` have passed, and at least MIN_SAMPLES of them.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of
  the call into trispcat), ``setup_s`` (median time from launching a child
  to "trispcat imported, ready to call", over at least SETUP_SAMPLES
  children) and ``peak_rss_mb`` (median peak RSS of a child, from its own
  rusage).  ``error_rate`` is printed too; it is the ``failed`` /
  ``attempted`` of the result line.
* ``--trace 1`` makes the same untraced calls, then one traced call, and
  reports the per-layer metrics of BENCHMARK.json from its spans (see
  tracer.py): ``<module>.<function>.s`` (inclusive), ``.self_s`` and
  ``.calls``; ``layer.<module>.self_s``; the work counts of
  ``tracer.COUNTERS``; ``graphs.pipeline.self_s`` and ``cli.main.self_s``,
  the self time of all ``graphs.pipeline_*`` and all ``cli`` functions;
  ``stage.<name>.s``, the stage times the pipeline reports; and
  ``trace.overhead_s``, the traced call's time less the untraced median.
  A metric of a function the tracer has not wrapped is null, and the run is
  then not correct.

Times are reported in seconds at a reference CPU speed (see speed.py): while
the call runs, the child samples how fast its core is, and scales the call's
wall time, less the sampling's own time, by that speed.  In the traced call
each span and each stage is also taken net of the samplings inside it.  On a machine whose
cores change speed under other tenants' load this removes most of the
spread between runs.  Set-up time is scaled by the speed sampled right
after set-up.  The raw times are printed next to the scaled ones and kept in
the run record.

Every call's output is checked against ``expected.json``; a call that fails
the check, exits nonzero or reports ok=false counts as failed and is not
timed.  A run record (machine, Python, load average, every raw value) is
written under ``.perfbench/records/``.  The last line of output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from audit import CertificateError, Replayer
from tracer import COUNTERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".perfbench")

MIN_SAMPLES = 3
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # every run must end well within 180 s


class UsageError(Exception):
    pass


# -- workloads -----------------------------------------------------------------


def parse_workload(name, expected):
    """('pipeline', n, variant) or ('audit', n, None) for a workload name."""
    if name not in expected:
        raise UsageError(f"unknown workload {name!r}; known: {', '.join(sorted(expected))}")
    m = re.fullmatch(r"p(61|62)-n(\d+)", name)
    if m:
        return "pipeline", int(m.group(2)), m.group(1)
    m = re.fullmatch(r"audit-bd(\d+)", name)
    if m:
        return "audit", int(m.group(1)), None
    raise UsageError(f"workload {name!r} has no runner")


# -- one child -----------------------------------------------------------------


def launch(task, work, deadline):
    """Run one child to its end; return its result and peak RSS, or an error."""
    log_path = os.path.join(work, "child.log")
    with open(log_path, "wb") as log:
        task = dict(task, src=SRC, launch=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(task)],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    record = {"exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        record["error"] = "no result: " + " | ".join(lines[-5:])
        return record
    record["error"] = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    return record


def pipeline_error(rec, exp):
    """Why a pipeline call's output is wrong, or None."""
    if rec["rc"] != 0 or rec["ok"] is not True:
        return f"rc={rec['rc']} ok={rec['ok']}"
    if rec["certificates_sha256"] != exp["certificates_sha256"]:
        return f"certificates changed: sha256 {rec['certificates_sha256']}"
    if rec["certificate_lengths"] != exp["certificate_lengths"]:
        return f"certificate lengths {rec['certificate_lengths']}"
    infos = {name: info for name, _s, info in rec["stages"]}
    for stage, want in exp["stage_info"].items():
        got = {k: infos.get(stage, {}).get(k) for k in want}
        if got != want:
            return f"stage {stage}: {got}, expected {want}"
    return None


def audit_error(rec, exp, replayer, output):
    """Why an audit call's output is wrong, or None; replays the steps independently."""
    if rec["rc"] != 0 or rec["ok"] is not True:
        return f"rc={rec['rc']} verified={rec['ok']}"
    for key in ("final_counts", "checker_counts"):
        if rec[key] != exp["red_counts"]:
            return f"{key} {rec[key]}, expected {exp['red_counts']}"
    try:
        with open(output, encoding="utf-8") as fh:
            steps = json.load(fh)["steps"]
        replayer.check(steps, exp["steps"], exp["red_counts"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable certificate: {exc!r}"
    except CertificateError as exc:
        return f"independent replay: {exc}"
    return None


# -- one run -------------------------------------------------------------------


def machine():
    cpu = mem_mb = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            kb = next((int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal")), None)
            mem_mb = kb / 1024.0 if kb else None
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "platform": platform.platform(),
    }


def run_workload(name, seed, seconds, trace, expected, work):
    """Measure one workload; returns the run record."""
    kind, n, variant = parse_workload(name, expected)
    exp = expected[name]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "loadavg_before": os.getloadavg()}

    if kind == "pipeline":
        task = {"kind": "pipeline", "n": n, "variant": variant}
        replayer = output = None
    else:
        paths = {k: os.path.join(work, f"{k}.json") for k in ("trisp", "map", "output")}
        prep = launch({"kind": "prepare-audit", "n": n, "seed": seed, **paths}, work, deadline)
        record["prepare"] = prep
        if prep["error"] is not None:
            return finish(record, [prep], [], [])
        with open(paths["trisp"], encoding="utf-8") as fh:
            trisp_doc = json.load(fh)
        with open(paths["map"], encoding="utf-8") as fh:
            replayer = Replayer(trisp_doc, json.load(fh)["red"])
        task = {"kind": "audit", **paths}
        output = paths["output"]

    def call(**extra):
        rec = launch(dict(task, **extra), work, deadline)
        if rec["error"] is None:
            if kind == "pipeline":
                rec["error"] = pipeline_error(rec, exp)
            else:
                rec["error"] = audit_error(rec, exp, replayer, output)
                os.remove(output)
        return rec

    samples = []
    t0 = time.monotonic()
    while True:
        samples.append(call())
        now = time.monotonic()
        if now >= deadline or (now - t0 >= seconds and len(samples) >= MIN_SAMPLES):
            break
    ok = [r for r in samples if r["error"] is None]
    setups = list(ok)
    if not trace:
        probes = []
        while len(setups) + len(probes) < SETUP_SAMPLES and time.monotonic() < deadline:
            rec = launch({"kind": "setup"}, work, deadline)
            if rec["error"] is not None:
                samples.append(rec)
                break
            probes.append(rec)
        record["setup_probes"] = probes
        setups += probes
    else:
        spans = os.path.join(OUT, "records", f"{name}-seed{seed}.spans.jsonl")
        traced = call(trace=True, spans=spans)
        record["traced"] = traced
        record["spans_file"] = os.path.relpath(spans, ROOT)
        samples.append(traced)
    return finish(record, samples, ok, setups)


def finish(record, samples, ok, setups):
    record["samples"] = samples
    record["loadavg_after"] = os.getloadavg()
    record["attempted"] = len(samples)
    record["failed"] = sum(1 for r in samples if r["error"] is not None)
    record["wall_s"] = [reference_s(r) for r in ok]
    record["setup_s"] = [r["setup_s"] * r["setup_scale"] for r in setups]
    record["peak_rss_mb"] = [r["peak_rss_mb"] for r in ok]
    record["raw_wall_s"] = [r["wall_s"] for r in ok]
    record["raw_setup_s"] = [r["setup_s"] for r in setups]
    return record


def reference_s(rec):
    """A call's wall time at the reference speed."""
    return (rec["wall_s"] - rec["probe_s"]) * rec["scale"]


def median(values):
    return statistics.median(values) if values else None


def end_to_end(record):
    return {
        "wall_s": median(record["wall_s"]),
        "setup_s": median(record["setup_s"]),
        "peak_rss_mb": median(record["peak_rss_mb"]),
    }


# metric name -> function-name prefix whose self times it sums
SELF_GROUPS = {"graphs.pipeline.self_s": "graphs.pipeline_", "cli.main.self_s": "cli."}
# work counter name -> the function whose results it counts
COUNTED_BY = {counter: fn for fn, (counter, _read) in COUNTERS.items()}


def per_layer(record, names):
    """Per-layer metrics from the traced call.

    A metric of a function the tracer did not wrap (renamed, moved or never
    there) is None, so that the run is not correct; a function that is
    wrapped but not called reads 0.
    """
    traced = record.get("traced")
    if traced is None or traced["error"] is not None:
        return {name: None for name in names}
    functions, counts, scale = traced["functions"], traced["counts"], traced["scale"]
    wrapped, stage_s = set(traced["wrapped"]), traced["stage_s"]
    untraced = [r for r in record["samples"][:-1] if r["error"] is None]

    def self_sum(prefix):
        if not any(f.startswith(prefix) for f in wrapped):
            return None
        return scale * sum(v["self_s"] for f, v in functions.items() if f.startswith(prefix))

    values = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            value = reference_s(traced) - median(record["wall_s"]) if untraced else None
        elif name.startswith("stage."):
            value = None if stage_s is None else scale * stage_s.get(name[len("stage."):-len(".s")], 0.0)
        elif name.startswith("layer."):
            value = self_sum(name.split(".")[1] + ".")
        elif name in SELF_GROUPS:
            value = self_sum(SELF_GROUPS[name])
        elif name in COUNTED_BY:
            value = counts.get(name, 0) if COUNTED_BY[name] in wrapped else None
        elif base not in wrapped or field not in ("s", "self_s", "calls"):
            value = None
        elif field == "calls":
            value = functions.get(base, {}).get("calls", 0)
        else:
            value = scale * functions.get(base, {}).get(field, 0.0)
        values[name] = value
    return values


# -- output --------------------------------------------------------------------


def print_summary(record, bench):
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}"
          f"  trace {record['trace']}  python {m['python']}  nproc {m['nproc']}"
          f"  commit {m['commit'] or 'unknown'}")
    e2e = end_to_end(record)
    units = {x["name"]: x["unit"] for x in bench["end_to_end"]}
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        values = record[key]
        spread = ""
        if len(values) >= 4:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = f"  quartiles {q1:.4f} .. {q3:.4f}"
        if "raw_" + key in record and values:
            spread += f"  (raw median {median(record['raw_' + key]):.4f})"
        value = "n/a" if e2e[key] is None else f"{e2e[key]:.4f}"
        print(f"  {record['workload']:10s} {key:12s} {value:>10s} {units.get(key, ''):3s}"
              f"  median of {len(values)}{spread}")
    rate = record["failed"] / record["attempted"]
    print(f"  {record['workload']:10s} {'error_rate':12s} {rate:10.4f} 1    "
          f"  {record['failed']} failed / {record['attempted']} attempted")
    for r in record["samples"]:
        if r["error"] is not None:
            print(f"    failed: {r['error']}")


def print_trace(record, layer_values, units):
    functions = record["traced"].get("functions", {})
    print(f"  traced call: {record['traced']['wall_s']:.4f} s raw;"
          " top functions by self time (raw seconds):")
    for f, v in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
        print(f"    {f:45s} self {v['self_s']:9.4f} s  total {v['s']:9.4f} s  calls {v['calls']}")
    for name, value in layer_values.items():
        shown = "n/a" if value is None else (f"{value:.4f}" if isinstance(value, float) else value)
        print(f"    {name:45s} {shown:>12} {units[name]}")


def result_line(record, bench):
    if record["trace"]:
        specs = bench["per_layer"]
        values = per_layer(record, [x["name"] for x in specs])
    else:
        specs = bench["end_to_end"]
        values = end_to_end(record)
    correct = record["failed"] == 0 and all(values[x["name"]] is not None for x in specs)
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in specs},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "trispcat", "__init__.py")):
            raise UsageError(f"no trispcat source tree at {SRC}; run from a checkout of the repo")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
        for name in names:
            parse_workload(name, expected)
    except (UsageError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, expected, work)
            result = result_line(record, bench)
            record["result"] = result
            path = os.path.join(OUT, "records", f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            print_summary(record, bench)
            if args.trace and "traced" in record:
                units = {x["name"]: x["unit"] for x in bench["per_layer"]}
                print_trace(record, {k: v["value"] for k, v in result["metrics"].items()}, units)
            print(f"  record: {os.path.relpath(path, ROOT)}")
            results[name] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
