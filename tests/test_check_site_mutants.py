import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "check_site_mutants.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("check_site_mutants", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_check_sites_finds_each_kind_of_site_and_no_other_raise():
    source = (
        "def stage(report, x):\n"
        "    if x < 0:\n"
        "        raise InputError(f'bad {x}')\n"
        "    if x == 1:\n"
        "        raise SoundnessError('one')\n"
        "    if x == 2:\n"
        "        raise PreconditionError('two')\n"
        "    if x == 3:\n"
        "        report.fail('three', 'why')\n"
        "    report.done('stage')\n"
    )
    sites = _load_script().check_sites(source)
    assert [node.lineno for node in sites] == [5, 7, 9]


def test_suite_order_runs_the_modules_quoting_a_site_first():
    source = (
        "def stage(report, x):\n"
        "    if x == 1:\n"
        "        raise SoundnessError(f'orbit {x} left its class')\n"
        "    if x == 2:\n"
        "        report.fail('stitch', str(x))\n"
        "    if x == 3:\n"
        "        raise PreconditionError(x)\n"
    )
    script = _load_script()
    left, stitch, bare = script.check_sites(source)
    modules = {
        "tests/test_a.py": "assert code == 0",
        "tests/test_b.py": "match='orbit'",  # too short a piece to pick a module
        "tests/test_c.py": "assert str(got.value) == 'orbit 1 left its class'",
        "tests/test_d.py": "failed: stage 'stitch': 2",
    }
    assert script.message_pieces(left) == ["left its class"]
    assert script.suite_order(left, modules) == [
        "tests/test_c.py", "tests/test_a.py", "tests/test_b.py", "tests/test_d.py",
    ]
    assert script.message_pieces(stitch) == ["stage 'stitch'"]
    assert script.suite_order(stitch, modules) == [
        "tests/test_d.py", "tests/test_a.py", "tests/test_b.py", "tests/test_c.py",
    ]
    # a message with no literal text keeps the given order
    assert script.suite_order(bare, modules) == list(modules)


def _processes_under(path):
    """Pids of the processes whose working directory lies under `path`."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cwd = os.readlink(f"/proc/{pid}/cwd")
        except OSError:
            continue  # ended, or not ours to read
        if cwd == str(path) or cwd.startswith(str(path) + os.sep):
            found.append(int(pid))
    return found


def _wait_for(condition, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(0.05)
    return condition()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="finds the suite through /proc")
def test_a_stopped_run_leaves_no_copy_and_no_suite(tmp_path):
    # the copy is made under TMPDIR, and its suite runs with the copy as its
    # working directory; SIGTERM once that suite runs must remove both
    env = dict(os.environ, TMPDIR=str(tmp_path))
    run = subprocess.Popen(
        [sys.executable, str(SCRIPT), "errors"], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        suite = _wait_for(lambda: _processes_under(tmp_path), 60)
        copies = list(tmp_path.glob("tmp*/checkout"))
        assert suite and copies
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=60) == 128 + signal.SIGTERM
        assert not any(p.exists() for p in copies)
        assert list(tmp_path.glob("tmp*")) == []
        assert _wait_for(lambda: not _processes_under(tmp_path), 10)
    finally:
        if run.poll() is None:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
        for pid in _processes_under(tmp_path):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # already gone
