#!/usr/bin/env python3
"""Report the check sites whose deletion no test notices.

A check site is a ``raise SoundnessError(...)``, ``raise PreconditionError(...)``
or ``report.fail(...)`` statement in ``src/trispcat``.  For each site the
script makes one mutant, with that statement replaced by ``pass``, and runs
the tier-1 suite against it, stopping at the first failure.  A mutant that
passes is a survivor: no test reaches its check.  The test modules that
quote the site's message run first, so a killed site usually stops in them.

    python3 scripts/check_site_mutants.py              # every module
    python3 scripts/check_site_mutants.py symmetry     # one module
    python3 scripts/check_site_mutants.py symmetry graphs equivariant

The checkout is copied once to a temporary directory, and each mutant is
written into that copy in turn, so nothing inside the checkout changes and
one suite runs at a time.  Expect about a tier-1 run per surviving site,
and a few seconds per killed one.
The exit code is 1 when a site survives.  Stopped by SIGTERM or SIGINT, the
script stops the running suite with every process it started and removes
the copy before it exits.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "trispcat")
CHECKS = {"SoundnessError", "PreconditionError"}
SUITE_TIMEOUT_S = 900
MIN_PIECE = 6  # shorter literal pieces of a message, such as ": ", name no module


def _is_site(node):
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
        return isinstance(node.exc.func, ast.Name) and node.exc.func.id in CHECKS
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        return (
            isinstance(func, ast.Attribute) and func.attr == "fail"
            and isinstance(func.value, ast.Name) and func.value.id == "report"
        )
    return False


def check_sites(source):
    """The check-site statements of a module's source, in line order."""
    return sorted(
        (node for node in ast.walk(ast.parse(source)) if _is_site(node)),
        key=lambda node: (node.lineno, node.col_offset),
    )


def message_pieces(node):
    """The literal text that a test quoting the site's message would contain.

    The message is the last argument of the call: a string, or the literal
    parts of an f-string.  ``report.fail`` also gives its stage as the CLI
    prints it, ``stage '<name>'``.
    """
    call = node.exc if isinstance(node, ast.Raise) else node.value
    if not call.args:
        return []
    message, stage = call.args[-1], call.args[0]
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    texts = [n.value for n in parts if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    if isinstance(node, ast.Expr) and isinstance(stage, ast.Constant) and len(call.args) > 1:
        texts.append(f"stage '{stage.value}'")
    return [t.strip() for t in texts if len(t.strip()) >= MIN_PIECE]


def suite_order(node, modules):
    """The test modules, as a list of paths, with those quoting the site's message first.

    `modules` maps each path to its source.  Either group keeps the order of
    `modules`, so the order is the same on every run.
    """
    pieces = message_pieces(node)
    quoting = [path for path, text in modules.items() if any(p in text for p in pieces)]
    return quoting + [path for path in modules if path not in quoting]


def mutant(source, node):
    """`source` with the statement `node` replaced by ``pass``; line numbers are kept."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][: node.col_offset]
    tail = lines[last][node.end_col_offset:]
    return "".join(lines[:first] + [head + "pass" + tail] + ["\n"] * (last - first) + lines[last + 1:])


def suite_passes(copy, modules):
    """Does the suite pass in `copy`, running the test `modules` in the order given?"""
    # no bytecode cache, so a module is never read from a stale one
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *modules]
    suite = None
    try:
        # its own process group, so that stopping it stops the processes its tests start
        suite = subprocess.Popen(
            cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        return suite.wait(timeout=SUITE_TIMEOUT_S) == 0
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the suite is noticed
    finally:
        # a suite still unreaped keeps its pid, so the group id cannot name another group
        if suite is not None and suite.returncode is None:
            os.killpg(suite.pid, signal.SIGKILL)
            suite.wait()


def _exit_on_signal(signum, _frame):
    # unwinds through suite_passes and the temporary directory, which clean up
    sys.exit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", nargs="*", help="modules of the package, such as accat")
    args = parser.parse_args()
    names = sorted(f for f in os.listdir(os.path.join(ROOT, PACKAGE)) if f.endswith(".py"))
    if args.module:
        wanted = {m.removesuffix(".py") + ".py" for m in args.module}
        for missing in sorted(wanted - set(names)):
            parser.error(f"no module {missing.removesuffix('.py')!r} in {PACKAGE}")
        names = [f for f in names if f in wanted]
    survivors = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _exit_on_signal)
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "checkout")
        ignore = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".perfbench", "__pycache__")
        shutil.copytree(ROOT, copy, ignore=ignore)
        modules = {}
        for f in sorted(os.listdir(os.path.join(copy, "tests"))):
            if f.startswith("test_") and f.endswith(".py"):
                with open(os.path.join(copy, "tests", f)) as fh:
                    modules[os.path.join("tests", f)] = fh.read()
        if not suite_passes(copy, list(modules)):
            sys.exit("the unmutated suite fails; no mutant can be judged")
        for name in names:
            path = os.path.join(copy, PACKAGE, name)
            with open(path) as f:
                source = f.read()
            for node in check_sites(source):
                site = f"{name}:{node.lineno}: {ast.get_source_segment(source, node).splitlines()[0]}"
                with open(path, "w") as f:
                    f.write(mutant(source, node))
                survived = suite_passes(copy, suite_order(node, modules))
                print(("SURVIVES " if survived else "killed   ") + site, flush=True)
                if survived:
                    survivors.append(site)
            with open(path, "w") as f:
                f.write(source)
    print(f"{len(survivors)} surviving site(s)")
    for site in survivors:
        print("  " + site)
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main()
