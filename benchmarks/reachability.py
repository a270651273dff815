"""Reachability probe: which ``src/repro`` functions no entry point enters.

A function-level ``sys.setprofile`` hook (and ``threading.setprofile``,
for worker, pacer and server threads) records every code object that is
entered while the probe drives the tree's entry points in this process:

* the examples under ``examples/``, each run as ``__main__``;
* ``repro list`` and ``repro game``;
* ``repro run`` of every registered benchmark: short, simulated, with
  ``--trace`` and ``--metrics-out``;
* ``repro dump`` of one benchmark and a ``repro run --restore`` from it;
* one threaded TPC-C ``repro run`` with injected faults and retries;
* ``repro serve`` with an ``ApiClient`` session: create, start, steer,
  poll, stop and delete a hosted workload;
* ``repro lint`` over the tree's ``src``;
* every ``benchmarks/bench_*.py`` through ``pytest.main``, with the
  tables they write sent to a temporary directory instead of
  ``benchmarks/results``;
* a 1 s ``perfbench`` run of each of its workloads, untraced and traced.

It then walks the tree's sources and prints, per module, the functions
(``def`` statements, methods and nested functions included) that none of
these entered.  A function listed here is either reached only from tests
and benches, or from nowhere.

    python benchmarks/reachability.py [TREE]

``TREE`` is a checkout's root (the directory holding ``src/repro``); it
defaults to the checkout this script lives in, so the probe can run over
another tree (for example a parent made with ``git archive``) to compare
before and after a change.  The hook slows everything it drives several
times over: the run takes about twenty minutes on a 2-vCPU VM, most of
it in the benches, and the wall-clock benches' speed floors may fail
under it; a failed step is reported and the probe goes on.  It is not a
CI job.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


# -- recording ---------------------------------------------------------------

_entered: set = set()


def _hook(frame, event, _arg) -> None:
    if event == "call":
        _entered.add(frame.f_code)


def _defined_functions(src: Path) -> dict[str, dict[tuple[str, int], str]]:
    """Module name -> {(file, first line): qualified name} for every def.

    A decorated function's code object starts at its first decorator, so
    that line is the key.
    """
    modules: dict[str, dict[tuple[str, int], str]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        functions: dict[tuple[str, int], str] = {}

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    lines = [child.lineno, *(decorator.lineno for decorator
                                             in child.decorator_list)]
                    name = prefix + child.name
                    functions[(str(path), min(lines))] = name
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
        if functions:
            modules[module.removesuffix(".__init__")] = functions
    return modules


# -- entry points ------------------------------------------------------------

def _cli(*argv: str) -> None:
    """``repro *argv`` in this process, with the benches' small TPC-C
    populations: the same loader functions run, over fewer rows."""
    from conftest import SMALL_SIZES
    from repro import cli

    create = cli.create_benchmark

    def create_small(name, *args, **kwargs):
        return create(name, *args, **{**SMALL_SIZES.get(name, {}),
                                      **kwargs})

    cli.create_benchmark = create_small
    try:
        code = cli.main(list(argv))
    finally:
        cli.create_benchmark = create
    if code not in (0, None):
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")


def _examples(tree: Path) -> None:
    for path in sorted((tree / "examples").glob("*.py")):
        _step(f"example {path.name}",
              lambda path=path: runpy.run_path(str(path),
                                               run_name="__main__"))


def _runs(out_dir: Path) -> None:
    from repro.benchmarks import benchmark_names
    for name in benchmark_names():
        _step(f"repro run {name}", lambda name=name: _cli(
            "run", "--benchmark", name, "--scale", "0.1", "--rate", "50",
            "--duration", "2", "--workers", "4",
            "--trace", str(out_dir / f"{name}.csv"),
            "--metrics-out", str(out_dir / f"{name}.json")))
    dump = str(out_dir / "voter.dump.json")
    _step("repro dump voter", lambda: _cli(
        "dump", "--benchmark", "voter", "--scale", "0.1", "--output", dump))
    _step("repro run --restore", lambda: _cli(
        "run", "--benchmark", "voter", "--scale", "0.1", "--rate", "50",
        "--duration", "2", "--restore", dump))
    _step("repro run tpcc --threaded (faults)", lambda: _cli(
        "run", "--benchmark", "tpcc", "--scale", "0.1", "--threaded",
        "--rate", "100", "--duration", "2", "--workers", "4",
        "--fault-aborts", "0.05", "--fault-latency", "0.02",
        "--fault-disconnects", "0.01", "--retries", "3"))


class _Failures:
    """pytest plugin: the ids of the tests that failed."""

    def __init__(self) -> None:
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.ids.append(report.nodeid)


def _benches(tree: Path, out_dir: Path) -> None:
    """Every bench through pytest.  ``--benchmark-disable`` runs each
    bench body once and directly: pytest-benchmark otherwise switches
    the profile hook off around the timed function."""
    import conftest  # the tree's benchmarks/conftest.py, as pytest loads it
    import pytest
    conftest.RESULTS_DIR = out_dir / "results"
    files = sorted(str(path)
                   for path in (tree / "benchmarks").glob("bench_*.py"))
    failures = _Failures()
    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        "--benchmark-disable", *files], plugins=[failures])
    if code != 0:
        raise RuntimeError(f"pytest exited {code}; failed: "
                           f"{', '.join(failures.ids) or 'none'}")


def _perfbench(tree: Path) -> None:
    """Each perfbench workload for one second, untraced and traced.
    perfbench pins the calling thread to one CPU; the pin is undone
    after."""
    sys.path.insert(0, str(tree / "perfbench"))
    run = runpy.run_path(str(tree / "perfbench" / "run.py"))["main"]
    import workloads  # perfbench's, importable once its directory is

    def once(name: str, trace: int) -> None:
        code = run(["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace)])
        if code != 0:
            raise RuntimeError(f"perfbench exited {code}")

    cpus = os.sched_getaffinity(0)
    try:
        for name in sorted(workloads.WORKLOADS):
            for trace in (0, 1):
                _step(f"perfbench {name} --trace {trace}",
                      lambda name=name, trace=trace: once(name, trace))
    finally:
        os.sched_setaffinity(0, cpus)


def _client_session(url: str) -> None:
    """Drive one hosted workload through the v1 API over HTTP."""
    from repro.api import ApiClient
    with ApiClient(url) as client:
        client.benchmarks()
        client.create_workload({
            "benchmark": "smallbank", "tenant": "probe",
            "scale_factor": 0.1, "workers": 4, "seed": 1,
            "phases": [{"duration": 3, "rate": 100}]})
        client.workloads()
        client.start_workload("probe")
        client.set_rate("probe", 150)
        preset, weights = next(iter(client.presets("probe").items()))
        client.set_weights("probe", weights)
        client.set_preset("probe", preset)
        client.set_think_time("probe", 0.0)
        client.pause("probe")
        client.resume("probe")
        client.set_faults("probe", {"abort_probability": 0.05})
        client.get_faults("probe")
        client.set_resilience("probe", {"max_attempts": 3})
        client.get_resilience("probe")
        for _ in range(3):
            client.status("probe", window=1.0)
            client.metrics("probe", window=1.0)
            client.all_metrics(window=1.0)
            client.all_status()
            client.tenants()
            time.sleep(0.5)
        client.stop_workload("probe")
        client.delete_workload("probe")


def _serve() -> None:
    """``repro serve`` on the main thread; a client thread runs a session
    against it, then stops it the way Ctrl-C does."""
    captured = io.StringIO()  # the server's stderr: its URL
    failure: list[BaseException] = []

    def client() -> None:
        try:
            deadline = time.monotonic() + 30.0
            while "listening on " not in captured.getvalue():
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not start")
                time.sleep(0.05)
            url = captured.getvalue().split("listening on ")[1].split()[0]
            _client_session(url)
        except BaseException as exc:  # reported on the main thread
            failure.append(exc)
        finally:
            signal.pthread_kill(threading.main_thread().ident,
                                signal.SIGINT)

    thread = threading.Thread(target=client, name="probe-client")
    with contextlib.redirect_stderr(captured):
        thread.start()
        _cli("serve", "--port", "0")
    thread.join()
    if failure:
        raise failure[0]


def _step(label: str, action) -> None:
    started = time.monotonic()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            action()
    except SystemExit as exc:
        if exc.code not in (0, None):
            print(f"  {label}: exit {exc.code}", file=sys.stderr)
    except Exception as exc:
        print(f"  {label}: FAILED {type(exc).__name__}: {exc}",
              file=sys.stderr)
    print(f"  {label}: {time.monotonic() - started:.1f} s",
          file=sys.stderr)


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", nargs="?", default=str(HERE),
                        help="checkout root holding src/repro "
                             "(default: this checkout)")
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    src = tree / "src"
    sys.path[:0] = [str(src), str(tree / "benchmarks")]
    os.chdir(tree)

    threading.setprofile(_hook)
    sys.setprofile(_hook)
    try:
        with tempfile.TemporaryDirectory(prefix="reachability-") as out_dir:
            _examples(tree)
            _step("repro list", lambda: _cli("list"))
            _step("repro game", lambda: _cli("game", "--benchmark",
                                             "voter"))
            _runs(Path(out_dir))
            _step("repro serve + ApiClient", _serve)
            _step("repro lint src", lambda: _cli("lint", str(src)))
            _step("benchmarks/bench_*.py",
                  lambda: _benches(tree, Path(out_dir)))
            _perfbench(tree)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    entered = {(code.co_filename, code.co_firstlineno) for code in _entered}
    total = reached = 0
    lines = []
    for module, functions in sorted(_defined_functions(src).items()):
        missed = [name for key, name in functions.items()
                  if key not in entered]
        total += len(functions)
        reached += len(functions) - len(missed)
        if missed:
            lines.append(f"{module}: {len(missed)} of {len(functions)} "
                         "not entered")
            lines.extend(f"    {name}" for name in missed)
    print(f"entered {reached} of {total} functions in src/repro")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
