"""The repository benchmark: one workload per invocation, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpcc-closed --seed 1 --seconds 20 \\
        --trace 0 [--out DIR]

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the measured window with span-recording wrappers
around each layer's public functions and reports the per-layer metrics
and the tracing overhead.  The workload inputs derive from ``--seed``.
Times are scaled to a reference host speed (``hostspeed.py``); the run
record keeps the unscaled figures.

Standard output ends with two JSON lines: the run record (source digest,
host, seed, and every metric with its unit and sample count), then the
result ``{"correct", "attempted", "failed", "metrics"}``.  Nothing is
written to disk unless ``--out`` names a directory, which then receives
``record.json`` and, for traced runs, ``spans.jsonl`` (``perfbench-out/``
is ignored by git).  The exit code is
0 when every output check passed, 1 when one failed, and 2 when the
program under test cannot be found.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"


def _fail(message: str, code: int) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_jiffies() -> list[int]:
    """Host-wide CPU time counters (user, nice, system, idle, iowait, irq,
    softirq, steal), or an empty list where ``/proc/stat`` is missing."""
    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def _steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of host CPU time a hypervisor stole during the run."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the run record and spans")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        _fail(f"program source not found under {SOURCE}", 2)
    try:
        spec = json.loads(BENCHMARK_FILE.read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {BENCHMARK_FILE.name}: {exc}", 2)
    if args.seconds <= 0:
        _fail("--seconds must be positive", 2)
    # Tuning knobs of the program under test must not leak in from the
    # environment (chaos probabilities, queue shards, take batch).
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SOURCE))

    import workloads  # noqa: E402  (needs the source path)
    from layers import PER_LAYER  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", 2)
    # One core for the whole process, after counting the CPUs for the
    # worker connections: with the workers spread over two cores of a
    # 2-vCPU Xeon VM, the GIL handoffs alone moved ycsb-open throughput
    # between 2.8k and 4.7k transactions per CPU second from run to run
    # (7.0k-7.8k on one core).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jiffies = _cpu_jiffies()
    report = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    steal = _steal_share(jiffies, _cpu_jiffies())
    if args.trace:
        wanted = PER_LAYER
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    metrics = {}
    for name, unit in wanted:
        value, measured_unit, _samples = report.metrics[name]
        if measured_unit != unit:
            _fail(f"metric {name} measured in {measured_unit}, "
                  f"declared in {unit}", 2)
        metrics[name] = {"value": value, "unit": unit}
    correct = bool(report.checks) and all(report.checks.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": workloads.WORKERS,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "host_steal_share": steal,
        "checks": report.checks,
        "outcomes": report.outcomes,
        "extra": report.extra,
        "metrics": {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples)
                    in report.metrics.items()},
    }
    result = {"correct": correct, "attempted": report.attempted,
              "failed": report.failed, "metrics": metrics}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "record.json").write_text(
            json.dumps({**record, "result": result}, indent=2) + "\n")
        if report.tracer is not None:
            report.tracer.write(args.out / "spans.jsonl")
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
