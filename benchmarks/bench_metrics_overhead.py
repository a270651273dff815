"""Streaming vs. batch metrics query cost (the ISSUE 2 tentpole claim).

The control API's feedback path used to recompute every aggregate by
copying and rescanning the full sample list under a lock — O(n·types)
per poll, quadratic over a polled run.  ``repro.metrics`` folds each
sample in once at record time, so a feedback query touches O(bins)
state.  This bench records 100k synthetic samples into one ``Results``
container, then times a polling loop (windowed throughput + per-type
quantiles, the altitude query the game issues every tick) through both
paths and asserts the streaming side wins by ≥10×, while agreeing with
the batch numbers: windowed throughput exactly, quantiles within the
documented bin tolerance.  The batch side is the exact reference in
``tests/metrics/batch_reference.py``, run over ``results.samples()``.
"""

from time import perf_counter

from repro.core.results import LatencySample, Results

from conftest import once, report
from metrics import batch_reference as ref  # tests/ is on sys.path

N_SAMPLES = 100_000
N_QUERIES = 50
TXN_TYPES = ("NewOrder", "Payment", "OrderStatus", "Delivery")
WINDOW = 5.0


def build_results(n: int = N_SAMPLES) -> Results:
    """Deterministic synthetic run: ~1k tps for ~100s, skewed latencies."""
    results = Results()
    for i in range(n):
        start = i / 1000.0  # 1 kHz arrival grid
        # Latency pattern spanning ~3 decades, fully deterministic.
        latency = 0.0005 + ((i * 7919) % 997) / 997.0 * 0.05
        if i % 97 == 0:
            latency *= 20.0  # a heavy tail for the p99s to find
        status = "aborted" if i % 53 == 0 else "ok"
        results.record(LatencySample(
            txn_name=TXN_TYPES[i % len(TXN_TYPES)], start=start,
            queue_delay=0.0001, latency=latency, status=status))
    return results


def batch_poll(results: Results, now: float) -> dict:
    """The old feedback path: full rescans of the sample list."""
    samples = results.samples()
    return {
        "throughput": ref.throughput(samples, (now - WINDOW, now)),
        "latency": {name: ref.latency_percentiles(samples, name)
                    for name in ref.txn_names(samples)},
    }


def streaming_poll(results: Results, now: float) -> dict:
    """The new feedback path: O(bins) snapshot, no sample copies."""
    snapshot = results.metrics.snapshot(now, WINDOW)
    return {
        "throughput": snapshot["window"]["throughput"],
        "latency": snapshot["latency"],
    }


def run_overhead():
    results = build_results()
    now = float(int(N_SAMPLES / 1000.0))  # integer-second aligned poll

    started = perf_counter()
    for _ in range(N_QUERIES):
        batch = batch_poll(results, now)
    batch_elapsed = perf_counter() - started

    started = perf_counter()
    for _ in range(N_QUERIES):
        streaming = streaming_poll(results, now)
    streaming_elapsed = perf_counter() - started

    speedup = batch_elapsed / streaming_elapsed if streaming_elapsed else \
        float("inf")
    tolerance = results.metrics.snapshot(now)["bins"]["relative_error"]
    max_rel_err = 0.0
    for name in TXN_TYPES:
        exact = batch["latency"][name]
        binned = streaming["latency"][name]
        for key in ("p50", "p95", "p99"):
            max_rel_err = max(
                max_rel_err, abs(binned[key] - exact[key]) / exact[key])
    return (batch, streaming, batch_elapsed, streaming_elapsed, speedup,
            tolerance, max_rel_err)


def test_streaming_feedback_is_10x_cheaper_than_batch(benchmark):
    (batch, streaming, batch_elapsed, streaming_elapsed, speedup,
     tolerance, max_rel_err) = once(benchmark, run_overhead)
    report(
        "Feedback query cost, batch rescan vs streaming (100k samples)",
        ["path", "50 polls (s)", "per poll (ms)", "5s-window tps"],
        [("batch rescan", round(batch_elapsed, 4),
          round(batch_elapsed / N_QUERIES * 1000, 3),
          round(batch["throughput"], 1)),
         ("streaming", round(streaming_elapsed, 4),
          round(streaming_elapsed / N_QUERIES * 1000, 3),
          round(streaming["throughput"], 1))],
        notes=(f"speedup = {speedup:.1f}x; quantile max rel err = "
               f"{max_rel_err:.4f} (bin tolerance {tolerance:.4f})"))
    # The acceptance criterion: >=10x on a 100k-sample run.
    assert speedup >= 10.0, f"streaming only {speedup:.1f}x faster"
    # Windowed throughput is exact (same per-second flooring).
    assert streaming["throughput"] == batch["throughput"]
    # Quantiles agree within the documented log-bin tolerance.
    assert max_rel_err <= tolerance
    # The streaming totals match the batch counts exactly.
    totals = streaming["latency"]["total"]
    assert totals["count"] == batch_totals_committed()
    assert totals["min"] > 0


def batch_totals_committed() -> int:
    return sum(1 for i in range(N_SAMPLES) if i % 53 != 0)
