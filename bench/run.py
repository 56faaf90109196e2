"""Benchmark for syncrate: three fixed workloads, timed end to end or traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload binary-default --seed 0 --seconds 20 --trace 0

The script imports the package from ``src/`` next to it and refuses to run
without it.  One process, one thread, closed loop: each call into the
package is issued only after the previous one returned.  The seed makes the
workload's input stream; the package only ever sees that stream.

``--trace 0`` sets the input up several times, then repeats the workload's
job until ``--seconds`` have passed, and reports medians of the end-to-end
metrics.  ``--trace 1`` alternates an untraced job with a traced one, where
the estimate is rebuilt from the pipeline's public steps with one span per
call, and reports per-layer metrics.  The traced chain must reproduce
``estimate_entropy_rate`` exactly or the run is marked incorrect.

Every operation (estimate call or LZ78 baseline call) is checked: a typed
``EstimationError``, a rate outside [0, log2 k], a bound that does not cover
the distance to the reference, or a negative or non-finite LZ78 value is a
failure.  Failures are counted, never raised.

The last line of standard output is the result object; the lines before it
carry the environment, the raw job times and, when traced, the spans.
"""

import os

# one thread: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "syncrate"
sys.path.insert(0, str(PACKAGE.parent))
try:
    import syncrate
    from syncrate import estimator, generate, lz78, pfsa, streams, sync
except ImportError:
    syncrate = None

SETUP_REPEATS = 3
# criterion 4's reference for r=1.7499; an accepted value, not an exact truth
CHAOS_REFERENCE = 0.2779
# 1/phi: consecutive seeds spread their initial conditions evenly
_GOLDEN = 0.6180339887498949

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bound_bits": "bits",
}

PER_LAYER = {
    "pfsa.simulate.s": "s",
    "generate.chaotic_stream.s": "s",
    "pfsa.analytical_entropy_rate.s": "s",
    "streams.build_count_table.s": "s",
    "streams.build_count_table.calls": "count",
    "streams.build_count_table.peak_mb": "MB",
    "streams.table_entries": "count",
    "sync.collect_derivatives.s": "s",
    "sync.derivatives": "count",
    "sync.hull_vertex_words.s": "s",
    "sync.hull_points": "count",
    "sync.hull_vertices": "count",
    "estimator.estimate.s": "s",
    "estimator.estimate.peak_mb": "MB",
    "estimator.samples_used": "count",
    "estimator.samples_discarded": "count",
    "estimator.useful_share": "share",
    "estimator.clusters": "count",
    "estimator.solve_uncertainty.s": "s",
    "estimator.solve_uncertainty.calls": "count",
    "lz78.lz78_curve.s": "s",
    "lz78.lz78_curve.peak_mb": "MB",
    "lz78.phrases": "count",
    "abs_err_bits": "bits",
    "unaccounted_s": "s",
    "tracing_overhead_s": "s",
}


def _plain(_name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Input:
    """A workload's generated stream and how its job uses it.

    With ``checkpoints`` the job runs the LZ78 curve at those prefix lengths
    and one estimate per prefix; without, one estimate of the whole stream.
    """

    stream: object
    reference: float
    cfg: object
    checkpoints: tuple = ()


def _scaled(cfg, scale, alphabet_size):
    # shrinking the stream alone would leave the draw at full size
    if scale == 1.0:
        return cfg
    return replace(
        cfg, sample_size=max(1, round(cfg.resolved_sample_size(alphabet_size) * scale))
    )


def setup_binary_default(seed, scale, call):
    machine = call("pfsa.two_state_nonsynchronizable", pfsa.two_state_nonsynchronizable)
    stream = call("pfsa.simulate", pfsa.simulate, machine, round(1_000_000 * scale), seed)
    reference = call("pfsa.analytical_entropy_rate", pfsa.analytical_entropy_rate, machine)
    cfg = _scaled(estimator.EstimatorConfig(epsilon=0.05), scale, 2)
    return Input(stream, reference, cfg)


def setup_markov27(seed, scale, call):
    # symbol s leads to state s, so the stream is order-1 Markov; the rows
    # are fixed (their truth is 3.4506 bits, near English bigram entropy)
    # and only the stream follows the seed
    rows = np.random.default_rng(0).dirichlet([0.3] * 27, size=27)
    delta = np.tile(np.arange(27), (27, 1))
    machine = call("pfsa.Pfsa", pfsa.Pfsa, generate.TEXT27, delta, rows)
    stream = call("pfsa.simulate", pfsa.simulate, machine, round(4_500_000 * scale), seed)
    reference = call("pfsa.analytical_entropy_rate", pfsa.analytical_entropy_rate, machine)
    cfg = estimator.EstimatorConfig(
        epsilon=0.05, alpha=0.95, sample_size=200_000,
        max_extension_length=8, min_count=10, seed=0,
    )
    return Input(stream, reference, _scaled(cfg, scale, 27))


def setup_chaos_curve(seed, scale, call):
    x0 = 0.1 + 0.8 * ((seed * _GOLDEN) % 1.0)
    map_cfg = generate.ChaoticMapConfig(r=1.7499, n=round(10_000_000 * scale), x0=x0)
    stream = call("generate.chaotic_stream", generate.chaotic_stream, map_cfg)
    marks = tuple(int(round(m * scale)) for m in np.geomspace(1e4, 1e7, 7))
    cfg = estimator.EstimatorConfig(
        epsilon=0.05, alpha=0.95, sample_size=100_000,
        max_extension_length=5, min_count=200, seed=0,
    )
    return Input(stream, CHAOS_REFERENCE, _scaled(cfg, scale, 2), marks)


WORKLOADS = {
    "binary-default": setup_binary_default,
    "markov27": setup_markov27,
    "chaos-curve": setup_chaos_curve,
}


def _attempt(fn, *args):
    try:
        return fn(*args)
    except syncrate.EstimationError as exc:
        return exc


def run_job(inp, estimate_fn, call):
    """The workload's job: the LZ78 curve if any, then one estimate per prefix.

    Returns one ``(kind, length, result)`` per operation, where a failed
    operation's result is its ``EstimationError``.
    """
    outcomes = []
    if inp.checkpoints:
        rows = _attempt(call, "lz78.lz78_curve", lz78.lz78_curve, inp.stream, list(inp.checkpoints))
        outcomes.append(("lz78", len(inp.stream), rows))
    for n in inp.checkpoints or (len(inp.stream),):
        stream = inp.stream if n == len(inp.stream) else inp.stream.prefix(n)
        outcomes.append(("estimate", n, _attempt(estimate_fn, stream, inp.cfg)))
    return outcomes


def check(inp, outcomes):
    """One message per failed operation."""
    log2k = math.log2(inp.stream.alphabet.size)
    failures = []
    for kind, n, result in outcomes:
        where = f"{kind} at n={n}"
        if isinstance(result, syncrate.EstimationError):
            failures.append(f"{where}: {type(result).__name__}: {result}")
        elif kind == "lz78":
            if not all(math.isfinite(v) and v >= 0.0 for _, v in result):
                failures.append(f"{where}: LZ78 values {result}")
        else:
            h, bound = result.entropy_rate, result.bound
            if not (math.isfinite(h) and 0.0 <= h <= log2k):
                failures.append(f"{where}: rate {h} outside [0, {log2k}]")
            elif not abs(h - inp.reference) <= bound:
                failures.append(
                    f"{where}: |{h} - {inp.reference}| exceeds bound {bound}"
                )
    return failures


def final_estimate(outcomes):
    result = outcomes[-1][2]
    return None if isinstance(result, syncrate.EstimationError) else result


def abs_err(inp, outcomes):
    report = final_estimate(outcomes)
    return abs(report.entropy_rate - inp.reference) if report else None


# ------------------------------------------------------------------ tracing


class Tracer:
    """Spans around calls into the package, kept in memory.

    Each span records its duration and its parent.  While tracemalloc is on,
    it also records the peak of traced memory above the level it started at.
    tracemalloc slows Python loops several-fold, so the timed traced job runs
    without it and a separate pass measures memory.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name):
        memory = tracemalloc.is_tracing()
        frame = {"name": name, "base": 0, "peak": 0}
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1]["peak"] = max(self._open[-1]["peak"], peak)
            tracemalloc.reset_peak()
            frame["base"] = frame["peak"] = current
        parent = self._open[-1]["name"] if self._open else None
        self._open.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            record = {"name": name, "parent": parent, "s": time.perf_counter() - t0}
            self._open.pop()
            if memory:
                peak = max(frame["peak"], tracemalloc.get_traced_memory()[1])
                if self._open:
                    self._open[-1]["peak"] = max(self._open[-1]["peak"], peak)
                record["peak_mb"] = (peak - frame["base"]) / 2**20
            self.spans.append(record)

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def estimate(self, stream, cfg):
        """estimate_entropy_rate rebuilt from its public steps, one span each."""
        k = stream.alphabet.size
        search = self.call("sync.candidate_length", sync.candidate_length, cfg.epsilon, k)
        table = self.call(
            "streams.build_count_table", streams.build_count_table,
            stream, search + cfg.resolved_extension_length(k),
        )
        self.add("streams.table_entries", sum(
            table.level(length)[0].size for length in range(1, table.max_len + 2)
        ))
        floor = self.call(
            "estimator.collect_threshold", estimator.collect_threshold, len(stream), cfg.min_count
        )
        derivs = self.call("sync.collect_derivatives", sync.collect_derivatives, table, search, floor)
        self.add("sync.derivatives", len(derivs))
        # hull_vertex_words solves one LP per distinct point (9 decimals) when k > 2
        points = {tuple(np.round(d, 9)) for d, _ in derivs.entries.values()}
        self.add("sync.hull_points", len(points) if k > 2 and len(points) > 1 else 0)
        vertices = self.call("sync.hull_vertex_words", sync.hull_vertex_words, derivs)
        self.add("sync.hull_vertices", len(vertices))
        chosen = self.call("sync.select_sync_string", sync.select_sync_string, derivs, vertices)
        report = self.call("estimator.estimate", estimator.estimate, stream, chosen, cfg, table)
        self.add("estimator.samples_used", report.samples_used)
        self.add("estimator.samples_discarded", report.samples_discarded)
        self.add("estimator.clusters", report.cluster_count)
        return report

    def job(self, inp):
        """run_job with spans, solve_uncertainty calls inside estimate included."""
        self.spans, self.counts = [], {}
        inner = estimator.solve_uncertainty

        def traced_solve(*args, **kwargs):
            with self.span("estimator.solve_uncertainty"):
                return inner(*args, **kwargs)

        estimator.solve_uncertainty = traced_solve
        try:
            return run_job(inp, self.estimate, self.call)
        finally:
            estimator.solve_uncertainty = inner


def _lz78_phrases(value, n):
    # lz78_curve reports c*log2(c)/n; Newton from above recovers c
    target = value * n
    c = max(target, 2.0)
    for _ in range(60):
        c -= (c * math.log2(c) - target) / (math.log2(c) + 1.0 / math.log(2.0))
    return round(c)


def layer_metrics(setup_spans, job_spans, counts, outcomes, inp, traced_s, untraced_s):
    """Per-layer values of one traced job and the setup before it.

    Counts are totals over the job's operations.  The peak_mb entries stay 0
    here; the memory pass fills them in.
    """
    values = dict.fromkeys(PER_LAYER, 0)
    for span in setup_spans + job_spans:
        for suffix, value in ((".s", span["s"]), (".calls", 1)):
            if span["name"] + suffix in values:
                values[span["name"] + suffix] += value
    values.update(counts)
    used = counts.get("estimator.samples_used", 0)
    drawn = used + counts.get("estimator.samples_discarded", 0)
    values["estimator.useful_share"] = used / drawn if drawn else 0.0
    if inp.checkpoints and not isinstance(outcomes[0][2], syncrate.EstimationError):
        n, value = outcomes[0][2][-1]
        values["lz78.phrases"] = _lz78_phrases(value, n)
    values["abs_err_bits"] = abs_err(inp, outcomes)
    values["unaccounted_s"] = traced_s - sum(s["s"] for s in job_spans if s["parent"] is None)
    values["tracing_overhead_s"] = traced_s - untraced_s
    return values


def peak_metrics(spans):
    """Largest peak_mb per span name, for the per-layer metrics that have one."""
    values = {name: 0.0 for name in PER_LAYER if name.endswith(".peak_mb")}
    for span in spans:
        key = span["name"] + ".peak_mb"
        if key in values:
            values[key] = max(values[key], span["peak_mb"])
    return values


def _signature(outcomes):
    # the report fields the traced chain must reproduce exactly
    out = []
    for kind, n, result in outcomes:
        if isinstance(result, syncrate.EstimationError):
            out.append((kind, n, type(result).__name__))
        elif kind == "lz78":
            out.append((kind, n, tuple(result)))
        else:
            out.append((kind, n, result.entropy_rate, result.bound, result.sync_word,
                        result.samples_used, result.cluster_count))
    return out


class Tally:
    """Operations attempted, failure messages with their counts, and
    disagreements between the traced chain and estimate_entropy_rate."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.mismatches = []

    def add(self, inp, outcomes):
        self.attempted += len(outcomes)
        self.failures.update(check(inp, outcomes))

    def compare(self, plain, traced):
        if _signature(plain) != _signature(traced):
            self.mismatches.append(
                f"traced chain {_signature(traced)} != estimate_entropy_rate {_signature(plain)}"
            )

    @property
    def failed(self):
        return sum(self.failures.values())


# -------------------------------------------------------------------- runs


def _median_of(rows):
    out = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        if any(v is None for v in values):
            out[key] = None
        elif all(isinstance(v, int) for v in values):
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out


def timed_run(setup, seed, scale, seconds, tally):
    """End-to-end metrics: medians over set-ups and over untraced jobs."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inp = None  # free the previous copy first
        t0 = time.perf_counter()
        inp = setup(seed, scale, _plain)
        setup_times.append(time.perf_counter() - t0)
    job_times = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while not job_times or time.perf_counter() - wall0 < seconds:
        t0 = time.perf_counter()
        outcomes = run_job(inp, syncrate.estimate_entropy_rate, _plain)
        job_times.append(time.perf_counter() - t0)
        tally.add(inp, outcomes)
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    report = final_estimate(outcomes)
    metrics = {
        "job_s": statistics.median(job_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bound_bits": report.bound if report else None,
    }
    info = {
        "job_s_samples": job_times,
        "setup_s_samples": setup_times,
        "abs_err_bits": abs_err(inp, outcomes),
        "cpu_share": cpu_share,
    }
    return metrics, info


def traced_run(setup, seed, scale, seconds, tally):
    """Per-layer metrics: untraced and span-timed jobs in turn, then one
    job under tracemalloc for the peaks."""
    tracer = Tracer()
    inp = setup(seed, scale, tracer.call)
    setup_spans = tracer.spans
    rows = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while not rows or time.perf_counter() - wall0 < seconds:
        t0 = time.perf_counter()
        plain = run_job(inp, syncrate.estimate_entropy_rate, _plain)
        untraced_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        traced = tracer.job(inp)
        traced_s = time.perf_counter() - t0
        tally.add(inp, plain)
        tally.add(inp, traced)
        tally.compare(plain, traced)
        rows.append(layer_metrics(
            setup_spans, tracer.spans, tracer.counts, traced, inp, traced_s, untraced_s
        ))
    cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    job_spans = tracer.spans
    tracemalloc.start()
    try:
        traced = tracer.job(inp)
    finally:
        tracemalloc.stop()
    tally.add(inp, traced)
    tally.compare(plain, traced)
    metrics = {**_median_of(rows), **peak_metrics(tracer.spans)}
    info = {
        "traced_jobs": len(rows),
        "cpu_share": cpu_share,
        "spans": setup_spans + job_spans,
        "memory_pass_spans": tracer.spans,
    }
    return metrics, info


def environment():
    commit = "unknown"
    # only this checkout's own repository; git would otherwise search upwards
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink stream lengths and sample counts, for quick checks (0.001..1)",
    )
    args = parser.parse_args(argv)
    if not 0.001 <= args.scale <= 1.0:
        parser.error("--scale must lie in [0.001, 1]")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if syncrate is None or Path(syncrate.__file__).resolve().parent != PACKAGE:
        print(f"bench: syncrate sources not found under {PACKAGE}", file=sys.stderr)
        return 2
    tally = Tally()
    run, units = (traced_run, PER_LAYER) if args.trace else (timed_run, END_TO_END)
    metrics, info = run(WORKLOADS[args.workload], args.seed, args.scale, args.seconds, tally)
    spans = {key: info.pop(key) for key in ("spans", "memory_pass_spans") if key in info}
    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, **info,
        "failed_share": tally.failed / tally.attempted,
        "failures": dict(tally.failures), "chain_mismatches": tally.mismatches,
        "env": environment(),
    }
    print(json.dumps({"info": info}))
    if spans:
        print(json.dumps(spans))
    correct = not tally.failures and not tally.mismatches
    print(json.dumps({
        "correct": correct and all(v is not None for v in metrics.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
