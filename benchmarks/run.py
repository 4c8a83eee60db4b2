"""Benchmark of spikeseq: one workload per run, a closed loop with one client.

    python3 benchmarks/run.py --workload capacity --seed 1 --seconds 15 --trace 0

Run from any directory; the program under test is ``src/`` next to this
directory. One process, one thread, BLAS pinned to one thread. The run

1. sets up the workload five times in fresh processes (``setup_s``),
2. sets it up in this process and runs units of work for ``--seconds``,
3. replays the first unit and checks it repeats exactly,
4. checks the golden case against ``goldens/<workload>.json``.

With ``--trace 1`` step 2 instead alternates untraced and traced passes of
fixed work and reports per-layer metrics (see ``spans.py``). Human-readable
lines go to stdout first; the last line is one JSON object. The exit code
is 0 only when every operation succeeded and every output matched.
"""

import os

# one client on one thread: pin BLAS before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUN_BUDGET_S = 165.0  # every operation starts within this, so a run ends within 180 s
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "accuracy": "frac",
    "peak_rss_mb": "MB",
}

_PER_CALL = {  # metric -> (span name, scale, unit)
    "sdm.cmm_write_us": ("sdm.cmm_write", 1e6, "us/call"),
    "sdm.decode_address_us": ("sdm.decode_address", 1e6, "us/call"),
    "context.update_us": ("context.update", 1e6, "us/call"),
    "codes.nofm_us": ("codes.nofm", 1e6, "us/call"),
    "sdm.cmm_read_us": ("sdm.cmm_read", 1e6, "us/call"),
    "seqmachine.decode_burst_us": ("seqmachine.decode_burst", 1e6, "us/call"),
    "seqmachine.construct_ms": ("seqmachine.construct", 1e3, "ms/call"),
    "sdm.address_decoder_random_ms": ("sdm.address_decoder_random", 1e3, "ms/call"),
    "sdm.calibrate_threshold_ms": ("sdm.calibrate_threshold", 1e3, "ms/call"),
    "posenc.verify_isomorphism_ms": ("posenc.verify_isomorphism", 1e3, "ms/call"),
    "posenc.lemma1_rank_invariance_ms": ("posenc.lemma1_rank_invariance", 1e3, "ms/call"),
    "posenc.rank_counterexample_ms": ("posenc.rank_counterexample", 1e3, "ms/call"),
    "posenc.distance_profile_ms": ("posenc.distance_profile", 1e3, "ms/call"),
    "spikeattn.wta_attention_us": ("spikeattn.wta_attention", 1e6, "us/call"),
}
_CALLS = {  # metric -> span name counted in the counting pass
    "sdm.cmm_write_calls": "sdm.cmm_write",
    "sdm.decode_address_calls": "sdm.decode_address",
    "context.update_calls": "context.update",
    "codes.nofm_calls": "codes.nofm",
    "sdm.cmm_read_calls": "sdm.cmm_read",
    "seqmachine.decode_burst_calls": "seqmachine.decode_burst",
    "posenc.gram_matrix_calls": "posenc.gram_matrix",
    "spikeattn.wta_attention_calls": "spikeattn.wta_attention",
}
_MODULES = ("seqmachine", "context", "codes", "sdm", "posenc", "spikeattn")
PER_LAYER = {
    **{k: v[2] for k, v in _PER_CALL.items()},
    **{k: "count" for k in _CALLS},
    "sdm.cmm_write_useful_frac": "frac",
    "sdm.cmm_write_bytes_computed": "bytes",
    "seqmachine.loop_self_frac": "frac",
    "sdm.active_locations_mean": "count",
    "sdm.no_active_frac": "frac",
    "sdm.cmm_fill_frac": "frac",
    "seqmachine.recall_halt_frac": "frac",
    "spikeattn.agreement_frac": "frac",
    **{f"{m}.busy_frac": "frac" for m in _MODULES},
    "trace.overhead_frac": "frac",
}


def _ratio(a, b):
    return a / b if b else 0.0


def _ms_quantiles(xs):
    """(p50, p90) in ms; p90 only with at least 100 samples (ten beyond it)."""
    p50 = statistics.median(xs) * 1e3
    p90 = statistics.quantiles(xs, n=10, method="inclusive")[-1] * 1e3 if len(xs) >= 100 else None
    return p50, p90


# ---------------------------------------------------------------- set-up time


def _setup_probe(workload, seed):
    t0 = monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--setup-probe", repr(t0)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure_setup(workload, seed, runner):
    """Median of fresh-process set-ups: interpreter start to first timed operation."""
    times = []
    for _ in range(SETUP_PROBES):
        ok, seconds, _ = runner.call("setup_probe", _setup_probe, workload, seed)
        if ok:
            times.append(seconds)
    return times


# ---------------------------------------------------------------- goldens


def check_golden(wl, runner, context):
    """Run the golden case inside ``context`` and compare it with the file."""
    from workloads import load_golden, mismatches

    with context:
        ok, got, _ = runner.call("golden", wl.golden)
    bad = mismatches(got, load_golden(wl.name)) if ok else []
    if bad:
        runner.reject("golden", f"mismatch in {bad}")


# ---------------------------------------------------------------- timed run


def run_timed(wl, seed, seconds, runner):
    """Closed loop over units for ``seconds``, then a replay of unit 0."""
    from workloads import Stats, load_golden

    state = wl.setup(seed, load_golden(wl.name))
    stats = Stats()
    first = None
    k = 0
    t_end = perf_counter() + seconds
    while k == 0 or perf_counter() < t_end:
        out = wl.run_unit(state, k, runner, stats)
        stats.end_unit()
        first = out if k == 0 else first
        k += 1
    if wl.run_unit(state, 0, runner, Stats()) != first:
        runner.reject("replay", "unit 0 gave different outputs when run again")
    return stats


def end_to_end(wl, stats, setup_times):
    lat = stats.latencies.get(wl.headline) or [0.0]
    # accuracy over the first units only, so that it does not depend on speed
    scored = stats.unit_scores[: wl.accuracy_units]
    return {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "throughput_per_s": statistics.median(stats.unit_rates) if stats.unit_rates else 0.0,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "accuracy": _ratio(sum(h for h, _ in scored), sum(t for _, t in scored)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def details(wl, stats, metrics, runner):
    """Human-readable lines: every latency with p50/p90 and sample count,
    and the named end-to-end metrics of each workload."""
    lines = []
    for op, xs in sorted(stats.latencies.items()):
        p50, p90 = _ms_quantiles(xs)
        tail = f"{p90:12.4f} ms p90" if p90 is not None else "   (p90 needs n >= 100)"
        lines.append(f"  {op + '_p50_ms':34s}{p50:12.4f} ms  {tail}  n={len(xs)}")
    named = {"failed_frac": (_ratio(runner.failed, runner.attempted), "frac")}
    if wl.name == "equivalence":
        named["attention_trials_per_s"] = (metrics["throughput_per_s"], "1/s")
        named["posenc_checks_s"] = (metrics["latency_p50_ms"] / 1e3, "s")
        named["agreement_frac"] = (metrics["accuracy"], "frac")
    else:
        named["symbols_per_s"] = (metrics["throughput_per_s"], "1/s")
        named["recall_accuracy"] = (metrics["accuracy"], "frac")
    lines += [f"  {k:34s}{v:12.6g} {u}" for k, (v, u) in sorted(named.items())]
    return lines


# ---------------------------------------------------------------- traced run


def _add_summary(acc, summary):
    for name, d in summary.items():
        for key, value in d.items():
            acc[name][key] += value


def run_traced(wl, seed, seconds, runner):
    """Per-layer metrics from passes of fixed work (``wl.pass_units``).

    A counting pass first records the counts (they repeat exactly); then
    untraced and traced passes alternate for ``seconds``. Timings come from
    the traced passes and from the traced set-up; each pass's outputs must
    equal the counting pass's, and the golden case is checked traced.
    """
    import numpy as np
    from spans import Tracer  # imports posenc, hence scipy: traced runs only
    from workloads import Stats, load_golden

    tracer = Tracer()
    timing = defaultdict(lambda: defaultdict(float))
    with tracer.installed():
        state = wl.setup(seed, load_golden(wl.name))
    _add_summary(timing, tracer.summary())
    tracer.reset()

    def one_pass():
        return [wl.run_unit(state, k, runner, Stats()) for k in wl.pass_units]

    with tracer.installed(counting=True):
        ref = one_pass()
    counts, alloc = Counter(tracer.counts), Counter(tracer.alloc_bytes)
    fills = [np.count_nonzero(c.w) / c.w.size for c in tracer.cmms.values()]
    tracer.reset()

    busy = defaultdict(lambda: defaultdict(float))
    walls = {False: [], True: []}
    t_end = perf_counter() + seconds
    while not walls[True] or perf_counter() < t_end:
        for traced in (False, True):
            t0 = perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                out = one_pass()
            walls[traced].append(perf_counter() - t0)
            if out != ref:
                runner.reject("trace", f"{'traced' if traced else 'untraced'} pass differs")
        _add_summary(busy, tracer.summary())
        tracer.reset()
    _add_summary(timing, busy)
    check_golden(wl, runner, tracer.installed())

    def per_call(name, scale):
        d = timing.get(name)
        return d["total_s"] / d["calls"] * scale if d else 0.0

    def self_s(names):
        return sum(busy[n]["self_s"] for n in names if n in busy)

    loops = ("seqmachine.learn_sequence", "seqmachine.recall_sequence")
    products = counts["write_products"]
    computed = alloc["sdm.cmm_write"] / 8.0
    traced_wall = sum(walls[True])
    m = {k: per_call(name, scale) for k, (name, scale, _) in _PER_CALL.items()}
    m.update({k: float(counts[name + ".calls"]) for k, name in _CALLS.items()})
    m.update({
        "sdm.cmm_write_useful_frac": _ratio(products, max(computed, products)),
        "sdm.cmm_write_bytes_computed": float(alloc["sdm.cmm_write"]),
        "seqmachine.loop_self_frac": _ratio(
            self_s(loops), sum(busy[n]["total_s"] for n in loops if n in busy)
        ),
        "sdm.active_locations_mean": _ratio(
            counts["active_locations"], counts["sdm.decode_address.calls"]
        ),
        "sdm.no_active_frac": _ratio(counts["no_active"], counts["sdm.decode_address.calls"]),
        "sdm.cmm_fill_frac": float(np.mean(fills)) if fills else 0.0,
        "seqmachine.recall_halt_frac": _ratio(
            counts["recall_halts"], counts["seqmachine.recall_sequence.calls"]
        ),
        "spikeattn.agreement_frac": _ratio(counts["attention_agree"], counts["attention_trials"]),
        "trace.overhead_frac": statistics.median(walls[True]) / statistics.median(walls[False])
        - 1.0,
    })
    for mod in _MODULES:
        m[f"{mod}.busy_frac"] = _ratio(
            self_s([n for n in busy if n.startswith(mod + ".")]), traced_wall
        )
    return m


# ---------------------------------------------------------------- environment


def environment(args):
    """What the numbers depend on, printed with every result."""
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        import ctypes

        lib = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
        blas_threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
    except (OSError, StopIteration, AttributeError):
        blas_threads = os.environ["OPENBLAS_NUM_THREADS"] + " (env)"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(HERE.parent.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "spikeseq").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads, "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    start = monotonic()
    args = parse_args(argv)
    if not (SRC / "spikeseq" / "seqmachine.py").is_file():
        print(f"error: no spikeseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Runner, load_golden

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        wl.setup(args.seed, load_golden(wl.name))
        print(monotonic() - args.setup_probe)
        return 0

    runner = Runner(deadline=start + RUN_BUDGET_S)
    if args.trace:
        metrics = run_traced(wl, args.seed, args.seconds, runner)
        units, lines = PER_LAYER, []
    else:
        setup_times = measure_setup(wl.name, args.seed, runner)
        stats = run_timed(wl, args.seed, args.seconds, runner)
        metrics = end_to_end(wl, stats, setup_times)
        units = END_TO_END
        check_golden(wl, runner, contextlib.nullcontext())
        lines = details(wl, stats, metrics, runner)

    print("env " + json.dumps(environment(args)))
    print(f"{wl.name}: {'per-layer (traced)' if args.trace else 'end-to-end'} metrics")
    for name, unit in units.items():
        print(f"  {name:34s}{metrics[name]:12.6g} {unit}")
    for line in lines:
        print(line)
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
