"""Workloads of the spikeseq benchmark.

A workload generates its inputs from the benchmark seed in ``setup``, runs
numbered units of work in the timed loop, and has a golden case: fixed
inputs whose outputs were recorded from the seed code (``goldens/``).

Every call into spikeseq goes through a module attribute
(``seqmachine.learn_sequence``, not an imported name) so that the traced
run's wrappers see it, and through ``Runner.call`` so that a raise or a
hang is counted against the operations attempted.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

from spikeseq import sdm, seqmachine

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN_SEED = 20260917  # inputs of the golden cases; independent of --seed
RTOL = 1e-9  # float64 tolerance for margins, confidences and report floats
ATOL = 1e-12
OP_TIMEOUT_S = 30.0  # far above the slowest single operation (~1 s)
ALPHABET = 26


class OpTimeout(Exception):
    """An operation ran past its timeout."""


def _raise_timeout(signum, frame):
    raise OpTimeout("operation timed out")


class Runner:
    """Counts operations; bounds each by a timeout and all by a deadline.

    Every call counts as attempted. A raise, a timeout, a rejected output
    or a call after the deadline counts as failed and is reported on
    stderr. The timeout is a SIGALRM interval timer (the benchmark is one
    thread), which interrupts Python code at its next bytecode.
    """

    def __init__(self, deadline: float, op_timeout: float = OP_TIMEOUT_S):
        self.deadline = deadline
        self.op_timeout = op_timeout
        self.attempted = 0
        self.failed = 0
        signal.signal(signal.SIGALRM, _raise_timeout)

    def call(self, label, fn, *args, **kwargs):
        """Run one operation; returns (ok, result, seconds)."""
        self.attempted += 1
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            self.reject(label, "run deadline passed before the operation started")
            return False, None, 0.0
        signal.setitimer(signal.ITIMER_REAL, min(self.op_timeout, remaining))
        try:
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - t0
        except Exception:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.reject(label, traceback.format_exc())
            return False, None, 0.0
        signal.setitimer(signal.ITIMER_REAL, 0)
        return True, result, elapsed

    def reject(self, label, why):
        """Count an attempted operation as failed."""
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)


@dataclass
class Stats:
    """Per-operation latencies (s), and per unit its throughput and score.

    Items are symbol steps (engine workloads) or attention trials
    (equivalence); a unit's rate is its items over the time of the
    operations that produced them. Workloads add a unit's correct and
    scored predictions to ``hits`` and ``total``.
    """

    latencies: dict = field(default_factory=lambda: defaultdict(list))
    unit_rates: list = field(default_factory=list)
    unit_scores: list = field(default_factory=list)  # (hits, total) per unit
    hits: int = 0
    total: int = 0
    _items: int = 0
    _item_s: float = 0.0

    def add(self, op, seconds, items=0):
        self.latencies[op].append(seconds)
        if items:
            self._items += items
            self._item_s += seconds

    def end_unit(self):
        if self._item_s > 0:
            self.unit_rates.append(self._items / self._item_s)
        self.unit_scores.append((self.hits, self.total))
        self._items, self._item_s, self.hits, self.total = 0, 0.0, 0, 0


# ---------------------------------------------------------------- comparison


def normalise(value):
    """JSON round trip, so that tuples and lists compare alike."""
    return json.loads(json.dumps(value))


def _close(got, want) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w) for g, w in zip(got, want))
        )
    if want is None or isinstance(want, bool):
        return got is want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


def mismatches(got: dict, want: dict) -> list[str]:
    """Keys whose values differ: ``exact`` by equality, ``approx`` by tolerance."""
    got = normalise(got)
    bad = []
    for part, same in (("exact", lambda g, w: g == w), ("approx", _close)):
        g, w = got.get(part, {}), want.get(part, {})
        bad += [f"{part}.{k}" for k in sorted(set(g) | set(w)) if k not in g or k not in w]
        bad += [f"{part}.{k}" for k in sorted(set(g) & set(w)) if not same(g[k], w[k])]
    return bad


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


# ---------------------------------------------------------------- engine


def _recall_record(result) -> tuple:
    steps = result.steps
    return (
        tuple(s.symbol for s in steps),
        result.halt_reason,
        tuple(s.margin for s in steps),
        tuple(s.confidence for s in steps),
    )


def _recall_problem(result, steps: int) -> str | None:
    got = result.steps
    if len(got) > steps:
        return f"{len(got)} steps returned for {steps} requested"
    if result.halt_reason is None and len(got) != steps:
        return "run ended early without a halt reason"
    for s in got:
        if not 0 <= s.symbol < ALPHABET:
            return f"symbol {s.symbol} outside the alphabet"
        if not (math.isfinite(s.margin) and s.margin >= 0.0 and s.confidence > 0.0):
            return f"bad margin {s.margin} or confidence {s.confidence}"
    return None


def _cues(seq, all_prefixes: bool):
    stops = range(1, len(seq)) if all_prefixes else (1,)
    return [(seq[:k], seq[k:]) for k in stops]


def _records_to_golden(records) -> dict:
    return {
        "exact": {"symbols": [r[0] for r in records], "halts": [r[1] for r in records]},
        "approx": {"margins": [r[2] for r in records], "confidences": [r[3] for r in records]},
    }


def _machine_trace(n_locations, n_seqs, length, all_prefixes, n_cue_seqs, seed):
    """Store n_seqs sequences in one machine, recall cues of the first n_cue_seqs."""
    m = seqmachine.SequenceMachine(n_locations=n_locations, seed=seed)
    seqs = seqmachine.sample_sequences(np.random.default_rng(seed), n_seqs, length, ALPHABET)
    for s in seqs:
        seqmachine.learn_sequence(m, s)
    return [
        _recall_record(seqmachine.recall_sequence(m, cue, len(want)))
        for s in seqs[:n_cue_seqs]
        for cue, want in _cues(s, all_prefixes)
    ]


@dataclass
class EngineState:
    machines: list
    seqsets: list


@dataclass(frozen=True)
class EngineWorkload:
    """Machines built in setup and reused; one unit learns a sequence set
    into a cleared memory and recalls it."""

    name: str
    n_locations: int
    length: int
    all_prefixes: bool
    headline: str  # operation whose median latency is the latency metric
    golden_seqs: int
    golden_cue_seqs: int
    n_machines: int = 2
    n_seqsets: int = 8
    n_seqs: int = ALPHABET
    pass_units: tuple = (0,)

    @property
    def accuracy_units(self) -> int:
        return self.n_seqsets

    def setup(self, seed: int, golden: dict) -> EngineState:
        ss = np.random.SeedSequence([seed, self.n_locations, self.length])
        machine_seeds = [int(x) for x in ss.generate_state(self.n_machines)]
        rng = np.random.default_rng(ss.spawn(1)[0])
        seqsets = [
            seqmachine.sample_sequences(rng, self.n_seqs, self.length, ALPHABET)
            for _ in range(self.n_seqsets)
        ]
        machines = [
            seqmachine.SequenceMachine(n_locations=self.n_locations, seed=s)
            for s in machine_seeds
        ]
        return EngineState(machines, seqsets)

    def run_unit(self, st: EngineState, k: int, runner: Runner, stats: Stats) -> list:
        m = st.machines[k % len(st.machines)]
        seqs = st.seqsets[k % len(st.seqsets)]
        m.memory = sdm.CorrelationMatrix.zeros(*m.memory.w.shape)
        for s in seqs:
            ok, _, dt = runner.call("learn_sequence", seqmachine.learn_sequence, m, s)
            if ok:
                stats.add("learn_seq", dt, items=len(s) - 1)
        records = []
        for s in seqs:
            for cue, want in _cues(s, self.all_prefixes):
                ok, r, dt = runner.call(
                    "recall_sequence", seqmachine.recall_sequence, m, cue, len(want)
                )
                if not ok:
                    records.append(None)
                    continue
                problem = _recall_problem(r, len(want))
                if problem:
                    runner.reject("recall_sequence", problem)
                stats.add("recall_seq", dt, items=len(want))
                stats.hits += sum(a == b for a, b in zip(r.symbols, want))
                stats.total += len(want)
                records.append(_recall_record(r))
        return records

    def golden(self) -> dict:
        return _records_to_golden(
            _machine_trace(
                self.n_locations, self.golden_seqs, self.length,
                self.all_prefixes, self.golden_cue_seqs, GOLDEN_SEED,
            )
        )


# ---------------------------------------------------------------- capacity


CAPACITY_SEQS, CAPACITY_LEN = 20, 8  # capacity_experiment defaults (ROADMAP geometry)


@dataclass(frozen=True)
class CapacityWorkload:
    """One unit is one seed of capacity_experiment: a fresh machine learns
    20 sequences of length 8 and recalls each from its first symbol."""

    name: str = "capacity"
    headline: str = "trial"
    pass_units: tuple = (0, 1, 2)
    accuracy_units: int = 32

    def setup(self, seed: int, golden: dict) -> int:
        # capacity_experiment draws its own inputs from base_seed + k; seeds of
        # different benchmark seeds stay apart for the first 10,000 units
        return seed * 10_000

    def run_unit(self, base: int, k: int, runner: Runner, stats: Stats) -> list:
        steps = CAPACITY_SEQS * (CAPACITY_LEN - 1)
        ok, acc, dt = runner.call(
            "capacity_experiment", seqmachine.capacity_experiment, n_seeds=1, base_seed=base + k
        )
        if not ok:
            return [None]
        hits = acc[0] * steps
        if len(acc) != 1 or not 0.0 <= acc[0] <= 1.0 or abs(hits - round(hits)) > 1e-6:
            runner.reject("capacity_experiment", f"accuracy {acc} is not a count of {steps}")
        stats.add("trial", dt, items=2 * steps)  # learned plus requested recall steps
        stats.hits += round(hits)
        stats.total += steps
        return acc

    def golden(self) -> dict:
        out = _records_to_golden(
            _machine_trace(512, CAPACITY_SEQS, CAPACITY_LEN, False, CAPACITY_SEQS, GOLDEN_SEED)
        )
        out["exact"]["accuracies"] = seqmachine.capacity_experiment(
            n_seeds=3, base_seed=GOLDEN_SEED
        )
        return out


# ---------------------------------------------------------------- equivalence


POSENC_PARAMS = dict(seq_len=1024, dim=64, window=1.0)  # T/L = 2**-10: exact scaling
ATTN_BATCH, ATTN_BATCHES = 500, 8  # trials per compare_attention call, calls per unit


def _report(obj) -> dict:
    """Split a posenc report into exact (bool, int, None) and approx (float) fields."""
    exact, approx = {}, {}
    for k, v in vars(obj).items():
        (approx if isinstance(v, float) else exact)[k] = v
    return {"exact": exact, "approx": approx}


def _posenc_checks(p):
    from spikeseq import posenc

    return [
        ("verify_isomorphism", lambda: _report(posenc.verify_isomorphism(p))),
        ("lemma1_rank_invariance", lambda: _report(posenc.lemma1_rank_invariance(p))),
        (
            "rank_counterexample",
            lambda: {"exact": {"query": posenc.rank_counterexample(
                posenc.sinusoidal_pe(p), posenc.spike_timing_pe(p))}, "approx": {}},
        ),
        (
            "distance_profile",
            lambda: {"exact": {}, "approx": {"profile": [
                v for _, v in posenc.distance_profile(posenc.sinusoidal_pe(p))]}},
        ),
    ]


def _merge(parts: dict) -> dict:
    out = {"exact": {}, "approx": {}}
    for name, part in parts.items():
        for kind in out:
            out[kind].update({f"{name}.{k}": v for k, v in part[kind].items()})
    return out


@dataclass
class EquivalenceState:
    params: object
    seed: int
    expected: dict  # golden posenc outputs; the posenc inputs do not vary with the seed


@dataclass(frozen=True)
class EquivalenceWorkload:
    """One unit runs the four posenc checks once and compare_attention on
    4,000 unit-norm trials in batches of 500."""

    name: str = "equivalence"
    headline: str = "posenc_suite"
    pass_units: tuple = (0,)
    accuracy_units: int = 8

    # posenc imports scipy (~1 s), so it is imported here rather than at the
    # top: set-up time of the engine workloads must not pay for it
    def setup(self, seed: int, golden: dict) -> EquivalenceState:
        from spikeseq import posenc

        expected = {
            kind: {k: v for k, v in golden[kind].items() if not k.startswith("attention")}
            for kind in ("exact", "approx")
        }
        return EquivalenceState(posenc.PosEncParams(**POSENC_PARAMS), seed, expected)

    def run_unit(self, st: EquivalenceState, k: int, runner: Runner, stats: Stats) -> list:
        from spikeseq import spikeattn

        parts, suite = {}, 0.0
        for name, check in _posenc_checks(st.params):
            ok, part, dt = runner.call(f"posenc.{name}", check)
            if ok:
                parts[name] = part
                stats.add(name, dt)
                suite += dt
        if len(parts) == len(_posenc_checks(st.params)):
            stats.add("posenc_suite", suite)
            bad = mismatches(_merge(parts), st.expected)
            if bad:
                runner.reject("posenc", f"golden mismatch in {bad}")
        rows_all = []
        for j in range(ATTN_BATCHES):
            attn_seed = int(np.random.SeedSequence([st.seed, k, j]).generate_state(1)[0])
            ok, rows, dt = runner.call(
                "compare_attention", spikeattn.compare_attention,
                n_trials=ATTN_BATCH, d=64, n_k=32, seed=attn_seed, unit_norm=True,
            )
            if not ok:
                continue
            if len(rows) != ATTN_BATCH or not all(r[1] == r[2] and r[3] for r in rows):
                runner.reject("compare_attention", "softmax and WTA winners differ")
            stats.add("attention_batch", dt, items=len(rows))
            stats.hits += sum(r[3] for r in rows)
            stats.total += len(rows)
            rows_all.append(rows)
        return [parts, rows_all]

    def golden(self) -> dict:
        from spikeseq import posenc, spikeattn

        p = posenc.PosEncParams(**POSENC_PARAMS)
        out = _merge({name: check() for name, check in _posenc_checks(p)})
        rows = spikeattn.compare_attention(
            n_trials=ATTN_BATCH, d=64, n_k=32, seed=GOLDEN_SEED, unit_norm=True
        )
        out["exact"]["attention.softmax"] = [r[1] for r in rows]
        out["exact"]["attention.wta"] = [r[2] for r in rows]
        out["exact"]["attention.agree"] = [r[3] for r in rows]
        return out


WORKLOADS = {
    w.name: w
    for w in (
        CapacityWorkload(),
        EngineWorkload(
            "wide_store", n_locations=4096, length=24, all_prefixes=False,
            headline="learn_seq", golden_seqs=8, golden_cue_seqs=8,
        ),
        EngineWorkload(
            "cued_recall", n_locations=512, length=16, all_prefixes=True,
            headline="recall_seq", golden_seqs=ALPHABET, golden_cue_seqs=4,
        ),
        EquivalenceWorkload(),
    )
}
