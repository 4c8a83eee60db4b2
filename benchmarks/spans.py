"""Span tracer for the benchmark's traced run.

The tracer wraps public spikeseq functions at the call sites the package
itself uses (``spikeseq.seqmachine.cmm_write`` rather than
``spikeseq.sdm.cmm_write``, because ``seqmachine`` imported the name) and
puts the originals back when the ``installed`` block ends. Nothing under
``src/`` is edited.

Each call records one span: name, start, end, the span that caused it and
the wrapper's own bookkeeping time. A span's self time is its duration
minus the durations and bookkeeping of its direct children, so wrapper cost
is never charged to the layer that made the call.

With ``counting`` on, probes also record counts at the same boundaries
(active locations, useful write products, bytes allocated by a write). The
counts depend only on the work done, so they repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from spikeseq import context, posenc, sdm, seqmachine, spikeattn


def _probe_recall(tr, args, result):
    tr.counts["recall_halts"] += result.halt_reason is not None


def _probe_decode_address(tr, args, result):
    n = result.n_active
    tr.counts["active_locations"] += n
    tr.counts["no_active"] += n == 0


def _probe_cmm_write(tr, args, result):
    cmm, activation, data = args
    tr.counts["write_products"] += int(np.count_nonzero(data)) * activation.n_active
    tr.cmms[id(cmm)] = cmm


def _probe_compare_attention(tr, args, result):
    tr.counts["attention_trials"] += len(result)
    tr.counts["attention_agree"] += sum(row[3] for row in result)


def _targets():
    """(owner, attribute, span name, probe, measure allocations) per wrapped call site."""
    cls = seqmachine.SequenceMachine
    dec = seqmachine.AddressDecoder
    return [
        (seqmachine, "capacity_experiment", "seqmachine.capacity_experiment", None, False),
        (seqmachine, "learn_sequence", "seqmachine.learn_sequence", None, False),
        (seqmachine, "recall_sequence", "seqmachine.recall_sequence", _probe_recall, False),
        (cls, "__init__", "seqmachine.construct", None, False),
        (seqmachine, "encode_symbol", "seqmachine.encode_symbol", None, False),
        (seqmachine, "decode_burst", "seqmachine.decode_burst", None, False),
        (seqmachine, "update_context", "context.update", None, False),
        (seqmachine, "decode_address", "sdm.decode_address", _probe_decode_address, False),
        (seqmachine, "cmm_write", "sdm.cmm_write", _probe_cmm_write, True),
        (seqmachine, "cmm_read", "sdm.cmm_read", None, False),
        (seqmachine, "calibrate_threshold", "sdm.calibrate_threshold", None, False),
        (dec, "random", "sdm.address_decoder_random", None, False),
        (seqmachine, "to_significance", "codes.to_significance", None, False),
        (context, "nofm", "codes.nofm", None, False),
        (context, "to_significance", "codes.to_significance", None, False),
        (sdm, "nofm", "codes.nofm", None, False),
        (posenc, "verify_isomorphism", "posenc.verify_isomorphism", None, False),
        (posenc, "lemma1_rank_invariance", "posenc.lemma1_rank_invariance", None, False),
        (posenc, "rank_counterexample", "posenc.rank_counterexample", None, False),
        (posenc, "distance_profile", "posenc.distance_profile", None, False),
        (posenc, "sinusoidal_pe", "posenc.sinusoidal_pe", None, False),
        (posenc, "spike_timing_pe", "posenc.spike_timing_pe", None, False),
        (posenc, "gram_matrix", "posenc.gram_matrix", None, False),
        (spikeattn, "compare_attention", "spikeattn.compare_attention", _probe_compare_attention, False),
        (spikeattn, "wta_attention", "spikeattn.wta_attention", None, False),
    ]


def wrapped_attributes():
    """(owner, attribute) of every call site the tracer replaces."""
    return [(owner, attr) for owner, attr, *_ in _targets()]


class Tracer:
    """In-memory spans and counts; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (name index, t0, t1, parent index, bookkeeping s)
        self.counts: Counter = Counter()
        self.alloc_bytes: Counter = Counter()
        self.cmms: dict = {}
        self.counting = False
        self._stack: list[int] = []

    def _wrap(self, name, fn, probe, measure_alloc):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            counting = self.counting
            if counting and measure_alloc:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, t0 - t_in)
                raise
            t1 = clock()
            stack.pop()
            if counting:
                self.counts[name + ".calls"] += 1
                if measure_alloc:
                    self.alloc_bytes[name] += tracemalloc.get_traced_memory()[1] - base
                if probe is not None:
                    probe(self, args, result)
            spans[me] = (idx, t0, t1, parent, (t0 - t_in) + (clock() - t1))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, counting: bool = False):
        """Replace every target with a recording wrapper; restore on exit.

        With ``counting``, probes run and tracemalloc measures the bytes each
        write allocates; the timings of such a block are not representative.
        """
        saved = []
        self.counting = counting
        if counting:
            tracemalloc.start()
        try:
            for owner, attr, name, probe, measure_alloc in _targets():
                original = owner.__dict__[attr]
                fn = original.__func__ if isinstance(original, classmethod) else original
                new = self._wrap(name, fn, probe, measure_alloc)
                if isinstance(original, classmethod):
                    new = classmethod(new)
                saved.append((owner, attr, original))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            if counting:
                tracemalloc.stop()
            self.counting = False

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time, in seconds."""
        dur = defaultdict(float)
        self_t = defaultdict(float)
        calls = Counter()
        for idx, t0, t1, parent, book in self.spans:
            d = t1 - t0
            name = self.names[idx]
            dur[name] += d
            self_t[name] += d
            calls[name] += 1
            if parent >= 0:
                self_t[self.names[self.spans[parent][0]]] -= d + book
        return {
            n: {"calls": calls[n], "total_s": dur[n], "self_s": self_t[n]} for n in calls
        }
