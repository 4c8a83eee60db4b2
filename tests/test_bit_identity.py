"""The engine step against a verbatim reference of the dense-support step.

The reference below is the learn and recall step as it was before codes
carried their supports: every product finds its support with
``flatnonzero``, ``nofm`` is a full ``lexsort``, codes round-trip through
tuples, and the machine holds its context state. It runs on the same
machine configuration (codebook, projections, decoder) as the engine, and
everything it returns must be bit-identical: the memory bytes, symbols,
margins, confidences and halt reasons.
"""

import functools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeseq.context import ContextConfig
from spikeseq.errors import DegenerateInputError, ParameterError
from spikeseq.sdm import CorrelationMatrix
from spikeseq.seqmachine import (
    SequenceMachine,
    capacity_experiment,
    learn_sequence,
    learn_sequences,
    recall_sequence,
    recall_sequences,
    sample_sequences,
)

# ---------------------------------------------------------------- reference


def _support_matvec(matrix, v):
    v = np.asarray(v, dtype=np.float64)
    s = np.flatnonzero(v != 0.0)
    return matrix[:, s] @ v[s]


def _nofm(v, n):
    v = np.asarray(v, dtype=np.float64)
    order = np.lexsort((np.arange(v.size), -v))[:n]
    return tuple(int(i) for i in order)


def _to_significance(order, m_total, alpha):
    out = np.zeros(m_total, dtype=np.float64)
    out[list(order)] = alpha ** np.arange(len(order), dtype=np.float64)
    return out


def _scale(v):
    n = np.linalg.norm(v)
    return v / n if n > 0.0 else v


@dataclass
class _Reference:
    """The engine's configuration, with its own memory and context state."""

    m: SequenceMachine

    def __post_init__(self):
        self.w = np.zeros(self.m.memory.w.shape, order="F")
        self.state = np.zeros(self.m.params.m_total)

    def reset_state(self):
        self.state = np.zeros(self.m.params.m_total)

    def _advance(self, input_vec):
        cfg, p = self.m.context_cfg, self.m.params
        lam = cfg.lambda_gate
        blend = np.zeros(p.m_total)
        if lam > 0.0:
            blend += lam * _scale(_support_matvec(cfg.p1, self.state))
        if lam < 1.0:
            blend += (1.0 - lam) * _scale(_support_matvec(cfg.p2, input_vec))
        if not np.any(blend):
            raise DegenerateInputError("blended context drive is identically zero")
        order = _nofm(blend, p.n_active)
        self.state = _to_significance(order, p.m_total, p.alpha)

    def _decode_address(self, context):
        dec = self.m.decoder
        cnorm = np.linalg.norm(context)
        sims = _support_matvec(dec.addresses, context) / (dec._row_norms * cnorm)
        np.clip(sims, 0.0, 1.0, out=sims)
        sims[sims >= 1.0 - 1e-12] = 1.0
        mask = sims >= self.m.threshold
        return np.where(mask, sims, 0.0)

    def _cmm_write(self, weights, data):
        rows = np.flatnonzero(data != 0.0)
        cols = np.flatnonzero(weights != 0.0)
        block = (rows[:, None], cols)
        self.w[block] = np.maximum(self.w[block], np.outer(data[rows], weights[cols]))

    def _cmm_read(self, weights):
        readout = _support_matvec(self.w, weights)
        confidence = float(weights.sum()) if np.any(readout) else 0.0
        return _nofm(readout, self.m.params.n_active), confidence

    def _decode_burst(self, burst):
        cb = self.m.codebook
        bnorm = np.linalg.norm(burst)
        scores = (cb.encode_matrix @ burst) / (cb._row_norms * bnorm)
        best = int(np.argmax(scores))
        if cb.alphabet_size == 1:
            return best, float(scores[best])
        second = float(np.partition(scores, -2)[-2])
        return best, float(scores[best]) - second

    def _encode(self, symbol):
        return self.m.codebook.encode_matrix[symbol].copy()

    def learn(self, symbols):
        self.reset_state()
        for t in range(1, len(symbols)):
            self._advance(self._encode(symbols[t - 1]))
            weights = self._decode_address(self.state)
            if np.count_nonzero(weights):
                self._cmm_write(weights, self._encode(symbols[t]))

    def recall(self, seed_symbols, steps):
        """(symbols, margins, confidences, halt reason) as the engine returns them."""
        p = self.m.params
        self.reset_state()
        for s in seed_symbols:
            self._advance(self._encode(s))
        out = []
        for _ in range(steps):
            weights = self._decode_address(self.state)
            if np.count_nonzero(weights) == 0:
                return out, "no active memory location"
            order, confidence = self._cmm_read(weights)
            if confidence <= 0.0:
                return out, f"confidence {confidence:g} too low"
            burst = _to_significance(order, p.m_total, p.alpha)
            symbol, margin = self._decode_burst(burst)
            out.append((symbol, margin, confidence))
            self._advance(self._encode(symbol))
        return out, None


# ---------------------------------------------------------------- comparison


def _outcome(fn, *args):
    """What a call returned, or the type of error it raised."""
    try:
        return fn(*args)
    except DegenerateInputError as exc:
        return type(exc)


def _engine_recall(m, cue, steps):
    r = recall_sequence(m, cue, steps)
    return [(s.symbol, s.margin, s.confidence) for s in r.steps], r.halt_reason


def _compare(machine_kwargs, n_seqs, length, all_prefixes, seed):
    """Outcomes of recall before and after storing, each equal to the reference's."""
    m = SequenceMachine(**machine_kwargs, seed=seed)
    ref = _Reference(m)
    seqs = sample_sequences(np.random.default_rng(seed + 1), n_seqs, length, 26)
    cues = [(s[:1], length - 1) for s in seqs]
    if all_prefixes:
        cues = [(s[:k], length - k) for s in seqs for k in range(1, length)]
    outcomes = []
    for cue, steps in cues[:3]:  # nothing stored yet
        outcomes.append(_outcome(_engine_recall, m, cue, steps))
        assert outcomes[-1] == _outcome(ref.recall, cue, steps)
    for s in seqs:
        learned = _outcome(learn_sequence, m, s), _outcome(ref.learn, s)
        assert learned in ((m, None), (DegenerateInputError, DegenerateInputError))
        assert m.memory.w.tobytes() == ref.w.tobytes()
    for cue, steps in cues:
        outcomes.append(_outcome(_engine_recall, m, cue, steps))
        assert outcomes[-1] == _outcome(ref.recall, cue, steps)  # exact float equality
    return outcomes


def _halts(outcomes):
    return {o[1] for o in outcomes}


@pytest.mark.parametrize("seed", [0, 1])
def test_every_prefix_recall_matches_reference_at_512_locations(seed):
    halts = _halts(_compare({}, n_seqs=26, length=12, all_prefixes=True, seed=seed))
    assert {None, "confidence 0 too low"} <= halts


def test_wide_store_matches_reference_at_4096_locations():
    _compare({"n_locations": 4096}, n_seqs=26, length=24, all_prefixes=False, seed=2)


def test_memoryless_gate_matches_reference():
    halts = _halts(_compare({"lambda_gate": 0.0}, n_seqs=12, length=10, all_prefixes=True, seed=3))
    assert None in halts


def test_full_gate_raises_like_reference():
    # with lambda_gate 1 the first update from the empty history has no drive
    # at all: the reference raises DegenerateInputError at every learn of two
    # symbols and every recall, and the machine refuses the gate when built
    with pytest.raises(ParameterError, match="empty start history"):
        SequenceMachine(lambda_gate=1.0)
    m = SequenceMachine(seed=3)
    m.context_cfg = ContextConfig(
        1.0, m.params, np.random.default_rng(np.random.SeedSequence(3).spawn(3)[1])
    )
    ref = _Reference(m)
    seqs = sample_sequences(np.random.default_rng(4), 4, 6, 26)
    outcomes = [_outcome(ref.learn, s) for s in seqs]
    outcomes += [_outcome(ref.recall, s[:k], 6 - k) for s in seqs for k in range(1, 6)]
    assert set(outcomes) == {DegenerateInputError}


# ---------------------------------------------------------------- lockstep


@functools.cache
def _machine(n_locations, lambda_gate, target_active):
    return SequenceMachine(
        n_locations=n_locations, lambda_gate=lambda_gate, target_active=target_active, seed=5
    )


_symbols = st.integers(0, 25)


@settings(max_examples=60, deadline=None)
@given(
    # the last geometry activates ~2 locations, so that chains also halt for
    # want of an active location
    geometry=st.sampled_from([(512, 0.7, 16), (4096, 0.7, 16), (512, 0.0, 16), (512, 0.7, 2)]),
    data=st.data(),
)
def test_lockstep_blocks_match_the_reference_step(geometry, data):
    # B chains per kernel call, any lengths (0 and 1 included), repeated
    # sequences that write the same cells in one step, and cues that halt at
    # different steps: memory bytes and every recall equal the serial
    # reference bit for bit
    m = _machine(*geometry)
    m.memory = CorrelationMatrix.zeros(*m.memory.w.shape)
    ref = _Reference(m)
    seqs = data.draw(st.lists(st.lists(_symbols, max_size=12), min_size=1, max_size=28))
    seqs += data.draw(st.lists(st.sampled_from(seqs), max_size=4))
    learn_sequences(m, seqs)
    for s in seqs:
        ref.learn(s)
    assert m.memory.w.tobytes() == ref.w.tobytes()

    width = data.draw(st.integers(1, 3))
    stored = [s[:width] for s in seqs if len(s) >= width]
    drawn = st.lists(_symbols, min_size=width, max_size=width)
    cues = data.draw(st.lists(st.one_of(drawn, st.sampled_from(stored)) if stored else drawn,
                              min_size=1, max_size=32))
    steps = data.draw(st.integers(0, 10))
    for cue, result in zip(cues, recall_sequences(m, cues, steps), strict=True):
        got = [(r.symbol, r.margin, r.confidence) for r in result.steps], result.halt_reason
        assert got == ref.recall(cue, steps)  # exact float equality


def test_lockstep_chains_halt_at_different_steps():
    # a sparse memory: most chains leave the stored trajectories and halt
    m = SequenceMachine(n_locations=4096, target_active=4, seed=6)
    ref = _Reference(m)
    seqs = sample_sequences(np.random.default_rng(6), 3, 10, 26)
    learn_sequences(m, seqs)
    for s in seqs:
        ref.learn(s)
    cues = [s[:2] for s in seqs] + [[k, (7 * k) % 26] for k in range(26)]
    results = recall_sequences(m, cues, 9)
    for cue, result in zip(cues, results):
        got = [(r.symbol, r.margin, r.confidence) for r in result.steps], result.halt_reason
        assert got == ref.recall(cue, 9)
    halted_at = {len(r.steps) for r in results if r.halt_reason is not None}
    assert len(halted_at) >= 3 and any(r.halt_reason is None for r in results)
    assert {r.halt_reason for r in results} == {
        None, "confidence 0 too low", "no active memory location"
    }


@pytest.mark.parametrize("base_seed", [0, 11, 40])
def test_capacity_experiment_matches_a_serial_reference(base_seed):
    accuracies = capacity_experiment(n_seeds=2, base_seed=base_seed)
    for k, accuracy in enumerate(accuracies):
        ref = _Reference(SequenceMachine(seed=base_seed + k))
        seqs = sample_sequences(np.random.default_rng(base_seed + k + 10_000), 20, 8, 26)
        for s in seqs:
            ref.learn(s)
        correct = 0
        for s in seqs:
            got = [step[0] for step in ref.recall(s[:1], 7)[0]]
            correct += sum(a == b for a, b in zip(got, s[1:]))
        assert accuracy == correct / (20 * 7)
