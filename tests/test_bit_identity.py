"""The engine step against a verbatim reference of the dense-support step.

The reference below is the learn and recall step as it was before codes
carried their supports: every product finds its support with
``flatnonzero``, ``nofm`` is a full ``lexsort``, codes round-trip through
tuples, and the machine holds its context state. It runs on the same
machine configuration (codebook, projections, decoder) as the engine, and
everything it returns must be bit-identical: the memory bytes, symbols,
margins, confidences and halt reasons.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from spikeseq.errors import DegenerateInputError, ParameterError
from spikeseq.seqmachine import SequenceMachine, learn_sequence, recall_sequence, sample_sequences

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
        mask = sims >= dec.threshold
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
    m.context_cfg = dataclasses.replace(m.context_cfg, lambda_gate=1.0)
    ref = _Reference(m)
    seqs = sample_sequences(np.random.default_rng(4), 4, 6, 26)
    outcomes = [_outcome(ref.learn, s) for s in seqs]
    outcomes += [_outcome(ref.recall, s[:k], 6 - k) for s in seqs for k in range(1, 6)]
    assert set(outcomes) == {DegenerateInputError}
