"""spikeattn's batched selection and trial blocks against verbatim references.

The references below are ``wta_attention`` as it was when it looped over
the queries and ranked each one's passing keys with ``np.lexsort``, and
``compare_attention`` as it was when it drew and scored one trial at a
time. The batched versions must return exactly what they return: the
same winners (the references list only the keys that passed, so the -1
slots are dropped before comparing), the same ``degenerate`` flags,
outputs equal bit for bit and the same trial rows.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeseq import spikeattn
from spikeseq.spikeattn import (
    AttentionInputs,
    compare_attention,
    softmax_attention,
    wta_attention,
)

# ---------------------------------------------------------------- reference


def _ref_safe_unit_rows(m):
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


def _ref_wta_attention(inp, n_winners=1, threshold=0.0):
    sims = _ref_safe_unit_rows(inp.queries) @ _ref_safe_unit_rows(inp.keys).T
    n_q = sims.shape[0]
    out = np.zeros((n_q, inp.values.shape[1]))
    winners = []
    degenerate = np.zeros(n_q, dtype=bool)
    for q in range(n_q):
        row = sims[q]
        candidates = np.flatnonzero(row >= threshold)
        if candidates.size == 0:
            degenerate[q] = True
            winners.append(np.empty(0, dtype=np.intp))
            continue
        ranked = candidates[np.lexsort((candidates, -row[candidates]))][:n_winners]
        winners.append(ranked)
        row = np.maximum(row, 0.0)  # a negative similarity weighs nothing
        total = row[ranked].sum()
        if total <= 0.0:
            degenerate[q] = True
            continue
        out[q] = (row[ranked] / total) @ inp.values[ranked]
    return out, winners, degenerate


def _ref_compare_attention(n_trials=1000, d=64, n_k=32, seed=0, unit_norm=True):
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(n_trials):
        q = rng.normal(size=(1, d))
        k = rng.normal(size=(n_k, d))
        if unit_norm:
            k = _ref_safe_unit_rows(k)
        v = np.eye(n_k)
        inp = AttentionInputs(q, k, v)
        soft = int(np.argmax((q @ k.T)[0]))
        _, winners, _ = _ref_wta_attention(inp, n_winners=1, threshold=-1.0)
        hard = int(winners[0][0])
        rows.append((t, soft, hard, soft == hard))
    return rows


# ---------------------------------------------------------------- helpers


def _inputs(seed, shape, n_q, n_k, d, d_v, decimals):
    # rounded keys and repeated key rows force equal similarities
    rng = np.random.default_rng(seed)
    keys = np.round(rng.normal(size=shape + (n_k, d)), decimals)
    if n_k > 1:
        keys[..., -1, :] = keys[..., 0, :]
    return AttentionInputs(
        np.round(rng.normal(size=shape + (n_q, d)), decimals),
        keys,
        rng.normal(size=shape + (n_k, d_v)),
    )


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- wta


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_q=st.integers(0, 6),
    n_k=st.integers(1, 12),
    d=st.integers(1, 6),
    d_v=st.integers(1, 5),
    winners_frac=st.floats(0.0, 1.0),
    threshold=st.one_of(st.sampled_from([-1.0, 0.0, 0.3]), st.floats(-1.0, 1.0)),
    decimals=st.integers(0, 2),
)
@example(seed=0, n_q=3, n_k=12, d=2, d_v=3, winners_frac=1.0, threshold=0.3, decimals=0)
def test_wta_matches_the_per_query_loop(seed, n_q, n_k, d, d_v, winners_frac, threshold, decimals):
    n_winners = 1 + round(winners_frac * (n_k - 1))
    inp = _inputs(seed, (), n_q, n_k, d, d_v, decimals)
    res = wta_attention(inp, n_winners=n_winners, threshold=threshold)
    out, winners, degenerate = _ref_wta_attention(inp, n_winners=n_winners, threshold=threshold)
    assert res.winners.shape == (n_q, n_winners)
    assert [row[row >= 0].tolist() for row in res.winners] == [w.tolist() for w in winners]
    assert np.array_equal(res.degenerate, degenerate)
    assert _same_bits(res.output, out)


def test_wta_short_winner_lists_match_bit_for_bit():
    # few keys pass a high threshold, so most queries fill fewer slots than
    # n_winners; a zero-padded product would move the last bits of these
    rng = np.random.default_rng(11)
    short = 0
    for _ in range(200):
        inp = AttentionInputs(
            rng.normal(size=(6, 4)), rng.normal(size=(20, 4)), rng.normal(size=(20, 7))
        )
        res = wta_attention(inp, n_winners=12, threshold=0.2)
        out, winners, degenerate = _ref_wta_attention(inp, n_winners=12, threshold=0.2)
        short += sum(0 < w.size < 12 for w in winners)
        assert [row[row >= 0].tolist() for row in res.winners] == [w.tolist() for w in winners]
        assert np.array_equal(res.degenerate, degenerate)
        assert _same_bits(res.output, out)
    assert short > 100


# ---------------------------------------------------------------- leading axis


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 5),
    n_q=st.integers(1, 4),
    n_k=st.integers(1, 9),
    d=st.integers(1, 6),
    d_v=st.integers(1, 4),
    n_winners=st.integers(1, 9),
    threshold=st.sampled_from([-1.0, 0.0, 0.3]),
    temperature=st.sampled_from([0.1, 1.0, 7.0]),
)
def test_a_block_equals_its_trials_one_at_a_time(
    seed, batch, n_q, n_k, d, d_v, n_winners, threshold, temperature
):
    n_winners = min(n_winners, n_k)
    block = _inputs(seed, (batch,), n_q, n_k, d, d_v, 1)
    soft = softmax_attention(block, temperature)
    hard = wta_attention(block, n_winners=n_winners, threshold=threshold)
    for b in range(batch):
        one = AttentionInputs(block.queries[b], block.keys[b], block.values[b])
        assert _same_bits(soft[b], softmax_attention(one, temperature))
        alone = wta_attention(one, n_winners=n_winners, threshold=threshold)
        assert _same_bits(hard.output[b], alone.output)
        assert np.array_equal(hard.winners[b], alone.winners)
        assert np.array_equal(hard.degenerate[b], alone.degenerate)


# ---------------------------------------------------------------- trials


def test_compare_attention_rows_match_one_trial_at_a_time():
    block = spikeattn._BLOCK_BYTES // (8 * (1 + 32) * 64)
    for n_trials in (0, 1, block - 1, block, block + 1, 500):
        for unit_norm in (True, False):
            args = dict(n_trials=n_trials, d=64, n_k=32, seed=n_trials + 3, unit_norm=unit_norm)
            assert compare_attention(**args) == _ref_compare_attention(**args), args


def test_compare_attention_rows_match_on_one_key_of_one_dimension():
    for unit_norm in (True, False):
        args = dict(n_trials=300, d=1, n_k=1, seed=5, unit_norm=unit_norm)
        assert compare_attention(**args) == _ref_compare_attention(**args)
