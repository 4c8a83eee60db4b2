import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeseq.errors import ParameterError
from spikeseq.spikeattn import (
    AttentionInputs,
    compare_attention,
    softmax_attention,
    wta_attention,
)


def _random_inputs(rng, n_q=4, n_k=6, d=8, d_v=5):
    return AttentionInputs(
        rng.normal(size=(n_q, d)), rng.normal(size=(n_k, d)), rng.normal(size=(n_k, d_v))
    )


def test_inputs_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        AttentionInputs(rng.normal(size=(2, 3)), rng.normal(size=(4, 5)), rng.normal(size=(4, 2)))
    with pytest.raises(ParameterError):
        AttentionInputs(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)), rng.normal(size=(5, 2)))


def test_identical_keys_give_value_mean():
    rng = np.random.default_rng(1)
    key = rng.normal(size=8)
    keys = np.tile(key, (5, 1))
    values = rng.normal(size=(5, 3))
    inp = AttentionInputs(rng.normal(size=(3, 8)), keys, values)
    out = softmax_attention(inp)
    for row in out:
        assert np.allclose(row, values.mean(axis=0), atol=1e-12)


def test_low_temperature_saturates_to_best_value():
    rng = np.random.default_rng(2)
    inp = _random_inputs(rng)
    logits = inp.queries @ inp.keys.T
    out = softmax_attention(inp, temperature=1e-6)
    for q in range(inp.queries.shape[0]):
        assert np.allclose(out[q], inp.values[np.argmax(logits[q])], atol=1e-9)


def test_softmax_hand_case():
    # 2 queries, 3 keys in 1-D; hand-computed 3-term softmax
    q = np.array([[1.0], [2.0]])
    k = np.array([[0.0], [1.0], [-1.0]])
    v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    out = softmax_attention(AttentionInputs(q, k, v), temperature=1.0)
    for qi, x in enumerate([1.0, 2.0]):
        w = np.exp([0.0, x, -x])
        w /= w.sum()
        expect = w @ v
        assert np.allclose(out[qi], expect, atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    inp = _random_inputs(rng)
    out = softmax_attention(inp)
    # shift every logit row by a constant: append a bias direction shared by
    # all keys and give the query weight there
    bias = np.ones((inp.keys.shape[0], 1))
    shifted = AttentionInputs(
        np.hstack([inp.queries, rng.normal(size=(inp.queries.shape[0], 1))]),
        np.hstack([inp.keys, bias]),
        inp.values,
    )
    assert np.allclose(softmax_attention(shifted), out, atol=1e-12)
    # weight rows are probability vectors: identity values expose them
    probe = AttentionInputs(inp.queries, inp.keys, np.eye(inp.keys.shape[0]))
    w = softmax_attention(probe)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w >= 0.0)


def test_wta_top1_equals_argmax_cosine_value():
    rng = np.random.default_rng(4)
    inp = _random_inputs(rng)
    res = wta_attention(inp, n_winners=1, threshold=-1.0)
    qn = inp.queries / np.linalg.norm(inp.queries, axis=1, keepdims=True)
    kn = inp.keys / np.linalg.norm(inp.keys, axis=1, keepdims=True)
    sims = qn @ kn.T
    for q in range(inp.queries.shape[0]):
        assert np.allclose(res.output[q], inp.values[np.argmax(sims[q])], atol=1e-12)


def test_wta_all_keys_no_threshold_is_similarity_weighted_mean():
    rng = np.random.default_rng(5)
    q = np.abs(rng.normal(size=(2, 8)))
    k = np.abs(rng.normal(size=(6, 8)))  # non-negative: sims all positive
    v = rng.normal(size=(6, 3))
    inp = AttentionInputs(q, k, v)
    res = wta_attention(inp, n_winners=6, threshold=-1.0)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    kn = k / np.linalg.norm(k, axis=1, keepdims=True)
    sims = qn @ kn.T
    for i in range(2):
        expect = (sims[i] / sims[i].sum()) @ v
        assert np.allclose(res.output[i], expect, atol=1e-12)


def test_wta_convex_combination_with_nonneg_threshold():
    rng = np.random.default_rng(6)
    for _ in range(50):
        inp = _random_inputs(rng, n_q=3, n_k=8)
        res = wta_attention(inp, n_winners=3, threshold=0.0)
        for q in range(3):
            if res.degenerate[q]:
                assert np.all(res.output[q] == 0.0)
                continue
            idx = res.winners[q][res.winners[q] >= 0]  # -1 slots: fewer keys passed
            assert 1 <= idx.size <= 3
            # output must be reproducible as convex combination of those rows
            qn = inp.queries[q] / np.linalg.norm(inp.queries[q])
            kn = inp.keys[idx] / np.linalg.norm(inp.keys[idx], axis=1, keepdims=True)
            w = kn @ qn
            w = w / w.sum()
            assert np.all(w >= 0) and np.isclose(w.sum(), 1.0)
            assert np.allclose(res.output[q], w @ inp.values[idx], atol=1e-12)


def test_wta_nothing_passes_flags_zero_row():
    q = np.array([[1.0, 0.0]])
    k = np.array([[-1.0, 0.0]])
    v = np.array([[5.0]])
    res = wta_attention(AttentionInputs(q, k, v), n_winners=1, threshold=0.5)
    assert res.degenerate[0]
    assert np.all(res.output == 0.0)


def test_wta_unusable_weights_keep_their_winners():
    # the key passes, but a non-positive similarity sum cannot weight it
    q = np.array([[1.0, 0.0]])
    k = np.array([[-1.0, 0.0]])
    res = wta_attention(AttentionInputs(q, k, np.array([[5.0]])), n_winners=1, threshold=-1.0)
    assert res.degenerate[0]
    assert np.all(res.output == 0.0)
    assert res.winners[0][res.winners[0] >= 0].tolist() == [0]


def test_wta_parameter_validation():
    rng = np.random.default_rng(7)
    inp = _random_inputs(rng)
    with pytest.raises(ParameterError):
        wta_attention(inp, n_winners=0)
    with pytest.raises(ParameterError):
        wta_attention(inp, n_winners=99)
    with pytest.raises(ParameterError):
        softmax_attention(inp, temperature=0.0)


def test_unit_norm_agreement_is_total():
    rows = compare_attention(n_trials=300, seed=0, unit_norm=True)
    assert all(agree for *_, agree in rows)


def test_unnormalized_agreement_is_partial():
    rows = compare_attention(n_trials=300, seed=0, unit_norm=False)
    rate = np.mean([agree for *_, agree in rows])
    assert rate < 1.0


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 128),
    n_k=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    n_trials=st.integers(1, 20),
)
@example(d=1, n_k=1, seed=0, n_trials=1)  # the only key points away from the query
def test_softmax_and_wta_pick_the_same_key_on_unit_norm_keys(d, n_k, seed, n_trials):
    # the query norm scales every logit alike, so on unit-norm keys the
    # highest logit is the highest cosine, also when every cosine is negative
    rows = compare_attention(n_trials=n_trials, d=d, n_k=n_k, seed=seed, unit_norm=True)
    assert len(rows) == n_trials
    assert all(soft == hard and agree for _, soft, hard, agree in rows)


# ---------------------------------------------------------------- invalid inputs


def _one_query(query):
    return AttentionInputs(np.array([query]), np.array([[1.0, 0.0], [0.0, 1.0]]), np.eye(2))


def test_inputs_become_float_arrays():
    lists = AttentionInputs([[1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0]])
    arrays = _one_query([1.0, 2.0])
    assert lists.queries.dtype == np.float64 and lists.values.shape == (2, 1)
    assert np.array_equal(softmax_attention(lists), softmax_attention(arrays) @ [[1.0], [2.0]])


def test_inputs_that_are_not_float_arrays_are_rejected():
    with pytest.raises(ParameterError):
        AttentionInputs([[1.0, 2.0], [3.0]], [[1.0, 0.0]], [[1.0]])  # ragged
    with pytest.raises(ParameterError):
        AttentionInputs([["a", "b"]], [[1.0, 0.0]], [[1.0]])
    with pytest.raises(ParameterError):
        AttentionInputs([1.0, 2.0], [[1.0, 0.0]], [[1.0]])  # 1-D
    with pytest.raises(ParameterError, match="queries"):
        AttentionInputs([[10**400, 1.0]], [[1.0, 0.0]], [[1.0]])  # past the float range


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_rejected(bad):
    # softmax returned NaN rows and WTA read a NaN query as a zero query
    with pytest.raises(ParameterError):
        _one_query([bad, 1.0])


@pytest.mark.parametrize("field", ["keys", "values"])
def test_non_finite_keys_or_values_are_rejected(field):
    parts = {"queries": np.ones((1, 2)), "keys": np.ones((2, 2)), "values": np.eye(2)}
    parts[field][0, 0] = np.nan
    with pytest.raises(ParameterError):
        AttentionInputs(**parts)


def test_mismatched_leading_shapes_are_rejected():
    rng = np.random.default_rng(8)
    keys, values = rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 2))
    with pytest.raises(ParameterError):
        AttentionInputs(rng.normal(size=(3, 1, 4)), keys, values)
    with pytest.raises(ParameterError):
        AttentionInputs(rng.normal(size=(1, 4)), keys, values)


@pytest.mark.parametrize("temperature", [np.nan, np.inf, "1", None, True])
def test_softmax_needs_a_finite_positive_temperature(temperature):
    with pytest.raises(ParameterError):
        softmax_attention(_one_query([1.0, 0.0]), temperature=temperature)


def test_softmax_logits_overflowing_on_a_tiny_temperature_are_rejected():
    inp = AttentionInputs(np.array([[1.0]]), np.array([[1.0], [0.5]]), np.eye(2))
    with pytest.raises(ParameterError):
        softmax_attention(inp, temperature=1e-310)


def test_softmax_logits_overflowing_on_huge_inputs_are_rejected():
    inp = AttentionInputs(np.array([[1e200]]), np.array([[1e200], [0.5]]), np.eye(2))
    with pytest.raises(ParameterError):
        softmax_attention(inp, temperature=1.0)


@pytest.mark.parametrize("field", ["queries", "keys"])
def test_wta_rejects_a_norm_that_overflows(field):
    # a key of 1e200 lost its norm to overflow and became a zero row: winner 0
    # flagged degenerate, a zero output and a RuntimeWarning
    parts = {"queries": np.array([[1.0, 0.0]]), "keys": np.eye(2), "values": np.eye(2)}
    parts[field][0, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflows"):
            wta_attention(AttentionInputs(**parts))


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 5e-324])
def test_wta_scores_a_row_whose_squares_underflow(scale):
    # the squares of these entries are 0, so the query and the key scored as
    # zero rows: a zero output flagged degenerate
    queries = np.array([[scale, 0.0], [0.0, 0.0], [0.0, 1.0]])
    keys = np.array([[1.0, 0.0], [0.0, 0.2], [0.0, -scale]])
    inp = AttentionInputs(queries, keys, np.array([[1.0], [2.0], [3.0]]))
    res = wta_attention(inp, n_winners=1, threshold=0.5)
    assert res.winners[:, 0].tolist() == [0, -1, 1]
    assert res.degenerate.tolist() == [False, True, False]
    assert res.output[:, 0].tolist() == [1.0, 0.0, 2.0]
    worst = wta_attention(inp, n_winners=3, threshold=-1.0)
    assert worst.winners[2].tolist() == [1, 0, 2]  # cosine -1 with the tiny key


@pytest.mark.parametrize("lead", [(), (2,)])
def test_wta_takes_values_without_columns(lead):
    # a (n_k, 0) value block raised a raw ValueError from an ambiguous reshape
    inp = AttentionInputs(np.ones(lead + (3, 2)), np.ones(lead + (2, 2)), np.zeros(lead + (2, 0)))
    res = wta_attention(inp)
    assert res.output.shape == lead + (3, 0) and res.winners.shape == lead + (3, 1)


@pytest.mark.parametrize(
    "values, want", [([[1.0], [2.0]], [[1.0]]), ([[1e300], [-1e300]], [[1e300]])]
)
def test_wta_weights_are_non_negative(values, want):
    # the two kept similarities, 1 and about -1, have a tiny positive sum:
    # unclipped they weighted the values by about +-1e8 (an output of -2.0e8,
    # and inf with an overflow warning at +-1e300); clipped the negative one
    # weighs nothing
    inp = AttentionInputs(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 1e-4]]), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = wta_attention(inp, n_winners=2, threshold=-1.0)
    assert res.output.tolist() == want and res.winners.tolist() == [[0, 1]]
    assert not res.degenerate.any()


def test_wta_threshold_must_not_be_nan():
    # a NaN threshold flagged every query as degenerate
    with pytest.raises(ParameterError):
        wta_attention(_one_query([1.0, 0.0]), threshold=np.nan)


@pytest.mark.parametrize("threshold", ["0", None, True])
def test_wta_threshold_must_be_a_real_number(threshold):
    # a str or None raised a raw TypeError from math.isnan
    with pytest.raises(ParameterError, match="finite number"):
        wta_attention(_one_query([1.0, 0.0]), threshold=threshold)


@pytest.mark.parametrize("n_winners", [1.5, 1.0, True, "1"])
def test_wta_n_winners_must_be_an_integer(n_winners):
    with pytest.raises(ParameterError):
        wta_attention(_one_query([1.0, 0.0]), n_winners=n_winners)


def test_wta_accepts_numpy_integer_winners():
    res = wta_attention(_one_query([1.0, 0.0]), n_winners=np.int64(2), threshold=-1.0)
    assert res.winners.tolist() == [[0, 1]]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_trials": -3},
        {"n_trials": 2.5},
        {"n_trials": True},
        {"d": -1},
        {"d": 0},  # no dimension: every trial agreed vacuously
        {"n_k": 0},
        {"n_k": 1.0},
        {"seed": -1},
        {"seed": 1.5},
    ],
)
def test_compare_attention_rejects_invalid_arguments(kwargs):
    with pytest.raises(ParameterError):
        compare_attention(**{"n_trials": 3, **kwargs})


@pytest.mark.parametrize("seed", [2**63, 2**200])
def test_compare_attention_accepts_any_non_negative_seed(seed):
    # only the memory snapshot's i64 field bounds a seed; these were rejected
    rows = compare_attention(n_trials=3, seed=seed)
    assert len(rows) == 3 and all(agree for *_, agree in rows)


def test_compare_attention_memory_stays_blocked():
    # one unblocked batch of every trial peaks at 24 MiB at 500 trials and
    # grows with the trial count; blocks keep the peak near one block's draws
    import tracemalloc

    compare_attention(n_trials=1)  # first-call imports are not the blocks' memory
    tracemalloc.start()
    try:
        rows = compare_attention(n_trials=4000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 4000
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
