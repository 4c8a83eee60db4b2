"""posenc's order, rank and profile checks against verbatim references.

The references below are the checks as they were when both grams were
argsorted whole, every query row was ranked by scipy, and each distance
was read through a fancy-index copy. The row-block checks must return
exactly what they return on finite encodings: every report field compares
with ``==`` (NaN matches NaN) and every counterexample query is the same.
Non-finite encodings are rejected at ``gram_matrix``.

``_ref_verify_isomorphism`` is ``verify_isomorphism`` as it was when the
relative error held three (L, L) temporaries and the off-diagonals were
read through ``np.triu_indices``; its report must compare ``==``.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from spikeseq import posenc
from spikeseq.errors import ParameterError
from spikeseq.posenc import (
    IsomorphismReport,
    PosEncParams,
    RankInvarianceReport,
    _rank_invariance,
    _spearman,
    distance_profile,
    freq_compressed_pe,
    gram_matrix,
    lemma1_rank_invariance,
    rank_counterexample,
    sinusoidal_pe,
    spike_latency,
    spike_timing_pe,
    verify_isomorphism,
)

# ---------------------------------------------------------------- reference


def _ref_query_orders(g):
    return np.argsort(-g, axis=1, kind="stable")


def _ref_spearman(x, y):
    rx = stats.rankdata(x)
    ry = stats.rankdata(y)
    if np.array_equal(rx, ry):
        return 1.0
    return float(stats.pearsonr(rx, ry).statistic)


def _ref_row_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ref_rank_invariance(g_pe, g_stpe):
    """lemma1_rank_invariance after its two grams, for any pair of grams."""
    argsorts_equal = bool(np.array_equal(_ref_query_orders(g_pe), _ref_query_orders(g_stpe)))
    argmaxes_equal = bool(
        np.array_equal(np.argmax(g_pe, axis=1), np.argmax(g_stpe, axis=1))
    )
    spearmans = [_ref_spearman(g_pe[q], g_stpe[q]) for q in range(g_pe.shape[0])]
    peak_pe = _ref_row_softmax(g_pe).max(axis=1)
    peak_stpe = _ref_row_softmax(g_stpe).max(axis=1)
    return RankInvarianceReport(
        argsorts_equal,
        argmaxes_equal,
        min(spearmans),
        float(np.min(peak_pe / peak_stpe)),
    )


def _ref_rank_counterexample(a, b):
    differs = (_ref_query_orders(gram_matrix(a)) != _ref_query_orders(gram_matrix(b))).any(axis=1)
    return int(differs.argmax()) if differs.any() else None


def _ref_distance_profile(e):
    g = gram_matrix(e)
    L = e.shape[0]
    out = []
    for delta in range(L):
        idx = np.arange(L - delta)
        out.append((delta, float(np.mean(g[idx, idx + delta]))))
    return out


def _offdiag(g):
    iu = np.triu_indices(g.shape[0], k=1)
    return g[iu]


def _ref_verify_isomorphism(p):
    if p.seq_len < 3:
        raise ParameterError(
            f"verify_isomorphism needs at least 3 positions, got seq_len={p.seq_len}"
        )
    pos = np.arange(p.seq_len, dtype=np.float64)
    phase = np.outer(pos, p.frequencies)
    phase_spike = np.outer(spike_latency(p, pos), p.frequencies)
    # residual of the pairwise identity; differences over pairs reduce to
    # per-band ranges of r = phase - (L/T) * phase_spike
    r = phase - (p.seq_len / p.window) * phase_spike
    max_abs_residual = float(np.max(r.max(axis=0) - r.min(axis=0)))

    scale = (p.window / p.seq_len) ** 2
    g_pe = gram_matrix(sinusoidal_pe(p))
    g_stpe = gram_matrix(spike_timing_pe(p))
    denom = np.maximum(np.abs(scale * g_pe), 1e-300)
    max_gram_rel_error = float(np.max(np.abs(g_stpe - scale * g_pe) / denom))

    x, y = _offdiag(g_pe), _offdiag(g_stpe)
    pearson = float(stats.pearsonr(x, y).statistic)
    spearman = _spearman(x, y)
    return IsomorphismReport(max_abs_residual, max_gram_rel_error, pearson, spearman, scale)


# ---------------------------------------------------------------- comparison


def _same(x, y):
    """Equal values of equal type; NaN matches NaN."""
    if type(x) is not type(y):
        return False
    return x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))


def _assert_same_report(got, want):
    for field in vars(want):
        assert _same(getattr(got, field), getattr(want, field)), field


# row blocks are 128 rows: lengths on both sides of one and two blocks
_SEQ_LENS = st.one_of(
    st.sampled_from([2, 3, 127, 128, 129, 255, 256, 257, 300]), st.integers(2, 300)
)
_DIMS = st.integers(1, 24).map(lambda h: 2 * h)
_WINDOWS = st.sampled_from([1.0, 0.5, 2.0, 0.75, 3.0])  # T/L a power of two or generic
_ENCODERS = st.sampled_from([sinusoidal_pe, spike_timing_pe, freq_compressed_pe])


@st.composite
def _encoding_pairs(draw):
    """Two encodings of one geometry; either may be rounded to force ties,
    and the second may be the first scaled exactly (ties kept) or not."""
    p = PosEncParams(draw(_SEQ_LENS), draw(_DIMS), window=draw(_WINDOWS))
    a = draw(_ENCODERS)(p)
    if draw(st.booleans()):
        a = np.round(a, 1)
    scaled = st.sampled_from([0.5, 0.75]).map(lambda s: s * a)
    b = draw(st.one_of(_ENCODERS.map(lambda enc: enc(p)), scaled))
    if draw(st.booleans()):
        b = np.round(b, 1)
    return a, b


@settings(max_examples=12, deadline=None)
@given(L=_SEQ_LENS, d=_DIMS, T=_WINDOWS)
@example(L=1024, d=64, T=1.0)
@example(L=300, d=64, T=0.75)
@example(L=129, d=16, T=3.0)
def test_lemma1_rank_invariance_matches_reference(L, d, T):
    p = PosEncParams(L, d, window=T)
    want = _ref_rank_invariance(gram_matrix(sinusoidal_pe(p)), gram_matrix(spike_timing_pe(p)))
    _assert_same_report(lemma1_rank_invariance(p), want)


@settings(max_examples=20, deadline=None)
@given(pair=_encoding_pairs())
def test_rank_checks_match_reference_on_tied_encodings(pair):
    a, b = pair
    g_a, g_b = gram_matrix(a), gram_matrix(b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant rank rows: pearsonr warns, both sides NaN
        _assert_same_report(_rank_invariance(g_a, g_b), _ref_rank_invariance(g_a, g_b))
    assert rank_counterexample(a, b) == _ref_rank_counterexample(a, b)
    assert distance_profile(a) == _ref_distance_profile(a)


@pytest.mark.parametrize("L", [16, 128, 1024])
@pytest.mark.parametrize("enc", [sinusoidal_pe, spike_timing_pe, freq_compressed_pe])
@pytest.mark.parametrize("T", [1.0, 0.75, 3.0])
def test_distance_profile_matches_reference(L, enc, T):
    e = enc(PosEncParams(L, 64, window=T))
    assert distance_profile(e) == _ref_distance_profile(e)


@settings(max_examples=15, deadline=None)
@given(
    pair=_encoding_pairs(),
    where=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    side=st.booleans(),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_encodings_are_rejected_by_every_check(pair, where, side, value):
    # rank_counterexample used to answer None ("no counterexample") for
    # all-NaN encodings, and distance_profile to return NaN rows
    a, b = (x.copy() for x in pair)
    target = a if side else b
    i, k = (int(f * n) for f, n in zip(where, target.shape))
    target[i, k] = value
    # the checks that take PosEncParams get a and b from patched encoders
    p = PosEncParams(3, 2)
    encoders = mock.patch.multiple(posenc, sinusoidal_pe=lambda _: a, spike_timing_pe=lambda _: b)
    checks = [
        lambda: rank_counterexample(a, b),
        lambda: distance_profile(target),
        lambda: verify_isomorphism(p),
        lambda: lemma1_rank_invariance(p),
    ]
    with encoders, warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected without a numeric warning
        for check in checks:
            with pytest.raises(ParameterError, match="finite"):
                check()


_SMALL_INTS = st.integers(0, 3).map(float)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 30))
def test_spearman_matches_rankdata_on_tied_integers(data, n):
    x = np.array(data.draw(st.lists(_SMALL_INTS, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(_SMALL_INTS, min_size=n, max_size=n)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant ranks: pearsonr warns, both sides NaN
        assert _same(_spearman(x, y), _ref_spearman(x, y))


def test_rank_checks_match_reference_past_the_first_block():
    # identity encodings give all-tied gram rows; linking positions 200 and
    # 250 changes only rows 200 and 250, so the first difference is in the
    # second row block
    a = np.eye(300)
    b = a.copy()
    b[250, 200] = 0.5
    assert rank_counterexample(a, b) == _ref_rank_counterexample(a, b) == 200
    g_a, g_b = gram_matrix(a), gram_matrix(b)
    _assert_same_report(_rank_invariance(g_a, g_b), _ref_rank_invariance(g_a, g_b))


@pytest.mark.parametrize("L", [3, 16, 129, 300, 1024])
@pytest.mark.parametrize("T", [1.0, 0.75])
def test_verify_isomorphism_matches_reference(L, T):
    p = PosEncParams(L, 64, window=T)
    assert verify_isomorphism(p) == _ref_verify_isomorphism(p)
