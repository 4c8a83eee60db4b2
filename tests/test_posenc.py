import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import spikeseq
from spikeseq.errors import ParameterError
from spikeseq.posenc import (
    PosEncParams,
    _pearson,
    _query_orders,
    _rankdata,
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

P128 = PosEncParams(seq_len=128, dim=128, window=1.0)
_seq_lens = st.integers(2, 256)
_dims = st.integers(1, 64).map(lambda h: 2 * h)


def test_params_validation():
    with pytest.raises(ParameterError):
        PosEncParams(1, 8)
    with pytest.raises(ParameterError):
        PosEncParams(8, 7)
    with pytest.raises(ParameterError):
        PosEncParams(8, 8, window=0.0)


@pytest.mark.parametrize(
    "seq_len, dim",
    [(4.5, 4), (8, 4.0), (True, 4), (8, np.float64(4.0))],
    ids=["float-length", "float-dim", "bool-length", "numpy-float-dim"],
)
def test_params_must_be_integers(seq_len, dim):
    # PosEncParams(4.5, 4) used to encode 5 positions while spike_latency
    # divided by 4.5
    with pytest.raises(ParameterError, match="must be an integer"):
        PosEncParams(seq_len, dim)


@pytest.mark.parametrize(
    "L, d, window",
    [(8, 4, 1e300), (8, 4, 1e-300), (8, 4, 8 * 2.0**-512), (8, 4, 8 * 2.0**511),
     (8, 2**1100, 1.0)],
    ids=["overflow", "underflow", "subnormal-scale", "sum-overflow", "huge-dim"],
)
def test_params_reject_a_window_out_of_float_range(L, d, window):
    # 1e300 raised a raw OverflowError in verify_isomorphism; 1e-300 made the
    # spike-timing gram zero, so the correlations read NaN and Lemma 1 "failed";
    # 8 * 2**511 leaves (T/L)^2 * d/2 finite but overflowed the mean of the
    # off-diagonals, a NaN Pearson coefficient
    with pytest.raises(ParameterError, match="float range"):
        PosEncParams(L, d, window=window)


@pytest.mark.parametrize("window", [8 * 2.0**-511, 8 * 2.0**508], ids=["smallest", "largest"])
def test_params_at_the_float_range_bounds_give_finite_reports(window):
    # the smallest and largest powers of two accepted at L=8, d=4: (T/L)^2 is
    # 2**-1022, the smallest normal float, or 2**1016, where
    # (T/L)^2 * (d/2) * L^2 = 2**1023
    p = PosEncParams(8, 4, window=window)
    iso = verify_isomorphism(p)
    assert all(math.isfinite(v) for v in vars(iso).values())
    assert iso.max_gram_rel_error <= 1e-12 and iso.pearson_r >= 0.999999
    lemma = lemma1_rank_invariance(p)
    # products below the normal range round as a generic window's logits do
    assert lemma.all_argmaxes_equal and lemma.min_query_spearman >= 0.98
    assert math.isfinite(lemma.min_softmax_peak_ratio)
    assert all(math.isfinite(v) for _, v in distance_profile(spike_timing_pe(p)))


@pytest.mark.parametrize("bad", [{"base": math.nan}, {"window": math.inf}])
def test_params_reject_non_finite_base_and_window(bad):
    # either one makes every field of verify_isomorphism's report NaN
    with pytest.raises(ParameterError, match="finite"):
        PosEncParams(16, 8, **bad)


@pytest.mark.parametrize("field", ["base", "window"])
def test_params_base_and_window_must_be_real_numbers(field):
    # a str or None raised a raw TypeError from the range comparison, and a
    # huge int an OverflowError once the frequencies were taken
    for value in ["x", None, True, np.bool_(True), 1 + 0j, 10**400]:
        with pytest.raises(ParameterError):
            PosEncParams(8, 4, **{field: value})
    for value in [2, 2.5, np.float64(2.5), np.float32(2.5), np.int64(2)]:
        p = PosEncParams(8, 4, **{field: value})
        assert getattr(p, field) == value and np.isfinite(spike_timing_pe(p)).all()


def test_sinusoidal_row_zero_and_entry():
    pe = sinusoidal_pe(PosEncParams(8, 6))
    assert np.array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=0)
    assert pe[1, 0] == pytest.approx(0.841471, abs=1e-6)


def test_sinusoidal_self_dot_is_half_dim():
    for L, d in [(16, 8), (128, 128), (64, 32)]:
        pe = sinusoidal_pe(PosEncParams(L, d))
        dots = np.einsum("ij,ij->i", pe, pe)
        assert np.max(np.abs(dots - d / 2)) < 1e-9


def test_spike_timing_is_scaled_sinusoidal():
    p = PosEncParams(32, 16, window=4.0)
    pe = sinusoidal_pe(p)
    st = spike_timing_pe(p)
    assert np.array_equal(st, (4.0 / 32) * pe)
    # T=L: identical
    p1 = PosEncParams(32, 16, window=32.0)
    assert np.array_equal(spike_timing_pe(p1), sinusoidal_pe(p1))


def test_spike_latency_endpoints():
    p = PosEncParams(128, 16, window=3.0)
    assert spike_latency(p, 0) == 0.0
    assert spike_latency(p, 128) == 3.0


def test_freq_compressed_row_zero_and_phase_range():
    p = PosEncParams(128, 64)
    fc = freq_compressed_pe(p)
    assert np.all(fc[0, 0::2] == 0.0)
    # compressed arguments stay below one radian
    args = np.outer(np.arange(128) / 128.0, p.frequencies)
    assert args.max() < 1.0


def test_isomorphism_report_at_figure_parameters():
    rep = verify_isomorphism(P128)
    assert rep.max_abs_residual <= 1e-9
    assert rep.max_gram_rel_error <= 1e-12
    assert rep.pearson_r >= 0.999999
    assert rep.spearman_rho == 1.0
    assert rep.gram_scale_checked == pytest.approx(1.0 / 128**2, abs=0)


def test_isomorphism_gram_pairs_quarter_scale():
    # Fig-1 relation: every pair lies on y = x / L^2
    g_pe = gram_matrix(sinusoidal_pe(P128))
    g_st = gram_matrix(spike_timing_pe(P128))
    assert np.array_equal(g_st, g_pe / 16384.0)


def test_isomorphism_needs_three_positions():
    # two positions give one off-diagonal pair: nothing to correlate
    p2 = PosEncParams(2, 8)
    with pytest.raises(ParameterError, match="at least 3 positions"):
        verify_isomorphism(p2)
    assert verify_isomorphism(PosEncParams(3, 8, window=3.0)).spearman_rho == 1.0
    # two positions stay valid for the encoders and the other checks
    assert sinusoidal_pe(p2).shape == (2, 8)
    assert lemma1_rank_invariance(p2).all_argsorts_equal
    assert rank_counterexample(sinusoidal_pe(p2), spike_timing_pe(p2)) is None
    assert len(distance_profile(sinusoidal_pe(p2))) == 2


def test_isomorphism_t_equals_l_scale_one():
    rep = verify_isomorphism(PosEncParams(64, 32, window=64.0))
    assert rep.max_abs_residual == 0.0
    assert rep.gram_scale_checked == 1.0
    assert rep.max_gram_rel_error == 0.0


def test_isomorphism_parameter_sweep():
    rng = np.random.default_rng(0)
    for _ in range(8):
        L = int(rng.integers(16, 257))
        d = int(rng.integers(4, 65)) * 2
        T = float(rng.uniform(0.25, 8.0))
        rep = verify_isomorphism(PosEncParams(L, d, window=T))
        assert rep.max_abs_residual <= 1e-9
        assert rep.max_gram_rel_error <= 1e-9
        assert rep.pearson_r >= 0.999999
        # generic T/L is not a power of two, so mathematically tied gram
        # entries can swap within rounding noise (measured ~0.99999 here;
        # a genuinely different ordering scores ~0.84)
        assert rep.spearman_rho >= 0.999


@settings(max_examples=40, deadline=None)
@given(L=_seq_lens, d=_dims, k=st.integers(-8, 3))
def test_gram_identity_exact_for_power_of_two_scale(L, d, k):
    # T/L = 2**k scales every entry and product without rounding
    p = PosEncParams(L, d, window=L * 2.0**k)
    g_pe = gram_matrix(sinusoidal_pe(p))
    g_st = gram_matrix(spike_timing_pe(p))
    assert np.array_equal(g_st, 4.0**k * g_pe)
    assert np.array_equal(
        np.argsort(-g_st, axis=1, kind="stable"), np.argsort(-g_pe, axis=1, kind="stable")
    )


@settings(max_examples=40, deadline=None)
@given(L=_seq_lens, d=_dims, T=st.floats(0.01, 100.0))
def test_gram_identity_within_rounding_for_any_scale(L, d, T):
    # relative to the largest entry, the self-dot d/2: an entry near zero
    # (cancelling bands) has no useful relative error of its own
    p = PosEncParams(L, d, window=T)
    scale = (T / L) ** 2
    g_pe = gram_matrix(sinusoidal_pe(p))
    g_st = gram_matrix(spike_timing_pe(p))
    assert np.max(np.abs(g_st - scale * g_pe)) <= 1e-12 * scale * (d / 2)


def test_lemma1_rank_invariance_exact():
    rep = lemma1_rank_invariance(P128)
    assert rep.all_argsorts_equal
    assert rep.all_argmaxes_equal
    assert rep.min_query_spearman == 1.0
    # downscaled logits soften the softmax: PE peaks strictly higher
    assert rep.min_softmax_peak_ratio > 1.0


def test_lemma1_exact_for_power_of_two_scale():
    for L, T in [(64, 1.0), (128, 2.0), (32, 0.5)]:
        rep = lemma1_rank_invariance(PosEncParams(L, 48, window=T))
        assert rep.all_argsorts_equal
        assert rep.min_query_spearman == 1.0


def test_lemma1_generic_windows_up_to_tied_logits():
    # value-level identity implies order up to mathematically tied logits
    # (positions mirrored around the query); those ties swap freely under
    # independent rounding, costing ~1e-2 spearman at worst for small L,
    # while a genuinely different ordering scores ~0.74-0.84
    for T in (0.75, 3.0, 7.3):
        p = PosEncParams(96, 48, window=T)
        g_pe = gram_matrix(sinusoidal_pe(p))
        g_st = gram_matrix(spike_timing_pe(p))
        rescaled = g_st * (p.seq_len / p.window) ** 2
        assert np.max(np.abs(rescaled - g_pe)) <= 1e-9
        rep = lemma1_rank_invariance(p)
        assert rep.all_argmaxes_equal
        assert rep.min_query_spearman >= 0.98


@pytest.mark.parametrize("check", ["lemma1_rank_invariance", "rank_counterexample"])
def test_rank_checks_peak_memory(check):
    # the two (L, L) float64 grams take 16 MiB at L=1024; the checks compare
    # them in row blocks of a few (128, L) arrays each (about 20 MiB in all),
    # while one whole (L, L) order or rank matrix on top passes 24 MiB
    p = PosEncParams(1024, 64)
    pe, stpe = sinusoidal_pe(p), spike_timing_pe(p)
    run = {
        "lemma1_rank_invariance": lambda: lemma1_rank_invariance(p),
        "rank_counterexample": lambda: rank_counterexample(pe, stpe),
    }[check]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 1024 * 1024


def test_verify_isomorphism_peak_memory():
    # the two (L, L) float64 grams take 16 MiB at L=1024; the relative error
    # is taken over row blocks and each gram is freed once its off-diagonals
    # are read (about 23 MiB), where two gram-sized temporaries for the
    # relative error passed 39 MiB
    p = PosEncParams(1024, 64)
    tracemalloc.start()
    try:
        verify_isomorphism(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 1024 * 1024


@st.composite
def _logit_blocks(draw):
    """A finite (rows, L) block: normal, rounded to few values, or small
    integers, with repeated columns and zeros of both signs at times; L on
    both sides of the 128-row block width, or drawn."""
    L = draw(st.one_of(st.sampled_from([2, 127, 128, 129, 300]), st.integers(2, 300)))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = {
        "normal": lambda: rng.normal(size=(rows, L)),
        "rounded": lambda: np.round(rng.normal(size=(rows, L)), 1),
        "ints": lambda: rng.integers(-2, 3, (rows, L)).astype(float),
    }[draw(st.sampled_from(["normal", "rounded", "ints"]))]()
    if draw(st.booleans()):  # repeated columns: every row ties there
        g[:, rng.integers(0, L, L // 2)] = g[:, rng.integers(0, L, L // 2)]
    if draw(st.booleans()):
        g[rng.random((rows, L)) < 0.2] = 0.0
        g[rng.random((rows, L)) < 0.2] = -0.0
    return g


@settings(max_examples=300, deadline=None)
@given(g=_logit_blocks())
@example(g=np.zeros((2, 129)))
@example(g=np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]]))
def test_query_orders_equal_the_stable_argsort(g):
    order, values = _query_orders(g)
    want = np.argsort(-g, axis=1, kind="stable")
    assert order.dtype == want.dtype and np.array_equal(order, want)
    # bit for bit: signed zeros are the gathered entries
    assert values.tobytes() == np.take_along_axis(g, want, axis=1).tobytes()


def test_freq_compressed_breaks_rank_order():
    q = rank_counterexample(sinusoidal_pe(P128), freq_compressed_pe(P128))
    assert q is not None
    # while PE vs STPE has no counterexample
    assert rank_counterexample(sinusoidal_pe(P128), spike_timing_pe(P128)) is None


@pytest.mark.parametrize("L", [16, 128])
def test_rank_counterexample_is_the_first_differing_query(L):
    # the first row where the per-query stable argsorts of the two grams differ
    p = PosEncParams(L, 64, window=1.0)
    g_pe = gram_matrix(sinusoidal_pe(p))
    g_fc = gram_matrix(freq_compressed_pe(p))
    want = next(
        q
        for q in range(L)
        if not np.array_equal(
            np.argsort(-g_pe[q], kind="stable"), np.argsort(-g_fc[q], kind="stable")
        )
    )
    assert rank_counterexample(sinusoidal_pe(p), freq_compressed_pe(p)) == want


def test_distance_profile_reference_and_shape():
    prof = distance_profile(sinusoidal_pe(P128))
    assert prof[0] == (0, pytest.approx(64.0, abs=1e-9))
    assert len(prof) == 128
    assert prof[1][1] < prof[0][1]


def test_distance_profile_spike_timing_scaling():
    ps = dict(distance_profile(sinusoidal_pe(P128)))
    pst = dict(distance_profile(spike_timing_pe(P128)))
    for delta in ps:
        assert pst[delta] == pytest.approx(ps[delta] / 16384.0, rel=1e-12, abs=1e-15)


def test_freq_compressed_profile_is_flat():
    # distance-profile variance of the compressed encoding under 5% of the
    # sinusoidal one (computed ratio ~0.0069; the std ratio is ~0.083)
    ps = np.array([v for d, v in distance_profile(sinusoidal_pe(P128)) if d >= 1])
    pf = np.array([v for d, v in distance_profile(freq_compressed_pe(P128)) if d >= 1])
    assert pf.var() / ps.var() < 0.05


def test_gram_shift_structure():
    # dot products depend only on |p - q|
    g = gram_matrix(sinusoidal_pe(P128))
    for delta in range(1, 128):
        band = np.diag(g, k=delta)
        assert np.ptp(band) < 1e-9


def test_rank_counterexample_shape_guard():
    with pytest.raises(ParameterError):
        rank_counterexample(
            sinusoidal_pe(PosEncParams(8, 4)), sinusoidal_pe(PosEncParams(8, 6))
        )


def test_checks_reject_an_encoding_that_is_not_a_matrix():
    v = np.arange(8.0)
    with pytest.raises(ParameterError, match="shape"):
        rank_counterexample(v, v)
    with pytest.raises(ParameterError, match="shape"):
        distance_profile(v)


@pytest.mark.parametrize(
    "e",
    [[[1.0, 2.0], [3.0]], [["a", "b"]], None, [[1j]], [[1.0, None]]],
    ids=["ragged", "strings", "none", "complex", "none-entry"],
)
def test_gram_matrix_rejects_what_is_not_a_numeric_matrix(e):
    with pytest.raises(ParameterError):
        gram_matrix(e)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
def test_gram_matrix_rejects_a_non_finite_gram(value):
    # 1e200 is finite, but its dot products overflow
    e = sinusoidal_pe(PosEncParams(8, 4))
    e[5] = value
    with pytest.raises(ParameterError, match="finite"):
        gram_matrix(e)


def test_gram_matrix_takes_nested_lists():
    assert np.array_equal(gram_matrix([[1, 2], [3, 4]]), [[5.0, 11.0], [11.0, 25.0]])
    assert rank_counterexample([[1, 0], [0, 1]], [[2, 0], [0, 2]]) is None


# ------------------------------------------- rank and Pearson against scipy

_SCALES = st.sampled_from([1e-200, 1e-100, 1.0, 1e100, 1e200])


@st.composite
def _vectors(draw, n, nan):
    """One length-n vector: normal, tied integers, a permutation of ranks or
    constant, at magnitude 1e-200..1e200, with +-inf entries at times, and
    NaN entries when ``nan``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "ties", "ranks", "constant"]))
    v = {
        "normal": lambda: rng.normal(size=n),
        "ties": lambda: rng.integers(-3, 4, n).astype(float),
        "ranks": lambda: rng.permutation(n) + 1.0,
        "constant": lambda: np.full(n, rng.normal()),
    }[kind]() * draw(_SCALES)
    odd = draw(st.sampled_from([None, None, math.inf, -math.inf] + [math.nan] * nan))
    if odd is not None:
        v[rng.integers(0, n, draw(st.integers(1, 3)))] = odd
    return v


@st.composite
def _vector_pairs(draw, nan=True):
    n = draw(st.integers(2, 300))
    x = draw(_vectors(n, nan))
    # y is drawn alike, or x times a factor: |r| = 1 up to rounding, so clipped
    factor = draw(st.sampled_from([None, None, 1.0, -2.5, 1e150]))
    if factor is None:
        return x, draw(_vectors(n, nan))
    with np.errstate(over="ignore"):  # 1e200 * 1e150 is inf, one more odd entry
        return x, x * factor


def _quietly(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # both warn on non-finite arithmetic
        return f(*args)


@settings(max_examples=400, deadline=None)
@given(pair=_vector_pairs())
@example(pair=(np.array([1.0, 2.0]), np.array([3.0, 5.0])))
@example(pair=(np.array([1.0, 2.0]), np.array([5.0, -3.0])))
@example(pair=(np.array([1.0, 1.0, 2.0]), np.array([4.0, 4.0, 4.0])))
@example(pair=(np.array([-5e210, 5e210, 3e200, -3e200]), np.array([1.0, 2.0, 3.0, 5.0])))
def test_pearson_equals_scipy(pair):
    x, y = pair
    got, want = _quietly(_pearson, x, y), _quietly(stats.pearsonr, x, y).statistic
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=400, deadline=None)
@given(pair=_vector_pairs(nan=False))
def test_rankdata_equals_scipy(pair):
    # NaN never reaches _rankdata: gram_matrix rejects non-finite encodings
    for v in pair:
        got = _rankdata(v)
        assert got.dtype == np.float64
        assert np.array_equal(got, stats.rankdata(v))


def test_verify_isomorphism_pearson_equals_scipy_at_figure_size():
    # the L=1024 off-diagonals verify_isomorphism correlates: 523,776 pairs
    p = PosEncParams(1024, 64)
    upper = np.triu(np.ones((1024, 1024), dtype=bool), k=1)
    x, y = gram_matrix(sinusoidal_pe(p))[upper], gram_matrix(spike_timing_pe(p))[upper]
    assert verify_isomorphism(p).pearson_r == _pearson(x, y) == stats.pearsonr(x, y).statistic
    rx, ry = _rankdata(x), _rankdata(y)
    assert np.array_equal(rx, stats.rankdata(x)) and np.array_equal(ry, stats.rankdata(y))


def test_importing_spikeseq_loads_no_scipy():
    # scipy is the tests' oracle only: importing it takes about a second
    code = (
        "import importlib, pkgutil, sys, spikeseq\n"
        "for m in pkgutil.iter_modules(spikeseq.__path__):\n"
        "    importlib.import_module('spikeseq.' + m.name)\n"
        "print('spikeseq.posenc' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(spikeseq.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["True", "[]"]
