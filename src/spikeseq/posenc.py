"""Positional encodings and the phase/latency equivalence apparatus.

Three encodings over L positions and d (even) dimensions, each an (L, d)
array whose row pos encodes position pos:

* sinusoidal:      row(pos)[2i] = sin(pos * w_i), row(pos)[2i+1] = cos(pos * w_i),
                   w_i = base**(-2i/d)
* spike_timing:    (T/L) * sinusoidal -- the amplitude-scaled encoding induced
                   by the linear spike-latency map t(pos) = pos * T / L
* freq_compressed: arguments compressed to (pos/L) * w_i, which collapses the
                   phase range and with it the distance structure

Verification helpers check the exact pairwise phase-difference identity, the
(T/L)^2 gram scaling, rank preservation of positional attention logits, and
dot-product-vs-distance profiles.

Lemma 1 is a statement about the order of finite logits, so the checks take
finite encodings only. ``gram_matrix`` is their one input boundary: every
check reaches its grams through it, and it raises ParameterError for an
encoding that is not a 2-D numeric array or whose gram holds a non-finite
entry (a NaN or infinite entry, or rows whose dot products overflow). Past
it every value is finite.

Order and rank checks sort one side only. A row of the second gram has the
first row's stable descending order exactly when, at every step along that
order, its value strictly falls, or ties with the position rising. Two rows
have equal average ranks exactly when they have the same stable order and
tie at the same steps along it: the tie groups are then the same positions,
and a rank is the mean place of its group. So one sort decides both, and
only the rows whose ranks differ are ranked and correlated. Grams are
compared in blocks of ``_ROW_BLOCK`` rows, so no (L, L) order, rank or mask
matrix is made.

The stable descending order of a row is numpy's default argsort, which is
SIMD (AVX-512 or AVX2 where the CPU has it) but unstable, followed by a
repair that re-sorts only the positions inside each run of equal values to
ascending index; the result equals the stable sort bit for bit.
``verify_isomorphism`` takes its relative error over row blocks too, and
frees each gram once its off-diagonal pairs are read, so it holds at most
two grams.

Ranks (``_rankdata``) and the Pearson coefficient (``_pearson``) are numpy
copies of ``scipy.stats.rankdata`` and the statistic of
``scipy.stats.pearsonr``, equal to them bit for bit on finite input. scipy is
the tests' oracle only: importing this module loads numpy and nothing more.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .codes import FloatVector
from .errors import ParameterError, check_float, check_int, check_matrix

__all__ = [
    "PosEncParams",
    "IsomorphismReport",
    "RankInvarianceReport",
    "sinusoidal_pe",
    "spike_timing_pe",
    "spike_latency",
    "freq_compressed_pe",
    "gram_matrix",
    "verify_isomorphism",
    "lemma1_rank_invariance",
    "rank_counterexample",
    "distance_profile",
]


@dataclass(frozen=True)
class PosEncParams:
    seq_len: int
    dim: int
    base: float = 10000.0
    window: float = 1.0  # spike window T; default 1 so the scale is 1/L

    def __post_init__(self) -> None:
        check_int("seq_len", self.seq_len, 2)
        check_int("dim", self.dim, 2)
        if self.dim % 2:
            raise ParameterError(f"dim must be a positive even integer, got {self.dim}")
        for name in ("base", "window"):
            object.__setattr__(self, name, check_float(name, getattr(self, name), 0.0))
        # the spike-timing gram is (T/L)^2 times the sinusoidal one, whose
        # entries reach the self-dot d/2, and the checks sum up to L^2 of
        # them: the scale must be a normal float and those sums finite
        try:
            scale = (self.window / self.seq_len) ** 2
            largest_sum = scale * (self.dim / 2) * self.seq_len**2
        except OverflowError:  # float ** raises where * gives inf
            scale = largest_sum = math.inf
        if not (sys.float_info.min <= scale and largest_sum < math.inf):
            raise ParameterError(
                f"window {self.window} puts the spike-timing gram out of the float range: "
                "(T/L)^2 must be a normal float and (T/L)^2 * (d/2) * L^2 finite"
            )

    @property
    def frequencies(self) -> FloatVector:
        """w_i = base**(-2i/d) for i in [0, d/2)."""
        i = np.arange(self.dim // 2, dtype=np.float64)
        return self.base ** (-2.0 * i / self.dim)


def _interleave(sin_part: FloatVector, cos_part: FloatVector) -> FloatVector:
    out = np.empty((sin_part.shape[0], 2 * sin_part.shape[1]))
    out[:, 0::2] = sin_part
    out[:, 1::2] = cos_part
    return out


def sinusoidal_pe(p: PosEncParams) -> FloatVector:
    """Standard fixed sinusoidal encoding; phase = pos * w_i."""
    phase = np.outer(np.arange(p.seq_len, dtype=np.float64), p.frequencies)
    return _interleave(np.sin(phase), np.cos(phase))


def spike_latency(p: PosEncParams, pos) -> FloatVector:
    """Uniform latency map: position pos fires at pos * T / L."""
    return np.asarray(pos, dtype=np.float64) * p.window / p.seq_len


def spike_timing_pe(p: PosEncParams) -> FloatVector:
    """Amplitude-scaled encoding: (T/L) times the sinusoidal rows."""
    return (p.window / p.seq_len) * sinusoidal_pe(p)


def freq_compressed_pe(p: PosEncParams) -> FloatVector:
    """Compressed-phase encoding: argument (pos/L) * w_i in both channels."""
    phase = np.outer(np.arange(p.seq_len, dtype=np.float64) / p.seq_len, p.frequencies)
    return _interleave(np.sin(phase), np.cos(phase))


def gram_matrix(e: FloatVector) -> FloatVector:
    """The (L, L) dot products of an (L, d) encoding's rows; every entry finite.

    The input check of every posenc check: an encoding that is not a 2-D
    float matrix (:func:`~spikeseq.errors.check_matrix`), or whose gram
    holds a non-finite entry, is a ParameterError.
    """
    e = check_matrix("an encoding", e)
    with np.errstate(over="ignore", invalid="ignore"):
        g = e @ e.T
    if not np.isfinite(g).all():
        raise ParameterError("an encoding must be finite, and so must its rows' dot products")
    return g


_ROW_BLOCK = 128  # rows compared at once: (128, L) temporaries, never (L, L)


def _query_orders(g: FloatVector) -> tuple[np.ndarray, FloatVector]:
    """Per query (row), the positions by descending logit, ties to the lower,
    and the row's values in that order.

    Equal to ``np.argsort(-g, axis=1, kind="stable")`` bit for bit for a
    finite ``g``: numpy's default (SIMD) sort, after which only the positions
    inside each run of equal values are re-sorted to ascending index.
    """
    neg = -g
    order = np.argsort(neg, axis=1)
    s = np.take_along_axis(neg, order, axis=1)
    tie = np.zeros(s.shape, dtype=bool)  # tie[:, j]: s[:, j] equals s[:, j - 1]
    np.equal(s[:, 1:], s[:, :-1], out=tie[:, 1:])
    if tie.any():
        member = tie.copy()
        member[:, :-1] |= tie[:, 1:]
        at = np.flatnonzero(member)
        # runs are contiguous and numbered in place order, so sorting
        # (run, position) keys puts each run's positions back in its own
        # slots, ascending
        L = g.shape[1]
        run = np.cumsum(~tie.ravel()[at])
        key = run * L + order.ravel()[at]
        key.sort()
        key %= L
        order.ravel()[at] = key
        # equal values but for the sign of a zero: gathered again
        s.ravel()[at] = neg.ravel()[at - at % L + key]
    np.negative(s, out=s)
    return order, s


def _block_checks(a: FloatVector, b: FloatVector) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a block of two grams: does ``b`` have ``a``'s stable
    descending order, and does it have ``a``'s rankdata ranks?

    Along ``a``'s order a row of ``b`` keeps the order when it strictly
    falls or ties with the position rising, and keeps the ranks when it ties
    exactly where ``a`` ties and strictly falls elsewhere.
    """
    order, sa = _query_orders(a)
    sb = np.take_along_axis(b, order, axis=1)
    falls, ties = sb[:, :-1] > sb[:, 1:], sb[:, :-1] == sb[:, 1:]
    orders_kept = (falls | ties & (order[:, :-1] < order[:, 1:])).all(axis=1)
    return orders_kept, _ranks_kept(sa, sb)


def _ranks_kept(sa: FloatVector, sb: FloatVector) -> np.ndarray:
    """Per row (or for one vector): do ``a`` and ``b`` have equal rankdata
    ranks, given ``sa`` and ``sb``, both along one order that sorts ``a``
    descending with ties in any order?"""
    return np.where(
        sa[..., :-1] == sa[..., 1:], sb[..., :-1] == sb[..., 1:], sb[..., :-1] > sb[..., 1:]
    ).all(axis=-1)


def _rankdata(x: FloatVector) -> FloatVector:
    """``scipy.stats.rankdata(x)`` of a vector without NaN: 1-based ranks,
    each tie group at the mean of its places.

    The ranks are integers or halves, so they are exact.
    """
    order = np.argsort(x, kind="stable")
    y = x[order]
    starts = np.flatnonzero(np.concatenate(([True], y[:-1] != y[1:])))
    counts = np.diff(starts, append=len(y))
    ranks = np.empty(len(y))
    ranks[order] = np.repeat((starts + 1) + (counts - 1) / 2, counts)
    return ranks


def _unit_deviations(x: FloatVector) -> FloatVector:
    """x minus its mean, over its norm; the norm is taken of the deviations
    scaled by the largest one, so it neither overflows nor underflows."""
    xm = x - np.mean(x, axis=-1, keepdims=True)
    xmax = np.maximum(xm.max(axis=-1, keepdims=True), -xm.min(axis=-1, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.divide(xm, xmax)
        # np.linalg.norm(axis=-1) is sqrt(add.reduce(x * x)), squared here in
        # place; the 1-D norm is a dot product and rounds otherwise
        np.multiply(sq, sq, out=sq)
        xm /= xmax * np.sqrt(np.add.reduce(sq, axis=-1, keepdims=True))
    return xm


def _pearson(x: FloatVector, y: FloatVector) -> float:
    """``scipy.stats.pearsonr(x, y).statistic`` of two float vectors of one
    length of at least 2, bit for bit.

    NaN when either is constant or the sums go non-finite; clipped to
    [-1, 1], and rounded to +-1 at length 2. No p-value is computed.
    """
    if (x == x[0]).all() or (y == y[0]).all():
        return math.nan
    r = np.clip(np.vecdot(_unit_deviations(x), _unit_deviations(y)), -1.0, 1.0)
    return float(np.round(r) if len(x) == 2 else r)


def _spearman(x: FloatVector, y: FloatVector) -> float:
    """Spearman rho: the Pearson coefficient of the two rank vectors;
    exactly 1.0 when the tie-aware rankings coincide.

    One sort of ``x`` decides that; only vectors whose ranks differ are
    ranked and correlated.
    """
    order = np.argsort(x)[::-1]
    if _ranks_kept(x[order], y[order]):
        return 1.0
    return _pearson(_rankdata(x), _rankdata(y))


@dataclass(frozen=True)
class IsomorphismReport:
    max_abs_residual: float
    max_gram_rel_error: float
    pearson_r: float
    spearman_rho: float
    gram_scale_checked: float  # (T/L)^2


def verify_isomorphism(p: PosEncParams) -> IsomorphismReport:
    """Check the phase/latency identity and the scaled-gram relation.

    (a) For every band i and position pair, the phase difference equals
        (L/T) times the frequency-scaled latency difference.
    (b) Every spike-timing gram entry equals (T/L)^2 times the sinusoidal
        one (relative error reported).
    (c) Pearson/Spearman correlation of the two grams' off-diagonals, which
        needs at least 3 positions (2 give one pair, nothing to correlate).
    """
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
    # |g_stpe - scale g_pe| / max(|scale g_pe|, 1e-300) over row blocks
    block_max = []
    for lo in range(0, p.seq_len, _ROW_BLOCK):
        scaled = scale * g_pe[lo : lo + _ROW_BLOCK]
        err = np.subtract(g_stpe[lo : lo + _ROW_BLOCK], scaled)
        np.abs(err, out=err)
        np.abs(scaled, out=scaled)
        np.maximum(scaled, 1e-300, out=scaled)
        err /= scaled
        block_max.append(np.max(err))
    max_gram_rel_error = float(np.max(block_max))
    del scaled, err

    # the off-diagonal pairs i < j, row-major: the order of np.triu_indices;
    # each gram is freed once its pairs are read
    upper = np.triu(np.ones((p.seq_len, p.seq_len), dtype=bool), k=1)
    x = g_pe[upper]
    del g_pe
    y = g_stpe[upper]
    del g_stpe, upper
    pearson = _pearson(x, y)
    spearman = _spearman(x, y)
    return IsomorphismReport(max_abs_residual, max_gram_rel_error, pearson, spearman, scale)


@dataclass(frozen=True)
class RankInvarianceReport:
    all_argsorts_equal: bool
    all_argmaxes_equal: bool
    min_query_spearman: float
    min_softmax_peak_ratio: float  # max PE softmax weight / max STPE weight, per query


def _softmax_peak(logits: FloatVector) -> FloatVector:
    """Each row's largest softmax weight, ``1 / sum(exp(z))`` with ``z`` the
    row less its maximum: the largest term is exp(0) = 1, so this equals the
    largest of the normalised weights bit for bit."""
    z = logits - logits.max(axis=1, keepdims=True)
    return 1.0 / np.exp(z, out=z).sum(axis=1)


def lemma1_rank_invariance(p: PosEncParams) -> RankInvarianceReport:
    """Per-query ordering of positional logits under PE vs STPE.

    Positive scaling preserves every argsort exactly; it also flattens the
    softmax (acting as an inverse temperature), which the peak-weight
    ratio makes visible.

    Each row block of the PE gram is sorted once; along that order the STPE
    rows are checked for the same order and the same ranks. Only rows whose
    ranks differ are ranked (``_rankdata``) and correlated (``_pearson``);
    every other row scores Spearman 1.0.

    Float caveat: when T/L is a power of two (e.g. the default T=1 with
    L=128) the scaling is exact and argsort equality holds bit-for-bit;
    otherwise mathematically tied logits (positions mirrored around the
    query) can swap within rounding noise.
    """
    return _rank_invariance(gram_matrix(sinusoidal_pe(p)), gram_matrix(spike_timing_pe(p)))


def _rank_invariance(g_a: FloatVector, g_b: FloatVector) -> RankInvarianceReport:
    """lemma1_rank_invariance's report for any two (L, L) grams."""
    L = g_a.shape[0]
    orders_equal = True
    spearmans = [1.0] * L
    peak_ratio = np.empty(L)
    for lo in range(0, L, _ROW_BLOCK):
        a, b = g_a[lo : lo + _ROW_BLOCK], g_b[lo : lo + _ROW_BLOCK]
        orders_kept, ranks_kept = _block_checks(a, b)
        orders_equal = orders_equal and bool(orders_kept.all())
        for q in np.flatnonzero(~ranks_kept):
            spearmans[lo + q] = _pearson(_rankdata(a[q]), _rankdata(b[q]))
        peak_ratio[lo : lo + len(a)] = _softmax_peak(a) / _softmax_peak(b)
    return RankInvarianceReport(
        orders_equal,
        bool(np.array_equal(np.argmax(g_a, axis=1), np.argmax(g_b, axis=1))),
        min(spearmans),
        float(np.min(peak_ratio)),
    )


def rank_counterexample(a: FloatVector, b: FloatVector) -> int | None:
    """First query position whose positional-logit ordering differs, if any.

    Row blocks of ``a``'s gram are sorted in turn and the search stops at the
    first block holding a differing row; ``b``'s gram is never sorted.
    """
    g_a, g_b = gram_matrix(a), gram_matrix(b)
    if np.shape(a) != np.shape(b):
        raise ParameterError("encodings must share (L, d)")
    for lo in range(0, g_a.shape[0], _ROW_BLOCK):
        kept = _block_checks(g_a[lo : lo + _ROW_BLOCK], g_b[lo : lo + _ROW_BLOCK])[0]
        if not kept.all():
            return lo + int(kept.argmin())
    return None


def distance_profile(e: FloatVector) -> list[tuple[int, float]]:
    """Mean dot product between rows at each positional distance.

    delta = 0 is included as the self-similarity reference.
    """
    g = gram_matrix(e)
    L = g.shape[0]
    return [(delta, float(np.add.reduce(g.diagonal(delta)) / (L - delta))) for delta in range(L)]
