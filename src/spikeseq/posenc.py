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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .codes import FloatVector
from .errors import ParameterError

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
        if self.seq_len < 2:
            raise ParameterError(f"seq_len must be >= 2, got {self.seq_len}")
        if self.dim < 2 or self.dim % 2:
            raise ParameterError(f"dim must be a positive even integer, got {self.dim}")
        if not (0 < self.base < math.inf and 0 < self.window < math.inf):
            raise ParameterError(
                f"base and window must be positive and finite, got {self.base}, {self.window}"
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
    if e.ndim != 2:
        raise ParameterError(f"an encoding is an (L, d) array, got shape {e.shape}")
    return e @ e.T


def _query_orders(g: FloatVector) -> np.ndarray:
    """Per query (row), the positions by descending logit, ties to the lower."""
    return np.argsort(-g, axis=1, kind="stable")


def _offdiag(g: FloatVector) -> FloatVector:
    iu = np.triu_indices(g.shape[0], k=1)
    return g[iu]


def _spearman(x: FloatVector, y: FloatVector) -> float:
    """Spearman rho; exactly 1.0 when the tie-aware rankings coincide."""
    rx = stats.rankdata(x)
    ry = stats.rankdata(y)
    if np.array_equal(rx, ry):
        return 1.0
    return float(stats.pearsonr(rx, ry).statistic)


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
    (c) Pearson/Spearman correlation of the two grams' off-diagonals.
    """
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


@dataclass(frozen=True)
class RankInvarianceReport:
    all_argsorts_equal: bool
    all_argmaxes_equal: bool
    min_query_spearman: float
    min_softmax_peak_ratio: float  # max PE softmax weight / max STPE weight, per query


def _row_softmax(logits: FloatVector) -> FloatVector:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def lemma1_rank_invariance(p: PosEncParams) -> RankInvarianceReport:
    """Per-query ordering of positional logits under PE vs STPE.

    Positive scaling preserves every argsort exactly; it also flattens the
    softmax (acting as an inverse temperature), which the peak-weight
    ratio makes visible.

    Float caveat: when T/L is a power of two (e.g. the default T=1 with
    L=128) the scaling is exact and argsort equality holds bit-for-bit;
    otherwise mathematically tied logits (positions mirrored around the
    query) can swap within rounding noise.
    """
    g_pe = gram_matrix(sinusoidal_pe(p))
    g_stpe = gram_matrix(spike_timing_pe(p))
    argsorts_equal = bool(np.array_equal(_query_orders(g_pe), _query_orders(g_stpe)))
    argmaxes_equal = bool(
        np.array_equal(np.argmax(g_pe, axis=1), np.argmax(g_stpe, axis=1))
    )
    spearmans = [_spearman(g_pe[q], g_stpe[q]) for q in range(p.seq_len)]
    peak_pe = _row_softmax(g_pe).max(axis=1)
    peak_stpe = _row_softmax(g_stpe).max(axis=1)
    return RankInvarianceReport(
        argsorts_equal,
        argmaxes_equal,
        min(spearmans),
        float(np.min(peak_pe / peak_stpe)),
    )


def rank_counterexample(a: FloatVector, b: FloatVector) -> int | None:
    """First query position whose positional-logit ordering differs, if any."""
    if a.shape != b.shape:
        raise ParameterError("encodings must share (L, d)")
    differs = (_query_orders(gram_matrix(a)) != _query_orders(gram_matrix(b))).any(axis=1)
    return int(differs.argmax()) if differs.any() else None


def distance_profile(e: FloatVector) -> list[tuple[int, float]]:
    """Mean dot product between rows at each positional distance.

    delta = 0 is included as the self-similarity reference.
    """
    g = gram_matrix(e)
    L = e.shape[0]
    out = []
    for delta in range(L):
        idx = np.arange(L - delta)
        out.append((delta, float(np.mean(g[idx, idx + delta]))))
    return out
