"""Soft attention vs hard winner-take-all retrieval on the same inputs.

Two selection rules over the same query/key/value triple: temperature-
scaled dot-product softmax, and cosine similarity with top-k winners
above a threshold (similarity-weighted combination, renormalized). On
unit-norm keys the two agree on the winning key for every query, which
the trial runner measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import FloatVector
from .errors import ParameterError

__all__ = [
    "AttentionInputs",
    "WTAResult",
    "softmax_attention",
    "wta_attention",
    "compare_attention",
]


@dataclass(frozen=True)
class AttentionInputs:
    queries: FloatVector  # (n_q, d)
    keys: FloatVector  # (n_k, d)
    values: FloatVector  # (n_k, d_v)

    def __post_init__(self) -> None:
        if self.queries.ndim != 2 or self.keys.ndim != 2 or self.values.ndim != 2:
            raise ParameterError("queries, keys, values must be 2-D")
        if self.queries.shape[1] != self.keys.shape[1]:
            raise ParameterError(
                f"query dim {self.queries.shape[1]} != key dim {self.keys.shape[1]}"
            )
        if self.keys.shape[0] != self.values.shape[0]:
            raise ParameterError(
                f"{self.keys.shape[0]} keys but {self.values.shape[0]} values"
            )
        if self.keys.shape[0] < 1:
            raise ParameterError("need at least one key")


def softmax_attention(inp: AttentionInputs, temperature: float = 1.0) -> FloatVector:
    """Row-softmax of QK^T / temperature applied to the values."""
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    logits = (inp.queries @ inp.keys.T) / temperature
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    weights = e / e.sum(axis=1, keepdims=True)
    return weights @ inp.values


def _safe_unit_rows(m: FloatVector) -> FloatVector:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


@dataclass(frozen=True)
class WTAResult:
    output: FloatVector  # (n_q, d_v)
    winners: list[np.ndarray]  # selected key indices per query, best first
    degenerate: np.ndarray  # (n_q,) bool: no key passed (no winners) / weights unusable


def wta_attention(
    inp: AttentionInputs, n_winners: int = 1, threshold: float = 0.0
) -> WTAResult:
    """Cosine top-k selection with similarity-weighted value combination.

    Per query: keys at or above the threshold compete; the n_winners most
    similar (ties to the lower index) contribute their values weighted by
    similarity, renormalized to sum one. Queries where nothing passes, or
    where the kept similarities sum to a non-positive value, yield a zero
    row flagged in ``degenerate``; the latter still report their winners.
    """
    if not 1 <= n_winners <= inp.keys.shape[0]:
        raise ParameterError(f"n_winners must lie in [1, {inp.keys.shape[0]}]")
    sims = _safe_unit_rows(inp.queries) @ _safe_unit_rows(inp.keys).T
    n_q = sims.shape[0]
    out = np.zeros((n_q, inp.values.shape[1]))
    winners: list[np.ndarray] = []
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
        total = row[ranked].sum()
        if total <= 0.0:
            degenerate[q] = True
            continue
        out[q] = (row[ranked] / total) @ inp.values[ranked]
    return WTAResult(out, winners, degenerate)


def compare_attention(
    n_trials: int = 1000,
    d: int = 64,
    n_k: int = 32,
    seed: int = 0,
    unit_norm: bool = True,
) -> list[tuple[int, int, int, bool]]:
    """Per-trial (trial, softmax_argmax, wta_argmax, agree) rows.

    Each trial draws one Gaussian query and n_k Gaussian keys; keys are
    row-normalized when unit_norm is set. The softmax winner is the
    highest-logit key; the WTA winner is the top-1 cosine key.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(n_trials):
        q = rng.normal(size=(1, d))
        k = rng.normal(size=(n_k, d))
        if unit_norm:
            k = _safe_unit_rows(k)
        v = np.eye(n_k)  # value = one-hot of key index; output reveals the pick
        inp = AttentionInputs(q, k, v)
        soft = int(np.argmax((q @ k.T)[0]))
        hard = int(wta_attention(inp, n_winners=1, threshold=-1.0).winners[0][0])
        rows.append((t, soft, hard, soft == hard))
    return rows
