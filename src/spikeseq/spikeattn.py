"""Soft attention vs hard winner-take-all retrieval on the same inputs.

Two selection rules over the same query/key/value triple: temperature-
scaled dot-product softmax, and cosine similarity with top-k winners
above a threshold (similarity-weighted combination, renormalized). On
unit-norm keys the two agree on the winning key for every query, which
the trial runner measures.

Inputs may carry a leading trial axis: queries (B, n_q, d), keys
(B, n_k, d) and values (B, n_k, d_v) score B independent trials in one
call, and 2-D inputs are a block of one that runs the same code. Each
trial of a block gets the bits that a 2-D call on that trial alone gets.

WTA ranks the keys that pass the threshold by similarity, ties to the
lower key index. ``WTAResult.winners`` holds the first ``n_winners`` of
them per query, best first; slots past the keys that passed hold -1.

``compare_attention`` draws its trials in blocks of about 512 KiB of
normals, one (b, 1 + n_k, d) draw per block. Each trial's query row
comes first and its n_k key rows follow, which is the stream that a
(1, d) query draw followed by an (n_k, d) key draw per trial consumes,
so the rows do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import FloatVector, IndexVector
from .errors import ParameterError, check_array, check_float, check_int

__all__ = [
    "AttentionInputs",
    "WTAResult",
    "softmax_attention",
    "wta_attention",
    "compare_attention",
]

_BLOCK_BYTES = 512 * 1024  # bytes of normals per compare_attention block: cache-sized


@dataclass(frozen=True, eq=False)
class AttentionInputs:
    queries: FloatVector  # ([B,] n_q, d)
    keys: FloatVector  # ([B,] n_k, d)
    values: FloatVector  # ([B,] n_k, d_v)

    def __post_init__(self) -> None:
        for name in ("queries", "keys", "values"):
            arr = check_array(name, getattr(self, name))
            if arr.ndim not in (2, 3):
                raise ParameterError(f"{name} must be 2-D or 3-D, got {arr.ndim}-D")
            if not np.isfinite(arr).all():
                raise ParameterError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        q, k, v = self.queries, self.keys, self.values
        if not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
            raise ParameterError(
                f"leading shapes differ: {q.shape[:-2]}, {k.shape[:-2]}, {v.shape[:-2]}"
            )
        if q.shape[-1] != k.shape[-1]:
            raise ParameterError(f"query dim {q.shape[-1]} != key dim {k.shape[-1]}")
        if k.shape[-2] != v.shape[-2]:
            raise ParameterError(f"{k.shape[-2]} keys but {v.shape[-2]} values")
        if k.shape[-2] < 1:
            raise ParameterError("need at least one key")


def softmax_attention(inp: AttentionInputs, temperature: float = 1.0) -> FloatVector:
    """Row-softmax of QK^T / temperature applied to the values.

    Logits that overflow to infinity are a ParameterError, not NaN rows.
    """
    temperature = check_float("temperature", temperature, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        logits = (inp.queries @ inp.keys.swapaxes(-1, -2)) / temperature
    if not np.isfinite(logits).all():
        raise ParameterError("QK^T / temperature overflows; scale the inputs down")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    weights = e / e.sum(axis=-1, keepdims=True)
    return weights @ inp.values


def _safe_unit_rows(m: FloatVector) -> FloatVector:
    """Rows over their norms; an all-zero row becomes +0.0s.

    A norm that overflows is a ParameterError, not a zero row. The squares
    of entries below about 1e-162 underflow, so a non-zero row whose norm
    comes out 0 is first scaled by its largest |entry|, as
    ``posenc._unit_deviations`` does; rows with a positive norm keep their
    bits.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, axis=-1, keepdims=True)
    if np.isinf(norms).any():
        raise ParameterError("a query or key norm overflows; scale the inputs down")
    zero = ~(norms > 0.0)
    if zero.any():
        peak = np.abs(m).max(axis=-1, keepdims=True, initial=0.0)
        m = np.where(zero, m / np.where(peak > 0.0, peak, 1.0), m)
        norms = np.where(zero, np.linalg.norm(m, axis=-1, keepdims=True), norms)
        zero = ~(norms > 0.0)
    out = m / np.where(zero, 1.0, norms)
    out[zero[..., 0]] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class WTAResult:
    output: FloatVector  # ([B,] n_q, d_v)
    winners: IndexVector  # ([B,] n_q, n_winners) key indices, best first, -1 past the passers
    degenerate: np.ndarray  # ([B,] n_q) bool: no key passed (no winners) / weights unusable


def wta_attention(
    inp: AttentionInputs, n_winners: int = 1, threshold: float = 0.0
) -> WTAResult:
    """Cosine top-k selection with similarity-weighted value combination.

    Per query: keys at or above the threshold compete; the n_winners most
    similar (ties to the lower index) contribute their values weighted by
    their similarity clipped at zero, so a negative similarity weighs
    nothing, renormalized to sum one; every output is thus a convex
    combination of values. Queries where nothing passes, or where no kept
    similarity is positive, yield a zero row flagged in ``degenerate``; the
    latter still report their winners.
    A threshold that is not a finite number, or a query or key whose norm
    overflows, is a ParameterError.

    Queries are weighted in groups of one winner count, so a query whose
    c winners are fewer than n_winners sums and multiplies c terms, as a
    query alone does, and never zero padding.
    """
    n_k = inp.keys.shape[-2]
    check_int("n_winners", n_winners, 1, n_k + 1)
    threshold = check_float("threshold", threshold)
    sims = _safe_unit_rows(inp.queries) @ _safe_unit_rows(inp.keys).swapaxes(-1, -2)
    passed = sims >= threshold
    # keys that fail sort last; the stable sort sends ties to the lower index
    ranked = np.argsort(np.where(passed, -sims, np.inf), axis=-1, kind="stable")[..., :n_winners]
    count = np.minimum(np.count_nonzero(passed, axis=-1), n_winners)
    winners = np.where(np.arange(n_winners) < count[..., None], ranked, -1)

    # weight each group of queries with c winners over c terms
    lead, n_q, d_v = sims.shape[:-1], sims.shape[-2], inp.values.shape[-1]
    values = inp.values if inp.values.ndim == 3 else inp.values[None]  # (B, n_k, d_v)
    top = np.take_along_axis(sims, ranked, axis=-1).reshape(-1, n_winners)
    ranked, count = ranked.reshape(-1, n_winners), count.reshape(-1)
    out = np.zeros((count.size, d_v))
    degenerate = count == 0
    for c in (np.flatnonzero(np.bincount(count)[1:]) + 1).tolist():
        rows = np.flatnonzero(count == c)
        w = np.maximum(top[rows, :c], 0.0)
        total = w.sum(axis=-1)
        usable = total > 0.0
        degenerate[rows[~usable]] = True
        rows, w, total = rows[usable], w[usable], total[usable]
        picked = values[(rows // n_q)[:, None], ranked[rows, :c]]
        out[rows] = ((w / total[:, None])[:, None, :] @ picked)[:, 0, :]
    return WTAResult(out.reshape(lead + (d_v,)), winners, degenerate.reshape(lead))


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
    highest-logit key; the WTA winner is the top-1 cosine key. Trials are
    drawn and scored a block at a time (see the module docstring).
    """
    check_int("n_trials", n_trials, 0)
    check_int("d", d, 1)
    check_int("n_k", n_k, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_BYTES // (8 * (1 + n_k) * d))
    rows: list[tuple[int, int, int, bool]] = []
    for start in range(0, n_trials, block):
        b = min(block, n_trials - start)
        draws = rng.normal(size=(b, 1 + n_k, d))
        q, k = draws[:, :1], draws[:, 1:]
        if unit_norm:
            k = _safe_unit_rows(k)
        soft = np.argmax(q @ k.swapaxes(-1, -2), axis=-1)[:, 0]
        inp = AttentionInputs(q, k, np.zeros((b, n_k, 0)))  # only the winners are read
        hard = wta_attention(inp, n_winners=1, threshold=-1.0).winners[:, 0, 0]
        agree = (soft == hard).tolist()
        rows.extend(zip(range(start, start + b), soft.tolist(), hard.tolist(), agree))
    return rows
