"""Sparse distributed memory: cosine-threshold addressing + max-rule CMM.

Addressing compares a context code against W stored address codes by
cosine similarity; locations at or above the threshold contribute,
weighted by their similarity.
Storage is a correlation matrix updated by the elementwise max of the
outer product of the data significance vector with the activation
pattern, which makes writes idempotent and order-independent.

Similarity and selection are kept apart. An :class:`AddressDecoder` is a
frozen value, the W addresses and their row norms, computed once at
construction. The threshold, Kanerva's activation radius, is the selection
rule: :func:`calibrate_threshold` picks one for a decoder, its owner keeps
it, and every :func:`decode_address` call takes it as an argument. The
correlation matrix is the one value that changes: a write updates it in
place.

Every kernel serves a block of B chains along a leading axis: addressing
takes a :class:`~spikeseq.context.ContextState` of B contexts and returns
an :class:`ActivationPattern` of (B, W) weights, a write takes (B, M) data
rows and a read returns (B, N) firing orders and B confidences.

Every per-step operation touches only the supports: a context has N of M
entries non-zero and a few of the W locations are active. Each carries its
support: a context state its ascending N indices per chain, an activation
pattern the active locations of each chain, found once when the pattern is
made.
The address matrix (W, M) and the correlation matrix (M, W) are stored
column-major, so that addressing gathers the N address columns of each
context's support (:func:`~spikeseq.codes.support_matvec`). A write is a
scatter-max over data support x active locations, chain by chain; its
products are the single multiplies of the dense outer product, so the
matrix is bit-identical to a dense write, and the max rule makes chains
that hit one cell in the same step commute.

A read is a product per chain over that chain's active locations. Chains
have different numbers of active locations, and padding them to one count
with zero weights would change the summation order of the readout, so the
read does not stack them. A context with no location inside the activation
radius reads nothing: its read is empty, a zero readout with confidence 0,
as in Kanerva's SDM, and not an error; the write of such a chain changes
nothing.

Threshold invariant: the calibrated threshold is one of the discrete
cosine levels that addressing computes (or the midpoint of two, when the
median of an even probe count falls between them), so ``sims >= threshold``
decides exact float ties. Addressing and calibration therefore share one
similarity function, ``_address_similarity``: one kernel, one set of float
guards and the decoder's cached row norms, row-major bit for bit.
Calibration feeds its probe contexts through it in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codes import (
    CodeParams,
    FloatVector,
    IndexVector,
    nofm,
    random_firing,
    support_matvec,
    to_significance,
    vector_norm,
)
from .context import ContextState
from .errors import ParameterError, check_float, check_int

__all__ = [
    "AddressDecoder",
    "ActivationPattern",
    "CorrelationMatrix",
    "decode_address",
    "cmm_write",
    "cmm_read",
    "calibrate_threshold",
]

_NORM_BLOCK = 512  # rows per row-major block in _row_norms
_N_PROBES = 200  # seeded probe contexts per threshold calibration
_PROBE_BLOCK = 25  # probe contexts per addressing call in calibration


def _row_norms(rows: FloatVector) -> FloatVector:
    """``np.linalg.norm(rows, axis=1)`` bit for bit as on a row-major matrix.

    A column-major matrix reduces each row in another order, which moves
    the last ulp of some norms and flips active locations that sit exactly
    on the threshold. Blocks keep the row-major copies small. A norm that
    overflows is +inf, without a warning.
    """
    with np.errstate(over="ignore"):
        blocks = [
            np.linalg.norm(np.ascontiguousarray(rows[i : i + _NORM_BLOCK]), axis=1)
            for i in range(0, rows.shape[0], _NORM_BLOCK)
        ]
    return np.concatenate(blocks) if blocks else np.zeros(0)


@dataclass(frozen=True)
class AddressDecoder:
    """W address codes, fixed at construction, and their cached row norms.

    The addresses are stored column-major; every row must be finite and
    have a positive norm, since its cosine with any context is otherwise
    undefined. The norms are computed once, here.
    """

    addresses: FloatVector  # (W, M) stacked significance vectors, column-major
    code_params: CodeParams
    _row_norms: FloatVector = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = self.code_params.m_total
        try:
            addresses = np.asfortranarray(self.addresses, dtype=np.float64)
        except (TypeError, ValueError):
            raise ParameterError("addresses must be a float matrix") from None
        if addresses.ndim != 2 or addresses.shape[1] != m or not addresses.shape[0]:
            raise ParameterError(f"addresses must be (W, {m}) with W >= 1, got {addresses.shape}")
        norms = _row_norms(addresses)
        bad = ~(np.isfinite(norms) & (norms > 0.0))
        if bad.any():
            raise ParameterError(f"address row {int(np.argmax(bad))} has no finite positive norm")
        object.__setattr__(self, "addresses", addresses)
        object.__setattr__(self, "_row_norms", norms)

    @property
    def n_locations(self) -> int:
        return self.addresses.shape[0]

    @classmethod
    def random(cls, n_locations: int, code_params: CodeParams, seed: int) -> "AddressDecoder":
        """``n_locations`` random canonical addresses drawn from ``seed``.

        The seed must lie in [0, 2**63), the range of the machine
        snapshot's i64 field.
        """
        check_int("n_locations", n_locations, 1)
        check_int("seed", seed, 0, 2**63)
        firing = random_firing(n_locations, code_params, np.random.default_rng(seed))
        return cls(to_significance(firing, code_params, order="F"), code_params)


@dataclass(frozen=True)
class ActivationPattern:
    """Per-location contribution weights of B chains, (B, W); zero below the threshold.

    ``active[b]`` holds chain b's locations with a non-zero weight,
    ascending; they are found once, when the pattern is made, and reads and
    writes use them.
    """

    weights: FloatVector
    active: list[IndexVector] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ParameterError(f"weights must be (B, W), got shape {self.weights.shape}")
        # one search per chain: cheaper than a 2-D nonzero at one chain, and
        # reads and writes take a chain's locations without slicing them out
        object.__setattr__(self, "active", [(w != 0.0).nonzero()[0] for w in self.weights])

    @property
    def n_active(self) -> int:
        """Active (chain, location) pairs of the whole block."""
        return sum(a.size for a in self.active)

    @property
    def counts(self) -> list[int]:
        """Active locations per chain."""
        return [a.size for a in self.active]

    @property
    def totals(self) -> FloatVector:
        """(B,) summed weight per chain."""
        return self.weights.sum(axis=1)


def _address_similarity(context: ContextState, dec: AddressDecoder) -> FloatVector:
    """Cosine of each context with every address: (B, W) values in [0, 1].

    Raises ParameterError on an all-zero or non-finite context.
    """
    cnorm = vector_norm(context.vector)
    for x in cnorm.tolist():  # a few floats: cheaper in Python than two reductions
        if not x < math.inf:
            raise ParameterError("context vector is non-finite")
        if x == 0.0:
            raise ParameterError("context vector is all-zero")
    sims = support_matvec(dec.addresses, context.vector, context.support)
    sims /= dec._row_norms * cnorm[:, None]
    # float guards: cosine of non-negative codes lies in [0, 1], and a context
    # identical to a stored address must compare exactly equal to 1 (the
    # second line also clips the top of the range)
    np.maximum(sims, 0.0, out=sims)
    sims[sims >= 1.0 - 1e-12] = 1.0
    return sims


def decode_address(
    context: ContextState, dec: AddressDecoder, threshold: float
) -> ActivationPattern:
    """Similarity of each context to every address, gated by the threshold.

    Locations whose similarity reaches ``threshold``, a number in [0, 1],
    are active. Raises ParameterError on another threshold and on an
    all-zero or non-finite context.
    """
    threshold = check_float("threshold", threshold, 0.0, 1.0, closed=True)
    sims = _address_similarity(context, dec)
    sims[sims < threshold] = 0.0
    return ActivationPattern(sims)


@dataclass
class CorrelationMatrix:
    """Non-negative (data_dim, W) weight matrix under the max write rule.

    ``zeros`` and ``load_machine`` store it column-major, so that a read
    gathers whole location columns; any layout gives the same results.
    """

    w: FloatVector

    @classmethod
    def zeros(cls, data_dim: int, n_locations: int) -> "CorrelationMatrix":
        return cls(np.zeros((data_dim, n_locations), order="F"))


def cmm_write(
    cmm: CorrelationMatrix, activation: ActivationPattern, data: FloatVector
) -> CorrelationMatrix:
    """In-place max outer-product write of each chain's data row; returns the matrix.

    ``data`` holds one row per chain of the activation. For each chain only
    the block data support x active locations is read and written: outside
    it the outer product is zero and the non-negative matrix keeps its
    value under the max, so a chain with no active location writes nothing.
    Data that is negative or not finite is a ParameterError: the max would
    lose it or store NaN.
    """
    data = np.asarray(data, dtype=np.float64)
    weights = activation.weights
    if data.ndim != 2 or cmm.w.shape != (data.shape[1], weights.shape[1]) or (
        data.shape[0] != weights.shape[0]
    ):
        raise ParameterError(
            f"matrix is {cmm.w.shape}, write is {data.shape} data x {weights.shape} weights"
        )
    # two reductions and no temporaries: NaN fails the first comparison
    if not (data.min(initial=0.0) >= 0.0 and data.max(initial=0.0) < np.inf):
        raise ParameterError("data must be finite and non-negative")
    for b, cols in enumerate(activation.active):
        rows = (data[b] != 0.0).nonzero()[0]
        block = (rows[:, None], cols)
        cmm.w[block] = np.maximum(cmm.w[block], np.outer(data[b][rows], weights[b][cols]))
    return cmm


def cmm_read(
    cmm: CorrelationMatrix, activation: ActivationPattern, params: CodeParams
) -> tuple[IndexVector, FloatVector]:
    """Read each chain through its active locations and re-impose the N-of-M structure.

    Returns ((B, N) firing orders, (B,) confidences). A confidence is the
    chain's summed activation weight, forced to 0.0 when its readout is
    all-zero: nothing stored where it looked, or no location active, which
    is an empty read. The firing orders of a confidence-0 chain are those
    of a zero row and carry no information. Params whose M is not the
    matrix's row count raise ParameterError.
    """
    weights = activation.weights
    if weights.shape[1] != cmm.w.shape[1]:
        raise ParameterError(f"matrix is {cmm.w.shape}, activation is {weights.shape}")
    readout = np.empty((weights.shape[0], cmm.w.shape[0]))
    for b, cols in enumerate(activation.active):
        readout[b] = cmm.w[:, cols] @ weights[b][cols]
    # the sum over all W weights, not only the active ones: another summation
    # order would move the last ulp of the confidence
    confidence = np.where(readout.any(axis=1), activation.totals, 0.0)
    return nofm(readout, params), confidence


def calibrate_threshold(dec: AddressDecoder, target_active: int, seed: int) -> float:
    """Pick a threshold so random contexts activate ~target_active locations.

    Uses the median over seeded probe contexts of the target_active-th
    largest address similarity, computed by the function addressing uses
    on blocks of probes, so the levels it ranks are those addressing
    reproduces exactly.
    """
    check_int("target_active", target_active, 1, dec.n_locations + 1)
    firing = random_firing(_N_PROBES, dec.code_params, np.random.default_rng(seed))
    probes = ContextState(to_significance(firing, dec.code_params), np.sort(firing, axis=1))
    kth = np.empty(_N_PROBES)
    for i in range(0, _N_PROBES, _PROBE_BLOCK):
        sims = _address_similarity(probes.take(slice(i, i + _PROBE_BLOCK)), dec)
        sims.partition(-target_active, axis=1)
        kth[i : i + _PROBE_BLOCK] = sims[:, -target_active]
    return float(np.median(kth))
