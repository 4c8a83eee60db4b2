"""Sparse distributed memory: cosine-threshold addressing + max-rule CMM.

Addressing compares a context code against W stored address codes by
cosine similarity; locations at or above the threshold contribute,
weighted by their similarity.
Storage is a correlation matrix updated by the elementwise max of the
outer product of the data significance vector with the activation
pattern, which makes writes idempotent and order-independent.

Every address is an N-of-M code. An :class:`AddressDecoder` is a frozen
value over the (W, N) block of their firing orders, as the codebook is
over its symbols' codes and a context state over its chains': at
construction it checks the block (:func:`~spikeseq.codes.check_firing`)
and derives, once, the addresses' significance rows and their row norms.

Similarity and selection are kept apart. The threshold, Kanerva's
activation radius, is the selection rule: :func:`calibrate_threshold`
picks one for a decoder, its owner keeps it, and every
:func:`decode_address` call takes it as an argument. The correlation
matrix is the one value that changes: a write updates it in place.

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
context's support. A write is a scatter-max over data support x active
locations, chain by chain; its products are the single multiplies of the
dense outer product, so the matrix is bit-identical to a dense write, and
the max rule makes chains that hit one cell in the same step commute.

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
similarity function, ``_address_similarity``: one kernel, one snap of
rounded cosines to 1 and the decoder's cached row norms. A context and an
address are both codes, finite and non-negative with norms of at least 1,
so their cosine needs no other guard. The norms are those of
row-major significance rows, built from the firing block a few hundred
codes at a time: the column-major address matrix would reduce each row in
another order and move the last ulp of some of them. Calibration feeds its
probe codes through the function in blocks of ``_PROBE_BLOCK``, each a
context state over its own slice of the probes' firing orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import (
    CodeParams,
    FloatVector,
    IndexVector,
    _support_matvec,
    check_firing,
    freeze_arrays,
    nofm,
    random_firing,
    to_significance,
    vector_norm,
)
from .context import ContextState
from .errors import ParameterError, check_float, check_int, check_matrix

__all__ = [
    "AddressDecoder",
    "ActivationPattern",
    "CorrelationMatrix",
    "decode_address",
    "cmm_write",
    "cmm_read",
    "calibrate_threshold",
]

_NORM_BLOCK = 512  # addresses per row-major significance block of the norms
_N_PROBES = 200  # seeded probe contexts per threshold calibration
_PROBE_BLOCK = 25  # probe contexts per addressing call in calibration


def _check_float_matrix(name: str, value: object) -> None:
    """Raise ParameterError unless ``value`` is a 2-D float64 ndarray."""
    if not (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64):
        raise ParameterError(f"{name} must be a 2-D float64 array, got {value!r:.60}")


def _check_non_negative(name: str, values: FloatVector) -> None:
    """Raise ParameterError unless every entry of ``values`` is finite and non-negative."""
    # two reductions and no temporaries: NaN fails the first comparison
    if not (values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) < np.inf):
        raise ParameterError(f"{name} must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class AddressDecoder:
    """W address codes, fixed at construction: row w of ``firing`` is location w's.

    ``firing`` is a (W, N) integer block of firing orders, checked as the
    codebook's is (:func:`~spikeseq.codes.check_firing`). The decoder
    derives once, here, the column-major (W, M) significance rows that
    addressing gathers from and their row norms, and keeps all of its
    arrays read-only. Every row is a code, so every norm is finite and at
    least 1.
    """

    firing: IndexVector  # (W, N) firing orders, one code per location
    code_params: CodeParams
    addresses: FloatVector = field(init=False, repr=False)  # (W, M), column-major
    _row_norms: FloatVector = field(init=False, repr=False)  # (W,) norms of addresses

    def __post_init__(self) -> None:
        p = self.code_params
        firing = check_firing(self.firing, p)
        # the norms of row-major rows: a column-major row reduces in another
        # order, which moves the last ulp of some norms and flips locations
        # that sit exactly on the threshold; blocks keep the copies small
        norms = np.concatenate([
            np.linalg.norm(to_significance(firing[i : i + _NORM_BLOCK], p), axis=1)
            for i in range(0, firing.shape[0], _NORM_BLOCK)
        ])
        freeze_arrays(
            self, firing=firing, addresses=to_significance(firing, p, order="F"), _row_norms=norms
        )

    @property
    def n_locations(self) -> int:
        return self.firing.shape[0]

    @classmethod
    def random(cls, n_locations: int, code_params: CodeParams, seed: int) -> "AddressDecoder":
        """``n_locations`` random canonical addresses drawn from ``seed``.

        The seed must lie in [0, 2**63), the range of the machine
        snapshot's i64 field.
        """
        check_int("n_locations", n_locations, 1)
        check_int("seed", seed, 0, 2**63)
        firing = random_firing(n_locations, code_params, np.random.default_rng(seed))
        return cls(firing, code_params)


@dataclass(frozen=True, eq=False)
class ActivationPattern:
    """Per-location contribution weights of B chains, (B, W); zero below the threshold.

    ``active[b]`` holds chain b's locations with a non-zero weight,
    ascending; they are found once, when the pattern is made, and reads and
    writes use them. Weights that are not a 2-D float64 ndarray are a
    ParameterError.
    """

    weights: FloatVector
    active: list[IndexVector] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_float_matrix("weights", self.weights)
        # one search per chain: cheaper than a 2-D nonzero at one chain, and
        # reads and writes take a chain's locations without slicing them out
        object.__setattr__(self, "active", [(w != 0.0).nonzero()[0] for w in self.weights])

    @property
    def n_active(self) -> int:
        """Active (chain, location) pairs of the whole block."""
        return sum(a.size for a in self.active)


def _address_similarity(context: ContextState, dec: AddressDecoder) -> FloatVector:
    """Cosine of each context with every address: (B, W) values in [0, 1].

    Both are codes, so the norms are at least 1 and the products are
    finite and non-negative.
    """
    sims = _support_matvec(dec.addresses, context.vector, context.support)
    sims /= dec._row_norms * vector_norm(context.vector)[:, None]
    # a context identical to a stored address must compare exactly equal to 1
    sims[sims >= 1.0 - 1e-12] = 1.0
    return sims


def decode_address(
    context: ContextState, dec: AddressDecoder, threshold: float
) -> ActivationPattern:
    """Similarity of each context to every address, gated by the threshold.

    Locations whose similarity reaches ``threshold``, a number in [0, 1],
    are active. Raises ParameterError on another threshold and on contexts
    whose M is not the decoder's.
    """
    threshold = check_float("threshold", threshold, 0.0, 1.0, closed=True)
    sims = _address_similarity(context, dec)
    sims[sims < threshold] = 0.0
    return ActivationPattern(sims)


@dataclass(eq=False)
class CorrelationMatrix:
    """Non-negative (data_dim, W) weight matrix under the max write rule.

    ``zeros`` and ``load_machine`` store it column-major, so that a read
    gathers whole location columns; any layout gives the same results.
    Anything but a 2-D float64 ndarray is a ParameterError: a write into an
    integer matrix would truncate what it stores. The values are checked
    where they enter, by ``cmm_write`` and ``load_machine``.
    """

    w: FloatVector

    def __post_init__(self) -> None:
        _check_float_matrix("the matrix", self.w)

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
    Activation weights not W wide and data that is not a (B, M) float
    matrix, for the matrix's M rows and W locations and the activation's B
    chains, are a ParameterError (:func:`~spikeseq.errors.check_matrix`),
    and so are data or activation weights that are negative or not finite:
    the max would lose them or store NaN. The matrix is then unchanged.
    """
    weights = check_matrix("activation weights", activation.weights, cols=cmm.w.shape[1])
    data = check_matrix("data", data, weights.shape[0], cmm.w.shape[0])
    _check_non_negative("data", data)
    # a NaN, inf or negative weight is non-zero, so it is active: checking
    # every chain's active weights before the first write is enough
    active_weights = [weights[b][cols] for b, cols in enumerate(activation.active)]
    for w in active_weights:
        _check_non_negative("activation weights", w)
    for b, cols in enumerate(activation.active):
        rows = (data[b] != 0.0).nonzero()[0]
        block = (rows[:, None], cols)
        cmm.w[block] = np.maximum(cmm.w[block], np.outer(data[b][rows], active_weights[b]))
    return cmm


def cmm_read(
    cmm: CorrelationMatrix, activation: ActivationPattern, params: CodeParams
) -> tuple[IndexVector, FloatVector]:
    """Read each chain through its active locations and re-impose the N-of-M structure.

    Returns ((B, N) firing orders, (B,) confidences). A confidence is the
    chain's summed activation weight, forced to 0.0 when its readout is
    all-zero: nothing stored where it looked, or no location active, which
    is an empty read. The firing orders of a confidence-0 chain are those
    of a zero row and carry no information. Activation weights that are
    not as wide as the matrix's W locations raise ParameterError, and so do
    params whose M is not the matrix's row count.
    """
    weights = check_matrix("activation weights", activation.weights, cols=cmm.w.shape[1])
    if params.m_total != cmm.w.shape[0]:
        raise ParameterError(f"params have M={params.m_total}, the matrix {cmm.w.shape[0]} rows")
    readout = np.empty((weights.shape[0], cmm.w.shape[0]))
    for b, cols in enumerate(activation.active):
        readout[b] = cmm.w[:, cols] @ weights[b][cols]
    # the sum over all W weights, not only the active ones: another summation
    # order would move the last ulp of the confidence
    confidence = np.where(readout.any(axis=1), weights.sum(axis=1), 0.0)
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
    kth = np.empty(_N_PROBES)
    for i in range(0, _N_PROBES, _PROBE_BLOCK):
        block = slice(i, i + _PROBE_BLOCK)
        sims = _address_similarity(ContextState(firing[block], dec.code_params), dec)
        sims.partition(-target_active, axis=1)
        kth[block] = sims[:, -target_active]
    return float(np.median(kth))
