"""Rank-ordered N-of-M codes and their dense significance-vector form.

A code is an ordered list of N distinct neuron indices out of a population
of M; firing order carries information. Its dense representation assigns
geometrically decreasing weights ``alpha**k`` to the k-th firing neuron,
so cosine similarity between codes privileges agreement at early ranks.

Codes come in blocks of B along a leading axis, and a single code is a
block of one. A code has one form, a (B, N) integer array of firing
orders; its (B, M) float64 significance rows are its dense form, and
``np.sort(firing, axis=1)`` gives the (B, N) ascending supports. The three
containers of codes (the codebook, the address decoder and the context
state) are frozen values over a firing block that derive these once.
``random_firing`` draws firing orders, ``check_firing`` checks a block of
them that comes from outside (the codebook's and the address decoder's),
``to_significance`` turns them into rows, ``nofm`` selects the top N of
every row of a (B, M) block and ``vector_norm`` takes the norm along the
last axis. Each of them gives every row the bits that the same function
gives a block of that one row.

``nofm(v, params)`` selects codes of the geometry it is given: N is
``params.n_active``, and rows whose length is not ``params.m_total`` are a
ParameterError, never codes of another geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ParameterError, check_float, check_generator, check_int, check_matrix

__all__ = [
    "CodeParams",
    "random_firing",
    "check_firing",
    "to_significance",
    "vector_norm",
    "nofm",
]

FloatVector = NDArray[np.float64]
IndexVector = NDArray[np.intp]

_GATHER_BYTES = 1 << 18  # gathered matrix columns per _support_matvec product
_DRAW_BLOCK = 128  # rows permuted at once by random_firing


@dataclass(frozen=True)
class CodeParams:
    """Population size M, spikes per burst N, and significance ratio alpha."""

    m_total: int
    n_active: int
    alpha: float
    # the canonical weight set [1, alpha, ..., alpha**(N-1)], read-only
    significances: FloatVector = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_int("m_total", self.m_total, 1)
        check_int("n_active", self.n_active, 1)
        if self.n_active > self.m_total:
            raise ParameterError(
                f"need n_active <= m_total, got N={self.n_active}, M={self.m_total}"
            )
        object.__setattr__(self, "alpha", check_float("alpha", self.alpha, 0.0, 1.0))
        freeze_arrays(self, significances=self.alpha ** np.arange(self.n_active, dtype=np.float64))


def freeze_arrays(value: object, **arrays: np.ndarray) -> None:
    """Make ``arrays`` read-only and set them as attributes of ``value``, a
    frozen dataclass or any object."""
    for name, array in arrays.items():
        array.flags.writeable = False
        object.__setattr__(value, name, array)


def vector_norm(v: FloatVector) -> FloatVector:
    """L2 norm along the last axis, ``np.sqrt(np.vecdot(v, v))``.

    Bit for bit the value of ``np.linalg.norm`` of each row, which computes
    the same square root of the same dot product, without its dispatch
    overhead; a 1-D vector gives a scalar.
    """
    return np.sqrt(np.vecdot(v, v))


def _support_matvec(matrix: FloatVector, v: FloatVector, support: IndexVector) -> FloatVector:
    """``matrix @ v[b]`` for every row b of v over its support, (B, R).

    Row b is ``matrix[:, support[b]] @ v[b, support[b]]``: ``v`` and
    ``support`` are the significance rows and the ascending supports of a
    block of codes, as a :class:`~spikeseq.context.ContextState` derives
    them, so they agree, are finite and are N wide. Only their geometry is
    checked, because contexts and a matrix of two geometries can meet: M
    must be the matrix's column count, or ParameterError is raised. Equal
    to the dense product up to summation order (the last ulp).

    The block gathers each support's rows of ``matrix.T``, which are
    contiguous when the matrix is column-major, and multiplies them with
    ``np.vecmat``; on a column-major matrix that runs the kernel of the
    2-D product ``matrix[:, s] @ v[s]``, so a row's bits do not depend on
    the block it is in. A large block is multiplied in slices whose gathered
    columns stay near 256 KiB, which keeps them in cache and the memory
    peak low; a block of one row takes the 2-D product, which costs less.
    """
    if v.shape[1] != matrix.shape[1]:
        raise ParameterError(f"codes of M={v.shape[1]} meet a matrix of {matrix.shape[1]} columns")
    batch = v.shape[0]
    if batch == 1:
        return (matrix[:, support[0]] @ v[0][support[0]])[None]
    values = v[np.arange(batch)[:, None], support]
    # rows per vecmat call, so that the gathered columns stay cache-sized
    step = max(1, _GATHER_BYTES // (8 * matrix.shape[0] * support.shape[1]))
    out = np.empty((batch, matrix.shape[0]))
    for lo in range(0, batch, step):
        hi = lo + step
        np.vecmat(values[lo:hi], matrix.T[support[lo:hi]], out=out[lo:hi])
    return out


def random_firing(n: int, params: CodeParams, rng: np.random.Generator) -> IndexVector:
    """(n, N) uniform random firing orders, row k drawn as ``rng.permutation(M)[:N]``.

    Permuting each row of an (n, M) tile consumes the generator exactly as
    n calls of ``rng.permutation(M)`` do. Rows are drawn in order, in blocks
    of ``_DRAW_BLOCK`` rows of one reused index tile, so drawing keeps at
    most one block of M indices next to the (n, N) result. ``n`` must be an
    integer of at least 0 and ``rng`` a ``np.random.Generator``, or
    ParameterError is raised.
    """
    check_int("n", n, 0)
    check_generator(rng)
    firing = np.empty((n, params.n_active), dtype=np.intp)
    indices = np.arange(params.m_total)
    tile = np.empty((min(n, _DRAW_BLOCK), params.m_total), dtype=np.intp)
    for lo in range(0, n, _DRAW_BLOCK):
        block = tile[: n - lo]
        block[:] = indices
        rng.permuted(block, axis=1, out=block)
        firing[lo : lo + len(block)] = block[:, : params.n_active]
    return firing


def check_firing(firing: object, params: CodeParams) -> IndexVector:
    """``firing`` as a new (B, N) intp block of B >= 1 codes of ``params``.

    Raises ParameterError on input numpy cannot make an array of (a ragged
    list), on anything but a 2-D integer array (a bool, float, str or
    object array among them, which is what ints past the int64 range
    give), on zero rows or a width other than N, on an index outside
    [0, M) and on an index repeated within a row.
    """
    try:
        block = np.asarray(firing)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError("firing must be a block of integer codes") from None
    if block.ndim != 2 or not block.shape[0] or block.shape[1] != params.n_active:
        raise ParameterError(
            f"firing must be a (B, N) block of at least one code, expected "
            f"N={params.n_active}, got shape {block.shape}"
        )
    if block.dtype.kind not in "iu":
        raise ParameterError(f"firing indices must be integers, got dtype {block.dtype}")
    if block.min() < 0 or block.max() >= params.m_total:
        raise ParameterError(f"firing indices must lie in [0, {params.m_total})")
    if (np.diff(np.sort(block, axis=1), axis=1) == 0).any():
        raise ParameterError("the indices of a code must be distinct")
    return block.astype(np.intp)  # a copy: the caller's array stays writeable


def to_significance(firing: IndexVector, params: CodeParams, order: str = "C") -> FloatVector:
    """(B, M) significance rows of the (B, N) firing orders: alpha**k at firing[b, k].

    The orders are not range-checked (:func:`check_firing` is the check of
    orders from outside): an index of M or more and a float index are a
    ParameterError, and a negative index counts from the end, as numpy's do
    (-1 is neuron M-1). Anything but a 2-D, N wide array is a
    ParameterError; it is not converted, so a list is one too.
    """
    if not isinstance(firing, np.ndarray) or firing.ndim != 2 or firing.shape[1] != params.n_active:
        shape = np.array(firing, dtype=object).shape  # a ragged list has one as objects
        raise ParameterError(f"firing has shape {shape}, expected (B, {params.n_active})")
    rows = np.zeros((firing.shape[0], params.m_total), order=order)
    try:  # costs nothing when nothing is raised
        rows[np.arange(firing.shape[0])[:, None], firing] = params.significances
    except IndexError:
        raise ParameterError(f"firing indices must be integers below {params.m_total}") from None
    return rows


def nofm(v: FloatVector, params: CodeParams) -> IndexVector:
    """(B, N) firing orders of the N = ``params.n_active`` largest entries of each row.

    Ordering is by descending component value; exact ties break toward the
    lower index, which keeps every downstream result reproducible. Raises
    ParameterError when v is not a (B, M) float matrix
    (:func:`~spikeseq.errors.check_matrix`) or has a non-finite component.
    """
    v = check_matrix("v", v, cols=params.m_total)
    if not np.isfinite(v).all():
        raise ParameterError("nofm input is non-finite")
    # the order of np.lexsort((index, -row))[:n]: every index whose value
    # reaches the row's n-th largest is a candidate; the others are moved
    # past the candidates, and a stable sort by -value breaks ties toward
    # the lower index
    n = params.n_active
    neg = -v
    part = neg.copy()
    part.partition(n - 1, axis=1)
    neg[neg > part[:, n - 1, None]] = np.inf
    return neg.argsort(axis=1, kind="stable")[:, :n]
