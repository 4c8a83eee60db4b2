"""Rank-ordered N-of-M codes and their dense significance-vector form.

A code is an ordered list of N distinct neuron indices out of a population
of M; firing order carries information. Its dense representation assigns
geometrically decreasing weights ``alpha**k`` to the k-th firing neuron,
so cosine similarity between codes privileges agreement at early ranks.

Significance vectors are plain float64 numpy arrays of length M; the
structured type is :class:`RankOrderCode`. Only N of their M entries are
non-zero, so a product of a matrix with one touches N of its columns
(:func:`support_matvec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateInputError, ParameterError

__all__ = [
    "CodeParams",
    "RankOrderCode",
    "to_significance",
    "cosine_sim",
    "support_matvec",
    "nofm",
    "is_canonical",
    "random_code",
    "info_bits_ordered",
    "info_bits_unordered",
    "info_ratio",
]

FloatVector = NDArray[np.float64]


@dataclass(frozen=True)
class CodeParams:
    """Population size M, spikes per burst N, and significance ratio alpha."""

    m_total: int
    n_active: int
    alpha: float

    def __post_init__(self) -> None:
        if not 1 <= self.n_active <= self.m_total:
            raise ParameterError(
                f"need 1 <= n_active <= m_total, got N={self.n_active}, M={self.m_total}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def significances(self) -> FloatVector:
        """The canonical weight set [1, alpha, ..., alpha**(N-1)]."""
        return self.alpha ** np.arange(self.n_active, dtype=np.float64)


@dataclass(frozen=True)
class RankOrderCode:
    """An ordered burst: firing_order[k] is the index of the k-th spike."""

    params: CodeParams
    firing_order: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        order = tuple(int(i) for i in self.firing_order)
        object.__setattr__(self, "firing_order", order)
        if len(order) != self.params.n_active:
            raise ParameterError(
                f"firing_order has {len(order)} entries, expected N={self.params.n_active}"
            )
        if len(set(order)) != len(order):
            raise ParameterError("firing_order indices must be distinct")
        if order and not all(0 <= i < self.params.m_total for i in order):
            raise ParameterError(
                f"firing_order indices must lie in [0, {self.params.m_total})"
            )


def to_significance(code: RankOrderCode) -> FloatVector:
    """Dense significance vector: alpha**k at firing_order[k], zero elsewhere."""
    out = np.zeros(code.params.m_total, dtype=np.float64)
    out[list(code.firing_order)] = code.params.significances
    return out


def cosine_sim(a: FloatVector, b: FloatVector) -> float:
    """Normalised dot product of two equal-length vectors.

    Symmetric and invariant to positive rescaling of either argument.
    Raises DegenerateInputError on an all-zero input.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.dot(a, a))
    nb = float(np.dot(b, b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero vector is undefined")
    return float(np.dot(a, b) / math.sqrt(na * nb))


def support_matvec(matrix: FloatVector, v: FloatVector) -> FloatVector:
    """``matrix @ v`` over the support of v: ``matrix[:, s] @ v[s]``, s = nonzero(v).

    Equal to the dense product up to summation order (the last ulp). The
    gather is cheap when matrix is column-major, where each selected column
    is contiguous; an all-zero v gives the zero vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or matrix.ndim != 2 or matrix.shape[1] != v.size:
        raise ParameterError(f"cannot multiply a {matrix.shape} matrix by a {v.shape} vector")
    # a boolean mask finds the support several times faster than flatnonzero(v)
    s = np.flatnonzero(v != 0.0)
    return matrix[:, s] @ v[s]


def nofm(v: FloatVector, n: int, params: CodeParams) -> RankOrderCode:
    """Select the n largest components of v as a rank-ordered code.

    Ordering is by descending component value; exact ties break toward the
    lower index, which keeps every downstream result reproducible.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ParameterError(f"nofm expects a vector, got shape {v.shape}")
    if n > v.size:
        raise ParameterError(f"cannot select n={n} components from a length-{v.size} vector")
    # lexsort: primary key -v (descending value), secondary key index (ascending)
    order = np.lexsort((np.arange(v.size), -v))[:n]
    out_params = params
    if params.m_total != v.size or params.n_active != n:
        out_params = CodeParams(m_total=v.size, n_active=n, alpha=params.alpha)
    return RankOrderCode(out_params, tuple(int(i) for i in order))


def is_canonical(v: FloatVector, params: CodeParams) -> bool:
    """True when v carries exactly the weight set {alpha**0..alpha**(N-1)}."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (params.m_total,):
        return False
    nz = np.flatnonzero(v)
    if nz.size != params.n_active:
        return False
    return bool(np.array_equal(np.sort(v[nz])[::-1], params.significances))


def random_code(params: CodeParams, rng: np.random.Generator) -> RankOrderCode:
    """Uniform random rank-ordered code (distinct indices, random order)."""
    order = rng.permutation(params.m_total)[: params.n_active]
    return RankOrderCode(params, tuple(int(i) for i in order))


def _check_nm(n: int, m: int) -> None:
    if not 1 <= n <= m:
        raise ParameterError(f"need 1 <= n <= m, got n={n}, m={m}")


def info_bits_ordered(n: int, m: int) -> float:
    """Information content of an ordered n-of-m code: log2(m!/(m-n)!).

    Counts are exact big integers, so there is no factorial overflow.
    """
    _check_nm(n, m)
    return math.log2(math.perm(m, n))


def info_bits_unordered(n: int, m: int) -> float:
    """Information content of an unordered n-of-m code: log2(C(m, n))."""
    _check_nm(n, m)
    return math.log2(math.comb(m, n))


def info_ratio(n: int, m: int) -> float:
    """Ratio of ordered to unordered information content."""
    return info_bits_ordered(n, m) / info_bits_unordered(n, m)
