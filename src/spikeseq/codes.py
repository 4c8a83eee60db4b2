"""Rank-ordered N-of-M codes and their dense significance-vector form.

A code is an ordered list of N distinct neuron indices out of a population
of M; firing order carries information. Its dense representation assigns
geometrically decreasing weights ``alpha**k`` to the k-th firing neuron,
so cosine similarity between codes privileges agreement at early ranks.

Significance vectors are plain float64 numpy arrays of length M; the
structured type is :class:`RankOrderCode`. A code's support is the
ascending array of its N firing indices. The engine carries each code's
support next to its significance vector (context states, activation
patterns, codewords), so a product of a matrix with a code gathers the N
columns of a support it is given and never searches the vector for it
(:func:`support_matvec`).

``nofm(v, params)`` turns a length-M vector into a code of the geometry it
is given: N is ``params.n_active``, and a vector whose length is not
``params.m_total`` is a ParameterError, never a code of another geometry.
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
    "vector_norm",
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
IndexVector = NDArray[np.intp]


@dataclass(frozen=True)
class CodeParams:
    """Population size M, spikes per burst N, and significance ratio alpha."""

    m_total: int
    n_active: int
    alpha: float
    # the canonical weight set [1, alpha, ..., alpha**(N-1)], read-only
    significances: FloatVector = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n_active <= self.m_total:
            raise ParameterError(
                f"need 1 <= n_active <= m_total, got N={self.n_active}, M={self.m_total}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        sig = self.alpha ** np.arange(self.n_active, dtype=np.float64)
        sig.flags.writeable = False
        object.__setattr__(self, "significances", sig)


@dataclass(frozen=True)
class RankOrderCode:
    """An ordered burst: firing_order[k] is the index of the k-th spike."""

    params: CodeParams
    firing_order: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        order = tuple(np.asarray(self.firing_order, dtype=np.intp).tolist())
        object.__setattr__(self, "firing_order", order)
        if len(order) != self.params.n_active:
            raise ParameterError(
                f"firing_order has {len(order)} entries, expected N={self.params.n_active}"
            )
        if len(set(order)) != len(order):
            raise ParameterError("firing_order indices must be distinct")
        if min(order) < 0 or max(order) >= self.params.m_total:
            raise ParameterError(
                f"firing_order indices must lie in [0, {self.params.m_total})"
            )

    @property
    def support(self) -> IndexVector:
        """The firing indices in ascending order."""
        return np.array(sorted(self.firing_order), dtype=np.intp)


def to_significance(code: RankOrderCode) -> FloatVector:
    """Dense significance vector: alpha**k at firing_order[k], zero elsewhere."""
    out = np.zeros(code.params.m_total, dtype=np.float64)
    out.put(code.firing_order, code.params.significances)
    return out


def vector_norm(v: FloatVector) -> float:
    """L2 norm of a 1-D vector, ``math.sqrt(v.dot(v))``.

    Bit for bit the value of ``np.linalg.norm(v)``, which computes the same
    square root of the same dot product, without its dispatch overhead.
    """
    return math.sqrt(v.dot(v))


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


def support_matvec(matrix: FloatVector, v: FloatVector, support: IndexVector) -> FloatVector:
    """``matrix @ v`` over the given support of v: ``matrix[:, support] @ v[support]``.

    ``support`` holds, in ascending order, every index where v is non-zero
    (it may hold zeros of v as well); the caller carries it with the code,
    so it is not searched for here. Equal to the dense product up to
    summation order (the last ulp). The gather is cheap when matrix is
    column-major, where each selected column is contiguous; an empty
    support gives the zero vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or matrix.ndim != 2 or matrix.shape[1] != v.size:
        raise ParameterError(f"cannot multiply a {matrix.shape} matrix by a {v.shape} vector")
    return matrix[:, support] @ v[support]


def nofm(v: FloatVector, params: CodeParams) -> RankOrderCode:
    """Select the N = ``params.n_active`` largest components of v as a code.

    Ordering is by descending component value; exact ties break toward the
    lower index, which keeps every downstream result reproducible. Raises
    ParameterError when v is not a length-M vector or has a non-finite
    component.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (params.m_total,):
        raise ParameterError(f"nofm expects a length-{params.m_total} vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ParameterError("nofm input is non-finite")
    # the order of np.lexsort((index, -v))[:n]: every index whose value
    # reaches the n-th largest is a candidate, and a stable sort of the
    # ascending candidates by -v breaks ties toward the lower index
    n = params.n_active
    neg = -v
    kth = np.partition(neg, n - 1)[n - 1]
    candidates = (neg <= kth).nonzero()[0]
    order = candidates[neg[candidates].argsort(kind="stable")[:n]]
    return RankOrderCode(params, order)


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
    return RankOrderCode(params, rng.permutation(params.m_total)[: params.n_active])


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
