"""Gated recurrent context over rank-ordered codes.

The context is a canonical significance vector updated by blending a
projection of its own history against a projection of the current input:

    C_n = nofm(gate * scale(P1 @ C_{n-1}) + (1 - gate) * scale(P2 @ I_n))

``scale`` is L2 normalization (a swappable policy; unit-norm contributions
give the gate a consistent meaning across input magnitudes). After top-N
selection the canonical geometric weights are reassigned by descending
blended magnitude, so the state stays in the code space the address
decoder consumes.

Contexts run in blocks of B chains along a leading axis: a
:class:`ContextState` holds (B, M) significance rows and their (B, K)
ascending supports, and one ``update_context`` advances every chain of the
block. A code has one form, a block of firing orders: an update selects
the (B, N) firing orders of the blended drive with
:func:`~spikeseq.codes.nofm` and keeps their rows
(:func:`~spikeseq.codes.to_significance`) and their sorted orders as the
supports. Chains drop out of a block with :meth:`ContextState.take`.

The input term depends only on the input code, so it is computed once per
code: :func:`input_terms` returns the rows ``(1 - gate) * scale(P2 @ x)``
of a codebook, and an update adds the row of each chain's input to its
history term. The arithmetic is the same as computing the term at every
step, so the states are bit-identical.

The projections are stored column-major. The history and the input are
N-of-M codes that carry their ascending support, so each product gathers
only the N projection columns of that support
(:func:`~spikeseq.codes.support_matvec`); the empty start history has a
width-0 support and a zero history term.

State is a value: :class:`ContextState` is immutable, ``update_context``
returns a new one, and callers keep it in a local variable, so any number
of chains can run over one configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import (
    CodeParams,
    FloatVector,
    IndexVector,
    nofm,
    support_matvec,
    to_significance,
    vector_norm,
)
from .errors import DegenerateInputError, ParameterError, check_float

__all__ = ["ContextConfig", "ContextState", "input_terms", "update_context", "random_projection"]


def random_projection(rows: int, cols: int, rng: np.random.Generator) -> FloatVector:
    """Seeded projection matrix: i.i.d. normal entries, unit-norm columns."""
    p = rng.normal(size=(rows, cols))
    p /= np.linalg.norm(p, axis=0, keepdims=True)
    return p


def _scale(v: FloatVector) -> FloatVector:
    """L2-normalize each row; a zero row maps to itself."""
    n = vector_norm(v)
    if 0.0 in n.tolist():  # a few floats: cheaper in Python than a masked write
        n[n == 0.0] = 1.0
    return v / n[:, None]


@dataclass(frozen=True)
class ContextConfig:
    """Gate, projections and code geometry; the projections are stored column-major.

    The gate is a number in [0, 1], stored as a float, and the projections
    are finite float matrices whose products with N-of-M codes keep a finite
    norm: ``n_active`` times the largest column norm must have a finite
    square, so an update never overflows.
    """

    lambda_gate: float
    p1: FloatVector  # context -> context, (M_c, M_c)
    p2: FloatVector  # input -> context, (M_c, M_i)
    code_params: CodeParams

    def __post_init__(self) -> None:
        gate = check_float("lambda_gate", self.lambda_gate, 0.0, 1.0, closed=True)
        object.__setattr__(self, "lambda_gate", gate)
        m_c = self.code_params.m_total
        for name in ("p1", "p2"):
            try:
                p = np.asfortranarray(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError):
                raise ParameterError(f"{name} must be a float matrix") from None
            if p.ndim != 2 or p.shape[0] != m_c or (name == "p1" and p.shape[1] != m_c):
                want = f"({m_c}, {m_c})" if name == "p1" else f"({m_c}, M_i)"
                raise ParameterError(f"{name} must be {want}, got {p.shape}")
            # an N-of-M code x with entries <= 1 has |P x| <= N * (largest
            # column norm): a bound with a finite square keeps every norm of a
            # product finite, and a NaN or inf entry fails it
            with np.errstate(over="ignore"):
                largest = float(vector_norm(p.T).max(initial=0.0))
            bound = int(self.code_params.n_active) * largest  # a Python float: no warning
            if not bound * bound < math.inf:
                raise ParameterError(
                    f"{name} must be finite, with n_active x its largest column norm "
                    "below the square root of the float range"
                )
            object.__setattr__(self, name, p)

    @classmethod
    def random(
        cls, lambda_gate: float, code_params: CodeParams, rng: np.random.Generator
    ) -> "ContextConfig":
        m_c = code_params.m_total
        return cls(
            lambda_gate=lambda_gate,
            p1=random_projection(m_c, m_c, rng),
            p2=random_projection(m_c, m_c, rng),
            code_params=code_params,
        )


@dataclass(frozen=True)
class ContextState:
    """Contexts of B chains: (B, M) significance rows and their ascending supports.

    ``support[b]`` holds every index where ``vector[b]`` is non-zero,
    ascending; all chains of a block have supports of one width K. The
    start state is all-zero with width-0 supports.
    """

    vector: FloatVector
    support: IndexVector

    @classmethod
    def start(cls, m_total: int, batch: int) -> "ContextState":
        """The empty history of ``batch`` chains: their first update depends only on its input."""
        return cls(np.zeros((batch, m_total)), np.zeros((batch, 0), dtype=np.intp))

    @property
    def batch(self) -> int:
        return self.vector.shape[0]

    def take(self, chains) -> "ContextState":
        """The block of the chains selected by an index or boolean array."""
        return ContextState(self.vector[chains], self.support[chains])


def input_terms(vectors: FloatVector, supports: IndexVector, cfg: ContextConfig) -> FloatVector:
    """Input terms ``(1 - gate) * scale(P2 @ x)`` of the rows x of vectors, (A, M_c).

    ``supports`` holds the ascending support of each row. Raises
    ParameterError when the rows are not inputs of ``cfg``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != cfg.p2.shape[1]:
        raise ParameterError(
            f"input has shape {vectors.shape}, expected rows of length {cfg.p2.shape[1]}"
        )
    lam = cfg.lambda_gate
    if lam == 1.0:
        return np.zeros((vectors.shape[0], cfg.code_params.m_total))
    return (1.0 - lam) * _scale(support_matvec(cfg.p2, vectors, supports))


def update_context(prev: ContextState, terms: FloatVector, cfg: ContextConfig) -> ContextState:
    """One gated update of every chain; returns canonical N-of-M context states.

    ``terms[b]`` is the input term of chain b's input (a row of
    :func:`input_terms`). Raises DegenerateInputError when the blended
    drive of a chain is identically zero (possible at a gate boundary with
    a degenerate projection) and ParameterError when it is non-finite.
    """
    terms = np.asarray(terms, dtype=np.float64)
    if terms.shape != prev.vector.shape:
        raise ParameterError(f"input terms are {terms.shape}, contexts {prev.vector.shape}")
    lam = cfg.lambda_gate
    blend = terms
    if lam > 0.0 and prev.support.shape[1]:
        blend = lam * _scale(support_matvec(cfg.p1, prev.vector, prev.support)) + terms
    if not all(blend.any(axis=1).tolist()):
        raise DegenerateInputError("blended context drive is identically zero")
    firing = nofm(blend, cfg.code_params)
    return ContextState(to_significance(firing, cfg.code_params), np.sort(firing, axis=1))
