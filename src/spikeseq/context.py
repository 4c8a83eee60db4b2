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
supports. A block keeps its chains from the first update to the last.

The input term depends only on the input code, so it is computed once per
code: :func:`input_terms` returns the rows ``(1 - gate) * scale(P2 @ x)``
of a codebook, and an update adds the row of each chain's input to its
history term. The arithmetic is the same as computing the term at every
step, so the states are bit-identical.

The projections are drawn, not supplied: a :class:`ContextConfig` draws
P1 and P2 from the generator it is built with and keeps them column-major
and read-only. The history and the input are N-of-M codes that carry
their ascending support, so each product gathers only the N projection
columns of that support (:func:`~spikeseq.codes.support_matvec`); the
empty start history has a width-0 support and a zero history term.

State is a value: :class:`ContextState` is immutable, ``update_context``
returns a new one, and callers keep it in a local variable, so any number
of chains can run over one configuration.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .codes import (
    CodeParams,
    FloatVector,
    IndexVector,
    freeze_arrays,
    nofm,
    support_matvec,
    to_significance,
    vector_norm,
)
from .errors import (DegenerateInputError, ParameterError, check_float, check_generator,
                     check_matrix)

__all__ = ["ContextConfig", "ContextState", "input_terms", "update_context"]


def _scale(v: FloatVector) -> FloatVector:
    """L2-normalize each row; a zero row maps to itself."""
    n = vector_norm(v)
    if 0.0 in n.tolist():  # a few floats: cheaper in Python than a masked write
        n[n == 0.0] = 1.0
    return v / n[:, None]


@dataclass(frozen=True, eq=False)
class ContextConfig:
    """Gate and code geometry, and the two projections drawn from ``rng``.

    The gate is a number in [0, 1], stored as a float. ``rng`` must be a
    ``np.random.Generator``; the (M, M) projections P1 (history) and P2
    (input) are drawn from it in that order, each as i.i.d. normal entries
    with every column divided by its norm, and stored column-major and
    read-only. A machine of seed s draws its projections from
    ``np.random.default_rng(np.random.SeedSequence(s).spawn(3)[1])``, so a
    config built from an equal generator has that machine's projections
    under another gate.
    """

    lambda_gate: float
    code_params: CodeParams
    rng: InitVar[np.random.Generator]
    p1: FloatVector = field(init=False, repr=False)  # context -> context, (M, M)
    p2: FloatVector = field(init=False, repr=False)  # input -> context, (M, M)

    def __post_init__(self, rng: np.random.Generator) -> None:
        gate = check_float("lambda_gate", self.lambda_gate, 0.0, 1.0, closed=True)
        object.__setattr__(self, "lambda_gate", gate)
        check_generator(rng)
        m = self.code_params.m_total
        # P1 is drawn and scaled before P2 is drawn: fewer (M, M) arrays alive at once
        p1, p2 = [np.divide(p, np.linalg.norm(p, axis=0), order="F")
                  for p in (rng.normal(size=(m, m)) for _ in range(2))]
        freeze_arrays(self, p1=p1, p2=p2)


@dataclass(frozen=True, eq=False)
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


def input_terms(vectors: FloatVector, supports: IndexVector, cfg: ContextConfig) -> FloatVector:
    """Input terms ``(1 - gate) * scale(P2 @ x)`` of the rows x of vectors, (A, M).

    ``supports`` holds the ascending support of each row. Raises
    ParameterError when the vectors are not an (A, M) float matrix
    (:func:`~spikeseq.errors.check_matrix`), are not finite on their
    supports, or a row's product with P2 has a norm past the float range.
    """
    vectors = check_matrix("vectors", vectors, cols=cfg.code_params.m_total)
    with np.errstate(over="ignore", invalid="ignore"):
        drive = support_matvec(cfg.p2, vectors, supports)
        finite = np.isfinite(vector_norm(drive)).all()
    if not finite:
        raise ParameterError("an input's product with p2 has a norm past the float range")
    return (1.0 - cfg.lambda_gate) * _scale(drive)


def update_context(prev: ContextState, terms: FloatVector, cfg: ContextConfig) -> ContextState:
    """One gated update of every chain; returns canonical N-of-M context states.

    ``terms[b]`` is the input term of chain b's input (a row of
    :func:`input_terms`). Raises DegenerateInputError when the blended
    drive of a chain is identically zero: at gate 1 from the empty start
    history, whose input terms are all zero, or at gate 0 (or from the
    empty start history) on an all-zero row of terms. Raises
    ParameterError when the terms do not have the (B, M) shape of the
    contexts' vectors (the message names them "input terms") and when the
    drive is non-finite.
    """
    terms = check_matrix("input terms", terms, *prev.vector.shape)
    lam = cfg.lambda_gate
    blend = terms
    if lam > 0.0 and prev.support.shape[1]:
        blend = lam * _scale(support_matvec(cfg.p1, prev.vector, prev.support)) + terms
    if not all(blend.any(axis=1).tolist()):
        raise DegenerateInputError("blended context drive is identically zero")
    firing = nofm(blend, cfg.code_params)
    return ContextState(to_significance(firing, cfg.code_params), np.sort(firing, axis=1))
