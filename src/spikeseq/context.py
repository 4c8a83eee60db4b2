"""Gated recurrent context over rank-ordered codes.

The context is a canonical significance vector updated by blending a
projection of its own history against a projection of the current input:

    C_n = nofm(gate * scale(P1 @ C_{n-1}) + (1 - gate) * scale(P2 @ I_n))

``scale`` is L2 normalization (a swappable policy; unit-norm contributions
give the gate a consistent meaning across input magnitudes). After top-N
selection the canonical geometric weights are reassigned by descending
blended magnitude, so the state stays in the code space the address
decoder consumes.

Contexts run in blocks of B chains along a leading axis. A code has one
form, a block of firing orders, and a :class:`ContextState` is a frozen
value over the (B, N) firing block of B contexts, as the codebook and the
address decoder are over theirs: it derives, once, the (B, M) significance
rows (:func:`~spikeseq.codes.to_significance`) and the (B, N) ascending
supports. Both come from the firing block, so they always agree, and every
context is finite, non-negative and of norm at least 1; addressing and the
history product need no guard against a context that is none of these. An
update selects the firing orders of the blended drive with
:func:`~spikeseq.codes.nofm` and returns the state over them. The empty
history is no state: the first update of a run is given ``None`` and
depends only on its input. A block keeps its chains from the first update
to the last.

The input term depends only on the input code, so it is computed once per
code: :func:`input_terms` returns the rows ``(1 - gate) * scale(P2 @ x)``
of a codebook's firing block, and an update adds the row of each chain's
input to its history term. The arithmetic is the same as computing the
term at every step, so the states are bit-identical.

The projections are drawn, not supplied: a :class:`ContextConfig` draws
P1 and P2 from the generator it is built with and keeps them column-major
and read-only. The history and the input are codes, so each product
gathers only the N projection columns of their supports.

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
    _support_matvec,
    check_firing,
    freeze_arrays,
    nofm,
    to_significance,
    vector_norm,
)
from .errors import (DegenerateInputError, ParameterError, check_float, check_generator,
                     check_matrix)

__all__ = ["ContextConfig", "ContextState", "input_terms", "update_context"]


def _scale(v: FloatVector) -> FloatVector:
    """L2-normalize each row."""
    return v / vector_norm(v)[:, None]


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
    """Contexts of B chains, a frozen value over their (B, N) firing orders.

    ``firing[b]`` is chain b's code. The state derives, once, the (B, M)
    significance rows ``vector`` and the (B, N) ascending supports
    ``support``, ``support[b]`` being ``firing[b]`` sorted. Unlike the
    codebook's and the decoder's, its arrays are not made read-only: that
    would cost every step about 1.5 us, a fifth of building the state.
    Raises ParameterError when the firing orders are not a 2-D, N wide
    integer array with indices below M
    (:func:`~spikeseq.codes.to_significance`), and when an index of a code
    repeats or is negative, both found on its sorted support.
    """

    firing: IndexVector
    code_params: CodeParams
    vector: FloatVector = field(init=False, repr=False)  # (B, M) significance rows
    support: IndexVector = field(init=False, repr=False)  # (B, N) ascending, per chain

    def __post_init__(self) -> None:
        p = self.code_params
        vector = to_significance(self.firing, p)
        support = np.sort(self.firing, axis=1)
        # a few rows of N ints: cheaper in Python than a numpy test at one chain
        if any(len(set(r)) < p.n_active or r[0] < 0 for r in support.tolist()):
            raise ParameterError("the indices of a code must be distinct and non-negative")
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "support", support)


def input_terms(firing: IndexVector, cfg: ContextConfig) -> FloatVector:
    """Input terms ``(1 - gate) * scale(P2 @ x)`` of the codes x of an (A, N) firing block, (A, M).

    The block is checked as :func:`~spikeseq.codes.check_firing` checks a
    codebook's. A code's product with the unit-column P2 is finite, so the
    terms are.
    """
    codes = ContextState(check_firing(firing, cfg.code_params), cfg.code_params)
    return (1.0 - cfg.lambda_gate) * _scale(_support_matvec(cfg.p2, codes.vector, codes.support))


def update_context(
    prev: ContextState | None, terms: FloatVector, cfg: ContextConfig
) -> ContextState:
    """One gated update of every chain; returns canonical N-of-M context states.

    ``prev`` is the contexts of the chains, or None for the empty history
    of a run's first update, which then depends only on its input.
    ``terms[b]`` is the input term of chain b's input (a row of
    :func:`input_terms`). Raises DegenerateInputError when the blended
    drive of a chain is identically zero: at gate 1 from the empty
    history, whose input terms are all zero, or at gate 0 (or from the
    empty history) on an all-zero row of terms. Raises ParameterError on
    contexts whose M is not the config's, when the terms are not an M wide
    float matrix with a row per chain of ``prev`` (the message names them
    "input terms") and when the drive is non-finite.
    """
    # the empty history takes a block of any number of chains
    terms = check_matrix("input terms", terms, prev and len(prev.firing), cfg.code_params.m_total)
    blend = terms
    if cfg.lambda_gate > 0.0 and prev is not None:
        blend = cfg.lambda_gate * _scale(_support_matvec(cfg.p1, prev.vector, prev.support)) + terms
    if not all(blend.any(axis=1).tolist()):
        raise DegenerateInputError("blended context drive is identically zero")
    return ContextState(nofm(blend, cfg.code_params), cfg.code_params)
