"""Gated recurrent context over rank-ordered codes.

The context is a canonical significance vector updated by blending a
projection of its own history against a projection of the current input:

    C_n = nofm(gate * scale(P1 @ C_{n-1}) + (1 - gate) * scale(P2 @ I_n))

``scale`` is L2 normalization (a swappable policy; unit-norm contributions
give the gate a consistent meaning across input magnitudes). After top-N
selection the canonical geometric weights are reassigned by descending
blended magnitude, so the state stays in the code space the address
decoder consumes.

The projections are stored column-major. The history and the input are
N-of-M codes that carry their ascending support, so each product gathers
only the N projection columns of that support
(:func:`~spikeseq.codes.support_matvec`); the empty start history gives a
zero history term.

State is a value: :class:`ContextState` is immutable, ``update_context``
returns a new one, and callers keep it in a local variable, so any number
of chains can run over one configuration.
"""

from __future__ import annotations

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
from .errors import DegenerateInputError, ParameterError

__all__ = ["ContextConfig", "ContextState", "update_context", "random_projection"]


def random_projection(rows: int, cols: int, rng: np.random.Generator) -> FloatVector:
    """Seeded projection matrix: i.i.d. normal entries, unit-norm columns."""
    p = rng.normal(size=(rows, cols))
    p /= np.linalg.norm(p, axis=0, keepdims=True)
    return p


def _scale(v: FloatVector) -> FloatVector:
    """L2-normalize; the zero vector maps to itself."""
    n = vector_norm(v)
    return v / n if n > 0.0 else v


@dataclass(frozen=True)
class ContextConfig:
    """Gate, projections and code geometry; the projections are stored column-major."""

    lambda_gate: float
    p1: FloatVector  # context -> context, (M_c, M_c)
    p2: FloatVector  # input -> context, (M_c, M_i)
    code_params: CodeParams

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_gate <= 1.0:
            raise ParameterError(f"lambda_gate must lie in [0, 1], got {self.lambda_gate}")
        m_c = self.code_params.m_total
        if self.p1.shape != (m_c, m_c):
            raise ParameterError(f"p1 must be ({m_c}, {m_c}), got {self.p1.shape}")
        if self.p2.ndim != 2 or self.p2.shape[0] != m_c:
            raise ParameterError(f"p2 must have {m_c} rows, got {self.p2.shape}")
        object.__setattr__(self, "p1", np.asfortranarray(self.p1, dtype=np.float64))
        object.__setattr__(self, "p2", np.asfortranarray(self.p2, dtype=np.float64))

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
    """Current context: a significance vector and its ascending support.

    ``support`` holds every index where ``vector`` is non-zero, ascending.
    The start state is all-zero with an empty support.
    """

    vector: FloatVector
    support: IndexVector

    @classmethod
    def from_code(cls, code) -> "ContextState":
        return cls(to_significance(code), code.support)

    @classmethod
    def start(cls, m_total: int) -> "ContextState":
        """The empty history: the first update then depends only on its input."""
        return cls(np.zeros(m_total), np.zeros(0, dtype=np.intp))


def update_context(
    prev: ContextState,
    input_vec: FloatVector,
    input_support: IndexVector,
    cfg: ContextConfig,
) -> ContextState:
    """One gated update; returns a canonical N-of-M context state.

    ``input_support`` is the ascending support of ``input_vec``. Raises
    DegenerateInputError when the blended drive is identically zero
    (possible at a gate boundary with a degenerate projection) and
    ParameterError when it is non-finite.
    """
    input_vec = np.asarray(input_vec, dtype=np.float64)
    if input_vec.shape != (cfg.p2.shape[1],):
        raise ParameterError(
            f"input has shape {input_vec.shape}, expected ({cfg.p2.shape[1]},)"
        )
    lam = cfg.lambda_gate
    blend = np.zeros(cfg.code_params.m_total)
    if lam > 0.0:
        blend += lam * _scale(support_matvec(cfg.p1, prev.vector, prev.support))
    if lam < 1.0:
        blend += (1.0 - lam) * _scale(support_matvec(cfg.p2, input_vec, input_support))
    if not blend.any():
        raise DegenerateInputError("blended context drive is identically zero")
    code = nofm(blend, cfg.code_params)
    return ContextState(to_significance(code), code.support)
