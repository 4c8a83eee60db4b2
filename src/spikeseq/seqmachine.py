"""End-to-end sequence machine: encode, context, memory, decode.

Symbols map to fixed random rank-ordered codes; a gated context chain
addresses a sparse distributed memory that stores next-symbol codes
one-shot; decoding projects a retrieved burst back onto the codebook
(transposed-encoder scores) and takes the winner.

Recall is autoregressive: the decoded symbol's clean code is fed back,
and a retrieval with no active location or zero confidence halts with a
reason instead of emitting garbage.

Every code on the step path carries its ascending support: the codebook
caches each codeword's, the context state holds the one its update
produced, and an activation pattern the locations it found active. The
context state is a value that ``learn_sequence`` and ``recall_sequence``
keep in a local variable; a machine holds its configuration and its
memory, no state of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codes import (
    CodeParams,
    FloatVector,
    IndexVector,
    RankOrderCode,
    random_code,
    to_significance,
    vector_norm,
)
from .context import ContextConfig, ContextState, update_context
from .errors import AlphabetError, DegenerateInputError, NoActiveLocationError, ParameterError
from .sdm import (
    AddressDecoder,
    CorrelationMatrix,
    calibrate_threshold,
    cmm_read,
    cmm_write,
    decode_address,
)

__all__ = [
    "Codebook",
    "SequenceMachine",
    "RecallStep",
    "RecallResult",
    "encode_symbol",
    "decode_burst",
    "learn_sequence",
    "recall_sequence",
    "capacity_experiment",
]


@dataclass
class Codebook:
    """Alphabet of one or more pairwise-distinct random rank-ordered codes."""

    code_params: CodeParams
    codes: list[RankOrderCode]
    encode_matrix: FloatVector = field(init=False)  # (A, M) stacked significances
    supports: list[IndexVector] = field(init=False, repr=False)  # ascending, per code
    _row_norms: FloatVector = field(init=False, repr=False)  # (A,) norms of encode_matrix

    def __post_init__(self) -> None:
        if not self.codes:
            raise ParameterError("a codebook needs at least one code")
        orders = {c.firing_order for c in self.codes}
        if len(orders) != len(self.codes):
            raise ParameterError("codebook codes must be pairwise distinct")
        self.encode_matrix = np.stack([to_significance(c) for c in self.codes])
        self.supports = [c.support for c in self.codes]
        self._row_norms = np.linalg.norm(self.encode_matrix, axis=1)

    @property
    def alphabet_size(self) -> int:
        return len(self.codes)

    @classmethod
    def random(
        cls, alphabet_size: int, code_params: CodeParams, rng: np.random.Generator
    ) -> "Codebook":
        n_codes = math.perm(code_params.m_total, code_params.n_active)
        if alphabet_size > n_codes:
            raise ParameterError(
                f"alphabet of {alphabet_size} symbols exceeds the {n_codes} distinct codes"
            )
        codes: list[RankOrderCode] = []
        seen: set[tuple[int, ...]] = set()
        while len(codes) < alphabet_size:
            c = random_code(code_params, rng)
            if c.firing_order not in seen:
                seen.add(c.firing_order)
                codes.append(c)
        return cls(code_params, codes)


def encode_symbol(cb: Codebook, symbol: int) -> FloatVector:
    """Canonical significance vector of the symbol's code."""
    if not 0 <= symbol < cb.alphabet_size:
        raise AlphabetError(f"symbol {symbol} outside alphabet of size {cb.alphabet_size}")
    return cb.encode_matrix[symbol].copy()


def decode_burst(cb: Codebook, burst: FloatVector) -> tuple[int, float]:
    """Winner-take-all read-out against the transposed codebook.

    Scores every symbol by cosine similarity to the burst; returns
    (symbol, margin) where margin is best minus second-best score and
    ties fall to the lower symbol index. Raises ParameterError on a
    non-finite burst and DegenerateInputError on an all-zero one.
    """
    burst = np.asarray(burst, dtype=np.float64)
    bnorm = vector_norm(burst)
    if not math.isfinite(bnorm):
        raise ParameterError("burst is non-finite")
    if bnorm == 0.0:
        raise DegenerateInputError("cannot decode an all-zero burst")
    scores = (cb.encode_matrix @ burst) / (cb._row_norms * bnorm)
    best = int(scores.argmax())
    top = float(scores[best])
    if cb.alphabet_size == 1:
        return best, top
    scores[best] = -np.inf  # the largest of the rest is the second-best score
    return best, top - float(scores.max())


@dataclass(frozen=True)
class RecallStep:
    symbol: int
    margin: float
    confidence: float


@dataclass(frozen=True)
class RecallResult:
    steps: list[RecallStep]
    halt_reason: str | None = None

    @property
    def symbols(self) -> list[int]:
        return [s.symbol for s in self.steps]


class SequenceMachine:
    """One-shot sequence store built from the module primitives.

    All randomness (codebook, projections, addresses and the probe contexts
    of threshold calibration) is derived from a single seed in [0, 2**63),
    so identical seeds and inputs give bit-identical behaviour. Runs start
    from the empty history, so a full gate (``lambda_gate`` 1) is rejected.
    """

    def __init__(
        self,
        alphabet_size: int = 26,
        m_total: int = 256,
        n_active: int = 11,
        alpha: float = 0.9,
        n_locations: int = 512,
        lambda_gate: float = 0.7,
        target_active: int = 16,
        seed: int = 0,
    ):
        if lambda_gate == 1.0:
            raise ParameterError(
                "lambda_gate=1 ignores every input, so the first update from the "
                "empty start history has no drive"
            )
        self.params = CodeParams(m_total, n_active, alpha)
        # the decoder draws from the seed itself and rejects one outside
        # [0, 2**63) before SeedSequence sees it
        self.decoder = AddressDecoder.random(n_locations, self.params, 0.0, seed=seed)
        ss = np.random.SeedSequence(seed).spawn(3)
        self.codebook = Codebook.random(
            alphabet_size, self.params, np.random.default_rng(ss[0])
        )
        self.context_cfg = ContextConfig.random(
            lambda_gate, self.params, np.random.default_rng(ss[1])
        )
        self.decoder.threshold = calibrate_threshold(
            self.decoder, target_active, seed=int(ss[2].generate_state(1)[0])
        )
        self.memory = CorrelationMatrix.zeros(m_total, n_locations)


def _feed_symbol(m: SequenceMachine, state: ContextState, symbol: int) -> ContextState:
    """The context after feeding the symbol's codeword."""
    cb = m.codebook
    return update_context(state, encode_symbol(cb, symbol), cb.supports[symbol], m.context_cfg)


def learn_sequence(m: SequenceMachine, symbols: list[int]) -> SequenceMachine:
    """Single one-shot pass storing each next-symbol at its context address.

    Each pass starts from the empty history (``ContextState.start``).
    Empty or length-1 sequences leave the memory untouched.
    """
    for s in symbols:
        if not 0 <= s < m.codebook.alphabet_size:
            raise AlphabetError(f"symbol {s} outside alphabet")
    state = ContextState.start(m.params.m_total)
    for prev, nxt in zip(symbols, symbols[1:]):
        state = _feed_symbol(m, state, prev)
        act = decode_address(state, m.decoder)
        if act.n_active:
            cmm_write(m.memory, act, encode_symbol(m.codebook, nxt))
    return m


def recall_sequence(m: SequenceMachine, seed_symbols: list[int], steps: int) -> RecallResult:
    """Prime the context with seed symbols, then predict autoregressively.

    Retrieval failures (no active location, zero confidence) end the run
    with a halt reason.
    """
    if not seed_symbols:
        raise ParameterError("recall needs at least one seed symbol")
    if steps < 0:
        raise ParameterError("steps must be non-negative")
    state = ContextState.start(m.params.m_total)
    for s in seed_symbols:
        state = _feed_symbol(m, state, s)
    out: list[RecallStep] = []
    for _ in range(steps):
        act = decode_address(state, m.decoder)
        try:
            code, confidence = cmm_read(m.memory, act, m.params)
        except NoActiveLocationError:
            return RecallResult(out, halt_reason="no active memory location")
        if confidence == 0.0:
            return RecallResult(out, halt_reason="confidence 0 too low")
        symbol, margin = decode_burst(m.codebook, to_significance(code))
        out.append(RecallStep(symbol, margin, confidence))
        state = _feed_symbol(m, state, symbol)
    return RecallResult(out)


def sample_sequences(
    rng: np.random.Generator, n_sequences: int, length: int, alphabet_size: int
) -> list[list[int]]:
    """Random sequences with pairwise-distinct first symbols.

    Distinct first symbols keep one-symbol-seed recall well posed: with
    fully i.i.d. draws two stored sequences regularly share a first
    symbol, which makes their continuations inherently ambiguous.
    """
    if not 0 <= n_sequences <= alphabet_size:
        raise ParameterError("need 0 <= n_sequences <= alphabet_size for distinct first symbols")
    if length < 1:
        raise ParameterError(f"sequence length must be >= 1, got {length}")
    firsts = rng.permutation(alphabet_size)[:n_sequences]
    return [
        [int(f)] + [int(s) for s in rng.integers(0, alphabet_size, size=length - 1)]
        for f in firsts
    ]


def capacity_experiment(
    n_sequences: int = 20,
    length: int = 8,
    n_seeds: int = 30,
    alphabet_size: int = 26,
    m_total: int = 256,
    n_active: int = 11,
    n_locations: int = 512,
    lambda_gate: float = 0.7,
    base_seed: int = 0,
) -> list[float]:
    """Per-seed symbol-exact recall accuracy for one-shot stored sequences.

    Each seed builds a fresh machine, stores n_sequences random sequences
    once, then recalls each from its first symbol and scores the predicted
    continuation symbol-by-symbol, so it needs at least one sequence of two
    or more symbols.
    """
    if n_sequences < 1 or length < 2:
        raise ParameterError(f"nothing to score with {n_sequences} sequences of length {length}")
    accuracies = []
    for k in range(n_seeds):
        seed = base_seed + k
        machine = SequenceMachine(
            alphabet_size=alphabet_size,
            m_total=m_total,
            n_active=n_active,
            n_locations=n_locations,
            lambda_gate=lambda_gate,
            seed=seed,
        )
        seqs = sample_sequences(
            np.random.default_rng(seed + 10_000), n_sequences, length, alphabet_size
        )
        for s in seqs:
            learn_sequence(machine, s)
        correct = total = 0
        for s in seqs:
            result = recall_sequence(machine, [s[0]], length - 1)
            got = result.symbols
            for i, want in enumerate(s[1:]):
                total += 1
                correct += i < len(got) and got[i] == want
        accuracies.append(correct / total)
    return accuracies
