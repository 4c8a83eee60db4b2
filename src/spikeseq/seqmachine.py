"""End-to-end sequence machine: encode, context, memory, decode.

Symbols map to fixed random rank-ordered codes, the rows of the
codebook's (A, N) firing-order block; a gated context chain addresses a
sparse distributed memory that stores next-symbol codes one-shot;
decoding projects a retrieved burst back onto the codebook
(transposed-encoder scores) and takes the winner.

Recall is autoregressive: the decoded symbol's clean code is fed back.
Each step addresses the memory and reads it, and a chain halts at one
point, after the read, when its confidence is 0: it emits no symbol and
records a reason, "no active memory location" when its read was empty and
"confidence 0 too low" when it read only zeros.

The engine runs chains in lockstep. ``learn_sequences`` and
``recall_sequences`` advance a block of B chains, one per sequence or cue,
by one step per call of each kernel (context update, addressing, write or
read, decode), each kernel taking the block along a leading axis. A block
keeps every chain from its first step to its last: every kernel gives a
row the bits that the row gets alone, so the chains do not affect one
another. Learning runs every chain to the longest sequence's end, and past
its own last symbol a chain's data row is zero, which writes nothing under
the max rule; recall keeps a halted chain in the block and records none of
its later steps. ``learn_sequence`` and ``recall_sequence`` run a block of
one. The max write rule is commutative and idempotent and recall only
reads, so any grouping of chains into blocks gives the same memory and the
same recalls, bit for bit.

Every code on the step path is a block of firing orders, and each
container of codes is a frozen value over its block that derives the rest
once: the codebook caches each codeword's significance row, a context
state holds the rows and ascending supports of the codes its update
selected, and a read returns firing orders that decoding turns into rows.
An activation pattern is its (B, W) weights alone: a write or a read
finds each chain's active locations where it uses them. The machine
builds the input term of every codeword once, at construction, from the
codebook's firing block (:func:`~spikeseq.context.input_terms`), and an
update adds the row of each chain's symbol. A run starts from the empty
history, ``None``, and its context state is a value that the learn and
recall functions keep in a local variable; a machine holds its
configuration and its memory, no state of a run.

Everything but the memory is fixed at construction: the codebook, the
context configuration, the input table, the frozen address decoder and the
activation threshold calibrated for it, which the machine holds and passes
to every addressing call. Learning writes the memory in place.
:func:`save_machine` writes the eight constructor arguments, the threshold
and the memory; :func:`load_machine` rebuilds the machine from the
arguments, which derive everything else from the seed, and accepts the
file only when the rebuilt threshold equals the stored one bit for bit.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .codes import (
    CodeParams,
    FloatVector,
    IndexVector,
    check_firing,
    freeze_arrays,
    random_firing,
    to_significance,
    vector_norm,
)
from .context import ContextConfig, input_terms, update_context
from .errors import (AlphabetError, DegenerateInputError, ParameterError, check_generator,
                     check_int, check_matrix)
from .sdm import (
    AddressDecoder,
    CorrelationMatrix,
    _check_non_negative,
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
    "learn_sequences",
    "recall_sequence",
    "recall_sequences",
    "capacity_experiment",
    "save_machine",
    "load_machine",
]

_SNAPSHOT_TAG = (b"SEQM", 2)  # magic and version
# the constructor arguments, in the order of SequenceMachine.__init__ and the header
_MACHINE_ARGS = ("alphabet_size", "m_total", "n_active", "alpha", "n_locations",
                 "lambda_gate", "target_active", "seed")
# magic, version, the eight arguments, threshold; the CRC-32 follows
_HEADER = struct.Struct("<4sIqqqdqdqqd")
_CRC = struct.Struct("<I")


@dataclass(frozen=True, eq=False)
class Codebook:
    """Alphabet of A pairwise-distinct rank-ordered codes: row a of ``firing`` is symbol a's.

    ``firing`` is an (A, N) integer block of firing orders, checked by
    :func:`~spikeseq.codes.check_firing`. The codebook derives the rows
    every step reads once, at construction, and keeps all of its arrays
    read-only.
    """

    code_params: CodeParams
    firing: IndexVector  # (A, N) firing orders, one code per symbol
    encode_matrix: FloatVector = field(init=False)  # (A, M) significance rows
    _row_norms: FloatVector = field(init=False, repr=False)  # (A,) norms of encode_matrix

    def __post_init__(self) -> None:
        p = self.code_params
        firing = check_firing(self.firing, p)
        if len(set(map(tuple, firing.tolist()))) != len(firing):
            raise ParameterError("codebook codes must be pairwise distinct")
        encode = to_significance(firing, p)
        freeze_arrays(self, firing=firing, encode_matrix=encode,
                      _row_norms=np.linalg.norm(encode, axis=1))

    @property
    def alphabet_size(self) -> int:
        return self.firing.shape[0]

    @classmethod
    def random(
        cls, alphabet_size: int, code_params: CodeParams, rng: np.random.Generator
    ) -> "Codebook":
        """``alphabet_size`` distinct codes, drawn as ``rng.permutation(M)[:N]`` until enough differ.

        Each round draws the codes still missing in one block and keeps the
        first occurrence of each; a round draws no more codes than the loop of
        single draws would, so the codes and the generator's end state are
        that loop's. ``rng`` must be a ``np.random.Generator``.
        """
        check_int("alphabet_size", alphabet_size, 1)
        n_codes = math.perm(code_params.m_total, code_params.n_active)
        if alphabet_size > n_codes:
            raise ParameterError(
                f"alphabet of {alphabet_size} symbols exceeds the {n_codes} distinct codes"
            )
        kept: dict[tuple[int, ...], None] = {}  # insertion-ordered: first occurrences
        while len(kept) < alphabet_size:
            drawn = random_firing(alphabet_size - len(kept), code_params, rng)
            kept.update(dict.fromkeys(map(tuple, drawn.tolist())))
        return cls(code_params, np.array(list(kept), dtype=np.intp))


def _check_symbols(symbols: list, size: int) -> None:
    """AlphabetError unless every symbol is a Python or numpy integer in
    [0, size); ``bool`` is not a symbol."""
    for kind in set(map(type, symbols)):
        if issubclass(kind, (bool, np.bool_)) or not issubclass(kind, (int, np.integer)):
            bad = next(x for x in symbols if type(x) is kind)
            raise AlphabetError(f"symbol {bad!r} is not an integer")
    if symbols and not (0 <= min(symbols) and max(symbols) < size):
        bad = next(x for x in symbols if not 0 <= x < size)
        raise AlphabetError(f"symbol {bad} outside alphabet of size {size}")


def encode_symbol(cb: Codebook, symbol: int) -> FloatVector:
    """Canonical significance vector of the symbol's code.

    A symbol that is not an integer in the alphabet raises AlphabetError.
    """
    _check_symbols([symbol], cb.alphabet_size)
    return cb.encode_matrix[symbol].copy()


def decode_burst(cb: Codebook, bursts: FloatVector) -> tuple[IndexVector, FloatVector]:
    """Winner-take-all read-out of each burst row against the transposed codebook.

    Scores every symbol by cosine similarity to each of the (B, M) bursts;
    returns (symbols, margins), each (B,), where a margin is best minus
    second-best score and ties fall to the lower symbol index. A codebook
    of one codeword has no second-best score: the symbol is 0 and the
    margin is the codeword's cosine with the burst. A burst is
    any float row, not only a code, so its norm is checked here: raises
    ParameterError on bursts that are not a (B, M) float matrix
    (:func:`~spikeseq.errors.check_matrix`) and on a burst that is
    non-finite or whose norm is past the float range (with no overflow
    warning), and DegenerateInputError on an all-zero one.
    """
    bursts = check_matrix("bursts", bursts, cols=cb.encode_matrix.shape[1])
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        bnorm = vector_norm(bursts)
    for x in bnorm.tolist():  # a few floats: cheaper in Python than two reductions
        if not x < math.inf:
            raise ParameterError("burst is non-finite or too large")
        if x == 0.0:
            raise DegenerateInputError("burst is all-zero")
    scores = np.matvec(cb.encode_matrix, bursts) / (cb._row_norms * bnorm[:, None])
    best = scores.argmax(axis=1)
    a = cb.alphabet_size
    if a == 1:
        return best, scores[:, 0]
    # partitioned in place, the largest score lands last and the second-best
    # just before it
    scores.partition(a - 2, axis=1)
    return best, scores[:, a - 1] - scores[:, a - 2]


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
    of threshold calibration) is derived from a single integer seed in
    [0, 2**63), so identical seeds and inputs give bit-identical behaviour.
    Runs start from the empty history, so a full gate (``lambda_gate`` 1) is
    rejected. ``input_table`` holds the input term of every codeword, (A, M),
    and ``threshold`` the activation threshold calibrated for the decoder.
    ``seed`` and ``target_active`` keep the two constructor arguments that
    no other part holds, so that the machine can be saved. Every array the
    machine holds but ``memory.w`` is read-only; its attributes are not
    frozen, and ``input_table`` is derived from ``codebook`` and
    ``context_cfg`` once, at construction.
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
        check_int("alphabet_size", alphabet_size, 1)
        check_int("n_locations", n_locations, 1)
        # the (A, M) codebook rows, the (M, M) projections and the (W, M)
        # decoder and memory must be arrays numpy can describe
        size = 8 * int(m_total) * int(max(alphabet_size, m_total, n_locations))
        if size > np.iinfo(np.intp).max:
            raise ParameterError(f"a geometry of {size} bytes per array exceeds the address space")
        # the decoder draws from the seed itself and rejects one that is not an
        # integer in [0, 2**63) before SeedSequence sees it
        self.decoder = AddressDecoder.random(n_locations, self.params, seed)
        self.seed, self.target_active = seed, target_active
        ss = np.random.SeedSequence(seed).spawn(3)
        self.codebook = Codebook.random(
            alphabet_size, self.params, np.random.default_rng(ss[0])
        )
        self.context_cfg = ContextConfig(lambda_gate, self.params, np.random.default_rng(ss[1]))
        freeze_arrays(self, input_table=input_terms(self.codebook.firing, self.context_cfg))
        self.threshold = calibrate_threshold(
            self.decoder, target_active, seed=int(ss[2].generate_state(1)[0])
        )
        self.memory = CorrelationMatrix.zeros(m_total, n_locations)


def _symbol_block(m: SequenceMachine, seqs: list[list[int]]) -> tuple[IndexVector, np.ndarray]:
    """The sequences as the rows of a (B, L) index block, zero-padded to the
    longest, and the (B, L) mask of the symbols they hold.

    ``seqs`` that is not a collection of symbol sequences raises
    ParameterError; symbols are checked as :func:`encode_symbol` checks one.
    """
    try:
        seqs = list(seqs)
        lengths = [len(seq) for seq in seqs]
        flat = list(itertools.chain.from_iterable(seqs))
    except TypeError:
        raise ParameterError(f"expected a list of symbol lists, got {seqs!r:.60}") from None
    _check_symbols(flat, m.codebook.alphabet_size)
    held = np.arange(max(lengths, default=0)) < np.array(lengths)[:, None]
    block = np.zeros(held.shape, dtype=np.intp)
    # exact: every symbol is an integer in the alphabet
    block[held] = np.fromiter(flat, dtype=np.intp, count=len(flat))
    return block, held


def learn_sequences(m: SequenceMachine, seqs: list[list[int]]) -> SequenceMachine:
    """One one-shot pass over each sequence, all in lockstep.

    Chain b stores ``seqs[b][t + 1]`` at the context that ``seqs[b][:t + 1]``
    reaches from the empty history, ``None``. Every chain runs to the
    longest sequence's end; past its own last symbol a chain's data row is
    zero, and a zero row writes nothing. Sequences may have any lengths:
    empty or length-1 sequences leave the memory untouched. The
    memory is the one that learning the sequences one by one leaves, bit
    for bit.
    """
    symbols, held = _symbol_block(m, seqs)
    # (L - 1, B, M) data rows, step-major so that each step's block is
    # contiguous, and zero past each chain's last symbol
    data = m.codebook.encode_matrix[symbols.T[1:]] * held.T[1:, :, None]
    state = None
    for t, rows in enumerate(data):
        state = update_context(state, m.input_table[symbols[:, t]], m.context_cfg)
        cmm_write(m.memory, decode_address(state, m.decoder, m.threshold), rows)
    return m


def learn_sequence(m: SequenceMachine, symbols: list[int]) -> SequenceMachine:
    """Single one-shot pass storing each next-symbol at its context address.

    ``learn_sequences`` on a block of one sequence.
    """
    return learn_sequences(m, [symbols])


def recall_sequences(
    m: SequenceMachine, cues: list[list[int]], steps: int
) -> list[RecallResult]:
    """Prime one chain per cue, then predict autoregressively in lockstep.

    The cues share one length of at least one symbol. Each chain predicts
    up to ``steps`` symbols; a read of confidence 0 (no active location,
    or nothing stored there) ends its run with a halt reason. A halted
    chain stays in the block, and nothing it reads after the halt is
    recorded; the run ends when every chain has halted. Result b is the
    one ``recall_sequence(m, cues[b], steps)`` returns, bit for bit.
    """
    check_int("steps", steps, 0)
    symbols, held = _symbol_block(m, cues)
    if not held.all():
        raise ParameterError("recall cues must share one length")
    if not len(symbols):
        return []
    if not held.size:
        raise ParameterError("recall needs at least one seed symbol")
    state = None
    for column in symbols.T:
        state = update_context(state, m.input_table[column], m.context_cfg)
    out: list[list[RecallStep]] = [[] for _ in symbols]
    halts: list[str | None] = [None] * len(symbols)
    for step in range(steps):
        act = decode_address(state, m.decoder, m.threshold)
        firing, conf = cmm_read(m.memory, act, m.params)
        symbol, margin = decode_burst(m.codebook, to_significance(firing, m.params))
        for b, (s, mg, c) in enumerate(zip(symbol.tolist(), margin.tolist(), conf.tolist())):
            if halts[b] is None and c:
                out[b].append(RecallStep(s, mg, c))
            elif halts[b] is None:
                halts[b] = ("confidence 0 too low" if act.weights[b].any()
                            else "no active memory location")
        if all(halts):
            break
        if step + 1 < steps:
            state = update_context(state, m.input_table[symbol], m.context_cfg)
    return [RecallResult(o, h) for o, h in zip(out, halts)]


def recall_sequence(m: SequenceMachine, seed_symbols: list[int], steps: int) -> RecallResult:
    """Prime the context with seed symbols, then predict autoregressively.

    ``recall_sequences`` on a block of one cue. A read of confidence 0
    ends the run with a halt reason.
    """
    return recall_sequences(m, [seed_symbols], steps)[0]


def sample_sequences(
    rng: np.random.Generator, n_sequences: int, length: int, alphabet_size: int
) -> list[list[int]]:
    """Random sequences with pairwise-distinct first symbols.

    Distinct first symbols keep one-symbol-seed recall well posed: with
    fully i.i.d. draws two stored sequences regularly share a first
    symbol, which makes their continuations inherently ambiguous. ``rng``
    must be a ``np.random.Generator``.
    """
    check_generator(rng)
    check_int("n_sequences", n_sequences, 0)
    check_int("length", length, 1)
    check_int("alphabet_size", alphabet_size, 0)
    if n_sequences > alphabet_size:
        raise ParameterError("need n_sequences <= alphabet_size for distinct first symbols")
    firsts = rng.permutation(alphabet_size)[:n_sequences]
    return [
        [int(f)] + [int(s) for s in rng.integers(0, alphabet_size, size=length - 1)]
        for f in firsts
    ]


def capacity_experiment(
    n_sequences: int = 20, length: int = 8, n_seeds: int = 30, base_seed: int = 0
) -> list[float]:
    """Per-seed symbol-exact recall accuracy for one-shot stored sequences.

    Seed ``base_seed + k`` builds a fresh machine of the default geometry
    (``SequenceMachine(seed=base_seed + k)``), stores n_sequences random
    sequences once in lockstep, then recalls all of them in lockstep, each
    from its first symbol. The accuracy is the share of the
    ``n_sequences * (length - 1)`` continuation symbols recalled exactly,
    a symbol after a halt counting as wrong, so it needs at least one seed
    and one sequence of two or more symbols.
    """
    check_int("n_sequences", n_sequences, 1)
    check_int("length", length, 2)
    check_int("n_seeds", n_seeds, 1)
    accuracies = []
    for k in range(n_seeds):
        machine = SequenceMachine(seed=base_seed + k)
        rng = np.random.default_rng(base_seed + k + 10_000)
        seqs = sample_sequences(rng, n_sequences, length, machine.codebook.alphabet_size)
        learn_sequences(machine, seqs)
        results = recall_sequences(machine, [s[:1] for s in seqs], length - 1)
        correct = sum(a == b for s, r in zip(seqs, results) for a, b in zip(r.symbols, s[1:]))
        accuracies.append(correct / (n_sequences * (length - 1)))
    return accuracies


def save_machine(path, m: SequenceMachine) -> None:
    """Write the machine to ``path``: its constructor arguments, threshold and memory.

    Layout (little-endian): magic 'SEQM', u32 version 2; the eight
    constructor arguments in their order, each an i64 but ``alpha`` and
    ``lambda_gate``, which are f64; the f64 threshold; a u32 CRC-32 of the
    header bytes before it and the body; then the body, the (M, W) memory
    as float64 entries row-major.
    """
    args = (m.codebook.alphabet_size, m.params.m_total, m.params.n_active, m.params.alpha,
            m.decoder.n_locations, m.context_cfg.lambda_gate, m.target_active, m.seed)
    header = _HEADER.pack(*_SNAPSHOT_TAG, *args, m.threshold)
    body = np.asarray(m.memory.w, dtype="<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_CRC.pack(zlib.crc32(body, zlib.crc32(header))))
        fh.write(body)


def load_machine(path) -> SequenceMachine:
    """The machine that ``save_machine`` wrote to ``path``.

    The length and the checksum are checked before anything is built;
    then the machine is rebuilt from its constructor arguments and the
    memory loaded into it. Raises ParameterError on a foreign, truncated,
    over-long or corrupted file, on a header whose geometry does not match
    the body length, and when the rebuilt threshold is not the stored one
    bit for bit.
    """
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    head = _HEADER.size + _CRC.size
    if len(raw) < head:
        raise ParameterError(f"snapshot has {len(raw)} bytes, less than its {head}-byte header")
    magic, version, *values, threshold = _HEADER.unpack_from(raw)
    if (magic, version) != _SNAPSHOT_TAG:
        raise ParameterError(f"not a version-2 machine snapshot: {magic!r}, version {version}")
    args = dict(zip(_MACHINE_ARGS, values))
    shape = (args["m_total"], args["n_locations"])
    body = raw[head:]
    if len(body) != 8 * shape[0] * shape[1]:
        raise ParameterError(f"snapshot body has {len(body)} bytes, not a {shape} float64 memory")
    if _CRC.unpack_from(raw, _HEADER.size)[0] != zlib.crc32(body, zlib.crc32(raw[: _HEADER.size])):
        raise ParameterError("snapshot checksum does not match: the file is corrupted")
    m = SequenceMachine(**args)
    if m.threshold.hex() != threshold.hex():
        raise ParameterError(f"rebuilt threshold {m.threshold!r} is not the stored {threshold!r}")
    w = np.frombuffer(body, dtype="<f8").reshape(shape).astype(np.float64, order="F")
    _check_non_negative("snapshot memory", w)
    m.memory = CorrelationMatrix(w)
    return m
