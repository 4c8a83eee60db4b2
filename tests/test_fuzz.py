"""Fuzz the public entry points of posenc, spikeattn and the engine, and
the engine's step kernels.

Each test draws arguments, valid or not: NaN, +-inf, 1e+-300, bools,
strings, None, ragged lists and arrays of the wrong rank. An entry point
returns a finite result or raises a SpikeSeqError, within the hypothesis
deadline and without a numeric warning. Every array is at most 8 x 8 (a
3-D one at most 2 x 8 x 8), every trial count at most 8, an engine has at
most M=32 neurons, W=64 locations and A=8 symbols, and nothing starts a
thread. A machine snapshot that was truncated, extended or had one byte
changed raises ParameterError. A step kernel gets valid arguments of a
small geometry (M=8, N=3, W=16, A=4) beside the fuzzed array or symbol,
and so do the values built from outside input: an address decoder, a
codebook or context states from a fuzzed firing block, a correlation
matrix from a fuzzed matrix (at most 16 on a side).
"""

import dataclasses
import functools
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spikeseq.codes import CodeParams, nofm, random_firing
from spikeseq.context import ContextConfig, ContextState, input_terms, update_context
from spikeseq.errors import ParameterError, SpikeSeqError
from spikeseq.posenc import (
    PosEncParams,
    distance_profile,
    freq_compressed_pe,
    gram_matrix,
    lemma1_rank_invariance,
    rank_counterexample,
    sinusoidal_pe,
    spike_timing_pe,
    verify_isomorphism,
)
from spikeseq.sdm import (
    AddressDecoder,
    CorrelationMatrix,
    cmm_read,
    cmm_write,
    decode_address,
)
from spikeseq.seqmachine import (
    Codebook,
    SequenceMachine,
    decode_burst,
    encode_symbol,
    learn_sequences,
    load_machine,
    recall_sequences,
    save_machine,
)
from spikeseq.spikeattn import (
    AttentionInputs,
    compare_attention,
    softmax_attention,
    wta_attention,
)

_FUZZ = settings(max_examples=150, deadline=1000)

_FINITE_FLOATS = st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0])
)
_FLOATS = st.one_of(_FINITE_FLOATS, st.sampled_from([math.nan, math.inf, -math.inf]))
_JUNK = st.sampled_from([True, False, "x", "1.5", None, 1j, [], [[]]])
_SCALARS = st.one_of(_FLOATS, st.integers(-3, 8), _JUNK)
_INTS = st.one_of(st.integers(-3, 8), _SCALARS)  # integer arguments: in range half the time
_REALS = st.one_of(_FINITE_FLOATS, st.integers(-3, 8), _SCALARS, st.just(10**400))


def _arrays(shape, elements=_FLOATS):
    return arrays(np.float64, shape, elements=elements)


_SIDES = st.integers(0, 8)
_MATRICES = st.one_of(
    _arrays(st.tuples(_SIDES, _SIDES)),
    _arrays(st.tuples(_SIDES, _SIDES)).map(np.ndarray.tolist),
    _arrays(st.tuples(_SIDES, _SIDES), st.floats(-10.0, 10.0)),
)
_WRONG_RANK = st.one_of(
    _arrays(st.tuples()),
    _arrays(st.tuples(_SIDES)),
    _arrays(st.tuples(st.integers(0, 2), _SIDES, _SIDES)),
)
_RAGGED = st.lists(st.lists(_FLOATS, max_size=4), min_size=2, max_size=4)
_ENCODINGS = st.one_of(_MATRICES, _WRONG_RANK, _RAGGED, _JUNK)


def _finite(x) -> bool:
    """Every number in a result (reports, machines, arrays, lists, tuples) is finite."""
    if dataclasses.is_dataclass(x) or isinstance(x, SequenceMachine):
        return all(_finite(v) for v in vars(x).values())
    if isinstance(x, (list, tuple)):
        return all(_finite(v) for v in x)
    return x is None or isinstance(x, str) or bool(np.isfinite(x).all())


def _finite_or_rejected(f, *args, **kwargs):
    """f's result, asserted finite, or None when f raised a SpikeSeqError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numeric warning is a silent NaN or inf
        try:
            result = f(*args, **kwargs)
        except SpikeSeqError:
            return None
    assert _finite(result), result
    return result


@_FUZZ
@given(seq_len=_INTS, dim=_INTS, base=_REALS, window=_REALS)
def test_posenc_params(seq_len, dim, base, window):
    p = _finite_or_rejected(PosEncParams, seq_len, dim, base=base, window=window)
    if p is None:
        return
    # an accepted geometry is at most 8 positions of 8 dimensions here
    for encode in (sinusoidal_pe, spike_timing_pe, freq_compressed_pe):
        assert _finite_or_rejected(encode, p) is not None
        assert _finite_or_rejected(distance_profile, encode(p)) is not None
    assert _finite_or_rejected(lemma1_rank_invariance, p) is not None
    if p.seq_len >= 3:
        assert _finite_or_rejected(verify_isomorphism, p) is not None


@_FUZZ
@given(e=_ENCODINGS)
def test_gram_matrix(e):
    g = _finite_or_rejected(gram_matrix, e)
    if g is not None:
        assert g.shape == (len(e), len(e))


@_FUZZ
@given(a=_ENCODINGS, b=st.one_of(_ENCODINGS, st.just(None)))
def test_rank_counterexample(a, b):
    # None for b compares a with itself
    q = _finite_or_rejected(rank_counterexample, a, a if b is None else b)
    if b is None:
        assert q is None


@_FUZZ
@given(e=_ENCODINGS)
def test_distance_profile(e):
    prof = _finite_or_rejected(distance_profile, e)
    if prof is not None:
        assert [delta for delta, _ in prof] == list(range(len(e)))


_KEYS = st.integers(1, 8)


@st.composite
def _attention_parts(draw):
    """queries, keys and values: finite, of one geometry, 2-D or 3-D; or
    drawn each on its own from the encodings."""
    if draw(st.booleans()):
        lead = draw(st.sampled_from([(), (1,), (2,)]))
        n_q, n_k, d, d_v = draw(_KEYS), draw(_KEYS), draw(_KEYS), draw(_KEYS)
        shapes = ((n_q, d), (n_k, d), (n_k, d_v))
        return tuple(draw(_arrays(lead + shape, _FINITE_FLOATS)) for shape in shapes)
    return tuple(draw(_ENCODINGS) for _ in range(3))


@_FUZZ
@given(
    parts=_attention_parts(),
    temperature=_REALS,
    n_winners=_INTS,
    threshold=st.one_of(_REALS, st.floats(-1.0, 1.0)),
)
@example(  # the one logit is 1e600 - 1e600: rejected without an "invalid value" warning
    parts=(np.full((1, 2), 1e300), np.array([[1e300, -1e300]]), np.zeros((1, 1))),
    temperature=1.0,
    n_winners=1,
    threshold=0.0,
)
def test_attention(parts, temperature, n_winners, threshold):
    inp = _finite_or_rejected(AttentionInputs, *parts)
    if inp is None:
        return
    _finite_or_rejected(softmax_attention, inp, temperature=temperature)
    _finite_or_rejected(wta_attention, inp, n_winners=n_winners, threshold=threshold)


@_FUZZ
@given(
    n_trials=_INTS,
    d=_INTS,
    n_k=_INTS,
    seed=st.one_of(_INTS, st.integers(0, 2**80)),
    unit_norm=st.booleans(),
)
@example(n_trials=1, d=1, n_k=1, seed=2**63, unit_norm=True)  # past the old i64 bound
def test_compare_attention(n_trials, d, n_k, seed, unit_norm):
    rows = _finite_or_rejected(compare_attention, n_trials, d, n_k, seed, unit_norm)
    args = (n_trials, d, n_k, seed)
    if all(isinstance(v, int) and not isinstance(v, bool) for v in args) and (
        n_trials >= 0 and d >= 1 and n_k >= 1 and seed >= 0
    ):
        # every non-negative integer seed is accepted
        assert rows is not None and len(rows) == n_trials


# ---------------------------------------------------------------- engine

_UNIT = st.one_of(_REALS, st.floats(0.0, 1.0))  # gates and thresholds: in range half the time
_SYMBOL = st.one_of(st.integers(-1, 8), _SCALARS)
_SEQS = st.one_of(
    st.lists(st.lists(st.integers(0, 7), max_size=6), max_size=4),
    st.lists(st.lists(_SYMBOL, max_size=6), max_size=4),
    st.lists(_SYMBOL, max_size=4),
    _SCALARS,
)
_CUES = st.one_of(  # recall cues share one length
    st.integers(1, 3).flatmap(
        lambda k: st.lists(st.lists(st.integers(0, 7), min_size=k, max_size=k), max_size=4)
    ),
    _SEQS,
)


@st.composite
def _machine_args(draw):
    """The eight constructor arguments, valid and small, with up to two of
    them then replaced by anything a number argument can be; a size stays
    below 9, so that no draw allocates much."""
    m_total = draw(st.integers(1, 32))
    n_active = draw(st.integers(1, min(m_total, 8)))
    n_locations = draw(st.integers(1, 64))
    args = {
        "alphabet_size": draw(st.integers(1, min(8, math.perm(m_total, n_active)))),
        "m_total": m_total,
        "n_active": n_active,
        "alpha": draw(st.one_of(st.floats(1e-300, 0.999), st.sampled_from([1e-300, 1 - 2**-53]))),
        "n_locations": n_locations,
        "lambda_gate": draw(st.one_of(st.floats(0.0, 0.999), st.just(0.0))),
        "target_active": draw(st.integers(1, n_locations)),
        "seed": draw(st.one_of(st.integers(0, 2**63 - 1), st.just(2**63 - 1))),
    }
    for name in draw(st.sets(st.sampled_from(sorted(args)), max_size=2)):
        if name in ("alpha", "lambda_gate"):
            args[name] = draw(_REALS)
        elif name == "seed":
            args[name] = draw(st.one_of(_INTS, st.integers(2**63 - 2, 2**64)))
        else:
            args[name] = draw(_INTS)
    return args


@_FUZZ
@given(args=_machine_args(), seqs=_SEQS, cues=_CUES, steps=_INTS)
def test_sequence_machine(args, seqs, cues, steps):
    m = _finite_or_rejected(SequenceMachine, **args)
    if m is None:
        return
    _finite_or_rejected(learn_sequences, m, seqs)
    _finite_or_rejected(recall_sequences, m, cues, steps)


# generators, and what is not one: legacy RandomStates, int seeds and junk
_RNGS = st.one_of(
    st.integers(0, 2**32 - 1).map(np.random.default_rng),
    st.integers(0, 2**32 - 1).map(np.random.RandomState),
    _INTS,
)


@_FUZZ
@given(lambda_gate=_UNIT, m=st.integers(1, 8), rng=_RNGS)
def test_context_config(lambda_gate, m, rng):
    params = CodeParams(m, 1, 0.5)
    cfg = _finite_or_rejected(ContextConfig, lambda_gate, params, rng)
    if cfg is not None:  # an accepted config steps without overflow
        firing = random_firing(2, params, np.random.default_rng(0))
        terms = _finite_or_rejected(input_terms, firing, cfg)
        if terms is not None:
            _finite_or_rejected(update_context, ContextState(firing, params), terms, cfg)


@functools.cache
def _snapshot() -> bytes:
    """The file of a small machine that stored a few sequences."""
    m = SequenceMachine(alphabet_size=4, m_total=8, n_active=3, n_locations=6, target_active=2,
                        seed=3)
    learn_sequences(m, [[0, 1, 2, 3], [3, 2, 1]])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "machine.seqm"
        save_machine(path, m)
        return path.read_bytes()


@_FUZZ
@given(data=st.data())
def test_load_machine(data):
    raw = bytearray(_snapshot())
    edit = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
    if edit == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)) :]
    elif edit == "extend":
        raw += data.draw(st.binary(min_size=1, max_size=16))
    else:
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "machine.seqm"
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                load_machine(path)


# ---------------------------------------------------------------- kernels

_PARAMS = CodeParams(8, 3, 0.9)
# rows for a block of two chains, finite or not half the time, else anything
_ROWS = st.one_of(_arrays((2, 8)), _arrays((2, 8), _FINITE_FLOATS), _ENCODINGS)
# firing blocks of N=3 codes over M=8: valid ones, integer blocks with
# indices out of range or repeated, past int64, float, ragged and junk
_CODES = st.lists(st.permutations(range(8)).map(lambda order: order[:3]), min_size=1, max_size=8)
_FIRING = st.one_of(
    _CODES,
    arrays(np.intp, st.tuples(st.integers(0, 8), st.integers(0, 4)), elements=st.integers(-2, 9)),
    arrays(np.uint64, st.tuples(st.integers(0, 4), st.just(3)), elements=st.integers(0, 2**64 - 1)),
    st.lists(st.lists(st.integers(-2**70, 2**70), min_size=3, max_size=3), max_size=4),
    _MATRICES,
    _RAGGED,
    _JUNK,
)


@functools.cache
def _parts():
    """The valid arguments beside a fuzzed one: a codebook, a context
    configuration, a decoder and two contexts."""
    rng = np.random.default_rng(0)
    cb = Codebook.random(4, _PARAMS, rng)
    cfg = ContextConfig(0.5, _PARAMS, rng)
    contexts = ContextState(random_firing(2, _PARAMS, rng), _PARAMS)
    return cb, cfg, AddressDecoder.random(16, _PARAMS, 1), contexts


@_FUZZ
@given(v=_ROWS)
def test_nofm(v):
    firing = _finite_or_rejected(nofm, v, _PARAMS)
    if firing is not None:
        assert firing.shape == (len(v), 3)


@_FUZZ
@given(firing=_FIRING, terms=_ROWS)
def test_context_kernels(firing, terms):
    _, cfg, _, contexts = _parts()
    _finite_or_rejected(input_terms, firing, cfg)
    _finite_or_rejected(update_context, contexts, terms, cfg)


@_FUZZ
@given(data=_ROWS, threshold=st.floats(0.0, 1.0))
def test_memory_kernels(data, threshold):
    # a read of what the write stored: active locations from none to all
    _, _, dec, contexts = _parts()
    activation = decode_address(contexts, dec, threshold)
    cmm = _finite_or_rejected(cmm_write, CorrelationMatrix.zeros(8, 16), activation, data)
    if cmm is not None:
        _finite_or_rejected(cmm_read, cmm, activation, _PARAMS)


@_FUZZ
@given(firing=st.one_of(_CODES.map(np.array), _FIRING), threshold=st.floats(0.0, 1.0))
@example(firing=np.array([[0, 1, 2], [7, 1, -1]]), threshold=0.5)  # -1 beside 7: a repeat
def test_decode_address(firing, threshold):
    # contexts from any firing block: a ParameterError or a finite pattern
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            contexts = ContextState(firing, _PARAMS)
        except ParameterError:
            return
    _finite_or_rejected(decode_address, contexts, _parts()[2], threshold)


@_FUZZ
@given(bursts=_ROWS, symbol=_SYMBOL)
def test_codebook_kernels(bursts, symbol):
    cb = _parts()[0]
    _finite_or_rejected(decode_burst, cb, bursts)
    _finite_or_rejected(encode_symbol, cb, symbol)


# ---------------------------------------------------------------- values

@_FUZZ
@given(
    firing=_FIRING,
    n_locations=st.one_of(st.integers(-1, 64), _SCALARS),
    seed=st.one_of(_INTS, st.integers(0, 2**64)),
    threshold=_UNIT,
)
def test_address_decoder(firing, n_locations, seed, threshold):
    contexts = _parts()[3]
    for dec in (
        _finite_or_rejected(AddressDecoder, firing, _PARAMS),
        _finite_or_rejected(AddressDecoder.random, n_locations, _PARAMS, seed),
    ):
        if dec is not None:
            _finite_or_rejected(decode_address, contexts, dec, threshold)


@_FUZZ
@given(firing=_FIRING, bursts=_ROWS)
@example(firing=[[1, 2, 3], [4]], bursts=np.ones((1, 8)))  # ragged: numpy's ValueError before
def test_codebook(firing, bursts):
    cb = _finite_or_rejected(Codebook, _PARAMS, firing)
    if cb is not None:
        _finite_or_rejected(decode_burst, cb, bursts)


# the values a matrix may hold, in arrays of any rank and dtype and in
# what is no ndarray: the constructor checks the type, rank and dtype
_MEMORY_ARRAYS = arrays(
    st.sampled_from([np.float64, np.float32, np.int64]),
    st.one_of(st.just((8, 16)), array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=16)),
    elements=st.integers(0, 3),
)
_MEMORIES = st.one_of(_MEMORY_ARRAYS, _MEMORY_ARRAYS.map(np.ndarray.tolist), _RAGGED, _JUNK)


@_FUZZ
@given(w=_MEMORIES, threshold=st.floats(0.0, 1.0))
@example(w=np.zeros((8, 16), dtype=np.int64), threshold=0.0)  # truncated every write before
def test_correlation_matrix(w, threshold):
    _, _, dec, contexts = _parts()
    activation = decode_address(contexts, dec, threshold)
    cmm = _finite_or_rejected(CorrelationMatrix, w)
    if cmm is None:
        return
    _finite_or_rejected(cmm_read, cmm, activation, _PARAMS)
    data = np.full((2, 8), 0.9)
    if _finite_or_rejected(cmm_write, cmm, activation, data) is not None:
        # the written cells hold at least the products of the write
        for b, cols in enumerate(activation.active):
            assert (cmm.w[:, cols] >= np.outer(data[b], activation.weights[b, cols])).all()
