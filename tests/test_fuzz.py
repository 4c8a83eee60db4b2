"""Fuzz the public entry points of posenc, spikeattn and the engine.

Each test draws arguments, valid or not: NaN, +-inf, 1e+-300, bools,
strings, None, ragged lists and arrays of the wrong rank. An entry point
returns a finite result or raises a SpikeSeqError, within the hypothesis
deadline and without a numeric warning. Every array is at most 8 x 8 (a
3-D one at most 2 x 8 x 8), every trial count at most 8, an engine has at
most M=32 neurons, W=64 locations and A=8 symbols, and nothing starts a
thread. A machine snapshot that was truncated, extended or had one byte
changed raises ParameterError.
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
from hypothesis.extra.numpy import arrays

from spikeseq.codes import CodeParams, random_firing, to_significance
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
from spikeseq.sdm import AddressDecoder, decode_address
from spikeseq.seqmachine import (
    SequenceMachine,
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


@st.composite
def _projections(draw, m):
    """An (m, m) finite matrix half the time, else anything an encoding can be."""
    if draw(st.booleans()):
        return draw(_arrays((m, m), _FINITE_FLOATS))
    return draw(_ENCODINGS)


@_FUZZ
@given(lambda_gate=_UNIT, m=st.integers(1, 8), data=st.data())
def test_context_config(lambda_gate, m, data):
    params = CodeParams(m, 1, 0.5)
    p1, p2 = data.draw(_projections(m)), data.draw(_projections(m))
    cfg = _finite_or_rejected(ContextConfig, lambda_gate, p1, p2, params)
    _finite_or_rejected(ContextConfig.random, lambda_gate, params, np.random.default_rng(0))
    if cfg is not None:  # an accepted config steps without overflow
        firing = random_firing(2, params, np.random.default_rng(0))
        codes = ContextState(to_significance(firing, params), np.sort(firing, axis=1))
        terms = _finite_or_rejected(input_terms, codes.vector, codes.support, cfg)
        if terms is not None:
            _finite_or_rejected(update_context, codes, terms, cfg)


@_FUZZ
@given(
    n_locations=st.one_of(st.integers(-1, 64), _SCALARS),
    seed=st.one_of(_INTS, st.integers(0, 2**64)),
    threshold=_UNIT,
    data=st.data(),
)
def test_address_decoder(n_locations, seed, threshold, data):
    params = CodeParams(8, 3, 0.9)
    if data.draw(st.booleans()):
        addresses = data.draw(_arrays(st.tuples(st.integers(0, 8), st.just(8)), _FLOATS))
    else:
        addresses = data.draw(_ENCODINGS)
    firing = random_firing(2, params, np.random.default_rng(0))
    contexts = ContextState(to_significance(firing, params), np.sort(firing, axis=1))
    for dec in (
        _finite_or_rejected(AddressDecoder, addresses, params),
        _finite_or_rejected(AddressDecoder.random, n_locations, params, seed),
    ):
        if dec is not None:
            _finite_or_rejected(decode_address, contexts, dec, threshold)


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
