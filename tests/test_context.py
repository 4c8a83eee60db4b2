import inspect

import numpy as np
import pytest

from spikeseq.codes import CodeParams, random_firing
from spikeseq.context import (
    ContextConfig,
    ContextState,
    input_terms,
    update_context,
)
from spikeseq.errors import DegenerateInputError, ParameterError


def is_canonical(v, params):
    """Oracle: v carries exactly the weight set {alpha**0..alpha**(N-1)}."""
    nz = np.flatnonzero(v)
    return nz.size == params.n_active and np.array_equal(
        np.sort(v[nz])[::-1], params.significances
    )


_P = CodeParams(4, 2, 0.5)


def _cfg(lam):
    """A config of four neurons, two active, drawn from seed 0."""
    return ContextConfig(lam, _P, np.random.default_rng(0))


def _state(firing):
    """A block of one chain of _cfg's geometry whose context is the firing order."""
    return ContextState(np.array([firing]), _P)


def _drawn(p, rng):
    """The firing order of one random code, a block of one."""
    return random_firing(1, p, rng)


def _drawn_state(p, rng):
    """A block of one chain whose context is a random code."""
    return ContextState(_drawn(p, rng), p)


def _update(prev, firing, cfg):
    """update_context of a block of one chain, given its input's firing order."""
    return update_context(prev, input_terms(firing, cfg), cfg)


def test_start_state_is_empty_and_updates_carry_their_support():
    m, n = 64, 6
    p = CodeParams(m, n, 0.9)
    rng = np.random.default_rng(4)
    cfg = ContextConfig(0.6, p, rng)
    state = None
    for _ in range(20):
        firing = random_firing(1, p, rng)
        state = update_context(state, input_terms(firing, cfg), cfg)
        assert state.support.dtype == np.intp
        assert np.array_equal(state.support[0], np.flatnonzero(state.vector[0]))


def test_gate_boundary_lambda_zero_ignores_history():
    m, n = 32, 4
    p = CodeParams(m, n, 0.8)
    rng = np.random.default_rng(0)
    cfg = ContextConfig(0.0, p, rng)
    x = _drawn(p, rng)
    states = [_update(_drawn_state(p, rng), x, cfg) for _ in range(100)]
    ref = states[0].vector
    assert all(np.array_equal(s.vector, ref) for s in states)


def test_gate_boundary_lambda_one_ignores_input():
    m, n = 32, 4
    p = CodeParams(m, n, 0.8)
    rng = np.random.default_rng(1)
    cfg = ContextConfig(1.0, p, rng)
    prev = _drawn_state(p, rng)
    outs = [_update(prev, _drawn(p, rng), cfg) for _ in range(100)]
    ref = outs[0].vector
    assert all(np.array_equal(o.vector, ref) for o in outs)


def test_output_always_canonical():
    m, n = 64, 6
    p = CodeParams(m, n, 0.9)
    rng = np.random.default_rng(2)
    cfg = ContextConfig(0.6, p, rng)
    state = _drawn_state(p, rng)
    for _ in range(50):
        state = _update(state, _drawn(p, rng), cfg)
        assert is_canonical(state.vector[0], p)


def test_histories_diverge_with_positive_gate():
    # chains fed identical suffixes but different earlier symbols should
    # almost always reach different contexts
    m, n = 256, 11
    p = CodeParams(m, n, 0.9)
    rng = np.random.default_rng(3)
    cfg = ContextConfig(0.7, p, rng)
    diverged = 0
    trials = 100
    for _ in range(trials):
        shared = [_drawn(p, rng) for _ in range(3)]
        a = _drawn_state(p, rng)
        b = _drawn_state(p, rng)
        for x in shared:
            a = _update(a, x, cfg)
            b = _update(b, x, cfg)
        if not np.array_equal(a.vector, b.vector):
            diverged += 1
    assert diverged >= 0.99 * trials


def test_degenerate_blend_raises():
    # gate 1 scales every input term to zero, and the empty start history
    # adds no history term; at gate 0 an all-zero row of terms has no drive
    with pytest.raises(DegenerateInputError):
        _update(None, np.array([[2, 3]]), _cfg(1.0))
    with pytest.raises(DegenerateInputError):
        update_context(_state([0, 1]), np.zeros((1, 4)), _cfg(0.0))


def test_config_validation():
    p = CodeParams(4, 2, 0.5)
    with pytest.raises(ParameterError):
        ContextConfig(1.5, p, np.random.default_rng(0))
    cfg = _cfg(0.5)
    with pytest.raises(ParameterError):
        update_context(None, np.zeros((1, 3)), cfg)
    with pytest.raises(ParameterError, match="input terms"):
        update_context(ContextState(np.array([[0, 1], [2, 3]]), p), np.zeros((1, 4)), cfg)
    # a context of another M would gather the wrong projection columns
    for other in (CodeParams(3, 2, 0.5), CodeParams(8, 2, 0.5)):
        with pytest.raises(ParameterError, match="^codes of M=[38] meet a matrix of 4 columns$"):
            update_context(ContextState(np.array([[0, 1]]), other), np.zeros((1, 4)), cfg)


def test_non_finite_input_rejected():
    # a NaN term reaches the blended drive, whose top-N selection rejects it
    cfg = _cfg(0.5)
    with pytest.raises(ParameterError, match="non-finite"):
        update_context(_state([0, 1]), np.array([[0.0, np.nan, 1.0, 0.5]]), cfg)


@pytest.mark.parametrize(
    "gate", ["0.5", None, True, np.nan, np.inf, -np.inf, -0.1, 1.5, 10**400]
)
def test_gate_must_be_a_number_in_the_unit_interval(gate):
    # a str or None raised a raw TypeError from the range comparison
    with pytest.raises(ParameterError, match="lambda_gate"):
        _cfg(gate)


@pytest.mark.parametrize("gate", [0, 1, np.float32(0.5), np.int64(0)])
def test_gate_is_stored_as_a_float(gate):
    cfg = _cfg(gate)
    assert type(cfg.lambda_gate) is float and cfg.lambda_gate == gate


@pytest.mark.parametrize("rng", ["x", None, 0, np.random.RandomState(0)])
def test_projections_are_drawn_from_a_generator_only(rng):
    # a seed or a legacy RandomState would draw other projections than the
    # machine's generator does
    with pytest.raises(ParameterError, match="rng must be a numpy Generator"):
        ContextConfig(0.5, CodeParams(4, 2, 0.5), rng)


def test_config_is_built_from_the_gate_the_geometry_and_a_generator():
    assert list(inspect.signature(ContextConfig).parameters) == [
        "lambda_gate", "code_params", "rng"
    ]
    assert not hasattr(_cfg(0.5), "rng")


@pytest.mark.parametrize(
    "firing, message",
    [
        ([[0, 1]], "has shape"),  # a list
        (np.array([0, 1]), "has shape"),  # a 1-D block
        (np.array([[0, 1, 2]]), "has shape"),  # the wrong width
        (np.array([[0, 4]]), "below 4"),  # an index of M
        (np.array([[0.0, 1.0]]), "below 4"),  # a float index
        (np.array([[0, 1], [2, 2]]), "distinct"),  # a repeated index
        (np.array([[-1, 3]]), "distinct"),  # -1 beside M-1: the same neuron
    ],
)
def test_a_context_is_a_block_of_codes(firing, message):
    with pytest.raises(ParameterError, match=message):
        ContextState(firing, _P)


def test_a_context_counts_only_the_significances_that_do_not_underflow():
    # 176 of these 500 significances are 0: a valid code has 324 non-zeros
    p = CodeParams(1000, 500, 0.1)
    assert np.count_nonzero(p.significances) == 324
    state = ContextState(random_firing(2, p, np.random.default_rng(0)), p)
    assert np.count_nonzero(state.vector) == 2 * 324


def test_a_context_derives_canonical_rows_and_sorted_supports_from_its_firing():
    p = CodeParams(64, 6, 0.9)
    firing = random_firing(5, p, np.random.default_rng(6))
    state = ContextState(firing, p)
    for b in range(5):
        assert is_canonical(state.vector[b], p)
        assert state.vector[b, firing[b]].tolist() == p.significances.tolist()
        assert state.support[b].tolist() == sorted(firing[b].tolist())
