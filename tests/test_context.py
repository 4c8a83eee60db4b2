import inspect

import numpy as np
import pytest

from spikeseq.codes import CodeParams, random_firing, to_significance
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


def _cfg(lam):
    """A config of four neurons, two active, drawn from seed 0."""
    return ContextConfig(lam, CodeParams(4, 2, 0.5), np.random.default_rng(0))


def _state(vector):
    """A block of one chain whose context is the vector."""
    vector = np.array(vector)
    return ContextState(vector[None], np.flatnonzero(vector)[None])


def _drawn(p, rng):
    """The significance row of one random code."""
    return to_significance(random_firing(1, p, rng), p)[0]


def _drawn_state(p, rng):
    """A block of one chain whose context is a random code."""
    return _state(_drawn(p, rng))


def _update(prev, input_vec, cfg):
    """update_context of a block of one chain, given the input vector."""
    input_vec = np.asarray(input_vec)
    terms = input_terms(input_vec[None], np.flatnonzero(input_vec)[None], cfg)
    return update_context(prev, terms, cfg)


def test_start_state_is_empty_and_updates_carry_their_support():
    m, n = 64, 6
    p = CodeParams(m, n, 0.9)
    rng = np.random.default_rng(4)
    cfg = ContextConfig(0.6, p, rng)
    state = ContextState.start(m, 1)
    assert not state.vector.any() and state.support.size == 0
    for _ in range(20):
        firing = random_firing(1, p, rng)
        terms = input_terms(to_significance(firing, p), np.sort(firing, axis=1), cfg)
        state = update_context(state, terms, cfg)
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
    x = np.array([0.0, 0.0, 1.0, 0.5])
    with pytest.raises(DegenerateInputError):
        _update(ContextState.start(4, 1), x, _cfg(1.0))
    with pytest.raises(DegenerateInputError):
        update_context(_state([1.0, 0.5, 0.0, 0.0]), np.zeros((1, 4)), _cfg(0.0))


def test_config_validation():
    p = CodeParams(4, 2, 0.5)
    with pytest.raises(ParameterError):
        ContextConfig(1.5, p, np.random.default_rng(0))
    cfg = _cfg(0.5)
    with pytest.raises(ParameterError):
        _update(ContextState.start(4, 1), np.zeros(3), cfg)
    with pytest.raises(ParameterError, match="input terms"):
        update_context(ContextState.start(4, 2), np.zeros((1, 4)), cfg)


def test_non_finite_input_rejected():
    cfg = _cfg(0.5)
    with pytest.raises(ParameterError, match="non-finite"):
        _update(_state([1.0, 0.5, 0.0, 0.0]), np.array([0.0, np.nan, 1.0, 0.5]), cfg)


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
