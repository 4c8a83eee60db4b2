import warnings

import numpy as np
import pytest

from spikeseq.codes import CodeParams, random_firing, to_significance
from spikeseq.context import (
    ContextConfig,
    ContextState,
    input_terms,
    random_projection,
    update_context,
)
from spikeseq.errors import DegenerateInputError, ParameterError


def is_canonical(v, params):
    """Oracle: v carries exactly the weight set {alpha**0..alpha**(N-1)}."""
    nz = np.flatnonzero(v)
    return nz.size == params.n_active and np.array_equal(
        np.sort(v[nz])[::-1], params.significances
    )


def _identity_cfg(lam, m=4, n=2, alpha=0.5):
    p = CodeParams(m, n, alpha)
    eye = np.eye(m)
    return ContextConfig(lambda_gate=lam, p1=eye, p2=eye, code_params=p)


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


def test_hand_case_tie_and_canonical_reassignment():
    cfg = _identity_cfg(0.5)
    prev = _state([1.0, 0.5, 0.0, 0.0])
    new = _update(prev, np.array([0.0, 0.0, 1.0, 0.5]), cfg)
    # blend = [0.4472, 0.2236, 0.4472, 0.2236]; tie {0, 2} -> order (0, 2)
    assert np.array_equal(new.vector, [[1.0, 0.0, 0.5, 0.0]])
    assert new.support.tolist() == [[0, 2]]


def test_start_state_is_empty_and_updates_carry_their_support():
    m, n = 64, 6
    p = CodeParams(m, n, 0.9)
    rng = np.random.default_rng(4)
    cfg = ContextConfig.random(0.6, p, rng)
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
    cfg = ContextConfig(0.0, random_projection(m, m, rng), random_projection(m, m, rng), p)
    x = _drawn(p, rng)
    states = [_update(_drawn_state(p, rng), x, cfg) for _ in range(100)]
    ref = states[0].vector
    assert all(np.array_equal(s.vector, ref) for s in states)


def test_gate_boundary_lambda_one_ignores_input():
    m, n = 32, 4
    p = CodeParams(m, n, 0.8)
    rng = np.random.default_rng(1)
    cfg = ContextConfig(1.0, random_projection(m, m, rng), random_projection(m, m, rng), p)
    prev = _drawn_state(p, rng)
    outs = [_update(prev, _drawn(p, rng), cfg) for _ in range(100)]
    ref = outs[0].vector
    assert all(np.array_equal(o.vector, ref) for o in outs)


def test_output_always_canonical():
    m, n = 64, 6
    p = CodeParams(m, n, 0.9)
    rng = np.random.default_rng(2)
    cfg = ContextConfig.random(0.6, p, rng)
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
    cfg = ContextConfig.random(0.7, p, rng)
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
    m = 4
    p = CodeParams(m, 2, 0.5)
    cfg = ContextConfig(1.0, np.zeros((m, m)), np.eye(m), p)
    prev = _state([1.0, 0.5, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        _update(prev, np.array([0.0, 0.0, 1.0, 0.5]), cfg)


def test_config_validation():
    p = CodeParams(4, 2, 0.5)
    with pytest.raises(ParameterError):
        ContextConfig(1.5, np.eye(4), np.eye(4), p)
    with pytest.raises(ParameterError):
        ContextConfig(0.5, np.eye(3), np.eye(4), p)
    cfg = _identity_cfg(0.5)
    with pytest.raises(ParameterError):
        _update(ContextState.start(4, 1), np.zeros(3), cfg)
    with pytest.raises(ParameterError, match="input terms"):
        update_context(ContextState.start(4, 2), np.zeros((1, 4)), cfg)


def test_non_finite_input_rejected():
    cfg = _identity_cfg(0.5)
    with pytest.raises(ParameterError, match="non-finite"):
        _update(_state([1.0, 0.5, 0.0, 0.0]), np.array([0.0, np.nan, 1.0, 0.5]), cfg)


@pytest.mark.parametrize(
    "gate", ["0.5", None, True, np.nan, np.inf, -np.inf, -0.1, 1.5, 10**400]
)
def test_gate_must_be_a_number_in_the_unit_interval(gate):
    # a str or None raised a raw TypeError from the range comparison
    p = CodeParams(4, 2, 0.5)
    with pytest.raises(ParameterError, match="lambda_gate"):
        ContextConfig(gate, np.eye(4), np.eye(4), p)
    with pytest.raises(ParameterError, match="lambda_gate"):
        ContextConfig.random(gate, p, np.random.default_rng(0))


@pytest.mark.parametrize("gate", [0, 1, np.float32(0.5), np.int64(0)])
def test_gate_is_stored_as_a_float(gate):
    cfg = ContextConfig(gate, np.eye(4), np.eye(4), CodeParams(4, 2, 0.5))
    assert type(cfg.lambda_gate) is float and cfg.lambda_gate == gate


@pytest.mark.parametrize(
    "p1, p2, match",
    [
        ([[1.0] * 4] * 4, "x", "p2 must be a float matrix"),
        (np.eye(4), np.ones(4), r"p2 must be \(4, M_i\)"),
        (np.ones((4, 3)), np.eye(4), r"p1 must be \(4, 4\)"),
        (np.full((4, 4), np.nan), np.eye(4), "p1 must be finite"),
        (np.eye(4), np.full((4, 2), np.inf), "p2 must be finite"),
    ],
)
def test_projections_must_be_finite_float_matrices(p1, p2, match):
    with pytest.raises(ParameterError, match=match):
        ContextConfig(0.5, p1, p2, CodeParams(4, 2, 0.5))


@pytest.mark.parametrize("n_active", [2, np.int64(2)])
@pytest.mark.parametrize("name", ["p1", "p2"])
@pytest.mark.parametrize("entry", [1e300, -1e300, 1e155])
def test_projections_whose_products_overflow_are_rejected(name, entry, n_active):
    # the norm of such a projection's product overflows, and the input or
    # history term it scales would silently become a zero row
    p = CodeParams(4, n_active, 0.5)
    projections = {"p1": np.eye(4), "p2": np.eye(4), name: np.full((4, 4), entry)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            ContextConfig(0.5, code_params=p, **projections)


def test_projections_inside_the_bound_update_like_unit_ones():
    # 2**500 passes (N x 2**500 has a finite square), and scaling by a power
    # of two leaves every norm exact, so the states are the unit config's
    rng = np.random.default_rng(4)
    unit = _identity_cfg(0.5)
    big = ContextConfig(0.5, np.eye(4) * 2.0**500, np.eye(4) * 2.0**500, unit.code_params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            prev, x = _drawn_state(unit.code_params, rng), _drawn(unit.code_params, rng)
            got, want = _update(prev, x, big), _update(prev, x, unit)
            assert got.vector.tobytes() == want.vector.tobytes()
