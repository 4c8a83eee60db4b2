"""The argument boundary. Every step kernel and the posenc gram convert and
shape-check their float arguments through ``errors.check_matrix``, whose
ParameterError names the argument, its shape and the expected shape; every
function that draws from a generator checks it with
``errors.check_generator``.
"""

import re

import numpy as np
import pytest

from spikeseq.codes import CodeParams, nofm, random_firing
from spikeseq.context import ContextConfig, ContextState, update_context
from spikeseq.errors import ParameterError, check_matrix
from spikeseq.posenc import gram_matrix
from spikeseq.sdm import ActivationPattern, CorrelationMatrix, cmm_read, cmm_write
from spikeseq.seqmachine import Codebook, decode_burst, sample_sequences

P = CodeParams(8, 3, 0.9)


def _parts():
    """A config, two contexts and a codebook of M=8, N=3."""
    rng = np.random.default_rng(0)
    cfg = ContextConfig(0.5, P, rng)
    contexts = ContextState(random_firing(2, P, rng), P)
    return cfg, contexts, Codebook.random(4, P, rng)


def _wider_pattern():
    # one location wider than a 16-location memory, its weight on location 0
    weights = np.zeros((1, 17))
    weights[0, 0] = 0.5
    return ActivationPattern(weights)


_CASES = {
    "nofm": (lambda cfg, ctx, cb: nofm(np.ones((1, 9)), P), "v has shape (1, 9), expected (B, 8)"),
    "update_context": (
        lambda cfg, ctx, cb: update_context(ctx, np.ones((1, 8)), cfg),
        "input terms has shape (1, 8), expected (2, 8)",
    ),
    "cmm_write data": (
        lambda cfg, ctx, cb: cmm_write(
            CorrelationMatrix.zeros(8, 16), ActivationPattern(np.zeros((2, 16))), np.ones((1, 8))
        ),
        "data has shape (1, 8), expected (2, 8)",
    ),
    "cmm_write weights": (
        lambda cfg, ctx, cb: cmm_write(CorrelationMatrix.zeros(8, 16), _wider_pattern(),
                                       np.ones((1, 8))),
        "activation weights has shape (1, 17), expected (B, 16)",
    ),
    "cmm_read": (
        lambda cfg, ctx, cb: cmm_read(CorrelationMatrix.zeros(8, 16), _wider_pattern(), P),
        "activation weights has shape (1, 17), expected (B, 16)",
    ),
    "decode_burst": (
        lambda cfg, ctx, cb: decode_burst(cb, np.ones((1, 5))),
        "bursts has shape (1, 5), expected (B, 8)",
    ),
    "gram_matrix": (
        lambda cfg, ctx, cb: gram_matrix(np.ones(4)),
        "an encoding has shape (4,), expected (B, d)",
    ),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_a_kernel_rejects_a_float_array_of_another_shape(case):
    call, message = _CASES[case]
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(*_parts())


def test_check_matrix_converts_and_checks_only_the_sizes_it_is_given():
    m = check_matrix("x", [[1, 2, 3]])
    assert m.dtype == np.float64 and m.tolist() == [[1.0, 2.0, 3.0]]
    a = np.ones((2, 3))
    assert check_matrix("x", a, 2, 3) is a  # a float64 array is returned as it is
    assert check_matrix("x", a, rows=2) is a and check_matrix("x", a, cols=3) is a
    for rows, cols, expected in [(3, None, "(3, d)"), (None, 4, "(B, 4)"), (2, 4, "(2, 4)")]:
        message = re.escape(f"x has shape (2, 3), expected {expected}")
        with pytest.raises(ParameterError, match=message):
            check_matrix("x", a, rows, cols)
    for value in (np.ones(3), np.ones((1, 2, 3)), 1.0):
        with pytest.raises(ParameterError, match="expected"):
            check_matrix("x", value)
    with pytest.raises(ParameterError, match="x must be a float matrix"):
        check_matrix("x", [[1, 2], [3]])


_FOREIGN = "rng must be a numpy Generator"
_DRAW_CASES = {
    "sample_sequences-int": (lambda: sample_sequences(0, 2, 3, 26), _FOREIGN),
    "sample_sequences-RandomState": (
        lambda: sample_sequences(np.random.RandomState(0), 2, 3, 26), _FOREIGN
    ),
    "random_firing-int": (lambda: random_firing(3, P, 5), _FOREIGN),
    "Codebook.random-None": (lambda: Codebook.random(3, P, None), _FOREIGN),
    "random_firing-negative": (
        lambda: random_firing(-1, P, np.random.default_rng(0)), "n must be at least 0"
    ),
    "random_firing-float": (
        lambda: random_firing(2.5, P, np.random.default_rng(0)), "n must be an integer"
    ),
}


@pytest.mark.parametrize("case", list(_DRAW_CASES))
def test_a_drawing_function_rejects_a_foreign_generator_or_count(case):
    # a ParameterError, not numpy's AttributeError, ValueError or TypeError
    call, message = _DRAW_CASES[case]
    with pytest.raises(ParameterError, match=message):
        call()
