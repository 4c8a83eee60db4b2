import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikeseq.codes import (
    CodeParams,
    nofm,
    _support_matvec,
    random_firing,
    to_significance,
    vector_norm,
)
from spikeseq.errors import DegenerateInputError, ParameterError


def cosine_sim(a, b):
    """Oracle: normalised dot product of two equal-length vectors."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = float(np.dot(a, a)), float(np.dot(b, b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero vector is undefined")
    return float(np.dot(a, b) / math.sqrt(na * nb))


def is_canonical(v, params):
    """Oracle: v carries exactly the weight set {alpha**0..alpha**(N-1)}."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (params.m_total,):
        return False
    nz = np.flatnonzero(v)
    return nz.size == params.n_active and np.array_equal(
        np.sort(v[nz])[::-1], params.significances
    )


def test_code_params_validation():
    with pytest.raises(ParameterError):
        CodeParams(m_total=4, n_active=5, alpha=0.5)
    with pytest.raises(ParameterError):
        CodeParams(m_total=4, n_active=2, alpha=1.0)
    with pytest.raises(ParameterError):
        CodeParams(m_total=4, n_active=2, alpha=0.0)


@pytest.mark.parametrize("alpha", ["0.5", None])
def test_code_params_alpha_must_be_a_number(alpha):
    # a str or None raised a raw TypeError from the range comparison
    with pytest.raises(ParameterError, match="alpha"):
        CodeParams(4, 2, alpha)
    assert CodeParams(4, 2, np.float32(0.5)).alpha == 0.5


@pytest.mark.parametrize(
    "m_total, n_active",
    [(8.5, 2), (8.0, 2), (8, 2.0), (8, True), (np.float64(8.0), 2)],
    ids=["float-m", "integral-float-m", "float-n", "bool-n", "numpy-float-m"],
)
def test_code_params_must_be_integers(m_total, n_active):
    # CodeParams(8.5, 2, 0.5) used to be accepted
    with pytest.raises(ParameterError, match="must be an integer"):
        CodeParams(m_total, n_active, 0.5)
    assert CodeParams(np.int64(8), np.uint8(2), 0.5).n_active == 2


def _row(p, order):
    """The significance row of one firing order."""
    return to_significance(np.array([order]), p)[0]


def test_rank_order_code_support_is_ascending_firing_order():
    p = CodeParams(8, 3, 0.5)
    firing = np.array([[5, 0, 3]])
    support = np.sort(firing, axis=1)
    assert support.tolist() == [[0, 3, 5]]
    assert np.array_equal(support[0], np.flatnonzero(to_significance(firing, p)[0]))
    drawn = random_firing(20, p, np.random.default_rng(1))
    assert drawn.dtype == np.intp and drawn.shape == (20, 3)
    for order, row in zip(drawn, to_significance(drawn, p)):
        assert len(set(order.tolist())) == 3
        assert np.array_equal(np.sort(order), np.flatnonzero(row))


def test_to_significance_small():
    p = CodeParams(4, 2, 0.5)
    v = to_significance(np.array([[2, 0], [1, 3]]), p)
    assert np.array_equal(v, [[0.5, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.5]])

    p1 = CodeParams(3, 1, 0.9)
    v1 = to_significance(np.array([[1]]), p1)
    assert np.array_equal(v1, [[0.0, 1.0, 0.0]])
    assert to_significance(np.array([[1]]), p1, order="F").flags.f_contiguous


@pytest.mark.parametrize("firing", [np.array([[0, 1, 300]]), np.array([[0.0, 1.0, 2.0]])])
def test_to_significance_rejects_an_index_numpy_cannot_take(firing):
    # an index past M and a float index: a ParameterError, not numpy's IndexError
    with pytest.raises(ParameterError, match="firing indices must be integers below 8"):
        to_significance(firing, CodeParams(8, 3, 0.9))


@pytest.mark.parametrize(
    "firing, shape",
    [(np.array([[0, 1]]), "(1, 2)"), (np.array([0, 1, 2]), "(3,)"), ([[0, 1, 2]], "(1, 3)")],
)
def test_to_significance_rejects_a_block_that_is_not_2d_and_n_wide(firing, shape):
    # a ParameterError, not numpy's broadcast error, N rows of one 1-D code or
    # a list's AttributeError
    message = re.escape(f"firing has shape {shape}, expected (B, 3)")
    with pytest.raises(ParameterError, match=f"^{message}$"):
        to_significance(firing, CodeParams(8, 3, 0.9))


def test_significance_norm_matches_geometric_sum():
    # oracle: direct summation of alpha**(2k)
    p = CodeParams(256, 11, 0.9)
    rng = np.random.default_rng(7)
    [v] = to_significance(random_firing(1, p, rng), p)
    direct = sum(0.9 ** (2 * k) for k in range(11))
    closed = (1 - 0.9**22) / (1 - 0.81)
    assert math.isclose(direct, closed, rel_tol=1e-12)
    assert math.isclose(float(v @ v), closed, rel_tol=1e-12)


def test_cosine_identical_and_disjoint():
    p = CodeParams(8, 3, 0.7)
    a, b = to_significance(np.array([[0, 3, 5], [1, 2, 4]]), p)
    assert cosine_sim(a, a) == pytest.approx(1.0, abs=1e-15)
    assert cosine_sim(a, b) == 0.0


def test_cosine_hand_case():
    # orders [0,1] vs [1,0]: dot = 1.0, each squared norm = 1.25
    p = CodeParams(4, 2, 0.5)
    a, b = to_significance(np.array([[0, 1], [1, 0]]), p)
    assert cosine_sim(a, b) == pytest.approx(0.8, abs=1e-15)


def test_cosine_properties_random():
    p = CodeParams(64, 7, 0.8)
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = to_significance(random_firing(2, p, rng), p)
        s = cosine_sim(a, b)
        assert 0.0 <= s <= 1.0 + 1e-15
        assert s == pytest.approx(cosine_sim(b, a), abs=1e-15)
        lam = float(rng.uniform(0.1, 10.0))
        assert cosine_sim(lam * a, b) == pytest.approx(s, abs=1e-12)


def test_cosine_zero_vector_rejected():
    with pytest.raises(DegenerateInputError):
        cosine_sim(np.zeros(4), np.ones(4))
    with pytest.raises(ParameterError):
        cosine_sim(np.ones(3), np.ones(4))


def test_nofm_small_cases():
    p = CodeParams(4, 2, 0.5)
    assert nofm(np.array([[0.1, 0.9, 0.4, 0.7], [0.3, 0.3, 0.3, 0.0]]), p).tolist() == [
        [1, 3],
        [0, 1],
    ]
    p1 = CodeParams(3, 1, 0.5)
    assert nofm(np.array([[0.5, 0.5, 0.0]]), p1).tolist() == [[0]]


def test_nofm_full_sort_matches_reference():
    rng = np.random.default_rng(3)
    v = rng.normal(size=16)
    p = CodeParams(16, 16, 0.9)
    got = nofm(v[None], p)[0].tolist()
    ref = sorted(range(16), key=lambda i: (-v[i], i))
    assert got == ref


def test_nofm_rejects_oversized_n():
    p = CodeParams(5, 5, 0.5)
    with pytest.raises(ParameterError):
        nofm(np.zeros((1, 3)), p)


def test_nofm_rejects_a_vector_of_another_geometry():
    # N and M come from params: rows whose length is not M are an error, not
    # codes of a geometry nobody asked for, and a single vector is not a block
    p = CodeParams(4, 2, 0.5)
    for v in (np.ones((1, 8)), np.ones((2, 3)), np.arange(4.0), np.ones((1, 1, 4))):
        with pytest.raises(ParameterError, match=r"expected \(B, 4\)"):
            nofm(v, p)
    assert nofm(np.arange(8.0).reshape(2, 4), p).tolist() == [[3, 2], [3, 2]]


def test_nofm_recovers_canonical_code():
    # nofm(to_significance(firing), params) is the identity on canonical codes
    rng = np.random.default_rng(5)
    p = CodeParams(256, 11, 0.9)
    firing = random_firing(50, p, rng)
    assert np.array_equal(nofm(to_significance(firing, p), p), firing)


def test_is_canonical():
    p = CodeParams(4, 2, 0.5)
    assert is_canonical(np.array([0.5, 0.0, 1.0, 0.0]), p)
    assert not is_canonical(np.array([0.5, 0.0, 0.9, 0.0]), p)
    assert not is_canonical(np.array([0.5, 1.0, 1.0, 0.0]), p)


def test_earlier_rank_agreement_dominates():
    # exhaustive at M=8, N=3: with the shared neurons' rank sets fixed,
    # placing them at earlier ranks in both codes gives strictly higher
    # similarity than any placement at strictly later ranks.
    p = CodeParams(8, 3, 0.6)

    def sim_for_rank_positions(shared_ranks_a, shared_ranks_b):
        # shared neurons 0..k-1 at the given ranks; fillers distinct otherwise
        k = len(shared_ranks_a)
        fill_a = iter([5, 6, 7])
        fill_b = iter([2, 3, 4])
        order_a = [next(fill_a) if r not in shared_ranks_a else shared_ranks_a.index(r)
                   for r in range(3)]
        order_b = [next(fill_b) if r not in shared_ranks_b else shared_ranks_b.index(r)
                   for r in range(3)]
        assert len(set(order_a) & set(order_b)) == k
        return cosine_sim(_row(p, order_a), _row(p, order_b))

    for k in (1, 2):
        placements = list(itertools.permutations(range(3), k))
        for pa in placements:
            for pb in placements:
                base = sim_for_rank_positions(list(pa), list(pb))
                for qa in placements:
                    for qb in placements:
                        if all(x > y for x, y in zip(qa, pa)) and all(
                            x > y for x, y in zip(qb, pb)
                        ):
                            assert sim_for_rank_positions(list(qa), list(qb)) < base


_entries = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    fortran=st.booleans(),
    data=st.data(),
)
def test_support_matvec_matches_dense_product(shape, fortran, data):
    matrix = data.draw(arrays(np.float64, shape, elements=_entries))
    if fortran:
        matrix = np.asfortranarray(matrix)
    # mostly zeros, like an N-of-M code
    v = data.draw(arrays(np.float64, shape[1], elements=st.one_of(st.just(0.0), _entries)))
    got = _support_matvec(matrix, v[None], np.flatnonzero(v)[None])[0]
    # the two sums differ only in order: bound the error by the absolute sum,
    # plus the smallest normal float for products that underflow
    bound = 1e-12 * (np.abs(matrix) @ np.abs(v)) + np.finfo(np.float64).tiny
    assert np.all(np.abs(got - matrix @ v) <= bound)


@settings(max_examples=200, deadline=None)
@given(v=arrays(np.float64, st.integers(1, 300), elements=st.one_of(st.just(0.0), _entries)))
def test_vector_norm_equals_linalg_norm_bit_for_bit(v):
    assert vector_norm(v) == np.linalg.norm(v)


def test_vector_norm_of_canonical_codes_equals_linalg_norm():
    p = CodeParams(256, 11, 0.9)
    rng = np.random.default_rng(8)
    for v in to_significance(random_firing(200, p, rng), p):
        assert vector_norm(v) == np.linalg.norm(v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nofm_rejects_non_finite_input(bad):
    p = CodeParams(8, 3, 0.5)
    v = np.arange(8.0)
    v[3] = bad  # a NaN used to be skipped silently: (7, 6, 5)
    with pytest.raises(ParameterError, match="non-finite"):
        nofm(v[None], p)


def _lexsort_order(v, n):
    return tuple(int(i) for i in np.lexsort((np.arange(v.size), -v))[:n])


# few distinct values, so that exact ties (and signed zeros) are common
_tied = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]), _entries)


@settings(max_examples=300, deadline=None)
@given(v=arrays(np.float64, st.integers(1, 64), elements=_tied), data=st.data())
def test_nofm_orders_by_value_then_lower_index(v, data):
    n = data.draw(st.integers(1, v.size))
    order = tuple(nofm(v[None], CodeParams(v.size, n, 0.9))[0].tolist())
    assert order == _lexsort_order(v, n)
    for a, b in zip(order, order[1:]):
        assert v[a] > v[b] or (v[a] == v[b] and a < b)
    assert all(v[i] <= v[order[-1]] for i in set(range(v.size)) - set(order))


# magnitudes that a scale of 2**-30 keeps normal
_scalable = _tied.filter(lambda x: x == 0.0 or abs(x) > 1e-200)


@settings(max_examples=200, deadline=None)
@given(
    v=arrays(np.float64, st.integers(1, 64), elements=_scalable),
    exponent=st.integers(-30, 30),
    data=st.data(),
)
def test_nofm_invariant_to_positive_scale(v, exponent, data):
    # a power-of-two scale is exact in float64 for these magnitudes, so the
    # scaled vector has the same order and the same ties
    n = data.draw(st.integers(1, v.size))
    p = CodeParams(v.size, n, 0.9)
    assert np.array_equal(nofm(2.0**exponent * v[None], p), nofm(v[None], p))
