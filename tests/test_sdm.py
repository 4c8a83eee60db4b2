import dataclasses
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikeseq.codes import CodeParams, random_firing, to_significance
from spikeseq.context import ContextState
from spikeseq.errors import DegenerateInputError, ParameterError
from spikeseq.sdm import (
    _N_PROBES,
    ActivationPattern,
    AddressDecoder,
    CorrelationMatrix,
    _address_similarity,
    calibrate_threshold,
    cmm_read,
    cmm_write,
    decode_address,
)
from spikeseq.seqmachine import SequenceMachine, load_machine, save_machine


def cosine_sim(a, b):
    """Oracle: normalised dot product of two equal-length vectors."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = float(np.dot(a, a)), float(np.dot(b, b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero vector is undefined")
    return float(np.dot(a, b) / np.sqrt(na * nb))


def _decoder(seed=0, w=8, m=16, n=4):
    return AddressDecoder.random(w, CodeParams(m, n, 0.9), seed)


def _drawn(p, rng):
    """The significance row of one random code."""
    return to_significance(random_firing(1, p, rng), p)[0]


def _decode(ctx, dec, theta):
    """decode_address of a block of one context vector, given its support."""
    return decode_address(ContextState(ctx[None], np.flatnonzero(ctx)[None]), dec, theta)


def test_decode_matches_bruteforce_scan():
    dec = _decoder()
    rng = np.random.default_rng(42)
    ctx = _drawn(dec.code_params, rng)
    act = _decode(ctx, dec, 0.5)
    for k in range(dec.n_locations):
        sim = cosine_sim(ctx, dec.addresses[k])
        if sim >= 0.5:
            assert act.weights[0, k] == pytest.approx(sim, abs=1e-12)
        else:
            assert act.weights[0, k] == 0.0


def test_zero_threshold_activates_everything():
    dec = _decoder()
    rng = np.random.default_rng(1)
    ctx = _drawn(dec.code_params, rng)
    act = _decode(ctx, dec, 0.0)
    raw = np.array([cosine_sim(ctx, dec.addresses[k]) for k in range(dec.n_locations)])
    assert np.allclose(act.weights[0], raw, atol=1e-12)


def test_unit_threshold_hits_only_identical_address():
    dec = _decoder(seed=3)
    ctx = dec.addresses[5].copy()
    act = _decode(ctx, dec, 1.0)
    assert act.weights[0, 5] == pytest.approx(1.0, abs=1e-12)
    assert act.n_active == 1


def test_write_idempotent_and_monotone():
    rng = np.random.default_rng(0)
    p = CodeParams(16, 4, 0.9)
    cmm = CorrelationMatrix.zeros(16, 8)
    act = ActivationPattern(rng.uniform(size=(1, 8)))
    data = _drawn(p, rng)[None]
    before = cmm.w.copy()
    cmm_write(cmm, act, data)
    once = cmm.w.copy()
    assert np.all(once >= before)
    cmm_write(cmm, act, data)
    assert np.array_equal(cmm.w, once)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_write_rejects_non_finite_or_negative_data(bad):
    # a NaN row wrote NaN into the memory, and the max rule lost a negative value
    cmm = CorrelationMatrix.zeros(4, 3)
    data = np.array([[0.0, 1.0, 0.5, 0.0], [0.2, 0.0, 0.0, 1.0]])
    data[1, 2] = bad
    with pytest.raises(ParameterError, match="non-negative"):
        cmm_write(cmm, ActivationPattern(np.full((2, 3), 0.5)), data)
    assert not cmm.w.any()
    data[1, 2] = -0.0  # a zero of either sign is data
    cmm_write(cmm, ActivationPattern(np.full((2, 3), 0.5)), data)
    assert cmm.w[2].tolist() == [0.25, 0.25, 0.25]


def test_write_order_independence():
    rng = np.random.default_rng(7)
    p = CodeParams(32, 5, 0.8)
    writes = [
        (ActivationPattern(rng.uniform(size=(1, 12))), _drawn(p, rng)[None])
        for _ in range(10)
    ]
    final = None
    for perm_seed in range(5):
        order = np.random.default_rng(perm_seed).permutation(len(writes))
        cmm = CorrelationMatrix.zeros(32, 12)
        for i in order:
            cmm_write(cmm, writes[i][0], writes[i][1])
        if final is None:
            final = cmm.w.copy()
        else:
            assert np.array_equal(cmm.w, final)


def test_single_pattern_exact_recall():
    rng = np.random.default_rng(5)
    p = CodeParams(64, 6, 0.9)
    dec = AddressDecoder.random(32, p, seed=11)
    ctx = _drawn(p, rng)
    act = _decode(ctx, dec, 0.2)
    data_code = random_firing(1, p, rng)
    cmm = CorrelationMatrix.zeros(64, 32)
    cmm_write(cmm, act, to_significance(data_code, p))
    got, confidence = cmm_read(cmm, act, p)
    assert np.array_equal(got, data_code)
    assert confidence[0] == pytest.approx(act.totals[0])


def test_empty_memory_read_flags_zero_confidence():
    p = CodeParams(16, 4, 0.9)
    cmm = CorrelationMatrix.zeros(16, 8)
    act = ActivationPattern(np.array([[0.0, 0.6, 0.0, 0.9, 0.0, 0.0, 0.0, 0.0]]))
    code, confidence = cmm_read(cmm, act, p)
    assert confidence.tolist() == [0.0]
    assert code.tolist() == [[0, 1, 2, 3]]  # all-tied readout, lowest indices


def test_read_rejects_params_of_another_geometry():
    # a read returns codes of the params' geometry or raises
    cmm = CorrelationMatrix(np.ones((16, 8)))
    act = ActivationPattern(np.full((1, 8), 0.5))
    firing = cmm_read(cmm, act, CodeParams(16, 4, 0.9))[0]
    assert firing.shape == (1, 4) and 0 <= firing.min() and firing.max() < 16
    with pytest.raises(ParameterError, match="length-8"):
        cmm_read(cmm, act, CodeParams(8, 4, 0.9))


def test_read_rejects_a_pattern_of_another_width():
    cmm = CorrelationMatrix(np.ones((16, 8)))
    with pytest.raises(ParameterError, match="activation"):
        cmm_read(cmm, ActivationPattern(np.full((2, 9), 0.5)), CodeParams(16, 4, 0.9))


@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_an_empty_read_has_confidence_zero_and_an_empty_write_writes_nothing(fill):
    # no location inside the radius: the read is empty, not an error
    p = CodeParams(16, 4, 0.9)
    cmm = CorrelationMatrix(np.full((16, 8), fill, order="F"))
    empty = ActivationPattern(np.zeros((2, 8)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        firing, confidence = cmm_read(cmm, empty, p)
        cmm_write(cmm, empty, np.ones((2, 16)))
    assert confidence.tolist() == [0.0, 0.0]
    assert firing.tolist() == [[0, 1, 2, 3]] * 2  # the orders of a zero row
    assert cmm.w.tobytes() == np.full((16, 8), fill).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), empty=st.lists(st.booleans(), min_size=1, max_size=6))
def test_empty_chains_leave_the_reads_of_the_others_unchanged(seed, empty):
    p = CodeParams(16, 4, 0.9)
    rng = np.random.default_rng(seed)
    cmm = CorrelationMatrix(np.asfortranarray(rng.random((16, 8)) * (rng.random((16, 8)) < 0.3)))
    weights = rng.random((len(empty), 8)) * (rng.random((len(empty), 8)) < 0.5)
    weights[empty] = 0.0
    firing, confidence = cmm_read(cmm, ActivationPattern(weights), p)
    assert confidence[empty].tolist() == [0.0] * sum(empty)
    for b in np.flatnonzero(~np.array(empty)):
        alone = cmm_read(cmm, ActivationPattern(weights[b : b + 1]), p)
        assert firing[b].tobytes() == alone[0][0].tobytes()
        assert confidence[b].hex() == alone[1][0].hex()


def test_calibrated_threshold_hits_target_active_count():
    p = CodeParams(256, 11, 0.9)
    dec = AddressDecoder.random(512, p, seed=21)
    theta = calibrate_threshold(dec, target_active=16, seed=22)
    rng = np.random.default_rng(23)
    counts = [_decode(_drawn(p, rng), dec, theta).n_active for _ in range(100)]
    assert 8 <= float(np.mean(counts)) <= 24


def test_calibration_and_addressing_agree_on_the_probes():
    # on each of calibration's own probe contexts the locations whose
    # similarity reaches the calibrated threshold are exactly the active ones,
    # and the threshold is the median of the probes' target-th similarity, so
    # at least half the probes activate target_active locations or more
    p = CodeParams(256, 11, 0.9)
    dec = AddressDecoder.random(512, p, seed=21)
    theta = calibrate_threshold(dec, target_active=16, seed=22)
    counts = []
    for order in random_firing(_N_PROBES, p, np.random.default_rng(22)):
        ctx = np.zeros(p.m_total)
        ctx[order] = p.significances
        sims = _address_similarity(ContextState(ctx[None], np.sort(order)[None]), dec)
        counts.append(_decode(ctx, dec, theta).n_active)
        assert int(np.count_nonzero(sims >= theta)) == counts[-1]
    assert sum(c >= 16 for c in counts) >= _N_PROBES / 2


def _recall_rate(n_patterns, seed, theta_target=16, metric="order"):
    p = CodeParams(256, 11, 0.9)
    dec = AddressDecoder.random(512, p, seed=seed)
    theta = calibrate_threshold(dec, theta_target, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    cmm = CorrelationMatrix.zeros(256, 512)
    pairs = []
    for _ in range(n_patterns):
        ctx = _drawn(p, rng)
        data = random_firing(1, p, rng)
        act = _decode(ctx, dec, theta)
        if act.n_active == 0:
            continue
        cmm_write(cmm, act, to_significance(data, p))
        pairs.append((act, data[0].tolist()))
    hits = 0
    for act, data in pairs:
        got = cmm_read(cmm, act, p)[0][0].tolist()
        if metric == "order":
            hits += got == data
        else:
            hits += set(got) == set(data)
    return hits / len(pairs)


def test_capacity_twenty_patterns():
    # Monte-Carlo oracle at the stated geometry (M=256, N=11, W=512, ~16
    # active): rank-exact recall of isolated writes sits near 0.78 because
    # shared active locations perturb the low-rank order under the max rule;
    # set recovery stays near 0.91. Floors frozen from the oracle runs.
    order_rates = [_recall_rate(20, seed) for seed in range(8)]
    set_rates = [_recall_rate(20, seed, metric="set") for seed in range(8)]
    assert float(np.mean(order_rates)) >= 0.70
    assert float(np.mean(set_rates)) >= 0.85


def test_recall_degrades_gracefully():
    loads = [10, 40, 160]
    means = [float(np.mean([_recall_rate(k, s) for s in range(3)])) for k in loads]
    assert means[0] + 1e-9 >= means[-1]


def _small_machine(seed=123):
    m = SequenceMachine(alphabet_size=5, m_total=16, n_active=4, n_locations=8,
                        target_active=3, seed=seed)
    m.memory = CorrelationMatrix(np.random.default_rng(9).uniform(size=(16, 8)))
    return m


def test_snapshot_roundtrip_and_header(tmp_path):
    m = _small_machine()
    path = tmp_path / "machine.seqm"
    save_machine(path, m)

    loaded = load_machine(path)
    assert loaded.memory.w.tobytes() == m.memory.w.tobytes()
    assert loaded.memory.w.flags.f_contiguous and loaded.memory.w.flags.writeable
    assert loaded.threshold == m.threshold and loaded.seed == 123

    raw = path.read_bytes()
    fields = struct.unpack("<4sIqqqdqdqqdI", raw[:84])
    assert fields[:2] == (b"SEQM", 2)
    assert fields[2:10] == (5, 16, 4, 0.9, 8, 0.7, 3, 123)  # the constructor arguments
    assert fields[10] == m.threshold
    assert fields[11] == zlib.crc32(raw[84:], zlib.crc32(raw[:80]))
    assert len(raw) == 84 + 16 * 8 * 8


@pytest.mark.parametrize("seed", [-1, 2**63])
def test_decoder_rejects_seed_outside_the_snapshot_range(seed):
    # the snapshot stores the seed as an i64, and numpy takes no negative seed
    with pytest.raises(ParameterError, match="seed"):
        AddressDecoder.random(8, CodeParams(16, 4, 0.9), seed)


def test_snapshot_roundtrip_at_the_largest_seed(tmp_path):
    m = _small_machine(seed=2**63 - 1)
    path = tmp_path / "machine.seqm"
    save_machine(path, m)
    assert load_machine(path).seed == 2**63 - 1


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.seqm"
    for raw in (b"NOPE" + b"\x00" * 100, b"SDMW" + b"\x00" * 100, b""):
        path.write_bytes(raw)
        with pytest.raises(ParameterError):
            load_machine(path)


@pytest.mark.parametrize("n_locations", [512, 4096])
def test_active_set_matches_dense_reference_at_calibrated_threshold(n_locations):
    # the calibrated threshold is a cosine level that many contexts hit
    # exactly, so `sims >= threshold` decides float ties: the row norms and
    # the product must reproduce the row-major dense computation
    for seed in range(4):
        m = SequenceMachine(n_locations=n_locations, seed=seed)
        dec = m.decoder
        rows = np.ascontiguousarray(dec.addresses)
        norms = np.linalg.norm(rows, axis=1)
        assert np.array_equal(dec._row_norms, norms)
        rng = np.random.default_rng(seed)
        for _ in range(200):
            ctx = _drawn(dec.code_params, rng)
            ref = (rows @ ctx) / (norms * np.linalg.norm(ctx))
            weights = _decode(ctx, dec, m.threshold).weights[0]
            active = ref >= m.threshold
            assert np.array_equal(weights > 0.0, active)
            np.testing.assert_allclose(weights[active], ref[active], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_decoder_rejects_degenerate_address_row(bad):
    rows = _decoder().addresses.copy()
    rows[3] = 0.0
    rows[3, 0] = bad
    with pytest.raises(ParameterError, match="row 3"):
        AddressDecoder(rows, CodeParams(16, 4, 0.9))


def test_decoder_is_fixed_at_construction():
    # the threshold belongs to the caller: the decoder holds addresses, code
    # geometry and the row norms it computed once
    dec = _decoder()
    init = [f.name for f in dataclasses.fields(dec) if f.init]
    assert init == ["addresses", "code_params"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.addresses = dec.addresses.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.threshold = 0.5
    rows = dec.addresses.tolist()  # any float matrix: stored column-major
    again = AddressDecoder(rows, dec.code_params)
    assert again.addresses.flags.f_contiguous
    assert again._row_norms.tobytes() == dec._row_norms.tobytes()


@pytest.mark.parametrize(
    "bad", ["x", None, [[1.0, 2.0], [3.0]], np.ones(16), np.ones((2, 15)), np.ones((0, 16))]
)
def test_decoder_rejects_what_is_not_an_address_matrix(bad):
    with pytest.raises(ParameterError, match="addresses"):
        AddressDecoder(bad, CodeParams(16, 4, 0.9))


def test_decoder_rejects_a_row_norm_that_overflows_without_a_warning():
    rows = _decoder().addresses.copy()
    rows[2, rows[2] > 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="row 2"):
            AddressDecoder(rows, CodeParams(16, 4, 0.9))


@pytest.mark.parametrize("theta", [0, 0.0, 1, 1.0, np.float64(0.25), np.int64(1)])
def test_decode_takes_a_threshold_in_the_closed_unit_interval(theta):
    dec = _decoder()
    ctx = dec.addresses[5].copy()
    act = _decode(ctx, dec, theta)
    sims = _address_similarity(ContextState(ctx[None], np.flatnonzero(ctx)[None]), dec)
    assert act.weights.tobytes() == np.where(sims >= float(theta), sims, 0.0).tobytes()
    assert act.weights[0, 5] == 1.0


@pytest.mark.parametrize("theta", ["0.5", None, True, np.nan, np.inf, -np.inf, -0.1, 1.5, 10**400])
def test_decode_rejects_a_threshold_outside_the_unit_interval(theta):
    dec = _decoder()
    with pytest.raises(ParameterError, match="threshold"):
        _decode(dec.addresses[0].copy(), dec, theta)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_context(bad):
    dec = _decoder()
    ctx = _drawn(dec.code_params, np.random.default_rng(0))
    ctx[0] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        _decode(ctx, dec, 0.5)


def test_snapshot_rejects_truncated_and_overlong_files(tmp_path):
    path = tmp_path / "machine.seqm"
    save_machine(path, _small_machine())
    raw = path.read_bytes()
    for cut in (raw[:20], raw[:80], raw[:84], raw[:-1], raw[:-8], raw + b"\x00" * 8):
        path.write_bytes(cut)
        with pytest.raises(ParameterError):
            load_machine(path)


_weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


def _matrix(shape, data):
    w = data.draw(arrays(np.float64, shape, elements=_weights))
    return np.asfortranarray(w) if data.draw(st.booleans()) else w


def _writes(data, m, n_loc, count):
    """(activation, data) pairs of one chain; all-zero activations are drawn among them."""
    return [
        (
            ActivationPattern(data.draw(arrays(np.float64, (1, n_loc), elements=_weights))),
            data.draw(arrays(np.float64, (1, m), elements=_weights)),
        )
        for _ in range(count)
    ]


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 10), st.integers(1, 10)), data=st.data())
def test_sparse_write_equals_dense_max_bit_for_bit(shape, data):
    w = _matrix(shape, data)
    [(act, vec)] = _writes(data, *shape, 1)
    want = np.maximum(w, np.outer(vec, act.weights))
    cmm = CorrelationMatrix(w.copy(order="A"))
    cmm_write(cmm, act, vec)
    assert cmm.w.tobytes() == want.tobytes()  # C order, whatever the layout


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), data=st.data())
def test_write_idempotent_and_order_independent(shape, data):
    writes = _writes(data, *shape, data.draw(st.integers(1, 6)))
    writes.append((ActivationPattern(np.zeros((1, shape[1]))), np.ones((1, shape[0]))))
    order = data.draw(st.permutations(range(len(writes))))
    start = _matrix(shape, data)
    finals = []
    for sequence in (range(len(writes)), order, [*order, *order]):
        cmm = CorrelationMatrix(start.copy(order="A"))
        for i in sequence:
            cmm_write(cmm, *writes[i])
        finals.append(cmm.w.tobytes())
    assert finals[0] == finals[1] == finals[2]
    cmm = CorrelationMatrix(start.copy(order="A"))
    cmm_write(cmm, *writes[-1])
    assert np.array_equal(cmm.w, start)


# random_firing permutes blocks of 128 rows: sizes on both sides of one block
@pytest.mark.parametrize("n_locations", [1, 26, 127, 128, 129, 200, 512, 4096])
def test_firing_draws_equal_a_loop_of_permutations(n_locations):
    p = CodeParams(256, 11, 0.9)
    for seed in range(4):
        loop_rng = np.random.default_rng(seed)
        loop = [loop_rng.permutation(p.m_total)[: p.n_active] for _ in range(n_locations)]
        rng = np.random.default_rng(seed)
        assert np.array_equal(random_firing(n_locations, p, rng), np.array(loop))
        assert rng.random() == loop_rng.random()  # the generators end in one state
        # a random decoder's addresses are the significance rows of these draws
        dec = AddressDecoder.random(n_locations, p, seed)
        assert np.array_equal(dec.addresses, to_significance(np.array(loop), p))
        assert dec.addresses.flags.f_contiguous


def test_activation_pattern_carries_its_active_locations():
    weights = np.array([0.0, 0.6, 0.0, 0.9, 0.0, 1.0, -0.0, 0.2])
    act = ActivationPattern(weights[None])
    assert act.active[0].tolist() == [1, 3, 5, 7]
    assert act.n_active == 4
    assert act.totals[0] == float(weights.sum())
    dec = _decoder()
    rng = np.random.default_rng(3)
    for _ in range(50):
        act = _decode(_drawn(dec.code_params, rng), dec, 0.2)
        assert np.array_equal(act.active[0], np.flatnonzero(act.weights[0]))
