import dataclasses
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeseq import seqmachine
from spikeseq.codes import CodeParams
from spikeseq.errors import AlphabetError, DegenerateInputError, ParameterError
from spikeseq.sdm import calibrate_threshold
from spikeseq.seqmachine import (
    Codebook,
    SequenceMachine,
    capacity_experiment,
    decode_burst,
    encode_symbol,
    learn_sequence,
    learn_sequences,
    load_machine,
    recall_sequence,
    recall_sequences,
    sample_sequences,
    save_machine,
)


def test_codebook_codes_distinct_and_roundtrip():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cb = Codebook.random(26, CodeParams(256, 11, 0.9), rng)
        assert len({tuple(order) for order in cb.firing.tolist()}) == 26
        for a in range(26):
            [sym], [margin] = decode_burst(cb, encode_symbol(cb, a)[None])
            assert sym == a
            assert margin > 0.0


def test_encode_symbol_deterministic_golden():
    # pinned once from the seeded construction at seed 42
    m = SequenceMachine(seed=42)
    assert m.codebook.firing[0].tolist() == [
        224, 149, 192, 55, 152, 112, 188, 187, 166, 12, 17,
    ]
    m2 = SequenceMachine(seed=42)
    assert np.array_equal(encode_symbol(m.codebook, 0), encode_symbol(m2.codebook, 0))


def test_encode_symbol_range_checked():
    m = SequenceMachine(seed=0, alphabet_size=5)
    with pytest.raises(AlphabetError):
        encode_symbol(m.codebook, 5)
    with pytest.raises(AlphabetError):
        encode_symbol(m.codebook, -1)


def test_decode_drop_one_spike():
    rng = np.random.default_rng(11)
    cb = Codebook.random(26, CodeParams(256, 11, 0.9), rng)
    for a in range(26):
        full = encode_symbol(cb, a)
        for idx in cb.firing[a]:
            damaged = full.copy()
            damaged[idx] = 0.0
            [sym], _ = decode_burst(cb, damaged[None])
            assert sym == a


def test_decode_tie_breaks_low_index():
    p = CodeParams(4, 1, 0.5)
    cb = Codebook(p, np.array([[0], [1]]))
    burst = np.array([[1.0, 1.0, 0.0, 0.0]])
    [sym], [margin] = decode_burst(cb, burst)
    assert sym == 0
    assert margin == 0.0


def test_decode_zero_burst_rejected():
    m = SequenceMachine(seed=0)
    with pytest.raises(DegenerateInputError):
        decode_burst(m.codebook, np.zeros((1, 256)))


def test_learn_empty_and_single_are_noops():
    m = SequenceMachine(seed=1)
    learn_sequence(m, [])
    assert not np.any(m.memory.w)
    learn_sequence(m, [3])
    assert not np.any(m.memory.w)


def test_learn_then_recall_single_sequence():
    m = SequenceMachine(seed=1)
    learn_sequence(m, [0, 1, 2, 3])
    r = recall_sequence(m, [0], 3)
    assert r.symbols == [1, 2, 3]
    assert r.halt_reason is None
    assert all(s.margin > 0 and s.confidence > 0 for s in r.steps)


def test_recall_zero_steps_and_validation():
    m = SequenceMachine(seed=2)
    learn_sequence(m, [0, 1, 2])
    assert recall_sequence(m, [0], 0).steps == []
    with pytest.raises(ParameterError):
        recall_sequence(m, [], 3)
    with pytest.raises(ParameterError):
        recall_sequence(m, [0], -1)


def test_untrained_machine_halts_with_reason():
    m = SequenceMachine(seed=3)
    r = recall_sequence(m, [0], 5)
    assert r.steps == []
    assert r.halt_reason is not None


def test_empty_reads_halt_chains_of_a_block_like_chains_alone():
    # ~2 active locations of 64: some chains read nothing, some read only
    # zeros and some run to the end; a block recalls what each cue recalls alone
    m = SequenceMachine(alphabet_size=8, m_total=64, n_active=6, n_locations=64,
                        target_active=2, seed=2)
    seqs = sample_sequences(np.random.default_rng(2), 4, 8, 8)
    learn_sequences(m, seqs)
    cues = [s[:2] for s in seqs] + [[k, (3 * k) % 8] for k in range(8)]
    results = recall_sequences(m, cues, 7)
    assert results == [recall_sequence(m, cue, 7) for cue in cues]
    assert {r.halt_reason for r in results} == {
        None, "confidence 0 too low", "no active memory location"
    }
    assert len({len(r.steps) for r in results if r.halt_reason is not None}) >= 3


@pytest.mark.parametrize(
    "args",
    [
        {"m_total": 2**63, "n_locations": 1, "target_active": 1},
        {"n_locations": 2**63},
        {"n_locations": 2**61},
        {"alphabet_size": 2**62},
        {"n_locations": np.int64(2**61)},  # exact: no int64 product wraps around
    ],
    ids=["m_total", "n_locations-2**63", "n_locations-2**61", "alphabet_size", "numpy-int"],
)
def test_geometry_past_the_address_space_is_rejected(args):
    # numpy cannot describe arrays of these sizes: np.arange and np.empty
    # would raise a raw ValueError
    with pytest.raises(ParameterError, match="bytes"):
        SequenceMachine(**args)


def test_gate_disambiguates_shared_interior_symbol():
    # sequences agree at position 1 but differ at position 0; a positive
    # gate keeps enough history to tell the continuations apart
    seq_a = [0, 5, 10, 11, 12, 13]
    seq_b = [1, 5, 20, 21, 22, 23]
    m = SequenceMachine(seed=4, lambda_gate=0.7)
    learn_sequence(m, seq_a)
    learn_sequence(m, seq_b)
    assert recall_sequence(m, seq_a[:2], 4).symbols == seq_a[2:]
    assert recall_sequence(m, seq_b[:2], 4).symbols == seq_b[2:]

    # memoryless contrast: context depends only on the shared symbol, so
    # the two recalls collide and at most one continuation survives
    m0 = SequenceMachine(seed=4, lambda_gate=0.0)
    learn_sequence(m0, seq_a)
    learn_sequence(m0, seq_b)
    got_a = recall_sequence(m0, seq_a[:2], 4).symbols
    got_b = recall_sequence(m0, seq_b[:2], 4).symbols
    assert got_a == got_b != seq_a[2:] or got_a == got_b != seq_b[2:]


def test_relearning_is_idempotent():
    m1 = SequenceMachine(seed=5)
    learn_sequence(m1, [0, 1, 2, 3, 4])
    once = m1.memory.w.copy()
    learn_sequence(m1, [0, 1, 2, 3, 4])
    assert np.array_equal(m1.memory.w, once)


def test_recall_bit_deterministic():
    outs = []
    for _ in range(2):
        m = SequenceMachine(seed=6)
        for s in sample_sequences(np.random.default_rng(99), 5, 8, 26):
            learn_sequence(m, s)
        r = recall_sequence(m, [m.codebook.alphabet_size - 1], 7)
        outs.append([(s.symbol, s.margin, s.confidence) for s in r.steps] + [r.halt_reason])
    assert outs[0] == outs[1]


def test_sample_sequences_distinct_firsts():
    seqs = sample_sequences(np.random.default_rng(0), 20, 8, 26)
    firsts = [s[0] for s in seqs]
    assert len(set(firsts)) == 20
    assert all(len(s) == 8 for s in seqs)
    with pytest.raises(ParameterError):
        sample_sequences(np.random.default_rng(0), 27, 8, 26)


def test_capacity_smoke():
    accs = capacity_experiment(n_seeds=3)
    assert float(np.mean(accs)) >= 0.95


@pytest.mark.parametrize("n_sequences, length", [(-1, 5), (5, 0), (5, -2)])
def test_sample_sequences_rejects_bad_counts(n_sequences, length):
    with pytest.raises(ParameterError):
        sample_sequences(np.random.default_rng(0), n_sequences, length, 26)
    assert sample_sequences(np.random.default_rng(0), 0, 5, 26) == []


@pytest.mark.parametrize("n_sequences, length", [(3, 1), (3, 0), (-2, 3), (0, 3)])
def test_capacity_experiment_rejects_nothing_to_score(n_sequences, length):
    # recall from the first symbol scores the length - 1 symbols after it
    with pytest.raises(ParameterError):
        capacity_experiment(n_sequences=n_sequences, length=length, n_seeds=1)


@pytest.mark.parametrize("seed", [-1, 2**63])
def test_machine_rejects_seed_outside_the_snapshot_range(seed):
    with pytest.raises(ParameterError, match="seed"):
        SequenceMachine(seed=seed)


def test_codebook_larger_than_code_space_rejected():
    # 4 ordered 1-of-4 codes exist: a fifth symbol must fail, not loop forever
    p = CodeParams(4, 1, 0.5)
    assert Codebook.random(4, p, np.random.default_rng(0)).alphabet_size == 4
    with pytest.raises(ParameterError):
        Codebook.random(5, p, np.random.default_rng(0))


@pytest.mark.parametrize(
    "firing, match",
    [
        (np.array([0, 1]), "block"),
        (np.zeros((0, 2), dtype=np.intp), "at least one code"),
        (np.array([[1]]), "expected N=2"),
        (np.array([[0.0, 1.0]]), "integers"),
        (np.array([[1, 4]]), r"\[0, 4\)"),
        (np.array([[-1, 2]]), r"\[0, 4\)"),
        (np.array([[1, 1]]), "indices of a code must be distinct"),
        (np.array([[0, 1], [2, 3], [0, 1]]), "pairwise distinct"),
    ],
    ids=["not-2d", "empty", "width", "float-dtype", "index-above-m", "negative-index",
         "repeated-index", "equal-rows"],
)
def test_codebook_rejects_invalid_firing(firing, match):
    p = CodeParams(4, 2, 0.5)
    with pytest.raises(ParameterError, match=match):
        Codebook(p, firing)
    assert Codebook(p, np.array([[1, 0], [0, 1], [3, 2]], dtype=np.uint8)).alphabet_size == 3


def test_codebook_is_a_frozen_value():
    cb = Codebook.random(5, CodeParams(16, 3, 0.9), np.random.default_rng(4))
    assert cb.firing.dtype == np.intp and cb.firing.shape == (5, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cb.firing = cb.firing[:2]
    for array in (cb.firing, cb.encode_matrix, cb.supports):
        with pytest.raises(ValueError):
            array[0, 0] = 1


def _loop_codebook(alphabet_size, p, rng):
    """The codes of a loop of single draws that skips repeats."""
    codes = []
    while len(codes) < alphabet_size:
        order = rng.permutation(p.m_total)[: p.n_active].tolist()
        if order not in codes:
            codes.append(order)
    return codes


@pytest.mark.parametrize("m_total, n_active", [(4, 1), (3, 2), (5, 2), (256, 11)])
def test_codebook_random_equals_a_loop_of_single_draws(m_total, n_active):
    # the block draw keeps first occurrences and draws only the missing codes
    # per round, so it consumes the generator as the loop does; an alphabet
    # of the whole code space draws duplicates in almost every round
    p = CodeParams(m_total, n_active, 0.5)
    n_codes = math.perm(m_total, n_active)
    for size in sorted({1, 2, min(n_codes, 26), n_codes if n_codes <= 60 else 26}):
        for seed in range(6):
            loop_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _loop_codebook(size, p, loop_rng)
            assert Codebook.random(size, p, rng).firing.tolist() == want
            assert rng.random() == loop_rng.random()  # the generators end in one state


def test_empty_alphabet_rejected():
    with pytest.raises(ParameterError):
        Codebook.random(0, CodeParams(256, 11, 0.9), np.random.default_rng(0))


def test_machine_with_empty_alphabet_rejected():
    with pytest.raises(ParameterError):
        SequenceMachine(alphabet_size=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_non_finite_burst_rejected(bad):
    m = SequenceMachine(seed=0)
    with pytest.raises(ParameterError, match="non-finite"):
        decode_burst(m.codebook, np.full((1, 256), np.nan))  # used to return a winner
    burst = encode_symbol(m.codebook, 3)
    burst[0] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        decode_burst(m.codebook, burst[None])


def test_codebook_caches_ascending_supports():
    cb = Codebook.random(26, CodeParams(256, 11, 0.9), np.random.default_rng(12))
    assert len(cb.supports) == 26
    for row, support in zip(cb.encode_matrix, cb.supports):
        assert np.array_equal(support, np.flatnonzero(row))


def test_recall_leaves_the_machine_unchanged_and_interleaves():
    # the context state is a value local to each call: a machine holds its
    # configuration and memory only, so interleaved recalls do not interact
    m = SequenceMachine(seed=8)
    seqs = sample_sequences(np.random.default_rng(3), 6, 8, 26)
    for s in seqs:
        learn_sequence(m, s)
    attrs = set(vars(m))
    memory = m.memory.w.copy()
    alone = [recall_sequence(m, s[:2], 6) for s in seqs]
    interleaved = []
    for s in seqs:
        recall_sequence(m, seqs[0][:3], 5)
        interleaved.append(recall_sequence(m, s[:2], 6))
    assert interleaved == alone
    assert set(vars(m)) == attrs and "state" not in attrs
    assert np.array_equal(m.memory.w, memory)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: learn_sequence(m, [1.5, 2]),
        lambda m: learn_sequence(m, [np.float64(1.0), 2]),
        lambda m: recall_sequence(m, [1.5], 3),
        lambda m: learn_sequence(m, ["a", 2]),
        lambda m: learn_sequence(m, [True, 2]),
        lambda m: recall_sequence(m, [np.bool_(True)], 3),
        lambda m: learn_sequences(m, [[0, 1], [2, 2.0]]),
    ],
    ids=["float", "numpy-float", "recall-float", "str", "bool", "numpy-bool", "batch-float"],
)
def test_non_integer_symbols_raise_alphabet_error(call):
    # bool is an int subclass, and a float or a str used to escape as a raw
    # IndexError or TypeError; symbols are checked when they become indices
    m = SequenceMachine(seed=9)
    with pytest.raises(AlphabetError, match="not an integer"):
        call(m)
    assert not m.memory.w.any()


@pytest.mark.parametrize("steps", [2.5, np.float64(2.0), "2", True])
def test_non_integer_steps_raise_parameter_error(steps):
    m = SequenceMachine(seed=9)
    with pytest.raises(ParameterError, match="steps must be an integer"):
        recall_sequence(m, [1], steps)


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda m: learn_sequence(m, [0, 26, 3]), "26"),
        (lambda m: learn_sequences(m, [[0, 1, 2], [1, -1, 40]]), "-1"),
        (lambda m: recall_sequence(m, [np.int64(30)], 3), "30"),
        (lambda m: learn_sequence(m, [2**70, 1]), str(2**70)),
    ],
    ids=["learn", "ragged-batch-first-bad", "numpy-recall", "beyond-int64"],
)
def test_out_of_range_symbols_raise_alphabet_error(call, bad):
    m = SequenceMachine(seed=9)
    with pytest.raises(AlphabetError, match=f"^symbol {bad} outside alphabet of size 26$"):
        call(m)
    assert not m.memory.w.any()


def test_numpy_integer_symbols_and_steps_pass():
    m1, m2 = SequenceMachine(seed=10), SequenceMachine(seed=10)
    learn_sequence(m1, [0, 1, 2, 3])
    learn_sequence(m2, [np.int64(0), np.int32(1), np.uint8(2), 3])
    assert m1.memory.w.tobytes() == m2.memory.w.tobytes()
    assert recall_sequence(m1, [0], 3) == recall_sequence(m2, [np.int16(0)], np.int64(3))


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_capacity_experiment_rejects_no_seeds(n_seeds):
    with pytest.raises(ParameterError, match="n_seeds"):
        capacity_experiment(n_seeds=n_seeds)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", True])
def test_machine_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ParameterError, match="seed must be an integer"):
        SequenceMachine(seed=seed)


def test_recall_sequences_validates_its_cues():
    m = SequenceMachine(seed=11)
    assert recall_sequences(m, [], 3) == []
    with pytest.raises(ParameterError, match="one length"):
        recall_sequences(m, [[0], [1, 2]], 3)
    with pytest.raises(ParameterError, match="at least one seed symbol"):
        recall_sequences(m, [[], []], 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: learn_sequences(m, 5),
        lambda m: learn_sequences(m, [5]),
        lambda m: learn_sequences(m, [[0, 1], 2]),
        lambda m: learn_sequence(m, None),
        lambda m: recall_sequences(m, [3], 2),
        lambda m: recall_sequences(m, 3, 2),
        lambda m: recall_sequence(m, 3, 2),
    ],
    ids=["learn-int", "learn-int-list", "learn-mixed", "learn-none", "recall-int-list",
         "recall-int", "recall-one-int"],
)
def test_sequences_that_are_not_symbol_lists_raise_parameter_error(call):
    # each raised a raw TypeError from sorting by len or reading a cue's length
    m = SequenceMachine(seed=9)
    with pytest.raises(ParameterError, match="list of symbol lists"):
        call(m)
    assert not m.memory.w.any()


def test_learn_sequences_takes_any_lengths_and_matches_learning_one_by_one():
    seqs = [[], [4], [0, 1, 2, 3, 4, 5], [7, 8], [0, 1, 2, 3, 4, 5], [9, 10, 11]]
    batch, serial = SequenceMachine(seed=12), SequenceMachine(seed=12)
    assert learn_sequences(batch, seqs) is batch
    for s in seqs:
        learn_sequence(serial, s)
    assert batch.memory.w.tobytes() == serial.memory.w.tobytes()
    cues = [s[:1] for s in seqs if s]
    assert recall_sequences(batch, cues, 5) == [recall_sequence(serial, c, 5) for c in cues]


@pytest.mark.parametrize(
    "call",
    [
        lambda: SequenceMachine(alphabet_size=2.5),
        lambda: SequenceMachine(m_total=256.0),
        lambda: SequenceMachine(n_active=11.0),
        lambda: SequenceMachine(n_locations=512.0),
        lambda: SequenceMachine(target_active=16.5),
        lambda: SequenceMachine(target_active=True),
        lambda: sample_sequences(np.random.default_rng(0), 2.5, 4, 26),
        lambda: sample_sequences(np.random.default_rng(0), 2, 2.5, 26),
        lambda: capacity_experiment(length=3.5),
        lambda: capacity_experiment(n_seeds=1.5),
    ],
    ids=["alphabet_size", "m_total", "n_active", "n_locations", "target_active",
         "target_active-bool", "n_sequences", "length", "capacity-length", "n_seeds"],
)
def test_count_parameters_must_be_integers(call):
    # alphabet_size=2.5 built 3 codes and target_active=True meant 1; the
    # others escaped as a raw TypeError
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


def test_machine_holds_its_threshold_seed_and_target_active():
    m = SequenceMachine(n_locations=256, target_active=9, seed=13)
    assert (m.seed, m.target_active) == (13, 9)
    probe_seed = int(np.random.SeedSequence(13).spawn(3)[2].generate_state(1)[0])
    assert m.threshold == calibrate_threshold(m.decoder, 9, seed=probe_seed)
    assert not hasattr(m.decoder, "threshold")


@pytest.mark.parametrize("gate", ["x", None, True, math.nan, math.inf, -0.5, 2.0])
def test_machine_rejects_a_gate_that_is_not_in_the_unit_interval(gate):
    # "x" and None raised a raw TypeError from the range comparison
    with pytest.raises(ParameterError, match="lambda_gate"):
        SequenceMachine(lambda_gate=gate)


# ---------------------------------------------------------------- snapshot

_SMALL = {"alphabet_size": 6, "m_total": 24, "n_active": 4, "n_locations": 32,
          "target_active": 4}


def _learned(seed=5, **kwargs):
    """A small machine that stored a few sequences."""
    m = SequenceMachine(**{**_SMALL, "seed": seed, **kwargs})
    learn_sequences(m, sample_sequences(np.random.default_rng(seed), 5, 6, 6))
    return m


def _snapshot(tmp_path, m):
    path = tmp_path / "machine.seqm"
    save_machine(path, m)
    return path, path.read_bytes()


def _resealed(raw):
    """raw with its CRC-32 recomputed, so that only the other checks see an edit."""
    head = seqmachine._HEADER.size
    body = raw[head + 4 :]
    return raw[:head] + struct.pack("<I", zlib.crc32(body, zlib.crc32(raw[:head]))) + body


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    alpha=st.floats(0.05, 0.95),
    lambda_gate=st.floats(0.0, 0.95),
    seqs=st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=6),
    cues=st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2), min_size=1, max_size=6),
)
def test_recall_after_save_and_load_equals_recall_before(
    tmp_path_factory, seed, alpha, lambda_gate, seqs, cues
):
    m = SequenceMachine(**_SMALL, alpha=alpha, lambda_gate=lambda_gate, seed=seed)
    learn_sequences(m, seqs)
    path = tmp_path_factory.mktemp("snap") / "machine.seqm"
    save_machine(path, m)
    loaded = load_machine(path)
    assert loaded.memory.w.tobytes() == m.memory.w.tobytes()
    assert loaded.threshold.hex() == m.threshold.hex()
    before, after = recall_sequences(m, cues, 5), recall_sequences(loaded, cues, 5)
    for a, b in zip(before, after, strict=True):
        assert a.halt_reason == b.halt_reason
        # bit for bit: struct bytes tell -0.0 from 0.0
        pack = [struct.pack("<qdd", s.symbol, s.margin, s.confidence) for s in a.steps]
        assert pack == [struct.pack("<qdd", s.symbol, s.margin, s.confidence) for s in b.steps]
    learn_sequences(loaded, [[0, 1, 2]])  # the loaded memory takes writes
    assert loaded.memory.w.flags.f_contiguous


def test_snapshot_rejects_every_single_flipped_byte(tmp_path):
    path, raw = _snapshot(tmp_path, _learned())
    for i in range(len(raw)):
        for flip in (0x01, 0x80):
            bad = bytearray(raw)
            bad[i] ^= flip
            path.write_bytes(bad)
            with pytest.raises(ParameterError):
                load_machine(path)


def test_snapshot_with_another_threshold_is_rejected(tmp_path):
    # a file whose arguments rebuild another threshold (another platform, a
    # changed calibration) is refused, however well its checksum matches
    m = _learned()
    path, raw = _snapshot(tmp_path, m)
    at = seqmachine._HEADER.size - 8
    nudged = struct.pack("<d", math.nextafter(m.threshold, 1.0))
    path.write_bytes(_resealed(raw[:at] + nudged + raw[at + 8 :]))
    with pytest.raises(ParameterError, match="threshold"):
        load_machine(path)
    path.write_bytes(_resealed(raw))
    assert load_machine(path).threshold == m.threshold


@pytest.mark.parametrize("field, value", [(3, 25), (6, 31), (3, -24), (6, 0)])
def test_snapshot_geometry_must_match_the_body_before_anything_is_built(
    tmp_path, monkeypatch, field, value
):
    # fields 3 and 6 are m_total and n_locations
    path, raw = _snapshot(tmp_path, _learned())
    fields = list(seqmachine._HEADER.unpack_from(raw))
    fields[field] = value
    path.write_bytes(_resealed(seqmachine._HEADER.pack(*fields) + raw[seqmachine._HEADER.size :]))

    def built(*args, **kwargs):
        raise AssertionError("a machine was built from a snapshot of the wrong length")

    monkeypatch.setattr(seqmachine, "SequenceMachine", built)
    with pytest.raises(ParameterError, match="body"):
        load_machine(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_snapshot_memory_must_be_finite_and_non_negative(tmp_path, bad):
    path, raw = _snapshot(tmp_path, _learned())
    at = len(raw) - 8 * 7
    path.write_bytes(_resealed(raw[:at] + struct.pack("<d", bad) + raw[at + 8 :]))
    with pytest.raises(ParameterError, match="memory"):
        load_machine(path)


def test_snapshot_arguments_are_checked_like_the_constructor(tmp_path):
    # a resealed header with an argument out of range fails as the constructor does
    path, raw = _snapshot(tmp_path, _learned())
    fields = list(seqmachine._HEADER.unpack_from(raw))
    fields[7] = math.nan  # lambda_gate
    path.write_bytes(_resealed(seqmachine._HEADER.pack(*fields) + raw[seqmachine._HEADER.size :]))
    with pytest.raises(ParameterError, match="lambda_gate"):
        load_machine(path)
