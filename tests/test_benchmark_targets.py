"""The benchmark tracer replaces package attributes by name; each must exist.

Only reads ``benchmarks/``: a refactor that renames or drops a traced call
site, or changes a call a probe unpacks, fails here, not only in a traced
benchmark run.
"""

from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_call_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    for owner, attr in spans.wrapped_attributes():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"


def test_traced_probes_run_on_every_layer(monkeypatch):
    # the probes unpack the arguments and results of the calls they wrap,
    # which only a traced benchmark run exercises otherwise
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    from spikeseq import posenc, seqmachine, spikeattn

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in spans.wrapped_attributes()]
    tracer = spans.Tracer()
    with tracer.installed(counting=True):
        m = seqmachine.SequenceMachine(seed=1)
        seqs = seqmachine.sample_sequences(np.random.default_rng(1), 3, 4, 26)
        for s in seqs:
            seqmachine.learn_sequence(m, s)
            seqmachine.recall_sequence(m, s[:1], 3)
        seqmachine.capacity_experiment(n_sequences=3, length=4, n_seeds=1)
        p = posenc.PosEncParams(16, 8)
        posenc.verify_isomorphism(p)
        posenc.lemma1_rank_invariance(p)
        posenc.rank_counterexample(posenc.sinusoidal_pe(p), posenc.spike_timing_pe(p))
        posenc.distance_profile(posenc.sinusoidal_pe(p))
        spikeattn.compare_attention(n_trials=5)
    counts = tracer.counts
    assert counts["active_locations"] > 0 and counts["write_products"] > 0
    assert counts["attention_trials"] == 5 and "recall_halts" in counts
    assert counts["codes.nofm.calls"] > 0 and counts["posenc.gram_matrix.calls"] > 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_traced_probes_run_on_lockstep_blocks(monkeypatch):
    # learn_sequences and recall_sequences call every engine kernel on a block
    # of chains; the probes must take block-shaped arguments and results
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    from spikeseq import seqmachine

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in spans.wrapped_attributes()]
    tracer = spans.Tracer()
    with tracer.installed(counting=True):
        m = seqmachine.SequenceMachine(seed=2)
        seqs = seqmachine.sample_sequences(np.random.default_rng(2), 5, 6, 26)
        seqmachine.learn_sequences(m, seqs)
        results = seqmachine.recall_sequences(m, [s[:1] for s in seqs], 5)
    assert len(results) == 5
    counts = tracer.counts
    assert counts["active_locations"] > 0 and counts["write_products"] > 0
    for layer in ("context.update", "sdm.decode_address", "sdm.cmm_write", "sdm.cmm_read",
                  "codes.nofm", "seqmachine.decode_burst"):
        assert counts[layer + ".calls"] > 0, layer
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_traced_compare_attention_calls_wta_attention_by_name(monkeypatch):
    # the attention study must score its blocks through the module attribute
    # the tracer wraps, so spikeattn.wta_attention metrics stay fed
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    from spikeseq import spikeattn

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in spans.wrapped_attributes()]
    tracer = spans.Tracer()
    with tracer.installed(counting=True):
        rows = spikeattn.compare_attention(n_trials=40)
    assert len(rows) == 40
    assert tracer.counts["spikeattn.wta_attention.calls"] >= 1
    assert tracer.counts["attention_trials"] == 40
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
