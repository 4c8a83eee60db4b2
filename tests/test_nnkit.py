"""The row-softmax check of the former autograd toolkit, on the softmax that remains.

The toolkit's other tests went with it; this one checks a property of the
row softmax itself, which ``softmax_attention`` still computes. With the
keys an identity and the values an identity, its output is the weight
matrix of the given logits.
"""

import numpy as np

from spikeseq.spikeattn import AttentionInputs, softmax_attention


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 7)) * 10
    x = softmax_attention(AttentionInputs(logits, np.eye(7), np.eye(7)))
    assert np.max(np.abs(x.sum(axis=-1) - 1.0)) < 1e-12
