"""sgaedit: masked token-grid editing with guidance-sparsified attention.

An encoder-decoder transformer fills in user-masked regions of a quantized
token grid. At high resolution its attention is restricted, per layer and
head, to key blocks selected by pooling a low-resolution transformer's
dense attention into block affinities (neighborhood + top-K). `tape` is
the one op layer, forward and backward, for training and inference alike.
The package also ships the verification harness: gradient checks,
synthetic long-range tasks and the attention-variant ablation; the dense
oracles the benchmark traces by name (`attention.dense_attention`,
`sga.build_sparse_mask`, `tape.masked_softmax`) stay in it, and the other
test oracles live in the test suite.
"""

__version__ = "0.1.0"
