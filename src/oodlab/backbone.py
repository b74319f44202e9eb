"""A small fully-connected feature extractor with exact backpropagation.

Layers are affine maps followed by ReLU, except the last, which is affine
only. The activation follows from a layer's position alone, so a ``Layer``
holds just its weight and bias and only the batch kernels apply the rule.
The forward pass returns a cache sufficient for an exact backward pass:
every layer's input plus the network output, so cache[i + 1] is layer i's
output. Each layer allocates one array, its matmul output, and adds the bias
and applies ReLU to it in place. The backward pass writes every parameter
gradient into arrays the caller provides (the training step passes views of
one gradient vector), and allocates only its ``d_pre @ W`` products and their
masks. It reads the ReLU mask off a layer's output, since max(pre, 0) > 0
exactly where pre > 0 (NaN included); the ReLU subgradient at zero is taken
as zero.

A forward that no backward follows (class means, eval scoring, feature
export) goes through ``forward_features`` instead: it keeps no cache and runs
the rows in nearly equal blocks of at most ``FORWARD_BLOCK_ROWS``, writing the
last layer of each block straight into one preallocated output. The hidden
layers alternate between the two halves of one block-sized scratch array, so
a call makes the same two allocations whatever its row count, and the
allocator hands their memory to the next call instead of returning it to the
system and faulting it back in. Each row's features equal ``forward_batch``'s
bit for bit: the matmul kernels give a row the same sums at any block height
of a few hundred rows or more, and the even split keeps every block there,
clear of the few-row remainders where the sums differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORWARD_BLOCK_ROWS = 1024


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("layer weight must be (out, in) with an out-length bias")


@dataclass
class MlpParams:
    layers: list[Layer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("need at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("consecutive layer dimensions must chain")

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.in_dim,) + tuple(layer.weight.shape[0] for layer in self.layers)


def init_mlp(widths: tuple[int, ...] | list[int], rng: np.random.Generator) -> MlpParams:
    """He-style init: weights ~ N(0, 2/fan_in), biases zero, ReLU hidden layers."""
    if len(widths) < 2:
        raise ValueError("need input and output widths")
    layers = [
        Layer(weight=rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in), bias=np.zeros(fan_out))
        for fan_in, fan_out in zip(widths, widths[1:])
    ]
    return MlpParams(layers=layers)


def forward_batch(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward over a (B, in_dim) batch.

    The cache is [x, layer 0 output, ..., network output]: each layer's input
    followed by the returned features. Neither ``x`` nor a cached array is
    written after it is cached, so callers may keep them.
    """
    out = np.asarray(x, dtype=float)
    cache = [out]
    last = len(params.layers) - 1
    for idx, layer in enumerate(params.layers):
        out = _layer_forward(layer, out, relu=idx < last)
        cache.append(out)
    return out, cache


def forward_features(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Features of a (N, in_dim) batch, equal to ``forward_batch(params, x)[0]``, with no cache.

    The rows are split as ``np.array_split`` splits them, into
    ceil(N / FORWARD_BLOCK_ROWS) blocks whose sizes differ by at most one.
    Hidden layers alternate between the two halves of one scratch array.
    """
    x = np.asarray(x, dtype=float)
    feats = np.empty((x.shape[0], params.out_dim))
    n_blocks = max(1, -(-x.shape[0] // FORWARD_BLOCK_ROWS))
    largest_block = -(-x.shape[0] // n_blocks)
    hidden = params.widths[1:-1]
    half = largest_block * max(hidden, default=0)
    scratch = np.empty(2 * half)
    for block, dest in zip(np.array_split(x, n_blocks), np.array_split(feats, n_blocks)):
        for idx, width in enumerate(hidden):
            start = idx % 2 * half
            out = scratch[start : start + block.shape[0] * width].reshape(-1, width)
            block = _layer_forward(params.layers[idx], block, relu=True, out=out)
        _layer_forward(params.layers[-1], block, relu=False, out=dest)
    return feats


def _layer_forward(layer: Layer, inp: np.ndarray, relu: bool, out: np.ndarray | None = None) -> np.ndarray:
    """One layer's output: the matmul into ``out`` (a new array when None), then bias and ReLU in place."""
    out = np.matmul(inp, layer.weight.T, out=out)
    out += layer.bias
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def backward_batch(
    params: MlpParams, cache: list[np.ndarray], d_out: np.ndarray, grads: list[np.ndarray]
) -> np.ndarray:
    """Exact gradients for a batch, written into ``grads``; returns d_x.

    ``grads`` holds one array per parameter, shaped as it and in the order
    ``Model.flat`` lays them out: layer 0's d_weight and d_bias, then layer
    1's, and so on. Each is overwritten, d_weight by its matmul and d_bias by
    its row sum, with no intermediate copy. ``d_out`` is only read; the ReLU
    mask multiplies this function's own ``d_pre @ W`` arrays in place.
    """
    d_pre = np.asarray(d_out, dtype=float)
    for idx in range(len(params.layers) - 1, -1, -1):
        np.matmul(d_pre.T, cache[idx], out=grads[2 * idx])
        np.add.reduce(d_pre, axis=0, out=grads[2 * idx + 1])
        d_pre = d_pre @ params.layers[idx].weight
        if idx:
            # the mask of layer idx - 1's ReLU, read off its output
            d_pre *= cache[idx] > 0.0
    return d_pre
