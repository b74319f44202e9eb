import numpy as np
import pytest

from oodlab import backbone
from oracles import central_difference, layer_grad_arrays, max_rel_error, mlp_row, mlp_row_backward, pre_activations


def random_net(rng, widths=None):
    widths = widths or [int(rng.integers(2, 5)) for _ in range(3)]
    return backbone.init_mlp(widths, rng)


def flatten_params(params):
    return np.concatenate([np.concatenate([l.weight.ravel(), l.bias]) for l in params.layers])


def set_params(params, flat):
    offset = 0
    for layer in params.layers:
        n = layer.weight.size
        layer.weight[...] = flat[offset : offset + n].reshape(layer.weight.shape)
        offset += n
        layer.bias[...] = flat[offset : offset + layer.bias.size]
        offset += layer.bias.size


class TestForward:
    def test_zero_network(self):
        net = backbone.MlpParams(
            layers=[
                backbone.Layer(weight=np.zeros((3, 2)), bias=np.zeros(3)),
                backbone.Layer(weight=np.zeros((2, 3)), bias=np.zeros(2)),
            ]
        )
        z, _ = mlp_row(net, np.array([5.0, -7.0]))
        np.testing.assert_allclose(z, np.zeros(2))

    def test_identity_single_layer(self):
        net = backbone.MlpParams(layers=[backbone.Layer(weight=np.eye(3), bias=np.zeros(3))])
        x = np.array([1.0, -2.0, 3.0])
        z, _ = mlp_row(net, x)
        np.testing.assert_allclose(z, x)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        net = random_net(rng)
        x = rng.standard_normal(net.in_dim)
        z1, _ = mlp_row(net, x)
        z2, _ = mlp_row(net, x)
        np.testing.assert_array_equal(z1, z2)

    def test_hidden_activations_nonnegative(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, widths=[3, 8, 8, 2])
        for _ in range(50):
            x = 3.0 * rng.standard_normal(3)
            _, cache = mlp_row(net, x)
            for idx, pre in enumerate(pre_activations(net, cache)):
                if idx < len(net.layers) - 1:
                    assert np.all(np.maximum(pre, 0.0) >= 0.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, widths=[4, 6, 3])
        xs = rng.standard_normal((5, 4))
        batch, _ = backbone.forward_batch(net, xs)
        for row, x in zip(batch, xs):
            single, _ = mlp_row(net, x)
            np.testing.assert_allclose(row, single)

    def test_cache_holds_layer_inputs_and_output(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, widths=[3, 8, 8, 2])
        xs = rng.standard_normal((7, 3))
        z, cache = backbone.forward_batch(net, xs)
        assert len(cache) == len(net.layers) + 1
        assert cache[0] is xs and cache[-1] is z
        for idx, (pre, out) in enumerate(zip(pre_activations(net, cache), cache[1:])):
            expected = np.maximum(pre, 0.0) if idx < len(net.layers) - 1 else pre
            np.testing.assert_array_equal(out, expected)


class TestForwardFeatures:
    # The training widths, so the matmuls take the BLAS paths the CLI takes.
    WIDTHS = [2, 64, 64, 8]

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 1910, 2049, 2910])
    def test_matches_forward_batch_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        net = random_net(rng, widths=self.WIDTHS)
        xs = 3.0 * rng.standard_normal((n, 2))
        expected, _ = backbone.forward_batch(net, xs)
        got = backbone.forward_features(net, xs)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("widths", [[3, 5], [3, 7, 4, 6, 2]])
    def test_any_depth_matches_forward_batch(self, widths):
        rng = np.random.default_rng(len(widths))
        net = random_net(rng, widths=widths)
        xs = rng.standard_normal((2100, 3))
        assert np.array_equal(backbone.forward_features(net, xs), backbone.forward_batch(net, xs)[0])

    @pytest.mark.parametrize("n", [1, 1024, 1025, 2048, 2049, 2910, 5000])
    def test_blocks_split_rows_evenly(self, n, monkeypatch):
        block_rows = []
        layer_forward = backbone._layer_forward

        def record(layer, inp, relu, out=None):
            if layer is net.layers[0]:
                block_rows.append(inp.shape[0])
            return layer_forward(layer, inp, relu, out=out)

        monkeypatch.setattr(backbone, "_layer_forward", record)
        rng = np.random.default_rng(7)
        net = random_net(rng, widths=[2, 4, 3])
        backbone.forward_features(net, rng.standard_normal((n, 2)))
        limit = backbone.FORWARD_BLOCK_ROWS
        assert sum(block_rows) == n
        assert len(block_rows) == -(-n // limit)
        assert max(block_rows) - min(block_rows) <= 1
        assert max(block_rows) <= limit
        if n > limit:
            assert min(block_rows) >= limit // 2

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(8)
        net = random_net(rng, widths=[3, 8, 8, 2])
        xs = rng.standard_normal((1500, 3))
        before = xs.copy()
        backbone.forward_features(net, xs)
        np.testing.assert_array_equal(xs, before)


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(4)
        net = random_net(rng)
        x = rng.standard_normal(net.in_dim)
        _, cache = mlp_row(net, x)
        grads, d_x = mlp_row_backward(net, cache, np.zeros(net.out_dim))
        assert np.all(d_x == 0)
        for d_w, d_b in grads:
            assert np.all(d_w == 0) and np.all(d_b == 0)

    def test_inputs_and_cache_left_unchanged(self):
        # The forward adds bias and applies ReLU in place; only its own
        # matmul outputs may be written, and nothing after it caches them.
        rng = np.random.default_rng(6)
        net = random_net(rng, widths=[3, 8, 8, 2])
        xs = rng.standard_normal((9, 3))
        d_out = rng.standard_normal((9, 2))
        x_copy, d_out_copy = xs.copy(), d_out.copy()
        z, cache = backbone.forward_batch(net, xs)
        np.testing.assert_array_equal(xs, x_copy)
        cache_copy = [arr.copy() for arr in cache]
        grads = layer_grad_arrays(net)
        d_x = backbone.backward_batch(net, cache, d_out, grads)
        z_again, cache_again = backbone.forward_batch(net, xs)
        np.testing.assert_array_equal(xs, x_copy)
        np.testing.assert_array_equal(d_out, d_out_copy)
        for arr, before in zip(cache, cache_copy):
            np.testing.assert_array_equal(arr, before)
        np.testing.assert_array_equal(z_again, z)
        for again, first in zip(cache_again, cache):
            np.testing.assert_array_equal(again, first)
        grads_again = layer_grad_arrays(net)
        d_x_again = backbone.backward_batch(net, cache_again, d_out, grads_again)
        np.testing.assert_array_equal(d_x_again, d_x)
        for again, first in zip(grads_again, grads):
            np.testing.assert_array_equal(again, first)

    def test_identity_layer_passes_gradient(self):
        net = backbone.MlpParams(layers=[backbone.Layer(weight=np.eye(3), bias=np.zeros(3))])
        x = np.array([1.0, 2.0, 3.0])
        _, cache = mlp_row(net, x)
        d_z = np.array([0.1, -0.2, 0.3])
        _, d_x = mlp_row_backward(net, cache, d_z)
        np.testing.assert_allclose(d_x, d_z)

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        net = random_net(rng, widths=[3, 6, 5, 2])
        x = rng.standard_normal(3)
        upstream = rng.standard_normal(2)

        _, cache = mlp_row(net, x)
        grads, d_x = mlp_row_backward(net, cache, upstream)

        fd_x = central_difference(lambda xv: float(upstream @ mlp_row(net, xv)[0]), x)
        assert max_rel_error(d_x, fd_x) < 1e-5

        flat = flatten_params(net)
        analytic = np.concatenate([np.concatenate([d_w.ravel(), d_b]) for d_w, d_b in grads])

        def loss_of_params(fv):
            set_params(net, fv)
            value = float(upstream @ mlp_row(net, x)[0])
            set_params(net, flat)
            return value

        fd_params = central_difference(loss_of_params, flat)
        assert max_rel_error(analytic, fd_params) < 1e-5


class TestInit:
    def test_seeded_init_reproducible(self):
        a = backbone.init_mlp([2, 16, 8], np.random.Generator(np.random.PCG64(9)))
        b = backbone.init_mlp([2, 16, 8], np.random.Generator(np.random.PCG64(9)))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_widths_property(self):
        net = backbone.init_mlp([2, 64, 64, 8], np.random.default_rng(0))
        assert net.widths == (2, 64, 64, 8)
        # ReLU after the first layer, none after the last
        _, cache = backbone.forward_batch(net, np.random.default_rng(1).standard_normal((16, 2)))
        pres = pre_activations(net, cache)
        np.testing.assert_array_equal(cache[1], np.maximum(pres[0], 0.0))
        assert np.any(pres[-1] < 0.0)
        np.testing.assert_array_equal(cache[-1], pres[-1])
