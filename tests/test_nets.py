import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_training as ref
from budgetrl.core import load_json, save_json
from budgetrl.nets import (
    _FORWARD_BLOCK,
    Mlp,
    Optimizer,
    ShapeError,
    StepWorkspace,
    TrainingDivergedError,
    softmax,
    train_step,
)


def loss_and_grad(net, inputs, targets, loss, kappa=1.0, unit_indices=None):
    """The batch loss and its gradient, from a ``StepWorkspace`` as ``train_step`` runs it."""
    workspace = StepWorkspace(net, len(inputs))
    return workspace.loss_and_grad(inputs, targets, loss, kappa, unit_indices), workspace.grad


def numeric_gradient(net, loss_fn, eps=1e-6):
    """Central finite differences over the flat parameter vector."""
    base = net.get_params()
    grad = np.zeros_like(base)
    for i in range(base.size):
        params = base.copy()
        params[i] = base[i] + eps
        net.set_params(params)
        up = loss_fn(net)
        params[i] = base[i] - eps
        net.set_params(params)
        down = loss_fn(net)
        grad[i] = (up - down) / (2 * eps)
    net.set_params(base)
    return grad


def flatten_layers(weights, biases):
    """Per-layer arrays as one vector in the ``mlp-v1`` order: W1 row-major, b1, W2, b2, ..."""
    parts = []
    for w, b in zip(weights, biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def layer_spans(layer_sizes):
    """(start, stop) of each weight and each bias block of a flat vector, in ``mlp-v1`` order."""
    spans, idx = [], 0
    for fan_out, fan_in in zip(layer_sizes[1:], layer_sizes):
        spans.append((idx, idx + fan_out * fan_in))
        idx += fan_out * fan_in
        spans.append((idx, idx + fan_out))
        idx += fan_out
    return spans


def per_layer_backward(net, pre, acts, grad_out):
    """The per-layer backward pass, one new array per weight and bias (reference)."""
    gw = [None] * len(net.weights)
    gb = [None] * len(net.biases)
    g = grad_out
    for layer in range(len(net.weights) - 1, -1, -1):
        gw[layer] = g.T @ acts[layer]
        gb[layer] = g.sum(axis=0)
        if layer > 0:
            g = (g @ net.weights[layer]) * (pre[layer - 1] > 0.0)
    return gw, gb


def grad_with_reference(monkeypatch, net, inputs, targets, loss, unit_indices=None):
    """``loss_and_grad``'s flat gradient, and the per-layer reference gradients
    computed from the same forward pass and output gradient."""
    seen = []
    backward = StepWorkspace._backward

    def spy(workspace, inputs):
        # the hidden ReLU outputs stand in for the pre-activations: they are > 0
        # exactly where those are, which is all the reference reads of them
        outs = [o.copy() for o in workspace.outs]
        seen.append((outs, [inputs, *outs], workspace.grad_out.copy()))
        return backward(workspace, inputs)

    with monkeypatch.context() as m:
        m.setattr(StepWorkspace, "_backward", spy)
        _, grad = loss_and_grad(net, inputs, targets, loss, unit_indices=unit_indices)
    (pre, acts, grad_out), = seen
    return grad, per_layer_backward(net, pre, acts, grad_out)


class TestHuber:
    """The reference's Huber loss, which the workspace step is held to."""

    def test_zero(self):
        assert ref.huber(0.0, 1.0) == 0.0

    def test_quadratic_region_hand_value(self):
        # 0.5 * 0.5^2 = 0.125
        assert ref.huber(0.5, 1.0) == pytest.approx(0.125, abs=0)

    def test_linear_region_hand_value(self):
        # 1 * (2 - 0.5) = 1.5
        assert ref.huber(2.0, 1.0) == pytest.approx(1.5, abs=0)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            ref.huber(1.0, 0.0)
        with pytest.raises(ValueError):
            ref.huber_grad(1.0, -1.0)

    @given(st.floats(-50, 50), st.floats(0.01, 10))
    @settings(max_examples=200, deadline=None)
    def test_piecewise_agreement_and_symmetry(self, delta, kappa):
        value = ref.huber(delta, kappa)
        if abs(delta) <= kappa:
            assert value == 0.5 * delta * delta
        else:
            assert value == pytest.approx(kappa * (abs(delta) - 0.5 * kappa), rel=1e-12)
        assert value >= 0.0
        assert ref.huber(-delta, kappa) == pytest.approx(value, rel=1e-12)
        assert abs(ref.huber_grad(delta, kappa)) <= kappa + 1e-15


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = Mlp([3, 4, 2])
        assert np.all(net.forward(np.ones(3)) == 0.0)

    def test_identity_linear_layer(self):
        net = Mlp([3, 3])
        net.weights[0][:] = np.eye(3)
        x = np.array([0.3, -1.2, 4.0])
        np.testing.assert_array_equal(net.forward(x), x)

    def test_matches_hand_rolled_matrix_oracle(self):
        rng = np.random.default_rng(11)
        net = Mlp([4, 5, 3], rng=rng)
        x = rng.normal(size=4)
        # independent straight-line arithmetic
        h = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
        expected = net.weights[1] @ h + net.biases[1]
        np.testing.assert_allclose(net.forward(x), expected, atol=1e-10)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        net = Mlp([4, 6, 2], rng=rng)
        xs = rng.normal(size=(7, 4))
        batch = net.forward(xs)
        for i in range(7):
            np.testing.assert_allclose(batch[i], net.forward(xs[i]), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Mlp([3, 2]).forward(np.ones(4))

    def test_one_row_is_its_batch_row_bit_for_bit(self):
        # a 1-D input runs as a vector; its products are the (1, n) row's BLAS calls
        rng = np.random.default_rng(8)
        net = Mlp([5, 64, 64, 12], rng=rng)
        xs = rng.normal(size=(40, 5))

        def check(m):
            for x in xs:
                assert m.forward(x).tobytes() == m.forward(x[None, :])[0].tobytes()

        check(net)
        net.set_params(rng.normal(size=net.params.shape))
        check(net)
        check(net.copy())
        check(Mlp.from_dict(net.to_dict()))

    def test_softmax_of_one_row_is_its_batch_row(self):
        zs = np.random.default_rng(9).normal(scale=5.0, size=(40, 12))
        for z in zs:
            assert softmax(z).tobytes() == softmax(z[None, :])[0].tobytes()


class TestBlockedForward:
    """A matrix of 2B rows or more runs in blocks of B to 2B - 1 rows, with the
    bits of the whole-matrix pass."""

    B = _FORWARD_BLOCK

    @pytest.mark.parametrize("sizes", [[12, 64, 64, 12], [12, 32, 12]],
                             ids=["pipeline-64x64", "one-hidden-layer"])
    def test_bits_of_the_whole_matrix_pass(self, sizes):
        net = Mlp(sizes, rng=np.random.default_rng(2))
        for n in (2 * self.B - 1, 2 * self.B, 2 * self.B + 1, 3 * self.B + 7, 50_000):
            x = np.random.default_rng(n).normal(size=(n, sizes[0]))
            out = net.forward(x)
            assert out.shape == (n, sizes[-1])
            assert out.tobytes() == ref.forward(net, x).tobytes()
        x = np.random.default_rng(0).normal(size=sizes[0])
        assert net.forward(x).tobytes() == ref.forward(net, x[None, :])[0].tobytes()
        assert net.forward(np.empty((0, sizes[0]))).shape == (0, sizes[-1])

    def test_hidden_layers_stay_within_two_blocks(self):
        net = Mlp([12, 64, 64, 12], rng=np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(50_000, 12))
        tracemalloc.start()
        try:
            out = net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and two 64-wide hidden layers of under 2B rows; a
        # whole-matrix pass holds two hidden layers of 50 000 rows (51 MB)
        assert peak < out.nbytes + 2 * (2 * self.B) * 64 * 8


class TestTrainStep:
    def test_zero_lr_leaves_parameters(self):
        rng = np.random.default_rng(0)
        net = Mlp([2, 3, 1], rng=rng)
        before = net.get_params().copy()
        train_step(Optimizer(net, lr=0.0), np.ones((4, 2)), np.zeros(4), "huber")
        np.testing.assert_array_equal(net.get_params(), before)

    def test_single_linear_unit_hand_gradient(self):
        # one weight w on one input x, quadratic Huber region:
        # loss = 0.5 (w x - y)^2, dL/dw = (w x - y) x
        net = Mlp([1, 1])
        net.weights[0][0, 0] = 0.5
        x, y, lr = 2.0, 3.0, 0.1
        delta = 0.5 * x - y
        expected_w = 0.5 - lr * delta * x
        expected_b = 0.0 - lr * delta
        loss = train_step(Optimizer(net, lr), np.array([[x]]), np.array([y]), "huber", kappa=10.0)
        assert loss == pytest.approx(0.5 * delta**2)
        assert net.weights[0][0, 0] == pytest.approx(expected_w)
        assert net.biases[0][0] == pytest.approx(expected_b)

    def test_cross_entropy_descends_on_separable_toy(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(-2, 0.3, size=(30, 1)),
                            rng.normal(2, 0.3, size=(30, 1))])
        y = np.array([0] * 30 + [1] * 30)
        net = Mlp([1, 2], rng=np.random.default_rng(2))
        opt = Optimizer(net, lr=0.1)
        losses = [train_step(opt, x, y, "cross_entropy") for _ in range(100)]
        # full-batch gradient descent on a convex loss with small lr
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            train_step(Optimizer(Mlp([2, 1]), 0.1), np.zeros((0, 2)), np.zeros(0), "huber")

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            net = Mlp([3, 8, 2], rng=rng)
            opt = Optimizer(net, 0.05)
            data_rng = np.random.default_rng(7)
            for _ in range(20):
                x = data_rng.normal(size=(8, 3))
                y = data_rng.integers(0, 2, size=8)
                train_step(opt, x, y, "cross_entropy")
            return net.get_params()

        np.testing.assert_array_equal(run(), run())


class TestGradientCheck:
    @pytest.mark.parametrize("region_target", [0.05, 3.0])  # |delta| below and above kappa
    def test_huber_head_matches_finite_differences(self, region_target):
        rng = np.random.default_rng(3)
        for trial in range(10):
            net = Mlp([3, 6, 4, 2], rng=np.random.default_rng(100 + trial))
            x = rng.normal(size=(5, 3))
            units_idx = rng.integers(0, 2, size=5)
            targets = net.forward(x)[np.arange(5), units_idx] - region_target
            _, analytic = loss_and_grad(net, x, targets, "huber", kappa=1.0,
                                        unit_indices=units_idx)

            def loss_fn(n):
                out = n.forward(x)[np.arange(5), units_idx]
                return float(np.mean(ref.huber(out - targets, 1.0)))

            numeric = numeric_gradient(net, loss_fn)
            denom = np.maximum(np.abs(numeric), 1e-4)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_cross_entropy_head_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            net = Mlp([4, 5, 3], rng=np.random.default_rng(200 + trial))
            x = rng.normal(size=(6, 4))
            labels = rng.integers(0, 3, size=6)
            _, analytic = loss_and_grad(net, x, labels, "cross_entropy")

            def loss_fn(n):
                probs = softmax(n.forward(x))
                return float(np.mean(-np.log(probs[np.arange(6), labels])))

            numeric = numeric_gradient(net, loss_fn)
            denom = np.maximum(np.abs(numeric), 1e-4)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


class TestAdam:
    def test_adam_descends_quadratic(self):
        net = Mlp([1, 1])
        net.weights[0][0, 0] = 5.0
        opt = Optimizer(net, lr=0.05, kind="adam")
        x = np.array([[1.0]])
        for _ in range(400):
            train_step(opt, x, np.array([0.0]), "huber", kappa=100.0)
        assert abs(float(net.forward(np.array([1.0]))[0])) < 1e-3


class TestSerializationRoundTrip:
    def test_save_load_identical(self, tmp_path):
        net = Mlp([3, 7, 2], rng=np.random.default_rng(9))
        path = tmp_path / "model.json"
        save_json(path, net.to_dict())
        loaded = Mlp.from_dict(load_json(path))
        assert loaded.layer_sizes == net.layer_sizes
        np.testing.assert_array_equal(loaded.get_params(), net.get_params())

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "other", "layer_sizes": [1, 1], "params": [0, 0]}')
        with pytest.raises(ValueError):
            Mlp.from_dict(load_json(path))

    @pytest.mark.parametrize("doc", [[1, 2], 5, "mlp-v1", None])
    def test_document_that_is_not_an_object_rejected(self, doc):
        with pytest.raises(ValueError, match="model must be a JSON object"):
            Mlp.from_dict(doc)

    @pytest.mark.parametrize("sizes", [[3], [], [3, 0], [3, -2], [3, True], [3.0, 2], ["3", 2],
                                       5, None])
    def test_layer_sizes_that_are_not_two_or_more_positive_ints_rejected(self, sizes):
        with pytest.raises(ValueError, match="layer_sizes must be a list of two or more"):
            Mlp.from_dict({"format": "mlp-v1", "layer_sizes": sizes, "params": [0.0] * 8})

    def test_layer_sizes_checked_against_params_before_allocating(self, monkeypatch):
        # a 2**40-wide input layer would need 16 TiB; the count is refused first,
        # so the net is never made
        def no_net(self, layer_sizes, rng=None):
            raise AssertionError(f"a net of {layer_sizes} was made")

        monkeypatch.setattr(Mlp, "__init__", no_net)
        doc = {"format": "mlp-v1", "layer_sizes": [2 ** 40, 2], "params": [0.0, 1.0, 2.0]}
        with pytest.raises(ValueError, match=f"params hold 3 values, but layer_sizes "
                                             rf"\[{2 ** 40}, 2\] need {2 * (2 ** 40 + 1)}"):
            Mlp.from_dict(doc)
        with pytest.raises(ValueError, match="model params must be a list"):
            Mlp.from_dict({**doc, "params": 3.0})

    def test_params_of_another_count_rejected(self):
        doc = Mlp([3, 2]).to_dict()
        for params in (doc["params"][:-1], doc["params"] + [0.0]):
            with pytest.raises(ValueError, match="need 8"):
                Mlp.from_dict({**doc, "params": params})

    @pytest.mark.parametrize("bad", ['"1.5"', '" 2e0 "', '"inf"', "true", "false", "null",
                                     "NaN", "Infinity", "-Infinity", "1e999", "[1.0]",
                                     '{"a": 1}', "1" + "0" * 400])
    def test_a_param_that_is_not_a_finite_json_number_is_rejected_by_index(self, tmp_path,
                                                                          bad):
        # the file holds a good first param, the bad one at index 1, and another
        # bad one later, so the first is named
        params = ["0.5", bad, "-2", "3", "4", "5", "6", "NaN"]
        path = tmp_path / "model.json"
        path.write_text('{"format": "mlp-v1", "layer_sizes": [3, 2], '
                        f'"params": [{", ".join(params)}]}}')
        with pytest.raises(ValueError, match=r"model params\[1\] is .*, not a finite number"):
            Mlp.from_dict(load_json(path))

    def test_int_and_float_params_load_as_floats(self):
        doc = {"format": "mlp-v1", "layer_sizes": [3, 2],
               "params": [1, -2, 0.5, 3, 1e308, -1e-300, 0, 7]}
        net = Mlp.from_dict(doc)
        assert net.params.dtype == np.float64
        assert net.params.tolist() == [1.0, -2.0, 0.5, 3.0, 1e308, -1e-300, 0.0, 7.0]


class TestFlatParams:
    def test_params_in_mlp_v1_order(self):
        net = Mlp([3, 4, 2], rng=np.random.default_rng(6))
        expected = np.concatenate([net.weights[0].ravel(), net.biases[0],
                                   net.weights[1].ravel(), net.biases[1]])
        np.testing.assert_array_equal(net.params, expected)
        for view in net.weights + net.biases:
            assert np.shares_memory(view, net.params)

    def test_get_params_is_a_copy(self):
        net = Mlp([2, 3, 1], rng=np.random.default_rng(0))
        flat = net.get_params()
        flat[:] = 0.0
        assert np.any(net.params != 0.0)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_size_rejected_before_any_write(self, delta):
        net = Mlp([3, 4, 2], rng=np.random.default_rng(8))
        before = net.get_params()
        with pytest.raises(ShapeError):
            net.set_params(np.full(before.size + delta, 7.0))
        np.testing.assert_array_equal(net.get_params(), before)
        assert [w.shape for w in net.weights] == [(4, 3), (2, 4)]

    def test_layers_cannot_be_rebound(self):
        net = Mlp([3, 3])
        with pytest.raises(TypeError):
            net.weights[0] = np.eye(3)
        with pytest.raises(TypeError):
            net.biases[0] = np.ones(3)

    def test_copy_owns_its_buffer(self):
        net = Mlp([3, 4, 2], rng=np.random.default_rng(2))
        dup = net.copy()
        np.testing.assert_array_equal(dup.params, net.params)
        assert not np.shares_memory(dup.params, net.params)

    def test_file_bytes(self, tmp_path):
        net = Mlp([1, 2])
        net.set_params([1.0, 2.0, 0.5, -0.25])
        path = tmp_path / "model.json"
        save_json(path, net.to_dict())
        assert path.read_text() == ('{"format": "mlp-v1", "layer_sizes": [1, 2], '
                                    '"params": [1.0, 2.0, 0.5, -0.25]}\n')
        assert path.read_text() == json.dumps(net.to_dict()) + "\n"


def per_layer_update(params, grads, kind, lr, t, moments, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-layer SGD/Adam update, one array at a time (reference)."""
    if kind == "sgd":
        for p, g in zip(params, grads):
            p -= lr * g
        return
    m, v = moments
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1 - beta1) * g
        v[i] = beta2 * v[i] + (1 - beta2) * g * g
        p -= lr * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + eps)


class TestFlatGradient:
    @pytest.mark.parametrize("loss", ["huber", "cross_entropy"])
    @pytest.mark.parametrize("sizes", [[4, 6, 5, 3], [3, 2], [7, 64, 64, 12]])
    def test_bit_identical_to_per_layer_backward(self, monkeypatch, loss, sizes):
        data = np.random.default_rng(14)
        for trial in range(5):
            net = Mlp(sizes, rng=np.random.default_rng(40 + trial))
            batch = [1, 8, 64][trial % 3]
            x = data.normal(size=(batch, sizes[0]))
            if loss == "huber":
                targets, units_idx = data.normal(size=batch), data.integers(0, sizes[-1], size=batch)
            else:
                targets, units_idx = data.integers(0, sizes[-1], size=batch), None
            grad, (gw, gb) = grad_with_reference(monkeypatch, net, x, targets, loss, units_idx)
            assert grad.dtype == np.float64 and grad.shape == net.params.shape
            np.testing.assert_array_equal(grad, flatten_layers(gw, gb))


class TestFlatOptimizer:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("loss", ["huber", "cross_entropy"])
    def test_bit_identical_to_per_layer_update(self, monkeypatch, kind, loss):
        net = Mlp([4, 6, 5, 3], rng=np.random.default_rng(12))
        ref_w = [w.copy() for w in net.weights]
        ref_b = [b.copy() for b in net.biases]
        moments = ([np.zeros_like(p) for p in ref_w + ref_b],
                   [np.zeros_like(p) for p in ref_w + ref_b])
        opt = Optimizer(net, 0.05, kind)
        data = np.random.default_rng(13)
        for t in range(1, 61):
            x = data.normal(size=(8, 4))
            if loss == "huber":
                targets, units_idx = data.normal(size=8), data.integers(0, 3, size=8)
            else:
                targets, units_idx = data.integers(0, 3, size=8), None
            grad, (gw, gb) = grad_with_reference(monkeypatch, net, x, targets, loss, units_idx)
            opt.apply(grad)
            per_layer_update(ref_w + ref_b, gw + gb, kind, 0.05, t, moments)
            np.testing.assert_array_equal(net.params, flatten_layers(ref_w, ref_b))

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_in_any_layer_leaves_params(self, kind, bad):
        net = Mlp([3, 4, 4, 2], rng=np.random.default_rng(3))
        opt = Optimizer(net, 0.1, kind)
        x = np.random.default_rng(4).normal(size=(5, 3))
        _, grad = loss_and_grad(net, x, np.zeros(5), "huber")
        opt.apply(grad)
        before = net.get_params()
        if kind == "adam":
            moments = (opt._m.copy(), opt._v.copy())
        spans = layer_spans(net.layer_sizes)
        assert len(spans) == 6  # a weight and a bias block for each of the three layers
        for _, stop in spans:
            bad_grad = grad.copy()
            bad_grad[stop - 1] = bad
            with pytest.raises(TrainingDivergedError):
                opt.apply(bad_grad)
            np.testing.assert_array_equal(net.get_params(), before)
            assert opt.t == 1
            if kind == "adam":
                np.testing.assert_array_equal(opt._m, moments[0])
                np.testing.assert_array_equal(opt._v, moments[1])


def reference_data(sizes, batch, loss, seed):
    data = np.random.default_rng(seed)
    x = data.normal(size=(batch, sizes[0]))
    if loss == "huber":
        return x, data.normal(size=batch), data.integers(0, sizes[-1], size=batch)
    return x, data.integers(0, sizes[-1], size=batch), None


class TestAgainstAllocatingReference:
    """The workspace step runs the allocating reference's operations in its order."""

    @pytest.mark.parametrize("sizes", [[4, 6, 5, 3], [3, 2], [12, 64, 64, 12]])
    def test_forward(self, sizes):
        net = Mlp(sizes, rng=np.random.default_rng(1))
        for batch in (1, 7, 64):
            x = np.random.default_rng(batch).normal(size=(batch, sizes[0]))
            np.testing.assert_array_equal(net.forward(x), ref.forward(net, x))
            workspace = StepWorkspace(net, batch)
            np.testing.assert_array_equal(workspace.forward(x), ref.forward(net, x))

    @pytest.mark.parametrize("loss", ["huber", "cross_entropy"])
    @pytest.mark.parametrize("sizes", [[4, 6, 5, 3], [3, 2], [12, 64, 64, 12]])
    def test_loss_and_grad(self, loss, sizes):
        for trial, batch in enumerate([1, 8, 64, 100]):
            net = Mlp(sizes, rng=np.random.default_rng(60 + trial))
            x, targets, units = reference_data(sizes, batch, loss, trial)
            for kappa in (1.0, 0.05):
                value, grad = loss_and_grad(net, x, targets, loss, kappa, units)
                ref_value, ref_grad = ref.loss_and_grad(net, x, targets, loss, kappa, units)
                assert value == ref_value
                np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("loss", ["huber", "cross_entropy"])
    def test_train_steps(self, kind, loss):
        sizes = [12, 64, 64, 12]
        net, ref_net = (Mlp(sizes, rng=np.random.default_rng(3)) for _ in range(2))
        opt, ref_opt = Optimizer(net, 0.01, kind), ref.Optimizer(ref_net, 0.01, kind)
        for t in range(40):
            batch = 64 if t % 10 else 5  # the workspace follows a change of batch size
            x, targets, units = reference_data(sizes, batch, loss, t)
            value = train_step(opt, x, targets, loss, 1.0, units)
            assert value == ref.train_step(ref_opt, x, targets, loss, 1.0, units)
            np.testing.assert_array_equal(net.params, ref_net.params)
            if kind == "adam":
                np.testing.assert_array_equal(opt._m, ref_opt._m)
                np.testing.assert_array_equal(opt._v, ref_opt._v)


class TestLossContract:
    """What ``train_step`` and its ``StepWorkspace`` take and refuse; a refused
    step leaves the parameters and the optimizer's step count as they were."""

    def test_default_unit_is_zero(self):
        net = Mlp([3, 4, 2], rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 3))
        implicit = loss_and_grad(net, x, np.ones(6), "huber")
        explicit = loss_and_grad(net, x, np.ones(6), "huber", unit_indices=np.zeros(6, int))
        assert implicit[0] == explicit[0]
        np.testing.assert_array_equal(implicit[1], explicit[1])

    def test_list_inputs(self):
        x = [[0.5, -1.0], [2.0, 0.25]]
        for loss, targets, units in (("huber", [1.0, -1.0], [2, 0]),
                                     ("cross_entropy", [1, 2], None)):
            nets = [Mlp([2, 3, 3], rng=np.random.default_rng(0)) for _ in range(2)]
            lists = train_step(Optimizer(nets[0], 0.1), x, targets, loss, unit_indices=units)
            arrays = train_step(Optimizer(nets[1], 0.1), np.array(x), np.array(targets), loss,
                                unit_indices=None if units is None else np.array(units))
            assert lists == arrays
            np.testing.assert_array_equal(nets[0].params, nets[1].params)

    @staticmethod
    def assert_refused(net, inputs, targets, loss, unit_indices=None):
        before, opt = net.get_params(), Optimizer(net, 0.1)
        with pytest.raises(ValueError):
            train_step(opt, inputs, targets, loss, unit_indices=unit_indices)
        np.testing.assert_array_equal(net.params, before)
        assert opt.t == 0

    @pytest.mark.parametrize("loss", ["mse", "", "Huber"])
    def test_unknown_loss_refused(self, loss):
        net = Mlp([2, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            loss_and_grad(net, np.ones((3, 2)), np.zeros(3), loss)
        self.assert_refused(net, np.ones((3, 2)), np.zeros(3), loss)

    def test_empty_batch_refused(self):
        self.assert_refused(Mlp([2, 1]), np.zeros((0, 2)), np.zeros(0), "huber")

    @pytest.mark.parametrize("unit", [-1, 2])
    def test_unit_outside_the_output_layer_refused(self, unit):
        net = Mlp([2, 2], rng=np.random.default_rng(0))
        x = np.ones((3, 2))
        self.assert_refused(net, x, np.zeros(3), "huber", unit_indices=[0, unit, 1])
        self.assert_refused(net, x, [0, unit, 1], "cross_entropy")
