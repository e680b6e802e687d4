import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latscale.nn import (
    Adam,
    GateAddNorm,
    Grn,
    InterpretableAttention,
    Linear,
    LstmCell,
    ParamStore,
    Tensor,
    autodiff as ad,
    causal_mask,
)
from latscale import tft
from latscale.nn.layers import CLIP_NORM
from oracles import (
    elu, grad_check, mean, pinball, softmax, sub, swap_last, total, unblocked_lstm_sequence,
)


def rand_tensor(rng, *shape):
    return Tensor(rng.normal(0, 1, shape))


# Per-op oracles: the nodes the fused ops replace, kept here to check them.

def layer_norm(x):
    """Normalize the last axis to zero mean, unit variance (no affine)."""
    xhat, inv = ad._normalize(x.values.copy())
    out = Tensor(xhat, (x,))
    out._backward = lambda g: ad._accumulate(x, ad._normalize_grad(g.copy(), xhat, inv))
    return out


def glu(layer, x):
    """Gated linear unit sigmoid(gate(x)) * value(x) over a layer's
    ``gate`` and ``value`` pair."""
    return ad.mul(ad.sigmoid(layer.gate(x)), layer.value(x))


def quantile_loss(y: float, yhat: float, q: float) -> float:
    """Scalar pinball loss max(q*(y - yhat), (q - 1)*(y - yhat))."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    err = y - yhat
    return max(q * err, (q - 1.0) * err)


class TestAutodiffPrimitives:
    def test_linear_layer_gradient_is_exact(self):
        rng = np.random.default_rng(0)
        store = ParamStore(seed=1)
        layer = Linear(store, "lin", 4, 3)
        x = rand_tensor(rng, 5, 4)
        err = grad_check(lambda: total(layer(x)), [layer.w, layer.b, x])
        assert err < 1e-8

    def test_backward_rejects_a_seed_of_another_shape(self):
        x = Tensor(np.ones((2, 3)))
        y = ad.mul(x, 2.0)
        with pytest.raises(ValueError, match=r"seed of shape \(3,\) for a node of shape \(2, 3\)"):
            y.backward(np.ones(3))  # broadcastable, yet not the node's shape
        assert x.grad is None
        y.backward(np.full((2, 3), 0.5))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_second_backward_adds_the_same_gradients_again(self):
        x = Tensor(np.array([1.0, -2.0]))
        y = ad.mul(ad.mul(x, 3.0), 2.0)
        y.backward()
        y.backward()  # x.grad read 18 when the inner node kept its first gradient
        np.testing.assert_array_equal(x.grad, [12.0, 12.0])

    def test_backward_frees_inner_gradients_and_keeps_leaves(self):
        rng = np.random.default_rng(25)
        store = ParamStore(seed=25)
        grn = Grn(store, "grn", 4, 3)
        attn = InterpretableAttention(store, "attn", 4, heads=2)
        x = rand_tensor(rng, 2, 5, 4)
        attended, _ = attn(x, x, mask=causal_mask(5, 5))
        out = grn(ad.reshape(attended, (10, 4)))
        out.backward(rng.normal(0, 1, (10, 3)))
        inner, leaves, seen, stack = [], [], set(), [out]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                (inner if node._backward is not None else leaves).append(node)
                stack.extend(node._parents)
        assert len(inner) > 10 and all(node.grad is None for node in inner)
        assert {id(t) for t in leaves} == {id(t) for t in [*store.tensors().values(), x]}
        assert all(t.grad is not None for t in leaves)

    def test_broadcast_add_and_mul(self):
        rng = np.random.default_rng(1)
        a = rand_tensor(rng, 3, 4)
        b = rand_tensor(rng, 4)
        err = grad_check(lambda: mean(ad.mul(ad.add(a, b), b)), [a, b])
        assert err < 1e-7

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(2)
        a = rand_tensor(rng, 2, 3, 4)
        b = rand_tensor(rng, 2, 4, 5)
        w = rand_tensor(rng, 5, 2)
        err = grad_check(lambda: total(ad.matmul(ad.matmul(a, b), w)), [a, b, w])
        assert err < 1e-7

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = Tensor(rng.normal(0, 5, (4, 7)))
            y = softmax(x).values
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(4)
        y = layer_norm(rand_tensor(rng, 6, 16)).values
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_narrow_concat_reshape_roundtrip_gradient(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, 3, 8)

        def loss():
            left = ad.narrow(x, 1, 0, 4)
            right = ad.narrow(x, 1, 4, 4)
            glued = ad.concat([right, left], axis=1)
            return mean(ad.mul(ad.reshape(glued, (6, 4)), 2.0))

        assert grad_check(loss, [x]) < 1e-8

    def test_corrupted_gradient_is_detected(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))

        def bad_square(t):
            out = Tensor(t.values**2, (t,))
            out._backward = lambda g: ad._accumulate(t, g * 2.5 * t.values)  # wrong factor
            return out

        err = grad_check(lambda: total(bad_square(x)), [x])
        assert err > 1e-2

    def test_tensor_added_to_itself(self):
        rng = np.random.default_rng(22)
        p = rand_tensor(rng, 3, 2)
        probe = rng.normal(0, 1, (3, 2))
        assert grad_check(lambda: total(ad.mul(ad.add(p, p), probe)), [p]) < 1e-8
        np.testing.assert_array_equal(p.grad, 2.0 * probe)

    def test_tensor_feeding_two_ops(self):
        # x shares the add's upstream array with y, then gets a second
        # gradient from the matmul, in either order
        rng = np.random.default_rng(23)
        x = rand_tensor(rng, 4, 3)
        y = rand_tensor(rng, 4, 3)
        w = rand_tensor(rng, 3, 3)
        for loss in (lambda: mean(ad.mul(ad.add(x, y), ad.matmul(x, w))),
                     lambda: mean(ad.mul(ad.matmul(x, w), ad.add(x, y)))):
            assert grad_check(loss, [x, y, w]) < 1e-8

    def test_clipping_scales_shared_gradients_once(self):
        # add hands one upstream array to both parameters; clipping must
        # scale each parameter's gradient once, not the shared array twice
        rng = np.random.default_rng(24)
        store = ParamStore(seed=24)
        p1 = store.parameter("p1", (3, 2))
        p2 = store.parameter("p2", (3, 2))
        probe = rng.normal(0, 1, (3, 2))
        probe *= 2 * CLIP_NORM / np.sqrt(2.0 * np.sum(probe**2))  # twice the clip norm

        def loss():
            return total(ad.mul(ad.add(p1, p2), probe))

        assert grad_check(loss, [p1, p2]) < 1e-8
        store.zero_grad()
        loss().backward()
        np.testing.assert_array_equal(p1.grad, probe)
        np.testing.assert_array_equal(p2.grad, probe)
        Adam(store, lr=0.03).step()
        np.testing.assert_allclose(p1.grad, 0.5 * probe, rtol=1e-15)
        np.testing.assert_allclose(p2.grad, 0.5 * probe, rtol=1e-15)

    def test_dropout_identity_at_inference(self):
        x = Tensor(np.ones((10, 10)))
        assert ad.dropout(x, 0.5, None, training=False) is x

    def test_dropout_preserves_mean_when_training(self):
        rng = np.random.default_rng(6)
        x = Tensor(np.full((100_000,), 3.0))
        y = ad.dropout(x, 0.3, rng, training=True).values
        assert abs(y.mean() - 3.0) / 3.0 < 0.02

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_dropout_equals_a_float_mask_product(self, p):
        """The boolean mask kept in the graph gives the float mask's bits."""
        rng = np.random.default_rng(7)
        values, upstream = rng.normal(size=(2, 64, 16, 8))
        mask = (np.random.default_rng(8).random(values.shape) >= p) / (1.0 - p)
        x, x_ref = Tensor(values.copy()), Tensor(values.copy())
        y = ad.dropout(x, p, np.random.default_rng(8), training=True)
        y_ref = ad.mul(x_ref, mask)
        np.testing.assert_array_equal(y.values, y_ref.values)
        y.backward(upstream)
        y_ref.backward(upstream)
        np.testing.assert_array_equal(x.grad, x_ref.grad)

    def test_branch_free_elu_matches_the_where_form(self):
        rng = np.random.default_rng(26)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 800.0, -800.0]
        v = np.concatenate([edges, rng.normal(0, 3, 4096)])
        g = rng.normal(0, 1, v.shape)
        x = Tensor(v.copy())
        ref = elu(x)
        ref.backward(g)
        y = ad._elu(v.copy())
        assert_same_bits(y, ref.values)
        assert_same_bits(g * ad._elu_slope(y), x.grad)

    @pytest.mark.parametrize("shape", [(6, 16), (2048, 8), (12800, 8), (3, 5, 7)])
    def test_layer_norm_equals_the_np_var_form(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            v = rng.normal(rng.normal(), rng.exponential(), shape)
            inv = 1.0 / np.sqrt(v.var(axis=-1, keepdims=True) + 1e-5)
            expected = (v - v.mean(axis=-1, keepdims=True)) * inv
            x = Tensor(v)
            out = layer_norm(x)
            np.testing.assert_array_equal(out.values, expected)
            g = rng.normal(0, 1, shape)
            out.backward(g)
            np.testing.assert_array_equal(x.grad, inv * (g - g.mean(axis=-1, keepdims=True) - expected
                                                         * (g * expected).mean(axis=-1, keepdims=True)))


REDUCTION_ROWS = [1, 2, 7, 127, 128, 129, 511, 512, 513, 2048, 12800, 20000]


def with_specials(rng, shape):
    """Values of mixed magnitude with a few -0.0, inf and nan entries, and
    a row and a column of -0.0 only where that leaves other values."""
    a = rng.normal(0, 1, shape) * 10.0 ** rng.integers(-8, 9, shape)
    hit = rng.random(shape) < 0.005
    a[hit] = rng.choice([-0.0, np.inf, -np.inf, np.nan], hit.sum())
    if shape[-2] > 1:
        a[..., 0, :] = -0.0
    if shape[-1] > 1:
        a[..., -1] = -0.0
    return a


def assert_same_bits(got, want):
    """Equal to the last bit, -0.0 against 0.0 included; a nan equals any nan."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
class TestReductions:
    """The reduction helpers equal numpy's sum and mean to the last bit on
    either side of their shape gates, so a numpy that sums in another order
    fails here before it moves a trained model."""

    @pytest.mark.parametrize("width", range(1, 41))
    def test_row_sums_and_means_equal_numpy(self, width):
        rng = np.random.default_rng(width)
        for rows in REDUCTION_ROWS:
            a = with_specials(rng, (rows, width))
            assert_same_bits(ad._sum_rows(a), a.sum(axis=-1, keepdims=True))
            assert_same_bits(ad._sum_rows(a) / width, a.mean(axis=-1, keepdims=True))
        a = with_specials(rng, (40, 16, width))
        assert_same_bits(ad._sum_rows(a), a.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("width", range(1, 41))
    def test_column_sums_equal_numpy(self, width):
        rng = np.random.default_rng(100 + width)
        for rows in REDUCTION_ROWS:
            a = with_specials(rng, (rows, width))
            assert_same_bits(ad._sum_columns(a), a.sum(axis=0))
            assert_same_bits(ad._unbroadcast(a, (width,)), a.sum(axis=0))
        a = with_specials(rng, (40, 16, width))
        assert_same_bits(ad._sum_columns(a), a.sum(axis=(0, 1)))
        strided = with_specials(rng, (width, 300)).T
        assert_same_bits(ad._sum_columns(strided), strided.sum(axis=0))


class TestGrn:
    def test_pre_affine_moments_at_init(self):
        rng = np.random.default_rng(9)
        store = ParamStore(seed=9)
        grn = Grn(store, "grn", 8, 8)
        out = grn(rand_tensor(rng, 12, 8)).values  # gamma=1, beta=0 at init
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_gradient_all_weights(self):
        rng = np.random.default_rng(10)
        store = ParamStore(seed=10)
        grn = Grn(store, "grn", 5, 3)
        x = rand_tensor(rng, 7, 5)
        # weight the outputs so the loss is not the (identically zero)
        # plain mean of a LayerNorm
        probe = rng.normal(0, 1, (7, 3))
        err = grad_check(
            lambda: mean(ad.mul(grn(x), probe)), list(store.tensors().values()) + [x]
        )
        assert err < 1e-4

    def test_registers_the_checkpoint_parameter_names(self):
        store = ParamStore(seed=11)
        Grn(store, "grn", 4, 4)
        # checkpoint format 1 keys these names; a GRN has no context projection
        assert list(store.tensors()) == [
            "grn.dense_in.w", "grn.dense_in.b", "grn.dense_out.w", "grn.dense_out.b",
            "grn.glu.gate.w", "grn.glu.gate.b", "grn.glu.value.w", "grn.glu.value.b",
            "grn.ln.gamma", "grn.ln.beta",
        ]

    def test_skip_projection_only_when_dims_differ(self):
        store_same = ParamStore(seed=1)
        Grn(store_same, "a", 4, 4)
        assert "a.skip.w" not in store_same.tensors()
        store_diff = ParamStore(seed=1)
        Grn(store_diff, "b", 6, 4)
        assert "b.skip.w" in store_diff.tensors()

    @pytest.mark.parametrize("build", [
        lambda store: Grn(store, "layer", 6, 4),  # with a skip projection
        lambda store: Grn(store, "layer", 4, 4),
        lambda store: GateAddNorm(store, "layer", 4),
    ])
    def test_parameters_are_the_registered_tensors_in_order(self, build):
        store = ParamStore(seed=12)
        store.parameter("before", (2,))
        layer = build(store)
        store.parameter("after", (2,))
        registered = [t for name, t in store.tensors().items() if name.startswith("layer.")]
        assert len(layer.parameters()) == len(registered)
        assert all(got is want for got, want in zip(layer.parameters(), registered))


def composed_grn(grn, x, training=False, rng=None):
    """The reference for ``ad.gated_residual``: ``Grn`` as a chain of
    per-op nodes, one for each matmul, add, activation, dropout and norm."""
    eta1 = grn.dense_out(elu(grn.dense_in(x)))
    eta1 = ad.dropout(eta1, grn.dropout, rng, training)
    skip = grn.skip(x) if grn.skip is not None else x
    normed = layer_norm(ad.add(skip, glu(grn, eta1)))
    return ad.add(ad.mul(normed, grn.ln_gamma), grn.ln_beta)


def composed_gate_add_norm(gan, x, residual, training=False, rng=None):
    """The reference for ``ad.gate_add_norm``: ``GateAddNorm`` as a chain
    of per-op nodes."""
    x = ad.dropout(x, gan.dropout, rng, training)
    normed = layer_norm(ad.add(residual, glu(gan, x)))
    return ad.add(ad.mul(normed, gan.ln_gamma), gan.ln_beta)


def perturb(store, rng):
    """Move every parameter off its init, so nonzero biases and a gamma
    other than one exercise every gradient."""
    for t in store.tensors().values():
        t.values += rng.normal(0, 0.3, t.values.shape)


class TestGatedResidual:
    @staticmethod
    def build(seed, lead, n_in, n_out):
        rng = np.random.default_rng(seed)
        store = ParamStore(seed=seed)
        grn = Grn(store, "grn", n_in, n_out, hidden=5, dropout=0.3)
        perturb(store, rng)
        x = rand_tensor(rng, *lead, n_in)
        probe = rng.normal(0, 1, (*lead, n_out))
        return store, grn, x, probe

    @pytest.mark.parametrize("lead", [(7,), (3, 5)])
    @pytest.mark.parametrize("n_in,n_out", [(4, 4), (6, 4)])  # identity and projected skip
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_the_composed_chain(self, lead, n_in, n_out, training):
        store, grn, x, probe = self.build(40, lead, n_in, n_out)
        wrt = list(store.tensors().values()) + [x]
        results = []
        for run in (Grn.__call__, composed_grn):
            for t in wrt:
                t.zero_grad()
            rng = np.random.default_rng(41)
            out = run(grn, x, training, rng)
            # x feeds a second op too, so the order of its accumulations counts
            ad.add(total(ad.mul(out, probe)), total(ad.mul(x, x))).backward()
            results.append((out.values, [t.grad for t in wrt], rng.random(4)))
        (fused, fused_grads, fused_next), (ref, ref_grads, ref_next) = results
        np.testing.assert_array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fused_next, ref_next)  # same random stream after the call

    def test_is_one_node(self):
        store, grn, x, _ = self.build(42, (4,), 6, 4)
        out = grn(x, training=True, rng=np.random.default_rng(0))
        assert all(parent._backward is None for parent in out._parents)
        assert {id(t) for t in out._parents} == {id(t) for t in [*store.tensors().values(), x]}

    def test_gradient_with_dropout(self):
        store, grn, x, probe = self.build(43, (2, 3), 6, 4)
        # a fresh generator per call draws the same mask, so the loss is deterministic
        err = grad_check(
            lambda: mean(ad.mul(grn(x, True, np.random.default_rng(44)), probe)),
            list(store.tensors().values()) + [x],
        )
        assert err < 1e-4


class TestGateAddNorm:
    @staticmethod
    def build(seed, lead, width=4):
        rng = np.random.default_rng(seed)
        store = ParamStore(seed=seed)
        gan = GateAddNorm(store, "gan", width, dropout=0.3)
        mix = store.parameter("mix", (width, width))
        perturb(store, rng)
        shared = rand_tensor(rng, *lead, width)
        probe = rng.normal(0, 1, (*lead, width))
        return store, gan, mix, shared, probe

    @staticmethod
    def feed(mix, shared):
        """(x, residual) from one shared input, as the model feeds them: x
        reads the input twice, as the attention output reads the queries
        that are also the residual.  With three paths into the input, a
        node that lists x before the residual sums them in another order."""
        return ad.add(ad.matmul(shared, mix), shared), ad.reshape(shared, shared.values.shape)

    @pytest.mark.parametrize("lead", [(7,), (3, 5)])
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_the_composed_chain(self, lead, training):
        store, gan, mix, shared, probe = self.build(60, lead)
        wrt = list(store.tensors().values()) + [shared]
        results = []
        for run in (GateAddNorm.__call__, composed_gate_add_norm):
            for t in wrt:
                t.zero_grad()
            rng = np.random.default_rng(61)
            out = run(gan, *self.feed(mix, shared), training, rng)
            # the shared input feeds a third op, so the order of its accumulations counts
            ad.add(total(ad.mul(out, probe)), total(ad.mul(shared, shared))).backward()
            results.append((out.values, [t.grad for t in wrt], rng.random(4)))
        (fused, fused_grads, fused_next), (ref, ref_grads, ref_next) = results
        np.testing.assert_array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fused_next, ref_next)  # same random stream after the call

    def test_is_one_node(self):
        _, gan, mix, shared, _ = self.build(62, (4,))
        x, residual = self.feed(mix, shared)
        out = gan(x, residual, training=True, rng=np.random.default_rng(0))
        # residual before x, so the backward walk expands x's subgraph first, as the chain does
        expected = (residual, x, gan.gate.w, gan.gate.b, gan.value.w, gan.value.b,
                    gan.ln_gamma, gan.ln_beta)
        assert len(out._parents) == len(expected)
        assert all(got is want for got, want in zip(out._parents, expected))

    def test_gradient_with_dropout(self):
        store, gan, mix, shared, probe = self.build(63, (2, 3))
        # a fresh generator per call draws the same mask, so the loss is deterministic
        err = grad_check(
            lambda: mean(ad.mul(gan(*self.feed(mix, shared), True, np.random.default_rng(64)),
                                   probe)),
            list(store.tensors().values()) + [shared],
        )
        assert err < 1e-4

    def test_zero_gate_weights_give_half(self):
        _, gan, _, residual, _ = self.build(65, (5,))
        gan.gate.w.values[:] = 0.0
        gan.gate.b.values[:] = 0.0
        x = rand_tensor(np.random.default_rng(66), 5, 4)
        pre = residual.values + 0.5 * (x.values @ gan.value.w.values + gan.value.b.values)
        centred = pre - pre.mean(axis=-1, keepdims=True)
        xhat = centred / np.sqrt(pre.var(axis=-1, keepdims=True) + 1e-5)
        expected = xhat * gan.ln_gamma.values + gan.ln_beta.values
        np.testing.assert_allclose(gan(x, residual).values, expected, atol=1e-12)


class TestLstm:
    def test_zero_weights_zero_state_give_zero_output(self):
        store = ParamStore(seed=12)
        cell = LstmCell(store, "lstm", 3, 4)
        for param in (cell.wx, cell.wh, cell.b):
            param.values[:] = 0.0
        h, c = Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4)))
        h2, _ = cell.step(Tensor(np.ones((2, 3))), h, c)
        np.testing.assert_array_equal(h2.values, 0.0)

    def test_cell_state_bound(self):
        rng = np.random.default_rng(13)
        store = ParamStore(seed=13)
        cell = LstmCell(store, "lstm", 3, 4)
        c = rand_tensor(rng, 5, 4)
        _, c2 = cell.step(rand_tensor(rng, 5, 3), rand_tensor(rng, 5, 4), c)
        assert np.all(np.abs(c2.values) <= np.abs(c.values) + 1.0 + 1e-12)

    def test_gradient_through_three_steps(self):
        rng = np.random.default_rng(14)
        store = ParamStore(seed=14)
        cell = LstmCell(store, "lstm", 2, 3)
        xs = [rand_tensor(rng, 4, 2) for _ in range(3)]

        def loss():
            h, c = Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3)))
            for x in xs:
                h, c = cell.step(x, h, c)
            return mean(h)

        err = grad_check(loss, list(store.tensors().values()) + xs)
        assert err < 1e-4


def unrolled_lstm(x, cells, lengths):
    """The reference for ``ad.lstm_sequence``: ``LstmCell.step`` chained
    step by step, handing the state from one cell to the next."""
    batch, _, n_in = x.values.shape
    n = cells[0].n_hidden
    h, c = Tensor(np.zeros((batch, n))), Tensor(np.zeros((batch, n)))
    outs = []
    t = 0
    for cell, length in zip(cells, lengths):
        for _ in range(length):
            x_t = ad.reshape(ad.narrow(x, 1, t, 1), (batch, n_in))
            h, c = cell.step(x_t, h, c)
            outs.append(ad.reshape(h, (batch, 1, n)))
            t += 1
    return ad.concat(outs, axis=1)


class TestLstmSequence:
    @staticmethod
    def build(seed, batch, lengths, n_in=3, n=4):
        rng = np.random.default_rng(seed)
        store = ParamStore(seed=seed)
        cells = [LstmCell(store, f"lstm{i}", n_in, n) for i in range(len(lengths))]
        for t in store.tensors().values():  # nonzero biases exercise the bias gradient
            t.values += rng.normal(0, 0.3, t.values.shape)
        x = rand_tensor(rng, batch, sum(lengths), n_in)
        probe = rng.normal(0, 1, (batch, sum(lengths), n))
        segments = [(cell.wx, cell.wh, cell.b, length) for cell, length in zip(cells, lengths)]
        return store, cells, x, probe, segments

    @pytest.mark.parametrize("batch,lengths", [
        (3, (5, 4)),  # encoder -> decoder handoff between two cells
        (1, (6, 3)),
        (2, (1, 1)),
        (1, (1,)),
    ])
    def test_matches_unrolled_cells(self, batch, lengths):
        store, cells, x, probe, segments = self.build(30, batch, lengths)
        wrt = list(store.tensors().values()) + [x]
        results = []
        for run in (lambda: ad.lstm_sequence(x, segments),
                    lambda: unrolled_lstm(x, cells, lengths)):
            for t in wrt:
                t.zero_grad()
            out = run()
            total(ad.mul(out, probe)).backward()
            results.append((out.values, [t.grad for t in wrt]))
        (fused, fused_grads), (ref, ref_grads) = results
        # equal to the last bit, not just close: the fused op keeps the
        # chain's order of operations, so training follows the same path
        np.testing.assert_array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(got, want)

    def test_gradient(self):
        store, _, x, probe, segments = self.build(31, 2, (4, 3))
        err = grad_check(lambda: mean(ad.mul(ad.lstm_sequence(x, segments), probe)),
                         list(store.tensors().values()) + [x])
        assert err < 1e-4

    @pytest.mark.parametrize("block,lengths", [
        (4, (7, 6)),  # T = 13 is not a multiple of the block
        (16, (5, 4)),  # T is shorter than a block
        (4, (5, 4)),  # the encoder/decoder boundary off the block grid: blocks restart there
        (32, (400, 50)),  # the paper's windows at the block size the model uses
    ])
    def test_blocked_backward_matches_the_unblocked(self, monkeypatch, block, lengths):
        monkeypatch.setattr(ad, "LSTM_BACKWARD_STEPS", block)
        store, _, x, probe, segments = self.build(33, 2, lengths)
        wrt = list(store.tensors().values()) + [x]
        results = []
        for run in (ad.lstm_sequence, unblocked_lstm_sequence):
            for t in wrt:
                t.zero_grad()
            out = run(x, segments)
            total(ad.mul(out, probe)).backward()
            results.append((out.values, [t.grad for t in wrt]))
        (blocked, blocked_grads), (ref, ref_grads) = results
        assert blocked.tobytes() == ref.tobytes()
        for got, want in zip(blocked_grads, ref_grads):
            assert got.tobytes() == want.tobytes()

    def test_lengths_must_cover_the_sequence(self):
        _, _, x, _, segments = self.build(32, 1, (2, 2))
        with pytest.raises(ValueError, match="do not sum"):
            ad.lstm_sequence(x, segments[:1])


def composed_attention(attn, query, keys_values, mask=None, training=False, rng=None):
    """The reference for ``ad.attention_weights``: ``InterpretableAttention``
    with each head's weights as a chain of per-op nodes."""
    v = attn.wv(keys_values)
    scale = 1.0 / np.sqrt(attn.d)
    weights = None
    for h in range(attn.heads):
        q = attn.wq[h](query)
        k = attn.wk[h](keys_values)
        scores = ad.mul(ad.matmul(q, swap_last(k)), scale)
        if mask is not None:
            scores = ad.add(scores, mask)
        head_weights = softmax(scores, axis=-1)
        weights = head_weights if weights is None else ad.add(weights, head_weights)
    if attn.heads > 1:
        weights = ad.mul(weights, 1.0 / attn.heads)
    context = ad.dropout(ad.matmul(weights, v), attn.dropout, rng, training)
    return attn.out(context), weights


def chain_select_combine(logits, outputs):
    """The reference for the combine in ``ad.variable_selection``: softmax,
    then per-feature narrow, mul and add nodes."""
    weights = softmax(logits, axis=-1)
    combined = None
    for i, o in enumerate(outputs):
        term = ad.mul(ad.narrow(weights, 1, i, 1), o)
        combined = term if combined is None else ad.add(combined, term)
    return combined, weights.values


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_the_composed_chain(self, heads, masked, training):
        rng = np.random.default_rng(90 + heads)
        store = ParamStore(seed=90)
        attn = InterpretableAttention(store, "attn", 4 * heads, heads=heads, dropout=0.3)
        perturb(store, rng)
        shared = rand_tensor(rng, 3, 7, 4 * heads)
        probe = rng.normal(0, 1, (3, 4, 4 * heads))
        mask = causal_mask(4, 7, offset=3) if masked else None
        wrt = list(store.tensors().values()) + [shared]
        results = []
        for run in (InterpretableAttention.__call__, composed_attention):
            for t in wrt:
                t.zero_grad()
            draws = np.random.default_rng(91)
            # queries are the last positions of the keys, as in the model, and
            # the keys feed one more op, so the order of accumulations counts
            queries = ad.narrow(shared, 1, 3, 4)
            out, weights = run(attn, queries, shared, mask, training, draws)
            ad.add(total(ad.mul(out, probe)), total(ad.mul(shared, shared))).backward()
            results.append((out.values, weights.values, [t.grad for t in wrt], draws.random(4)))
        (fused, fused_w, fused_grads, fused_next), (ref, ref_w, ref_grads, ref_next) = results
        np.testing.assert_array_equal(fused, ref)
        np.testing.assert_array_equal(fused_w, ref_w)
        for got, want in zip(fused_grads, ref_grads):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(fused_next, ref_next)

    def test_each_head_is_one_node_over_its_query_and_key(self):
        rng = np.random.default_rng(92)
        attn = InterpretableAttention(ParamStore(seed=92), "attn", 8, heads=2)
        x = rand_tensor(rng, 2, 5, 8)
        _, weights = attn(x, x)
        heads = weights._parents[0]._parents  # weights = mul(add(head 0, head 1), 1/2)
        for h, head in enumerate(heads):
            q, k = head._parents
            assert q._parents[1] is attn.wq[h].b  # q = add(matmul(x, wq), b)
            assert k._parents == (x, attn.wk[h].w)

    def test_single_head_weights_match_softmax_exactly(self):
        rng = np.random.default_rng(15)
        store = ParamStore(seed=15)
        attn = InterpretableAttention(store, "attn", 4, heads=1)
        x = rand_tensor(rng, 2, 6, 4)
        _, weights = attn(x, x)
        q = x.values @ attn.wq[0].w.values + attn.wq[0].b.values
        k = x.values @ attn.wk[0].w.values
        scores = q @ np.swapaxes(k, -1, -2) / 2.0
        expected = np.exp(scores - scores.max(-1, keepdims=True))
        expected /= expected.sum(-1, keepdims=True)
        np.testing.assert_allclose(weights.values, expected, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_causality(self, seed):
        rng = np.random.default_rng(seed)
        heads = int(rng.integers(1, 3))
        width = 4 * heads
        store = ParamStore(seed=seed)
        attn = InterpretableAttention(store, "attn", width, heads=heads)
        tq, tk = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        offset = tk - tq if tk >= tq else 0
        x = Tensor(rng.normal(0, 2, (1, tk, width)))
        q = Tensor(rng.normal(0, 2, (1, tq, width)))
        _, weights = attn(q, x, mask=causal_mask(tq, tk, offset))
        w = weights.values[0]
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        for i in range(tq):
            assert np.all(w[i, i + offset + 1 :] == 0.0)

    def test_averaged_weights_explain_output(self):
        # With the shared value projection, output == Wo(avg_weights @ V).
        rng = np.random.default_rng(16)
        store = ParamStore(seed=16)
        attn = InterpretableAttention(store, "attn", 8, heads=2)
        x = rand_tensor(rng, 3, 5, 8)
        out, weights = attn(x, x)
        v = x.values @ attn.wv.w.values + attn.wv.b.values
        rebuilt = (weights.values @ v) @ attn.out.w.values + attn.out.b.values
        np.testing.assert_allclose(out.values, rebuilt, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(17)
        store = ParamStore(seed=17)
        attn = InterpretableAttention(store, "attn", 4, heads=2)
        x = rand_tensor(rng, 2, 4, 4)
        probe = rng.normal(0, 1, (2, 4, 4))
        err = grad_check(
            lambda: mean(ad.mul(attn(x, x, mask=causal_mask(4, 4))[0], probe)),
            list(store.tensors().values()) + [x],
        )
        assert err < 1e-4


class TestQuantileLoss:
    def test_zero_residual(self):
        assert quantile_loss(5.0, 5.0, 0.5) == 0.0

    def test_median_is_half_absolute_error(self):
        assert quantile_loss(10.0, 6.0, 0.5) == pytest.approx(2.0)

    def test_pinball_overprediction(self):
        assert quantile_loss(0.0, 1.0, 0.9) == pytest.approx(0.1)

    def test_rejects_bad_quantile(self):
        for q in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                quantile_loss(1.0, 1.0, q)

    def test_tensor_pinball_matches_scalar(self):
        rng = np.random.default_rng(18)
        y = rng.normal(0, 2, 50)
        yhat = rng.normal(0, 2, 50)
        for q in (0.1, 0.5, 0.9):
            got = pinball(Tensor(y - yhat), q).values
            expected = [quantile_loss(a, b, q) for a, b in zip(y, yhat)]
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestGrnStackGradient:
    def test_two_layer_stack(self):
        rng = np.random.default_rng(19)
        store = ParamStore(seed=19)
        g1 = Grn(store, "g1", 6, 4)
        g2 = Grn(store, "g2", 4, 4)
        gate = GateAddNorm(store, "gan", 4)
        x = rand_tensor(rng, 5, 6)
        probe = rng.normal(0, 1, (5, 4))

        def loss():
            a = g1(x)
            return mean(ad.mul(gate(g2(a), a), probe))

        err = grad_check(loss, list(store.tensors().values()) + [x])
        assert err < 1e-4


class LoopAdam:
    """The reference for ``Adam``: the global gradient norm clipped at 1,
    then Adam with the published defaults (beta1 0.9, beta2 0.999, eps
    1e-8), one tensor at a time."""

    def __init__(self, store, lr):
        self.store, self.lr = store, lr
        self.t = 0
        self.m = {name: np.zeros_like(t.values) for name, t in store.tensors().items()}
        self.v = {name: np.zeros_like(t.values) for name, t in store.tensors().items()}

    def step(self):
        sq = 0.0
        for p in self.store.tensors().values():
            sq += float(np.sum(p.grad**2))
        norm = np.sqrt(sq)
        if norm > 1.0:
            for p in self.store.tensors().values():
                p.grad = p.grad * (1.0 / norm)
        self.t += 1
        bc1 = 1.0 - 0.9**self.t
        bc2 = 1.0 - 0.999**self.t
        for name, p in self.store.tensors().items():
            m, v = self.m[name], self.v[name]
            m *= 0.9
            m += (1 - 0.9) * p.grad
            v *= 0.999
            v += (1 - 0.999) * p.grad**2
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


class TestParamStoreAndAdam:
    @pytest.mark.parametrize("scale, clipped", [(1e-3, False), (1e3, True)])
    def test_flat_step_equals_the_per_tensor_loop(self, scale, clipped):
        """Gradients whose global norm stays below the clip norm at every
        step, and gradients whose norm is above it at every step."""
        rng = np.random.default_rng(51)
        x, ctx = rng.normal(0, 1, (8, 6)), rng.normal(0, 1, (8, 3))
        probe = rng.normal(0, 3 * scale, (8, 4))
        sides = []
        for opt_class in (Adam, LoopAdam):
            store = ParamStore(seed=50)
            grn = Grn(store, "grn", 6, 4)
            side = Linear(store, "side", 3, 4)
            opt = opt_class(store, lr=0.05)
            grads, norms = [], []
            for _ in range(6):
                store.zero_grad()
                total(ad.mul(ad.add(grn(Tensor(x)), side(Tensor(ctx))), probe)).backward()
                norms.append(np.sqrt(sum(np.sum(t.grad**2) for t in store.tensors().values())))
                opt.step()
                grads.append({name: t.grad for name, t in store.tensors().items()})
            sides.append((store.state_dict(), grads))
            assert all((norm > CLIP_NORM) == clipped for norm in norms)
        (state, grads), (ref_state, ref_grads) = sides
        for name in ref_state:
            np.testing.assert_array_equal(state[name], ref_state[name])
        for step, ref_step in zip(grads, ref_grads):  # the clipped gradients too
            for name, want in ref_step.items():
                np.testing.assert_array_equal(step[name], want)

    @pytest.mark.parametrize("seed", range(8))
    def test_clip_norm_is_the_per_tensor_sum(self, seed):
        """Many tensors of mixed sizes: a flat sum over all of them would
        round differently from the per-tensor sums."""
        rng = np.random.default_rng(seed)
        shapes = [tuple(rng.integers(1, 40, rng.integers(1, 3))) for _ in range(30)]
        sides = []
        for opt_class in (Adam, LoopAdam):
            store = ParamStore(seed=seed)
            params = [store.parameter(f"p{i}", shape) for i, shape in enumerate(shapes)]
            opt = opt_class(store, lr=0.01)
            draws = np.random.default_rng(seed + 100)
            for _ in range(3):
                for p in params:
                    p.grad = draws.normal(0, 1, p.values.shape)
                opt.step()
            sides.append([p.values for p in params] + [p.grad for p in params])
        for got, want in zip(*sides):
            np.testing.assert_array_equal(got, want)


    def test_duplicate_registration_rejected(self):
        store = ParamStore(seed=0)
        store.parameter("w", (2, 2))
        with pytest.raises(ValueError, match="twice"):
            store.parameter("w", (2, 2))

    def test_checkpoint_roundtrip(self):
        store = ParamStore(seed=20)
        layer = Linear(store, "lin", 3, 2)
        text = store.to_json()
        other = ParamStore(seed=99)
        loaded = Linear(other, "lin", 3, 2)
        other.load_state_dict({name: np.reshape(entry["values"], entry["shape"])
                               for name, entry in json.loads(text).items()})
        np.testing.assert_array_equal(loaded.w.values, layer.w.values)

    def test_checkpoint_version_checked(self, tmp_path):
        """The version is the checkpoint document's, once at its top: the
        weights carry none, and another version is refused before the rest."""
        store = ParamStore(seed=0)
        Linear(store, "lin", 3, 2)
        assert list(json.loads(store.to_json())) == ["lin.w", "lin.b"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 99, "params": []}))
        with pytest.raises(ValueError, match="^format_version: unsupported checkpoint format 99$"):
            tft.load_checkpoint(path)

    def test_adam_descends_quadratic(self):
        store = ParamStore(seed=21)
        w = store.parameter("w", (4,))
        opt = Adam(store, lr=0.05)
        target = np.array([1.0, -2.0, 0.5, 3.0])
        for _ in range(400):
            store.zero_grad()
            loss = total(ad.mul(sub(w, target), sub(w, target)))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.values, target, atol=1e-3)
