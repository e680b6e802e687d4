"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation records a closure that scatters the output gradient
back to its tensor parents; ``Tensor.backward`` walks the recorded
graph once in reverse topological order.  Double precision throughout
so finite-difference checks can be tight.
"""
from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("values", "grad", "_parents", "_backward")

    def __init__(self, values, parents: tuple["Tensor", ...] = (), backward: Callable | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = parents
        self._backward = backward

    def zero_grad(self):
        self.grad = None

    def backward(self, seed: Array | None = None):
        """Accumulate gradients into every tensor that feeds this node,
        starting from any output: ``seed`` is the gradient of the final
        objective with respect to this node's values (ones by default,
        which makes the objective the sum of those values).  A seed of
        another shape raises ValueError."""
        seed = np.ones_like(self.values) if seed is None else np.asarray(seed, dtype=np.float64)
        if seed.shape != self.values.shape:
            raise ValueError(f"seed of shape {seed.shape} for a node of shape {self.values.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = seed
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


def _accumulate(t: Tensor, grad: Array):
    """Add ``grad`` into ``t.grad`` out of place.

    Gradient arrays are shared freely between nodes (``add`` hands the
    same array to both parents), so no gradient is ever changed in place.
    """
    if grad.shape != t.values.shape:
        grad = _unbroadcast(grad, t.values.shape)
    t.grad = grad if t.grad is None else t.grad + grad


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes numpy broadcast during the forward pass."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _values(x) -> Array:
    return x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def add(a, b) -> Tensor:
    av, bv = _values(a), _values(b)
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))
    out = Tensor(av + bv, parents)

    def backward(g):
        if isinstance(a, Tensor):
            _accumulate(a, g)
        if isinstance(b, Tensor):
            _accumulate(b, g)

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    av, bv = _values(a), _values(b)
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))
    out = Tensor(av * bv, parents)

    def backward(g):
        if isinstance(a, Tensor):
            _accumulate(a, g * bv)
        if isinstance(b, Tensor):
            _accumulate(b, g * av)

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    av, bv = _values(a), _values(b)
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))
    out = Tensor(av @ bv, parents)

    def backward(g):
        if isinstance(a, Tensor):
            _accumulate(a, _matmul_grad_left(g, av, bv))
        if isinstance(b, Tensor):
            _accumulate(b, _matmul_grad_right(g, av, bv))

    out._backward = backward
    return out


def _matmul_grad_left(g: Array, av: Array, bv: Array) -> Array:
    """The gradient of ``av @ bv`` with respect to ``av``."""
    ga = g @ np.swapaxes(bv, -1, -2) if bv.ndim > 1 else np.outer(g, bv)
    return ga if ga.shape == av.shape else _reduce_leading(ga, av.shape)


def _matmul_grad_right(g: Array, av: Array, bv: Array) -> Array:
    """The gradient of ``av @ bv`` with respect to ``bv``."""
    gb = np.outer(av, g) if av.ndim == 1 else np.swapaxes(av, -1, -2) @ g
    return gb if gb.shape == bv.shape else _reduce_leading(gb, bv.shape)


def _reduce_leading(grad: Array, shape: tuple[int, ...]) -> Array:
    """Collapse broadcast batch dimensions introduced by matmul."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    return grad


def _sigmoid(v: Array) -> Array:
    return 0.5 * (1.0 + np.tanh(0.5 * v))  # the overflow-safe form


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.values)
    out = Tensor(s, (x,))
    out._backward = lambda g: _accumulate(x, g * s * (1.0 - s))
    return out


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.values)
    out = Tensor(t, (x,))
    out._backward = lambda g: _accumulate(x, g * (1.0 - t * t))
    return out


def _elu(v: Array) -> tuple[Array, Array]:
    """ELU of ``v``, and the mask ``v > 0`` that its gradient reads with it."""
    positive = v > 0
    return np.where(positive, v, np.expm1(np.minimum(v, 0.0))), positive  # clamp avoids overflow


def _elu_grad(g: Array, y: Array, positive: Array) -> Array:
    return g * np.where(positive, 1.0, y + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    v = x.values
    m = np.max(v, axis=axis, keepdims=True)
    e = np.exp(v - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (x,))

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - inner))

    out._backward = backward
    return out


def _normalize(v: Array, eps: float = 1e-5) -> tuple[Array, Array]:
    """x-hat and 1/sigma of ``v`` over its last axis."""
    # np.var's own steps, with the mean and the centring done once
    centred = v - v.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return centred * inv, inv


def _normalize_grad(g: Array, xhat: Array, inv: Array) -> Array:
    gm = g.mean(axis=-1, keepdims=True)
    gx = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - gm - xhat * gx)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    values = np.concatenate([t.values for t in tensors], axis=axis)
    out = Tensor(values, tuple(tensors))
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis if axis >= 0 else g.ndim + axis] = slice(start, stop)
            _accumulate(t, g[tuple(index)])

    out._backward = backward
    return out


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * x.values.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = Tensor(x.values[index], (x,))

    def backward(g):
        full = np.zeros_like(x.values)
        full[index] = g
        _accumulate(x, full)

    out._backward = backward
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.values.reshape(shape), (x,))
    out._backward = lambda g: _accumulate(x, g.reshape(x.values.shape))
    return out


def swap_last(x: Tensor) -> Tensor:
    out = Tensor(np.swapaxes(x.values, -1, -2), (x,))
    out._backward = lambda g: _accumulate(x, np.swapaxes(g, -1, -2))
    return out


def lstm_sequence(x: Tensor, segments: Sequence[tuple[Tensor, Tensor, Tensor, int]]) -> Tensor:
    """Run an LSTM over ``x`` (B, T, n_in); return every hidden state (B, T, n).

    ``segments`` lists (wx, wh, b, length) with lengths summing to T: each
    segment runs its own weights over the next ``length`` steps, starting
    from the (h, c) state the previous segment left, and zeros at t=0.
    Gates follow ``LstmCell.step``: [input, forget, candidate, output].
    The input projection of a segment is a single matmul, and the
    recurrence and its backprop through time run over plain arrays, so the
    whole sequence is one graph node.

    Every sum and product is taken in the order a chain of
    ``LstmCell.step`` nodes takes it, and weight gradients are summed from
    the last step back, so the results match that chain to the last bit
    (given that numpy's batched matmul matches its per-step matmul, as it
    does with OpenBLAS) and training follows the same trajectory.
    """
    xv = x.values
    batch, steps, _ = xv.shape
    if sum(seg[3] for seg in segments) != steps:
        raise ValueError(f"segment lengths {[seg[3] for seg in segments]} do not sum to {steps}")
    n = segments[0][1].values.shape[0]
    # sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5 is ad.sigmoid to the last bit
    # (scaling by 0.5 is exact), so one tanh activates all four gates
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], n)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], n)
    xt = xv.transpose(1, 0, 2)  # time-major, so each step's arrays are contiguous
    gates = np.empty((steps, batch, 4 * n))  # activated
    cs = np.zeros((steps + 1, batch, n))  # cs[t + 1] is c_t, cs[0] the zero state
    hs = np.zeros((steps + 1, batch, n))
    tanh_c = np.empty((steps, batch, n))
    start = 0
    for wx, wh, b, length in segments:
        x_proj = xt[start : start + length] @ wx.values
        for t in range(start, start + length):
            act = gates[t]
            np.multiply(np.tanh((x_proj[t - start] + hs[t] @ wh.values + b.values) * scale),
                        scale, out=act)
            act += shift
            np.multiply(act[:, n : 2 * n], cs[t], out=cs[t + 1])
            cs[t + 1] += act[:, :n] * act[:, 2 * n : 3 * n]
            np.tanh(cs[t + 1], out=tanh_c[t])
            np.multiply(act[:, 3 * n :], tanh_c[t], out=hs[t + 1])
        start += length
    parents = (x,) + tuple(p for seg in segments for p in seg[:3])
    out = Tensor(hs[1:].transpose(1, 0, 2), parents)

    def backward(g):
        g = g.transpose(1, 0, 2)
        act = gates.reshape(steps, batch, 4, n)
        i, f, cand, o = (act[:, :, k] for k in range(4))
        # d z = (([dc, dc, dc, dh] * factor) * gate) * slope per gate, where
        # factor is what the gate multiplies and slope the activation's slope
        factor = np.stack([cand, cs[:-1], i, tanh_c], axis=2)
        gate = act.copy()
        gate[:, :, 2] = 1.0
        slope = 1.0 - act
        slope[:, :, 2] = 1.0 - cand * cand
        tanh_slope = 1.0 - tanh_c * tanh_c
        dz = np.empty((steps, batch, 4, n))
        dz_flat = dz.reshape(steps, batch, 4 * n)
        dx = np.empty(xt.shape)
        dh_next = np.zeros((batch, n))
        dc = np.zeros((batch, n))
        f_next = dc  # there is no step after the last, and dc is zero there
        stop = steps
        for wx, wh, b, length in reversed(segments):
            start = stop - length
            wh_t = wh.values.T
            for t in range(stop - 1, start - 1, -1):
                dh = g[t] + dh_next
                dc = dc * f_next + dh * o[t] * tanh_slope[t]
                np.multiply(dc[:, None], factor[t, :, :3], out=dz[t, :, :3])
                np.multiply(dh, factor[t, :, 3], out=dz[t, :, 3])
                dz[t] *= gate[t]
                dz[t] *= slope[t]
                dh_next = dz_flat[t] @ wh_t
                f_next = f[t]
            dz_seg = dz_flat[start:stop]
            _accumulate(wx, _sum_backwards(np.matmul(xt[start:stop].transpose(0, 2, 1), dz_seg)))
            _accumulate(wh, _sum_backwards(np.matmul(hs[start:stop].transpose(0, 2, 1), dz_seg)))
            _accumulate(b, _sum_backwards(dz_seg.sum(axis=1)))
            dx[start:stop] = dz_seg @ wx.values.T
            stop = start
        _accumulate(x, dx.transpose(1, 0, 2))

    out._backward = backward
    return out


def _sum_backwards(per_step: Array) -> Array:
    """Sum per-step gradients from the last step to the first, the order
    in which a chain of per-step nodes accumulates them."""
    return functools.reduce(np.add, per_step[::-1])


def _gate_add_norm(eta: Array, residual: Array, gate, value, gamma: Tensor, beta: Tensor,
                   p: float, rng: np.random.Generator | None, training: bool):
    """LayerNorm(residual + sigmoid(gate(eta')) * value(eta')) * gamma + beta
    over plain arrays, with eta' = dropout(eta): the gated skip that ends
    every GRN and joins the blocks.

    Returns the output and a backward function.  That function takes the
    output's gradient, accumulates into the gate, value, gamma and beta
    parameters and returns (d_residual, d_eta).  It keeps only the keep
    mask, the dropped-out eta, the gate and value activations, x-hat and
    1/sigma.
    """
    keep = _keep_mask(eta.shape, p, rng, training)
    if keep is not None:
        eta = eta * (keep / (1.0 - p))
    act = _sigmoid(eta @ gate.w.values + gate.b.values)
    val = eta @ value.w.values + value.b.values
    xhat, inv = _normalize(residual + act * val)

    def backward(g):
        _accumulate(gamma, g * xhat)
        _accumulate(beta, g)
        g_res = _normalize_grad(g * gamma.values, xhat, inv)
        g_gate = g_res * val * act * (1.0 - act)
        g_value = g_res * act
        g_eta = (_matmul_grad_left(g_gate, eta, gate.w.values)
                 + _matmul_grad_left(g_value, eta, value.w.values))
        for layer, g_layer in ((gate, g_gate), (value, g_value)):
            _accumulate(layer.w, _matmul_grad_right(g_layer, eta, layer.w.values))
            _accumulate(layer.b, g_layer)
        if keep is not None:
            g_eta = g_eta * (keep / (1.0 - p))
        return g_res, g_eta

    return xhat * gamma.values + beta.values, backward


def gate_add_norm(x: Tensor, residual: Tensor, gate, value, gamma: Tensor, beta: Tensor,
                  p: float = 0.0, rng: np.random.Generator | None = None,
                  training: bool = False) -> Tensor:
    """Run ``layers.GateAddNorm`` as one graph node: LayerNorm(residual +
    GLU(dropout(x))) * gamma + beta, to the last bit of its chain of per-op
    nodes.  At inference ``x`` gets the GLU's two terms as one sum, which
    is the chain's result when nothing else reads ``x``, as in the model.
    """
    y, tail = _gate_add_norm(x.values, residual.values, gate, value, gamma, beta, p, rng, training)
    # residual first: the stack pops parents last first, so x's subgraph is
    # expanded before the residual's, as the chain expands them
    out = Tensor(y, (residual, x, gate.w, gate.b, value.w, value.b, gamma, beta))

    def backward(g):
        g_res, g_x = tail(g)
        _accumulate(residual, g_res)
        _accumulate(x, g_x)

    out._backward = backward
    return out


def gated_residual(x: Tensor, dense_in, dense_out, gate, value, skip, gamma: Tensor, beta: Tensor,
                   p: float = 0.0, rng: np.random.Generator | None = None,
                   training: bool = False) -> Tensor:
    """Run a gated residual network (``layers.Grn``) as one graph node.

    The output is LayerNorm(skip(x) + sigmoid(gate(eta1)) * value(eta1))
    * gamma + beta with eta1 = dropout(dense_out(ELU(dense_in(x)))).
    Dense layers hold weights ``w`` and a bias ``b``; ``skip`` is None for
    the identity.  Every sum and product is taken in the order of the
    chain of per-op nodes, the dropout mask is drawn at the same point,
    and ``x`` gets the skip term before the dense_in term as that chain's
    backward order gives them, so results and training match it to the
    last bit.  Besides the tail's arrays (``_gate_add_norm``) the node
    keeps only the ELU output and its ``> 0`` mask.
    """
    xv = x.values
    hidden, positive = _elu(xv @ dense_in.w.values + dense_in.b.values)
    eta1 = hidden @ dense_out.w.values + dense_out.b.values
    residual = xv if skip is None else xv @ skip.w.values + skip.b.values
    y, tail = _gate_add_norm(eta1, residual, gate, value, gamma, beta, p, rng, training)
    layers = [dense_in, dense_out, gate, value] + ([skip] if skip is not None else [])
    out = Tensor(y, (x,) + tuple(t for layer in layers for t in (layer.w, layer.b)) + (gamma, beta))

    def backward(g):
        g_res, g_eta = tail(g)
        if skip is None:
            _accumulate(x, g_res)
        else:
            _accumulate(x, _matmul_grad_left(g_res, xv, skip.w.values))
            _accumulate(skip.w, _matmul_grad_right(g_res, xv, skip.w.values))
            _accumulate(skip.b, g_res)
        _accumulate(dense_out.w, _matmul_grad_right(g_eta, hidden, dense_out.w.values))
        _accumulate(dense_out.b, g_eta)
        g_pre = _elu_grad(_matmul_grad_left(g_eta, hidden, dense_out.w.values), hidden, positive)
        _accumulate(x, _matmul_grad_left(g_pre, xv, dense_in.w.values))
        _accumulate(dense_in.w, _matmul_grad_right(g_pre, xv, dense_in.w.values))
        _accumulate(dense_in.b, g_pre)

    out._backward = backward
    return out


def _keep_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator | None,
               training: bool) -> Array | None:
    """Dropout's keep mask, or None where dropout is the identity."""
    if not training or p <= 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs a random generator")
    return rng.random(shape) >= p  # the graph keeps 1 byte per element


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout: identity at inference, mean-preserving at training."""
    keep = _keep_mask(x.values.shape, p, rng, training)
    if keep is None:
        return x
    out = Tensor(x.values * (keep / (1.0 - p)), (x,))
    out._backward = lambda g: _accumulate(x, g * (keep / (1.0 - p)))
    return out

