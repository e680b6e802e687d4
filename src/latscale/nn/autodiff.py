"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every operation records a closure that scatters the output gradient
back to its tensor parents; ``Tensor.backward`` walks the recorded
graph once in reverse topological order.  Double precision throughout
so finite-difference checks can be tight.
"""
from __future__ import annotations

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
        another shape raises ValueError.  An inner node's gradient is freed
        once passed on, so only leaves keep theirs."""
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
                node.grad = None  # spent: only leaves keep their gradients

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
        grad = _sum_columns(grad) if len(shape) == 1 else grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def row_sum(columns: Sequence[Array]) -> Array:
    """What numpy's sum over a last axis holding ``columns`` gives, to the
    last bit, for 1 to 8 columns of one shape: they are added in numpy's
    order, from its initial 0.0 (which turns -0.0 into 0.0), in turn below
    width 8 and pairwise at width 8.  The result is a new array."""
    c = columns
    if len(c) == 8:
        return 0.0 + (((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])))
    total = 0.0 + c[0]
    for column in c[1:]:
        total += column
    return total


def _sum_rows(a: Array) -> Array:
    """``a.sum(axis=-1, keepdims=True)`` to the last bit.  numpy spends a
    loop step per row; from 512 rows up to 8 wide, ``row_sum`` adds whole
    columns in numpy's order instead."""
    width = a.shape[-1]
    if width > 8 or a.size < 512 * width:
        return a.sum(axis=-1, keepdims=True)
    return row_sum([a[..., j] for j in range(width)])[..., None]


def _sum_columns(a: Array) -> Array:
    """``a`` summed over every axis but the last, to the last bit: from 128
    rows on, ``einsum`` adds rows in numpy's order, faster.  numpy sums a
    single column pairwise, so that stays with numpy."""
    width = a.shape[-1]
    if width < 2 or a.size < 128 * width or not a.flags.c_contiguous:
        return a.sum(axis=tuple(range(a.ndim - 1)))
    return np.einsum("ij->j", a.reshape(-1, width))


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
    """Sigmoid of ``v`` in place, as 0.5 * (1 + tanh(0.5 * v)): the
    overflow-safe form."""
    v *= 0.5
    np.tanh(v, out=v)
    v += 1.0
    v *= 0.5
    return v


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.values.copy())
    out = Tensor(s, (x,))
    out._backward = lambda g: _accumulate(x, g * s * (1.0 - s))
    return out


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.values)
    out = Tensor(t, (x,))
    out._backward = lambda g: _accumulate(x, g * (1.0 - t * t))
    return out


def _elu(v: Array) -> Array:
    """ELU of ``v`` in place, without a branch: max(v, 0) + expm1(min(v, 0)),
    whose clamp keeps expm1 from overflowing."""
    negative = np.minimum(v, 0.0)
    np.expm1(negative, out=negative)
    np.maximum(v, 0.0, out=v)
    v += negative
    return v


def _elu_slope(y: Array) -> Array:
    """ELU's slope, read from its output ``y``: 1 where the input was
    positive and y + 1 elsewhere."""
    slope = y + 1.0
    return np.minimum(slope, 1.0, out=slope)


def _softmax(v: Array) -> Array:
    e = np.exp(v - np.max(v, axis=-1, keepdims=True))
    return e / _sum_rows(e)


def _softmax_grad(g: Array, y: Array) -> Array:
    return y * (g - _sum_rows(g * y))


def _normalize(v: Array, eps: float = 1e-5) -> tuple[Array, Array]:
    """x-hat and 1/sigma of ``v`` over its last axis; x-hat overwrites ``v``."""
    # np.var's own steps, with the mean and the centring done once; a
    # mean is numpy's sum divided by the count
    n = v.shape[-1]
    v -= _sum_rows(v) / n
    var = _sum_rows(v * v) / n
    inv = 1.0 / np.sqrt(var + eps)
    v *= inv
    return v, inv


def _normalize_grad(g: Array, xhat: Array, inv: Array) -> Array:
    """The gradient through ``_normalize``; it overwrites ``g``."""
    n = g.shape[-1]
    gm = _sum_rows(g) / n
    gx = _sum_rows(g * xhat) / n
    g -= gm
    g -= xhat * gx
    g *= inv
    return g


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


def attention_weights(q: Tensor, k: Tensor, scale: float, mask: Array | None = None) -> Tensor:
    """One head's attention weights softmax(q @ kᵀ * scale + mask) over
    the keys as one graph node, which keeps only the weights.  Sums and
    products are taken as the chain of per-op nodes takes them, so results
    match it to the last bit."""
    kt = np.swapaxes(k.values, -1, -2)
    scores = (q.values @ kt) * scale
    if mask is not None:
        scores = scores + mask
    y = _softmax(scores)
    out = Tensor(y, (q, k))

    def backward(g):
        g_scores = _softmax_grad(g, y) * scale
        _accumulate(q, _matmul_grad_left(g_scores, q.values, kt))
        _accumulate(k, np.swapaxes(_matmul_grad_right(g_scores, q.values, kt), -1, -2))

    out._backward = backward
    return out


LSTM_BACKWARD_STEPS = 32  # steps per block of ``lstm_sequence``'s backward pass


def lstm_sequence(x: Tensor, segments: Sequence[tuple[Tensor, Tensor, Tensor, int]]) -> Tensor:
    """Run an LSTM over ``x`` (B, T, n_in); return every hidden state (B, T, n).

    ``segments`` lists (wx, wh, b, length) with lengths summing to T: each
    segment runs its own weights over the next ``length`` steps, starting
    from the (h, c) state the previous segment left, and zeros at t=0.
    Gates follow ``LstmCell.step``: [input, forget, candidate, output].
    The input projection of a segment is a single matmul, and the
    recurrence and its backprop through time run over plain arrays, so the
    whole sequence is one graph node.

    Backprop runs over blocks of ``LSTM_BACKWARD_STEPS`` steps, last block
    first, so its work arrays span one block, not the sequence.  Every sum
    and product is taken in the order a chain of ``LstmCell.step`` nodes
    takes it, and the per-step weight gradients are folded into running
    sums from the last step back, so the results match that chain to the
    last bit
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
        dx = np.empty(xt.shape)
        dh_next = np.zeros((batch, n))
        dc = np.zeros((batch, n))
        f_next = dc  # there is no step after the last, and dc is zero there
        stop = steps
        for wx, wh, b, length in reversed(segments):
            start = stop - length
            wh_t = wh.values.T
            sums = [None, None, None]  # wx, wh and b, summed from the last step back
            for hi in range(stop, start, -LSTM_BACKWARD_STEPS):
                lo = max(start, hi - LSTM_BACKWARD_STEPS)
                i, f, cand, o = (act[lo:hi, :, k] for k in range(4))
                # d z = (([dc, dc, dc, dh] * factor) * gate) * slope per gate, where
                # factor is what the gate multiplies and slope the activation's slope
                factor = np.stack([cand, cs[lo:hi], i, tanh_c[lo:hi]], axis=2)
                gate = act[lo:hi].copy()
                gate[:, :, 2] = 1.0
                slope = 1.0 - act[lo:hi]
                slope[:, :, 2] = 1.0 - cand * cand
                tanh_slope = 1.0 - tanh_c[lo:hi] * tanh_c[lo:hi]
                dz = np.empty((hi - lo, batch, 4, n))
                for t in range(hi - lo - 1, -1, -1):
                    dh = g[lo + t] + dh_next
                    dc = dc * f_next + dh * o[t] * tanh_slope[t]
                    np.multiply(dc[:, None], factor[t, :, :3], out=dz[t, :, :3])
                    np.multiply(dh, factor[t, :, 3], out=dz[t, :, 3])
                    dz[t] *= gate[t]
                    dz[t] *= slope[t]
                    dh_next = dz[t].reshape(batch, 4 * n) @ wh_t
                    f_next = f[t]
                dz = dz.reshape(hi - lo, batch, 4 * n)
                per_step = (np.matmul(xt[lo:hi].transpose(0, 2, 1), dz),
                            np.matmul(hs[lo:hi].transpose(0, 2, 1), dz), dz.sum(axis=1))
                for k, block in enumerate(per_step):
                    for step in block[::-1]:
                        if sums[k] is None:
                            sums[k] = step.copy()
                        else:
                            sums[k] += step
                dx[lo:hi] = dz @ wx.values.T
            for param, summed in zip((wx, wh, b), sums):
                _accumulate(param, summed)
            stop = start
        _accumulate(x, dx.transpose(1, 0, 2))

    out._backward = backward
    return out


def _gate_add_norm(eta: Array, residual: Array, layer, rng: np.random.Generator | None,
                   training: bool):
    """LayerNorm(residual + sigmoid(gate(eta')) * value(eta')) * gamma + beta
    over plain arrays, with eta' = dropout(eta): the gated skip that ends
    every GRN and joins the blocks, read from a ``layers.GateAddNorm`` or
    ``layers.Grn`` ``layer``: both hold its members.

    Returns the output and a backward function.  That function takes the
    output's gradient, accumulates into the gate, value, gamma and beta
    parameters and returns (d_residual, d_eta).  It keeps only the keep
    mask, the dropped-out eta, the gate and value activations, x-hat and
    1/sigma.  Neither function writes to the arrays it is given.
    """
    gate, value, gamma, beta = layer.gate, layer.value, layer.ln_gamma, layer.ln_beta
    p = layer.dropout
    keep = _keep_mask(eta.shape, p, rng, training)
    if keep is not None:
        eta = eta * (keep / (1.0 - p))
    act = eta @ gate.w.values
    act += gate.b.values
    _sigmoid(act)
    val = eta @ value.w.values
    val += value.b.values
    mixed = act * val
    mixed += residual
    xhat, inv = _normalize(mixed)

    def backward(g):
        _accumulate(gamma, g * xhat)
        _accumulate(beta, g)
        g_res = _normalize_grad(g * gamma.values, xhat, inv)
        g_gate = g_res * val
        g_gate *= act
        g_gate *= 1.0 - act
        g_value = g_res * act
        g_eta = _matmul_grad_left(g_gate, eta, gate.w.values)
        g_eta += _matmul_grad_left(g_value, eta, value.w.values)
        for dense, g_dense in ((gate, g_gate), (value, g_value)):
            _accumulate(dense.w, _matmul_grad_right(g_dense, eta, dense.w.values))
            _accumulate(dense.b, g_dense)
        if keep is not None:
            g_eta *= keep / (1.0 - p)
        return g_res, g_eta

    y = xhat * gamma.values
    y += beta.values
    return y, backward


def gate_add_norm(x: Tensor, residual: Tensor, layer, rng: np.random.Generator | None = None,
                  training: bool = False) -> Tensor:
    """Run ``layer`` (a ``layers.GateAddNorm``) as one graph node:
    LayerNorm(residual + GLU(dropout(x))) * gamma + beta, to the last bit
    of its chain of per-op nodes.  At inference ``x`` gets the GLU's two
    terms as one sum, which is the chain's result when nothing else reads
    ``x``, as in the model.
    """
    y, tail = _gate_add_norm(x.values, residual.values, layer, rng, training)
    # residual first: the stack pops parents last first, so x's subgraph is
    # expanded before the residual's, as the chain expands them
    out = Tensor(y, (residual, x) + layer.parameters())

    def backward(g):
        g_res, g_x = tail(g)
        _accumulate(residual, g_res)
        _accumulate(x, g_x)

    out._backward = backward
    return out


def _gated_residual(xv: Array, grn, rng: np.random.Generator | None, training: bool):
    """The ``layers.Grn`` ``grn`` over a plain array ``xv``: the body of
    ``gated_residual``, which documents it.

    Returns the output and a backward function.  That function takes the
    output's gradient, accumulates into every parameter and returns
    (g_res, g_pre), from which ``_grn_input_grad`` builds the gradient of
    ``xv``.  Besides the tail's arrays (``_gate_add_norm``) it keeps only
    ``xv`` and the ELU output, from which the ELU's slope is read.
    """
    dense_in, dense_out, skip = grn.dense_in, grn.dense_out, grn.skip
    hidden = xv @ dense_in.w.values
    hidden += dense_in.b.values
    _elu(hidden)
    eta1 = hidden @ dense_out.w.values
    eta1 += dense_out.b.values
    if skip is None:
        residual = xv
    else:
        residual = xv @ skip.w.values
        residual += skip.b.values
    y, tail = _gate_add_norm(eta1, residual, grn, rng, training)

    def backward(g):
        g_res, g_eta = tail(g)
        if skip is not None:
            _accumulate(skip.w, _matmul_grad_right(g_res, xv, skip.w.values))
            _accumulate(skip.b, g_res)
        _accumulate(dense_out.w, _matmul_grad_right(g_eta, hidden, dense_out.w.values))
        _accumulate(dense_out.b, g_eta)
        g_pre = _matmul_grad_left(g_eta, hidden, dense_out.w.values)
        g_pre *= _elu_slope(hidden)
        _accumulate(dense_in.w, _matmul_grad_right(g_pre, xv, dense_in.w.values))
        _accumulate(dense_in.b, g_pre)
        return g_res, g_pre

    return y, backward


def _grn_input_grad(g_res: Array, g_pre: Array, grn, cols: slice = slice(None)):
    """The two terms of the input gradient of ``grn`` over the columns
    ``cols`` of its input, in the order the chain of per-op nodes adds
    them: the skip term, then the dense_in term."""
    skip_term = g_res[..., cols] if grn.skip is None else g_res @ grn.skip.w.values[cols].T
    return skip_term, g_pre @ grn.dense_in.w.values[cols].T


def gated_residual(x: Tensor, grn, rng: np.random.Generator | None = None,
                   training: bool = False) -> Tensor:
    """Run the gated residual network ``grn`` (a ``layers.Grn``) as one graph node.

    The output is LayerNorm(skip(x) + sigmoid(gate(eta1)) * value(eta1))
    * gamma + beta with eta1 = dropout(dense_out(ELU(dense_in(x)))).
    Dense layers hold weights ``w`` and a bias ``b``; ``skip`` is None for
    the identity.  Every sum and product is taken in the order of the
    chain of per-op nodes, the dropout mask is drawn at the same point,
    and ``x`` gets the skip term before the dense_in term as that chain's
    backward order gives them, so results and training match it to the
    last bit.
    """
    y, body = _gated_residual(x.values, grn, rng, training)
    out = Tensor(y, (x,) + grn.parameters())

    def backward(g):
        for term in _grn_input_grad(*body(g), grn):
            _accumulate(x, term)

    out._backward = backward
    return out


def variable_selection(flat: Array, embeds, select, feature_grns,
                       rng: np.random.Generator | None = None,
                       training: bool = False) -> tuple[Tensor, Array]:
    """A variable-selection network as one graph node; returns the
    combined output (N, h) and the selection weights (N, F) as an array.

    Feature i of ``flat`` (N, F) is embedded by ``embeds[i]`` (weights
    ``w`` (1, h), bias ``b``) into columns [i h, (i + 1) h) of one (N, F h)
    matrix.  The selector GRN ``select`` reads the whole matrix, and its
    softmax gives the weights w; GRN ``feature_grns[i]`` reads a view of
    feature i's columns.  The output is the sum of w[:, i:i+1] times GRN
    i's output, in feature order.  GRNs are ``layers.Grn``s.

    This is the chain of per-feature ``Linear`` nodes, a concat, the GRN
    nodes and the combine, to the last bit: the dropout masks are drawn
    in the chain's order (selector first), and each embedding's gradient
    adds the selector's and its own GRN's terms in the order the chain's
    walk runs them (the last feature's selector term first, every other
    one's last).  Backward builds the selector's input gradient one
    feature block at a time.
    """
    rows, n_features = flat.shape
    width = embeds[0].w.values.shape[1]
    blocks = [slice(i * width, (i + 1) * width) for i in range(n_features)]
    embedded = np.empty((rows, n_features * width))
    for i, (embed, cols) in enumerate(zip(embeds, blocks)):
        np.add(flat[:, i : i + 1] @ embed.w.values, embed.b.values, out=embedded[:, cols])

    logits, select_backward = _gated_residual(embedded, select, rng, training)
    features = [_gated_residual(embedded[:, cols], grn, rng, training)
                for grn, cols in zip(feature_grns, blocks)]
    w = _softmax(logits)
    combined = w[:, 0:1] * features[0][0]
    for i in range(1, n_features):
        combined += w[:, i : i + 1] * features[i][0]
    params = [t for embed in embeds for t in (embed.w, embed.b)]
    params += [t for grn in (select, *feature_grns) for t in grn.parameters()]
    out = Tensor(combined, tuple(params))

    def backward(g):
        # set a column at a time: a column's sum is never -0.0, so the zeros
        # the chain's narrow nodes add to it change nothing
        g_w = np.empty(w.shape)
        for i, (y, _) in enumerate(features):
            g_w[:, i : i + 1] = _sum_rows(g * y)
        select_terms = select_backward(_softmax_grad(g_w, w))
        last = n_features - 1
        for i, (embed, grn, cols, (_, grn_backward)) in enumerate(
                zip(embeds, feature_grns, blocks, features)):
            skip_term, in_term = _grn_input_grad(*select_terms, select, cols)
            from_select = skip_term + in_term
            own = _grn_input_grad(*grn_backward(g * w[:, i : i + 1]), grn)
            if i == last:
                g_embed = from_select + own[0]
                g_embed += own[1]
            else:
                g_embed = own[0] + own[1]
                g_embed += from_select
            _accumulate(embed.w, _matmul_grad_right(g_embed, flat[:, i : i + 1], embed.w.values))
            _accumulate(embed.b, g_embed)

    out._backward = backward
    return out, w


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

