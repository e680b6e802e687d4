"""Autodiff code that only the tests use: ``grad_check``, reductions that
turn a block's output into a scalar for it, the pinball loss as the
chain of per-op nodes that ``tft._batch_loss`` replaces, the ELU, softmax
and transpose nodes of the chains that ``ad.gated_residual``,
``ad.variable_selection`` and ``ad.attention_weights`` replace, and
``ad.lstm_sequence`` with its backward over the whole sequence at once."""
import functools

import numpy as np

from latscale import tft
from latscale.nn import Tensor, autodiff as ad


def sub(a, b) -> Tensor:
    av, bv = ad._values(a), ad._values(b)
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))
    out = Tensor(av - bv, parents)

    def backward(g):
        if isinstance(a, Tensor):
            ad._accumulate(a, g)
        if isinstance(b, Tensor):
            ad._accumulate(b, -g)

    out._backward = backward
    return out


def maximum(a, b) -> Tensor:
    av, bv = ad._values(a), ad._values(b)
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))
    out = Tensor(np.maximum(av, bv), parents)
    pick_a = av >= bv

    def backward(g):
        if isinstance(a, Tensor):
            ad._accumulate(a, np.where(pick_a, g, 0.0))
        if isinstance(b, Tensor):
            ad._accumulate(b, np.where(pick_a, 0.0, g))

    out._backward = backward
    return out


def total(x: Tensor) -> Tensor:
    out = Tensor(x.values.sum(), (x,))
    out._backward = lambda g: ad._accumulate(x, np.broadcast_to(g, x.values.shape))
    return out


def mean(x: Tensor) -> Tensor:
    n = x.values.size
    out = Tensor(x.values.mean(), (x,))
    out._backward = lambda g: ad._accumulate(x, np.broadcast_to(g / n, x.values.shape))
    return out


def elu(x: Tensor) -> Tensor:
    """ELU as its own node, in the form with a branch that the GRN kernel's
    branch-free ``ad._elu`` and ``ad._elu_slope`` must match to the last bit."""
    v = x.values
    positive = v > 0
    y = np.where(positive, v, np.expm1(np.minimum(v, 0.0)))  # the clamp avoids overflow
    out = Tensor(y, (x,))
    out._backward = lambda g: ad._accumulate(x, g * np.where(positive, 1.0, y + 1.0))
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    v = x.values
    m = np.max(v, axis=axis, keepdims=True)
    e = np.exp(v - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (x,))

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        ad._accumulate(x, y * (g - inner))

    out._backward = backward
    return out


def swap_last(x: Tensor) -> Tensor:
    out = Tensor(np.swapaxes(x.values, -1, -2), (x,))
    out._backward = lambda g: ad._accumulate(x, np.swapaxes(g, -1, -2))
    return out


def pinball(error: Tensor, q: float) -> Tensor:
    """Elementwise pinball loss of a residual tensor (y - yhat)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return maximum(ad.mul(error, q), ad.mul(error, q - 1.0))


def chain_batch_loss(quantiles, pred: Tensor, labels: np.ndarray) -> Tensor:
    """The reference for ``tft._batch_loss``: the mean over windows of the
    pinball loss summed over quantiles and horizon steps, as a chain of
    per-op nodes on the (B, tau, Q) quantile output ``pred``."""
    b, tau, _ = pred.values.shape
    losses = []
    for qi, q in enumerate(quantiles):
        err = sub(labels, ad.reshape(ad.narrow(pred, 2, qi, 1), (b, tau)))
        losses.append(total(pinball(err, q)))
    summed = losses[0]
    for extra in losses[1:]:
        summed = ad.add(summed, extra)
    return ad.mul(summed, 1.0 / b)


def batch_loss_node(quantiles, pred: Tensor, labels: np.ndarray) -> Tensor:
    """A scalar node holding ``tft._batch_loss``'s value, whose backward
    seeds that function's gradient into ``pred``: the loss as one node,
    for ``grad_check``."""
    value, grad = tft._batch_loss(quantiles, pred.values, labels)
    out = Tensor(value, (pred,))
    out._backward = lambda g: ad._accumulate(pred, g * grad)
    return out


def grad_check(make_loss, wrt, step=1e-5, max_coords_per_tensor=None, rng=None) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``make_loss`` must rebuild the scalar loss from the same tensor
    objects on every call (and be deterministic, so no training-mode
    dropout).  Sampling ``max_coords_per_tensor`` coordinates keeps the
    check affordable on larger models.  Returns the worst per-tensor
    relative error, where each tensor's error is measured in the
    infinity norm over the checked coordinates.
    """
    wrt = list(wrt)
    for t in wrt:
        t.zero_grad()
    loss = make_loss()
    if loss.values.size != 1:
        raise ValueError("grad_check expects a scalar loss")
    loss.backward()
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in wrt]

    worst = 0.0
    rng = rng or np.random.default_rng(0)
    for t, a in zip(wrt, analytic):
        flat = t.values.reshape(-1)
        n = flat.size
        if max_coords_per_tensor is not None and n > max_coords_per_tensor:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        else:
            coords = np.arange(n)
        fd = np.empty(len(coords))
        for out_idx, i in enumerate(coords):
            original = flat[i]
            flat[i] = original + step
            f_plus = float(make_loss().values)
            flat[i] = original - step
            f_minus = float(make_loss().values)
            flat[i] = original
            fd[out_idx] = (f_plus - f_minus) / (2.0 * step)
        a_sel = a.reshape(-1)[coords]
        scale = max(np.max(np.abs(a_sel), initial=0.0), np.max(np.abs(fd), initial=0.0), 1e-12)
        worst = max(worst, float(np.max(np.abs(a_sel - fd), initial=0.0)) / scale)
    return worst


def unblocked_lstm_sequence(x: Tensor, segments) -> Tensor:
    """The reference for ``ad.lstm_sequence``'s blocked backward: the same
    node with every backward work array spanning the whole sequence, and
    each weight gradient summed from one (steps, ...) array of per-step
    gradients, last step first."""
    xv = x.values
    batch, steps, _ = xv.shape
    n = segments[0][1].values.shape[0]
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], n)
    shift = np.repeat([0.5, 0.5, 0.0, 0.5], n)
    xt = xv.transpose(1, 0, 2)
    gates = np.empty((steps, batch, 4 * n))
    cs = np.zeros((steps + 1, batch, n))
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
    out = Tensor(hs[1:].transpose(1, 0, 2), (x,) + tuple(p for seg in segments for p in seg[:3]))

    def sum_backwards(per_step):
        return functools.reduce(np.add, per_step[::-1])

    def backward(g):
        g = g.transpose(1, 0, 2)
        act = gates.reshape(steps, batch, 4, n)
        i, f, cand, o = (act[:, :, k] for k in range(4))
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
        f_next = dc
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
            ad._accumulate(wx, sum_backwards(np.matmul(xt[start:stop].transpose(0, 2, 1), dz_seg)))
            ad._accumulate(wh, sum_backwards(np.matmul(hs[start:stop].transpose(0, 2, 1), dz_seg)))
            ad._accumulate(b, sum_backwards(dz_seg.sum(axis=1)))
            dx[start:stop] = dz_seg @ wx.values.T
            stop = start
        ad._accumulate(x, dx.transpose(1, 0, 2))

    out._backward = backward
    return out
