"""Autodiff code that only the tests use: ``grad_check``, reductions that
turn a block's output into a scalar for it, and the pinball loss as the
chain of per-op nodes that ``tft._batch_loss`` replaces."""
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
