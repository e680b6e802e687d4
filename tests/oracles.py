"""Autodiff nodes that only the tests use: reductions that turn a block's
output into a scalar for ``grad_check``, and the pinball loss as the
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
