"""Differentiable building blocks: dense layers, GRN, gate-add-norm, LSTM
cell, interpretable multi-head attention, and Adam."""
from __future__ import annotations

import json
import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_FORMAT_VERSION = 1


class ParamStore:
    """Registry of named trainable tensors with seeded initialization."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self._params: dict[str, Tensor] = {}

    def parameter(self, name: str, shape: tuple[int, ...], init: str = "glorot") -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice")
        if init == "glorot":
            fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (shape[0], shape[0])
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            values = self.rng.uniform(-limit, limit, size=shape)
        elif init == "zeros":
            values = np.zeros(shape)
        elif init == "ones":
            values = np.ones(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        t = Tensor(values)
        self._params[name] = t
        return t

    def tensors(self) -> dict[str, Tensor]:
        return dict(self._params)

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    def parameter_count(self) -> int:
        return sum(t.values.size for t in self._params.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        missing = set(self._params) - set(state)
        if missing:
            raise ValueError(f"missing parameters in state dict: {sorted(missing)[:3]}...")
        unknown = set(state) - set(self._params)
        if unknown:
            raise ValueError(f"parameters the model does not have: {sorted(unknown)[:3]}...")
        for name, t in self._params.items():
            values = np.asarray(state[name], dtype=np.float64)
            if values.shape != t.values.shape:
                raise ValueError(f"parameter {name!r}: shape {values.shape} != {t.values.shape}")
            t.values = values.copy()

    def to_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "params": {
                name: {"shape": list(t.values.shape), "values": t.values.reshape(-1).tolist()}
                for name, t in self._params.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def load_dict(self, doc: dict):
        """Load ``to_dict`` output; another version, name or shape, or a
        value that is not a finite number, raises ValueError."""
        version = doc.get("format_version")
        if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {version!r}")
        try:
            state = {name: np.asarray(entry["values"]).reshape(entry["shape"])
                     for name, entry in doc["params"].items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"params need a shape and values each: {exc!r}") from exc
        for name, values in state.items():
            if values.dtype.kind not in "if" or not np.isfinite(values).all():
                raise ValueError(f"parameter {name!r}: its values must be finite numbers")
        self.load_state_dict(state)


# Adam's published defaults (Kingma & Ba, 2015), and the global gradient
# norm each step is clipped to (Pascanu, Mikolov & Bengio, 2013)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 1.0


class Adam:
    """Adam with bias correction over one flat buffer of every parameter,
    the moments ``m`` and ``v`` in store order.  Every parameter must
    have a gradient at each step; a global gradient norm above
    ``CLIP_NORM`` is scaled down to it before the update."""

    def __init__(self, store: ParamStore, lr: float):
        self.lr = lr
        self.t = 0
        self.params = list(store.tensors().values())
        sizes = [p.values.size for p in self.params]
        ends = np.cumsum(sizes)
        self.slices = [slice(end - size, end) for end, size in zip(ends, sizes)]
        self.m = np.zeros(sum(sizes))
        self.v = np.zeros(sum(sizes))

    def step(self):
        g = np.concatenate([p.grad.reshape(-1) for p in self.params])
        squares = g * g
        # one sum per tensor, added in store order, as a loop over tensors adds
        norm = np.sqrt(sum(float(squares[s].sum()) for s in self.slices))
        if norm > CLIP_NORM:
            g *= CLIP_NORM / norm
            for p, s in zip(self.params, self.slices):
                p.grad = g[s].reshape(p.values.shape)
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * g**2
        update = self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)
        for p, s in zip(self.params, self.slices):
            p.values -= update[s].reshape(p.values.shape)


class Linear:
    def __init__(self, store: ParamStore, name: str, n_in: int, n_out: int, bias: bool = True):
        self.w = store.parameter(f"{name}.w", (n_in, n_out))
        self.b = store.parameter(f"{name}.b", (n_out,), "zeros") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.matmul(x, self.w)
        return ad.add(y, self.b) if self.b is not None else y


class Grn:
    """Gated residual network.

    eta2 = ELU(W2 a + b2), eta1 = W1 eta2 + b1, and the output is
    LayerNorm(skip(a) + GLU(eta1)) with a learned skip projection when the
    input and output widths differ.  The whole network runs as one graph
    node (``autodiff.gated_residual``); the ``Linear`` members only hold
    its parameters.
    """

    def __init__(self, store: ParamStore, name: str, n_in: int, n_out: int,
                 hidden: int | None = None, dropout: float = 0.0):
        first = len(store.tensors())
        hidden = n_out if hidden is None else hidden
        self.dense_in = Linear(store, f"{name}.dense_in", n_in, hidden)
        self.dense_out = Linear(store, f"{name}.dense_out", hidden, n_out)
        self.gate = Linear(store, f"{name}.glu.gate", n_out, n_out)
        self.value = Linear(store, f"{name}.glu.value", n_out, n_out)
        self.skip = Linear(store, f"{name}.skip", n_in, n_out) if n_in != n_out else None
        self.ln_gamma = store.parameter(f"{name}.ln.gamma", (n_out,), "ones")
        self.ln_beta = store.parameter(f"{name}.ln.beta", (n_out,), "zeros")
        self.dropout = dropout
        self._parameters = tuple(store.tensors().values())[first:]

    def parameters(self) -> tuple[Tensor, ...]:
        """The tensors this network registered, in registration order."""
        return self._parameters

    def __call__(self, x: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        return ad.gated_residual(x, self, rng, training)


class GateAddNorm:
    """LayerNorm(residual + GLU(x)): the gated skip used between blocks,
    run as one graph node (``autodiff.gate_add_norm``)."""

    def __init__(self, store: ParamStore, name: str, width: int, dropout: float = 0.0):
        first = len(store.tensors())
        self.gate = Linear(store, f"{name}.glu.gate", width, width)
        self.value = Linear(store, f"{name}.glu.value", width, width)
        self.ln_gamma = store.parameter(f"{name}.ln.gamma", (width,), "ones")
        self.ln_beta = store.parameter(f"{name}.ln.beta", (width,), "zeros")
        self.dropout = dropout
        self._parameters = tuple(store.tensors().values())[first:]

    def parameters(self) -> tuple[Tensor, ...]:
        """The tensors this block registered, in registration order."""
        return self._parameters

    def __call__(self, x: Tensor, residual: Tensor,
                 training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        return ad.gate_add_norm(x, residual, self, rng, training)


class LstmCell:
    """Standard LSTM cell with input/forget/output gates and candidate state."""

    def __init__(self, store: ParamStore, name: str, n_in: int, n_hidden: int):
        self.n_hidden = n_hidden
        self.wx = store.parameter(f"{name}.wx", (n_in, 4 * n_hidden))
        self.wh = store.parameter(f"{name}.wh", (n_hidden, 4 * n_hidden))
        self.b = store.parameter(f"{name}.b", (4 * n_hidden,), "zeros")

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        gates = ad.add(ad.add(ad.matmul(x, self.wx), ad.matmul(h, self.wh)), self.b)
        n = self.n_hidden
        i = ad.sigmoid(ad.narrow(gates, -1, 0, n))
        f = ad.sigmoid(ad.narrow(gates, -1, n, n))
        g = ad.tanh(ad.narrow(gates, -1, 2 * n, n))
        o = ad.sigmoid(ad.narrow(gates, -1, 3 * n, n))
        c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
        h_next = ad.mul(o, ad.tanh(c_next))
        return h_next, c_next


def causal_mask(n_query: int, n_key: int, offset: int = 0) -> np.ndarray:
    """Additive bias: 0 where key position <= query position + offset,
    -inf elsewhere.  ``offset`` shifts query positions when queries
    start later in the sequence than the keys."""
    q = np.arange(n_query)[:, None]
    k = np.arange(n_key)[None, :]
    return np.where(k <= q + offset, 0.0, -np.inf)


class InterpretableAttention:
    """Multi-head attention with per-head query/key projections and a
    single shared value projection, so the head-averaged weights
    exactly explain the output."""

    def __init__(self, store: ParamStore, name: str, n_model: int, heads: int,
                 dropout: float = 0.0):
        if heads < 1 or n_model % heads != 0:
            raise ValueError(f"heads must divide the model width ({n_model} % {heads})")
        self.heads = heads
        self.d = n_model // heads
        self.wq = [Linear(store, f"{name}.q{h}", n_model, self.d) for h in range(heads)]
        # no key bias: a constant shift of every key moves each softmax
        # row uniformly, which the softmax cancels, so the parameter
        # would be inert
        self.wk = [Linear(store, f"{name}.k{h}", n_model, self.d, bias=False) for h in range(heads)]
        self.wv = Linear(store, f"{name}.v", n_model, self.d)
        self.out = Linear(store, f"{name}.out", self.d, n_model)
        self.dropout = dropout

    def __call__(self, query: Tensor, keys_values: Tensor, mask: np.ndarray | None = None,
                 training: bool = False, rng: np.random.Generator | None = None
                 ) -> tuple[Tensor, Tensor]:
        """query is (B, Tq, D), keys_values is (B, Tk, D); returns the
        attended output (B, Tq, D) and head-averaged weights (B, Tq, Tk)."""
        v = self.wv(keys_values)
        scale = 1.0 / np.sqrt(self.d)
        weights: Tensor | None = None
        for h in range(self.heads):
            head_weights = ad.attention_weights(self.wq[h](query), self.wk[h](keys_values),
                                                scale, mask)
            weights = head_weights if weights is None else ad.add(weights, head_weights)
        if self.heads > 1:
            weights = ad.mul(weights, 1.0 / self.heads)
        context = ad.matmul(weights, v)
        context = ad.dropout(context, self.dropout, rng, training)
        return self.out(context), weights

