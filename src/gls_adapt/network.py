"""Small dense networks with hand-written backpropagation and momentum SGD.

Three nets make up a model: a feature extractor g, a softmax classifier h
on top of g, and a sigmoid discriminator d that reads either the feature
vector or the prediction/feature outer product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, ShapeMismatch

__all__ = [
    "Mlp",
    "ModelState",
    "ModelGrads",
    "init_model_state",
    "forward",
    "infer",
    "backward",
    "outer_map",
    "sgd_step",
]

SIGMOID_CLIP = 1e-12
# Rows per forward in a full-data pass. One block's temporaries are small
# enough to be reused from the heap instead of mapped fresh on every pass;
# 128, 256, 512 and 1,024 rows trained within the run-to-run noise (~15%).
BLOCK_ROWS = 256

_HEADS = ("softmax", "sigmoid", "tanh")
_MODES = ("features", "classify", "discriminate")


class Mlp:
    """Dense net: out = head(W_L(...tanh(W_0 x + b_0)...) + b_L).

    Weights are initialized uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) from
    the supplied generator, so construction order is reproducible.
    """

    def __init__(self, layer_sizes, head, rng):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigInvalid(f"bad layer sizes {sizes}: need at least 2 layers, each of size >= 1")
        if head not in _HEADS:
            raise ConfigInvalid(f"head must be one of {_HEADS}")
        self.layer_sizes = sizes
        self.head = head
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))
        # momentum SGD's per-layer (weight, bias) velocities, zero until the first step
        self.velocities = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(self.weights, self.biases)]

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray):
        """Return (output, cache). cache holds the per-layer inputs."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"input has shape {x.shape}, expected (n, {self.in_dim})")
        inputs = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = a @ w + b
            a = np.tanh(pre) if i < last else pre
            inputs.append(a)
        out = self._head(a)
        cache = {"inputs": inputs, "out": out}
        return out, cache

    def _head(self, pre: np.ndarray) -> np.ndarray:
        if self.head == "softmax":
            shifted = pre - pre.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=1, keepdims=True)
        if self.head == "sigmoid":
            out = 1.0 / (1.0 + np.exp(-pre))
            return np.clip(out, SIGMOID_CLIP, 1.0 - SIGMOID_CLIP)
        return np.tanh(pre)

    def backward(self, cache, grad_out: np.ndarray):
        """Backpropagate dL/d(output); return (per-layer grads, dL/d(input))."""
        inputs = cache["inputs"]
        out = cache["out"]
        if self.head == "softmax":
            inner = (grad_out * out).sum(axis=1, keepdims=True)
            delta = out * (grad_out - inner)
        elif self.head == "sigmoid":
            delta = grad_out * out * (1.0 - out)
        else:
            delta = grad_out * (1.0 - out * out)
        grads = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = inputs[i]
            grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - inputs[i] * inputs[i])
        return grads, delta @ self.weights[0].T


@dataclass
class ModelState:
    """Feature extractor, classifier and discriminator; each net keeps its own velocities.

    ``version`` counts updates, so :func:`backward` rejects a stale cache.
    Owned by a single training run; never shared across threads.
    """

    g: Mlp
    h: Mlp
    d: Mlp
    version: int = field(init=False, default=0)

    def __post_init__(self):
        if self.h.in_dim != self.g.out_dim:
            raise ShapeMismatch("classifier input dim must equal feature dim")
        if self.d.in_dim not in (self.g.out_dim, self.g.out_dim * self.h.out_dim):
            raise ShapeMismatch("discriminator must read z or the outer product")

    @property
    def k(self) -> int:
        return self.h.out_dim

    @property
    def feature_dim(self) -> int:
        return self.g.out_dim


@dataclass
class ModelGrads:
    """Per-net parameter gradients; None marks an untouched net."""

    g: list | None = None
    h: list | None = None
    d: list | None = None


def init_model_state(
    input_dim: int,
    k: int,
    feature_dim: int = 32,
    g_hidden=(64,),
    d_hidden=(32,),
    conditional: bool = False,
    *,
    rng,
) -> ModelState:
    """Build the default desk-scale model.

    ``conditional=True`` sizes the discriminator for the k*z outer-product
    input instead of the plain z input.
    """
    g = Mlp([input_dim, *g_hidden, feature_dim], head="tanh", rng=rng)
    h = Mlp([feature_dim, k], head="softmax", rng=rng)
    d_in = feature_dim * k if conditional else feature_dim
    d = Mlp([d_in, *d_hidden, 1], head="sigmoid", rng=rng)
    return ModelState(g=g, h=h, d=d)


def outer_map(preds: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Row-wise flattened outer product (pred_1 * z, ..., pred_k * z)."""
    if preds.shape[0] != feats.shape[0]:
        raise ShapeMismatch("preds and feats must have the same number of rows")
    return np.einsum("nk,nz->nkz", preds, feats).reshape(preds.shape[0], -1)


def forward(state: ModelState, x: np.ndarray, mode: str):
    """Run the composed model in one of three modes.

    features     -> g(x)
    classify     -> softmax h(g(x))
    discriminate -> sigmoid d(g(x)), or sigmoid d(h(g(x)) (x) g(x)) when d
                    is sized for the outer product

    Every mode caches the features z and the predictions p = h(g(x)), so
    one pass feeds both losses of a training step. Returns (output,
    cache); the cache feeds :func:`backward`.
    """
    if mode not in _MODES:
        raise ConfigInvalid(f"unknown mode {mode!r}")
    z, cg = state.g.forward(np.asarray(x, dtype=float))
    p, ch = state.h.forward(z)
    cache = {"mode": mode, "version": state.version, "g": cg, "h": ch, "z": z, "p": p}
    if mode == "features":
        return z, cache
    if mode == "classify":
        return p, cache
    d_in = z if state.d.in_dim == state.g.out_dim else outer_map(p, z)
    dout, cache["d"] = state.d.forward(d_in)
    return dout, cache


def infer(state: ModelState, x: np.ndarray, features_out: np.ndarray) -> np.ndarray:
    """The predictions h(g(x)) for all rows of ``x``, (n, k), computed in row blocks.

    Each call of the module's ``forward`` sees at most ``BLOCK_ROWS`` rows
    and keeps no cache, so a full-data pass needs one block's memory. The
    output equals one unblocked forward bit for bit: blocks start on
    multiples of 128 rows, so BLAS tiles the rows as it would in one call,
    and no block is a single row of a longer input (numpy hands a one-row
    product to gemv, which rounds differently from gemm).

    ``features_out``, an (n, feature_dim) array, receives every block's
    features z.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    stops = [*range(BLOCK_ROWS, n, BLOCK_ROWS), n]
    if n > 1 and n % BLOCK_ROWS == 1:
        stops[-2] -= BLOCK_ROWS // 2
    out = np.empty((n, state.k))
    start = 0
    for stop in stops:
        block, cache = forward(state, x[start:stop], "classify")
        out[start:stop] = block
        features_out[start:stop] = cache["z"]
        start = stop
    return out


def backward(
    state: ModelState, cache, grad_out: np.ndarray, grad_preds=None, reversal: float = 1.0
) -> ModelGrads:
    """Backpropagate dL/d(output of forward) into parameter gradients.

    The cache must come from a forward pass against the current parameters.
    When d reads the outer product, the feature gradient includes both the
    direct path and the chain through the classifier.

    With ``grad_preds``, the classification loss's gradient in the cached
    predictions, this is a training step's backward and ``grad_out`` is
    the alignment loss's gradient: d descends the alignment loss, h
    descends the classification loss alone, and g descends the
    classification loss while ascending the alignment loss scaled by
    ``reversal`` (gradient reversal).
    """
    if cache["version"] != state.version:
        raise ConfigInvalid("forward cache predates the last parameter update")
    mode = cache["mode"]
    if mode not in _MODES:
        raise ConfigInvalid(f"unknown mode {mode!r}")
    if grad_preds is not None and mode == "classify":
        raise ConfigInvalid("grad_preds needs an alignment mode, not classify")
    grads = ModelGrads()
    dz = dp = None
    if mode == "features":
        dz = grad_out
    elif mode == "classify":
        dp = grad_out
    elif state.d.in_dim == state.g.out_dim:
        grads.d, dz = state.d.backward(cache["d"], grad_out)
    else:
        grads.d, du = state.d.backward(cache["d"], grad_out)
        du3 = du.reshape(du.shape[0], state.k, state.feature_dim)
        dp = np.einsum("nkz,nz->nk", du3, cache["z"])
        dz = np.einsum("nkz,nk->nz", du3, cache["p"])
    if dp is not None:
        grads.h, dz_chain = state.h.backward(cache["h"], dp)
        dz = dz_chain if dz is None else dz + dz_chain
    if grad_preds is not None:
        grads.h, dz_cls = state.h.backward(cache["h"], grad_preds)
        dz = dz_cls - reversal * dz
    grads.g, _ = state.g.backward(cache["g"], dz)
    return grads


def sgd_step(state: ModelState, grads: ModelGrads, lr: float, momentum: float) -> ModelState:
    """v <- momentum * v + grad;  param <- param - lr * v. Mutates in place."""
    for name in ("g", "h", "d"):
        net_grads = getattr(grads, name)
        if net_grads is None:
            continue
        net = getattr(state, name)
        if len(net_grads) != len(net.weights):
            raise ShapeMismatch(f"gradient list length mismatch for net {name}")
        for i, (gw, gb) in enumerate(net_grads):
            if gw.shape != net.weights[i].shape or gb.shape != net.biases[i].shape:
                raise ShapeMismatch(f"gradient shape mismatch for net {name} layer {i}")
            vw, vb = net.velocities[i]
            vw *= momentum
            vw += gw
            vb *= momentum
            vb += gb
            net.weights[i] -= lr * vw
            net.biases[i] -= lr * vb
    state.version += 1
    return state

