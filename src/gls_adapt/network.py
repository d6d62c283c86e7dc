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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1, keepdims=True)``, with its bits.

    Below 8 columns numpy adds a row's entries left to right, so one add per
    column gives the same sums without its slow narrow-axis reduction; from 8
    columns on it groups them differently, and the reduction stays.
    """
    if a.shape[1] >= 8:
        return a.sum(axis=1, keepdims=True)
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total[:, None]


class Mlp:
    """Dense net: out = head(W_L(...tanh(W_0 x + b_0)...) + b_L).

    All parameters live in one contiguous vector ``params``, laid out
    W_0, b_0, W_1, b_1, ... with each W row-major; ``weights`` and
    ``biases`` are tuples of views into it, so an in-place write to either
    changes ``params``. ``velocity``, the momentum SGD velocity, has the
    same layout and is zero until the first step. Weights are initialized
    uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) from the supplied generator in
    that order, so construction is reproducible.
    """

    def __init__(self, layer_sizes, head, rng):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigInvalid(f"bad layer sizes {sizes}: need at least 2 layers, each of size >= 1")
        if head not in _HEADS:
            raise ConfigInvalid(f"head must be one of {_HEADS}")
        self.layer_sizes = sizes
        self.head = head
        self.params = np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:])))
        self.weights, self.biases = self._layers(self.params)
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        self.velocity = np.zeros_like(self.params)

    def _layers(self, flat: np.ndarray) -> tuple[tuple, tuple]:
        """The per-layer (weights, biases) views of a vector laid out as ``params``."""
        weights, biases = [], []
        pos = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(flat[pos : pos + fan_out])
            pos += fan_out
        return tuple(weights), tuple(biases)

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
            a = np.tanh(pre, out=pre) if i < last else pre
            inputs.append(a)
        out = self._head(a)
        cache = {"inputs": inputs, "out": out}
        return out, cache

    def _head(self, pre: np.ndarray) -> np.ndarray:
        if self.head == "softmax":
            # the row maxima column by column: the same values as
            # pre.max(axis=1), without numpy's slow narrow-axis reduction
            top = pre[:, 0]
            for j in range(1, pre.shape[1]):
                top = np.maximum(top, pre[:, j])
            e = np.exp(pre - top[:, None])
            return e / _row_sums(e)
        if self.head == "sigmoid":
            out = 1.0 / (1.0 + np.exp(-pre))
            return np.minimum(np.maximum(out, SIGMOID_CLIP, out=out), 1.0 - SIGMOID_CLIP, out=out)
        return np.tanh(pre)

    def backward(self, cache, grad_out: np.ndarray):
        """Backpropagate dL/d(output); return (dL/d(params), dL/d(input)).

        The parameter gradient is a fresh vector laid out as ``params``.
        """
        grad = np.empty_like(self.params)
        return grad, self._backprop(cache, grad_out, grad, True)

    def _backprop(self, cache, grad_out: np.ndarray, grad: np.ndarray | None, input_grad: bool):
        """:meth:`backward` that writes dL/d(params) into ``grad`` unless it is None,
        and returns dL/d(input) only if ``input_grad``."""
        inputs = cache["inputs"]
        out = cache["out"]
        if self.head == "softmax":
            inner = _row_sums(grad_out * out)
            delta = out * (grad_out - inner)
        elif self.head == "sigmoid":
            delta = grad_out * out * (1.0 - out)
        else:
            delta = grad_out * (1.0 - out * out)
        if grad is not None:
            grad_w, grad_b = self._layers(grad)
        for i in range(len(self.weights) - 1, -1, -1):
            if grad is not None:
                np.matmul(inputs[i].T, delta, out=grad_w[i])
                np.add.reduce(delta, axis=0, out=grad_b[i])
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - inputs[i] * inputs[i])
        return delta @ self.weights[0].T if input_grad else None


@dataclass
class ModelState:
    """Feature extractor, classifier and discriminator; each net keeps its own velocity.

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
    """Per-net parameter gradients, each a vector laid out as that net's ``params``; None marks an untouched net."""

    g: np.ndarray | None = None
    h: np.ndarray | None = None
    d: np.ndarray | None = None


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


def forward(state: ModelState, x: np.ndarray, discriminate: bool = False):
    """Run the composed model; return (what an alignment loss reads, cache).

    Without ``discriminate`` that is the features z = g(x). With it, that is
    sigmoid d(z), or sigmoid d(p (x) z) when d is sized for the outer
    product, where p = softmax h(z). The cache feeds :func:`backward`. It
    always holds z and p, so one pass feeds both losses of a training step,
    and it holds d's layer inputs under "d" only when d ran.
    """
    z, cg = state.g.forward(np.asarray(x, dtype=float))
    p, ch = state.h.forward(z)
    cache = {"version": state.version, "g": cg, "h": ch, "z": z, "p": p}
    if not discriminate:
        return z, cache
    d_in = z if state.d.in_dim == state.g.out_dim else outer_map(p, z)
    dout, cache["d"] = state.d.forward(d_in)
    return dout, cache


def infer(state: ModelState, x: np.ndarray, features_out: np.ndarray) -> np.ndarray:
    """The predictions h(g(x)) for all rows of ``x``, (n, k), computed in row blocks.

    Each call of the module's ``forward`` sees at most ``BLOCK_ROWS`` rows,
    and only its z and cached p are kept, so a full-data pass needs one
    block's memory. On OpenBLAS's SkylakeX (AVX-512) kernels the output
    equals one unblocked forward bit for bit: blocks start on multiples of
    128 rows, so those kernels tile the rows as in one call, and no block
    is a single row of a longer input (numpy hands a one-row product to
    gemv, which rounds differently from gemm). Its Haswell kernels do not:
    a 257-row input, split 128 + 129, differs from one forward.

    ``features_out``, an (n, feature_dim) array, receives every block's
    features z, the forward's output.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    stops = [*range(BLOCK_ROWS, n, BLOCK_ROWS), n]
    if n > 1 and n % BLOCK_ROWS == 1:
        stops[-2] -= BLOCK_ROWS // 2
    out = np.empty((n, state.k))
    start = 0
    for stop in stops:
        z, cache = forward(state, x[start:stop])
        out[start:stop] = cache["p"]
        features_out[start:stop] = z
        start = stop
    return out


def backward(
    state: ModelState, cache, grad_out: np.ndarray | None, grad_preds=None, reversal: float = 1.0
) -> ModelGrads:
    """Backpropagate a forward's output gradients into parameter gradients.

    The cache must come from a forward pass against the current parameters.
    ``grad_out`` is the alignment loss's gradient in the forward's output:
    in d's output if the cache holds "d", else in z. When d reads the outer
    product, the feature gradient includes both the direct path and the
    chain through the classifier. ``grad_preds`` is the classification
    loss's gradient in the cached predictions p. Either may be None, but
    not both.

    With both, this is a training step's backward: d descends the alignment
    loss, h descends the classification loss alone, and g descends the
    classification loss while ascending the alignment loss scaled by
    ``reversal`` (gradient reversal).

    Each gradient in the returned :class:`ModelGrads` is a fresh vector.
    Nothing the step does not use is computed: not g's input gradient, and
    not h's gradient along the CDAN chain when ``grad_preds`` replaces it.
    """
    if cache["version"] != state.version:
        raise ConfigInvalid("forward cache predates the last parameter update")
    if grad_out is None and grad_preds is None:
        raise ConfigInvalid("backward needs grad_out, grad_preds or both")
    grads = ModelGrads()
    dz = grad_out
    if grad_out is not None and "d" in cache:
        grads.d, dz = state.d.backward(cache["d"], grad_out)
        if state.d.in_dim != state.g.out_dim:
            du3 = dz.reshape(dz.shape[0], state.k, state.feature_dim)
            # h's gradient along this chain is wanted only when the classification call below does not replace it
            grads.h = None if grad_preds is not None else np.empty_like(state.h.params)
            dz_chain = state.h._backprop(cache["h"], np.einsum("nkz,nz->nk", du3, cache["z"]), grads.h, True)
            dz = np.einsum("nkz,nk->nz", du3, cache["p"]) + dz_chain
    if grad_preds is not None:
        grads.h, dz_cls = state.h.backward(cache["h"], grad_preds)
        dz = dz_cls if dz is None else dz_cls - reversal * dz
    grads.g = np.empty_like(state.g.params)
    state.g._backprop(cache["g"], dz, grads.g, False)
    return grads


def sgd_step(state: ModelState, grads: ModelGrads, lr: float, momentum: float) -> ModelState:
    """v <- momentum * v + grad;  params <- params - lr * v, one net's vector at a time. Mutates in place."""
    for name in ("g", "h", "d"):
        grad = getattr(grads, name)
        if grad is None:
            continue
        net = getattr(state, name)
        if np.shape(grad) != net.params.shape:
            raise ShapeMismatch(f"gradient for net {name} has shape {np.shape(grad)}, expected {net.params.shape}")
        v = net.velocity
        v *= momentum
        v += grad
        net.params -= lr * v
    state.version += 1
    return state
