"""Small dense networks with hand-written backpropagation and momentum SGD.

Three nets make up a model: a feature extractor g, a softmax classifier h
on top of g, and a discriminator d whose linear head outputs a logit and
which reads either the feature vector or the prediction/feature outer product.

The model keeps its parameters in one vector and its momentum velocity in
another, laid out g, h, d; each net's parameters, weights and biases are
views of the first, and the velocity is the model's alone. :func:`backward`
writes all three gradients into one vector of that layout, and
:func:`sgd_step` updates the model's vectors in three in-place operations.
Every pass allocates the arrays it computes and works in place only on
those, so no input, cache or gradient it is given is ever written.
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
    "backward",
    "outer_map",
    "sgd_step",
]

_HEADS = ("softmax", "linear", "tanh")


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1, keepdims=True)``, with its bits.

    Below 8 columns numpy adds a row's entries left to right, so one add per
    column gives the same sums without its slow narrow-axis reduction; from 8
    columns on it groups them differently, and the reduction stays.
    """
    if a.shape[1] >= 8:
        return a.sum(axis=1, keepdims=True)
    total = a[:, 0].copy() if a.shape[1] == 1 else np.add(a[:, 0], a[:, 1])
    for j in range(2, a.shape[1]):
        total += a[:, j]
    return total[:, None]


class Mlp:
    """Dense net: out = head(W_L(...tanh(W_0 x + b_0)...) + b_L).

    All parameters live in one contiguous vector ``params``, laid out
    W_0, b_0, W_1, b_1, ... with each W row-major; ``weights`` and
    ``biases`` are tuples of views into it, so an in-place write to either
    changes ``params``. Weights are initialized uniform(-1/sqrt(fan_in),
    1/sqrt(fan_in)) from the supplied generator in that order, so
    construction is reproducible. A :class:`ModelState` moves ``params``
    into the model's vector.
    """

    def __init__(self, layer_sizes, head, rng):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigInvalid(f"bad layer sizes {sizes}: need at least 2 layers, each of size >= 1")
        if head not in _HEADS:
            raise ConfigInvalid(f"head must be one of {_HEADS}")
        self.layer_sizes = sizes
        self.head = head
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self._bind(np.empty(size))
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, params: np.ndarray) -> None:
        """Keep the parameters in ``params``; the layers become views of it."""
        self.params = params
        self.weights, self.biases = self._layers(params)

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
        """Return (output, cache). cache holds the L layer inputs, ``x`` first, and the output.

        Each layer works in place on the product it allocates, so ``x`` is never written.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"input has shape {x.shape}, expected (n, {self.in_dim})")
        inputs, a = [], x
        for w, b in zip(self.weights, self.biases):
            inputs.append(a)
            a = a @ w
            a += b
            if len(inputs) < len(self.weights):
                np.tanh(a, out=a)
        y = self._head(a)
        return y, {"inputs": inputs, "out": y}

    def _head(self, pre: np.ndarray) -> np.ndarray:
        if self.head == "softmax":
            # the row maxima column by column: the same values as
            # pre.max(axis=1), without numpy's slow narrow-axis reduction
            top = pre[:, 0]
            for j in range(1, pre.shape[1]):
                top = np.maximum(top, pre[:, j])
            pre -= top[:, None]
            np.exp(pre, out=pre)
            pre /= _row_sums(pre)
            return pre
        return pre if self.head == "linear" else np.tanh(pre, out=pre)

    def _backprop(self, cache, grad_out: np.ndarray, grad, input_grad: bool):
        """Backpropagate dL/d(output) through the net whose forward left ``cache``.

        dL/d(params) goes into ``grad``, per-layer (weights, biases) views as
        :meth:`_layers` gives them, unless it is None; dL/d(input) is returned
        only if ``input_grad``. Each delta and tanh derivative is an array it
        allocates, so neither ``grad_out`` nor the cache is written.
        """
        inputs = cache["inputs"]
        out = cache["out"]
        if self.head == "softmax":
            inner = _row_sums(grad_out * out)
            delta = grad_out - inner
            delta *= out
        elif self.head == "linear":
            delta = grad_out
        else:
            delta = np.square(out)
            np.subtract(1.0, delta, out=delta)
            delta *= grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            if grad is not None:
                np.matmul(inputs[i].T, delta, out=grad[0][i])
                np.add.reduce(delta, axis=0, out=grad[1][i])
            if i > 0:
                t = np.square(inputs[i])
                np.subtract(1.0, t, out=t)
                delta = delta @ self.weights[i].T
                delta *= t
        return delta @ self.weights[0].T if input_grad else None


@dataclass
class ModelState:
    """Feature extractor, classifier and discriminator, with the model's two vectors.

    ``params`` and ``velocity``, the momentum SGD velocity, zero until the
    first step, are laid out g, h, d; each net's ``params``, weights and
    biases are views of ``params``. ``version`` counts updates, so
    :func:`backward` rejects a stale cache. Owned by a single training run;
    never shared across threads.
    """

    g: Mlp
    h: Mlp
    d: Mlp
    version: int = field(init=False, default=0)
    params: np.ndarray = field(init=False, repr=False, compare=False)
    velocity: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.h.in_dim != self.g.out_dim:
            raise ShapeMismatch("classifier input dim must equal feature dim")
        if self.d.in_dim not in (self.g.out_dim, self.g.out_dim * self.h.out_dim):
            raise ShapeMismatch("discriminator must read z or the outer product")
        nets = (self.g, self.h, self.d)
        self.params = np.concatenate([net.params for net in nets])
        self.velocity = np.zeros_like(self.params)
        for net, params in zip(nets, self.split(self.params)):
            net._bind(params)

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """g's, h's and d's parts of a vector laid out as ``params``, as views."""
        a = self.g.params.size
        b = a + self.h.params.size
        return flat[:a], flat[a:b], flat[b:]

    @property
    def conditional(self) -> bool:
        """Whether d reads the prediction/feature outer product rather than z."""
        return self.d.in_dim != self.g.out_dim

    @property
    def k(self) -> int:
        return self.h.out_dim

    @property
    def feature_dim(self) -> int:
        return self.g.out_dim


class ModelGrads:
    """The three nets' parameter gradients in one vector, ``vector``, laid out as :attr:`ModelState.params`.

    ``g``, ``h`` and ``d`` are each net's part, laid out as that net's
    ``params``, and ``layers[name]`` that part's per-layer (weights, biases)
    views; all are views of ``vector``, built once here. A new one is zero.
    """

    def __init__(self, state: ModelState):
        self.vector = np.zeros_like(state.params)
        self.g, self.h, self.d = state.split(self.vector)
        self.layers = {name: getattr(state, name)._layers(getattr(self, name)) for name in ("g", "h", "d")}


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
    d = Mlp([d_in, *d_hidden, 1], head="linear", rng=rng)
    return ModelState(g=g, h=h, d=d)


def outer_map(preds: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Row-wise flattened outer product (pred_1 * z, ..., pred_k * z)."""
    if preds.shape[0] != feats.shape[0]:
        raise ShapeMismatch("preds and feats must have the same number of rows")
    return np.einsum("nk,nz->nkz", preds, feats).reshape(preds.shape[0], -1)


def forward(state: ModelState, x: np.ndarray, discriminate: bool = False):
    """Run the composed model; return (what an alignment loss reads, cache).

    Without ``discriminate`` that is the features z = g(x). With it, that is
    d's logit d(z), or d(p (x) z) when d is sized for the outer product,
    where p = softmax h(z). The cache feeds :func:`backward`. It always
    holds z and p, so one pass feeds both losses of a training step, and it
    holds d's layer inputs under "d" only when d ran. Every array the pass
    computes is its own, so the cache shares no memory with another pass's.
    """
    z, cg = state.g.forward(np.asarray(x, dtype=float))
    p, ch = state.h.forward(z)
    cache = {"version": state.version, "g": cg, "h": ch, "z": z, "p": p}
    if not discriminate:
        return z, cache
    d_in = outer_map(p, z) if state.conditional else z
    dout, cache["d"] = state.d.forward(d_in)
    return dout, cache


def backward(
    state: ModelState, cache, grad_out: np.ndarray | None, grad_preds=None, reversal: float = 1.0, out=None
) -> ModelGrads:
    """Backpropagate a forward's output gradients into parameter gradients.

    The cache must come from a forward pass against the current parameters.
    ``grad_out`` is the alignment loss's gradient in the forward's output:
    in d's logit if the cache holds "d", else in z. When d reads the outer
    product, the feature gradient includes both the direct path and the
    chain through the classifier. ``grad_preds`` is the classification
    loss's gradient in the cached predictions p. Either may be None, but
    not both.

    With both, this is a training step's backward: d descends the alignment
    loss, h descends the classification loss alone, and g descends the
    classification loss while ascending the alignment loss scaled by
    ``reversal`` (gradient reversal).

    The gradients go into ``out``, a :class:`ModelGrads` of this state, or a
    new one, which is returned; a net that gets no gradient gets zeros. The
    arrays in between are the call's own; neither gradient given nor the
    cache is written. Nothing the step does not use is computed: not g's
    input gradient, and not h's gradient along the CDAN chain when
    ``grad_preds`` replaces it.
    """
    if cache["version"] != state.version:
        raise ConfigInvalid("forward cache predates the last parameter update")
    if grad_out is None and grad_preds is None:
        raise ConfigInvalid("backward needs grad_out, grad_preds or both")
    grads = ModelGrads(state) if out is None else out
    d_ran = grad_out is not None and "d" in cache
    chain = d_ran and state.conditional
    dz = grad_out
    if d_ran:
        dz = state.d._backprop(cache["d"], grad_out, grads.layers["d"], True)
        if chain:
            du3 = dz.reshape(dz.shape[0], state.k, state.feature_dim)
            dp = np.einsum("nkz,nz->nk", du3, cache["z"])
            # h's gradient along this chain is wanted only when the classification call below does not replace it
            h_layers = grads.layers["h"] if grad_preds is None else None
            dz_chain = state.h._backprop(cache["h"], dp, h_layers, True)
            dz = np.einsum("nkz,nk->nz", du3, cache["p"])
            dz += dz_chain
    else:
        grads.d.fill(0.0)
    if grad_preds is not None:
        dz_cls = state.h._backprop(cache["h"], grad_preds, grads.layers["h"], True)
        if dz is None:
            dz = dz_cls
        else:
            dz = dz_cls - reversal * dz
    elif not chain:
        grads.h.fill(0.0)
    state.g._backprop(cache["g"], dz, grads.layers["g"], False)
    return grads


def sgd_step(state: ModelState, grads: ModelGrads, lr: float, momentum: float) -> ModelState:
    """v <- momentum * v + grad;  params <- params - lr * v, on the model's vectors. Mutates in place.

    A net whose gradient is zero still moves while its velocity decays.
    """
    if grads.vector.shape != state.params.shape:
        raise ShapeMismatch(f"gradient has shape {grads.vector.shape}, expected {state.params.shape}")
    v = state.velocity
    v *= momentum
    v += grads.vector
    state.params -= lr * v
    state.version += 1
    return state
