"""Small dense networks with hand-written backpropagation and momentum SGD.

Three nets make up a model: a feature extractor g, a softmax classifier h
on top of g, and a sigmoid discriminator d that reads either the feature
vector or the prediction/feature outer product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidModel, ParseError, ShapeMismatch, StaleCache

__all__ = [
    "Mlp",
    "ModelState",
    "ModelGrads",
    "init_model_state",
    "forward",
    "backward",
    "outer_map",
    "sgd_step",
    "add_grads",
    "scale_grads",
    "save_model",
    "load_model",
]

SIGMOID_CLIP = 1e-12

_ACTIVATIONS = ("tanh", "relu")
_HEADS = ("none", "softmax", "sigmoid", "tanh")


class Mlp:
    """Dense net: out = head(W_L(...act(W_0 x + b_0)...) + b_L).

    Weights are initialized uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) from
    the supplied generator, so construction order is reproducible.
    """

    def __init__(self, layer_sizes, activation="tanh", head="none", rng=None):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidModel(f"bad layer sizes {sizes}: need at least 2 layers, each of size >= 1")
        if activation not in _ACTIVATIONS:
            raise InvalidModel(f"activation must be one of {_ACTIVATIONS}")
        if head not in _HEADS:
            raise InvalidModel(f"head must be one of {_HEADS}")
        self.layer_sizes = sizes
        self.activation = activation
        self.head = head
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def _act(self, pre: np.ndarray) -> np.ndarray:
        if self.activation == "tanh":
            return np.tanh(pre)
        return np.maximum(pre, 0.0)

    def _act_grad(self, post: np.ndarray) -> np.ndarray:
        if self.activation == "tanh":
            return 1.0 - post * post
        return (post > 0).astype(float)

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
            a = self._act(pre) if i < last else pre
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
        if self.head == "tanh":
            return np.tanh(pre)
        return pre

    def backward(self, cache, grad_out: np.ndarray):
        """Backpropagate dL/d(output); return (per-layer grads, dL/d(input))."""
        inputs = cache["inputs"]
        out = cache["out"]
        if self.head == "softmax":
            inner = (grad_out * out).sum(axis=1, keepdims=True)
            delta = out * (grad_out - inner)
        elif self.head == "sigmoid":
            delta = grad_out * out * (1.0 - out)
        elif self.head == "tanh":
            delta = grad_out * (1.0 - out * out)
        else:
            delta = grad_out
        grads = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = inputs[i]
            grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i].T) * self._act_grad(inputs[i])
        return grads, delta @ self.weights[0].T


@dataclass
class ModelState:
    """Feature extractor, classifier and discriminator plus optimizer state.

    Owned by a single training run; never shared across threads.
    """

    g: Mlp
    h: Mlp
    d: Mlp
    velocities: dict = field(default_factory=dict)
    step_count: int = 0
    version: int = 0

    def __post_init__(self):
        if self.h.in_dim != self.g.out_dim:
            raise ShapeMismatch("classifier input dim must equal feature dim")
        if self.d.in_dim not in (self.g.out_dim, self.g.out_dim * self.h.out_dim):
            raise ShapeMismatch("discriminator must read z or the outer product")
        for name, net in (("g", self.g), ("h", self.h), ("d", self.d)):
            if name not in self.velocities:
                self.velocities[name] = [
                    (np.zeros_like(w), np.zeros_like(b))
                    for w, b in zip(net.weights, net.biases)
                ]

    @property
    def k(self) -> int:
        return self.h.out_dim

    @property
    def feature_dim(self) -> int:
        return self.g.out_dim

    @property
    def disc_mode(self) -> str:
        """The forward mode that feeds this model's discriminator, fixed by its input size."""
        return "discriminate_z" if self.d.in_dim == self.g.out_dim else "discriminate_outer"

    def net(self, name: str) -> Mlp:
        return {"g": self.g, "h": self.h, "d": self.d}[name]


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
    activation: str = "tanh",
    conditional: bool = False,
    seed: int = 0,
    rng=None,
) -> ModelState:
    """Build the default desk-scale model.

    ``conditional=True`` sizes the discriminator for the k*z outer-product
    input instead of the plain z input.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    g = Mlp([input_dim, *g_hidden, feature_dim], activation=activation, head="tanh", rng=rng)
    h = Mlp([feature_dim, k], activation=activation, head="softmax", rng=rng)
    d_in = feature_dim * k if conditional else feature_dim
    d = Mlp([d_in, *d_hidden, 1], activation=activation, head="sigmoid", rng=rng)
    return ModelState(g=g, h=h, d=d)


def outer_map(preds: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Row-wise flattened outer product (pred_1 * z, ..., pred_k * z)."""
    if preds.shape[0] != feats.shape[0]:
        raise ShapeMismatch("preds and feats must have the same number of rows")
    return np.einsum("nk,nz->nkz", preds, feats).reshape(preds.shape[0], -1)


def forward(state: ModelState, x: np.ndarray, mode: str):
    """Run the composed model in one of four modes.

    features           -> g(x)
    classify           -> softmax h(g(x))
    discriminate_z     -> sigmoid d(g(x))
    discriminate_outer -> sigmoid d(h(g(x)) (x) g(x))

    Returns (output, cache); the cache feeds :func:`backward`.
    """
    z, cg = state.g.forward(np.asarray(x, dtype=float))
    cache = {"mode": mode, "version": state.version, "g": cg, "z": z}
    if mode == "features":
        return z, cache
    if mode == "classify":
        p, ch = state.h.forward(z)
        cache.update(h=ch, p=p)
        return p, cache
    if mode == "discriminate_z":
        dout, cd = state.d.forward(z)
        cache.update(d=cd)
        return dout, cache
    if mode == "discriminate_outer":
        p, ch = state.h.forward(z)
        u = outer_map(p, z)
        dout, cd = state.d.forward(u)
        cache.update(h=ch, p=p, d=cd, u=u)
        return dout, cache
    raise InvalidModel(f"unknown mode {mode!r}")


def backward(state: ModelState, cache, grad_out: np.ndarray) -> ModelGrads:
    """Backpropagate dL/d(output of forward) into parameter gradients.

    The cache must come from a forward pass against the current parameters.
    In discriminate_outer mode the feature gradient includes both the
    direct path and the chain through the classifier.
    """
    if cache["version"] != state.version:
        raise StaleCache("forward cache predates the last parameter update")
    mode = cache["mode"]
    if mode == "features":
        g_grads, _ = state.g.backward(cache["g"], grad_out)
        return ModelGrads(g=g_grads)
    if mode == "classify":
        h_grads, dz = state.h.backward(cache["h"], grad_out)
        g_grads, _ = state.g.backward(cache["g"], dz)
        return ModelGrads(g=g_grads, h=h_grads)
    if mode == "discriminate_z":
        d_grads, dz = state.d.backward(cache["d"], grad_out)
        g_grads, _ = state.g.backward(cache["g"], dz)
        return ModelGrads(g=g_grads, d=d_grads)
    if mode == "discriminate_outer":
        d_grads, du = state.d.backward(cache["d"], grad_out)
        n = du.shape[0]
        k = state.h.out_dim
        z_dim = state.g.out_dim
        du3 = du.reshape(n, k, z_dim)
        p = cache["p"]
        z = cache["z"]
        dp = np.einsum("nkz,nz->nk", du3, z)
        dz_direct = np.einsum("nkz,nk->nz", du3, p)
        h_grads, dz_chain = state.h.backward(cache["h"], dp)
        g_grads, _ = state.g.backward(cache["g"], dz_direct + dz_chain)
        return ModelGrads(g=g_grads, h=h_grads, d=d_grads)
    raise InvalidModel(f"unknown mode {mode!r}")


def add_grads(a: list | None, b: list | None) -> list | None:
    if a is None:
        return b
    if b is None:
        return a
    return [(aw + bw, ab + bb) for (aw, ab), (bw, bb) in zip(a, b)]


def scale_grads(grads: list | None, factor: float) -> list | None:
    if grads is None:
        return None
    return [(factor * gw, factor * gb) for gw, gb in grads]


def sgd_step(state: ModelState, grads: ModelGrads, lr: float, momentum: float) -> ModelState:
    """v <- momentum * v + grad;  param <- param - lr * v. Mutates in place."""
    for name in ("g", "h", "d"):
        net_grads = getattr(grads, name)
        if net_grads is None:
            continue
        net = state.net(name)
        vel = state.velocities[name]
        if len(net_grads) != len(net.weights):
            raise ShapeMismatch(f"gradient list length mismatch for net {name}")
        for i, (gw, gb) in enumerate(net_grads):
            if gw.shape != net.weights[i].shape or gb.shape != net.biases[i].shape:
                raise ShapeMismatch(f"gradient shape mismatch for net {name} layer {i}")
            vw, vb = vel[i]
            vw *= momentum
            vw += gw
            vb *= momentum
            vb += gb
            net.weights[i] -= lr * vw
            net.biases[i] -= lr * vb
    state.step_count += 1
    state.version += 1
    return state


def save_model(state: ModelState, path) -> None:
    """Write parameters as text: one header and one value line per tensor.

    Layout per net: ``net <name> <activation> <head> <size_0> ... <size_L>``
    followed by, per layer, a row-major weight line and a bias line.
    Optimizer state is not persisted.
    """
    lines = ["gls-adapt-model 1"]
    for name in ("g", "h", "d"):
        net = state.net(name)
        sizes = " ".join(str(s) for s in net.layer_sizes)
        lines.append(f"net {name} {net.activation} {net.head} {sizes}")
        for w, b in zip(net.weights, net.biases):
            lines.append(" ".join(repr(float(v)) for v in w.ravel()))
            lines.append(" ".join(repr(float(v)) for v in b))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ModelState:
    """Inverse of :func:`save_model`."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("gls-adapt-model"):
        raise ParseError(f"{path}: line 1: not a model file")
    nets = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] != "net":
            raise ParseError(f"{path}: line {i + 1}: expected a net header")
        name, activation, head = parts[1], parts[2], parts[3]
        sizes = [int(s) for s in parts[4:]]
        net = Mlp(sizes, activation=activation, head=head, rng=np.random.default_rng(0))
        i += 1
        for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            w = np.array([float(v) for v in lines[i].split()]).reshape(fan_in, fan_out)
            b = np.array([float(v) for v in lines[i + 1].split()])
            net.weights[layer] = w
            net.biases[layer] = b
            i += 2
        nets[name] = net
    return ModelState(g=nets["g"], h=nets["h"], d=nets["d"])
