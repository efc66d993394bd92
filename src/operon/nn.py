"""Feed-forward MLPs with explicit forward/backward passes.

A network with architecture (n0, ..., nL) applies
    z1 = W1 x + b1,   zl = Wl sigma(z_{l-1}) + bl   (2 <= l <= L),
so the last layer is affine. The ReLU subgradient at exactly 0 is taken
to be 0.
"""

from __future__ import annotations

from typing import Literal, get_args

import numpy as np

from .errors import ShapeError

Activation = Literal["relu", "tanh"]
InitScheme = Literal["he", "xavier"]
ACTIVATIONS = get_args(Activation)
INIT_SCHEMES = get_args(InitScheme)


def _layer_views(flat: np.ndarray, arch: tuple[int, ...]):
    """Views (weights, biases) into a flat vector laid out as W1, b1, W2,
    b2, ... with each W row-major: the layout of params and trunk.bin."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def _param_size(arch) -> int:
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(arch[:-1], arch[1:]))


class Mlp:
    """An MLP whose parameters live in one float64 vector, params.

    weights[l] (shape (n_{l+1}, n_l)) and biases[l] (shape (n_{l+1},)) are
    views into params, so in-place edits of either show in both. The arrays
    passed in are copied, never aliased."""

    def __init__(self, arch, weights, biases, activation: str):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.arch = tuple(int(w) for w in arch)
        self.activation = activation
        self.params = np.empty(_param_size(self.arch))
        self.weights, self.biases = _layer_views(self.params, self.arch)
        if len(weights) != len(self.weights) or len(biases) != len(self.biases):
            raise ShapeError(f"arch {self.arch} has {len(self.weights)} layers")
        for view, arr in zip(self.weights + self.biases, [*weights, *biases]):
            if np.shape(arr) != view.shape:
                raise ShapeError(f"array shape {np.shape(arr)} != {view.shape} in arch {self.arch}")
            view[...] = arr


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def init_mlp(arch, activation: str, scheme: str = "he", seed: int = 0) -> Mlp:
    """Seeded He (normal) or Xavier (uniform) initialization, zero biases."""
    arch = tuple(int(w) for w in arch)
    if len(arch) < 2 or any(w < 1 for w in arch):
        raise ValueError(f"architecture must list >= 2 positive widths, got {arch}")
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        if scheme == "he":
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        else:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return Mlp(arch=arch, weights=weights, biases=biases, activation=activation)


def _check_input(net: Mlp, x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"input must be batch x n0, got shape {x.shape}")
    if x.shape[1] != net.arch[0]:
        raise ShapeError(f"input width {x.shape[1]} != n0 {net.arch[0]}")
    return x


def _forward_cached(net: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Activations h1..h_{L-1} for a batch, followed by the network output."""
    h = _check_input(net, x)
    acts = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = _act(h @ w.T + b, net.activation)
        acts.append(h)
    acts.append(h @ net.weights[-1].T + net.biases[-1])
    return acts


def forward(net: Mlp, x) -> np.ndarray:
    """Batched evaluation: rows of x are samples."""
    return _forward_cached(net, x)[-1]


def backward(net: Mlp, x, upstream, cache: list[np.ndarray]) -> np.ndarray:
    """Gradient of sum_batch <upstream, output> w.r.t. net.params, as one
    vector in the layout of net.params.

    cache is _forward_cached(net, x) from the pass that produced the
    output; derivatives are formed from its activations (1 - h^2 for
    tanh, h > 0 for relu), so the network is not evaluated again."""
    x = _check_input(net, x)
    upstream = np.ascontiguousarray(upstream, dtype=np.float64)
    n_layers = len(net.weights)
    if upstream.shape != (x.shape[0], net.arch[-1]):
        raise ShapeError(
            f"upstream shape {upstream.shape} != (batch, nL) "
            f"({x.shape[0]}, {net.arch[-1]})"
        )
    if len(cache) != n_layers:
        raise ShapeError(f"cache holds {len(cache)} arrays, expected {n_layers}")
    grad = np.empty_like(net.params)
    dweights, dbiases = _layer_views(grad, net.arch)
    delta = upstream
    for l in range(n_layers - 1, -1, -1):
        inp = x if l == 0 else cache[l - 1]
        np.matmul(delta.T, inp, out=dweights[l])
        np.sum(delta, axis=0, out=dbiases[l])
        if l > 0:
            deriv = inp > 0.0 if net.activation == "relu" else 1.0 - inp * inp
            delta = (delta @ net.weights[l]) * deriv
    return grad


def gradcheck(net: Mlp, x, epsilon: float = 1e-6) -> float:
    """Max relative disagreement between backward() and central differences
    for the scalar loss 0.5 * ||forward(x)||^2."""
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in (0, 1e-3], got {epsilon}")
    cache = _forward_cached(net, x)
    grad = backward(net, x, cache[-1], cache)

    def loss() -> float:
        y = forward(net, x)
        return 0.5 * float(np.sum(y * y))

    worst = 0.0
    theta = net.params
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + epsilon
        up = loss()
        theta[i] = orig - epsilon
        down = loss()
        theta[i] = orig
        fd = (up - down) / (2.0 * epsilon)
        worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(grad[i])))
    return worst


def mlp_copy(net: Mlp) -> Mlp:
    return Mlp(net.arch, net.weights, net.biases, net.activation)
