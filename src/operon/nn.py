"""Feed-forward MLPs with explicit forward/backward passes.

A network with architecture (n0, ..., nL) applies
    z1 = W1 x + b1,   zl = Wl sigma(z_{l-1}) + bl   (2 <= l <= L),
so the last layer is affine. The ReLU subgradient at exactly 0 is taken
to be 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

ACTIVATIONS = ("relu", "tanh")
INIT_SCHEMES = ("he", "xavier")


@dataclass
class Mlp:
    arch: tuple[int, ...]
    weights: list[np.ndarray]  # weights[l] has shape (n_{l+1}, n_l)
    biases: list[np.ndarray]  # biases[l] has shape (n_{l+1},)
    activation: str


@dataclass
class GradientSet:
    """Parameter gradients, shaped exactly like the owning Mlp."""

    dweights: list[np.ndarray]
    dbiases: list[np.ndarray]


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def init_mlp(arch, activation: str, scheme: str = "he", seed: int = 0) -> Mlp:
    """Seeded He (normal) or Xavier (uniform) initialization, zero biases."""
    arch = tuple(int(w) for w in arch)
    if len(arch) < 2 or any(w < 1 for w in arch):
        raise ValueError(f"architecture must list >= 2 positive widths, got {arch}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
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


def backward(net: Mlp, x, upstream, cache: list[np.ndarray]) -> GradientSet:
    """Gradients of sum_batch <upstream, output> w.r.t. all parameters.

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
    dweights: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    dbiases: list[np.ndarray] = [None] * n_layers  # type: ignore[list-item]
    delta = upstream
    for l in range(n_layers - 1, -1, -1):
        inp = x if l == 0 else cache[l - 1]
        dweights[l] = delta.T @ inp
        dbiases[l] = delta.sum(axis=0)
        if l > 0:
            deriv = inp > 0.0 if net.activation == "relu" else 1.0 - inp * inp
            delta = (delta @ net.weights[l]) * deriv
    return GradientSet(dweights=dweights, dbiases=dbiases)


def gradcheck(net: Mlp, x, epsilon: float = 1e-6) -> float:
    """Max relative disagreement between backward() and central differences
    for the scalar loss 0.5 * ||forward(x)||^2."""
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in (0, 1e-3], got {epsilon}")
    cache = _forward_cached(net, x)
    grads = backward(net, x, cache[-1], cache)

    def loss() -> float:
        y = forward(net, x)
        return 0.5 * float(np.sum(y * y))

    worst = 0.0
    for arrays, danalytic in (
        (net.weights, grads.dweights),
        (net.biases, grads.dbiases),
    ):
        for theta, dtheta in zip(arrays, danalytic):
            flat = theta.ravel()
            dflat = dtheta.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                up = loss()
                flat[i] = orig - epsilon
                down = loss()
                flat[i] = orig
                fd = (up - down) / (2.0 * epsilon)
                rel = abs(dflat[i] - fd) / max(1.0, abs(dflat[i]))
                worst = max(worst, rel)
    return worst


def parameters(net: Mlp) -> list[np.ndarray]:
    """Flat parameter list (W1, b1, W2, b2, ...) aliasing the net's arrays."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.append(w)
        out.append(b)
    return out


def gradient_arrays(grads: GradientSet) -> list[np.ndarray]:
    """Gradient list in the same order as parameters()."""
    out = []
    for dw, db in zip(grads.dweights, grads.dbiases):
        out.append(dw)
        out.append(db)
    return out


def mlp_copy(net: Mlp) -> Mlp:
    return Mlp(
        arch=net.arch,
        weights=[w.copy() for w in net.weights],
        biases=[b.copy() for b in net.biases],
        activation=net.activation,
    )
