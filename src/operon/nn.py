"""Feed-forward MLPs with explicit forward/backward passes, and the
explicit deep ReLU networks that interpolate given values at given points.

A network with architecture (n0, ..., nL) applies
    z1 = W1 x + b1,   zl = Wl sigma(z_{l-1}) + bl   (2 <= l <= L),
so the last layer is affine. The ReLU subgradient at exactly 0 is taken
to be 0.

forward keeps each layer's output in a Workspace when given one, and
backward forms the gradient from them into the Workspace's grad.

interpolating_relu projects the points onto a separating direction,
rescales so the closest projected pair is exactly 2 apart, and stacks one
hat-bump block per point. Each block is a 3-layer ReLU unit carrying the
running output vector through paired relu(t) - relu(-t) channels, so
composing n blocks (the first one also performs the projection) yields a
network of exactly 2 n + 1 layers with hidden widths (4, 4, 2 r + 4, ...,
2 r + 4) for r output values, whose output at point i is values[i].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import DuplicateSensorError, ShapeError
from .linalg import check_distinct_sensors

Activation = Literal["relu", "tanh"]
InitScheme = Literal["he", "xavier"]
ACTIVATIONS = get_args(Activation)
INIT_SCHEMES = get_args(InitScheme)


def layer_views(flat: np.ndarray, arch: tuple[int, ...]):
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


def param_size(arch) -> int:
    """The length of a flat parameter vector of architecture arch."""
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
        self.params = np.empty(param_size(self.arch))
        self.weights, self.biases = layer_views(self.params, self.arch)
        if len(weights) != len(self.weights) or len(biases) != len(self.biases):
            raise ShapeError(f"arch {self.arch} has {len(self.weights)} layers")
        for view, arr in zip(self.weights + self.biases, [*weights, *biases]):
            if np.shape(arr) != view.shape:
                raise ShapeError(f"array shape {np.shape(arr)} != {view.shape} in arch {self.arch}")
            view[...] = arr

    def __reduce__(self):
        # Copies and unpickled networks are rebuilt by the constructor, so
        # their weights and biases are views of their own params.
        return Mlp, (self.arch, self.weights, self.biases, self.activation)


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


class Workspace:
    """Buffers for one network at one batch size: the activations that
    forward writes, and the deltas, derivatives and parameter gradient grad
    that backward writes. A training loop makes one per network and reuses
    it every iteration; grad is where Adam reads the network's gradient.

    out, when given, receives the network output in place of a buffer of
    its own (a strided view is fine, such as the trunk columns of Phi)."""

    def __init__(self, net: Mlp, batch: int, out=None):
        hidden = net.arch[1:-1]
        self.acts = [np.empty((batch, n)) for n in hidden]
        self.acts.append(np.empty((batch, net.arch[-1])) if out is None else out)
        self.grad = np.empty_like(net.params)
        # backward holds two deltas and one derivative at a time, so layer
        # l's views are the leading entries of delta buffer l % 2 and of the
        # one derivative buffer.
        size = batch * max(hidden, default=0)
        deltas, deriv = [np.empty(size) for _ in hidden[:2]], np.empty(size)
        self.deltas = [deltas[l % 2][: batch * n].reshape(batch, n) for l, n in enumerate(hidden)]
        self.derivs = [deriv[: batch * n].reshape(batch, n) for n in hidden]

    def check(self, net: Mlp, batch: int) -> None:
        """ShapeError unless made for net's widths at this batch size."""
        shapes = [a.shape for a in self.acts]
        if shapes != [(batch, n) for n in net.arch[1:]]:
            raise ShapeError(f"workspace {shapes} is not for arch {net.arch} at batch {batch}")


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


def forward(net: Mlp, x, work: Workspace | None = None) -> np.ndarray:
    """Batched evaluation: rows of x are samples. Given work, each layer's
    output is written into work.acts, where backward reads it, and the
    last one is returned. Given none, no activation is kept, so memory does
    not grow with depth (the interpolating networks have 2 n + 1 layers
    for n points)."""
    h = _check_input(net, x)
    if work is not None:
        work.check(net, h.shape[0])
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = np.matmul(h, w.T, out=None if work is None else work.acts[l])
        h += b
        if l < last:
            _act(h, net.activation, out=h)
    return h


def backward(net: Mlp, x, upstream, work: Workspace) -> np.ndarray:
    """Gradient of sum_batch <upstream, output> w.r.t. net.params, as one
    vector in the layout of net.params: work.grad, which is returned.

    work holds the activations of forward(net, x, work), the pass that
    produced the output; derivatives are formed from them (1 - h^2 for
    tanh, h > 0 for relu), so the network is not evaluated again. Deltas
    and derivatives go to work's buffers."""
    x = _check_input(net, x)
    upstream = np.ascontiguousarray(upstream, dtype=np.float64)
    if upstream.shape != (x.shape[0], net.arch[-1]):
        raise ShapeError(
            f"upstream shape {upstream.shape} != (batch, nL) "
            f"({x.shape[0]}, {net.arch[-1]})"
        )
    work.check(net, x.shape[0])
    dweights, dbiases = layer_views(work.grad, net.arch)
    delta = upstream
    for l in range(len(net.weights) - 1, -1, -1):
        inp = x if l == 0 else work.acts[l - 1]
        np.matmul(delta.T, inp, out=dweights[l])
        np.sum(delta, axis=0, out=dbiases[l])
        if l > 0:
            # delta <- (delta @ W_l) * sigma'(z_{l-1}); the relu mask is
            # stored as 0.0 / 1.0, the values a boolean mask multiplies by.
            deriv = work.derivs[l - 1]
            if net.activation == "relu":
                np.greater(inp, 0.0, out=deriv)
            else:
                np.multiply(inp, inp, out=deriv)
                np.subtract(1.0, deriv, out=deriv)
            delta = np.matmul(delta, net.weights[l], out=work.deltas[l - 1])
            delta *= deriv
    return work.grad


def mlp_copy(net: Mlp) -> Mlp:
    return Mlp(net.arch, net.weights, net.biases, net.activation)


# Hat-bump building blocks: N(t) = A3 relu(A2 relu(A1 t + b1(a,b)) + b2) + b3
# equals 1 on [a, b], 0 outside [a - 1/2, b + 1/2], linear in between.
_A1 = np.array([[-2.0], [2.0]])
_A2 = -np.eye(2)
_B2 = np.ones(2)
_A3 = np.array([[1.0, 1.0]])
_B3 = -1.0
# Paired +/- channels pass a signed value through ReLU: relu(t) - relu(-t) = t.
_P = np.array([1.0, -1.0])


@dataclass
class SeparatingDirection:
    """Unit direction v and scale factor such that the projected points
    scale * v.T y are pairwise at least 2 apart."""

    v: np.ndarray
    scale: float


def find_separating_direction(points, seed: int = 0) -> SeparatingDirection:
    """Search random unit directions for the one with the largest minimum
    projected gap, then rescale that gap to exactly 2."""
    y = np.ascontiguousarray(points, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"points must be n x d, got shape {y.shape}")
    check_distinct_sensors(y)
    n, d = y.shape
    if n == 1:
        v = np.zeros(d)
        v[0] = 1.0
        return SeparatingDirection(v=v, scale=1.0)

    rng = np.random.default_rng(seed)
    n_trials = 1024
    dirs = rng.normal(size=(n_trials, d))
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=1))[:, None]
    projections = y @ dirs.T  # n x n_trials
    # Sort each trial's projections within contiguous blocks of trials:
    # sorting the strided columns of projections in place gives the same
    # gaps in about twice the time.
    gaps = np.empty(n_trials)
    for start in range(0, n_trials, 64):
        trials = slice(start, start + 64)
        block = projections[:, trials].T.copy()
        block.sort(axis=1)
        gaps[trials] = np.min(block[:, 1:] - block[:, :-1], axis=1)
    best = int(np.argmax(gaps))
    if gaps[best] <= 0.0:
        raise DuplicateSensorError(
            "no sampled direction separates the points; two of them may "
            "coincide to machine precision"
        )
    return SeparatingDirection(v=dirs[best], scale=2.0 / float(gaps[best]))


def _entry_block(v_scaled: np.ndarray, a: float, b: float):
    """First block: project, start the hat stack, pass the projection on."""
    w1 = np.vstack([_A1 @ v_scaled[None, :], np.outer(_P, v_scaled)])
    b1 = np.array([2.0 * a, -2.0 * b, 0.0, 0.0])
    w2 = np.zeros((4, 4))
    w2[:2, :2] = _A2
    w2[2:, 2:] = np.eye(2)
    b2 = np.concatenate([_B2, np.zeros(2)])
    return (w1, b1), (w2, b2)


def _middle_block(r: int, a: float, b: float):
    """Inner block input map (takes (t, z) in R^{1+r}) and its mixing layer."""
    width = 2 * r + 4
    w_in = np.zeros((width, r + 1))
    w_in[:2, 0] = _A1[:, 0]
    w_in[2:4, 0] = _P
    for k in range(r):
        w_in[4 + 2 * k : 6 + 2 * k, 1 + k] = _P
    b_in = np.zeros(width)
    b_in[0] = 2.0 * a
    b_in[1] = -2.0 * b
    w_mid = np.eye(width)
    w_mid[:2, :2] = _A2
    b_mid = np.zeros(width)
    b_mid[:2] = _B2
    return (w_in, b_in), (w_mid, b_mid)


def _output_map(r: int, width: int, coeff: np.ndarray):
    """Map a block's second hidden layer to (t, z + coeff * hat).

    The entry block (width 4) carries no z channels yet, so its output is
    (t, coeff * hat) and the passthrough columns are absent."""
    w = np.zeros((r + 1, width))
    w[0, 2] = 1.0
    w[0, 3] = -1.0
    w[1:, :2] = np.outer(coeff, _A3)
    if width > 4:
        for k in range(r):
            w[1 + k, 4 + 2 * k] = 1.0
            w[1 + k, 5 + 2 * k] = -1.0
    b = np.concatenate([[0.0], _B3 * coeff])
    return w, b


def interpolating_relu(points, values, seed: int = 0) -> Mlp:
    """The deep ReLU network of hat-bump blocks whose output at points[i]
    is values[i], exact up to rounding (see the module docstring).

    points is n x d with distinct rows (DuplicateSensorError otherwise),
    values is n x r; seed drives the search for the separating direction."""
    y = np.ascontiguousarray(points, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != y.shape[0]:
        raise ShapeError(f"values shape {values.shape} != ({y.shape[0]}, r)")
    direction = find_separating_direction(y, seed=seed)
    v_scaled = direction.scale * direction.v
    projected = y @ v_scaled
    order = np.argsort(projected, kind="stable")
    # Center each hat's plateau on its point so evaluation is insensitive
    # to last-ulp differences in the projection.
    centers = projected[order]
    coeffs = values[order]
    r = values.shape[1]

    (w1, b1), (w2, b2) = _entry_block(v_scaled, centers[0] - 0.25, centers[0] + 0.25)
    weights = [w1, w2]
    biases = [b1, b2]
    out_w, out_b = _output_map(r, 4, coeffs[0])

    width = 2 * r + 4
    for j in range(1, y.shape[0]):
        (w_in, b_in), (w_mid, b_mid) = _middle_block(
            r, centers[j] - 0.25, centers[j] + 0.25
        )
        # The previous block's affine output fuses with this block's affine
        # input: no activation sits between them.
        weights += [w_in @ out_w, w_mid]
        biases += [w_in @ out_b + b_in, b_mid]
        out_w, out_b = _output_map(r, width, coeffs[j])

    # The last block's output drops the carried projection t.
    weights.append(out_w[1:])
    biases.append(out_b[1:])
    arch = tuple(w.shape[1] for w in weights) + (r,)
    return Mlp(arch=arch, weights=weights, biases=biases, activation="relu")
