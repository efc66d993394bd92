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
2 r + 4) for r output values, whose output at point i is values[i]. The
network is written into its parameter vector in one pass, blocks 2 to n - 1
through one reshaped view of it, with no Python loop per block.
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
    passed in are copied, never aliased; from_params instead takes a flat
    vector as the network's own params."""

    def __init__(self, arch, weights, biases, activation: str):
        self._adopt(arch, np.empty(param_size(arch)), activation)
        if len(weights) != len(self.weights) or len(biases) != len(self.biases):
            raise ShapeError(f"arch {self.arch} has {len(self.weights)} layers")
        for view, arr in zip(self.weights + self.biases, [*weights, *biases]):
            if np.shape(arr) != view.shape:
                raise ShapeError(f"array shape {np.shape(arr)} != {view.shape} in arch {self.arch}")
            view[...] = arr

    @classmethod
    def from_params(cls, arch, params, activation: str) -> Mlp:
        """The network that owns the flat vector params: a contiguous
        float64 vector is taken as is, not copied, so the caller hands it
        over. ShapeError unless its length is param_size(arch)."""
        net = cls.__new__(cls)
        net._adopt(arch, params, activation)
        return net

    def _adopt(self, arch, params, activation: str) -> None:
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.arch = tuple(int(w) for w in arch)
        self.activation = activation
        self.params = np.ascontiguousarray(params, dtype=np.float64)
        size = param_size(self.arch)
        if self.params.shape != (size,):
            raise ShapeError(f"params shape {self.params.shape} != ({size},) for arch {self.arch}")
        self.weights, self.biases = layer_views(self.params, self.arch)

    def __reduce__(self):
        # Copies and unpickled networks own a fresh copy of params, so
        # their weights and biases are views of their own params.
        return Mlp.from_params, (self.arch, self.params, self.activation)


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
    return Mlp.from_params(net.arch, net.params.copy(), net.activation)


# Hat-bump building blocks: N(t) = A3 relu(A2 relu(A1 t + b1(a,b)) + b2) + b3
# with A1 = (-2, 2)^T, b1 = (2a, -2b), A2 = -I, b2 = (1, 1), A3 = (1, 1) and
# b3 = -1 equals 1 on [a, b], 0 outside [a - 1/2, b + 1/2], linear in between.
_A1 = np.array([[-2.0], [2.0]])
_A2 = -np.eye(2)  # its off-diagonal zeros are -0
# Paired +/- channels pass a signed value through ReLU: relu(t) - relu(-t) = t.
_P = np.array([1.0, -1.0])
# A block's first four rows read the carried t = h2 - h3: A1 t, then +-t.
_T_ROWS = np.array([[-2.0, 2.0], [2.0, -2.0], [1.0, -1.0], [-1.0, 1.0]])


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
    dirs = rng.normal(size=(1024, d))
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=1))[:, None]
    if d == 1:
        # Every direction is exactly +-1 (sqrt(x * x) == |x|), so all trials
        # tie and argmax would pick trial 0.
        dirs = dirs[:1]
    n_trials = dirs.shape[0]
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


def _write_mixing(w: np.ndarray, b: np.ndarray) -> None:
    """A block's mixing layer: A2 and b2 on the hat pair, the identity on
    the carried channels."""
    diag = np.arange(w.shape[-1])
    w[..., diag, diag] = 1.0
    w[..., :2, :2] = _A2
    b[..., :2] = 1.0


def _write_blocks(fused, fused_b, mix, mix_b, prev, lo, hi) -> None:
    """Write the zeroed layers of hat-stack blocks, one block per leading
    index. The fused layer is the previous block's output map (t, z +
    prev * hat) followed by this block's input map (A1 t + b1(lo, hi), +-t,
    +-z), so each of its rows is a signed copy of one output row; entries
    are written as a matrix product sums them, onto +0."""
    fused[..., :4, 2:4] = _T_ROWS
    fused[..., 4::2, :2] = (prev + 0.0)[..., None]
    fused[..., 5::2, :2] = (0.0 - prev)[..., None]
    z = np.arange(4, fused.shape[-1], 2)  # none when the previous is the entry block
    fused[..., z, z] = fused[..., z + 1, z + 1] = 1.0
    fused[..., z, z + 1] = fused[..., z + 1, z] = -1.0
    fused_b[..., 0] = 2.0 * lo + 0.0
    fused_b[..., 1] = 0.0 - 2.0 * hi
    fused_b[..., 4::2] = 0.0 - prev
    fused_b[..., 5::2] = prev + 0.0
    _write_mixing(mix, mix_b)


def interpolating_relu(points, values, seed: int = 0) -> Mlp:
    """The deep ReLU network of hat-bump blocks whose output at points[i]
    is values[i], exact up to rounding (see the module docstring). It is
    written into its parameter vector in one pass: the entry block, block
    1, blocks 2 to n - 1 as one stacked view, and the last output map.

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
    lo, hi = centers - 0.25, centers + 0.25
    coeffs = values[order]
    (n, d), r = y.shape, values.shape[1]
    width = 2 * r + 4
    arch = (d, 4, 4) + (width, width) * (n - 1) + (r,)
    net = Mlp.from_params(arch, np.zeros(param_size(arch)), "relu")
    w, b = net.weights, net.biases

    # The entry block projects, starts the hat stack and passes t on.
    w[0][:2] = _A1 @ v_scaled[None, :]
    w[0][2:] = np.outer(_P, v_scaled)
    b[0][:2] = 2.0 * lo[0], -2.0 * hi[0]
    _write_mixing(w[1], b[1])
    if n > 1:
        _write_blocks(w[2][None], b[2][None], w[3][None], b[3][None], coeffs[:1], lo[1:2], hi[1:2])
        # Blocks 2..n-1: each is two (width + 1) x width layers, W then b.
        blocks = net.params[param_size(arch[:5]) : -param_size(arch[-2:])]
        blocks = blocks.reshape(n - 2, 2, width + 1, width)
        _write_blocks(
            blocks[:, 0, :width], blocks[:, 0, width], blocks[:, 1, :width], blocks[:, 1, width],
            coeffs[1:-1], lo[2:], hi[2:],
        )
        z = np.arange(r)
        w[-1][z, 4 + 2 * z] = 1.0
        w[-1][z, 5 + 2 * z] = -1.0
    # The last block's output map drops the carried projection t.
    w[-1][:, :2] = coeffs[-1][:, None]
    b[-1][:] = -coeffs[-1]
    return net
