"""Full-batch Adam with bias correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteGradientError, ShapeError

# Adam's moment decay rates and the denominator's guard.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    # Per parameter array, two arrays of its shape that every step reuses
    # for the update's temporaries.
    scratch: list[tuple[np.ndarray, np.ndarray]]
    lr: float
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            scratch=[(np.empty_like(p), np.empty_like(p)) for p in params],
            lr=lr,
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One Adam update of the arrays in params, in place, with grads[i] the
    gradient of params[i]; state advances by one step. NaN/Inf gradients
    abort the run. The update allocates nothing: its temporaries go to
    state's scratch arrays."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads and state buffers must align")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"gradient {i} contains NaN or Inf")
        if g.shape != params[i].shape:
            raise ShapeError(f"gradient {i} shape {g.shape} != param {params[i].shape}")

    state.t += 1
    b1, b2 = BETA1, BETA2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for p, g, m, v, (step, denom) in zip(params, grads, state.m, state.v, state.scratch):
        # The operations and their order are those of
        #   m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g^2,
        #   p -= lr (m / bias1) / (sqrt(v / bias2) + eps),
        # with every temporary written into the scratch arrays.
        m *= b1
        np.multiply(g, 1.0 - b1, out=step)
        m += step
        v *= b2
        np.multiply(g, g, out=denom)
        denom *= 1.0 - b2
        v += denom
        np.divide(m, bias1, out=step)
        step *= state.lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPSILON
        step /= denom
        p -= step

