"""Imports operon before any test module loads numpy, so the whole session
computes with the one BLAS thread that operon pins at import; also holds
the helpers that several test modules import."""

import operon
import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from operon.nn import Mlp, Workspace, backward, forward

# The directory that holds the operon package under test.
_SRC = str(Path(operon.__file__).resolve().parents[1])


def run_python(args, env=None, **kwargs):
    """subprocess.run of a fresh interpreter, `python *args`, that imports
    operon from the tree under test: PYTHONPATH leads with its directory.
    env, os.environ when None, is the rest of the child's environment;
    kwargs go to subprocess.run."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


# Central-difference step of gradcheck.
GRADCHECK_STEP = 1e-6


def gradcheck(net: Mlp, x) -> float:
    """Max relative disagreement between backward() and central differences
    of step GRADCHECK_STEP for the scalar loss 0.5 * ||forward(x)||^2."""
    work = Workspace(net, x.shape[0])
    grad = backward(net, x, forward(net, x, work), work)

    def loss() -> float:
        y = forward(net, x)
        return 0.5 * float(np.sum(y * y))

    worst = 0.0
    theta = net.params
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + GRADCHECK_STEP
        up = loss()
        theta[i] = orig - GRADCHECK_STEP
        down = loss()
        theta[i] = orig
        fd = (up - down) / (2.0 * GRADCHECK_STEP)
        worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(grad[i])))
    return worst


def recording_pools(monkeypatch):
    """Patches the executor so that each pool a sweep makes is listed with
    its width, start method and futures."""
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            super().__init__(max_workers, mp_context=mp_context)
            self.width, self.method, self.futures = max_workers, mp_context.get_start_method(), []
            pools.append(self)

        def submit(self, *args):
            self.futures.append(super().submit(*args))
            return self.futures[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools
