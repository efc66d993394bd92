"""Imports operon before any test module loads numpy, so the whole session
computes with the one BLAS thread that operon pins at import; also holds
the helpers that several test modules import."""

import operon
import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

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
