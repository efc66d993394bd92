"""DeepONet assembly: trunk/branch matrices, prediction, matrix-form loss,
and the on-disk model format.

The trunk output is augmented with a constant-1 component, so a model of
width N has a trunk producing N values and a branch producing N + 1
coefficients. An optional square matrix T reparameterizes the trunk basis:
predictions become phi(y)^T T c(f).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .artifact import DTYPE, blob, is_positive_int, json_text, read_blob, read_manifest, write_artifact
from .data import OperatorDataset
from .errors import CorruptDatasetError, ShapeError
from .nn import Mlp


@dataclass
class DeepONetModel:
    trunk: Mlp
    branch: Mlp
    t_matrix: np.ndarray | None
    width: int

    def validate(self) -> None:
        n = self.width
        if self.trunk.arch[-1] != n:
            raise ShapeError(f"trunk output {self.trunk.arch[-1]} != width {n}")
        if self.branch.arch[-1] != n + 1:
            raise ShapeError(
                f"branch output {self.branch.arch[-1]} != width+1 {n + 1}"
            )
        if self.t_matrix is not None:
            if self.t_matrix.shape != (n + 1, n + 1):
                raise ShapeError(
                    f"t_matrix shape {self.t_matrix.shape} != ({n + 1}, {n + 1})"
                )
            if not np.all(np.isfinite(self.t_matrix)):
                raise ValueError("t_matrix contains NaN or Inf")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and initialization of a fresh, untrained model."""

    trunk_arch: tuple[int, ...]
    branch_arch: tuple[int, ...]
    activation: nn.Activation = "relu"
    init: nn.InitScheme = "he"

    def build(self, seed: int) -> DeepONetModel:
        """Seeded networks: the trunk drawn from seed + 1, the branch from
        seed + 2, and no T."""
        return DeepONetModel(
            trunk=nn.init_mlp(self.trunk_arch, self.activation, self.init, seed=seed + 1),
            branch=nn.init_mlp(self.branch_arch, self.activation, self.init, seed=seed + 2),
            t_matrix=None,
            width=self.trunk_arch[-1],
        )


def check_width(n_width: int, m_y: int) -> None:
    """Raise ValueError unless a width-N trunk fits m_y output sensors: the
    two-step methods and the certificate need the N + 1 basis columns of
    Phi to be independent on the sensors, so N + 1 <= m_y."""
    if n_width + 1 > m_y:
        raise ValueError(
            f"width+1 ({n_width + 1}) must not exceed the number of output sensors ({m_y})"
        )


def _phi_from_values(values: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((values.shape[0], 1)), values])


def assemble_phi(trunk: Mlp, y_sensors) -> np.ndarray:
    """Trunk value matrix: row i is (1, phi_1(y_i), ..., phi_N(y_i))."""
    return _phi_from_values(nn.forward(trunk, y_sensors))


def assemble_c(branch: Mlp, f_inputs) -> np.ndarray:
    """Coefficient matrix: column k is the branch output for input row k."""
    return nn.forward(branch, f_inputs).T


def model_basis(model: DeepONetModel, y_points) -> np.ndarray:
    """The model's frozen basis at y_points: Phi, or Phi T when the model
    has a T matrix. Predictions are this basis times the branch output."""
    phi = assemble_phi(model.trunk, y_points)
    return phi if model.t_matrix is None else phi @ model.t_matrix


def predict(model: DeepONetModel, f, y_points) -> np.ndarray:
    """Evaluate the operator network for one input at many output points."""
    f = np.ascontiguousarray(f, dtype=np.float64).ravel()
    return model_basis(model, y_points) @ nn.forward(model.branch, f[None, :])[0]


def assembled_loss(basis: np.ndarray, c: np.ndarray, u: np.ndarray) -> float:
    """Mean squared residual ||basis C - U||_F^2 / (K m_y) of an m_y x K U."""
    resid = basis @ c - u
    return float(np.sum(resid * resid)) / resid.size


def monolithic_loss(model: DeepONetModel, data: OperatorDataset) -> float:
    """Mean squared residual over the training split:
    ||Phi [T] C - U||_F^2 / (K m_y)."""
    basis = model_basis(model, data.y_sensors)
    return assembled_loss(basis, assemble_c(model.branch, data.train_f()), data.train_u())


class FitWork:
    """Buffers of fit_loss_and_grads for one trunk, K training inputs and
    m_y output sensors, made once and reused by every iteration of a
    training loop. The trunk gradient goes to trunk.grad, the trunk
    Workspace's."""

    def __init__(self, trunk: Mlp, k: int, m_y: int):
        n1 = trunk.arch[-1] + 1
        # Column 0 of phi stays 1; the trunk writes its output into the rest.
        self.phi = np.ones((m_y, n1))
        self.trunk = nn.Workspace(trunk, m_y, out=self.phi[:, 1:])
        self.resid = np.empty((m_y, k))
        self.phi_grad = np.empty((m_y, n1))
        self.trunk_upstream = np.empty((m_y, n1 - 1))
        self.c_grad = np.empty((n1, k))


def fit_loss_and_grads(
    trunk: Mlp, y_sensors: np.ndarray, c: np.ndarray, u: np.ndarray, c_grad: np.ndarray, work: FitWork
) -> float:
    """||Phi C - U||_F^2 / (m_y K) for an (N+1) x K coefficient matrix C,
    with Phi the trunk value matrix that nn.forward(trunk, y_sensors,
    work.trunk) last wrote into work.phi. The gradient in C goes to
    c_grad, the one in the trunk parameters to work.trunk.grad.

    Step 1 passes its free matrix A as C; the monolithic loss passes the
    branch output."""
    m_y, k = u.shape
    phi, resid = work.phi, work.resid
    np.matmul(phi, c, out=resid)
    resid -= u
    scale = 2.0 / (m_y * k)
    # d loss / d phi, dropping the constant column for the trunk.
    np.matmul(resid, c.T, out=work.phi_grad)
    np.multiply(work.phi_grad[:, 1:], scale, out=work.trunk_upstream)
    nn.backward(trunk, y_sensors, work.trunk_upstream, work.trunk)
    np.matmul(phi.T, resid, out=work.c_grad)
    np.multiply(work.c_grad, scale, out=c_grad)
    # The gradients are formed; the residual is squared in place for the loss.
    resid *= resid
    return float(np.sum(resid)) / (m_y * k)


class MonolithicWork:
    """Buffers of monolithic_loss_and_grads, as FitWork for the trunk plus
    the branch's; the branch gradient goes to branch.grad, the branch
    Workspace's."""

    def __init__(self, model: DeepONetModel, k: int, m_y: int):
        self.fit = FitWork(model.trunk, k, m_y)
        self.branch = nn.Workspace(model.branch, k)
        self.branch_upstream = np.empty((k, model.width + 1))


def monolithic_loss_and_grads(
    model: DeepONetModel, f_inputs: np.ndarray, u: np.ndarray, y_sensors: np.ndarray,
    work: MonolithicWork,
) -> float:
    """Loss of a model without a T matrix; its exact gradients go to
    work.fit.trunk.grad and work.branch.grad, each in the layout of the
    sub-network's params. Every intermediate is written into work."""
    if model.t_matrix is not None:
        raise ValueError("joint training applies to models without a T matrix")
    nn.forward(model.trunk, y_sensors, work.fit.trunk)
    c = nn.forward(model.branch, f_inputs, work.branch).T
    # C is the transposed branch output, so d loss / d C transposed is the
    # branch's upstream gradient.
    loss = fit_loss_and_grads(model.trunk, y_sensors, c, u, work.branch_upstream.T, work.fit)
    nn.backward(model.branch, f_inputs, work.branch_upstream, work.branch)
    return loss


MODEL_MANIFEST = "model.json"
# The schema of model.json, less the dtype tag that read_manifest adds.
# Whether the widths agree with each other is DeepONetModel.validate's check.
_ARCH = (
    lambda value: isinstance(value, list) and len(value) >= 2 and all(map(is_positive_int, value)),
    "a list of >= 2 positive ints",
)
_ACTIVATION = (lambda value: value in nn.ACTIVATIONS, f"one of {nn.ACTIVATIONS}")
_MODEL_RULES = {
    "trunk_arch": _ARCH,
    "branch_arch": _ARCH,
    "trunk_activation": _ACTIVATION,
    "branch_activation": _ACTIVATION,
    "width": (is_positive_int, "a positive int"),
    "has_t_matrix": (lambda value: isinstance(value, bool), "a bool"),
}


def _unpack_mlp(directory: Path, manifest: dict, name: str) -> Mlp:
    """The sub-network `name` (trunk or branch) of a model directory."""
    arch = tuple(manifest[f"{name}_arch"])
    flat = read_blob(directory / f"{name}.bin", (nn.param_size(arch),))
    return Mlp.from_params(arch, flat, manifest[f"{name}_activation"])


def model_files(model: DeepONetModel) -> dict:
    """The files of a model directory: model.json plus little-endian
    float64 blobs; a network's blob holds the bytes of its params."""
    model.validate()
    manifest = {
        "trunk_arch": list(model.trunk.arch),
        "branch_arch": list(model.branch.arch),
        "trunk_activation": model.trunk.activation,
        "branch_activation": model.branch.activation,
        "width": model.width,
        "has_t_matrix": model.t_matrix is not None,
        "dtype": DTYPE,
    }
    files = {
        MODEL_MANIFEST: json_text(manifest),
        "trunk.bin": blob(model.trunk.params),
        "branch.bin": blob(model.branch.params),
    }
    if model.t_matrix is not None:
        files["t_matrix.bin"] = blob(model.t_matrix)
    return files


def save_model(model: DeepONetModel, directory) -> None:
    """Write model_files into a directory that is replaced as a whole (see
    artifact.write_artifact)."""
    write_artifact(directory, MODEL_MANIFEST, model_files(model))


def load_model(directory) -> DeepONetModel:
    directory = Path(directory)
    manifest = read_manifest(directory, MODEL_MANIFEST, _MODEL_RULES)
    trunk = _unpack_mlp(directory, manifest, "trunk")
    branch = _unpack_mlp(directory, manifest, "branch")
    model = DeepONetModel(trunk, branch, None, manifest["width"])
    try:
        model.validate()
    except ShapeError as exc:
        raise CorruptDatasetError(f"model fails validation: {exc}") from exc
    # The widths agree, so T is read at the size the networks need.
    if manifest["has_t_matrix"]:
        n1 = model.width + 1
        model.t_matrix = read_blob(directory / "t_matrix.bin", (n1, n1))
    elif (directory / "t_matrix.bin").exists():
        raise CorruptDatasetError(
            f"{MODEL_MANIFEST} has_t_matrix is false but t_matrix.bin exists"
        )
    return model
