"""Operator-network toolkit: two-step DeepONet training with trunk-basis
orthonormalization, synthetic Darcy-flow data, and constructive zero-loss
certificates."""

from .construct import (
    SeparatingDirection,
    ZeroLossCertificate,
    build_interpolating_trunk,
    find_separating_direction,
    verify_zero_loss_pipeline,
)
from .data import (
    OperatorDataset,
    gen_example1,
    gen_example2,
    gen_example3,
    load_dataset,
    save_dataset,
    solve_poisson_fd,
    split_dataset,
    subsample_output_sensors,
)
from .deeponet import (
    DeepONetModel,
    ModelSpec,
    assemble_c,
    assemble_phi,
    load_model,
    monolithic_loss,
    predict,
    save_model,
)
from .evaluate import (
    EvalReport,
    SweepSettings,
    conditional_optimal,
    evaluate_model,
    generalization_sweep,
    relative_l2_error,
    truncate_prediction,
)
from .linalg import (
    QrFactors,
    SvdFactors,
    best_rank_k_error,
    householder_qr,
    jacobi_svd,
    least_squares,
    solve_upper_triangular,
)
from .nn import Mlp, backward, forward, gradcheck, init_mlp
from .optimize import AdamState, adam_step, step_decay
from .train import (
    TrainConfig,
    TrainReport,
    check_two_step_equivalence,
    fit_interpolating_branch,
    orthonormalize,
    train_branch_step2,
    train_monolithic,
    train_trunk_step1,
    train_two_step,
)

__version__ = "0.1.0"
