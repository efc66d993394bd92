"""Acceptance suite: one test per shipping criterion.

Each test prints a PASS line with the measured quantities so a run with
`pytest tests/test_acceptance.py -v -s` doubles as the verification
record. The expensive artifacts (the desk-scale forward-problem replica
and the scaling sweeps) are shared session fixtures.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import gradcheck
from operon.construct import build_interpolating_trunk, verify_zero_loss_pipeline
from operon.data import (
    OperatorDataset,
    gen_example1,
    load_dataset,
    save_dataset,
    solve_poisson_fd,
    split_dataset,
)
from operon.deeponet import (
    DeepONetModel,
    assemble_phi,
    load_model,
    monolithic_loss,
    save_model,
)
from operon.evaluate import SweepSettings, evaluate_model, generalization_sweep
from operon.linalg import best_rank_k_error, householder_qr, jacobi_svd, least_squares
from operon.nn import Workspace, forward, init_mlp, mlp_copy
from operon.train import (
    TrainConfig,
    check_two_step_equivalence,
    finish_two_step,
    fit_interpolating_branch,
    orthonormalize,
    train_monolithic,
    train_trunk_step1,
)

# ---------------------------------------------------------------------------
# Shared heavy artifacts
# ---------------------------------------------------------------------------

REPLICA_CFG = dict(lr=1e-2, schedule_factor=2.0, schedule_every=2500, seed=5)


def _replica_start():
    """The replica's data and initial trunk and branch."""
    data = split_dataset(gen_example1(np.linspace(1, 100, 200), 17), 0.9, seed=1)
    trunk = init_mlp((2, 50, 50, 50, 50), "tanh", "he", seed=11)
    branch = init_mlp((1, 64, 51), "tanh", "he", seed=12)
    return data, trunk, branch


def _train_replica_van(directory):
    """Runs in a spawned worker: trains the replica's monolithic model,
    saves it to directory and returns its report. The model travels as
    files, as `operon train` hands models on, so the criteria read van
    through load_model like any saved model."""
    data, trunk, branch = _replica_start()
    cfg = TrainConfig(method="van", iters_mono=40000, **REPLICA_CFG)
    van, report = train_monolithic(data, DeepONetModel(trunk, branch, None, 50), cfg)
    save_model(van, directory)
    return report


@pytest.fixture(scope="session")
def replica(tmp_path_factory):
    """Desk-scale forward-problem replica: K=200 constant conductivities in
    [1, 100], 17x17 grid (m_y=289), trunk (2,50,50,50,50), branch (1,64,51),
    20k trunk / 20k branch / 40k monolithic iterations. The monolithic
    model trains in a spawned worker while the two-step models train
    here; both processes compute with one BLAS thread."""
    start = time.perf_counter()
    van_dir = tmp_path_factory.mktemp("replica") / "van"
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        van_job = pool.submit(_train_replica_van, van_dir)
        data, trunk, branch = _replica_start()

        # 2st and 2st-noqr differ only after step 1, so one step 1 is
        # finished both ways; the two models share its trunk.
        cfg2 = TrainConfig(
            method="two_step", iters_trunk=20000, iters_branch=20000, **REPLICA_CFG
        )
        step1 = train_trunk_step1(data, trunk, cfg2)
        two_step, report_2st = finish_two_step(
            data, DeepONetModel(step1[0], mlp_copy(branch), None, 50), step1, cfg2
        )
        no_qr, report_noqr = finish_two_step(
            data,
            DeepONetModel(step1[0], branch, None, 50),
            step1,
            replace(cfg2, method="two_step_no_qr"),
        )
        report_van = van_job.result()
    van = load_model(van_dir)

    return {
        "data": data,
        "two_step": two_step,
        "van": van,
        "no_qr": no_qr,
        "report_2st": report_2st,
        "report_van": report_van,
        "report_noqr": report_noqr,
        "eval_2st": evaluate_model(two_step, data),
        "eval_van": evaluate_model(van, data),
        "wall_seconds": time.perf_counter() - start,
    }


def _certificate_dataset(seed):
    rng = np.random.default_rng(seed)
    m_y = int(rng.integers(9, 21))
    k = int(rng.integers(4, 9))
    return OperatorDataset(
        x_sensors=np.zeros((3, 1)),
        y_sensors=rng.uniform(-1, 1, (m_y, 2)),
        f_matrix=rng.normal(size=(k, 3)),
        u_matrix=rng.normal(size=(m_y, k)),
    )


@pytest.fixture(scope="session")
def certificate_runs():
    """Constructive pipelines on five small random datasets, at the exact
    rank (zero loss) and one below it (best low-rank error)."""
    runs = []
    for seed in range(5):
        data = _certificate_dataset(seed)
        rank = jacobi_svd(data.u_matrix).rank
        runs.append(
            {
                "seed": seed,
                "data": data,
                "rank": rank,
                "at_rank": verify_zero_loss_pipeline(data, rank, seed=seed),
                "below_rank": verify_zero_loss_pipeline(data, rank - 1, seed=seed),
            }
        )
    return runs


@pytest.fixture(scope="session")
def refit_equivalence_run():
    """A trained two-step run with exact least-squares coefficients and an
    interpolating branch, so the loss-equivalence premise holds."""
    data = split_dataset(gen_example1(np.linspace(1, 100, 24), 9), 0.75, seed=2)
    trunk = init_mlp((2, 30, 30, 8), "tanh", "he", seed=3)
    cfg = TrainConfig(iters_trunk=2000, ls_refit_every=1, lr=3e-3, seed=3)
    trunk, a_star, _, step1_loss, _ = train_trunk_step1(data, trunk, cfg)
    t_star, target = orthonormalize(trunk, a_star, data.y_sensors)
    branch, branch_loss, _ = fit_interpolating_branch(data.train_f(), target, seed=3)
    model = DeepONetModel(trunk=trunk, branch=branch, t_matrix=t_star, width=8)
    assembled = monolithic_loss(model, data)
    check = check_two_step_equivalence(data, assembled, step1_loss, branch_loss, target)
    return {"model": model, "data": data, "check": check}


@pytest.fixture(scope="session")
def sweep_tables():
    base = SweepSettings(
        k_test=25,
        grid_n=17,
        beta_lo=1.0,
        beta_hi=100.0,
        n_width=20,
        trunk_hidden=(40, 40, 40),
        branch_hidden=(48,),
        activation="tanh",
        init_scheme="he",
        iters_trunk=2500,
        iters_branch=2500,
        lr=1e-2,
        base_seed=7,
    )
    start = time.perf_counter()
    k_table = generalization_sweep(base, "K", [10, 50, 250], 3, max_workers=2)
    my_table = generalization_sweep(
        replace(base, grid_n=33, k_train=60), "m_y", [64, 256, 1024], 3, max_workers=2
    )
    return {"K": k_table, "m_y": my_table, "wall_seconds": time.perf_counter() - start}


def _pooled_std(a, b):
    return float(np.sqrt(0.5 * (a**2 + b**2)))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_tanh = 0.0
    for seed in range(20):
        depth = int(rng.integers(2, 5))
        arch = [int(rng.integers(2, 6))] + [
            int(rng.integers(4, 33)) for _ in range(depth - 1)
        ] + [int(rng.integers(1, 5))]
        net = init_mlp(arch, "tanh", "he", seed=seed)
        x = rng.normal(size=(4, arch[0]))
        worst_tanh = max(worst_tanh, gradcheck(net, x))
    assert worst_tanh <= 1e-6

    worst_relu = 0.0
    for seed in range(10):
        net = init_mlp((3, 12, 8, 2), "relu", "he", seed=seed)
        x = None
        for _ in range(100):
            candidate = rng.normal(size=(3, 3))
            # The workspace holds post-activations; rebuild z1..z_{L-1}.
            work = Workspace(net, candidate.shape[0])
            forward(net, candidate, work)
            acts = work.acts
            pres = [
                h @ w.T + b
                for h, w, b in zip([candidate] + acts, net.weights, net.biases)
            ]
            if min(float(np.min(np.abs(p))) for p in pres[:-1]) > 1e-3:
                x = candidate
                break
        assert x is not None, "could not find inputs away from the kinks"
        worst_relu = max(worst_relu, gradcheck(net, x))
    assert worst_relu <= 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 1 PASS: tanh gradcheck {worst_tanh:.2e} <= 1e-6, "
        f"relu {worst_relu:.2e} <= 1e-4 ({elapsed:.1f}s)"
    )


def test_criterion_02_qr_least_squares():
    start = time.perf_counter()
    worst_orth, worst_recon, worst_ls = 0.0, 0.0, 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(300, 60))
        qr = householder_qr(a)
        worst_orth = max(
            worst_orth, float(np.linalg.norm(qr.q.T @ qr.q - np.eye(60)))
        )
        worst_recon = max(
            worst_recon,
            float(np.linalg.norm(qr.q @ qr.r - a) / np.linalg.norm(a)),
        )
        b = rng.normal(size=(300, 2))
        x = least_squares(a, b)
        worst_ls = max(
            worst_ls,
            float(
                np.linalg.norm(a.T @ (a @ x - b))
                / (np.linalg.norm(a) * np.linalg.norm(b))
            ),
        )
    assert worst_orth <= 1e-10
    assert worst_recon <= 1e-12
    assert worst_ls <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"criterion 2 PASS: orthogonality {worst_orth:.2e}, reconstruction "
        f"{worst_recon:.2e}, ls orthogonality {worst_ls:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_03_interpolation_certificates():
    start = time.perf_counter()
    lines = []
    for seed in range(5):
        data = _certificate_dataset(seed + 50)
        u = data.u_matrix
        u_sq = float(np.sum(u * u))
        rank = jacobi_svd(u).rank
        for n in (rank, rank + 2):
            trunk, a_star, _ = build_interpolating_trunk(data.y_sensors, u, n, seed=seed)
            resid = float(np.sum((assemble_phi(trunk, data.y_sensors) @ a_star - u) ** 2))
            assert resid <= 1e-8 * u_sq, f"seed {seed}, N={n}"
        for n in (max(1, rank - 1), max(1, rank - 2)):
            trunk, a_star, _ = build_interpolating_trunk(data.y_sensors, u, n, seed=seed)
            resid = float(np.sum((assemble_phi(trunk, data.y_sensors) @ a_star - u) ** 2))
            bound = best_rank_k_error(u, n)
            assert resid <= bound * (1 + 1e-6) + 1e-10 * u_sq, f"seed {seed}, N={n}"
        lines.append(f"seed {seed}: rank {rank} ok")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 3 PASS: {'; '.join(lines)} ({elapsed:.1f}s)")


def test_criterion_04_zero_loss_pipeline(certificate_runs):
    for run in certificate_runs:
        cert = run["at_rank"]
        scale = cert.u_norm_sq / (run["data"].m_y * run["data"].n_samples)
        assert cert.zero_loss_applicable
        assert cert.zero_loss_passed, f"seed {run['seed']}"
        assert cert.assembled_loss <= 1e-8 * scale
    worst = max(
        run["at_rank"].assembled_loss
        / (run["at_rank"].u_norm_sq / (run["data"].m_y * run["data"].n_samples))
        for run in certificate_runs
    )
    print(
        f"criterion 4 PASS: assembled loss <= {worst:.2e} x data scale on "
        f"{len(certificate_runs)} constructed pipelines (tolerance 1e-8)"
    )


def test_criterion_05_loss_equivalence(certificate_runs, refit_equivalence_run):
    checked = 0
    for run in certificate_runs:
        for key in ("at_rank", "below_rank"):
            cert = run[key]
            assert cert.equivalence_applicable, f"seed {run['seed']} {key}"
            assert cert.equivalence_passed, f"seed {run['seed']} {key}"
            checked += 1
    check = refit_equivalence_run["check"]
    assert check.applicable
    assert check.passed
    rel_gap = check.gap / max(check.step1_loss, 1e-300)
    checked += 1
    print(
        f"criterion 5 PASS: step-1 vs assembled loss agree on {checked} "
        f"integration runs; trained-run relative gap {rel_gap:.2e}"
    )


def test_criterion_06_forward_replica(replica):
    trunk_loss = replica["report_2st"].final_trunk_loss
    van_loss = replica["report_van"].final_monolithic_loss
    test_err = replica["eval_2st"].mean_rel_error
    optimal = replica["eval_2st"].mean_optimal_error
    assert trunk_loss <= van_loss / 10.0
    assert test_err <= 2.0 * optimal
    assert replica["wall_seconds"] < 15 * 60
    print(
        f"criterion 6 PASS: two-step trunk loss {trunk_loss:.2e} vs monolithic "
        f"{van_loss:.2e} (ratio {van_loss / trunk_loss:.0f}); test error "
        f"{test_err:.2e} <= 2 x optimal {optimal:.2e} "
        f"({replica['wall_seconds']:.0f}s)"
    )


def test_criterion_07_qr_ablation(replica):
    with_qr = replica["report_2st"].final_branch_loss
    without_qr = replica["report_noqr"].final_branch_loss
    assert with_qr <= without_qr / 10.0
    print(
        f"criterion 7 PASS: branch loss with orthonormalization {with_qr:.2e}, "
        f"without {without_qr:.2e} (ratio {without_qr / with_qr:.0f})"
    )


def test_criterion_08_conditional_optimality_bound(replica):
    checked = 0
    for report in (replica["eval_2st"], replica["eval_van"]):
        for rel, opt in zip(report.rel_errors, report.optimal_errors):
            assert opt <= rel + 1e-12
            checked += 1
    print(
        f"criterion 8 PASS: optimal error <= trained error + 1e-12 on "
        f"{checked} evaluation rows"
    )


def test_criterion_09_generalization_trends(sweep_tables):
    k_rows = sweep_tables["K"].rows
    for lo, hi in zip(k_rows[:-1], k_rows[1:]):
        slack = _pooled_std(lo.std_rel_error, hi.std_rel_error)
        assert hi.mean_rel_error <= lo.mean_rel_error + slack, (
            f"K={hi.value} mean {hi.mean_rel_error:.3e} vs "
            f"K={lo.value} {lo.mean_rel_error:.3e} + {slack:.3e}"
        )
    my_rows = sweep_tables["m_y"].rows
    for lo, hi in zip(my_rows[:-1], my_rows[1:]):
        slack = _pooled_std(lo.std_rel_error, hi.std_rel_error)
        assert hi.mean_rel_error <= lo.mean_rel_error + slack
    assert sweep_tables["wall_seconds"] < 30 * 60
    k_means = ", ".join(f"K={r.value}: {r.mean_rel_error:.2e}" for r in k_rows)
    my_means = ", ".join(f"m_y={r.value}: {r.mean_rel_error:.2e}" for r in my_rows)
    print(
        f"criterion 9 PASS: {k_means}; {my_means} "
        f"({sweep_tables['wall_seconds']:.0f}s)"
    )


def test_criterion_10_orthonormal_basis(replica):
    model = replica["two_step"]
    data = replica["data"]
    basis = assemble_phi(model.trunk, data.y_sensors) @ model.t_matrix
    gram = basis.T @ basis
    n1 = model.width + 1
    dev = float(np.linalg.norm(gram - np.eye(n1)))
    trace_dev = abs(float(np.trace(gram)) - n1)
    assert dev <= 1e-8
    assert trace_dev <= 1e-8
    print(
        f"criterion 10 PASS: ||(Phi T)^T (Phi T) - I||_F = {dev:.2e}, "
        f"|trace - {n1}| = {trace_dev:.2e}"
    )


def test_supplementary_trunk_quality_comparison(replica):
    """Not a numbered criterion: the two-step trunk should give a smaller
    conditional-optimal error than the monolithic trunk on nearly every
    test sample (target: at least 90%)."""
    pairs = list(
        zip(replica["eval_2st"].optimal_errors, replica["eval_van"].optimal_errors)
    )
    better = sum(1 for two_step, van in pairs if two_step < van)
    assert better >= 0.9 * len(pairs)
    print(
        f"supplementary PASS: two-step optimal error smaller on "
        f"{better}/{len(pairs)} test samples"
    )


def test_criterion_11_io_and_solver_order(tmp_path):
    # byte-identical round trips
    data = split_dataset(gen_example1(np.linspace(1, 50, 10), 9), 0.8, seed=4)
    save_dataset(data, tmp_path / "d1")
    save_dataset(load_dataset(tmp_path / "d1"), tmp_path / "d2")
    for name in ("manifest.json", "x_sensors.bin", "y_sensors.bin", "F.bin", "U.bin"):
        assert (tmp_path / "d1" / name).read_bytes() == (
            tmp_path / "d2" / name
        ).read_bytes()

    trunk = init_mlp((2, 8, 3), "tanh", "he", seed=5)
    branch = init_mlp((1, 8, 4), "tanh", "he", seed=6)
    model = DeepONetModel(trunk, branch, np.eye(4), 3)
    save_model(model, tmp_path / "m1")
    save_model(load_model(tmp_path / "m1"), tmp_path / "m2")
    for name in ("model.json", "trunk.bin", "branch.bin", "t_matrix.bin"):
        assert (tmp_path / "m1" / name).read_bytes() == (
            tmp_path / "m2" / name
        ).read_bytes()

    # order-2 convergence on a smooth manufactured solution
    errors = []
    for n in (17, 33, 65):
        w = solve_poisson_fd(
            n,
            lambda x, y: -2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y),
            0.0,
        )
        ax = np.linspace(-1, 1, n)
        exact = np.sin(np.pi * ax)[:, None] * np.sin(np.pi * ax)[None, :]
        errors.append(float(np.max(np.abs(w - exact))))
    slopes = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    for slope in slopes:
        assert abs(slope - 2.0) <= 0.3
    print(
        f"criterion 11 PASS: byte-identical round trips; solver convergence "
        f"slopes {slopes[0]:.2f}, {slopes[1]:.2f} (target 2 +/- 0.3)"
    )
