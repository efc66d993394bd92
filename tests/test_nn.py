import copy
import pickle

import numpy as np
import pytest

from conftest import gradcheck, run_python
from operon.artifact import blob
from operon.errors import ShapeError
from operon.nn import (
    Mlp,
    Workspace,
    backward,
    forward,
    init_mlp,
    mlp_copy,
)


def _backward_after_forward(net, x, upstream):
    work = Workspace(net, x.shape[0])
    forward(net, x, work)
    return backward(net, x, upstream, work)


def _hand_net():
    # 1-1-1 relu net: out = 3 * relu(2x - 1) + 0.5
    return Mlp(
        arch=(1, 1, 1),
        weights=[np.array([[2.0]]), np.array([[3.0]])],
        biases=[np.array([-1.0]), np.array([0.5])],
        activation="relu",
    )


class TestInit:
    def test_branch_parameter_count(self):
        # 500*1 + 500 + 51*500 + 51
        net = init_mlp((1, 500, 51), "relu", "he", seed=7)
        assert sum(a.size for a in net.weights + net.biases) == 26551

    def test_layer_shapes(self):
        net = init_mlp((2, 50, 50, 50, 50), "relu", "he", seed=0)
        assert [w.shape for w in net.weights] == [(50, 2), (50, 50), (50, 50), (50, 50)]
        assert all(np.array_equal(b, np.zeros(50)) for b in net.biases)

    def test_same_seed_bit_identical(self):
        a = init_mlp((3, 8, 2), "tanh", "xavier", seed=42)
        b = init_mlp((3, 8, 2), "tanh", "xavier", seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_he_scale(self):
        net = init_mlp((100, 400, 1), "relu", "he", seed=0)
        # std of W1 should be close to sqrt(2/100)
        assert np.std(net.weights[0]) == pytest.approx(np.sqrt(2 / 100), rel=0.05)

    def test_xavier_bound(self):
        net = init_mlp((10, 20, 1), "relu", "xavier", seed=0)
        bound = np.sqrt(6 / 30)
        assert np.max(np.abs(net.weights[0])) <= bound

    def test_invalid_arch(self):
        with pytest.raises(ValueError):
            init_mlp((5,), "relu")
        with pytest.raises(ValueError):
            init_mlp((5, 0, 2), "relu")


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = init_mlp((2, 4, 3), "relu", "he", seed=0)
        for w in net.weights:
            w[...] = 0.0
        x = np.random.default_rng(0).normal(size=(5, 2))
        assert np.array_equal(forward(net, x), np.zeros((5, 3)))

    def test_hand_evaluation(self):
        net = _hand_net()
        assert forward(net, np.array([[1.0]]))[0, 0] == pytest.approx(3.5)
        assert forward(net, np.array([[0.0]]))[0, 0] == pytest.approx(0.5)

    def test_determinism(self):
        net = init_mlp((3, 16, 4), "tanh", "he", seed=1)
        x = np.random.default_rng(1).normal(size=(7, 3))
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_last_layer_linearity(self):
        net = init_mlp((2, 8, 3), "tanh", "he", seed=2)
        x = np.random.default_rng(2).normal(size=(4, 2))
        base = forward(net, x)
        net.weights[-1] *= 2.0
        net.biases[-1] *= 2.0
        assert np.allclose(forward(net, x), 2.0 * base)

    def test_shape_mismatch(self):
        net = init_mlp((3, 4, 2), "relu", "he", seed=0)
        with pytest.raises(ShapeError):
            forward(net, np.zeros((5, 2)))


class TestWorkspace:
    def test_forward_keeps_activations_and_output(self):
        net = init_mlp((3, 7, 5, 2), "tanh", "he", seed=5)
        x = np.random.default_rng(5).normal(size=(6, 3))
        out = np.empty((6, 2))
        work = Workspace(net, 6, out=out)
        y = forward(net, x, work)
        assert y is out and np.array_equal(y, forward(net, x))
        assert [a.shape for a in work.acts] == [(6, 7), (6, 5), (6, 2)]
        h1 = np.tanh(x @ net.weights[0].T + net.biases[0])
        assert np.array_equal(work.acts[0], h1)

    def test_backward_returns_the_workspace_gradient(self):
        # Adam reads the gradient from work.grad, not from the return value.
        net = init_mlp((2, 4, 3), "relu", "he", seed=6)
        x = np.random.default_rng(6).normal(size=(5, 2))
        work = Workspace(net, 5)
        grad = backward(net, x, forward(net, x, work), work)
        assert grad is work.grad and work.grad.flags.owndata
        assert np.array_equal(grad, _backward_after_forward(net, x, forward(net, x)))

    @pytest.mark.parametrize("batch, arch", [(4, (2, 6, 3)), (5, (2, 6, 6, 3)), (5, (2, 7, 3))])
    def test_workspace_for_another_batch_or_depth(self, batch, arch):
        net = init_mlp((2, 6, 3), "tanh", "he", seed=7)
        x = np.random.default_rng(7).normal(size=(5, 2))
        work = Workspace(init_mlp(arch, "tanh", "he", seed=7), batch)
        with pytest.raises(ShapeError, match="workspace"):
            backward(net, x, np.ones((5, 3)), work)
        with pytest.raises(ShapeError, match="workspace"):
            forward(net, x, work)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = init_mlp((2, 6, 3), "tanh", "he", seed=3)
        x = np.random.default_rng(3).normal(size=(4, 2))
        grad = _backward_after_forward(net, x, np.zeros((4, 3)))
        assert np.array_equal(grad, np.zeros_like(net.params))

    def test_single_linear_layer_chain_rule(self):
        net = Mlp(
            arch=(1, 1),
            weights=[np.array([[4.0]])],
            biases=[np.array([0.25])],
            activation="relu",
        )
        x = np.array([[3.0]])
        g = np.array([[2.0]])
        grad = _backward_after_forward(net, x, g)
        # Layout (W1, b1): dW = g x, db = g.
        assert grad[0] == pytest.approx(2.0 * 3.0)
        assert grad[1] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences_tanh(self, seed):
        rng = np.random.default_rng(seed)
        net = init_mlp((3, 10, 6, 2), "tanh", "he", seed=seed)
        x = rng.normal(size=(4, 3))
        assert gradcheck(net, x) <= 1e-6

    def test_gradient_shapes_mirror_net(self):
        net = init_mlp((2, 5, 3), "relu", "he", seed=4)
        x = np.random.default_rng(4).normal(size=(6, 2))
        grad = _backward_after_forward(net, x, np.ones((6, 3)))
        assert grad.shape == net.params.shape == (2 * 5 + 5 + 5 * 3 + 3,)


class TestGradcheck:
    def test_relu_away_from_kinks(self):
        rng = np.random.default_rng(9)
        for seed in range(3):
            net = init_mlp((2, 8, 3), "relu", "he", seed=seed)
            # keep pre-activations away from 0 by retrying inputs
            for _ in range(50):
                x = rng.normal(size=(3, 2)) + 0.5
                # The workspace holds post-activations; rebuild z1..z_{L-1}.
                work = Workspace(net, x.shape[0])
                forward(net, x, work)
                acts = work.acts
                pres = [
                    h @ w.T + b for h, w, b in zip([x] + acts, net.weights, net.biases)
                ]
                if min(np.min(np.abs(p)) for p in pres[:-1]) > 1e-3:
                    break
            assert gradcheck(net, x) <= 1e-4

    def test_zero_network_zero_error(self):
        net = init_mlp((2, 4, 2), "relu", "he", seed=0)
        for w in net.weights:
            w[...] = 0.0
        x = np.random.default_rng(0).normal(size=(3, 2))
        assert gradcheck(net, x) == 0.0


class TestParams:
    def test_views_alias_params_in_blob_order(self):
        w1, b1 = np.arange(6.0).reshape(3, 2), np.array([6.0, 7.0, 8.0])
        w2, b2 = np.array([[9.0, 10.0, 11.0]]), np.array([12.0])
        net = Mlp((2, 3, 1), [w1, w2], [b1, b2], "tanh")
        # W1, b1, W2, b2, each W row-major: the trunk.bin order.
        assert np.array_equal(net.params, np.arange(13.0))
        net.weights[1][0, 2] = -1.0
        net.biases[0][1] = -2.0
        assert net.params[11] == -1.0 and net.params[7] == -2.0
        # The network blob is the bytes of params.
        assert np.frombuffer(blob(net.params), dtype="<f8")[11] == -1.0
        # The constructor copies: the caller's arrays are not aliased.
        assert w2[0, 2] == 11.0 and b1[1] == 7.0
        w1[0, 0] = 100.0
        assert net.params[0] == 0.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeError):
            Mlp((2, 3), [np.zeros((2, 3))], [np.zeros(3)], "tanh")

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation 'bogus'"):
            Mlp((2, 3), [np.zeros((3, 2))], [np.zeros(3)], "bogus")


class TestFromParams:
    def test_wrong_size_rejected(self):
        with pytest.raises(ShapeError, match=r"params shape \(12,\) != \(13,\)"):
            Mlp.from_params((2, 3, 1), np.zeros(12), "tanh")
        with pytest.raises(ShapeError):
            Mlp.from_params((2, 3, 1), np.zeros((13, 1)), "tanh")

    def test_owns_the_vector_it_is_given(self):
        # The stated contract: a float64 vector is taken over, not copied,
        # and the layers are views of it in blob order.
        flat = np.arange(13.0)
        net = Mlp.from_params((2, 3, 1), flat, "tanh")
        assert net.params is flat
        assert all(np.shares_memory(net.params, a) for a in net.weights + net.biases)
        assert net.weights[1][0, 2] == 11.0 and net.biases[0][1] == 7.0
        net.weights[1][0, 2] = -1.0
        assert flat[11] == -1.0

    def test_other_dtypes_are_copied(self):
        flat = np.arange(13, dtype=np.float32)
        net = Mlp.from_params((2, 3, 1), flat, "tanh")
        assert net.params.dtype == np.float64 and not np.shares_memory(net.params, flat)
        assert all(np.shares_memory(net.params, a) for a in net.weights + net.biases)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation 'bogus'"):
            Mlp.from_params((2, 3), np.zeros(9), "bogus")

    def test_pickle_round_trip(self):
        net = Mlp.from_params((3, 4, 2), np.random.default_rng(0).normal(size=26), "relu")
        dup = pickle.loads(pickle.dumps(net))
        assert (dup.arch, dup.activation) == (net.arch, net.activation)
        assert dup.params.tobytes() == net.params.tobytes()
        assert not np.shares_memory(dup.params, net.params)
        assert all(np.shares_memory(dup.params, a) for a in dup.weights + dup.biases)


class TestCopy:
    def test_copy_is_deep(self):
        net = init_mlp((2, 4, 1), "relu", "he", seed=0)
        dup = mlp_copy(net)
        dup.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
        ids=["deepcopy", "pickle"],
    )
    def test_copy_keeps_views_of_its_params(self, duplicate):
        net = init_mlp((3, 10, 6, 2), "tanh", "he", seed=1)
        x = np.random.default_rng(1).normal(size=(4, 3))
        dup = duplicate(net)
        assert all(np.shares_memory(dup.params, a) for a in dup.weights + dup.biases)
        assert not np.shares_memory(dup.params, net.params)
        assert gradcheck(dup, x) <= 1e-6
        assert forward(dup, x).tobytes() == forward(net, x).tobytes()


@pytest.mark.parametrize("module", ["operon.nn", "operon.train", "operon.construct"])
def test_module_imports_first_in_fresh_interpreter(module):
    # An import cycle between the modules shows only when one of them is
    # the first to be imported.
    run_python(["-c", f"import {module}"], check=True, timeout=120)
