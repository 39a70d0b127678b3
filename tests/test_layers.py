import numpy as np
import pytest

from fpx import graph as graph_mod
from fpx import tensor as T
from fpx.fpi import FpiConfig, forward_fpi
from fpx.graph import Graph, backward
from fpx.layers import (
    AffineG,
    ConvG,
    EnergyNet,
    GdG,
    MlpG,
    Parameters,
    init_small,
    lipschitz_project,
    load_parameters,
    save_parameters,
    spectral_norm_conv,
    spectral_norm_matrix,
)
from fpx.tensor import ShapeError, Tensor

from reference import central_diff, rel_err


def _module_case(kind: str):
    """A module with parameters and state/input values at small shapes."""
    rng = np.random.default_rng(97)
    module, x_shape, z_shape = {
        "AffineG": (AffineG(4), (4, 3), (4, 3)),
        "MlpG": (MlpG(4, 3, 5), (4, 3), (3, 3)),
        "MlpG-linear": (MlpG(4, 3, 5, final_sigmoid=False), (4, 3), (3, 3)),
        "ConvG": (ConvG(channels=4), (1, 6, 6), (1, 6, 6)),
        "EnergyNet": (EnergyNet(3, 2, 5), (3, 4), (2, 4)),
        "GdG": (GdG(EnergyNet(3, 2, 5), gamma=0.5), (3, 4), (2, 4)),
        "GdG-body": (GdG(EnergyNet(3, 2, 5, body_dim=3), gamma=0.5), (3, 4), (2, 4)),
    }[kind]
    theta = module.init_params(0.5, rng)
    x, z = (Tensor(rng.standard_normal(s)) for s in (x_shape, z_shape))
    return module, x, z, theta


class TestApply:
    """``apply`` evaluates ``build`` without recording a graph."""

    @pytest.mark.parametrize("kind", ["AffineG", "MlpG", "MlpG-linear", "ConvG",
                                      "EnergyNet", "GdG", "GdG-body"])
    def test_equals_the_graph_build(self, kind):
        module, x, z, theta = _module_case(kind)
        g = Graph()
        nodes = {n: g.leaf(theta[n]) for n in module.param_names}
        want = module.build(g, g.leaf(x), g.leaf(z), nodes).value
        got = module.apply(x, z, theta)
        assert isinstance(got, Tensor) and np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("kind", ["MlpG", "ConvG"])
    def test_forward_solve_makes_no_node(self, kind):
        module, _, z, theta = _module_case(kind)
        graph_mod.reset_peak_live_node_count()
        base = graph_mod.live_node_count()
        res = forward_fpi(module, T.zeros(module.state_shape(z)), z, theta,
                          FpiConfig(tol=1e-12, max_iter=50))
        assert res.iterations > 1
        assert graph_mod.live_node_count() == base
        assert graph_mod.peak_live_node_count() == base

    @pytest.mark.parametrize("kind", ["GdG", "GdG-body"])
    def test_gd_apply_keeps_no_node(self, kind):
        # the inner energy graph is built per iterate, but its gradient is a
        # value sweep and nothing outlives the call
        module, x, z, theta = _module_case(kind)
        base = graph_mod.live_node_count()
        module.apply(x, z, theta)
        assert graph_mod.live_node_count() == base


class TestMlpG:
    def test_zero_parameters_give_half_vector(self):
        g = MlpG(state_dim=3, input_dim=2, hidden=4)
        theta = Parameters({n: T.zeros(s) for n, s in g.param_shapes().items()})
        out = g.apply(T.zeros((3, 1)), Tensor([[1.0], [2.0]]), theta)
        np.testing.assert_array_equal(out.data, np.full((3, 1), 0.5))

    def test_bibtex_shapes(self):
        g = MlpG(state_dim=159, input_dim=1836, hidden=512)
        rng = np.random.default_rng(0)
        theta = g.init_params(0.1, rng)
        assert theta["w1"].shape == (512, 159 + 1836)
        assert theta["w2"].shape == (159, 512)
        out = g.apply(T.zeros((159, 1)), Tensor(rng.standard_normal((1836, 1))), theta)
        assert out.shape == (159, 1)

    def test_matches_hand_composed_kernels(self):
        rng = np.random.default_rng(1)
        g = MlpG(state_dim=4, input_dim=3, hidden=5)
        theta = g.init_params(1.0, rng)
        x = Tensor(rng.standard_normal((4, 2)))
        z = Tensor(rng.standard_normal((3, 2)))
        got = g.apply(x, z, theta)
        xz = T.concat([x, z], axis=0)
        pre1 = T.add(T.matmul(theta["w1"], xz), T.tile_cols(theta["b1"], 2))
        pre2 = T.add(T.matmul(theta["w2"], T.relu(pre1)), T.tile_cols(theta["b2"], 2))
        np.testing.assert_array_equal(got.data, T.sigmoid(pre2).data)

    def test_purity(self):
        rng = np.random.default_rng(2)
        g = MlpG(state_dim=3, input_dim=3, hidden=4)
        theta = g.init_params(0.5, rng)
        x = Tensor(rng.standard_normal((3, 1)))
        z = Tensor(rng.standard_normal((3, 1)))
        a = g.apply(x, z, theta)
        b = g.apply(x, z, theta)
        assert np.array_equal(a.data, b.data)

    def test_no_sigmoid_variant_is_unbounded(self):
        rng = np.random.default_rng(3)
        g = MlpG(state_dim=2, input_dim=2, hidden=3, final_sigmoid=False)
        theta = g.init_params(1.0, rng)
        theta["b2"] = Tensor([5.0, -5.0])
        out = g.apply(T.zeros((2, 1)), T.zeros((2, 1)), theta)
        assert out.data[0, 0] > 1.0 and out.data[1, 0] < 0.0


class TestConvG:
    def test_zero_weights_give_zero_image(self):
        g = ConvG(channels=8)
        theta = Parameters({n: T.zeros(s) for n, s in g.param_shapes().items()})
        out = g.apply(T.zeros((1, 5, 5)), Tensor(np.random.default_rng(0).random((1, 5, 5))),
                      theta)
        np.testing.assert_array_equal(out.data, np.zeros((1, 5, 5)))

    @pytest.mark.parametrize("hw", [(3, 3), (5, 7), (16, 16)])
    def test_shape_preserved(self, hw):
        rng = np.random.default_rng(4)
        g = ConvG(channels=4)
        theta = g.init_params(0.1, rng)
        x = Tensor(rng.standard_normal((1, *hw)))
        z = Tensor(rng.standard_normal((1, *hw)))
        assert g.apply(x, z, theta).shape == (1, *hw)

    def test_matches_direct_kernel_composition(self):
        rng = np.random.default_rng(5)
        g = ConvG(channels=6)
        theta = g.init_params(1.0, rng)
        x = Tensor(rng.standard_normal((1, 16, 16)))
        z = Tensor(rng.standard_normal((1, 16, 16)))
        got = g.apply(x, z, theta)
        xz = T.concat([x, z], axis=0)
        y1 = T.add(T.conv2d(xz, theta["k1"], 1, 1), T.tile_hw(theta["b1"], 16, 16))
        y2 = T.add(T.conv2d(T.relu(y1), theta["k2"], 1, 1), T.tile_hw(theta["b2"], 16, 16))
        np.testing.assert_array_equal(got.data, y2.data)


class TestEnergyNet:
    def test_identity_block_reduces_to_mean_square(self):
        f = EnergyNet(state_dim=3, input_dim=2, hidden=3)
        w1 = np.hstack([np.eye(3), np.zeros((3, 2))])
        theta = Parameters({"w1": Tensor(w1), "b1": T.zeros(3)})
        x = Tensor([[1.0], [2.0], [3.0]])
        out = f.apply(x, T.zeros((2, 1)), theta)
        assert abs(out.item() - np.mean([1.0, 4.0, 9.0])) < 1e-15

    def test_nonnegative_for_any_parameters(self):
        rng = np.random.default_rng(6)
        f = EnergyNet(state_dim=4, input_dim=3, hidden=6)
        for _ in range(10):
            theta = f.init_params(2.0, rng)
            x = Tensor(rng.standard_normal((4, 1)))
            z = Tensor(rng.standard_normal((3, 1)))
            assert f.apply(x, z, theta).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        f = EnergyNet(state_dim=3, input_dim=2, hidden=5)
        theta = f.init_params(1.0, rng)
        xv = rng.standard_normal((3, 1))
        z = Tensor(rng.standard_normal((2, 1)))

        g = Graph()
        nodes = {n: g.leaf(theta[n]) for n in f.param_names}
        x = g.leaf(Tensor(xv))
        out = f.build(g, x, g.leaf(z), nodes)
        grads = backward(g, out, Tensor(1.0))
        fd = central_diff(lambda v: f.apply(Tensor(v), z, theta).item(), xv)
        assert rel_err(grads[x.id].data, fd) < 1e-6

    def test_two_layer_body(self):
        rng = np.random.default_rng(8)
        f = EnergyNet(state_dim=4, input_dim=4, hidden=6, body_dim=4)
        theta = f.init_params(1.0, rng)
        assert set(theta) == {"w1", "b1", "w2", "b2"}
        out = f.apply(Tensor(rng.standard_normal((4, 1))),
                      Tensor(rng.standard_normal((4, 1))), theta)
        assert out.shape == () and out.item() >= 0.0


class TestInitSmall:
    def test_scale_bounds_weights(self):
        rng = np.random.default_rng(9)
        shapes = {"w": (64, 32), "k": (8, 4, 3, 3), "b": (64,)}
        theta = init_small(shapes, 0.1, rng)
        assert np.max(np.abs(theta["w"].data)) <= 0.1 / np.sqrt(32)
        assert np.max(np.abs(theta["k"].data)) <= 0.1 / np.sqrt(4 * 9)
        np.testing.assert_array_equal(theta["b"].data, np.zeros(64))

    def test_unit_scale_is_baseline(self):
        rng = np.random.default_rng(10)
        theta = init_small({"w": (1000, 50)}, 1.0, rng)
        bound = 1.0 / np.sqrt(50)
        assert np.max(np.abs(theta["w"].data)) <= bound
        assert np.max(np.abs(theta["w"].data)) > 0.9 * bound   # actually fills the range

    def test_fixed_seed_is_bit_identical(self):
        shapes = {"w": (7, 5), "b": (7,)}
        a = init_small(shapes, 0.3, np.random.default_rng(1234))
        b = init_small(shapes, 0.3, np.random.default_rng(1234))
        assert np.array_equal(a["w"].data, b["w"].data)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            init_small({"w": (2, 2)}, 0.0, np.random.default_rng(0))


class TestLipschitzProject:
    def test_diagonal_hand_case(self):
        theta = Parameters({"w": Tensor(np.diag([2.0, 1.0]))})
        out = lipschitz_project(theta, 0.9)
        np.testing.assert_allclose(out["w"].data, np.diag([0.9, 0.45]), atol=1e-9)

    def test_small_weights_untouched(self):
        w = np.diag([0.5, 0.2])
        out = lipschitz_project(Parameters({"w": Tensor(w)}), 0.9)
        np.testing.assert_array_equal(out["w"].data, w)

    def test_biases_pass_through(self):
        theta = Parameters({"w": Tensor(np.eye(2) * 5), "b": Tensor([3.0, 4.0])})
        out = lipschitz_project(theta, 0.5)
        np.testing.assert_array_equal(out["b"].data, [3.0, 4.0])

    def test_power_iteration_matches_svd(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            w = rng.standard_normal((9, 6))
            want = np.linalg.svd(w, compute_uv=False)[0]
            assert abs(spectral_norm_matrix(Tensor(w)) - want) < 1e-6 * want

    def test_projected_linear_layer_is_certified_contraction(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((6, 6)) * 3.0
        k = 0.9
        out = lipschitz_project(Parameters({"w": Tensor(w)}), k)
        wp = out["w"].data
        for _ in range(20):
            x1 = rng.standard_normal((6, 1))
            x2 = rng.standard_normal((6, 1))
            lhs = np.linalg.norm(wp @ x1 - wp @ x2)
            assert lhs <= k * np.linalg.norm(x1 - x2) + 1e-9

    def test_conv_norm_matches_dense_unfolding(self):
        rng = np.random.default_rng(13)
        kernel = rng.standard_normal((2, 1, 3, 3))
        hw = (4, 4)
        cols = []
        for i in range(16):
            e = np.zeros((1, 4, 4))
            e.flat[i] = 1.0
            cols.append(T.conv2d(Tensor(e), Tensor(kernel), 1, 1).data.ravel())
        dense = np.stack(cols, axis=1)
        want = np.linalg.svd(dense, compute_uv=False)[0]
        got = spectral_norm_conv(Tensor(kernel), hw, padding=1, iters=500, tol=1e-14)
        assert abs(got - want) < 1e-6 * want

    def test_projects_conv_kernels(self):
        rng = np.random.default_rng(14)
        theta = Parameters({"k": Tensor(rng.standard_normal((2, 1, 3, 3)) * 2)})
        out = lipschitz_project(theta, 0.8, image_hw=(6, 6))
        assert spectral_norm_conv(out["k"], (6, 6)) <= 0.8 + 1e-6

    def test_multilayer_projected_mlp_is_contractive(self):
        rng = np.random.default_rng(15)
        from fpx.fpi import spectral_norm_jacobian
        g = MlpG(state_dim=5, input_dim=3, hidden=7)
        theta = lipschitz_project(g.init_params(3.0, rng), 0.9)
        for _ in range(3):
            x = Tensor(rng.standard_normal((5, 1)))
            z = Tensor(rng.standard_normal((3, 1)))
            assert spectral_norm_jacobian(g, x, z, theta, iters=50) < 1.0


class TestParameterBlobs:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        g = MlpG(state_dim=3, input_dim=4, hidden=5)
        theta = g.init_params(0.7, rng)
        path = tmp_path / "params.bin"
        save_parameters(path, theta, meta={"init_scale": 0.7})
        loaded, meta = load_parameters(path)
        assert meta == {"init_scale": 0.7}
        assert list(loaded) == list(theta)
        for n in theta:
            assert np.array_equal(loaded[n].data, theta[n].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b'{"format": "nope"}\n')
        with pytest.raises(ValueError, match="not a parameter blob"):
            load_parameters(path)

    def test_truncated_blob_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        save_parameters(path, Parameters({"w": T.ones((4, 4))}))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_parameters(path)

    def test_shape_lock_on_assignment(self):
        p = Parameters({"w": T.ones((2, 2))})
        with pytest.raises(ShapeError):
            p["w"] = T.ones((3, 3))
