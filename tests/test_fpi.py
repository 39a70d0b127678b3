import warnings

import numpy as np
import pytest

from fpx import graph as graph_mod
from fpx import tensor as T
from fpx.fpi import (
    BackwardFpiResult,
    _CotangentIteration,
    ConditioningError,
    Criterion,
    DivergenceError,
    FixedPointResult,
    FpiConfig,
    backward_fpi,
    closed_form_gradient,
    convergence_check,
    forward_fpi,
    fpi_layer,
    spectral_norm_jacobian,
    unrolled_gradient,
)
from fpx.graph import FunctionObject, Graph, backward, live_node_count, vjp
from fpx.layers import (
    AffineG,
    ConvG,
    EnergyNet,
    GdG,
    GModule,
    MlpG,
    Parameters,
    lipschitz_project,
)
from fpx.tensor import Tensor

from reference import central_diff, rel_err


def affine_params(rng, dim, norm):
    a = rng.standard_normal((dim, dim))
    a *= norm / np.linalg.svd(a, compute_uv=False)[0]
    return Parameters({"a": Tensor(a), "b": Tensor(rng.standard_normal(dim))})


class QuadraticEnergy:
    """f(x) = 0.5 x^T D x, parameter-free; for exercising descent steps."""

    param_names = ()

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=np.float64)
        self.state_dim = len(self.diag)

    def param_shapes(self):
        return {}

    def function_object(self):
        d = Tensor(np.diag(self.diag))

        def recipe(g, ins):
            dx = g.matmul(g.leaf(d), ins["x"])
            return g.scale(g.reduce_sum(g.mul(ins["x"], dx)), 0.5)
        return FunctionObject(["x", "z"], recipe, name="quadratic")


class TestConvergenceCheck:
    def test_zero_step_converges(self):
        cfg = FpiConfig(tol=1e-30)
        ok, res = convergence_check(Tensor([1.0, 0.0]), Tensor([1.0, 0.0]), cfg)
        assert ok and res == 0.0

    def test_relative_beta_hand_value(self):
        cfg = FpiConfig(tol=1.0, criterion=Criterion.RELATIVE_BETA)
        _, res = convergence_check(Tensor([2.0]), Tensor([2.1]), cfg)
        assert abs(res - 0.01 / 4.0) < 1e-15

    def test_zero_previous_iterate_falls_back_to_absolute(self):
        cfg = FpiConfig(tol=1e-12, criterion=Criterion.RELATIVE_BETA)
        ok, res = convergence_check(T.zeros(1), Tensor([1e-9]), cfg)
        assert ok and abs(res - 1e-18) < 1e-30

    def test_absolute_beta(self):
        cfg = FpiConfig(tol=1e-3, criterion=Criterion.ABSOLUTE_BETA)
        ok, res = convergence_check(Tensor([5.0]), Tensor([5.01]), cfg)
        assert ok and abs(res - 1e-4) < 1e-12


class TestForwardFpi:
    def test_scalar_geometric_series(self):
        g = AffineG(1)
        theta = Parameters({"a": Tensor([[0.5]]), "b": T.zeros(1)})
        cfg = FpiConfig(tol=1e-12, max_iter=200)
        res = forward_fpi(g, T.zeros((1, 1)), Tensor([[1.0]]), theta, cfg)
        assert res.converged
        # beta < 1e-12 stops once the relative step is below 1e-6
        assert abs(res.x_hat.item() - 2.0) < 1e-5
        assert 10 <= res.iterations <= 40

    def test_linear_solve_oracle(self):
        rng = np.random.default_rng(41)
        g = AffineG(6)
        theta = affine_params(rng, 6, 0.8)
        z = Tensor(rng.standard_normal((6, 1)))
        cfg = FpiConfig(tol=1e-26, criterion=Criterion.ABSOLUTE_BETA, max_iter=2000)
        res = forward_fpi(g, T.zeros((6, 1)), z, theta, cfg)
        want = np.linalg.solve(np.eye(6) - theta["a"].data,
                               theta["b"].data[:, None] + z.data)
        assert res.converged
        assert np.max(np.abs(res.x_hat.data - want)) < 1e-8

    def test_unique_fixed_point_from_any_start(self):
        rng = np.random.default_rng(43)
        g = AffineG(6)
        theta = affine_params(rng, 6, 0.8)
        z = Tensor(rng.standard_normal((6, 1)))
        tol = 1e-10
        cfg = FpiConfig(tol=(tol / 2) ** 2, criterion=Criterion.ABSOLUTE_BETA, max_iter=2000)
        sols = [forward_fpi(g, Tensor(rng.standard_normal((6, 1)) * 10), z, theta, cfg)
                for _ in range(5)]
        for r in sols:
            assert r.converged
        for i in range(5):
            for j in range(i + 1, 5):
                diff = np.linalg.norm(sols[i].x_hat.data - sols[j].x_hat.data)
                assert diff <= 10 * tol

    def test_residual_bound_on_converged_results(self):
        rng = np.random.default_rng(47)
        g = AffineG(5)
        theta = affine_params(rng, 5, 0.7)
        z = Tensor(rng.standard_normal((5, 1)))
        for tol in (1e-6, 1e-10, 1e-14):
            cfg = FpiConfig(tol=tol, max_iter=2000)
            res = forward_fpi(g, T.zeros((5, 1)), z, theta, cfg)
            assert res.converged
            resid = np.linalg.norm(g.apply(res.x_hat, z, theta).data - res.x_hat.data)
            assert resid <= np.sqrt(tol) * max(1.0, np.linalg.norm(res.x_hat.data))

    def test_max_iter_reached_reports_unconverged(self):
        rng = np.random.default_rng(53)
        g = AffineG(3)
        theta = affine_params(rng, 3, 1.2)    # not a contraction
        z = Tensor(rng.standard_normal((3, 1)))
        cfg = FpiConfig(tol=1e-12, max_iter=50)
        res = forward_fpi(g, T.zeros((3, 1)), z, theta, cfg)
        assert not res.converged
        assert res.iterations == 50

    def test_divergence_error_carries_iteration(self):
        g = AffineG(1)
        theta = Parameters({"a": Tensor([[40.0]]), "b": T.zeros(1)})
        cfg = FpiConfig(tol=1e-12, max_iter=500)
        with pytest.raises(DivergenceError) as exc:
            forward_fpi(g, Tensor([[1.0]]), Tensor([[1.0]]), theta, cfg)
        assert exc.value.iteration > 1


def loss_grad_out(x_hat: Tensor) -> Tensor:
    """d/dx of L(x) = sum(x): all-ones cotangent."""
    return T.ones(x_hat.shape)


def sum_loss_fo() -> FunctionObject:
    return FunctionObject(["x"], lambda g, ins: g.reduce_sum(ins["x"]), name="sum_loss")


class TestBackwardFpi:
    def test_scalar_hand_derivative(self):
        g = AffineG(1)
        theta = Parameters({"a": Tensor([[0.5]]), "b": T.zeros(1)})
        z = Tensor([[1.0]])
        cfg = FpiConfig(tol=1e-28, criterion=Criterion.ABSOLUTE_BETA, max_iter=500)
        res = forward_fpi(g, T.zeros((1, 1)), z, theta, cfg)
        bw = backward_fpi(g, res.x_hat, z, theta, T.ones((1, 1)), cfg)
        # x_hat = z/(1-a): d/da = x_hat/(1-a) = 4, d/dz = 1/(1-a) = 2
        assert abs(bw.grad_theta["a"].item() - 4.0) < 1e-8
        assert abs(bw.grad_z.item() - 2.0) < 1e-8
        assert bw.converged

    def test_matches_closed_form_on_random_linear(self):
        rng = np.random.default_rng(59)
        g = AffineG(6)
        theta = affine_params(rng, 6, 0.8)
        z = Tensor(rng.standard_normal((6, 1)))
        cfg = FpiConfig(tol=1e-28, criterion=Criterion.ABSOLUTE_BETA, max_iter=3000)
        res = forward_fpi(g, T.zeros((6, 1)), z, theta, cfg)
        grad_out = Tensor(rng.standard_normal((6, 1)))
        bw = backward_fpi(g, res.x_hat, z, theta, grad_out, cfg)
        cf_theta, cf_z = closed_form_gradient(g, res.x_hat, z, theta, grad_out)
        for name in g.param_names:
            assert rel_err(bw.grad_theta[name].data, cf_theta[name].data) < 1e-8
        assert rel_err(bw.grad_z.data, cf_z.data) < 1e-8

    def test_matches_unrolled_on_projected_mlp(self):
        rng = np.random.default_rng(61)
        g = MlpG(state_dim=10, input_dim=4, hidden=8)
        theta = lipschitz_project(g.init_params(1.0, rng), 0.9)
        z = Tensor(rng.standard_normal((4, 1)))
        cfg = FpiConfig(tol=1e-24, criterion=Criterion.ABSOLUTE_BETA, max_iter=3000)
        res = forward_fpi(g, T.zeros((10, 1)), z, theta, cfg)
        assert res.converged
        bw = backward_fpi(g, res.x_hat, z, theta, loss_grad_out(res.x_hat), cfg)
        un_theta, un_z = unrolled_gradient(g, T.zeros((10, 1)), z, theta, 500, sum_loss_fo())
        for name in g.param_names:
            assert rel_err(bw.grad_theta[name].data, un_theta[name].data) < 1e-5
        assert rel_err(bw.grad_z.data, un_z.data) < 1e-5

    def test_unconverged_backward_flags(self):
        rng = np.random.default_rng(67)
        g = AffineG(3)
        theta = affine_params(rng, 3, 1.2)
        x_fake = Tensor(rng.standard_normal((3, 1)))
        z = Tensor(rng.standard_normal((3, 1)))
        cfg = FpiConfig(tol=1e-20, criterion=Criterion.ABSOLUTE_BETA, max_iter=40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bw = backward_fpi(g, x_fake, z, theta, T.ones((3, 1)), cfg)
        assert bw.converged is False
        assert caught == []     # the result is the report; the caller decides

    def test_zero_grad_out_converges_to_zero_gradients(self):
        rng = np.random.default_rng(71)
        g = AffineG(4)
        theta = affine_params(rng, 4, 0.5)
        z = Tensor(rng.standard_normal((4, 1)))
        cfg = FpiConfig(tol=1e-20, criterion=Criterion.ABSOLUTE_BETA)
        res = forward_fpi(g, T.zeros((4, 1)), z, theta, cfg)
        bw = backward_fpi(g, res.x_hat, z, theta, T.zeros((4, 1)), cfg)
        assert np.all(bw.grad_z.data == 0.0)
        assert all(np.all(bw.grad_theta[n].data == 0.0) for n in g.param_names)


def _cotangent_case(kind: str):
    """A module, its state/input values, parameters, grad_out and a cotangent."""
    rng = np.random.default_rng(83)
    module, x_shape, z_shape = {
        "AffineG": (AffineG(4), (4, 3), (4, 3)),
        "MlpG": (MlpG(state_dim=4, input_dim=3, hidden=5), (4, 3), (3, 3)),
        "ConvG": (ConvG(channels=4), (1, 6, 6), (1, 6, 6)),
        "GdG": (GdG(EnergyNet(3, 2, 5, body_dim=3), gamma=0.5), (3, 4), (2, 4)),
    }[kind]
    theta = module.init_params(0.5, rng)
    x, z, grad_out, c = (Tensor(rng.standard_normal(s))
                         for s in (x_shape, z_shape, x_shape, x_shape))
    return module, x, z, theta, grad_out, c


def _count_calls(monkeypatch, kernel: str) -> list:
    calls, original = [], getattr(T, kernel)

    def counting(*args):
        calls.append(kernel)
        return original(*args)
    monkeypatch.setattr(T, kernel, counting)
    return calls


class TestCotangentIteration:
    """The pruned sweeps of the backward layer give exactly the entries of
    one full VJP through g, and skip the work the step does not read."""

    @pytest.mark.parametrize("kind", ["AffineG", "MlpG", "ConvG", "GdG"])
    def test_step_and_final_grads_equal_one_full_vjp(self, kind):
        module, x, z, theta, grad_out, c = _cotangent_case(kind)
        full = vjp(module.function_object(), {"x": x, "z": z, **theta}, c)
        it = _CotangentIteration(module, x, z, theta, grad_out)
        assert np.array_equal(it.step(c).data, full["x"].data + grad_out.data)
        grad_theta, grad_z = it.final_grads(c)
        assert np.array_equal(grad_z.data, full["z"].data)
        for name in module.param_names:
            assert np.array_equal(grad_theta[name].data, full[name].data)

    def test_conv_step_skips_the_kernel_adjoint(self, monkeypatch):
        module, x, z, theta, grad_out, c = _cotangent_case("ConvG")
        it = _CotangentIteration(module, x, z, theta, grad_out)
        calls = _count_calls(monkeypatch, "conv2d_grad_kernel")
        it.step(c)
        assert len(calls) == 0
        it.final_grads(c)
        assert len(calls) == 2      # one per conv kernel

    @pytest.mark.parametrize("kind", ["MlpG", "GdG"])
    def test_dependent_sets_are_computed_once_per_solve(self, kind, monkeypatch):
        # every step sweeps the same retained arenas, which keep their
        # dependent sets, so a longer solve scans them no more often
        module, x, z, theta, grad_out, _ = _cotangent_case(kind)
        original, calls = graph_mod._dependents, []

        def counting(*args):
            calls.append(1)
            return original(*args)
        monkeypatch.setattr(graph_mod, "_dependents", counting)
        counts = []
        for max_iter in (2, 8):
            calls.clear()
            res = backward_fpi(module, x, z, theta, grad_out,
                               FpiConfig(tol=1e-300, max_iter=max_iter))
            assert res.iterations == max_iter
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("kind", ["MlpG", "ConvG", "GdG"])
    def test_steps_and_final_sweep_record_no_node(self, kind, monkeypatch):
        # every sweep of the solve is a value sweep: no node on the graph of
        # g, nor on the inner graph of GdG's partial_diff
        module, x, z, theta, grad_out, c = _cotangent_case(kind)
        it = _CotangentIteration(module, x, z, theta, grad_out)
        original, appends = Graph._append, []

        def counting(self, *args):
            appends.append(self)
            return original(self, *args)
        monkeypatch.setattr(Graph, "_append", counting)
        for _ in range(10):
            c = it.step(c)
        it.final_grads(c)
        assert appends == []

    def test_gd_step_differentiates_only_through_x(self, monkeypatch):
        module, x, z, theta, grad_out, c = _cotangent_case("GdG")
        it = _CotangentIteration(module, x, z, theta, grad_out)
        calls = _count_calls(monkeypatch, "matmul")
        it.step(c)
        assert len(calls) == 4      # the x terms only
        it.final_grads(c)
        assert len(calls) == 4 + 8  # final_grads builds the parameter terms too


class TestFpiGdStep:
    def test_exact_projection_in_one_step(self):
        rng = np.random.default_rng(73)
        z = Tensor(rng.standard_normal((4, 1)))
        x = Tensor(rng.standard_normal((4, 1)))

        class HalfSq:
            param_names = ()
            state_dim = 4

            def function_object(self):
                def recipe(g, ins):
                    d = g.sub(ins["x"], ins["z"])
                    return g.scale(g.sq_norm(d), 0.5)
                return FunctionObject(["x", "z"], recipe, name="half_sq")

        out = GdG(HalfSq(), gamma=1.0).apply(x, z, Parameters())
        np.testing.assert_allclose(out.data, z.data, atol=1e-14)

    def test_quadratic_contracts_to_zero(self):
        f = QuadraticEnergy([1.0, 2.0])
        gd = GdG(f, gamma=0.4)
        z = T.zeros((2, 1))
        cfg = FpiConfig(tol=1e-26, criterion=Criterion.ABSOLUTE_BETA, max_iter=500)
        res = forward_fpi(gd, Tensor([[3.0], [-2.0]]), z, Parameters(), cfg)
        assert res.converged
        assert np.max(np.abs(res.x_hat.data)) < 1e-11
        k = spectral_norm_jacobian(gd, res.x_hat, z, Parameters(), iters=30)
        assert abs(k - 0.6) < 1e-5   # max |1 - gamma * d_i|

    def test_stationarity_bound_at_convergence(self):
        rng = np.random.default_rng(79)
        f = EnergyNet(state_dim=3, input_dim=2, hidden=5)
        theta = f.init_params(0.5, rng)
        gamma = 0.5
        gd = GdG(f, gamma=gamma)
        z = Tensor(rng.standard_normal((2, 1)))
        tol = 1e-10
        cfg = FpiConfig(tol=tol, criterion=Criterion.ABSOLUTE_BETA, max_iter=2000)
        res = forward_fpi(gd, T.zeros((3, 1)), z, theta, cfg)
        assert res.converged
        grad = GdG(f, gamma=1.0).apply(res.x_hat, z, theta)  # x - df/dx
        grad_norm = np.linalg.norm(res.x_hat.data - grad.data)
        assert grad_norm <= np.sqrt(tol) / gamma


class TestSpectralNormJacobian:
    def test_diagonal_linear_map(self):
        g = AffineG(2)
        theta = Parameters({"a": Tensor(np.diag([0.5, 0.3])), "b": T.zeros(2)})
        est = spectral_norm_jacobian(g, T.zeros((2, 1)), T.zeros((2, 1)), theta, iters=40)
        assert abs(est - 0.5) < 1e-6

    def test_matches_svd_on_random_linear(self):
        rng = np.random.default_rng(83)
        g = AffineG(8)
        theta = affine_params(rng, 8, 1.7)
        want = np.linalg.svd(theta["a"].data, compute_uv=False)[0]
        est = spectral_norm_jacobian(g, T.zeros((8, 1)), T.zeros((8, 1)), theta,
                                     iters=300, rng=np.random.default_rng(5))
        assert abs(est - want) < 1e-6

    def test_projected_layer_certified(self):
        rng = np.random.default_rng(89)
        g = AffineG(5)
        theta = lipschitz_project(affine_params(rng, 5, 2.5), 0.9)
        est = spectral_norm_jacobian(g, T.zeros((5, 1)), T.zeros((5, 1)), theta, iters=200)
        assert est <= 0.9 + 1e-6

    def test_estimate_nondecreasing_in_iters(self):
        rng = np.random.default_rng(97)
        g = AffineG(6)
        theta = affine_params(rng, 6, 0.8)
        prev = 0.0
        for iters in (1, 3, 10, 40):
            est = spectral_norm_jacobian(g, T.zeros((6, 1)), T.zeros((6, 1)), theta,
                                         iters=iters, rng=np.random.default_rng(1))
            assert est >= prev - 1e-9
            prev = est


class TestClosedFormGradient:
    def test_scalar_exact(self):
        g = AffineG(1)
        theta = Parameters({"a": Tensor([[0.5]]), "b": T.zeros(1)})
        z = Tensor([[1.0]])
        x_hat = Tensor([[2.0]])
        grad_theta, grad_z = closed_form_gradient(g, x_hat, z, theta, T.ones((1, 1)))
        assert abs(grad_theta["a"].item() - 4.0) < 1e-12
        assert abs(grad_z.item() - 2.0) < 1e-12

    def test_constant_map_reduces_to_direct_gradient(self):
        g = AffineG(3)
        theta = Parameters({"a": T.zeros((3, 3)), "b": Tensor([1.0, 2.0, 3.0])})
        z = T.zeros((3, 1))
        x_hat = Tensor([[1.0], [2.0], [3.0]])
        grad_out = Tensor([[1.0], [0.5], [-1.0]])
        grad_theta, _ = closed_form_gradient(g, x_hat, z, theta, grad_out)
        np.testing.assert_allclose(grad_theta["b"].data, grad_out.data.ravel(), atol=1e-14)

    def test_non_contraction_raises_conditioning_error(self):
        g = AffineG(2)
        theta = Parameters({"a": Tensor(np.eye(2)), "b": T.zeros(2)})
        with pytest.raises(ConditioningError):
            closed_form_gradient(g, T.zeros((2, 1)), T.zeros((2, 1)), theta, T.ones((2, 1)))

    def test_dimension_cap(self):
        g = AffineG(40)
        theta = Parameters({"a": T.zeros((40, 40)), "b": T.zeros(40)})
        with pytest.raises(Exception, match="capped"):
            closed_form_gradient(g, T.zeros((40, 1)), T.zeros((40, 1)), theta,
                                 T.ones((40, 1)))


class TestUnrolledGradient:
    def test_single_step_equals_plain_backward(self):
        rng = np.random.default_rng(101)
        g = AffineG(4)
        theta = affine_params(rng, 4, 0.8)
        z = Tensor(rng.standard_normal((4, 1)))
        x0 = Tensor(rng.standard_normal((4, 1)))
        un_theta, un_z = unrolled_gradient(g, x0, z, theta, 1, sum_loss_fo())

        gr = Graph()
        tnodes = {n: gr.leaf(theta[n]) for n in g.param_names}
        znode = gr.leaf(z)
        out = gr.reduce_sum(g.build(gr, gr.leaf(x0), znode, tnodes))
        grads = backward(gr, out, Tensor(1.0))
        for n in g.param_names:
            np.testing.assert_array_equal(un_theta[n].data, grads[tnodes[n].id].data)
        np.testing.assert_array_equal(un_z.data, grads[znode.id].data)

    def test_converges_to_closed_form(self):
        rng = np.random.default_rng(103)
        g = AffineG(6)
        theta = affine_params(rng, 6, 0.8)
        z = Tensor(rng.standard_normal((6, 1)))
        x_hat = Tensor(np.linalg.solve(np.eye(6) - theta["a"].data,
                                       theta["b"].data[:, None] + z.data))
        cf_theta, cf_z = closed_form_gradient(g, x_hat, z, theta, T.ones((6, 1)))
        un_theta, un_z = unrolled_gradient(g, T.zeros((6, 1)), z, theta, 200, sum_loss_fo())
        for n in g.param_names:
            assert rel_err(un_theta[n].data, cf_theta[n].data) < 1e-8
        assert rel_err(un_z.data, cf_z.data) < 1e-8

    def test_error_decays_geometrically(self):
        rng = np.random.default_rng(107)
        g = AffineG(5)
        theta = affine_params(rng, 5, 0.5)
        z = Tensor(rng.standard_normal((5, 1)))
        x_hat = Tensor(np.linalg.solve(np.eye(5) - theta["a"].data,
                                       theta["b"].data[:, None] + z.data))
        cf_theta, _ = closed_form_gradient(g, x_hat, z, theta, T.ones((5, 1)))
        errs = []
        for n_steps in (5, 10, 15, 20):
            un_theta, _ = unrolled_gradient(g, T.zeros((5, 1)), z, theta, n_steps,
                                            sum_loss_fo())
            errs.append(np.linalg.norm(un_theta["a"].data - cf_theta["a"].data))
        # slope of log-error per 5 steps should be about 5*log(0.5)
        slopes = np.diff(np.log(errs))
        assert np.all(slopes < 5 * np.log(0.5) * 0.5)   # at least half the ideal rate


class TestFpiLayerNode:
    def test_layer_node_trains_like_direct_backward(self):
        rng = np.random.default_rng(109)
        g = AffineG(4)
        theta = affine_params(rng, 4, 0.6)
        z = Tensor(rng.standard_normal((4, 1)))
        cfg = FpiConfig(tol=1e-26, criterion=Criterion.ABSOLUTE_BETA, max_iter=2000)

        gr = Graph()
        znode = gr.leaf(z)
        tnodes = {n: gr.leaf(theta[n]) for n in g.param_names}
        node = fpi_layer(gr, g, znode, tnodes, cfg)
        assert node.attrs["result"].converged
        loss = gr.reduce_sum(node)
        grads = backward(gr, loss, Tensor(1.0))

        bw = backward_fpi(g, node.value, z, theta, T.ones((4, 1)), cfg)
        for n in g.param_names:
            np.testing.assert_allclose(grads[tnodes[n].id].data, bw.grad_theta[n].data,
                                       rtol=1e-12)
        np.testing.assert_allclose(grads[znode.id].data, bw.grad_z.data, rtol=1e-12)

    def test_backward_memory_independent_of_forward_iterations(self):
        rng = np.random.default_rng(113)
        g = AffineG(6)
        theta = affine_params(rng, 6, 0.9)   # slow contraction: many iterations
        z = Tensor(rng.standard_normal((6, 1)))
        peaks, iters = [], []
        for tol in (1e-4, 1e-8, 1e-12):
            cfg = FpiConfig(tol=tol, criterion=Criterion.ABSOLUTE_BETA, max_iter=5000)
            res = forward_fpi(g, T.zeros((6, 1)), z, theta, cfg)
            iters.append(res.iterations)
            graph_mod.reset_peak_live_node_count()
            base = live_node_count()
            backward_fpi(g, res.x_hat, z, theta, T.ones((6, 1)), cfg)
            peaks.append(graph_mod.peak_live_node_count() - base)
        assert iters[0] < iters[1] < iters[2]
        # peak transient node count must not scale with iteration count
        assert max(peaks) - min(peaks) <= 2 * max(peaks[0], 1) // 10 + 5


class TestPropositionOneDiagnostic:
    def test_backward_iterations_bounded_by_contraction_rate(self):
        rng = np.random.default_rng(127)
        for norm in (0.5, 0.8, 0.9):
            g = AffineG(6)
            theta = affine_params(rng, 6, norm)
            z = Tensor(rng.standard_normal((6, 1)))
            tol = 1e-10
            cfg = FpiConfig(tol=tol, criterion=Criterion.ABSOLUTE_BETA, max_iter=5000)
            res = forward_fpi(g, T.zeros((6, 1)), z, theta, cfg)
            k = spectral_norm_jacobian(g, res.x_hat, z, theta, iters=100)
            assert k < 1.0
            bw = backward_fpi(g, res.x_hat, z, theta, T.ones((6, 1)), cfg)
            assert bw.converged
            bound = 3.0 * np.log(1.0 / tol) / np.log(1.0 / k)
            assert bw.iterations <= bound
