"""Randomized verification suite: gradient-oracle agreement, fixed-point
uniqueness, backward convergence rate, descent stationarity, second
derivatives, and memory behavior.

Every check compares an observed quantity against an explicit threshold and
reports one outcome, so the CLI can print a pass/fail table and the
acceptance tests can assert on the same outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as graph_mod
from . import tensor as T
from .fpi import (
    Criterion,
    FpiConfig,
    backward_fpi,
    closed_form_gradient,
    forward_fpi,
    spectral_norm_jacobian,
    unrolled_gradient,
)
from .graph import FunctionObject, Graph, backward, partial_diff
from .layers import AffineG, EnergyNet, GdG, GModule, MlpG, Parameters, lipschitz_project
from .tensor import Tensor


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    observed: float
    threshold: float


@dataclass
class ModelSpec:
    name: str
    module: GModule
    theta: Parameters
    z: Tensor


def contractive_affine(rng: np.random.Generator, dim: int, norm: float) -> Parameters:
    a = rng.standard_normal((dim, dim))
    a *= norm / np.linalg.svd(a, compute_uv=False)[0]
    return Parameters({"a": Tensor(a), "b": Tensor(rng.standard_normal(dim))})


class QuadraticEnergy(GModule):
    """Strongly convex energy |W[x;z] + b|^2 / h + 0.5 mu |x|^2 for the zoo.

    Unlike the relu energy the Hessian is positive definite everywhere, so the
    descent map has a unique fixed point and I - dg/dx stays invertible, which
    the closed-form oracle requires.
    """

    param_names = ("w", "b")

    def __init__(self, state_dim: int, input_dim: int, hidden: int, mu: float = 0.4):
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.hidden = hidden
        self.mu = mu

    def param_shapes(self):
        return {"w": (self.hidden, self.state_dim + self.input_dim), "b": (self.hidden,)}

    def build(self, g, x, z, params):
        xz = g.concat([x, z], axis=0)
        u = g.add(g.matmul(params["w"], xz), g.tile_cols(params["b"], x.shape[1]))
        quad = g.scale(g.sq_norm(u), 1.0 / self.hidden)
        return g.add(quad, g.scale(g.sq_norm(x), 0.5 * self.mu))

    def hessian_x(self, theta: Parameters) -> np.ndarray:
        """The (constant) Hessian in x: 2/h W_x^T W_x + mu I."""
        wx = theta["w"].data[:, : self.state_dim]
        return 2.0 / self.hidden * wx.T @ wx + self.mu * np.eye(self.state_dim)

    def descent_gamma(self, theta: Parameters) -> float:
        """Step size 2/(lmin+lmax): the descent map contracts with the best
        possible factor (lmax-lmin)/(lmax+lmin), bounded well below 1 since
        the mu anchor keeps the spectrum ratio moderate."""
        eigs = np.linalg.eigvalsh(self.hessian_x(theta))
        return float(2.0 / (eigs[0] + eigs[-1]))


def build_model_zoo(seed: int, n_models: int = 20) -> list[ModelSpec]:
    """Seeded contractive models: affine maps, projected MLPs, and descent
    steps on small energies, cycled until ``n_models`` entries exist."""
    rng = np.random.default_rng(seed)
    zoo: list[ModelSpec] = []
    kind = 0
    while len(zoo) < n_models:
        idx = len(zoo)
        if kind == 0:
            dim = int(rng.integers(2, 9))
            norm = float(rng.uniform(0.4, 0.9))
            module = AffineG(dim)
            theta = contractive_affine(rng, dim, norm)
            z = Tensor(rng.standard_normal((dim, 1)))
            zoo.append(ModelSpec(f"affine{idx}_d{dim}", module, theta, z))
        elif kind == 1:
            dim = int(rng.integers(2, 11))
            dz = int(rng.integers(2, 6))
            module = MlpG(dim, dz, hidden=int(rng.integers(4, 9)))
            theta = lipschitz_project(module.init_params(1.0, rng), 0.9)
            z = Tensor(rng.standard_normal((dz, 1)))
            zoo.append(ModelSpec(f"mlp{idx}_d{dim}", module, theta, z))
        else:
            dim = int(rng.integers(2, 7))
            dz = int(rng.integers(2, 5))
            energy = QuadraticEnergy(dim, dz, hidden=int(rng.integers(dim, dim + 4)))
            theta = Parameters({
                "w": Tensor(rng.standard_normal((energy.hidden, dim + dz)) * 0.7),
                "b": Tensor(rng.standard_normal(energy.hidden) * 0.3),
            })
            module = GdG(energy, gamma=energy.descent_gamma(theta))
            z = Tensor(rng.standard_normal((dz, 1)))
            zoo.append(ModelSpec(f"gd{idx}_d{dim}", module, theta, z))
        kind = (kind + 1) % 3
    return zoo


def _sum_loss() -> FunctionObject:
    return FunctionObject(["x"], lambda g, ins: g.reduce_sum(ins["x"]), name="sum_loss")


def _solve(spec: ModelSpec, tol: float = 1e-24):
    cfg = FpiConfig(tol=tol, criterion=Criterion.ABSOLUTE_BETA, max_iter=5000)
    res = forward_fpi(spec.module, T.zeros(spec.module.state_shape(spec.z)),
                      spec.z, spec.theta, cfg)
    return res, cfg


def _flatten_theta(theta: Parameters, names) -> np.ndarray:
    return np.concatenate([theta[n].data.ravel() for n in names])


def check_gradient_agreement(zoo: list[ModelSpec], tol_closed: float = 1e-6,
                             tol_unrolled: float = 1e-5, tol_fd: float = 1e-4,
                             seed: int = 0) -> list[CheckOutcome]:
    """Three-way agreement of the implicit gradient with both oracles, plus a
    directional finite-difference probe of the loss itself."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for spec in zoo:
        g = spec.module
        res, cfg = _solve(spec)
        grad_out = T.ones(res.x_hat.shape)
        bw = backward_fpi(g, res.x_hat, spec.z, spec.theta, grad_out, cfg)
        cf_theta, _ = closed_form_gradient(g, res.x_hat, spec.z, spec.theta, grad_out)
        un_theta, _ = unrolled_gradient(g, T.zeros(res.x_hat.shape), spec.z, spec.theta,
                                        500, _sum_loss())
        names = g.param_names
        got = _flatten_theta(bw.grad_theta, names)
        cf = _flatten_theta(cf_theta, names)
        un = _flatten_theta(un_theta, names)
        err_cf = np.linalg.norm(got - cf) / max(np.linalg.norm(cf), 1e-300)
        err_un = np.linalg.norm(got - un) / max(np.linalg.norm(un), 1e-300)
        outcomes.append(CheckOutcome(f"{spec.name}:backward_vs_closed_form",
                                     err_cf < tol_closed, err_cf, tol_closed))
        outcomes.append(CheckOutcome(f"{spec.name}:backward_vs_unrolled",
                                     err_un < tol_unrolled, err_un, tol_unrolled))

        # directional finite differences of L(theta) = sum(x_hat(theta))
        err_fd = 0.0
        for _ in range(2):
            direction = rng.standard_normal(got.shape)
            direction /= np.linalg.norm(direction)
            step = 1e-5
            vals = []
            for sign in (+1.0, -1.0):
                shifted = Parameters()
                offset = 0
                for n in names:
                    size = spec.theta[n].size
                    chunk = direction[offset:offset + size].reshape(spec.theta[n].shape)
                    shifted[n] = Tensor(spec.theta[n].data + sign * step * chunk)
                    offset += size
                sres = forward_fpi(g, T.zeros(res.x_hat.shape), spec.z, shifted, cfg)
                vals.append(float(np.sum(sres.x_hat.data)))
            fd = (vals[0] - vals[1]) / (2.0 * step)
            analytic = float(np.dot(got, direction))
            scale = max(abs(fd), abs(analytic), 1e-300)
            err_fd = max(err_fd, abs(fd - analytic) / scale)
        outcomes.append(CheckOutcome(f"{spec.name}:gradients_vs_fd",
                                     err_fd < tol_fd, err_fd, tol_fd))
    return outcomes


def check_banach(zoo: list[ModelSpec], tol: float = 1e-10, starts: int = 5,
                 seed: int = 1) -> list[CheckOutcome]:
    """Unique fixed point: starts far apart must land pairwise within 10*tol,
    and every converged solve must satisfy the residual bound."""
    rng = np.random.default_rng(seed)
    outcomes = []
    solver_tol = (tol / 2.0) ** 2     # step bound tol/2 keeps the error below 5*tol
    for spec in zoo:
        cfg = FpiConfig(tol=solver_tol, criterion=Criterion.ABSOLUTE_BETA, max_iter=20000)
        shape = spec.module.state_shape(spec.z)
        sols = []
        worst_resid = 0.0
        ok = True
        for _ in range(starts):
            x0 = Tensor(rng.standard_normal(shape) * 5.0)
            res = forward_fpi(spec.module, x0, spec.z, spec.theta, cfg)
            ok &= res.converged
            sols.append(res.x_hat.data)
            gx = spec.module.apply(res.x_hat, spec.z, spec.theta).data
            bound = np.sqrt(cfg.tol) * max(1.0, np.linalg.norm(res.x_hat.data))
            worst_resid = max(worst_resid, np.linalg.norm(gx - res.x_hat.data) / bound)
        spread = max(np.linalg.norm(a - b) for i, a in enumerate(sols)
                     for b in sols[i + 1:])
        outcomes.append(CheckOutcome(f"{spec.name}:banach_spread",
                                     ok and spread <= 10 * tol, spread, 10 * tol))
        outcomes.append(CheckOutcome(f"{spec.name}:fixed_point_residual",
                                     worst_resid <= 1.0, worst_resid, 1.0))
    return outcomes


def check_backward_rate(zoo: list[ModelSpec], tol: float = 1e-10,
                        rate_constant: float = 3.0, seed: int = 2) -> list[CheckOutcome]:
    """Backward iteration count against the geometric bound implied by the
    measured contraction factor, plus a non-contraction that must be flagged."""
    outcomes = []
    for spec in zoo:
        res, _ = _solve(spec)
        k = spectral_norm_jacobian(spec.module, res.x_hat, spec.z, spec.theta, iters=60)
        if k > 0.9:
            continue
        cfg = FpiConfig(tol=tol, criterion=Criterion.ABSOLUTE_BETA, max_iter=20000)
        bw = backward_fpi(spec.module, res.x_hat, spec.z, spec.theta,
                          T.ones(res.x_hat.shape), cfg)
        if k == 0.0:   # constant map: one iteration, any bound holds
            bound = float(cfg.max_iter)
        else:
            bound = rate_constant * np.log(1.0 / tol) / np.log(1.0 / k)
        outcomes.append(CheckOutcome(f"{spec.name}:backward_rate(k={k:.2f})",
                                     bw.converged and bw.iterations <= bound,
                                     float(bw.iterations), bound))

    rng = np.random.default_rng(seed)
    module = AffineG(4)
    # scale to spectral *radius* 1.2: the cotangent iteration genuinely diverges
    a = rng.standard_normal((4, 4))
    a *= 1.2 / np.max(np.abs(np.linalg.eigvals(a)))
    theta = Parameters({"a": Tensor(a), "b": Tensor(rng.standard_normal(4))})
    z = Tensor(rng.standard_normal((4, 1)))
    x_fake = Tensor(rng.standard_normal((4, 1)))
    bw = backward_fpi(module, x_fake, z, theta, T.ones((4, 1)),
                      FpiConfig(tol=1e-10, criterion=Criterion.ABSOLUTE_BETA, max_iter=200))
    outcomes.append(CheckOutcome("injected_k1.2:flagged_divergent",
                                 not bw.converged, float(bw.converged), 0.5))
    return outcomes


def check_stationarity(seed: int = 3, n_models: int = 6) -> list[CheckOutcome]:
    """Converged descent fixed points must have gradient norm <= sqrt(tol)/gamma."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for idx in range(n_models):
        dim = int(rng.integers(2, 7))
        dz = int(rng.integers(2, 5))
        energy = EnergyNet(dim, dz, hidden=int(rng.integers(4, 9)))
        theta = energy.init_params(0.6, rng)
        # keep gamma * L in (0.5, 1.0) so the descent contracts at a usable rate
        wx = theta["w1"].data[:, :dim]
        lip = 2.0 / energy.hidden * np.linalg.svd(wx, compute_uv=False)[0] ** 2
        gamma = float(rng.uniform(0.5, 1.0) / lip)
        module = GdG(energy, gamma=gamma)
        z = Tensor(rng.standard_normal((dz, 1)))
        tol = 1e-12
        cfg = FpiConfig(tol=tol, criterion=Criterion.ABSOLUTE_BETA, max_iter=20000)
        res = forward_fpi(module, T.zeros((dim, 1)), z, theta, cfg)
        if not res.converged:
            outcomes.append(CheckOutcome(f"gd_stationarity{idx}:unconverged",
                                         False, float("inf"), np.sqrt(tol) / gamma))
            continue
        g = Graph()
        s = {"x": g.leaf(res.x_hat), "z": g.leaf(z),
             **{n: g.leaf(theta[n]) for n in energy.param_names}}
        (grad_x,) = partial_diff(g, s, energy.function_object(), wrt=["x"])
        norm = float(np.linalg.norm(grad_x.value.data))
        outcomes.append(CheckOutcome(f"gd_stationarity{idx}",
                                     norm <= np.sqrt(tol) / gamma, norm,
                                     np.sqrt(tol) / gamma))
    return outcomes


def check_double_backward(seed: int = 4) -> list[CheckOutcome]:
    """Second derivatives through the partial operator against hand calculus."""
    rng = np.random.default_rng(seed)
    xv = rng.standard_normal(5)
    w = rng.standard_normal(5)

    def quartic(g, ins):
        x2 = g.mul(ins["x"], ins["x"])
        return g.reduce_sum(g.mul(x2, x2))

    g = Graph()
    x = g.leaf(Tensor(xv))
    (p,) = partial_diff(g, {"x": x}, FunctionObject(["x"], quartic, name="quartic"))
    out = g.dot(g.leaf(Tensor(w)), p)
    grads = backward(g, out, Tensor(1.0))
    got = grads[x.id].data
    want = 12.0 * xv ** 2 * w
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    return [CheckOutcome("double_backward_quartic", err < 1e-10, err, 1e-10)]


def check_constant_memory(seed: int = 5) -> list[CheckOutcome]:
    """Peak transient node count of the backward layer must not scale with the
    number of forward iterations (driven here by the tolerance)."""
    rng = np.random.default_rng(seed)
    module = AffineG(6)
    theta = contractive_affine(rng, 6, 0.9)
    z = Tensor(rng.standard_normal((6, 1)))
    peaks, iters = [], []
    for tol in (1e-4, 1e-8, 1e-12):
        cfg = FpiConfig(tol=tol, criterion=Criterion.ABSOLUTE_BETA, max_iter=20000)
        res = forward_fpi(module, T.zeros((6, 1)), z, theta, cfg)
        iters.append(res.iterations)
        graph_mod.reset_peak_live_node_count()
        base = graph_mod.live_node_count()
        backward_fpi(module, res.x_hat, z, theta, T.ones((6, 1)), cfg)
        peaks.append(graph_mod.peak_live_node_count() - base)
    growing = iters[0] < iters[1] < iters[2]
    spread = max(peaks) - min(peaks)
    # allow one per-step transient of slack between the three peaks
    budget = max(peaks[0] // 10, 8)
    return [CheckOutcome("constant_memory_backward",
                         growing and spread <= budget, float(spread), float(budget))]


def run_all(seed: int, n_models: int = 20) -> list[CheckOutcome]:
    zoo = build_model_zoo(seed, n_models)
    outcomes = []
    outcomes += check_gradient_agreement(zoo, seed=seed + 10)
    outcomes += check_banach(zoo, seed=seed + 20)
    outcomes += check_backward_rate(zoo, seed=seed + 30)
    outcomes += check_stationarity(seed=seed + 40)
    outcomes += check_double_backward(seed=seed + 50)
    outcomes += check_constant_memory(seed=seed + 60)
    return outcomes
