"""Forward and backward fixed-point iteration layers, convergence
diagnostics, and the independent gradient oracles used to validate them.

The forward layer iterates x <- g(x, z; params) to its fixed point with no
gradient recording; the whole solve enters a computational graph as a single
node.  The backward layer recovers the loss gradient by running a second
fixed-point iteration on the cotangent c <- (dg/dx)^T c + grad_out, where
each step is one vector-Jacobian product through a single application of g,
so no Jacobian is ever materialized and memory does not grow with the number
of forward iterations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .graph import Evaluator, Graph, Node, Recipe, backward, backward_nodes, register_vjp, vjp
from .layers import GModule, Parameters, _power_norm
from .tensor import NumericsError, ShapeError, Tensor


class DivergenceError(ArithmeticError):
    """An iterate left the finite range; carries the iteration index."""

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"iteration diverged at step {iteration}")


class ConditioningError(ArithmeticError):
    """A linear solve met a matrix that is singular to working precision."""


class Criterion(enum.Enum):
    RELATIVE_BETA = "relative_beta"    # |x_next - x_prev|^2 / |x_prev|^2
    ABSOLUTE_BETA = "absolute_beta"    # |x_next - x_prev|^2


@dataclass(frozen=True)
class FpiConfig:
    tol: float = 1e-8
    criterion: Criterion = Criterion.RELATIVE_BETA
    max_iter: int = 500

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("FpiConfig needs tol > 0, max_iter >= 1")


@dataclass
class FixedPointResult:
    x_hat: Tensor
    iterations: int
    converged: bool
    residual: float


@dataclass
class BackwardFpiResult:
    grad_theta: Parameters
    grad_z: Tensor
    iterations: int
    converged: bool
    residual: float


def convergence_check(x_prev: Tensor, x_next: Tensor, cfg: FpiConfig) -> tuple[bool, float]:
    """Residual of one update step and whether it clears the threshold.

    Relative mode divides the squared step by the squared norm of the previous
    iterate; when that norm is zero the absolute residual is used for the step
    instead.
    """
    if x_prev.shape != x_next.shape:
        raise ShapeError(f"iterate shapes differ: {x_prev.shape} vs {x_next.shape}")
    with np.errstate(all="ignore"):
        diff_sq = float(np.sum((x_next.data - x_prev.data) ** 2))
        if cfg.criterion is Criterion.RELATIVE_BETA:
            prev_sq = float(np.sum(x_prev.data ** 2))
            residual = diff_sq if prev_sq == 0.0 else diff_sq / prev_sq
        else:
            residual = diff_sq
    return residual < cfg.tol, residual


def forward_fpi(g, x0: Tensor, z, theta, cfg: FpiConfig) -> FixedPointResult:
    """Iterate x <- g(x, z; theta) until the convergence criterion passes.

    No gradients are recorded: each application of g is ``g.apply``, which
    evaluates values only.  A non-finite iterate raises DivergenceError with
    its index; exhausting max_iter returns converged=False and leaves policy
    to the caller.
    """
    x = T.as_tensor(x0)
    if z is not None:   # the cotangent iteration passes none
        z = T.as_tensor(z)
    residual = float("inf")
    for n in range(1, cfg.max_iter + 1):
        try:
            x_next = g.apply(x, z, theta)
        except NumericsError as exc:
            raise DivergenceError(n, f"update produced non-finite values at step {n}") from exc
        if x_next.shape != x.shape:
            raise ShapeError(f"g changed the state shape: {x.shape} -> {x_next.shape}")
        ok, residual = convergence_check(x, x_next, cfg)
        x = x_next
        if ok:
            return FixedPointResult(x, n, True, residual)
    return FixedPointResult(x, cfg.max_iter, False, residual)


class _CotangentIteration:
    """Update map of the backward layer: c -> dh/dx(x_hat, z, c) + grad_out.

    dh/dx with h = <c, g> is one VJP through a single application of g.  The
    graph of that single application is built once; every step then runs one
    value sweep over it, seeded with the current cotangent tensor, which adds
    no node, so memory stays flat no matter how many steps the solve takes.
    A step's sweep is pruned to the nodes that depend on x; only
    ``final_grads``, run once with the converged cotangent, differentiates
    w.r.t. theta and z.
    """

    def __init__(self, g: GModule, x_hat: Tensor, z: Tensor, theta: Parameters,
                 grad_out: Tensor):
        self._grad_out = grad_out
        self._graph = Graph()
        self._x = self._graph.leaf(x_hat)
        self._z = self._graph.leaf(z)
        self._theta = {n: self._graph.leaf(theta[n]) for n in g.param_names}
        self._out = g.build(self._graph, self._x, self._z, self._theta)

    def step(self, c: Tensor) -> Tensor:
        gx = backward_nodes(self._graph, self._out, c, [self._x]).get(self._x.id)
        return T.add(gx, self._grad_out) if gx is not None else self._grad_out

    def final_grads(self, c: Tensor) -> tuple[Parameters, Tensor]:
        """One more sweep with the converged cotangent reads off dh/dtheta, dh/dz."""
        grads = backward_nodes(self._graph, self._out, c, [*self._theta.values(), self._z])
        theta = Parameters()
        for name, leaf in self._theta.items():
            gv = grads.get(leaf.id)
            theta[name] = gv if gv is not None else T.zeros(leaf.shape)
        gz = grads.get(self._z.id)
        return theta, gz if gz is not None else T.zeros(self._z.shape)

    # GModule-style surface so forward_fpi can drive the iteration
    def apply(self, c: Tensor, z, theta) -> Tensor:
        return self.step(c)


def backward_fpi(g: GModule, x_hat: Tensor, z: Tensor, theta: Parameters,
                 grad_out: Tensor, cfg: FpiConfig) -> BackwardFpiResult:
    """Loss gradients w.r.t. theta and z at a solved fixed point.

    Solves c = (dg/dx)^T c + grad_out by fixed-point iteration (one VJP per
    step, driven by forward_fpi under the absolute criterion, since c carries
    no natural scale), then reads the gradients off one more VJP with the
    converged cotangent.  Each VJP is a value sweep over one recorded
    application of g, so the solve adds no node after building it.  Hitting
    max_iter returns the best-effort gradient with ``converged`` False and
    does not warn: like forward_fpi, the solver reports through its result
    and leaves policy to the caller.
    """
    if grad_out.shape != x_hat.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} != state shape {x_hat.shape}")
    it = _CotangentIteration(g, x_hat, z, theta, grad_out)
    c_cfg = replace(cfg, criterion=Criterion.ABSOLUTE_BETA)
    try:
        res = forward_fpi(it, T.zeros(x_hat.shape), None, None, c_cfg)
    except DivergenceError as exc:
        raise DivergenceError(exc.iteration,
                              "cotangent iteration diverged; the update map is "
                              "likely not a contraction at this point") from exc
    grad_theta, grad_z = it.final_grads(res.x_hat)
    return BackwardFpiResult(grad_theta, grad_z, res.iterations,
                             res.converged, res.residual)


# ---------------------------------------------------------------------------
# diagnostics


def spectral_norm_jacobian(g, x_hat: Tensor, z, theta, iters: int = 30,
                           rng: np.random.Generator | None = None,
                           fd_step: float = 1e-6) -> float:
    """Power-iteration estimate of the spectral norm of dg/dx at x_hat.

    Alternates J v (central finite difference of g along v) with J^T u (one
    VJP); the estimate is nondecreasing in ``iters`` up to numerical noise.
    A value below 1 certifies the backward iteration converges here.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = rng or np.random.default_rng(0)
    inputs = {"x": x_hat, "z": z, **{n: theta[n] for n in g.param_names}}

    def jv(v: np.ndarray) -> np.ndarray:
        plus = g.apply(Tensor(x_hat.data + fd_step * v), z, theta).data
        minus = g.apply(Tensor(x_hat.data - fd_step * v), z, theta).data
        return (plus - minus) / (2.0 * fd_step)

    def jtu(u: np.ndarray) -> np.ndarray:
        return vjp(g.recipe, inputs, Tensor(u))["x"].data

    return _power_norm(jv, jtu, rng.standard_normal(x_hat.shape), iters, 0.0)


# ---------------------------------------------------------------------------
# gradient oracles (reference paths kept independent of backward_fpi)


_ORACLE_DIM_CAP = 32


def _probe_jacobians(g: GModule, x_hat: Tensor, z: Tensor, theta: Parameters):
    """Materialize dg/dx, dg/dz, dg/dtheta by basis-vector VJP probing."""
    inputs = {"x": x_hat, "z": z, **{n: theta[n] for n in g.param_names}}
    d = x_hat.size
    jx = np.zeros((d, d))
    jz = np.zeros((d, z.size))
    jth = {n: np.zeros((d, theta[n].size)) for n in g.param_names}
    for i in range(d):
        e = np.zeros(x_hat.shape)
        e.flat[i] = 1.0
        rows = vjp(g.recipe, inputs, Tensor(e))
        jx[i] = rows["x"].data.ravel()
        jz[i] = rows["z"].data.ravel()
        for n in g.param_names:
            jth[n][i] = rows[n].data.ravel()
    return jx, jz, jth


def closed_form_gradient(g: GModule, x_hat: Tensor, z: Tensor, theta: Parameters,
                         grad_out: Tensor) -> tuple[Parameters, Tensor]:
    """Implicit gradient through the dense solve (I - dg/dx)^T c = grad_out.

    Oracle path: materializes the Jacobians explicitly, so the state dimension
    is capped at 32 entries.
    """
    if x_hat.size > _ORACLE_DIM_CAP:
        raise ShapeError(f"closed-form oracle is capped at {_ORACLE_DIM_CAP} state "
                         f"entries, got {x_hat.size}")
    jx, jz, jth = _probe_jacobians(g, x_hat, z, theta)
    a = np.eye(x_hat.size) - jx
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] < 1e-12 * max(sv[0], 1.0):
        raise ConditioningError("I - dg/dx is singular to working precision; "
                                "g is not a contraction at x_hat")
    c = np.linalg.solve(a.T, grad_out.data.ravel())
    grad_theta = Parameters(
        {n: Tensor((jth[n].T @ c).reshape(theta[n].shape)) for n in g.param_names})
    grad_z = Tensor((jz.T @ c).reshape(z.shape))
    return grad_theta, grad_z


def unrolled_gradient(g: GModule, x0: Tensor, z: Tensor, theta: Parameters,
                      n_steps: int, loss: Recipe) -> tuple[Parameters, Tensor]:
    """Ground-truth gradient by recording every iteration in one graph.

    ``loss`` is a recipe of the input ``x``, the last iterate.  Memory grows
    linearly with ``n_steps``; this is the costly path the implicit layer
    exists to avoid, retained as an oracle.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    graph = Graph()
    z_node = graph.leaf(z)
    theta_nodes = {n: graph.leaf(theta[n]) for n in g.param_names}
    x = graph.leaf(x0)
    for _ in range(n_steps):
        x = g.build(graph, x, z_node, theta_nodes)
    loss_node = loss(graph, {"x": x})
    grads = backward(graph, loss_node, T.ones(loss_node.shape))
    grad_theta = Parameters(
        {n: grads.get(theta_nodes[n].id, T.zeros(theta[n].shape)) for n in g.param_names})
    grad_z = grads.get(z_node.id, T.zeros(z.shape))
    return grad_theta, grad_z


# ---------------------------------------------------------------------------
# the solve as a single graph node


def fpi_layer(graph: Graph | Evaluator, g: GModule, z: Node, theta: dict[str, Node],
              cfg: FpiConfig) -> Node:
    """Insert a whole fixed-point solve, started from a zero state, into
    ``graph`` as one node.

    The forward solve runs unrecorded; the node's backward rule invokes the
    backward FPI layer.  The FixedPointResult (iteration count, residual,
    convergence flag) is available as ``node.attrs["result"]``, and the
    backward result is attached as ``attrs["backward_result"]`` once gradients
    have flowed.  On an ``Evaluator`` the layer is the solve's ``x_hat``, as
    ``GModule.apply`` is the value of a module.
    """
    z_value = graph._value(z)
    params = Parameters({n: graph._value(theta[n]) for n in g.param_names})
    result = forward_fpi(g, T.zeros(g.state_shape(z_value)), z_value, params, cfg)
    parents = (z, *[theta[n] for n in g.param_names])
    return graph._append("fpi_layer", parents, result.x_hat,
                         {"module": g, "cfg": cfg, "result": result})


@register_vjp("fpi_layer")
def _vjp_fpi_layer(g, node, seed, need):
    module: GModule = node.attrs["module"]
    z_node = node.parents[0]
    theta = Parameters({n: p.value for n, p in zip(module.param_names, node.parents[1:])})
    res = backward_fpi(module, node.value, z_node.value, theta, g._value(seed),
                       node.attrs["cfg"])
    node.attrs["backward_result"] = res
    # gradients re-enter the caller's graph as leaves: the layer supports
    # first-order training; higher derivatives go through partial_diff instead
    grads = [res.grad_z] + [res.grad_theta[n] for n in module.param_names]
    return [g.leaf(gr) if k else None for gr, k in zip(grads, need)]
