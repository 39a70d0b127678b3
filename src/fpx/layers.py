"""Concrete update modules g(x, z; params), initialization, Lipschitz control,
and the parameter blob format.

State and input tensors are column matrices: a module maps x of shape (d, B)
and z of shape (d_z, B) to an output of shape (d, B), so a whole batch runs
through one fixed-point solve.  Image modules use single samples (C, H, W).
"""

from __future__ import annotations

import json

import numpy as np

from . import tensor as T
from .graph import Evaluator, Graph, Node, partial_diff
from .tensor import ShapeError, Tensor


class Parameters(dict):
    """Named map of tensors; names unique, shapes fixed after insertion."""

    def __setitem__(self, name: str, value: Tensor):
        value = T.as_tensor(value)
        if name in self and self[name].shape != value.shape:
            raise ShapeError(
                f"parameter {name!r} has shape {self[name].shape}, got {value.shape}")
        super().__setitem__(name, value)

    def copy(self) -> "Parameters":
        return Parameters(self)


def _uniform(rng: np.random.Generator, shape, bound: float) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape))


def _fan_in(shape) -> int:
    if len(shape) == 2:          # (out, in) matrix
        return shape[1]
    if len(shape) == 4:          # (c_out, c_in, kh, kw) conv kernel
        return shape[1] * shape[2] * shape[3]
    raise ShapeError(f"no fan-in convention for weight shape {shape}")


def init_small(param_shapes, scale: float, rng: np.random.Generator) -> Parameters:
    """Fan-based uniform init shrunk by ``scale``; biases start at zero.

    Weights (ndim >= 2) draw from U(-s/sqrt(fan_in), s/sqrt(fan_in)); small
    ``scale`` keeps the update map a contraction at the start of training.
    Accepts a name->shape map or existing Parameters (shapes reused).
    """
    if scale <= 0:
        raise ValueError("init scale must be positive")
    params = Parameters()
    for name, shape in param_shapes.items():
        if isinstance(shape, Tensor):
            shape = shape.shape
        if len(shape) == 1:
            params[name] = T.zeros(shape)
        else:
            params[name] = _uniform(rng, shape, scale / np.sqrt(_fan_in(shape)))
    return params


# ---------------------------------------------------------------------------
# spectral norms and projection


def _power_norm(forward, adjoint, v: np.ndarray, iters: int, tol: float) -> float:
    """Largest singular value of a linear map, given as its ``forward`` and
    ``adjoint`` on arrays, by power iteration on A^T A from the start ``v``.
    ``tol`` 0 runs all ``iters`` steps."""
    v = v / np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        u = forward(v)
        prev = sigma
        sigma = float(np.linalg.norm(u))
        if sigma == 0.0:
            return 0.0
        v = adjoint(u / sigma)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return sigma
        v = v / nv
        if abs(sigma - prev) < tol * max(sigma, 1.0):
            break
    return float(np.linalg.norm(forward(v)))


def spectral_norm_matrix(w: Tensor, iters: int = 50, tol: float = 1e-8) -> float:
    """Largest singular value via power iteration on W^T W."""
    a = w.data
    return _power_norm(lambda v: a @ v, lambda u: a.T @ u,
                       np.random.default_rng(0).standard_normal(a.shape[1]), iters, tol)


def spectral_norm_conv(kernel: Tensor, image_hw: tuple[int, int], padding: int = 1,
                       iters: int = 50, tol: float = 1e-8) -> float:
    """Operator norm of the stride-1 convolution unfolded at a fixed image size."""
    start = np.random.default_rng(0).standard_normal((kernel.shape[1], *image_hw))
    return _power_norm(lambda v: T.conv2d(Tensor(v), kernel, 1, padding).data,
                       lambda u: T.conv2d_grad_input(Tensor(u), kernel, 1, padding).data,
                       start, iters, tol)


def lipschitz_project(params: Parameters, k: float,
                      image_hw: tuple[int, int] | None = None,
                      conv_padding: int = 1) -> Parameters:
    """Rescale every weight whose spectral norm exceeds ``k`` down to ``k``.

    Conv kernels are measured as the unfolded linear operator at ``image_hw``
    (an upper-bound surrogate for other sizes).  Biases pass through.
    """
    if not 0 < k < 1:
        raise ValueError("projection target k must lie in (0, 1)")
    out = Parameters()
    for name, value in params.items():
        if len(value.shape) == 2:
            sigma = spectral_norm_matrix(value)
        elif len(value.shape) == 4:
            if image_hw is None:
                raise ValueError("projecting a conv kernel needs image_hw")
            sigma = spectral_norm_conv(value, image_hw, conv_padding)
        else:
            out[name] = value
            continue
        out[name] = T.scale(value, k / sigma) if sigma > k else value
    return out


# ---------------------------------------------------------------------------
# update modules


class GModule:
    """Interface for modules of (x, z, params): update maps, whose output is
    shaped like x, and the scalar energies that ``GdG`` descends."""

    param_names: tuple[str, ...] = ()

    def param_shapes(self) -> dict[str, tuple]:
        raise NotImplementedError

    def state_shape(self, z: Tensor) -> tuple:
        """Shape of the state x that pairs with an input z."""
        raise NotImplementedError

    def build(self, g: Graph, x: Node, z: Node, params: dict[str, Node]) -> Node:
        """The module's output built on ``g``: nodes on a ``Graph``, tensors
        on an ``Evaluator`` (the op table gives both the same methods)."""
        raise NotImplementedError

    def init_params(self, scale: float, rng: np.random.Generator) -> Parameters:
        return init_small(self.param_shapes(), scale, rng)

    def recipe(self, g: Graph, inputs: dict[str, Node]) -> Node:
        """``build`` as a recipe: inputs ``x``, ``z`` and the parameters by name."""
        return self.build(g, inputs["x"], inputs["z"], inputs)

    def apply(self, x: Tensor, z: Tensor, params: Parameters) -> Tensor:
        """The module's output value: ``build`` on an ``Evaluator``, so no
        graph is recorded."""
        return self.build(Evaluator(), x, z, params)


def _affine(g: Graph, w: Node, x: Node, b: Node) -> Node:
    return g.add(g.matmul(w, x), g.tile_cols(b, x.shape[1]))


class AffineG(GModule):
    """g(x, z) = A x + b + z; its contraction factor is the spectral norm of A.

    The workhorse of the diagnostic suites: Jacobians are exact and the
    fixed point has a closed form.
    """

    param_names = ("a", "b")

    def __init__(self, dim: int):
        self.dim = dim

    def param_shapes(self):
        return {"a": (self.dim, self.dim), "b": (self.dim,)}

    def state_shape(self, z):
        return (self.dim, z.shape[1])

    def build(self, g, x, z, params):
        ax = g.matmul(params["a"], x)
        return g.add(g.add(ax, g.tile_cols(params["b"], x.shape[1])), z)


class MlpG(GModule):
    """Two fully-connected layers on the concatenated state and input.

    Computes W2 . relu(W1 . [x; z] + b1) + b2, squashed through a sigmoid
    unless ``final_sigmoid`` is off (vector tasks whose targets leave (0, 1)).
    """

    param_names = ("w1", "b1", "w2", "b2")

    def __init__(self, state_dim: int, input_dim: int, hidden: int,
                 final_sigmoid: bool = True):
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.hidden = hidden
        self.final_sigmoid = final_sigmoid

    def param_shapes(self):
        d, dz, h = self.state_dim, self.input_dim, self.hidden
        return {"w1": (h, d + dz), "b1": (h,), "w2": (d, h), "b2": (d,)}

    def state_shape(self, z):
        return (self.state_dim, z.shape[1])

    def build(self, g, x, z, params):
        xz = g.concat([x, z], axis=0)
        hidden = g.relu(_affine(g, params["w1"], xz, params["b1"]))
        out = _affine(g, params["w2"], hidden, params["b2"])
        return g.sigmoid(out) if self.final_sigmoid else out


class ConvG(GModule):
    """Two 3x3 convolutions on the channel-concatenated image pair.

    conv2(relu(conv1(concat(x, z)))) with ``channels`` intermediate maps and
    padding 1, so any H x W >= 3 is preserved.
    """

    param_names = ("k1", "b1", "k2", "b2")

    def __init__(self, channels: int = 32, ksize: int = 3):
        self.channels = channels
        self.ksize = ksize
        self.padding = ksize // 2

    def param_shapes(self):
        c, k = self.channels, self.ksize
        return {"k1": (c, 2, k, k), "b1": (c,), "k2": (1, c, k, k), "b2": (1,)}

    def state_shape(self, z):
        return z.shape

    def build(self, g, x, z, params):
        xz = g.concat([x, z], axis=0)
        h, w = x.shape[1], x.shape[2]
        y = g.conv2d(xz, params["k1"], 1, self.padding)
        y = g.relu(g.add(y, g.tile_hw(params["b1"], h, w)))
        y = g.conv2d(y, params["k2"], 1, self.padding)
        return g.add(y, g.tile_hw(params["b2"], h, w))


class EnergyNet(GModule):
    """Scalar energy: fully-connected layers on [x; z] into a mean-squared head.

    One hidden layer by default (relu(W1 . [x; z] + b1) feeding the head);
    ``body_dim`` adds a second linear layer before squaring.  Per sample the
    head is the mean of the squared entries; over a batch the per-sample
    energies are summed so the gradient in x is batch-size independent.
    """

    def __init__(self, state_dim: int, input_dim: int, hidden: int,
                 body_dim: int | None = None):
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.hidden = hidden
        self.body_dim = body_dim
        names = ["w1", "b1"] + (["w2", "b2"] if body_dim is not None else [])
        self.param_names = tuple(names)

    def param_shapes(self):
        d, dz, h = self.state_dim, self.input_dim, self.hidden
        shapes = {"w1": (h, d + dz), "b1": (h,)}
        if self.body_dim is not None:
            shapes["w2"] = (self.body_dim, h)
            shapes["b2"] = (self.body_dim,)
        return shapes

    def build(self, g: Graph, x: Node, z: Node, params: dict[str, Node]) -> Node:
        xz = g.concat([x, z], axis=0)
        y = g.relu(_affine(g, params["w1"], xz, params["b1"]))
        if self.body_dim is not None:
            y = _affine(g, params["w2"], y, params["b2"])
        rows = y.shape[0]
        return g.scale(g.sq_norm(y), 1.0 / rows)


class GdG(GModule):
    """Update map that takes one gradient-descent step on a learnable energy.

    apply(x, z, params) = x - gamma * df/dx(x, z; params), with the gradient
    taken through ``partial_diff`` so the parameters stay frozen inside the
    step yet remain differentiable through it.
    """

    def __init__(self, energy: EnergyNet, gamma: float):
        if gamma <= 0:
            raise ValueError("step size gamma must be positive")
        self.energy = energy
        self.gamma = gamma
        self.param_names = energy.param_names

    def param_shapes(self):
        return self.energy.param_shapes()

    def state_shape(self, z):
        return (self.energy.state_dim, z.shape[1])

    def init_params(self, scale: float, rng: np.random.Generator) -> Parameters:
        return self.energy.init_params(scale, rng)

    def build(self, g, x, z, params):
        s = {"x": x, "z": z, **{n: params[n] for n in self.param_names}}
        (grad_x,) = partial_diff(g, s, self.energy.recipe, wrt=["x"])
        return g.sub(x, g.scale(grad_x, self.gamma))


# ---------------------------------------------------------------------------
# parameter blobs: one JSON header line, then little-endian float64 data


_MAGIC = "fpx-params-v1"


def save_parameters(path, params: Parameters, meta: dict | None = None):
    names = list(params)
    header = {
        "format": _MAGIC,
        "names": names,
        "shapes": [list(params[n].shape) for n in names],
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in names:
            arr = params[name].data.astype("<f8")
            fh.write(arr.tobytes(order="C"))


def load_parameters(path) -> tuple[Parameters, dict]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != _MAGIC:
            raise ValueError(f"{path}: not a parameter blob")
        params = Parameters()
        for name, shape in zip(header["names"], header["shapes"]):
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise ValueError(f"{path}: truncated data for {name!r}")
            data = np.frombuffer(raw, dtype="<f8").reshape(shape)
            params[name] = Tensor(data)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    return params, header["meta"]
