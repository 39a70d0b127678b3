"""Reverse-mode autodiff on an append-only node arena.

The differentiation rules are themselves expressed as graph operations, so a
gradient is an ordinary node and can be differentiated again.  On top of the
plain reverse sweep this module provides ``partial_diff``, which makes
partial differentiation work when arguments are interdependent: it evaluates
a function object on an independent graph whose leaves hold copies of the
arguments' values (so no gradient flows back through them), differentiates
it there, and re-attaches the partial derivatives to the caller's graph as
differentiable outputs.  Their backward rule contracts the incoming gradient
with the derivatives on the retained independent graph.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


class GraphError(RuntimeError):
    """A graph operation was used outside its contract."""


class NonDifferentiableError(GraphError):
    """Backward hit an op without a registered differentiation rule."""


# Live-node accounting: lets tests assert that backward passes do not retain
# graph state proportional to the forward iteration count.  A dict keeps the
# counter reachable from Node.__del__ even during interpreter teardown.
_COUNTS = {"live": 0, "peak": 0}


def live_node_count() -> int:
    return _COUNTS["live"]


def peak_live_node_count() -> int:
    return _COUNTS["peak"]


def reset_peak_live_node_count():
    _COUNTS["peak"] = _COUNTS["live"]


class Node:
    """One value in a computational graph; leaves have no parents."""

    __slots__ = ("id", "kind", "parents", "value", "attrs", "grad", "_owner", "__weakref__")

    def __init__(self, nid: int, kind: str, parents: tuple["Node", ...], value: Tensor,
                 attrs: dict | None, owner: "Graph"):
        self.id = nid
        self.kind = kind
        self.parents = parents
        self.value = value
        self.attrs = attrs or {}
        self.grad: Tensor | None = None
        self._owner = weakref.ref(owner)
        _COUNTS["live"] += 1
        if _COUNTS["live"] > _COUNTS["peak"]:
            _COUNTS["peak"] = _COUNTS["live"]

    def __del__(self, _counts=_COUNTS):
        _counts["live"] -= 1

    @property
    def is_leaf(self) -> bool:
        return self.kind == "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        return f"Node({self.id}, {self.kind}, shape={self.shape})"


class Graph:
    """Append-only arena of nodes; parents always precede children."""

    __slots__ = ("nodes", "__weakref__")

    def __init__(self):
        self.nodes: list[Node] = []

    def __len__(self):
        return len(self.nodes)

    def _append(self, kind: str, parents: tuple[Node, ...], value: Tensor,
                attrs: dict | None = None) -> Node:
        for p in parents:
            if p._owner() is not self:
                raise GraphError(f"parent node {p!r} belongs to a different graph")
        node = Node(len(self.nodes), kind, parents, value, attrs, self)
        self.nodes.append(node)
        return node

    def contains(self, node: Node) -> bool:
        return 0 <= node.id < len(self.nodes) and self.nodes[node.id] is node

    def mark(self) -> int:
        return len(self.nodes)

    def rollback(self, mark: int):
        """Drop every node appended after ``mark``.

        Parents only ever point backward in the arena, so a suffix is never
        referenced by what precedes it; dropping one is how repeated reverse
        sweeps over a fixed subgraph stay constant-memory.  Callers must not
        keep using nodes from the dropped range.
        """
        del self.nodes[mark:]

    # -- leaves ------------------------------------------------------------

    def leaf(self, value) -> Node:
        return self._append("leaf", (), T.as_tensor(value))

    # -- elementwise -------------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        return self._append("add", (a, b), T.add(a.value, b.value))

    def sub(self, a: Node, b: Node) -> Node:
        return self._append("sub", (a, b), T.sub(a.value, b.value))

    def mul(self, a: Node, b: Node) -> Node:
        return self._append("mul", (a, b), T.mul(a.value, b.value))

    def scale(self, a: Node, factor: float) -> Node:
        return self._append("scale", (a,), T.scale(a.value, factor), {"factor": float(factor)})

    def offset(self, a: Node, amount: float) -> Node:
        return self._append("offset", (a,), T.offset(a.value, amount), {"amount": float(amount)})

    def relu(self, a: Node) -> Node:
        return self._append("relu", (a,), T.relu(a.value))

    def sigmoid(self, a: Node) -> Node:
        return self._append("sigmoid", (a,), T.sigmoid(a.value))

    def log(self, a: Node) -> Node:
        return self._append("log", (a,), T.log(a.value))

    def recip(self, a: Node) -> Node:
        return self._append("recip", (a,), T.recip(a.value))

    def clip(self, a: Node, lo: float, hi: float) -> Node:
        return self._append("clip", (a,), T.clip(a.value, lo, hi), {"lo": lo, "hi": hi})

    def gt_zero_mask(self, a: Node) -> Node:
        return self._append("gt_zero_mask", (a,), Tensor((a.value.data > 0).astype(np.float64)))

    def inband_mask(self, a: Node, lo: float, hi: float) -> Node:
        mask = ((a.value.data >= lo) & (a.value.data <= hi)).astype(np.float64)
        return self._append("inband_mask", (a,), Tensor(mask))

    # -- linear algebra ----------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        return self._append("matmul", (a, b), T.matmul(a.value, b.value))

    def transpose(self, a: Node) -> Node:
        return self._append("transpose", (a,), T.transpose(a.value))

    def conv2d(self, x: Node, k: Node, stride: int = 1, padding: int = 0) -> Node:
        value = T.conv2d(x.value, k.value, stride, padding)
        return self._append("conv2d", (x, k), value, {"stride": stride, "padding": padding})

    def conv2d_grad_input(self, seed: Node, k: Node, stride: int = 1, padding: int = 0) -> Node:
        value = T.conv2d_grad_input(seed.value, k.value, stride, padding)
        return self._append("conv2d_grad_input", (seed, k), value,
                            {"stride": stride, "padding": padding})

    def conv2d_grad_kernel(self, seed: Node, x: Node, kernel_hw: tuple[int, int],
                           stride: int = 1, padding: int = 0) -> Node:
        value = T.conv2d_grad_kernel(seed.value, x.value, kernel_hw, stride, padding)
        return self._append("conv2d_grad_kernel", (seed, x), value,
                            {"stride": stride, "padding": padding, "kernel_hw": kernel_hw})

    # -- structure ---------------------------------------------------------

    def concat(self, parts: Sequence[Node], axis: int = 0) -> Node:
        value = T.concat([p.value for p in parts], axis)
        splits = [p.shape[axis] for p in parts]
        return self._append("concat", tuple(parts), value, {"axis": axis, "splits": splits})

    def narrow(self, a: Node, axis: int, start: int, length: int) -> Node:
        value = T.narrow(a.value, axis, start, length)
        return self._append("narrow", (a,), value, {"axis": axis, "start": start, "length": length})

    def pad_zeros(self, a: Node, axis: int, before: int, after: int) -> Node:
        value = T.pad_zeros(a.value, axis, before, after)
        return self._append("pad_zeros", (a,), value, {"axis": axis, "before": before, "after": after})

    def tile_cols(self, b: Node, n: int) -> Node:
        return self._append("tile_cols", (b,), T.tile_cols(b.value, n), {"n": n})

    def sum_cols(self, a: Node) -> Node:
        return self._append("sum_cols", (a,), T.sum_cols(a.value))

    def tile_hw(self, b: Node, h: int, w: int) -> Node:
        return self._append("tile_hw", (b,), T.tile_hw(b.value, h, w), {"h": h, "w": w})

    def sum_hw(self, a: Node) -> Node:
        return self._append("sum_hw", (a,), T.sum_hw(a.value))

    # -- reductions and compositions ----------------------------------------

    def reduce_sum(self, a: Node) -> Node:
        return self._append("reduce_sum", (a,), T.reduce_sum(a.value))

    def spread(self, s: Node, shape) -> Node:
        return self._append("spread", (s,), T.spread(s.value, shape), {"shape": tuple(shape)})

    def mean(self, a: Node) -> Node:
        if a.value.size == 0:
            raise ShapeError("mean of an empty tensor")
        return self.scale(self.reduce_sum(a), 1.0 / a.value.size)

    def sq_norm(self, a: Node) -> Node:
        return self.reduce_sum(self.mul(a, a))

    def dot(self, a: Node, b: Node) -> Node:
        return self.reduce_sum(self.mul(a, b))


# ---------------------------------------------------------------------------
# differentiation rules (each rule builds graph nodes, so rules compose to
# arbitrary order)

_VJPS: dict[str, Callable[[Graph, Node, Node], list[Node | None]]] = {}


def register_vjp(kind: str):
    def deco(fn):
        _VJPS[kind] = fn
        return fn
    return deco


@register_vjp("add")
def _vjp_add(g, node, seed):
    return [seed, seed]


@register_vjp("sub")
def _vjp_sub(g, node, seed):
    return [seed, g.scale(seed, -1.0)]


@register_vjp("mul")
def _vjp_mul(g, node, seed):
    a, b = node.parents
    return [g.mul(seed, b), g.mul(seed, a)]


@register_vjp("scale")
def _vjp_scale(g, node, seed):
    return [g.scale(seed, node.attrs["factor"])]


@register_vjp("offset")
def _vjp_offset(g, node, seed):
    return [seed]


@register_vjp("relu")
def _vjp_relu(g, node, seed):
    # derivative defined as 0 at the kink
    return [g.mul(seed, g.gt_zero_mask(node.parents[0]))]


@register_vjp("sigmoid")
def _vjp_sigmoid(g, node, seed):
    one_minus = g.offset(g.scale(node, -1.0), 1.0)
    return [g.mul(seed, g.mul(node, one_minus))]


@register_vjp("log")
def _vjp_log(g, node, seed):
    return [g.mul(seed, g.recip(node.parents[0]))]


@register_vjp("recip")
def _vjp_recip(g, node, seed):
    return [g.scale(g.mul(seed, g.mul(node, node)), -1.0)]


@register_vjp("clip")
def _vjp_clip(g, node, seed):
    return [g.mul(seed, g.inband_mask(node.parents[0], node.attrs["lo"], node.attrs["hi"]))]


@register_vjp("gt_zero_mask")
def _vjp_mask(g, node, seed):
    return [None]


@register_vjp("inband_mask")
def _vjp_inband(g, node, seed):
    return [None]


@register_vjp("matmul")
def _vjp_matmul(g, node, seed):
    a, b = node.parents
    return [g.matmul(seed, g.transpose(b)), g.matmul(g.transpose(a), seed)]


@register_vjp("transpose")
def _vjp_transpose(g, node, seed):
    return [g.transpose(seed)]


@register_vjp("conv2d")
def _vjp_conv2d(g, node, seed):
    x, k = node.parents
    s, p = node.attrs["stride"], node.attrs["padding"]
    return [g.conv2d_grad_input(seed, k, s, p),
            g.conv2d_grad_kernel(seed, x, k.shape[2:], s, p)]


@register_vjp("conv2d_grad_input")
def _vjp_conv2d_grad_input(g, node, seed):
    sd, k = node.parents
    s, p = node.attrs["stride"], node.attrs["padding"]
    return [g.conv2d(seed, k, s, p),
            g.conv2d_grad_kernel(sd, seed, k.shape[2:], s, p)]


@register_vjp("conv2d_grad_kernel")
def _vjp_conv2d_grad_kernel(g, node, seed):
    sd, x = node.parents
    s, p = node.attrs["stride"], node.attrs["padding"]
    return [g.conv2d(x, seed, s, p), g.conv2d_grad_input(sd, seed, s, p)]


@register_vjp("concat")
def _vjp_concat(g, node, seed):
    axis, splits = node.attrs["axis"], node.attrs["splits"]
    outs, start = [], 0
    for length in splits:
        outs.append(g.narrow(seed, axis, start, length))
        start += length
    return outs


@register_vjp("narrow")
def _vjp_narrow(g, node, seed):
    a = node.parents[0]
    axis, start = node.attrs["axis"], node.attrs["start"]
    after = a.shape[axis] - start - node.attrs["length"]
    return [g.pad_zeros(seed, axis, start, after)]


@register_vjp("pad_zeros")
def _vjp_pad_zeros(g, node, seed):
    a = node.parents[0]
    return [g.narrow(seed, node.attrs["axis"], node.attrs["before"], a.shape[node.attrs["axis"]])]


@register_vjp("tile_cols")
def _vjp_tile_cols(g, node, seed):
    return [g.sum_cols(seed)]


@register_vjp("sum_cols")
def _vjp_sum_cols(g, node, seed):
    return [g.tile_cols(seed, node.parents[0].shape[1])]


@register_vjp("tile_hw")
def _vjp_tile_hw(g, node, seed):
    return [g.sum_hw(seed)]


@register_vjp("sum_hw")
def _vjp_sum_hw(g, node, seed):
    h, w = node.parents[0].shape[1:]
    return [g.tile_hw(seed, h, w)]


@register_vjp("reduce_sum")
def _vjp_reduce_sum(g, node, seed):
    return [g.spread(seed, node.parents[0].shape)]


@register_vjp("spread")
def _vjp_spread(g, node, seed):
    return [g.reduce_sum(seed)]


# ---------------------------------------------------------------------------
# reverse sweep


def backward_nodes(graph: Graph, output: Node, seed: Node) -> dict[int, Node]:
    """Reverse sweep returning gradient *nodes* keyed by node id.

    The returned nodes live on ``graph``, so any of them can be differentiated
    again by a later sweep.
    """
    if not graph.contains(output):
        raise GraphError("output node is not part of this graph")
    if seed.value.shape != output.value.shape:
        raise ShapeError(f"seed shape {seed.value.shape} != output shape {output.value.shape}")
    grads: dict[int, Node] = {output.id: seed}
    for nid in range(output.id, -1, -1):
        node = graph.nodes[nid]
        if nid not in grads or node.is_leaf:
            continue
        rule = _VJPS.get(node.kind)
        if rule is None:
            raise NonDifferentiableError(f"op {node.kind!r} has no differentiation rule")
        for parent, contrib in zip(node.parents, rule(graph, node, grads[nid])):
            if contrib is None:
                continue
            if parent.id in grads:
                grads[parent.id] = graph.add(grads[parent.id], contrib)
            else:
                grads[parent.id] = contrib
    return grads


def backward(graph: Graph, output: Node, seed=None) -> dict[int, Tensor]:
    """Vector-Jacobian products of ``output`` w.r.t. every reachable leaf.

    Returns a map from leaf node id to the accumulated gradient tensor; the
    same tensors are also stored on the leaves' ``grad`` attribute.
    """
    if seed is None:
        seed = T.ones(output.value.shape)
    seed_node = graph.leaf(T.as_tensor(seed))
    grads = backward_nodes(graph, output, seed_node)
    out: dict[int, Tensor] = {}
    for nid, gnode in grads.items():
        node = graph.nodes[nid]
        if node.is_leaf and node is not seed_node:
            out[nid] = gnode.value
            node.grad = gnode.value
    return out


# ---------------------------------------------------------------------------
# function objects


class FunctionObject:
    """A re-executable recipe from named leaf nodes to output nodes.

    The recipe must be pure: rebuilding it on any graph with equal input
    values yields equal output values.
    """

    def __init__(self, input_names: Sequence[str],
                 recipe: Callable[[Graph, dict[str, Node]], Node | Sequence[Node]],
                 name: str = ""):
        self.input_names = list(input_names)
        self.recipe = recipe
        self.name = name or recipe.__name__

    def build(self, graph: Graph, inputs: dict[str, Node]) -> list[Node]:
        if set(inputs) != set(self.input_names):
            raise GraphError(
                f"{self.name} expects inputs {self.input_names}, got {sorted(inputs)}")
        out = self.recipe(graph, inputs)
        return list(out) if isinstance(out, (list, tuple)) else [out]

    def __repr__(self):
        return f"FunctionObject({self.name}, inputs={self.input_names})"


# ---------------------------------------------------------------------------
# partial differentiation on an independent graph


class _PartialState:
    """Retained independent graph shared by the outputs of one partial_diff.

    ``mark`` remembers the arena size right after the forward pass and first
    differentiation; every backward sweep through the operator appends its
    contraction nodes, reads off the values, and rolls back to the mark, so
    repeated sweeps never grow the retained graph.
    """

    __slots__ = ("inner", "leaves", "grad_nodes", "mark")

    def __init__(self, inner, leaves, grad_nodes):
        self.inner: Graph = inner
        self.leaves = leaves
        self.grad_nodes = grad_nodes
        self.mark = inner.mark()


def partial_diff(graph: Graph, s: dict[str, Node], r: FunctionObject,
                 wrt: Sequence[str] | None = None) -> list[Node]:
    """Partial derivatives of scalar ``r`` w.r.t. ``s``, treating the entries
    of ``s`` as mutually independent.

    Builds an independent graph on detached clones of ``s``, evaluates and
    differentiates ``r`` there, and re-attaches the derivatives to ``graph``
    as outputs whose own backward rule contracts second derivatives on the
    retained independent graph.
    """
    if set(s) != set(r.input_names):
        raise GraphError(f"{r.name} expects inputs {r.input_names}, got {sorted(s)}")
    names = list(r.input_names)
    wrt = names if wrt is None else list(wrt)
    for w in wrt:
        if w not in s:
            raise GraphError(f"cannot differentiate w.r.t. unknown input {w!r}")

    inner = Graph()
    leaves = {n: inner.leaf(s[n].value) for n in names}
    outs = r.build(inner, leaves)
    if len(outs) != 1 or outs[0].value.size != 1:
        raise ShapeError("partial_diff expects a single scalar output")
    gmap = backward_nodes(inner, outs[0], inner.leaf(T.ones(outs[0].shape)))
    grad_nodes = {}
    for w in wrt:
        gn = gmap.get(leaves[w].id)
        grad_nodes[w] = gn if gn is not None else inner.leaf(T.zeros(s[w].shape))

    state = _PartialState(inner, leaves, grad_nodes)
    parents = tuple(s[n] for n in names)
    return [graph._append("partial_diff", parents, grad_nodes[w].value,
                          {"state": state, "wrt": w, "names": names})
            for w in wrt]


@register_vjp("partial_diff")
def _vjp_partial_diff(g, node, seed):
    state: _PartialState = node.attrs["state"]
    inner = state.inner
    # eta = <delta, d r / d s_w> built on the retained independent graph; the
    # incoming gradient enters as a detached leaf (no derivatives for it).
    delta = inner.leaf(seed.value)
    eta = inner.dot(delta, state.grad_nodes[node.attrs["wrt"]])
    second = backward_nodes(inner, eta, inner.leaf(T.ones(())))
    outs: list[Node | None] = []
    for name in node.attrs["names"]:
        gn = second.get(state.leaves[name].id)
        outs.append(g.leaf(gn.value) if gn is not None else None)
    inner.rollback(state.mark)
    return outs


# ---------------------------------------------------------------------------
# convenience wrapper


def vjp(f: FunctionObject, inputs: dict[str, Tensor], cotangent: Tensor) -> dict[str, Tensor]:
    """One reverse sweep through ``f``: returns (df/dinput)^T . cotangent per
    input, without materializing any Jacobian."""
    g = Graph()
    leaves = {n: g.leaf(inputs[n]) for n in f.input_names}
    outs = f.build(g, leaves)
    if len(outs) != 1:
        raise ShapeError("vjp expects a single-output function object")
    grads = backward(g, outs[0], cotangent)
    return {n: grads.get(leaves[n].id, T.zeros(inputs[n].shape)) for n in f.input_names}
