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

Each differentiable kernel of ``fpx.tensor`` is one row of ``_OPS``: its
kind, which is the kernel's name, the names of the kernel arguments that
follow the node operands (the node keeps them as attrs) and one VJP per
operand.  The table builds two surfaces under the same method names: the
``Graph`` methods, which record nodes, and the ``Evaluator`` methods, which
apply the kernel to tensors (or to the values of nodes) and record nothing.
It also fills the rule registry.  Only ``leaf``, ``concat`` and the
compositions ``mean``, ``sq_norm`` and ``dot`` are written out, once, and
both surfaces share them.

A reverse sweep runs the same rules on either surface: a ``Node`` seed
builds the gradients as nodes, which a later sweep can differentiate again,
and a ``Tensor`` seed builds them as values on an evaluator.  Every sweep
whose gradients are only read (``backward``, the backward solver's steps,
forward iterates' ``partial_diff``) is a value sweep, so a graph grows only
while it is built.  A sweep builds an operand's VJP only when the operand
depends on a leaf the caller reads; the registered rules that share work
across operands (``concat``, ``partial_diff`` and ``fpi_layer``) get the mask
of needed parents.  Node ids never change, so a graph keeps the dependent
set of each pruned sweep and repeated sweeps over it scan it once.
"""

from __future__ import annotations

import math
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

    @property
    def size(self) -> int:
        return self.value.size

    @property
    def data(self) -> np.ndarray:
        """The value's array.  With ``shape`` and ``size`` it is all a kernel
        reads of an operand, so kernels take a node where a rule passes one:
        that is how a value sweep runs the rules of a recorded graph on an
        ``Evaluator``."""
        return self.value.data

    def __repr__(self):
        return f"Node({self.id}, {self.kind}, shape={self.shape})"


class Graph:
    """Append-only arena of nodes; parents always precede children."""

    __slots__ = ("nodes", "_deps", "__weakref__")

    def __init__(self):
        self.nodes: list[Node] = []
        # (output id, wrt ids) -> dependent set, see backward_nodes
        self._deps: dict[tuple, list[bool]] = {}

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

    @staticmethod
    def _value(node: Node) -> Tensor:
        return node.value

    def contains(self, node: Node) -> bool:
        return 0 <= node.id < len(self.nodes) and self.nodes[node.id] is node

    # -- leaves, concat and compositions, shared with Evaluator; the op table
    # sets the other ops --------------------------------------------------------

    def leaf(self, value) -> Node:
        return self._append("leaf", (), T.as_tensor(value))

    def concat(self, parts: Sequence[Node], axis: int = 0) -> Node:
        value = T.concat([self._value(p) for p in parts], axis)
        return self._append("concat", tuple(parts), value, {"axis": axis})

    def mean(self, a: Node) -> Node:
        size = math.prod(a.shape)
        if size == 0:
            raise ShapeError("mean of an empty tensor")
        return self.scale(self.reduce_sum(a), 1.0 / size)

    def sq_norm(self, a: Node) -> Node:
        return self.reduce_sum(self.mul(a, a))

    def dot(self, a: Node, b: Node) -> Node:
        return self.reduce_sum(self.mul(a, b))


class Evaluator:
    """The op table's value-only surface: ``Graph``'s methods under the same
    names, applied to tensors (or to nodes, which kernels read as their
    values).  Nothing is recorded, so nothing can be differentiated, and each
    intermediate dies as soon as it is unused."""

    __slots__ = ()

    def _append(self, kind: str, parents: tuple, value: Tensor, attrs: dict | None = None):
        return value

    @staticmethod
    def _value(value: Tensor) -> Tensor:
        return value

    leaf, concat, mean = Graph.leaf, Graph.concat, Graph.mean
    sq_norm, dot = Graph.sq_norm, Graph.dot


# ---------------------------------------------------------------------------
# the op table: one row per differentiable kernel.  Each rule builds its
# result on the surface it is given: nodes on a graph, so rules compose to
# arbitrary order, or values on an evaluator.


def _method(kind: str, arity: int, names: tuple[str, ...]):
    """``Graph.<kind>``: kernel ``fpx.tensor.<kind>`` on the values of ``arity``
    operand nodes and the arguments after them, which the node keeps as attrs
    ``names``.  The kernel is looked up at every call, so patching it on the
    module reaches every graph."""
    # one closure per signature shape: per-op overhead dominates small-batch runs
    if arity == 1 and not names:
        def method(self, a):
            return self._append(kind, (a,), getattr(T, kind)(a.value))
    elif arity == 1:
        def method(self, a, *args):
            attrs = dict(zip(names, args, strict=True))
            return self._append(kind, (a,), getattr(T, kind)(a.value, *args), attrs)
    elif not names:
        def method(self, a, b):
            return self._append(kind, (a, b), getattr(T, kind)(a.value, b.value))
    else:
        def method(self, a, b, *args):
            attrs = dict(zip(names, args, strict=True))
            return self._append(kind, (a, b), getattr(T, kind)(a.value, b.value, *args), attrs)
    method.__name__, method.__qualname__ = kind, f"Graph.{kind}"
    return method


def _value_method(kind: str):
    """``Evaluator.<kind>``: kernel ``fpx.tensor.<kind>``, looked up at every
    call, on the operand tensors and the arguments after them."""
    def method(self, *args):
        return getattr(T, kind)(*args)
    method.__name__, method.__qualname__ = kind, f"Evaluator.{kind}"
    return method


def _mask(g: Graph, cond: np.ndarray) -> Node:
    """A constant 0/1 leaf: masks carry no gradient."""
    return g._append("leaf", (), Tensor(cond.astype(np.float64)))


def _vjp_clip(g, node, seed):
    x, lo, hi = node.parents[0].value.data, node.attrs["lo"], node.attrs["hi"]
    return g.mul(seed, _mask(g, (x >= lo) & (x <= hi)))


def _conv_attrs(node):
    return node.attrs["stride"], node.attrs["padding"]


def _vjp_narrow(g, node, seed):
    axis, start = node.attrs["axis"], node.attrs["start"]
    after = node.parents[0].shape[axis] - start - node.attrs["length"]
    return g.pad_zeros(seed, axis, start, after)


def _vjp_pad_zeros(g, node, seed):
    axis = node.attrs["axis"]
    return g.narrow(seed, axis, node.attrs["before"], node.parents[0].shape[axis])


# (kind, node operands, attrs: the kernel's arguments after the operands,
#  one vjp(surface, node, seed) -> gradient per operand)
_OPS = (
    ("add", 2, (), (lambda g, n, s: s, lambda g, n, s: s)),
    ("sub", 2, (), (lambda g, n, s: s, lambda g, n, s: g.scale(s, -1.0))),
    ("mul", 2, (), (lambda g, n, s: g.mul(s, n.parents[1]),
                    lambda g, n, s: g.mul(s, n.parents[0]))),
    ("scale", 1, ("factor",), (lambda g, n, s: g.scale(s, n.attrs["factor"]),)),
    ("offset", 1, ("amount",), (lambda g, n, s: s,)),
    # derivative defined as 0 at the kink
    ("relu", 1, (), (lambda g, n, s: g.mul(s, _mask(g, n.parents[0].value.data > 0)),)),
    ("sigmoid", 1, (), (lambda g, n, s: g.mul(s, g.mul(n, g.offset(g.scale(n, -1.0), 1.0))),)),
    ("log", 1, (), (lambda g, n, s: g.mul(s, g.recip(n.parents[0])),)),
    ("recip", 1, (), (lambda g, n, s: g.scale(g.mul(s, g.mul(n, n)), -1.0),)),
    ("clip", 1, ("lo", "hi"), (_vjp_clip,)),
    ("matmul", 2, (), (lambda g, n, s: g.matmul(s, g.transpose(n.parents[1])),
                       lambda g, n, s: g.matmul(g.transpose(n.parents[0]), s))),
    ("transpose", 1, (), (lambda g, n, s: g.transpose(s),)),
    ("conv2d", 2, ("stride", "padding"), (
        lambda g, n, s: g.conv2d_grad_input(s, n.parents[1], *_conv_attrs(n)),
        lambda g, n, s: g.conv2d_grad_kernel(s, n.parents[0], n.parents[1].shape[2:],
                                             *_conv_attrs(n)))),
    ("conv2d_grad_input", 2, ("stride", "padding"), (
        lambda g, n, s: g.conv2d(s, n.parents[1], *_conv_attrs(n)),
        lambda g, n, s: g.conv2d_grad_kernel(n.parents[0], s, n.parents[1].shape[2:],
                                             *_conv_attrs(n)))),
    ("conv2d_grad_kernel", 2, ("kernel_hw", "stride", "padding"), (
        lambda g, n, s: g.conv2d(n.parents[1], s, *_conv_attrs(n)),
        lambda g, n, s: g.conv2d_grad_input(n.parents[0], s, *_conv_attrs(n)))),
    ("narrow", 1, ("axis", "start", "length"), (_vjp_narrow,)),
    ("pad_zeros", 1, ("axis", "before", "after"), (_vjp_pad_zeros,)),
    ("tile_cols", 1, ("n",), (lambda g, n, s: g.sum_cols(s),)),
    ("sum_cols", 1, (), (lambda g, n, s: g.tile_cols(s, n.parents[0].shape[1]),)),
    ("tile_hw", 1, ("h", "w"), (lambda g, n, s: g.sum_hw(s),)),
    ("sum_hw", 1, (), (lambda g, n, s: g.tile_hw(s, *n.parents[0].shape[1:]),)),
    ("reduce_sum", 1, (), (lambda g, n, s: g.spread(s, n.parents[0].shape),)),
    ("spread", 1, ("shape",), (lambda g, n, s: g.reduce_sum(s),)),
)

for _kind, _arity, _names, _ in _OPS:
    setattr(Graph, _kind, _method(_kind, _arity, _names))
    setattr(Evaluator, _kind, _value_method(_kind))


def _operandwise(vjps):
    """A table row's VJPs as one rule that builds only the needed operands'."""
    def rule(g, node, seed, need):
        return [vjp(g, node, seed) if k else None for vjp, k in zip(vjps, need)]
    return rule


def _vjp_concat(g, node, seed, need):
    axis, outs, start = node.attrs["axis"], [], 0
    for p, k in zip(node.parents, need):
        outs.append(g.narrow(seed, axis, start, p.shape[axis]) if k else None)
        start += p.shape[axis]
    return outs


# rule(surface, node, seed, need) -> one gradient per parent, on the seed's
# surface, None where the parent is not needed or gets none
_VJPS: dict[str, Callable[[Graph | Evaluator, Node, Node | Tensor, list[bool]],
                          list[Node | Tensor | None]]] = {
    "concat": _vjp_concat, **{kind: _operandwise(vjps) for kind, _, _, vjps in _OPS}}


def register_vjp(kind: str):
    def deco(fn):
        _VJPS[kind] = fn
        return fn
    return deco


# ---------------------------------------------------------------------------
# reverse sweep


def _dependents(graph: Graph, output: Node, wrt: Sequence[Node] | None) -> list[bool]:
    """Per node id up to ``output``: whether the node depends on a ``wrt``
    node (every leaf when ``wrt`` is None)."""
    if wrt is None:
        return [True] * (output.id + 1)
    dep = [False] * (output.id + 1)
    for w in wrt:
        if w.id <= output.id:
            dep[w.id] = True
    nodes = graph.nodes
    for nid in range(output.id + 1):
        for p in nodes[nid].parents:
            if dep[p.id]:
                dep[nid] = True
                break
    return dep


_VALUES = Evaluator()


def backward_nodes(graph: Graph, output: Node, seed: Node | Tensor,
                   wrt: Sequence[Node] | None = None) -> dict[int, Node | Tensor]:
    """Reverse sweep returning gradients keyed by node id.

    The sweep visits only the nodes reached from ``output`` that depend on a
    node of ``wrt``, and a rule builds a parent's contribution only when that
    parent depends on one too; ``wrt`` None means every leaf.  So the map has
    an entry for each ``wrt`` node that reaches ``output`` (and for the nodes
    between them), and none for a node that does not.  A dependent node has
    only dependent children, so the entries it gets are the full gradients,
    accumulated in the same order whatever ``wrt`` is.

    A ``Node`` seed builds the gradients as nodes on ``graph``, so any of
    them can be differentiated again by a later sweep.  A ``Tensor`` seed
    runs the same rules on an ``Evaluator`` and returns tensors: the same
    kernels in the same order, so the same values, and no node recorded.
    The dependent set of a given ``output`` and ``wrt`` is computed once and
    kept on ``graph``: nodes up to ``output`` never change, so repeated
    sweeps over a retained arena reuse it.
    """
    if not graph.contains(output):
        raise GraphError("output node is not part of this graph")
    if seed.shape != output.shape:
        raise ShapeError(f"seed shape {seed.shape} != output shape {output.shape}")
    if wrt is None:
        dep = _dependents(graph, output, None)
    else:
        for w in wrt:
            if not graph.contains(w):
                raise GraphError(f"wrt node {w!r} is not part of this graph")
        key = (output.id, tuple(w.id for w in wrt))
        dep = graph._deps.get(key)
        if dep is None:
            dep = graph._deps[key] = _dependents(graph, output, wrt)
    surface = graph if isinstance(seed, Node) else _VALUES
    grads = {output.id: seed}
    for nid in range(output.id, -1, -1):
        node = graph.nodes[nid]
        if nid not in grads or node.is_leaf or not dep[nid]:
            continue
        rule = _VJPS.get(node.kind)
        if rule is None:
            raise NonDifferentiableError(f"op {node.kind!r} has no differentiation rule")
        need = [dep[p.id] for p in node.parents]
        for parent, contrib in zip(node.parents, rule(surface, node, grads[nid], need)):
            if contrib is None:
                continue
            if parent.id in grads:
                grads[parent.id] = surface.add(grads[parent.id], contrib)
            else:
                grads[parent.id] = contrib
    return grads


def backward(graph: Graph, output: Node, seed=None) -> dict[int, Tensor]:
    """Vector-Jacobian products of ``output`` w.r.t. every reachable leaf.

    Returns a map from leaf node id to the accumulated gradient tensor; the
    same tensors are also stored on the leaves' ``grad`` attribute.  The
    sweep is a value sweep: it adds no node to ``graph``.
    """
    seed = T.ones(output.shape) if seed is None else T.as_tensor(seed)
    out: dict[int, Tensor] = {}
    for nid, value in backward_nodes(graph, output, seed).items():
        node = graph.nodes[nid]
        if node.is_leaf:
            out[nid] = node.grad = value
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

    It holds the forward pass and the first differentiation as nodes; every
    backward sweep through the operator is a value sweep over it, so
    repeated sweeps never grow it.
    """

    __slots__ = ("inner", "leaves", "grad_nodes")

    def __init__(self, inner, leaves, grad_nodes):
        self.inner: Graph = inner
        self.leaves = leaves
        self.grad_nodes = grad_nodes


def partial_diff(graph: Graph | Evaluator, s: dict[str, Node], r: FunctionObject,
                 wrt: Sequence[str] | None = None) -> list[Node | Tensor]:
    """Partial derivatives of scalar ``r`` w.r.t. ``s``, treating the entries
    of ``s`` as mutually independent.

    Builds an independent graph on detached clones of ``s``, evaluates and
    differentiates ``r`` there w.r.t. the ``wrt`` clones only, and re-attaches
    the derivatives to ``graph`` as outputs whose own backward rule contracts
    second derivatives on the retained independent graph, w.r.t. the clones
    whose outer parents the caller's sweep needs.  On an ``Evaluator`` the
    derivatives are only read, so the differentiation is a value sweep whose
    values are returned, and nothing is retained.
    """
    if set(s) != set(r.input_names):
        raise GraphError(f"{r.name} expects inputs {r.input_names}, got {sorted(s)}")
    names = list(r.input_names)
    wrt = names if wrt is None else list(wrt)
    for w in wrt:
        if w not in s:
            raise GraphError(f"cannot differentiate w.r.t. unknown input {w!r}")

    inner = Graph()
    leaves = {n: inner.leaf(graph._value(s[n])) for n in names}
    outs = r.build(inner, leaves)
    if len(outs) != 1 or outs[0].value.size != 1:
        raise ShapeError("partial_diff expects a single scalar output")
    # the seed and the gradients live on the evaluator or the inner graph
    surface = graph if isinstance(graph, Evaluator) else inner
    gmap = backward_nodes(inner, outs[0], surface.leaf(T.ones(outs[0].shape)),
                          [leaves[w] for w in wrt])
    grads = {}
    for w in wrt:
        gn = gmap.get(leaves[w].id)
        grads[w] = gn if gn is not None else surface.leaf(T.zeros(s[w].shape))
    if surface is graph:
        return [grads[w] for w in wrt]

    state = _PartialState(inner, leaves, grads)
    parents = tuple(s[n] for n in names)
    return [graph._append("partial_diff", parents, grads[w].value,
                          {"state": state, "wrt": w, "names": names})
            for w in wrt]


@register_vjp("partial_diff")
def _vjp_partial_diff(g, node, seed, need):
    state: _PartialState = node.attrs["state"]
    # the gradient of <delta, d r / d s_w>: one value sweep on the retained
    # independent graph from d r / d s_w, seeded with the incoming gradient's
    # value; its results re-enter ``g`` as leaves (no derivatives for them).
    # The graph keeps the sweep's dependent set across calls.
    leaves = [state.leaves[name] for name in node.attrs["names"]]
    second = backward_nodes(state.inner, state.grad_nodes[node.attrs["wrt"]], g._value(seed),
                            [leaf for leaf, k in zip(leaves, need) if k])
    return [g.leaf(second[leaf.id]) if leaf.id in second else None for leaf in leaves]


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
