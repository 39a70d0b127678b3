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
apply the kernel to tensors and record nothing (forward iterates, which are
never differentiated, run on an evaluator).  It also fills the rule
registry.  Only ``leaf``, ``concat`` and the compositions ``mean``,
``sq_norm`` and ``dot`` are written out, once, and both surfaces share them.
A reverse sweep builds an operand's VJP only when the operand depends on a
leaf the caller reads; the registered rules that share work across operands
(``concat``, ``partial_diff`` and ``fpi_layer``) get the mask of needed
parents.  A graph keeps the dependent set of each pruned sweep until a
rollback drops its output, so sweeps repeated over a retained arena scan it
once.
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
        if any(out >= mark for out, _ in self._deps):
            self._deps = {key: dep for key, dep in self._deps.items() if key[0] < mark}

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
    names, applied to tensors.  Nothing is recorded, so nothing can be
    differentiated, and each intermediate dies as soon as it is unused."""

    __slots__ = ()

    def _append(self, kind: str, parents: tuple, value: Tensor, attrs: dict | None = None):
        return value

    @staticmethod
    def _value(value: Tensor) -> Tensor:
        return value

    leaf, concat, mean = Graph.leaf, Graph.concat, Graph.mean
    sq_norm, dot = Graph.sq_norm, Graph.dot


# ---------------------------------------------------------------------------
# the op table: one row per differentiable kernel.  Each rule builds graph
# nodes, so rules compose to arbitrary order.


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
#  one vjp(graph, node, seed) -> gradient node per operand)
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


# rule(graph, node, seed, need) -> one gradient node per parent, None where
# the parent is not needed or gets none
_VJPS: dict[str, Callable[[Graph, Node, Node, list[bool]], list[Node | None]]] = {
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


def backward_nodes(graph: Graph, output: Node, seed: Node,
                   wrt: Sequence[Node] | None = None) -> dict[int, Node]:
    """Reverse sweep returning gradient *nodes* keyed by node id.

    The sweep visits only the nodes reached from ``output`` that depend on a
    node of ``wrt``, and a rule builds a parent's contribution only when that
    parent depends on one too; ``wrt`` None means every leaf.  So the map has
    an entry for each ``wrt`` node that reaches ``output`` (and for the nodes
    between them), and none for a node that does not.  A dependent node has
    only dependent children, so the entries it gets are the full gradients,
    accumulated in the same order whatever ``wrt`` is.

    The returned nodes live on ``graph``, so any of them can be differentiated
    again by a later sweep.  The dependent set of a given ``output`` and
    ``wrt`` is computed once and kept on ``graph`` until a rollback drops
    ``output``: nodes up to ``output`` never change while it lives, so
    repeated sweeps over a retained arena reuse it.
    """
    if not graph.contains(output):
        raise GraphError("output node is not part of this graph")
    if seed.value.shape != output.value.shape:
        raise ShapeError(f"seed shape {seed.value.shape} != output shape {output.value.shape}")
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
    grads: dict[int, Node] = {output.id: seed}
    for nid in range(output.id, -1, -1):
        node = graph.nodes[nid]
        if nid not in grads or node.is_leaf or not dep[nid]:
            continue
        rule = _VJPS.get(node.kind)
        if rule is None:
            raise NonDifferentiableError(f"op {node.kind!r} has no differentiation rule")
        need = [dep[p.id] for p in node.parents]
        for parent, contrib in zip(node.parents, rule(graph, node, grads[nid], need)):
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
    seed and second-derivative nodes, reads off the values, and rolls back to
    the mark, so repeated sweeps never grow the retained graph.
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
    differentiates ``r`` there w.r.t. the ``wrt`` clones only, and re-attaches
    the derivatives to ``graph`` as outputs whose own backward rule contracts
    second derivatives on the retained independent graph, w.r.t. the clones
    whose outer parents the caller's sweep needs.  On an ``Evaluator`` it
    returns the derivative values and retains nothing.
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
    gmap = backward_nodes(inner, outs[0], inner.leaf(T.ones(outs[0].shape)),
                          [leaves[w] for w in wrt])
    grad_nodes = {}
    for w in wrt:
        gn = gmap.get(leaves[w].id)
        grad_nodes[w] = gn if gn is not None else inner.leaf(T.zeros(s[w].shape))
    if isinstance(graph, Evaluator):
        return [grad_nodes[w].value for w in wrt]

    state = _PartialState(inner, leaves, grad_nodes)
    parents = tuple(s[n] for n in names)
    return [graph._append("partial_diff", parents, grad_nodes[w].value,
                          {"state": state, "wrt": w, "names": names})
            for w in wrt]


@register_vjp("partial_diff")
def _vjp_partial_diff(g, node, seed, need):
    state: _PartialState = node.attrs["state"]
    inner = state.inner
    # the gradient of <delta, d r / d s_w>: one sweep on the retained
    # independent graph from d r / d s_w, seeded with the incoming gradient
    # as a detached leaf (no derivatives for it).  The output lies below the
    # mark, so the graph keeps its dependent set across calls.
    leaves = [state.leaves[name] for name in node.attrs["names"]]
    second = backward_nodes(inner, state.grad_nodes[node.attrs["wrt"]], inner.leaf(seed.value),
                            [leaf for leaf, k in zip(leaves, need) if k])
    outs: list[Node | None] = []
    for leaf in leaves:
        gn = second.get(leaf.id)
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
