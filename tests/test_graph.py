import inspect

import numpy as np
import pytest

from fpx import graph as graph_mod
from fpx import tensor as T
from fpx.graph import (
    _OPS,
    Evaluator,
    FunctionObject,
    Graph,
    GraphError,
    NonDifferentiableError,
    backward,
    backward_nodes,
    live_node_count,
    partial_diff,
    vjp,
)
from fpx.fpi import FpiConfig, fpi_layer
from fpx.layers import EnergyNet, GdG, MlpG
from fpx.tensor import ShapeError, Tensor

from reference import central_diff, rel_err


class TestBackward:
    def test_scalar_chain(self):
        g = Graph()
        x = g.leaf(Tensor(2.0))
        y = g.scale(x, 3.0)
        grads = backward(g, y, Tensor(1.0))
        assert grads[x.id].item() == 3.0
        assert x.grad.item() == 3.0

    def test_quadratic_form(self):
        g = Graph()
        x = g.leaf(Tensor([1.0, 2.0]))
        y = g.dot(x, x)
        grads = backward(g, y, Tensor(1.0))
        assert grads[x.id].data.tolist() == [2.0, 4.0]

    def test_gradients_accumulate_over_paths(self):
        g = Graph()
        x = g.leaf(Tensor([3.0]))
        y = g.reduce_sum(g.add(g.mul(x, x), x))   # x^2 + x
        grads = backward(g, y)
        assert grads[x.id].data.tolist() == [7.0]

    def test_three_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        sizes = [(5, 4), (6, 5), (3, 6)]
        weights = [rng.standard_normal(s) for s in sizes]
        biases = [rng.standard_normal(s[0]) for s in sizes]
        x0 = rng.standard_normal((4, 1))

        def run(xv, wv):
            g = Graph()
            h = g.leaf(Tensor(xv))
            leaves = []
            for w, b in zip(wv, biases):
                wn = g.leaf(Tensor(w))
                leaves.append(wn)
                h = g.relu(g.add(g.matmul(wn, h), g.tile_cols(g.leaf(Tensor(b)), 1)))
            out = g.sq_norm(h)
            return g, h, out, leaves

        g, _, out, wleaves = run(x0, weights)
        grads = backward(g, out, Tensor(1.0))
        for i in range(3):
            fd = central_diff(
                lambda w, i=i: run(x0, [w if j == i else weights[j]
                                        for j in range(3)])[2].value.item(),
                weights[i])
            assert rel_err(grads[wleaves[i].id].data, fd) < 1e-6

    def test_output_not_in_graph(self):
        g1, g2 = Graph(), Graph()
        x = g1.leaf(Tensor(1.0))
        with pytest.raises(GraphError):
            backward(g2, x, Tensor(1.0))

    def test_seed_shape_checked(self):
        g = Graph()
        x = g.leaf(Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError):
            backward(g, x, Tensor(1.0))

    def test_non_differentiable_op_reports_kind(self):
        g = Graph()
        x = g.leaf(Tensor([1.0]))
        weird = g._append("weird_op", (x,), Tensor([1.0]))
        with pytest.raises(NonDifferentiableError, match="weird_op"):
            backward(g, weird, Tensor([1.0]))

    def test_wrt_prunes_to_the_leaves_that_reach_the_output(self):
        g = Graph()
        x, w, unused = (g.leaf(Tensor([1.0, 2.0])) for _ in range(3))
        y = g.reduce_sum(g.mul(g.sigmoid(x), w))
        full = backward_nodes(g, y, g.leaf(Tensor(1.0)))
        for wrt in ([x], [w], [x, w]):
            grads = backward_nodes(g, y, g.leaf(Tensor(1.0)), wrt)
            assert {x.id, w.id} & set(grads) == {leaf.id for leaf in wrt}
            for leaf in wrt:
                assert np.array_equal(grads[leaf.id].value.data, full[leaf.id].value.data)
        assert unused.id not in backward_nodes(g, y, g.leaf(Tensor(1.0)), [unused, x])

    def test_wrt_node_from_another_graph(self):
        g, other = Graph(), Graph()
        x = g.leaf(Tensor([1.0]))
        y = g.reduce_sum(x)
        with pytest.raises(GraphError, match="wrt"):
            backward_nodes(g, y, g.leaf(Tensor(1.0)), [other.leaf(Tensor([1.0]))])

    def test_repeated_sweeps_reuse_the_dependent_set(self, monkeypatch):
        g = Graph()
        x, w = g.leaf(Tensor([1.0, 2.0])), g.leaf(Tensor([3.0, -1.0]))
        y = g.reduce_sum(g.mul(g.sigmoid(x), w))
        original, calls = graph_mod._dependents, []

        def counting(*args):
            calls.append(1)
            return original(*args)
        monkeypatch.setattr(graph_mod, "_dependents", counting)
        first = backward_nodes(g, y, Tensor(1.0), [x])[x.id].data
        again = backward_nodes(g, y, Tensor(1.0), [x])[x.id].data
        assert len(calls) == 1 and np.array_equal(first, again)
        backward_nodes(g, y, Tensor(1.0), [w])
        assert len(calls) == 2      # another wrt set is another dependent set

    def test_arena_is_append_only_and_values_frozen(self):
        g = Graph()
        x = g.leaf(Tensor([1.0]))
        y = g.relu(x)
        assert [n.id for n in g.nodes] == list(range(len(g.nodes)))
        with pytest.raises(ValueError):
            y.value.data[0] = 9.0


def _op_case(kind: str, rng: np.random.Generator):
    """Operand arrays and trailing kernel arguments for one op-table row,
    away from the kinks of relu and clip and the poles of log and recip."""
    def m(*shape):
        return np.asarray(rng.standard_normal(shape))

    def away(lo):   # entries with |x| in [lo, 1]
        return rng.uniform(lo, 1.0, (3, 2)) * rng.choice([-1.0, 1.0], (3, 2))

    band = np.array([[-0.9, -0.3], [0.1, 0.7], [0.35, -0.6]])
    return {
        "add": ([m(3, 2), m(3, 2)], ()),
        "sub": ([m(3, 2), m(3, 2)], ()),
        "mul": ([m(3, 2), m(3, 2)], ()),
        "scale": ([m(3, 2)], (-1.5,)),
        "offset": ([m(3, 2)], (0.7,)),
        "relu": ([away(0.2)], ()),
        "sigmoid": ([m(3, 2)], ()),
        "log": ([rng.uniform(0.5, 2.0, (3, 2))], ()),
        "recip": ([away(0.5)], ()),
        "clip": ([band + rng.uniform(-0.05, 0.05, band.shape)], (-0.5, 0.5)),
        "matmul": ([m(3, 4), m(4, 2)], ()),
        "transpose": ([m(3, 2)], ()),
        # 3 -> 2 channels at stride 1 unrolls the taps; stride 2 runs im2col
        "conv2d": ([m(3, 5, 5), m(2, 3, 3, 3)], (1, 1)),
        "conv2d_grad_input": ([m(2, 3, 3), m(2, 3, 3, 3)], (2, 1)),
        "conv2d_grad_kernel": ([m(2, 5, 5), m(3, 5, 5)], ((3, 3), 1, 1)),
        "narrow": ([m(4, 3)], (0, 1, 2)),
        "pad_zeros": ([m(2, 3)], (1, 1, 2)),
        "tile_cols": ([m(3)], (4,)),
        "sum_cols": ([m(3, 4)], ()),
        "tile_hw": ([m(2)], (3, 4)),
        "sum_hw": ([m(2, 3, 4)], ()),
        "reduce_sum": ([m(3, 2)], ()),
        "spread": ([m()], ((3, 2),)),
    }[kind]


def _table_vjps(kind, xs, args, seed) -> list[np.ndarray]:
    """First-order VJPs of one table op at ``xs``, one array per operand."""
    g = Graph()
    leaves = [g.leaf(Tensor(x)) for x in xs]
    grads = backward(g, getattr(g, kind)(*leaves, *args), Tensor(seed))
    return [grads[leaf.id].data for leaf in leaves]


def _with(xs, i, v):
    return [v if j == i else x for j, x in enumerate(xs)]


_KINDS = [row[0] for row in _OPS]


class TestOpTable:
    """Every row of the op table, in isolation: its kernel, its method and
    its rule to second order."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_kind_names_a_kernel(self, kind):
        kernel = getattr(T, kind)
        assert inspect.isfunction(kernel) and kernel.__module__ == "fpx.tensor"
        assert inspect.isfunction(vars(Graph)[kind])

    @pytest.mark.parametrize("kind", _KINDS)
    def test_method_calls_the_module_kernel(self, kind, monkeypatch):
        # the benchmark tracer replaces fpx.tensor attributes and must see
        # every call a Graph method makes
        xs, args = _op_case(kind, np.random.default_rng(41))
        kernel, calls = getattr(T, kind), []

        def counting(*a):
            calls.append(kind)
            return kernel(*a)
        monkeypatch.setattr(T, kind, counting)
        g = Graph()
        node = getattr(g, kind)(*[g.leaf(Tensor(x)) for x in xs], *args)
        assert calls == [kind] and node.kind == kind
        np.testing.assert_array_equal(node.value.data, kernel(*map(Tensor, xs), *args).data)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_evaluator_method_calls_the_module_kernel(self, kind, monkeypatch):
        xs, args = _op_case(kind, np.random.default_rng(41))
        kernel, calls = getattr(T, kind), []

        def counting(*a):
            calls.append(kind)
            return kernel(*a)
        monkeypatch.setattr(T, kind, counting)
        assert inspect.isfunction(vars(Evaluator)[kind])
        out = getattr(Evaluator(), kind)(*map(Tensor, xs), *args)
        assert calls == [kind] and isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, kernel(*map(Tensor, xs), *args).data)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_vjp_matches_central_differences(self, kind):
        rng = np.random.default_rng(43)
        xs, args = _op_case(kind, rng)
        kernel = getattr(T, kind)
        seed = rng.standard_normal(kernel(*map(Tensor, xs), *args).shape)
        got = _table_vjps(kind, xs, args, seed)
        for i, x in enumerate(xs):
            fd = central_diff(
                lambda v: float(np.sum(seed * kernel(*map(Tensor, _with(xs, i, v)), *args).data)),
                x)
            assert rel_err(got[i], fd) < 1e-7

    @pytest.mark.parametrize("kind", _KINDS)
    def test_second_order_vjp_matches_central_differences(self, kind):
        # s(x, c) = sum_i <u_i, VJP_i(x, c)>, differentiated through the
        # rule's own nodes, against differences of the first-order VJPs
        rng = np.random.default_rng(47)
        xs, args = _op_case(kind, rng)
        seed = rng.standard_normal(getattr(T, kind)(*map(Tensor, xs), *args).shape)
        us = [rng.standard_normal(x.shape) for x in xs]

        def s(xs_, seed_):
            return sum(float(np.sum(u * v)) for u, v in zip(us, _table_vjps(kind, xs_, args, seed_)))

        g = Graph()
        leaves = [g.leaf(Tensor(x)) for x in xs]
        c = g.leaf(Tensor(seed))
        gnodes = backward_nodes(g, getattr(g, kind)(*leaves, *args), c)
        parts = [g.dot(g.leaf(Tensor(u)), gnodes[leaf.id]) for u, leaf in zip(us, leaves)]
        grads = backward(g, parts[0] if len(parts) == 1 else g.add(*parts))
        got = [grads.get(n.id, T.zeros(n.shape)).data for n in (*leaves, c)]
        want = [central_diff(lambda v, i=i: s(_with(xs, i, v), seed), x) for i, x in enumerate(xs)]
        want.append(central_diff(lambda v: s(xs, v), seed))
        assert rel_err(np.concatenate([a.ravel() for a in got]),
                       np.concatenate([a.ravel() for a in want])) < 1e-7


def _assert_value_sweep_matches(g: Graph, output, seed: np.ndarray, wrt):
    """A tensor seed gives, entry for entry, exactly the values of a node
    seed's gradient nodes, and adds no node to ``g``."""
    nodes = backward_nodes(g, output, g.leaf(Tensor(seed)), wrt)
    size = len(g)
    values = backward_nodes(g, output, Tensor(seed), wrt)
    assert len(g) == size and set(values) == set(nodes)
    for nid, node in nodes.items():
        assert isinstance(values[nid], Tensor)
        assert np.array_equal(values[nid].data, node.value.data)


def _wrt(mode: str, leaves):
    return None if mode == "all" else leaves[:1]


class TestValueSweep:
    """A sweep seeded with a tensor runs every rule on the value surface and
    gives the values a node-seeded sweep would."""

    @pytest.mark.parametrize("mode", ["all", "wrt"])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_every_table_row(self, kind, mode):
        rng = np.random.default_rng(61)
        xs, args = _op_case(kind, rng)
        g = Graph()
        leaves = [g.leaf(Tensor(x)) for x in xs]
        out = getattr(g, kind)(*leaves, *args)
        _assert_value_sweep_matches(g, out, rng.standard_normal(out.shape), _wrt(mode, leaves))

    @pytest.mark.parametrize("mode", ["all", "wrt"])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_every_table_row_second_order(self, kind, mode):
        # the output contracts the row's first-order gradient nodes
        rng = np.random.default_rng(67)
        xs, args = _op_case(kind, rng)
        g = Graph()
        leaves = [g.leaf(Tensor(x)) for x in xs]
        op = getattr(g, kind)(*leaves, *args)
        c = g.leaf(Tensor(rng.standard_normal(op.shape)))
        gnodes = backward_nodes(g, op, c)
        parts = [g.dot(g.leaf(Tensor(rng.standard_normal(leaf.shape))), gnodes[leaf.id])
                 for leaf in leaves]
        out = parts[0] if len(parts) == 1 else g.add(*parts)
        _assert_value_sweep_matches(g, out, np.ones(()), _wrt(mode, [*leaves, c]))

    @pytest.mark.parametrize("mode", ["all", "wrt"])
    def test_concat(self, mode):
        rng = np.random.default_rng(71)
        g = Graph()
        leaves = [g.leaf(Tensor(rng.standard_normal(s))) for s in ((2, 3), (1, 3), (4, 3))]
        out = g.sigmoid(g.concat(leaves[::-1], 0))
        _assert_value_sweep_matches(g, out, rng.standard_normal(out.shape), _wrt(mode, leaves))

    @pytest.mark.parametrize("mode", ["all", "wrt"])
    def test_partial_diff_second_order_sweep(self, mode):
        # x = A th feeds r together with th, so the sweep reaches both
        # clones of the retained inner graph
        rng = np.random.default_rng(73)

        def r_recipe(gg, ins):
            return gg.reduce_sum(gg.mul(gg.mul(ins["x"], ins["x"]), gg.sigmoid(ins["th"])))
        g = Graph()
        th = g.leaf(Tensor(rng.standard_normal((3, 1))))
        x = g.matmul(g.leaf(Tensor(rng.standard_normal((3, 3)))), th)
        px, pth = partial_diff(g, {"x": x, "th": th}, FunctionObject(["x", "th"], r_recipe))
        out = g.add(g.sq_norm(px), g.sq_norm(pth))
        _assert_value_sweep_matches(g, out, np.ones(()), _wrt(mode, [th]))

    @pytest.mark.parametrize("mode", ["all", "wrt"])
    def test_gd_update(self, mode):
        rng = np.random.default_rng(79)
        module = GdG(EnergyNet(3, 2, 5, body_dim=3), gamma=0.5)
        theta = module.init_params(0.5, rng)
        g = Graph()
        x, z = g.leaf(Tensor(rng.standard_normal((3, 4)))), g.leaf(Tensor(rng.standard_normal((2, 4))))
        out = module.build(g, x, z, {n: g.leaf(theta[n]) for n in module.param_names})
        _assert_value_sweep_matches(g, out, rng.standard_normal(out.shape), _wrt(mode, [x, z]))

    @pytest.mark.parametrize("mode", ["all", "wrt"])
    def test_fpi_layer(self, mode):
        rng = np.random.default_rng(83)
        module = MlpG(state_dim=4, input_dim=3, hidden=5)
        theta = module.init_params(0.3, rng)
        g = Graph()
        z = g.leaf(Tensor(rng.standard_normal((3, 2))))
        tnodes = {n: g.leaf(theta[n]) for n in module.param_names}
        out = g.sigmoid(fpi_layer(g, module, z, tnodes, FpiConfig(tol=1e-12)))
        _assert_value_sweep_matches(g, out, rng.standard_normal(out.shape),
                                    _wrt(mode, [tnodes["w1"], z]))

    def test_contract_checks_hold_for_a_tensor_seed(self):
        g, other = Graph(), Graph()
        x = g.leaf(Tensor([1.0, 2.0]))
        y = g.reduce_sum(x)
        with pytest.raises(ShapeError, match="seed shape"):
            backward_nodes(g, y, Tensor([1.0, 1.0]))
        with pytest.raises(GraphError, match="output"):
            backward_nodes(other, y, Tensor(1.0))
        with pytest.raises(GraphError, match="wrt"):
            backward_nodes(g, y, Tensor(1.0), [other.leaf(Tensor([1.0]))])


class TestDetachClone:
    """A node's value copied into a fresh leaf blocks gradient flow."""

    def test_clone_of_interior_node_blocks_flow(self):
        g = Graph()
        x = g.leaf(Tensor([1.0, -2.0]))
        y = g.scale(x, 2.0)
        y2 = g.leaf(y.value)
        assert y2.is_leaf and y2.value.data.tolist() == y.value.data.tolist()
        out = g.sq_norm(y2)
        grads = backward(g, out)
        assert x.id not in grads

    def test_clone_of_leaf_is_distinct(self):
        g = Graph()
        x = g.leaf(Tensor([5.0]))
        x2 = g.leaf(x.value)
        assert x2 is not x and x2.is_leaf
        assert x2.value.data.tolist() == [5.0]

    def test_clone_presence_leaves_original_gradients_unchanged(self):
        def grads_with(clone: bool):
            g = Graph()
            x = g.leaf(Tensor([1.0, 2.0]))
            y = g.sigmoid(g.scale(x, 3.0))
            if clone:
                y2 = g.leaf(y.value)
                g.sq_norm(y2)   # dangling use of the clone
            out = g.sq_norm(y)
            return backward(g, out)[x.id].data

        np.testing.assert_array_equal(grads_with(False), grads_with(True))


def _poly_fo():
    """r(x) = sum(x^4), a smooth single-input scalar function object."""
    def recipe(g, ins):
        x2 = g.mul(ins["x"], ins["x"])
        return g.reduce_sum(g.mul(x2, x2))
    return FunctionObject(["x"], recipe, name="quartic")


class TestPartialDiff:
    def test_square_at_three(self):
        def recipe(g, ins):
            return g.reduce_sum(g.mul(ins["x"], ins["x"]))
        g = Graph()
        x = g.leaf(Tensor(np.array([3.0])))
        (p,) = partial_diff(g, {"x": x}, FunctionObject(["x"], recipe))
        assert g.contains(p)
        assert p.value.data.tolist() == [6.0]

    def test_codependent_arguments_treated_as_free(self):
        # x = f(theta) upstream; P must differentiate r at frozen values
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        th_val = rng.standard_normal((3, 1))

        def r_recipe(g, ins):
            # r(x, th) = |x|^2 * 1 + <x, th>
            return g.add(g.sq_norm(ins["x"]), g.dot(ins["x"], ins["th"]))

        r = FunctionObject(["x", "th"], r_recipe)
        g = Graph()
        th = g.leaf(Tensor(th_val))
        x = g.matmul(g.leaf(Tensor(a)), th)          # x depends on th
        px, pth = partial_diff(g, {"x": x, "th": th}, r)

        xv = x.value.data
        fd_x = central_diff(lambda v: float(np.sum(v * v) + np.sum(v * th_val)), xv)
        fd_th = central_diff(lambda v: float(np.sum(xv * xv) + np.sum(xv * v)), th_val)
        assert rel_err(px.value.data, fd_x) < 1e-8
        assert rel_err(pth.value.data, fd_th) < 1e-8

    def test_backward_through_partial_diff_cubic(self):
        def cubic(g, ins):
            x = ins["x"]
            return g.reduce_sum(g.mul(g.mul(x, x), x))
        g = Graph()
        x = g.leaf(Tensor(np.array([2.0])))
        (p,) = partial_diff(g, {"x": x}, FunctionObject(["x"], cubic))
        assert p.value.data.tolist() == [12.0]      # 3 x^2
        grads = backward(g, p, Tensor(np.ones(1)))
        assert grads[x.id].data.tolist() == [12.0]  # 6 x

    def test_on_independent_leaves_equals_plain_backward(self):
        rng = np.random.default_rng(13)
        xv = rng.standard_normal((4, 1))
        fo = _poly_fo()

        g = Graph()
        x = g.leaf(Tensor(xv))
        (p,) = partial_diff(g, {"x": x}, fo)

        g2 = Graph()
        x2 = g2.leaf(Tensor(xv))
        out = fo.build(g2, {"x": x2})[0]
        plain = backward(g2, out, Tensor(1.0))[x2.id]
        np.testing.assert_array_equal(p.value.data, plain.data)

    def test_double_backward_matches_fd_of_first_derivative(self):
        rng = np.random.default_rng(17)
        xv = rng.standard_normal(3)
        w = rng.standard_normal(3)
        fo = _poly_fo()

        def first_derivative_contracted(v: np.ndarray) -> float:
            g = Graph()
            x = g.leaf(Tensor(v))
            (p,) = partial_diff(g, {"x": x}, fo)
            return float(np.sum(w * p.value.data))

        g = Graph()
        x = g.leaf(Tensor(xv))
        (p,) = partial_diff(g, {"x": x}, fo)
        out = g.dot(g.leaf(Tensor(w)), p)
        grads = backward(g, out, Tensor(1.0))
        fd = central_diff(first_derivative_contracted, xv)
        assert rel_err(grads[x.id].data, fd) < 1e-5
        np.testing.assert_allclose(grads[x.id].data, 12.0 * xv ** 2 * w, rtol=1e-12)

    def test_total_derivative_combines_both_routes(self):
        # loss built from P's outputs must route gradients through x = A th
        # as well as the direct th argument; compare against total-derivative FD
        rng = np.random.default_rng(19)
        a = rng.standard_normal((3, 3))
        th0 = rng.standard_normal((3, 1))

        def r_recipe(g, ins):
            prod = g.mul(g.mul(ins["x"], ins["x"]), ins["th"])
            return g.reduce_sum(prod)
        r = FunctionObject(["x", "th"], r_recipe)

        def loss_of_theta(th_val: np.ndarray) -> float:
            g = Graph()
            th = g.leaf(Tensor(th_val))
            x = g.matmul(g.leaf(Tensor(a)), th)
            px, pth = partial_diff(g, {"x": x, "th": th}, r)
            return g.add(g.sq_norm(px), g.sq_norm(pth)).value.item()

        g = Graph()
        th = g.leaf(Tensor(th0))
        x = g.matmul(g.leaf(Tensor(a)), th)
        px, pth = partial_diff(g, {"x": x, "th": th}, r)
        out = g.add(g.sq_norm(px), g.sq_norm(pth))
        grads = backward(g, out, Tensor(1.0))
        fd = central_diff(loss_of_theta, th0)
        assert rel_err(grads[th.id].data, fd) < 1e-6

    def test_unrequested_partials_are_skipped(self):
        g = Graph()
        x = g.leaf(Tensor([1.0]))
        y = g.leaf(Tensor([2.0]))

        def r_recipe(gg, ins):
            return gg.dot(ins["x"], ins["y"])
        outs = partial_diff(g, {"x": x, "y": y}, FunctionObject(["x", "y"], r_recipe),
                            wrt=["y"])
        assert len(outs) == 1
        assert outs[0].value.data.tolist() == [1.0]

    def test_scalar_output_required(self):
        g = Graph()
        x = g.leaf(Tensor([1.0, 2.0]))
        ident = FunctionObject(["x"], lambda gg, ins: ins["x"], name="ident")
        with pytest.raises(ShapeError):
            partial_diff(g, {"x": x}, ident)


class TestEvaluator:
    """The value-only surface computes what a graph would, and records
    nothing."""

    def test_shared_methods_match_the_graph(self):
        rng = np.random.default_rng(53)
        a, b = (Tensor(rng.standard_normal((3, 2))) for _ in range(2))
        ev, g = Evaluator(), Graph()
        na, nb = g.leaf(a), g.leaf(b)
        assert ev.leaf(a) is a
        for got, want in [(ev.concat([a, b], 1), g.concat([na, nb], 1)),
                          (ev.mean(a), g.mean(na)), (ev.sq_norm(a), g.sq_norm(na)),
                          (ev.dot(a, b), g.dot(na, nb))]:
            assert np.array_equal(got.data, want.value.data)
        with pytest.raises(ShapeError):
            ev.mean(T.zeros((0,)))

    def test_partial_diff_returns_values_and_keeps_no_node(self):
        xv = np.random.default_rng(59).standard_normal(4)
        g = Graph()
        (want,) = partial_diff(g, {"x": g.leaf(Tensor(xv))}, _poly_fo())
        base = live_node_count()
        (got,) = partial_diff(Evaluator(), {"x": Tensor(xv)}, _poly_fo())
        assert isinstance(got, Tensor) and np.array_equal(got.data, want.value.data)
        assert live_node_count() == base


class TestInnerBuilder:
    """The inner product of a fixed cotangent with a partial derivative,
    differentiated once more through the partial operator."""

    def test_eta_double_backward_matches_finite_differences(self):
        # delta-weighted first derivative of r(x)=sum(x^4), differentiated once
        # more via the partial operator built from H
        rng = np.random.default_rng(23)
        xv = rng.standard_normal(4)
        delta = rng.standard_normal(4)
        r = _poly_fo()

        def eta_recipe(g, ins):
            (p,) = partial_diff(g, {"x": ins["x"]}, r, wrt=["x"])
            return g.dot(g.leaf(Tensor(delta)), p)   # delta enters as a constant
        eta = FunctionObject(["x"], eta_recipe, name="eta")

        g = Graph()
        x = g.leaf(Tensor(xv))
        (q,) = partial_diff(g, {"x": x}, eta, wrt=["x"])

        def eta_value(v: np.ndarray) -> float:
            gg = Graph()
            xx = gg.leaf(Tensor(v))
            (p,) = partial_diff(gg, {"x": xx}, r, wrt=["x"])
            return float(np.sum(delta * p.value.data))

        fd = central_diff(eta_value, xv)
        assert rel_err(q.value.data, fd) < 1e-6
        np.testing.assert_allclose(q.value.data, 12.0 * xv ** 2 * delta, rtol=1e-12)


class TestVjp:
    def test_linear_map_transposes(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = FunctionObject(["x"], lambda g, ins: g.matmul(g.leaf(Tensor(a)), ins["x"]))
        out = vjp(f, {"x": T.zeros((2, 1))}, Tensor([[1.0], [1.0]]))
        assert out["x"].data.ravel().tolist() == [4.0, 6.0]

    def test_zero_cotangent_gives_zeros(self):
        f = FunctionObject(["x"], lambda g, ins: g.sigmoid(ins["x"]))
        out = vjp(f, {"x": Tensor([1.0, -1.0])}, T.zeros(2))
        assert out["x"].data.tolist() == [0.0, 0.0]

    def test_matches_analytic_jacobian_of_small_mlp(self):
        # hand-assembled Jacobian of sigmoid(W2 relu(W1 [x;z] + b1) + b2)
        rng = np.random.default_rng(29)
        dx, dz, h = 4, 3, 6
        w1 = rng.standard_normal((h, dx + dz))
        b1 = rng.standard_normal(h)
        w2 = rng.standard_normal((dx, h))
        b2 = rng.standard_normal(dx)
        xv = rng.standard_normal((dx, 1))
        zv = rng.standard_normal((dz, 1))

        def recipe(g, ins):
            xz = g.concat([ins["x"], g.leaf(Tensor(zv))], axis=0)
            pre1 = g.add(g.matmul(g.leaf(Tensor(w1)), xz), g.tile_cols(g.leaf(Tensor(b1)), 1))
            hid = g.relu(pre1)
            pre2 = g.add(g.matmul(g.leaf(Tensor(w2)), hid), g.tile_cols(g.leaf(Tensor(b2)), 1))
            return g.sigmoid(pre2)
        f = FunctionObject(["x"], recipe)

        pre1 = w1 @ np.concatenate([xv, zv]) + b1[:, None]
        hid = np.maximum(pre1, 0.0)
        pre2 = w2 @ hid + b2[:, None]
        sig = 1.0 / (1.0 + np.exp(-pre2))
        jac = (sig * (1.0 - sig)) * (w2 @ ((pre1 > 0) * w1[:, :dx]))

        for trial in range(3):
            c = rng.standard_normal((dx, 1))
            got = vjp(f, {"x": Tensor(xv)}, Tensor(c))["x"].data
            want = jac.T @ c
            assert rel_err(got, want) < 1e-10

    def test_random_compositions_match_fd_jacobian_transpose(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            n = int(rng.integers(2, 8))
            a = rng.standard_normal((n, n))

            def recipe(g, ins, a=a):
                y = g.matmul(g.leaf(Tensor(a)), ins["x"])
                return g.mul(g.sigmoid(y), y)
            f = FunctionObject(["x"], recipe)
            xv = rng.standard_normal((n, 1))
            c = rng.standard_normal((n, 1))

            def comp(v: np.ndarray) -> np.ndarray:
                y = a @ v
                return (1.0 / (1.0 + np.exp(-y))) * y

            jac = np.zeros((n, n))
            for j in range(n):
                e = np.zeros((n, 1))
                e[j] = 1e-6
                jac[:, j] = ((comp(xv + e) - comp(xv - e)) / 2e-6).ravel()
            got = vjp(f, {"x": Tensor(xv)}, Tensor(c))["x"].data
            assert rel_err(got, jac.T @ c) < 1e-8


def test_live_node_count_tracks_graph_lifetime():
    base = live_node_count()
    g = Graph()
    for _ in range(10):
        g.leaf(T.zeros(1))
    assert live_node_count() == base + 10
    del g
    assert live_node_count() == base
