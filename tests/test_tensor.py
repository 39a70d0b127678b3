import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpx import tensor as T
from fpx.tensor import NumericsError, ShapeError, Tensor

from reference import (naive_conv2d, naive_conv2d_grad_input, naive_conv2d_grad_kernel,
                       naive_matmul)


def test_tensor_is_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
    with pytest.raises(AttributeError):
        t.data = np.zeros(2)


def test_tensor_copies_its_input():
    src = np.ones(3)
    t = Tensor(src)
    src[0] = 7.0
    assert t.data[0] == 1.0


class TestWrap:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [0, 3, 6])
    def test_non_finite_anywhere_raises(self, bad, pos):
        a = np.ones(7)
        a[pos] = bad
        with pytest.raises(NumericsError):
            T.add(Tensor(a), Tensor(np.zeros(7)))

    def test_finite_values_with_overflowing_sum_pass(self):
        out = T.add(Tensor([1e308] * 2), Tensor([-1e300] * 2))
        assert np.all(np.isfinite(out.data))

    def test_outputs_are_read_only_and_never_write_through(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.ones((2, 3)))
        total = T.add(a, b)
        assert not np.shares_memory(total.data, a.data)
        assert not np.shares_memory(total.data, b.data)
        for out in (total, T.transpose(a), T.narrow(a, 1, 1, 2)):
            with pytest.raises(ValueError):
                out.data[0, 0] = -1.0
        # views of an input's data cannot even be made writable again
        for view in (T.transpose(a), T.narrow(a, 1, 1, 2)):
            with pytest.raises(ValueError):
                view.data.setflags(write=True)
        np.testing.assert_array_equal(a.data, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(b.data, np.ones((2, 3)))


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_hand_case():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_against_naive_reference():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    got = T.matmul(Tensor(a), Tensor(b)).data
    want = naive_matmul(a, b)
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_matmul_matches_naive_on_random_shapes(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    got = T.matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-12


class TestConv2d:
    def test_ones_with_scalar_kernel(self):
        inp = Tensor(np.ones((1, 3, 3)))
        kernel = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = T.conv2d(inp, kernel, 1, 0)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 2.0))

    def test_impulse_reproduces_kernel(self):
        inp = np.zeros((1, 5, 5))
        inp[0, 2, 2] = 1.0
        kernel = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = T.conv2d(Tensor(inp), Tensor(kernel), 1, 1)
        # cross-correlation of a centered delta yields the flipped kernel
        np.testing.assert_allclose(out.data[0, 1:4, 1:4], kernel[0, 0, ::-1, ::-1])

    def test_against_naive_reference(self):
        rng = np.random.default_rng(1)
        inp = rng.standard_normal((2, 8, 8))
        kernel = rng.standard_normal((4, 2, 3, 3))
        got = T.conv2d(Tensor(inp), Tensor(kernel), 1, 0).data
        want = naive_conv2d(inp, kernel, 1, 0)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_strides_and_padding_match_naive(self, stride, padding):
        rng = np.random.default_rng(2 + stride * 10 + padding)
        inp = rng.standard_normal((3, 9, 7))
        kernel = rng.standard_normal((2, 3, 3, 3))
        if (9 + 2 * padding - 3) % stride or (7 + 2 * padding - 3) % stride:
            pytest.skip("geometry not integral")
        got = T.conv2d(Tensor(inp), Tensor(kernel), stride, padding).data
        assert np.max(np.abs(got - naive_conv2d(inp, kernel, stride, padding))) < 1e-12

    def test_non_integral_output_rejected(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((1, 6, 6))), Tensor(np.ones((1, 1, 3, 3))), 2, 0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        kernel = Tensor(rng.standard_normal((2, 1, 3, 3)))
        x = rng.standard_normal((1, 6, 6))
        y = rng.standard_normal((1, 6, 6))
        a, b = 1.7, -0.4
        lhs = T.conv2d(Tensor(a * x + b * y), kernel, 1, 1).data
        rhs = a * T.conv2d(Tensor(x), kernel, 1, 1).data \
            + b * T.conv2d(Tensor(y), kernel, 1, 1).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_grad_input_is_adjoint_of_forward(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 6, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        y = T.conv2d(Tensor(x), Tensor(k), 1, 1)
        s = rng.standard_normal(y.shape)
        gx = T.conv2d_grad_input(Tensor(s), Tensor(k), 1, 1)
        # <s, conv(x)> == <grad_input(s), x> for a linear map and its adjoint
        assert abs(np.sum(s * y.data) - np.sum(gx.data * x)) < 1e-10

    def test_grad_kernel_is_adjoint_in_the_kernel(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 6, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        y = T.conv2d(Tensor(x), Tensor(k), 1, 1)
        s = rng.standard_normal(y.shape)
        gk = T.conv2d_grad_kernel(Tensor(s), Tensor(x), (3, 3), 1, 1)
        assert abs(np.sum(s * y.data) - np.sum(gk.data * k)) < 1e-10


def _conv_case(cin, cout, kh, kw, stride, padding, oh, ow, seed):
    rng = np.random.default_rng(seed)
    h = (oh - 1) * stride + kh - 2 * padding
    w = (ow - 1) * stride + kw - 2 * padding
    x = rng.standard_normal((cin, h, w))
    k = rng.standard_normal((cout, cin, kh, kw))
    s = rng.standard_normal((cout, oh, ow))
    return x, k, s


# Channel pairs on both sides of the route rule (cout < cin unrolls the
# output side at stride 1), strides 1-3 and paddings 0..k, so the flipped
# input adjoint's p > k - 1 fallback runs too.
_CONV_GEOMETRIES = (
    [(ci, co, 3, 3, st, p, 6, 5)
     for ci, co in ((2, 3), (3, 2), (3, 3))
     for st in (1, 2, 3) for p in range(4)]
    + [(ci, co, 2, 3, st, p, 4, 5) for ci, co in ((2, 3), (3, 2)) for st in (1, 2) for p in (0, 1)]
    + [(ci, co, 1, 1, 1, p, 4, 5) for ci, co in ((2, 3), (3, 2)) for p in (0, 1)]
    + [(32, 1, 3, 3, 1, 1, 16, 16), (2, 32, 3, 3, 1, 1, 16, 16)]
)


@pytest.mark.parametrize("cin,cout,kh,kw,stride,padding,oh,ow", _CONV_GEOMETRIES)
class TestConvRoutes:
    def test_forward_matches_naive(self, cin, cout, kh, kw, stride, padding, oh, ow):
        x, k, _ = _conv_case(cin, cout, kh, kw, stride, padding, oh, ow, 10)
        got = T.conv2d(Tensor(x), Tensor(k), stride, padding).data
        assert got.shape == (cout, oh, ow)
        assert np.max(np.abs(got - naive_conv2d(x, k, stride, padding))) < 1e-12

    def test_grad_input_matches_naive_and_adjoint(self, cin, cout, kh, kw, stride, padding, oh, ow):
        x, k, s = _conv_case(cin, cout, kh, kw, stride, padding, oh, ow, 11)
        gx = T.conv2d_grad_input(Tensor(s), Tensor(k), stride, padding).data
        want = naive_conv2d_grad_input(s, k, stride, padding, x.shape[1], x.shape[2])
        assert gx.shape == x.shape
        assert np.max(np.abs(gx - want)) < 1e-12
        y = naive_conv2d(x, k, stride, padding)
        assert abs(np.sum(s * y) - np.sum(gx * x)) < 1e-12 * np.sum(np.abs(s * y))

    def test_grad_kernel_matches_naive_and_adjoint(self, cin, cout, kh, kw, stride, padding, oh, ow):
        x, k, s = _conv_case(cin, cout, kh, kw, stride, padding, oh, ow, 12)
        gk = T.conv2d_grad_kernel(Tensor(s), Tensor(x), (kh, kw), stride, padding).data
        want = naive_conv2d_grad_kernel(s, x, kh, kw, stride, padding)
        assert gk.shape == k.shape
        assert np.max(np.abs(gk - want)) < 1e-12
        y = naive_conv2d(x, k, stride, padding)
        assert abs(np.sum(s * y) - np.sum(gk * k)) < 1e-12 * np.sum(np.abs(s * y))


class TestElementwise:
    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor([0.0])).data.tolist() == [0.5]

    def test_sigmoid_extremes_stay_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert 0.0 <= out[0] < 1e-300 or out[0] == 0.0
        assert out[1] == 1.0

    def test_clamp_box(self):
        out = T.clip(Tensor([2.0, -0.5]), -1.0, 1.0)
        assert out.data.tolist() == [1.0, -0.5]

    def test_add_sub_mul_scale_values(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        assert T.add(a, b).data.tolist() == [4.0, 6.0]
        assert T.sub(a, b).data.tolist() == [-2.0, -2.0]
        assert T.mul(a, b).data.tolist() == [3.0, 8.0]
        assert T.scale(a, 2.0).data.tolist() == [2.0, 4.0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_non_finite_result_raises(self):
        big = Tensor([1e308])
        with pytest.raises(NumericsError):
            T.mul(big, big)


class TestReduce:
    def test_sum(self):
        assert T.reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_mean_of_empty_rejected(self):
        with pytest.raises(ShapeError):
            T.reduce_mean(Tensor(np.zeros(0)))

    def test_mean(self):
        assert T.reduce_mean(Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 2.5


class TestStructure:
    def test_concat_narrow_roundtrip(self):
        a = Tensor([[1.0], [2.0]])
        b = Tensor([[3.0], [4.0], [5.0]])
        cat = T.concat([a, b], axis=0)
        assert cat.shape == (5, 1)
        np.testing.assert_array_equal(T.narrow(cat, 0, 2, 3).data, b.data)

    def test_pad_zeros(self):
        out = T.pad_zeros(Tensor([1.0, 2.0]), 0, 1, 2)
        assert out.data.tolist() == [0.0, 1.0, 2.0, 0.0, 0.0]

    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2, -3])
    @pytest.mark.parametrize("before,after", [(0, 0), (0, 2), (3, 0), (1, 2)])
    def test_pad_zeros_equals_np_pad(self, axis, before, after):
        a = np.random.default_rng(7).standard_normal((2, 3, 4))
        widths = [(0, 0)] * 3
        widths[axis] = (before, after)
        out = T.pad_zeros(Tensor(a), axis, before, after).data
        assert out.dtype == np.float64 and np.array_equal(out, np.pad(a, widths))

    def test_narrow_rejects_negative_length(self):
        with pytest.raises(ShapeError):
            T.narrow(Tensor([1.0, 2.0, 3.0]), 0, 0, -1)

    @pytest.mark.parametrize("kernel", [T.narrow, T.pad_zeros])
    def test_axis_below_minus_ndim_rejected(self, kernel):
        with pytest.raises(ShapeError):
            kernel(Tensor([1.0, 2.0]), -2, 0, 1)

    def test_pad_zeros_rejects_negative_width(self):
        with pytest.raises(ShapeError):
            T.pad_zeros(Tensor([1.0, 2.0]), 0, -1, 0)

    def test_spread_and_tiles(self):
        assert T.spread(Tensor(3.0), (2, 2)).data.tolist() == [[3.0, 3.0], [3.0, 3.0]]
        assert T.tile_cols(Tensor([1.0, 2.0]), 3).shape == (2, 3)
        assert T.sum_cols(T.tile_cols(Tensor([1.0, 2.0]), 3)).data.tolist() == [3.0, 6.0]
        t = T.tile_hw(Tensor([1.0, 2.0]), 2, 2)
        assert t.shape == (2, 2, 2)
        assert T.sum_hw(t).data.tolist() == [4.0, 8.0]
