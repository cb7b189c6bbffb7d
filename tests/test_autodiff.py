import ast
import math
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from pmdef import autodiff as ad
from pmdef.autodiff import Tape, Tensor, backward
from pmdef.errors import ContractError, DataError, DimensionError, NonFiniteError, ParameterError
from toys import KINK_DISTANCES, checked_grad, grad_check, kink_margin


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_hand_case():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0], [6.0]]))
    assert np.array_equal(ad.matmul(a, b).data, np.array([[17.0], [39.0]]))


def test_matmul_shape_mismatch_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError) as err:
        ad.matmul(a, b)
    assert "(2, 3)" in str(err.value)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    x = Tensor(np.random.default_rng(0).random((2, 5, 5, 1)))
    k = Tensor(np.ones((1, 1, 1, 1)))
    out = ad.conv2d(x, k, stride=1, padding="valid")
    assert np.array_equal(out.data, x.data)


def test_conv2d_ones_sum():
    x = Tensor(np.ones((1, 2, 2, 1)))
    k = Tensor(np.ones((2, 2, 1, 1)))
    out = ad.conv2d(x, k, stride=1, padding="valid")
    assert out.shape == (1, 1, 1, 1)
    assert out.data.ravel()[0] == 4.0


def test_conv2d_shape_formula():
    x = Tensor(np.zeros((1, 4, 4, 1)))
    k = Tensor(np.zeros((2, 2, 1, 3)))
    assert ad.conv2d(x, k, stride=2, padding="valid").shape == (1, 2, 2, 3)


def test_conv2d_kernel_too_large():
    x = Tensor(np.zeros((1, 2, 2, 1)))
    k = Tensor(np.zeros((3, 3, 1, 1)))
    with pytest.raises(DimensionError):
        ad.conv2d(x, k, stride=1, padding="valid")


def test_conv2d_one_hot_kernel_selects_channel():
    x = Tensor(np.random.default_rng(1).random((2, 4, 4, 3)))
    k = np.zeros((1, 1, 3, 1))
    k[0, 0, 2, 0] = 1.0
    out = ad.conv2d(x, Tensor(k), stride=1, padding="valid")
    assert np.array_equal(out.data[..., 0], x.data[..., 2])


def test_conv2d_same_padding_shape():
    x = Tensor(np.zeros((1, 5, 5, 2)))
    k = Tensor(np.zeros((3, 3, 2, 4)))
    assert ad.conv2d(x, k, stride=2, padding="same").shape == (1, 3, 3, 4)


# ---------------------------------------------------------------------------
# maxpool2d


def test_maxpool_constant_input():
    x = Tensor(np.full((1, 4, 4, 2), 0.7))
    out = ad.maxpool2d(x, 2, 2)
    assert np.all(out.data == 0.7)


def test_maxpool_hand_case():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
    assert ad.maxpool2d(x, 2, 2).data.ravel()[0] == 4.0


def test_maxpool_shape_formula():
    x = Tensor(np.zeros((1, 4, 4, 3)))
    assert ad.maxpool2d(x, 2, 2).shape == (1, 2, 2, 3)


def test_maxpool_window_too_large():
    with pytest.raises(DimensionError):
        ad.maxpool2d(Tensor(np.zeros((1, 2, 2, 1))), 3, 1)


def test_maxpool_tie_routes_first():
    x = Tensor(np.array([[2.0, 2.0], [1.0, 2.0]]).reshape(1, 2, 2, 1), requires_grad=True)
    with Tape() as tape:
        out = ad.maxpool2d(x, 2, 2)
        loss = ad.sum_all(out)
    backward(tape, loss)
    expected = np.zeros((1, 2, 2, 1))
    expected[0, 0, 0, 0] = 1.0  # first row-major maximum
    assert np.array_equal(x.grad, expected)


# ---------------------------------------------------------------------------
# conv2d and maxpool2d against nested-loop references


def _naive_conv2d(x, k, stride, padding):
    """Forward and a vjp for upstream g, one output pixel at a time."""
    n, h, w, _ = x.shape
    kh, kw, _, cout = k.shape
    oh, ow, pt, pb, pl, pr = ad._conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    out = np.zeros((n, oh, ow, cout))
    for b in range(n):
        for r in range(oh):
            for c in range(ow):
                patch = xp[b, r * stride : r * stride + kh, c * stride : c * stride + kw, :]
                for o in range(cout):
                    out[b, r, c, o] = np.sum(patch * k[:, :, :, o])

    def vjp(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(k)
        for b in range(n):
            for r in range(oh):
                for c in range(ow):
                    patch = xp[b, r * stride : r * stride + kh, c * stride : c * stride + kw, :]
                    for o in range(cout):
                        gk[:, :, :, o] += g[b, r, c, o] * patch
                        gxp[b, r * stride : r * stride + kh, c * stride : c * stride + kw, :] += g[b, r, c, o] * k[:, :, :, o]
        return gxp[:, pt : pt + h, pl : pl + w, :], gk

    return out, vjp


def _naive_maxpool2d(x, window, stride):
    n, h, w, ch = x.shape
    oh, ow = (h - window) // stride + 1, (w - window) // stride + 1
    out = np.zeros((n, oh, ow, ch))
    first = {}
    for b in range(n):
        for r in range(oh):
            for c in range(ow):
                for z in range(ch):
                    best = None
                    for i in range(window):
                        for j in range(window):
                            v = x[b, r * stride + i, c * stride + j, z]
                            if best is None or v > best:
                                best, first[b, r, c, z] = v, (r * stride + i, c * stride + j)
                    out[b, r, c, z] = best

    def vjp(g):
        gx = np.zeros_like(x)
        for (b, r, c, z), (i, j) in first.items():
            gx[b, i, j, z] += g[b, r, c, z]
        return gx

    return out, vjp


def _forward_and_vjp(f, *values):
    leaves = [Tensor(v, requires_grad=True) for v in values]
    with Tape() as tape:
        out = f(*leaves)
    g = np.random.default_rng(1).normal(size=out.shape)
    grads = tape.records[-1].vjp(g)
    return out.data, g, grads


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("cin", [1, 3])
def test_conv2d_matches_nested_loop_reference(stride, padding, cin):
    rng = np.random.default_rng(10 * stride + cin)
    x = rng.normal(size=(5, 7, 6, cin))
    k = rng.normal(size=(3, 3, cin, 2))
    out, g, (gx, gk) = _forward_and_vjp(lambda a, b: ad.conv2d(a, b, stride, padding), x, k)
    ref_out, ref_vjp = _naive_conv2d(x, k, stride, padding)
    ref_gx, ref_gk = ref_vjp(g)
    assert out.shape == ref_out.shape
    assert np.abs(out - ref_out).max() <= 1e-12
    assert np.abs(gx - ref_gx).max() <= 1e-12
    assert np.abs(gk - ref_gk).max() <= 1e-12


def test_conv2d_batch_spanning_several_im2col_blocks_matches_reference():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 8, 8, 3))
    k = rng.normal(size=(3, 3, 3, 2))
    assert 2 * (ad._COLS_BLOCK_BYTES // (8 * 8 * 3 * 3 * 3 * 8)) < x.shape[0]  # three blocks or more
    out, g, (gx, gk) = _forward_and_vjp(lambda a, b: ad.conv2d(a, b, 1, "same"), x, k)
    ref_out, ref_vjp = _naive_conv2d(x, k, 1, "same")
    ref_gx, ref_gk = ref_vjp(g)
    assert np.abs(out - ref_out).max() <= 1e-12
    assert np.abs(gx - ref_gx).max() <= 1e-12
    assert np.abs(gk - ref_gk).max() <= 1e-12


def test_conv2d_vjp_skips_input_gradient_of_a_constant_input():
    x = Tensor(np.ones((2, 4, 4, 1)))
    k = Tensor(np.ones((3, 3, 1, 2)), requires_grad=True)
    with Tape() as tape:
        out = ad.conv2d(x, k, 1, "same")
    gx, gk = tape.records[-1].vjp(np.ones(out.shape))
    assert gx is None
    assert gk.shape == k.shape


@pytest.mark.parametrize("window", [2, 3, 5, 11, 16])  # 16: k = 256 offsets, ranked in uint16
@pytest.mark.parametrize("stride_offset", [-1, 0, 1])
def test_maxpool2d_matches_nested_loop_reference_with_ties(window, stride_offset):
    stride = max(1, window + stride_offset)
    rng = np.random.default_rng(window * 7 + stride)
    x = rng.integers(0, 3, size=(2, max(11, window), max(12, window + 1), 2)).astype(np.float64)  # many tied maxima
    out, g, (gx,) = _forward_and_vjp(lambda a: ad.maxpool2d(a, window, stride), x)
    ref_out, ref_vjp = _naive_maxpool2d(x, window, stride)
    assert out.shape == ref_out.shape
    assert np.abs(out - ref_out).max() <= 1e-12
    assert np.abs(gx - ref_vjp(g)).max() <= 1e-12


@pytest.mark.parametrize("window", [2, 3, 5])
@pytest.mark.parametrize("stride_offset", [-1, 0, 1])
def test_unrecorded_maxpool2d_equals_the_recorded_one_and_the_reference_bit_for_bit(window, stride_offset):
    stride = max(1, window + stride_offset)
    rng = np.random.default_rng(window * 11 + stride)
    x = rng.integers(0, 3, size=(3, 13, 11, 2)) * 0.7 - 0.3  # tied maxima; 13 and 11 divide by no window
    x[0] = rng.normal(size=x.shape[1:])
    recorded, _, _ = _forward_and_vjp(lambda a: ad.maxpool2d(a, window, stride), x)
    ref_out, _ = _naive_maxpool2d(x, window, stride)
    without_tape = ad.maxpool2d(Tensor(x, requires_grad=True), window, stride)
    with Tape() as tape:
        frozen_input = ad.maxpool2d(Tensor(x), window, stride)
    assert tape.records == []
    for out in (without_tape.data, frozen_input.data):
        assert out.shape == ref_out.shape
        assert out.tobytes() == ref_out.tobytes() == recorded.tobytes()


def test_tape_free_maxpool2d_builds_no_window_view_and_the_recorded_one_keeps_the_first_argmax(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("window view built")

    x = np.array([[2.0, 2.0, 0.0], [1.0, 2.0, 5.0], [2.0, 0.0, 5.0]]).reshape(1, 3, 3, 1)
    monkeypatch.setattr(ad, "_windows", refuse)
    out = ad.maxpool2d(Tensor(x, requires_grad=True), 2, 1)
    assert np.array_equal(out.data.ravel(), [2.0, 5.0, 2.0, 5.0])
    with Tape(), pytest.raises(AssertionError, match="window view built"):
        ad.maxpool2d(Tensor(x, requires_grad=True), 2, 1)
    monkeypatch.undo()
    leaf = Tensor(x, requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.maxpool2d(leaf, 2, 1))
    backward(tape, loss)
    # ties go to the first row-major maximum of each window: (0, 0) and not (0, 1) or (1, 1) for
    # the top-left window, (1, 1) and not (2, 0) for the bottom-left, (1, 2) and not (2, 2) for both right ones
    assert np.array_equal(leaf.grad.reshape(3, 3), [[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_tape_free_maxpool2d_output_is_still_finite_checked(bad):
    x = np.zeros((1, 4, 4, 1))
    x[0, 2:, 2:, 0] = bad  # one whole window
    with pytest.raises(NonFiniteError):
        ad.maxpool2d(Tensor(x), 2, 2)


@pytest.mark.parametrize("c", [1, 8])
@pytest.mark.parametrize(
    "shape,window,stride",
    [
        ((3, 20, 20), 5, 5),  # the bench autoencoder's pool
        ((2, 6, 9), 6, 1),  # a window as tall as the input: oh 1
        ((2, 11, 10), 2, 3),  # a stride wider than the window
    ],
)
def test_tape_free_maxpool2d_equals_the_nested_loop_reference_bit_for_bit(shape, window, stride, c):
    rng = np.random.default_rng(10 * window + stride + c)
    x = rng.normal(size=shape + (c,))
    x[1] = rng.integers(0, 3, size=x.shape[1:]) * 0.7 - 0.3  # tied maxima
    ref_out, _ = _naive_maxpool2d(x, window, stride)
    out = ad.maxpool2d(Tensor(x), window, stride).data
    assert out.shape == ref_out.shape and out.tobytes() == ref_out.tobytes()


@pytest.mark.parametrize("window,stride", [(1, 1), (2, 1), (3, 2), (5, 5)])
def test_tape_free_maxpool2d_folds_rows_then_columns_in_at_most_two_maxima_per_window_offset(monkeypatch, window, stride):
    calls = []
    maximum = np.maximum

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return maximum(*args, **kwargs)

    x = Tensor(np.random.default_rng(window).normal(size=(2, 20, 20, 8)))
    monkeypatch.setattr(np, "maximum", counting)
    out = ad.maxpool2d(x, window, stride)
    monkeypatch.undo()
    oh = (20 - window) // stride + 1
    assert len(calls) <= 2 * (window - 1)  # the window*window - 1 fold of single offsets made 24 calls at window 5
    assert calls == [(2, oh, 20, 8)] * (window - 1) + [(2, oh, oh, 8)] * (window - 1)  # whole rows, then the pooled columns
    assert out.data.tobytes() == _naive_maxpool2d(x.data, window, stride)[0].tobytes()


# conv2d and maxpool2d against the row-major window-view formulas that the
# offset-major window copies replaced. The conv reference hands its GEMMs the
# column matrix in conv2d's memory layout (F-ordered forward operand,
# C-ordered transpose in the vjp): OpenBLAS accumulates a transposed operand
# in another order for fewer than 8 output channels, so only the same layout
# gives the same bits on every BLAS


def _strided_windows(a, kh, kw, stride, oh, ow):
    return sliding_window_view(a, (kh, kw), axis=(1, 2))[:, : (oh - 1) * stride + 1 : stride, : (ow - 1) * stride + 1 : stride]


def _window_view_conv2d(x, k, stride, padding):
    """Forward and vjp of conv2d with its [rows*oh*ow, kh*kw*c_in] blocks reshaped from the window view."""
    n, h, w, _ = x.shape
    kh, kw, cin, cout = k.shape
    oh, ow, pt, pb, pl, pr = ad._conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    kk = kh * kw * cin
    w2 = k.reshape(kk, cout)
    step = max(1, ad._COLS_BLOCK_BYTES // (oh * ow * kk * 8))
    win = _strided_windows(xp, kh, kw, stride, oh, ow).transpose(0, 1, 2, 4, 5, 3)

    def cols(b):
        return np.asfortranarray(win[b : b + step].reshape(-1, kk))

    out = np.empty((n, oh, ow, cout))
    for b in range(0, n, step):
        np.matmul(cols(b), w2, out=out.reshape(-1, cout)[b * oh * ow : min(b + step, n) * oh * ow])

    def vjp(g):
        gw = np.zeros((kk, cout))
        gxp = np.zeros(xp.shape)
        for b in range(0, n, step):
            gb = g.reshape(-1, cout)[b * oh * ow : min(b + step, n) * oh * ow]
            gw += cols(b).T @ gb
            gcols = (gb @ w2.T).reshape(-1, oh, ow, kh, kw, cin)
            for i in range(kh):
                for j in range(kw):
                    gxp[b : b + step, i : i + (oh - 1) * stride + 1 : stride, j : j + (ow - 1) * stride + 1 : stride] += gcols[:, :, :, i, j]
        return gxp[:, pt : pt + h, pl : pl + w, :], gw.reshape(k.shape)

    return out, vjp, step


def _window_view_maxpool2d(x, window, stride):
    """Forward and vjp of maxpool2d from the argmax of the [n, oh, ow, c, window*window] window view."""
    n, h, w, c = x.shape
    oh, ow = (h - window) // stride + 1, (w - window) // stride + 1
    flat = _strided_windows(x, window, window, stride, oh, ow).reshape(n, oh, ow, c, window * window)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def vjp(g):
        i, j = np.divmod(arg, window)
        rows = np.arange(oh)[:, None, None] * stride + i
        cols = np.arange(ow)[:, None] * stride + j
        src = ((np.arange(n)[:, None, None, None] * h + rows) * w + cols) * c + np.arange(c)
        return np.bincount(src.ravel(), weights=g.ravel(), minlength=x.size).reshape(x.shape)

    return out, vjp


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("cin", [1, 3, 8])
def test_conv2d_equals_the_window_view_im2col_bit_for_bit(cin, padding, stride, blocks):
    rng = np.random.default_rng(100 * cin + 10 * stride + blocks)
    k = rng.normal(size=(3, 2, cin, 4))  # kh != kw, so swapping the two offset axes changes every product
    step = _window_view_conv2d(np.zeros((1, 7, 6, cin)), k, stride, padding)[2]
    x = rng.normal(size=(5 if blocks == 1 else 2 * step + 3, 7, 6, cin))
    assert (x.shape[0] <= step) == (blocks == 1)
    out, g, (gx, gk) = _forward_and_vjp(lambda a, b: ad.conv2d(a, b, stride, padding), x, k)
    ref_out, ref_vjp, _ = _window_view_conv2d(x, k, stride, padding)
    ref_gx, ref_gk = ref_vjp(g)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(ad.conv2d(Tensor(x), Tensor(k), stride, padding).data, ref_out)
    assert np.array_equal(gx, ref_gx)
    assert np.array_equal(gk, ref_gk)


def _conv_output_and_grads(op, x, k, b, bias_trained):
    """Output, the recorded ops and the cotangents of x, k and b from
    backward() over sum(op(x, k, b) * g), whose output cotangent is g itself."""
    leaves = [Tensor(x, requires_grad=True), Tensor(k, requires_grad=True), Tensor(b, requires_grad=bias_trained)]
    with Tape() as tape:
        out = op(*leaves)
        g = np.random.default_rng(7).normal(size=out.shape)
        loss = ad.sum_all(ad.mul(out, Tensor(g)))
    grads = backward(tape, loss)
    return out.data, [r.op for r in tape.records], [grads.get(t) for t in leaves]


def _check_conv2d_with_a_bias_equals_conv2d_then_add(rng, cin, cout, padding, stride, blocks, bias):
    k = rng.normal(size=(3, 2, cin, cout))
    b = rng.normal(size=cout)
    step = _window_view_conv2d(np.zeros((1, 7, 6, cin)), k, stride, padding)[2]
    x = rng.normal(size=(5 if blocks == 1 else 2 * step + 3, 7, 6, cin))
    fused = _conv_output_and_grads(lambda a, f, c: ad.conv2d(a, f, stride, padding, bias=c), x, k, b, bias == "trained")
    split = _conv_output_and_grads(lambda a, f, c: ad.add(ad.conv2d(a, f, stride, padding), c), x, k, b, bias == "trained")
    (out, ops, grads), (ref_out, ref_ops, ref_grads) = fused, split
    assert ops == ["conv2d", "mul", "sum"] and ref_ops == ["conv2d", "add", "mul", "sum"]
    assert np.array_equal(out, ref_out)
    assert np.array_equal(ad.conv2d(Tensor(x), Tensor(k), stride, padding, bias=Tensor(b)).data, ref_out)
    for got, want in zip(grads, ref_grads):
        assert (got is None) == (want is None) and (got is None or np.array_equal(got, want))
    assert (grads[2] is None) == (bias == "frozen")


@pytest.mark.parametrize("bias", ["trained", "frozen"])
@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("cin", [1, 3, 8])
def test_conv2d_with_a_bias_equals_conv2d_then_add_bit_for_bit(cin, padding, stride, blocks, bias):
    rng = np.random.default_rng(100 * cin + 10 * stride + blocks)
    _check_conv2d_with_a_bias_equals_conv2d_then_add(rng, cin, 4, padding, stride, blocks, bias)


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("cin", [1, 3])
@pytest.mark.parametrize("cout", [1, 8])
def test_conv2d_with_a_bias_of_1_or_8_channels_equals_conv2d_then_add_bit_for_bit(cout, cin, padding, stride, blocks):
    rng = np.random.default_rng(1000 * cout + 100 * cin + 10 * stride + blocks)
    _check_conv2d_with_a_bias_equals_conv2d_then_add(rng, cin, cout, padding, stride, blocks, "trained")


def test_the_bench_autoencoders_conv_with_a_bias_is_bit_identical_over_several_blocks_and_a_partial_one():
    rng = np.random.default_rng(20)
    k = rng.normal(size=(3, 3, 1, 8))  # 20x20x1 input, 3x3 'same', 8 filters
    b = rng.normal(size=8)
    step = _window_view_conv2d(np.zeros((1, 20, 20, 1)), k, 1, "same")[2]
    x = rng.normal(size=(3 * step + 4, 20, 20, 1))
    assert step == 9 and x.shape[0] % step  # three full 256 KiB blocks, then a partial one
    out, ops, grads = _conv_output_and_grads(lambda a, f, c: ad.conv2d(a, f, 1, "same", bias=c), x, k, b, True)
    ref_out, ref_ops, ref_grads = _conv_output_and_grads(lambda a, f, c: ad.add(ad.conv2d(a, f, 1, "same"), c), x, k, b, True)
    assert ops == ["conv2d", "mul", "sum"] and ref_ops == ["conv2d", "add", "mul", "sum"]
    assert out.tobytes() == ref_out.tobytes() == (_window_view_conv2d(x, k, 1, "same")[0] + b).tobytes()
    assert ad.conv2d(Tensor(x), Tensor(k), 1, "same", bias=Tensor(b)).data.tobytes() == ref_out.tobytes()
    for got, want in zip(grads, ref_grads):
        assert got.tobytes() == want.tobytes()


def test_conv2d_without_a_bias_records_two_inputs_and_a_bias_of_another_shape_is_refused():
    rng = np.random.default_rng(12)
    x, k = Tensor(rng.normal(size=(2, 5, 5, 2)), requires_grad=True), Tensor(rng.normal(size=(3, 3, 2, 4)))
    with Tape() as tape:
        out = ad.conv2d(x, k, 1, "same")
    assert len(tape.records[0].inputs) == 2 and len(tape.records[0].vjp(np.ones(out.shape))) == 2
    for shape in [(3,), (1, 4), ()]:
        with pytest.raises(DimensionError, match="bias"):
            ad.conv2d(x, k, 1, "same", bias=Tensor(np.zeros(shape)))


@pytest.mark.parametrize("c", [1, 8])
@pytest.mark.parametrize("window", [2, 3, 5])
@pytest.mark.parametrize("stride_offset", [-1, 0, 1])
def test_maxpool2d_equals_the_window_view_argmax_bit_for_bit(c, window, stride_offset):
    stride = max(1, window + stride_offset)
    rng = np.random.default_rng(100 * c + 10 * window + stride)
    x = rng.integers(0, 3, size=(3, 13, 11, c)) * 0.7 - 0.3  # tied maxima in most windows
    x[0] = rng.normal(size=x.shape[1:])
    out, g, (gx,) = _forward_and_vjp(lambda a: ad.maxpool2d(a, window, stride), x)
    ref_out, ref_vjp = _window_view_maxpool2d(x, window, stride)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(ad.maxpool2d(Tensor(x), window, stride).data, ref_out)
    assert np.array_equal(gx, ref_vjp(g))


def test_clip_and_logsumexp_vjps_build_the_mask_and_weights_of_the_eager_formulas():
    rng = np.random.default_rng(9)
    d = rng.normal(size=(6, 5))
    d[0, :3] = [-0.5, 0.5, 0.5000001]  # on both bounds and just outside
    g = rng.normal(size=d.shape)
    with Tape() as tape:
        ad.clip(Tensor(d, requires_grad=True), -0.5, 0.5)
    (gc,) = tape.records[-1].vjp(g)
    assert gc.tobytes() == (g * ((d >= -0.5) & (d <= 0.5))).tobytes()
    with Tape() as tape:
        y = ad.logsumexp(Tensor(d, requires_grad=True))
    e = np.exp(d - d.max(axis=-1, keepdims=True))
    s = e.sum(axis=-1, keepdims=True)
    assert y.data.tobytes() == (d.max(axis=-1, keepdims=True) + np.log(s)).squeeze(-1).tobytes()
    gy = rng.normal(size=y.shape)
    (gl,) = tape.records[-1].vjp(gy)
    assert gl.tobytes() == (np.expand_dims(gy, -1) * (e / s)).tobytes()


# squared_distance against the sub, mul and sum_all records it replaced


def _three_record_distance(a, b):
    d = ad.sub(a, b)
    return ad.sum_all(ad.mul(d, d)), None


def _distance_value_rows_and_grads(op, a, b, b_trained, scale):
    """Value, row sums, recorded ops and the cotangents of a and b from
    backward() over scale * op(a, b), so the distance's cotangent is scale."""
    leaves = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=b_trained)]
    with Tape() as tape:
        value, rows = op(*leaves)
        loss = ad.mul_scalar(value, scale)
    grads = backward(tape, loss)
    return value.data, rows, [r.op for r in tape.records], [grads.get(t) for t in leaves]


# a subnormal cotangent tells g*d + g*d apart from 2*g*d, which rounds g*d at half the step
@pytest.mark.parametrize("scale", [1.0, 0.7, 1e-310])
@pytest.mark.parametrize("b_trained", [False, True])
@pytest.mark.parametrize("shape", [(7, 5), (4, 6, 6, 2), (1, 400), (300, 400)])
def test_squared_distance_equals_sum_all_of_mul_of_sub_bit_for_bit(shape, b_trained, scale):
    rng = np.random.default_rng(sum(shape) + b_trained)
    a, b = rng.random(shape), rng.random(shape)
    value, rows, ops, grads = _distance_value_rows_and_grads(ad.squared_distance, a, b, b_trained, scale)
    ref = _distance_value_rows_and_grads(_three_record_distance, a, b, b_trained, scale)
    ref_value, _, ref_ops, ref_grads = ref
    assert ops == ["squared_distance", "mul_scalar"] and ref_ops == ["sub", "mul", "sum", "mul_scalar"]
    assert value.shape == () and value.tobytes() == ref_value.tobytes()
    assert rows.tobytes() == ((a - b).reshape(shape[0], -1) ** 2).sum(axis=1).tobytes()
    for got, want in zip(grads, ref_grads):
        assert (got is None) == (want is None) and (got is None or got.tobytes() == want.tobytes())
    assert (grads[1] is None) == (not b_trained)


def test_squared_distance_passes_grad_check_in_either_argument():
    rng = np.random.default_rng(4)
    a, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
    assert grad_check(lambda t: ad.squared_distance(t, b)[0], a) < 1e-6
    assert grad_check(lambda t: ad.squared_distance(a, t)[0], b) < 1e-6


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_squared_distance_raises_where_the_three_records_did(bad, side):
    values = [np.full((2, 3), 0.5), np.full((2, 3), 0.25)]
    values[side][1, 2] = bad  # 1e200 is finite, but its square overflows
    for op in (ad.squared_distance, _three_record_distance):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            op(*(Tensor(v, requires_grad=True) for v in values))


def test_squared_distance_refuses_shapes_that_differ_or_hold_no_batch_axis():
    for a, b in [((3, 4), (4,)), ((3, 4), (3, 1)), ((), ())]:
        with pytest.raises(DimensionError, match="squared_distance"):
            ad.squared_distance(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


@pytest.mark.parametrize("op,ufunc", [(ad.add, np.add), (ad.sub, np.subtract)])
@pytest.mark.parametrize(
    "x_shape,bias_shape",
    [((5, 6, 7, 3), (3,)), ((5, 6, 7, 3), (7, 3)), ((5, 6, 7, 3), (6, 7, 3)), ((1, 4, 4, 8), (8,)), ((0, 4, 4, 2), (2,))],
)
def test_tiled_bias_add_and_sub_equal_plain_broadcasting(op, ufunc, x_shape, bias_shape):
    rng = np.random.default_rng(len(x_shape) + len(bias_shape))
    x = rng.normal(size=x_shape)
    b = rng.normal(size=bias_shape)
    out = op(Tensor(x), Tensor(b)).data
    assert out.shape == x.shape and out.flags.c_contiguous
    assert np.array_equal(out, ufunc(x, b))
    strided = x[:, ::-1]  # a non-contiguous input is read the same way
    assert np.array_equal(op(Tensor(strided), Tensor(b)).data, ufunc(strided, b))


# ---------------------------------------------------------------------------
# frozen inputs: no cotangent for an input that does not require a gradient


def _kl_reference_vjp(g, p, q):
    n = p.shape[0]
    lp, lq = np.log(np.maximum(p, ad.KL_CLAMP)), np.log(np.maximum(q, ad.KL_CLAMP))
    gp = (lp - lq + (p > ad.KL_CLAMP)) * (g / n)
    gq = np.where(q > ad.KL_CLAMP, -p / np.maximum(q, ad.KL_CLAMP), 0.0) * (g / n)
    return gp, gq


def _distributions(rng, shape):
    raw = rng.random(shape) + 0.1
    return raw / raw.sum(axis=-1, keepdims=True)


# name -> (op, input arrays from an rng, reference vjp(g, a, b) -> (ga, gb))
BINARY_VJP_CASES = {
    "matmul": (ad.matmul, lambda r: (r.normal(size=(5, 4)), r.normal(size=(4, 3))), lambda g, a, b: (g @ b.T, a.T @ g)),
    "add": (ad.add, lambda r: (r.normal(size=(5, 4)), r.normal(size=4)), lambda g, a, b: (g, g.sum(axis=0))),
    "add_4d": (ad.add, lambda r: (r.normal(size=(3, 4, 4, 2)), r.normal(size=2)), lambda g, a, b: (g, g.sum(axis=(0, 1, 2)))),
    "sub": (ad.sub, lambda r: (r.normal(size=(5, 4)), r.normal(size=4)), lambda g, a, b: (g, -g.sum(axis=0))),
    "sub_same_shape": (ad.sub, lambda r: (r.normal(size=(5, 4)), r.normal(size=(5, 4))), lambda g, a, b: (g, -g)),
    "mul": (ad.mul, lambda r: (r.normal(size=(5, 4)), r.normal(size=(5, 4))), lambda g, a, b: (g * b, g * a)),
    "squared_distance": (
        lambda a, b: ad.squared_distance(a, b)[0],
        lambda r: (r.normal(size=(5, 4)), r.normal(size=(5, 4))),
        lambda g, a, b: (2 * g * (a - b), -2 * g * (a - b)),
    ),
    "conv2d": (
        lambda x, k: ad.conv2d(x, k, 2, "same"),
        lambda r: (r.normal(size=(3, 7, 6, 2)), r.normal(size=(3, 3, 2, 4))),
        lambda g, x, k: _naive_conv2d(x, k, 2, "same")[1](g),
    ),
    "kl_divergence": (
        ad.kl_divergence,
        lambda r: (_distributions(r, (6, 5)), _distributions(r, (6, 5))),
        _kl_reference_vjp,
    ),
}


@pytest.mark.parametrize("frozen", [0, 1])
@pytest.mark.parametrize("name", sorted(BINARY_VJP_CASES))
def test_vjp_returns_no_cotangent_for_a_frozen_input(name, frozen):
    op, make, reference = BINARY_VJP_CASES[name]
    values = make(np.random.default_rng(len(name)))
    inputs = [Tensor(v, requires_grad=i != frozen) for i, v in enumerate(values)]
    with Tape() as tape:
        out = op(*inputs)
    g = np.random.default_rng(2).normal(size=out.shape)
    grads = tape.records[-1].vjp(g)
    ref = reference(g, *values)
    # add/sub pass g itself through to their first input: no arithmetic to skip
    assert grads[frozen] is None or (frozen == 0 and name.startswith(("add", "sub")) and grads[frozen] is g)
    live = 1 - frozen
    assert grads[live].shape == values[live].shape
    assert np.abs(grads[live] - ref[live]).max() <= 1e-12


@pytest.mark.parametrize("x_shape,bias_shape", [((7, 5), (5,)), ((4, 6, 6, 3), (3,)), ((4, 6, 6, 3), (6, 3))])
def test_broadcast_bias_gradient_matches_the_axis_sum_and_finite_differences(x_shape, bias_shape):
    rng = np.random.default_rng(sum(x_shape))
    x = Tensor(rng.normal(size=x_shape))
    bias = Tensor(rng.normal(size=bias_shape), requires_grad=True)
    with Tape() as tape:
        out = ad.add(x, bias)
    g = rng.normal(size=out.shape)
    _, gb = tape.records[-1].vjp(g)
    assert np.abs(gb - g.sum(axis=tuple(range(len(x_shape) - len(bias_shape))))).max() <= 1e-12
    assert grad_check(lambda b: ad.sum_all(ad.mul(ad.add(x, b), ad.add(x, b))), bias) < 1e-6


def test_relu_forward_equals_the_masked_select_on_exact_zeros():
    d = np.random.default_rng(5).normal(size=(4, 5, 5, 2))
    d[0] = 0.0
    d[1, :, :, 0] = -0.0
    out = ad.relu(Tensor(d)).data
    assert np.array_equal(out, np.where(d > 0, d, 0.0))
    assert (out >= 0.0).all()


# ---------------------------------------------------------------------------
# kink margins


def _margin(f, x):
    return kink_margin(f, Tensor(x))


def test_kink_margins_match_the_eager_formulas():
    # the harness swaps the primitives on the module, so f must look them up there when it runs
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4))
    assert _margin(lambda t: ad.relu(t), x) == float(np.abs(x).min())
    assert _margin(lambda t: ad.clip(t, -0.5, 0.5), x) == float(min(np.abs(x + 0.5).min(), np.abs(x - 0.5).min()))
    assert _margin(lambda t: ad.maximum_scalar(t, 0.25), x) == float(np.abs(x - 0.25).min())
    part = np.partition(x, 2, axis=1)
    assert _margin(lambda t: ad.rowmax(t), x) == float((part[:, -1] - part[:, -2]).min())
    img = rng.normal(size=(2, 5, 5, 3))
    stack = np.stack([img[:, i : i + 3 : 2, j : j + 3 : 2, :] for i in range(2) for j in range(2)], axis=3)
    part = np.partition(stack, 2, axis=3)
    assert _margin(lambda t: ad.maxpool2d(t, 2, 2), img) == float((part[:, :, :, -1, :] - part[:, :, :, -2, :]).min())
    assert _margin(lambda t: ad.rowmax(ad.relu(t)), x) == min(
        _margin(lambda t: ad.relu(t), x), _margin(lambda t: ad.rowmax(t), np.maximum(x, 0.0))
    )
    assert _margin(lambda t: ad.tanh(t), x) == math.inf
    assert _margin(lambda t: ad.relu(ad.add(t, Tensor(x))), x) == float(np.abs(x + x).min())
    assert _margin(lambda t: ad.relu(Tensor(x)), x) == math.inf  # an op on constants is not recorded


def test_the_package_looks_up_every_nonsmooth_primitive_on_the_module():
    # kink_margin swaps them on pmdef.autodiff: a module that imported one by name would call past it
    for path in Path(ad.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
                assert not {a.name for a in node.names} & set(KINK_DISTANCES), path.name


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_on_zeros():
    out = ad.softmax(Tensor(np.zeros(3)))
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_softmax_known_values():
    out = ad.softmax(Tensor(np.array([math.log(1.0), math.log(3.0)])))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-50, 50))
@settings(max_examples=80, deadline=None)
def test_softmax_shift_invariance_and_row_sum(logits, c):
    z = np.asarray(logits)
    a = ad.softmax(Tensor(z)).data
    b = ad.softmax(Tensor(z + c)).data
    assert abs(a.sum() - 1.0) <= 1e-12
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# kl_divergence


def test_kl_identical_is_zero():
    p = Tensor(np.array([0.2, 0.5, 0.3]))
    assert ad.kl_divergence(p, Tensor(p.data.copy())).item() == 0.0


def test_kl_onehot_vs_uniform():
    val = ad.kl_divergence(Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.5, 0.5]))).item()
    assert val == pytest.approx(math.log(2.0), abs=1e-12)


def test_kl_hand_case():
    val = ad.kl_divergence(Tensor(np.array([0.9, 0.1])), Tensor(np.array([0.1, 0.9]))).item()
    assert val == pytest.approx(0.8 * math.log(9.0), abs=1e-12)
    assert val == pytest.approx(1.757780, abs=1e-6)


def test_kl_batched_is_row_mean():
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    q = np.array([[0.1, 0.9], [0.5, 0.5]])
    batched = ad.kl_divergence(Tensor(p), Tensor(q)).item()
    rows = [ad.kl_divergence(Tensor(p[i]), Tensor(q[i])).item() for i in range(2)]
    assert batched == pytest.approx(np.mean(rows), abs=1e-15)


def test_kl_rejects_unnormalized():
    with pytest.raises(DataError, match="rows must sum to 1"):
        ad.kl_divergence(Tensor(np.array([0.7, 0.7])), Tensor(np.array([0.5, 0.5])))
    with pytest.raises(DataError, match="entries must be non-negative"):
        ad.kl_divergence(Tensor(np.array([-0.1, 1.1])), Tensor(np.array([0.5, 0.5])))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_kl_nonnegative_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    p = rng.random(k) + 1e-3
    p /= p.sum()
    q = rng.random(k) + 1e-3
    q /= q.sum()
    val = ad.kl_divergence(Tensor(p), Tensor(q)).item()
    assert val >= 0.0
    if np.array_equal(p, q):
        assert val == 0.0
    same = ad.kl_divergence(Tensor(p), Tensor(p.copy())).item()
    assert same == 0.0


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_of_squares():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
    grads = backward(tape, loss)
    assert np.allclose(grads[x], [2.0, 4.0, 6.0], atol=1e-15)


def test_backward_constant_function_zero_grad():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul_scalar(x, 0.0))
    grads = backward(tape, loss)
    assert np.array_equal(grads[x], np.zeros(2))


def test_backward_requires_scalar():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_backward_kl_softmax_linear_matches_fd():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(4, 3)) * 0.6)
    target = rng.random(3) + 0.2
    target /= target.sum()
    tgt = Tensor(target)

    def f(x):
        return ad.kl_divergence(tgt, ad.softmax(ad.matmul(x, w)))

    err = grad_check(f, Tensor(rng.normal(size=(1, 4)) * 0.5), 1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_linear_exact():
    w = Tensor(np.array([0.3, -0.7, 1.2]))

    def f(x):
        return ad.sum_all(ad.mul(x, w))

    err = grad_check(f, Tensor(np.array([0.1, 0.2, 0.3])), 1e-5)
    assert err < 1e-10


def test_grad_check_kl_softmax_conv():
    rng = np.random.default_rng(3)
    k = Tensor(rng.normal(size=(2, 2, 1, 2)) * 0.5)
    w = Tensor(rng.normal(size=(8, 3)) * 0.4)
    target = np.array([0.5, 0.2, 0.3])

    def f(x):
        h = ad.conv2d(x, k, stride=1, padding="valid")
        z = ad.matmul(ad.reshape(h, (1, 8)), w)
        return ad.kl_divergence(Tensor(target), ad.softmax(z))

    err = grad_check(f, Tensor(rng.random((1, 3, 3, 1))), 1e-5)
    assert err < 1e-4


def test_grad_check_rejects_zero_step():
    with pytest.raises(ParameterError):
        grad_check(lambda t: ad.sum_all(t), Tensor(np.array([1.0])), 0.0)


def test_grad_check_nonfinite_function_raises():
    def f(x):
        return ad.sum_all(ad.log(x))

    # log of a negative interval is non-finite -> forward raises
    with pytest.raises(NonFiniteError):
        grad_check(f, Tensor(np.array([1e-9])), 1e-5)


# ---------------------------------------------------------------------------
# per-primitive finite-difference property (>=100 seeds each)


def _case_add(rng):
    b = Tensor(rng.normal(size=3))
    return (lambda x: ad.sum_all(ad.mul(ad.add(x, b), ad.add(x, b)))), Tensor(rng.normal(size=(2, 3)))


def _case_sub(rng):
    b = Tensor(rng.normal(size=(2, 3)))
    return (lambda x: ad.mean_all(ad.mul(ad.sub(x, b), ad.sub(x, b)))), Tensor(rng.normal(size=(2, 3)))


def _case_mul(rng):
    b = Tensor(rng.normal(size=(4,)))
    return (lambda x: ad.sum_all(ad.mul(x, b))), Tensor(rng.normal(size=(4,)))


def _case_matmul(rng):
    w = Tensor(rng.normal(size=(3, 2)))
    return (lambda x: ad.sum_all(ad.mul(ad.matmul(x, w), ad.matmul(x, w)))), Tensor(rng.normal(size=(2, 3)))


def _case_relu(rng):
    return (lambda x: ad.sum_all(ad.mul(ad.relu(x), ad.relu(x)))), Tensor(rng.normal(size=(2, 4)))


def _case_tanh(rng):
    return (lambda x: ad.sum_all(ad.tanh(x))), Tensor(rng.normal(size=(5,)))


def _case_log(rng):
    return (lambda x: ad.sum_all(ad.log(x))), Tensor(rng.random(4) + 0.5)


def _case_clip(rng):
    return (lambda x: ad.sum_all(ad.mul(ad.clip(x, 0.0, 1.0), ad.clip(x, 0.0, 1.0)))), Tensor(rng.normal(size=(6,)) * 0.8 + 0.5)


def _case_maximum_scalar(rng):
    return (lambda x: ad.sum_all(ad.maximum_scalar(x, 0.25))), Tensor(rng.normal(size=(5,)))


def _case_softmax(rng):
    w = Tensor(rng.normal(size=(2, 4)))
    return (lambda x: ad.sum_all(ad.mul(ad.softmax(x), w))), Tensor(rng.normal(size=(2, 4)))


def _case_logsumexp(rng):
    return (lambda x: ad.sum_all(ad.logsumexp(x))), Tensor(rng.normal(size=(3, 4)))


def _case_take_per_row(rng):
    idx = rng.integers(0, 3, size=2)
    return (lambda x: ad.sum_all(ad.take_per_row(x, idx))), Tensor(rng.normal(size=(2, 3)))


def _case_rowmax(rng):
    return (lambda x: ad.sum_all(ad.rowmax(x))), Tensor(rng.normal(size=(3, 4)))


def _case_conv2d(rng):
    k = Tensor(rng.normal(size=(2, 2, 1, 2)) * 0.7)
    return (lambda x: ad.sum_all(ad.mul(ad.conv2d(x, k, 1, "same"), ad.conv2d(x, k, 1, "same")))), Tensor(
        rng.normal(size=(1, 3, 3, 1))
    )


def _case_conv2d_filters(rng):
    x = Tensor(rng.normal(size=(1, 3, 3, 2)))
    return (lambda w: ad.sum_all(ad.mul(ad.conv2d(x, w, 1, "valid"), ad.conv2d(x, w, 1, "valid")))), Tensor(
        rng.normal(size=(2, 2, 2, 1)) * 0.7
    )


def _case_maxpool(rng):
    return (lambda x: ad.sum_all(ad.mul(ad.maxpool2d(x, 2, 1), ad.maxpool2d(x, 2, 1)))), Tensor(rng.normal(size=(1, 3, 3, 2)))


def _case_standardize(rng):
    w = Tensor(rng.normal(size=(1, 2, 2, 1)))
    return (lambda x: ad.sum_all(ad.mul(ad.standardize_per_image(x), w))), Tensor(rng.normal(size=(1, 2, 2, 1)))


def _case_kl(rng):
    k = int(rng.integers(2, 5))
    raw_p = rng.random(k) + 0.3
    tgt = Tensor(raw_p / raw_p.sum())

    def f(x):
        return ad.kl_divergence(tgt, ad.softmax(x))

    return f, Tensor(rng.normal(size=(1, k)))


def _case_kl_both_sides(rng):
    k = 3
    w = Tensor(rng.normal(size=(k, k)) * 0.5)

    def f(x):
        p = ad.softmax(x)
        q = ad.softmax(ad.matmul(x, w))
        return ad.kl_divergence(p, q)

    return f, Tensor(rng.normal(size=(1, k)))


def _case_dropout(rng):
    mask_rng_seed = int(rng.integers(0, 2**32))

    def f(x):
        return ad.sum_all(ad.dropout(x, 0.4, np.random.default_rng(mask_rng_seed)))

    return f, Tensor(rng.normal(size=(3, 3)))


PRIMITIVE_CASES = {
    "add": _case_add,
    "sub": _case_sub,
    "mul": _case_mul,
    "matmul": _case_matmul,
    "relu": _case_relu,
    "tanh": _case_tanh,
    "log": _case_log,
    "clip": _case_clip,
    "maximum_scalar": _case_maximum_scalar,
    "softmax": _case_softmax,
    "logsumexp": _case_logsumexp,
    "take_per_row": _case_take_per_row,
    "rowmax": _case_rowmax,
    "conv2d": _case_conv2d,
    "conv2d_filters": _case_conv2d_filters,
    "maxpool2d": _case_maxpool,
    "standardize_per_image": _case_standardize,
    "kl_divergence": _case_kl,
    "kl_divergence_both_sides": _case_kl_both_sides,
    "dropout": _case_dropout,
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    builder = PRIMITIVE_CASES[name]
    worst = 0.0
    for seed in range(100):
        worst = max(worst, checked_grad(builder, seed * 7919 + zlib.crc32(name.encode()) % 1000))
    assert worst < 1e-4, f"{name}: max relative error {worst}"


# ---------------------------------------------------------------------------
# overflow and tape behavior


def test_overflow_is_an_error_not_a_value():
    x = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            ad.add(x, x)


def test_tape_topological_order_and_single_visit():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        a = ad.mul(x, x)
        b = ad.add(a, x)
        loss = ad.sum_all(ad.mul(b, b))
    produced_at = {id(rec.output): i for i, rec in enumerate(tape.records)}
    for i, rec in enumerate(tape.records):
        for t in rec.inputs:
            if id(t) in produced_at:
                assert produced_at[id(t)] < i
    grads = backward(tape, loss)
    # d/dx sum((x^2 + x)^2) = 2(x^2+x)(2x+1)
    expected = 2 * (x.data**2 + x.data) * (2 * x.data + 1)
    assert np.allclose(grads[x], expected, atol=1e-12)


def test_ops_do_not_record_without_tape():
    x = Tensor(np.array([1.0]), requires_grad=True)
    out = ad.mul(x, x)
    assert out.requires_grad  # propagated, but nothing recorded anywhere
