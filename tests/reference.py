"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive (explicit loops, dense algebra, finite
differences) and never calls back into the code paths it verifies.
"""

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def naive_conv2d(inp: np.ndarray, kernel: np.ndarray, stride: int, padding: int) -> np.ndarray:
    cin, h, w = inp.shape
    cout, cin2, kh, kw = kernel.shape
    assert cin == cin2
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((cin, h + 2 * padding, w + 2 * padding))
    padded[:, padding:padding + h, padding:padding + w] = inp
    out = np.zeros((cout, oh, ow))
    for o in range(cout):
        for c in range(cin):
            for i in range(oh):
                for j in range(ow):
                    for u in range(kh):
                        for v in range(kw):
                            out[o, i, j] += padded[c, i * stride + u, j * stride + v] \
                                * kernel[o, c, u, v]
    return out


def naive_conv2d_grad_input(seed: np.ndarray, kernel: np.ndarray, stride: int, padding: int,
                            h: int, w: int) -> np.ndarray:
    """Scatter each seed entry back through the taps it was gathered from."""
    cout, oh, ow = seed.shape
    _, cin, kh, kw = kernel.shape
    padded = np.zeros((cin, h + 2 * padding, w + 2 * padding))
    for o in range(cout):
        for i in range(oh):
            for j in range(ow):
                for u in range(kh):
                    for v in range(kw):
                        padded[:, i * stride + u, j * stride + v] += seed[o, i, j] * kernel[o, :, u, v]
    return padded[:, padding:padding + h, padding:padding + w]


def naive_conv2d_grad_kernel(seed: np.ndarray, inp: np.ndarray, kh: int, kw: int,
                             stride: int, padding: int) -> np.ndarray:
    cout, oh, ow = seed.shape
    cin, h, w = inp.shape
    padded = np.zeros((cin, h + 2 * padding, w + 2 * padding))
    padded[:, padding:padding + h, padding:padding + w] = inp
    out = np.zeros((cout, cin, kh, kw))
    for o in range(cout):
        for i in range(oh):
            for j in range(ow):
                for u in range(kh):
                    for v in range(kw):
                        out[o, :, u, v] += seed[o, i, j] * padded[:, i * stride + u, j * stride + v]
    return out


def central_diff(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.ravel()
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += step
        xm.flat[i] -= step
        flat[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)
