"""Independent oracles shared across the test modules.

These deliberately avoid the package's im2col/matmul path: convolution is
re-done with explicit window loops, FLOPs by literal per-tap enumeration,
activation means under N(0, 1) by quadrature of scalar textbook formulas,
label-distribution KS by scalar loops over class counts.
"""

import math

import numpy as np


def naive_conv2d(x, w, b=None, stride=1, padding=1, groups=1):
    """Six explicit loops; use only on tiny shapes."""
    n, cin, h, wdt = x.shape
    cout, cin_g, k, _ = w.shape
    og = cout // groups
    hout = (h + 2 * padding - k) // stride + 1
    wout = (wdt + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, hout, wout), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            g = co // og
            for oy in range(hout):
                for ox in range(wout):
                    acc = 0.0
                    for ci in range(cin_g):
                        for i in range(k):
                            for j in range(k):
                                acc += w[co, ci, i, j] * xp[ni, g * cin_g + ci,
                                                            oy * stride + i,
                                                            ox * stride + j]
                    out[ni, co, oy, ox] = acc + (0.0 if b is None else b[co])
    return out


def loop_conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """Quadruple loop over output coordinates with a vectorized window MAC;
    summation order within a window matches the naive oracle."""
    n, cin, h, wdt = x.shape
    cout, cin_g, k, _ = w.shape
    og = cout // groups
    hout = (h + 2 * padding - k) // stride + 1
    wout = (wdt + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, hout, wout), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            g = co // og
            chans = slice(g * cin_g, (g + 1) * cin_g)
            for oy in range(hout):
                for ox in range(wout):
                    win = xp[ni, chans, oy * stride:oy * stride + k,
                             ox * stride:ox * stride + k]
                    out[ni, co, oy, ox] = np.sum(win * w[co]) + (
                        0.0 if b is None else b[co])
    return out


def loop_maxpool2d(x, g, k, stride, padding):
    """Max pooling by loops over windows and their pixels in row-major order.
    Returns the pooled values and the input gradient for output gradient
    `g`: each window sends its gradient to its first maximal real pixel
    (padding never wins), and a pixel sums its windows in window order."""
    n, c, h, w = x.shape
    hout = (h + 2 * padding - k) // stride + 1
    wout = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, c, hout, wout), dtype=x.dtype)
    gx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for oy in range(hout):
                for ox in range(wout):
                    best = None
                    for i in range(k):
                        for j in range(k):
                            y = oy * stride + i - padding
                            xx = ox * stride + j - padding
                            if 0 <= y < h and 0 <= xx < w and (
                                    best is None or x[ni, ci, y, xx] > x[ni, ci][best]):
                                best = (y, xx)
                    out[ni, ci, oy, ox] = x[ni, ci][best]
                    gx[ni, ci][best] += g[ni, ci, oy, ox]
    return out, gx


def enumerate_conv_macs(cout, cin_g, k, hout, wout):
    """Literal per-output-element multiply-accumulate count."""
    count = 0
    for _ in range(cout):
        for _ in range(hout):
            for _ in range(wout):
                count += cin_g * k * k
    return count


def std_normal_mean(f):
    """E[f(Z)] for Z ~ N(0, 1): adaptive quadrature of f against the normal
    pdf, split at 0 where the piecewise activations have their kink."""
    from scipy import integrate, stats

    def g(z):
        return f(z) * stats.norm.pdf(z)

    lo, _ = integrate.quad(g, -np.inf, 0.0, epsabs=1e-13, epsrel=1e-12)
    hi, _ = integrate.quad(g, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
    return lo + hi


# Scalar activations from their textbook formulas, independent of the
# package's vectorized ops; ELU at alpha = 1.
ACTIVATION_FORMULAS = {
    "relu": lambda z: max(z, 0.0),
    "softplus": lambda z: max(z, 0.0) + math.log1p(math.exp(-abs(z))),  # log(1 + e^z)
    "gelu": lambda z: z * 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))),  # z * Phi(z)
    # z * sigmoid(z), with sigmoid in the tanh form that cannot overflow.
    "silu": lambda z: z * 0.5 * (1.0 + math.tanh(0.5 * z)),
    "elu": lambda z: z if z > 0 else math.expm1(z),
}


def mean_pairwise_ks_oracle(counts):
    """Mean over unordered pairs of clients of the largest gap between their
    cumulative label proportions. `counts` holds one list of per-class sample
    counts per client, classes in index order; scalar loops only."""
    cdfs = []
    for row in counts:
        total = sum(row)
        acc, cdf = 0, []
        for c in row:
            acc += c
            cdf.append(acc / total)
        cdfs.append(cdf)
    gaps = [max(abs(a - b) for a, b in zip(cdfs[i], cdfs[j]))
            for i in range(len(cdfs)) for j in range(i + 1, len(cdfs))]
    return sum(gaps) / len(gaps) if gaps else 0.0
