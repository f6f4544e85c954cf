"""Independent oracles shared across the test modules.

These deliberately avoid the package's im2col/matmul path: convolution is
re-done with explicit window loops, FLOPs by literal per-tap enumeration,
activation means under N(0, 1) by quadrature of scalar textbook formulas,
normalization by scalar sums over each group and its explicit Jacobian,
label-distribution KS by scalar loops over class counts, AGC and the
optimizer steps by per-tensor loops over separate arrays instead of the flat
parameter arena, synthetic images by the float64 expression the data
module replaced with in-place operations, and centralized training by a
plain epoch loop over one model, without clients, workers or aggregation.
"""

import math

import numpy as np

from fedconv.autodiff import Tensor
from fedconv.federated import (_load_data, _make_optimizer, _make_schedule,
                               train_epochs)
from fedconv.models import Network
from fedconv.optim import ParamArena, clip_model_grads, unitwise_norm
from fedconv.reporting import ExperimentReport, RoundRecord, StopWatch, evaluate


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


def loop_conv2d_grads(x, w, g, stride=1, padding=0, groups=1):
    """Input and weight gradients of sum(conv2d(x, w) * g), in float64: a loop
    over output channels and positions scatters each output gradient into
    its window, `g * w` into the padded input gradient and `g * window`
    into the kernel gradient."""
    x, w, g = (np.asarray(a, np.float64) for a in (x, w, g))
    n, cin, h, wdt = x.shape
    cout, cin_g, k, _ = w.shape
    og = cout // groups
    _, _, hout, wout = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for co in range(cout):
        chans = slice(co // og * cin_g, (co // og + 1) * cin_g)
        for oy in range(hout):
            for ox in range(wout):
                rows = slice(oy * stride, oy * stride + k)
                cols = slice(ox * stride, ox * stride + k)
                go = g[:, co, oy, ox][:, None, None, None]
                gxp[:, chans, rows, cols] += go * w[co]
                gw[co] += np.sum(go * xp[:, chans, rows, cols], axis=0)
    return gxp[:, :, padding:padding + h, padding:padding + wdt], gw


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


def loop_norm(kind, x, gamma, beta, g, running_mean=None, running_var=None,
              momentum=0.1, eps=1e-5):
    """Channel layer norm (`kind` "ln", NCHW or NC `x`) or batch norm
    ("bn_train", "bn_eval", NCHW `x`) in float64, one normalization group at
    a time: a group is one position's C channels for "ln" and one channel's
    N*H*W values for batch norm. The statistics are scalar `math.fsum`
    means, and the input gradient is each group's explicit Jacobian
    inv * (delta_ij - 1/k - xhat_i * xhat_j / k) applied to gamma * `g`.

    Returns (out, dx, dgamma, dbeta, var, running_mean, running_var): `out`
    and `dx` shaped like `x`, `var` the groups' biased variances with the
    reduced axes kept (None for "bn_eval"), and the running statistics after
    the step (the EMA of the batch mean and biased variance for "bn_train",
    unchanged for "bn_eval", None for "ln")."""
    shape = np.shape(x)
    x4 = np.asarray(x, np.float64).reshape(shape[0], shape[1], -1)
    g4 = np.asarray(g, np.float64).reshape(x4.shape)
    n, c, hw = x4.shape
    gamma, beta = np.asarray(gamma, np.float64), np.asarray(beta, np.float64)
    if kind == "ln":
        groups = [[(ni, ci, p) for ci in range(c)] for ni in range(n) for p in range(hw)]
        var = np.zeros((n, 1, hw))
    else:
        groups = [[(ni, ci, p) for ni in range(n) for p in range(hw)] for ci in range(c)]
        var = np.zeros((1, c, 1))
    rm = None if running_mean is None else np.array(running_mean, np.float64)
    rv = None if running_var is None else np.array(running_var, np.float64)
    out, dx = np.zeros(x4.shape), np.zeros(x4.shape)
    dgamma, dbeta = np.zeros(c), np.zeros(c)
    for group in groups:
        k = len(group)
        v = [x4[i] for i in group]
        if kind == "bn_eval":
            ci = group[0][1]
            mu, s2 = rm[ci], rv[ci]
        else:
            mu = math.fsum(v) / k
            s2 = math.fsum((vi - mu) ** 2 for vi in v) / k
            ni, ci, p = group[0]
            var[(ni, 0, p) if kind == "ln" else (0, ci, 0)] = s2
            if kind == "bn_train":
                rm[ci] = (1.0 - momentum) * rm[ci] + momentum * mu
                rv[ci] = (1.0 - momentum) * rv[ci] + momentum * s2
        inv = 1.0 / math.sqrt(s2 + eps)
        xhat = [(vi - mu) * inv for vi in v]
        ghat = [g4[i] * gamma[i[1]] for i in group]
        for a, i in enumerate(group):
            out[i] = gamma[i[1]] * xhat[a] + beta[i[1]]
            dgamma[i[1]] += g4[i] * xhat[a]
            dbeta[i[1]] += g4[i]
            if kind == "bn_eval":
                dx[i] = ghat[a] * inv
            else:
                dx[i] = math.fsum(ghat[b] * inv * ((a == b) - 1.0 / k - xhat[b] * xhat[a] / k)
                                  for b in range(k))
    if kind == "ln":
        var = var.reshape(n, 1, *(shape[2:] or (1, 1)))
    else:
        var = None if kind == "bn_eval" else var.reshape(1, c, 1, 1)
    return out.reshape(shape), dx.reshape(shape), dgamma, dbeta, var, rm, rv


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


def gauss_cdf_f32_closed_form(x):
    """Phi(x) of a float32 array by the float32 kernel's closed form, whole
    and unblocked, one numpy expression per step: q = Phi(-|x|) from Numerical
    Recipes' erfcc at z = |x|/sqrt(2), with z*z taken as x*x/2 and the
    factor 1/2 as log(1/2) in the exponent, then Phi = |[x > 0] - q|."""
    t = 1 / (np.abs(x) * np.float32(0.5 / math.sqrt(2.0)) + 1)
    poly = t * np.float32(0.17087277)
    for c in (-0.82215223, 1.48851587, -1.13520398, 0.27886807, -0.18628806,
              0.09678418, 0.37409196, 1.00002368):
        poly = (poly + np.float32(c)) * t
    q = np.exp(poly + np.float32(-1.26551223 + math.log(0.5))
               - x * x * np.float32(0.5)) * t
    return np.abs((x > 0).astype(np.float32) - q)


def sigmoid_f32_closed_form(x):
    """1 / (1 + exp(-x)) of a float32 array; exp overflows to inf for x
    below about -88, which gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1 / (1 + np.exp(-x))


def synth_images_oracle(seed, num_classes, per_class, resolution, split):
    """The images of `fedconv.data.synth_dataset`, each class computed as
    `np.clip(pattern + noise, 0, 255).astype(np.uint8)` with float64
    temporaries, from the same rng draws in the same order."""
    rng = np.random.default_rng([seed, {"train": 0, "test": 1}[split]])
    r = resolution
    yy, xx = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    images = np.empty((num_classes * per_class, 3, r, r), dtype=np.uint8)
    for k in range(num_classes):
        theta = math.pi * k / num_classes
        freq = 1.5 + (k % 4)
        phase_base = 2.0 * math.pi * k / num_classes
        proj = (math.cos(theta) * xx + math.sin(theta) * yy) / r
        pattern = np.stack([
            127.5 + 90.0 * np.sin(2.0 * math.pi * freq * proj
                                  + phase_base + c * 2.0 * math.pi / 3.0)
            for c in range(3)])
        noise = rng.normal(0.0, 24.0, size=(per_class, 3, r, r))
        images[k * per_class:(k + 1) * per_class] = np.clip(
            pattern[None] + noise, 0, 255).astype(np.uint8)
    return images


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


def _agc_factor(p, g, cfg):
    """Per-unit factor AGC scales the gradient by: limit / ||g_i|| where
    ||g_i|| exceeds limit = clipping * max(||w_i||, eps), else exactly 1."""
    wn = np.maximum(unitwise_norm(p), cfg.eps)
    gn = unitwise_norm(g)
    limit = cfg.clipping * wn
    return np.where(gn > limit, limit / np.maximum(gn, 1e-30), 1)


def agc_clip(params, grads, cfg):
    """Per-tensor AGC oracle: per unit i, scale g_i down whenever
    ||g_i|| / max(||w_i||, eps) exceeds the clipping factor. Inputs are left
    untouched; clipped copies are returned."""
    return [g * _agc_factor(p, g, cfg) for p, g in zip(params, grads)]


def arena_of(arrays, dtype=None):
    """A ParamArena over copies of `arrays`, named p0, p1, ..."""
    return ParamArena((f"p{i}", Tensor(np.array(a, dtype=dtype), requires_grad=True))
                      for i, a in enumerate(arrays))


def arena_clip(w, g, cfg):
    """The package's flat AGC on a one-entry arena holding copies of w and g;
    returns the clipped gradient."""
    arena = arena_of([w])
    arena["p0"].grad[...] = g
    clip_model_grads(arena, cfg)
    return arena["p0"].grad.copy()


class LoopAdamW:
    """AdamW over a list of arrays, one tensor at a time, in the order of the
    package's flat step: decay, first moment, second moment, update."""

    def __init__(self, params, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.beta1, self.beta2 = betas
        self.eps, self.weight_decay = eps, weight_decay
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if self.weight_decay:
                p *= 1.0 - lr * self.weight_decay
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class LoopSGD:
    """Heavy-ball SGD over a list of arrays, one tensor at a time."""

    def __init__(self, params, momentum=0.0):
        self.params = params
        self.momentum = momentum
        self.buf = [np.zeros_like(p) for p in params]

    def step(self, grads, lr):
        for p, g, b in zip(self.params, grads, self.buf):
            if self.momentum:
                b *= self.momentum
                b += g
                p -= lr * b
            else:
                p -= lr * g


def central_train(exp, round_checkpoint=None, capture=None):
    """Centralized training oracle: one model trained on the pooled training
    set, one epoch per round for rounds x local_epochs rounds, with the
    schedule and rng derivations of a single federated client (model init
    [seed, 11], data order [seed, 101, 0]) and the client lr of the
    configured method. Returns the report with `partition_mean_ks` None;
    `round_checkpoint(r, state)` gets copies of the state after every
    evaluation, and `capture` receives the final state, model and optimizer."""
    train, test = _load_data(exp)
    model = Network(exp.arch, exp.dtype)
    model.init_params(np.random.default_rng([exp.seed, 11]))
    optimizer = _make_optimizer(exp.optimizer, model.named_parameters())
    rng = np.random.default_rng([exp.seed, 101, 0])
    schedule = _make_schedule(exp.optimizer, exp.fl.method)
    indices = np.arange(len(train))

    with StopWatch() as sw0:
        acc0 = evaluate(model, test.images, test.labels)
    records = [RoundRecord(0, acc0, None, sw0.seconds)]
    if round_checkpoint:
        round_checkpoint(0, model.state_dict())

    for e in range(1, exp.fl.rounds * exp.fl.local_epochs + 1):
        with StopWatch() as sw:
            mean_loss = train_epochs(
                model, optimizer, train, indices, rng, epochs=1,
                batch_size=exp.fl.batch_size, schedule=schedule,
                agc_cfg=exp.optimizer.agc)
            acc = evaluate(model, test.images, test.labels)
        records.append(RoundRecord(e, acc, mean_loss, sw.seconds))
        if round_checkpoint:
            round_checkpoint(e, model.state_dict())
        if exp.target_accuracy is not None and acc >= exp.target_accuracy:
            break

    if capture is not None:
        capture.update(state=model.state_dict(), model=model, optimizer=optimizer)
    return ExperimentReport(
        config=exp.raw, params=model.named_parameters().data.size,
        partition_mean_ks=None, client_sizes=[len(train)], records=records,
        target_accuracy=exp.target_accuracy)
