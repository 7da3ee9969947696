"""Minimal from-scratch convolutional classifier.

Valid-padding convolutions with ReLU, dense layers, softmax cross-entropy
and plain SGD by backpropagation, all in numpy.  ``loss_and_grad`` returns
batch-summed quantities, so duplicated batch entries double both; the
trainer divides by the batch size when updating.  Batches arrive as the
dataset's (B, H*W) rows, ``train``'s and ``estimate_error``'s alike, or as
(B, H, W) images; ``_as_batch`` is the one place a batch meets ``input_shape``.

The compute dtype follows the parameters.  ``init_params`` returns float64,
which the gradient checks use; ``train`` casts to float32, so training and
prediction run in float32.  Its settings, ``TrainConfig``, live in
:mod:`qthermal.classify` (re-exported here), so of the command line only
``simulate --classifier cnn`` runs this module.

Every activation is feature-major with the batch last: (C, H, W, B) for
conv layers, (features, B) for dense ones, so every layer is one GEMM
``z = W @ X`` and its backward pass ``dW = dz @ X.T``, ``dX = W.T @ dz``.
A conv layer's X is its windows, one copy of a strided (C, k, k, OH, OW, B)
view of its input in the weights' K order, and its input gradient is added
through that same view tap by tap, in contiguous runs of B; the last conv
output, read as (C*H*W, B), is the first dense input, in the (C, H, W)
order of the first dense layer's weight columns.  A pass owns its input, one
window buffer that every conv layer fills in turn, sized for the widest
before the first fills it, each layer's output (ReLU runs in place) and, in
training, one ReLU mask, all in a workspace: a dict of buffers keyed by
layer and role that smaller batches reuse.  The backward pass writes a
layer's input gradient over that input once dW has read it, scattering a
conv layer's onto the activation below; that activation's mask is taken
first, since ``max(z, 0) > 0`` equals ``z > 0`` for every z, -0.0 and NaN
included.  Each conv layer below the last gets its windows back, copied
from its input just before its dW, so every GEMM reads the bytes it would
read from windows of its own.  A ``train`` call owns one workspace for its
SGD steps and holdout predictions; any other call makes its own, and
``predict_labels`` runs in chunks of ``_PREDICT_CHUNK`` images.  No
workspace is shared between threads: ``estimate_error`` estimates a trained
network's error only through ``partial(predict_labels, net, params)``, a
predictor that holds none, as the job threads of ``advantage_regions`` may
share it, like its one nearest-neighbour predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import NoiseModel, TrainConfig, sample_noisy
from .data import BinaryImageDataset, trial_stream
from .errors import EmptyTrainingSetError, NonFiniteLossError, ShapeMismatchError

DEFAULT_CONV = ((8, 3, 1), (16, 3, 2))
DEFAULT_DENSE = (64,)

_PREDICT_CHUNK = 64


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: conv stages (filters, kernel, stride),
    hidden dense widths, and the output class count."""

    input_shape: tuple[int, int]
    conv: tuple[tuple[int, int, int], ...] = DEFAULT_CONV
    dense: tuple[int, ...] = DEFAULT_DENSE
    classes: int = 10

    def __post_init__(self):
        if self.classes < 1:
            raise ValueError("need at least one output class")
        self.feature_shapes()
        if any(d < 1 for d in self.dense):
            raise ValueError("dense widths must be positive")

    def feature_shapes(self) -> list[tuple[int, int, int]]:
        """(channels, height, width) after the input and each conv stage."""
        h, w = self.input_shape
        shapes = [(1, h, w)]
        for filters, kernel, stride in self.conv:
            if filters < 1 or kernel < 1 or stride < 1:
                raise ValueError(f"bad conv stage ({filters}, {kernel}, {stride})")
            if kernel > h or kernel > w:
                raise ValueError(
                    f"kernel {kernel} exceeds spatial extent ({h}, {w})"
                )
            h = (h - kernel) // stride + 1
            w = (w - kernel) // stride + 1
            shapes.append((filters, h, w))
        return shapes

    def parameter_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(W, b) shapes per layer, conv stages first, output layer last."""
        shapes = []
        feats = self.feature_shapes()
        for i, (filters, kernel, _) in enumerate(self.conv):
            c_in = feats[i][0]
            shapes.append(((filters, c_in, kernel, kernel), (filters,)))
        width = int(np.prod(feats[-1]))
        for d in self.dense:
            shapes.append(((d, width), (d,)))
            width = d
        shapes.append(((self.classes, width), (self.classes,)))
        return shapes


def init_params(net: NetworkSpec, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """He-style uniform initialisation from a counter-based stream."""
    rng = trial_stream(seed, 0xC0)
    params = []
    for w_shape, b_shape in net.parameter_shapes():
        fan_in = int(np.prod(w_shape[1:]))
        limit = np.sqrt(6.0 / fan_in)
        W = rng.uniform(-limit, limit, size=w_shape)
        params.append((W, np.zeros(b_shape)))
    return params


def _check_params(net: NetworkSpec, params) -> None:
    expected = net.parameter_shapes()
    if len(params) != len(expected):
        raise ShapeMismatchError(
            f"expected {len(expected)} parameter layers, got {len(params)}"
        )
    for (W, b), (ws, bs) in zip(params, expected):
        if tuple(W.shape) != ws or tuple(b.shape) != bs:
            raise ShapeMismatchError(f"parameter shape {W.shape}/{b.shape} != {ws}/{bs}")


def _buffer(workspace: dict, key, shape, dtype) -> np.ndarray:
    """Uninitialised array of ``shape``, a view of the workspace's storage for
    ``key``, which grows on demand, so a smaller batch reuses the storage of a
    larger one."""
    size = math.prod(shape)
    store = workspace.get(key)
    if store is None or store.size < size:
        store = workspace[key] = np.empty(size, dtype)
    return store[:size].reshape(shape)


def _window_view(x: np.ndarray, kernel: int, stride: int, oh: int, ow: int) -> np.ndarray:
    # x (C, H, W, B) as (C, k, k, OH, OW, B): [c, i, j, r, s] is x[c, i + stride*r, j + stride*s]
    c, h, w, b = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (len(x), kernel, kernel, oh, ow, x.shape[3]), (c, h, w, stride * h, stride * w, b))


def _windows(x: np.ndarray, kernel: int, stride: int, out: np.ndarray) -> np.ndarray:
    # x: (C, H, W, B) -> out (C, k, k, OH, OW, B), one copy of the window view
    np.copyto(out, _window_view(x, kernel, stride, *out.shape[3:5]))
    return out


def _col2im(dcols: np.ndarray, dx: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # dcols (C, k, k, OH, OW, B) onto dx (C, H, W, B), tap by tap, as taps overlap
    taps = _window_view(dx, kernel, stride, *dcols.shape[3:5])
    dx.fill(0)
    for i, j in np.ndindex(kernel, kernel):
        taps[:, i, j] += dcols[:, i, j]
    return dx


def _as_batch(net: NetworkSpec, images) -> np.ndarray:
    """(B, H, W) view of a (B, H, W) or flattened (B, H*W) batch."""
    images = np.asarray(images)
    if images.ndim == 2 and images.shape[1] == math.prod(net.input_shape):
        images = images.reshape(len(images), *net.input_shape)
    if images.ndim != 3 or images.shape[1:] != net.input_shape:
        raise ShapeMismatchError(
            f"images must be (B, {net.input_shape[0]}, {net.input_shape[1]}), got {images.shape}"
        )
    return images


def _forward_batch(
    net: NetworkSpec,
    params,
    images: np.ndarray,
    cache: list | None = None,
    *,
    workspace: dict,
):
    """Shared forward pass; images (B, H, W), returns (B, classes) logits in
    the params' dtype, a transposed view of the (classes, B) output.

    A ``cache`` list receives one (x, inp, z) triple per layer: its input x,
    (C, H, W, B) after the image or a conv layer, else (features, B); the
    GEMM input inp, (C*k*k, N) windows or x as (features, B); and the (F, N)
    output z, after ReLU, N = OH*OW*B for conv, B for dense.  The windows of
    every conv layer are views of one buffer, so after the pass only the
    last conv layer's are intact.  Every array, the logits included, is a
    view of the ``workspace``'s storage and is overwritten by the next call
    through it.
    """
    _check_params(net, params)
    dtype = params[0][0].dtype
    B = len(images)
    shapes = net.feature_shapes()
    # one window buffer for every conv layer, at its widest before the first
    # fills it: grown during the pass, it would leave both sizes alive
    widest = max((W[0].size * math.prod(shapes[i + 1][1:])
                  for i, (W, _) in enumerate(params[: len(net.conv)])), default=0)
    _buffer(workspace, "cols", (widest * B,), dtype)
    x = _buffer(workspace, "input", (*shapes[0], B), dtype)
    x[0] = images.transpose(1, 2, 0)
    for i, (W, b) in enumerate(params):
        if i < len(net.conv):  # windows in the K order (C, k, k) of W
            _, kernel, stride = net.conv[i]
            cols = _buffer(workspace, "cols", (*W.shape[1:], *shapes[i + 1][1:], B), dtype)
            inp = _windows(x, kernel, stride, cols).reshape(W[0].size, -1)
        else:  # a conv output (C, H, W, B) is the dense input in (C, H, W) order
            inp = x.reshape(-1, B)
        z = _buffer(workspace, ("z", i), (len(W), inp.shape[1]), dtype)
        np.matmul(W.reshape(len(W), -1), inp, out=z)
        z += b[:, None]
        if i < len(params) - 1:  # the output layer has no ReLU
            np.maximum(z, 0.0, out=z)
        if cache is not None:
            cache.append((x, inp, z))
        x = z.reshape(*shapes[i + 1], B) if i < len(net.conv) else z
    return z.T


def predict_labels(
    net: NetworkSpec, params, images: np.ndarray, _workspace: dict | None = None
) -> np.ndarray:
    """Argmax class labels for a (B, H, W) or flattened (B, H*W) batch, run in
    chunks of ``_PREDICT_CHUNK`` images through one workspace, the caller's or
    a new one per call."""
    images = _as_batch(net, images)
    workspace = {} if _workspace is None else _workspace
    labels = np.empty(len(images), np.intp)
    for start in range(0, len(images), _PREDICT_CHUNK):
        chunk = slice(start, start + _PREDICT_CHUNK)
        logits = _forward_batch(net, params, images[chunk], workspace=workspace)
        labels[chunk] = np.argmax(logits, axis=1)
    return labels


def loss_and_grad(
    net: NetworkSpec,
    params,
    images: np.ndarray,
    labels: np.ndarray,
    _workspace: dict | None = None,
):
    """Batch-summed softmax cross-entropy and its parameter gradient.

    Returns:
        (loss, grads) where grads mirrors the parameter list layout and dtype.
        The gradients are fresh arrays; the activations live in the
        workspace, the caller's or a new one per call.

    The forward pass leaves only the last conv layer's windows in the shared
    window buffer.  Going down, each lower conv layer's windows are copied
    again from its input, the image or the activation below, before its dW
    reads them: by then the gradients above have overwritten this layer's
    output, and its input is overwritten only after its dW.
    """
    images = _as_batch(net, images)
    labels = np.asarray(labels, dtype=np.int64)
    if len(images) == 0:
        raise ValueError("batch must be non-empty")
    if labels.shape != (images.shape[0],):
        raise ShapeMismatchError("labels do not match the batch size")
    workspace = {} if _workspace is None else _workspace
    cache = []
    logits = _forward_batch(net, params, images, cache, workspace=workspace).T
    B = logits.shape[1]
    top = logits.max(axis=0)
    e = np.exp(logits - top)
    loss = float(np.sum(np.log(e.sum(axis=0)) + top - logits[labels, np.arange(B)]))
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss evaluated to {loss}")

    shapes = net.feature_shapes()
    grads: list = [None] * len(params)
    dz = e / e.sum(axis=0)
    dz[labels, np.arange(B)] -= 1.0
    for i in reversed(range(len(params))):
        x, inp, _ = cache[i]
        W, _ = params[i]
        if i < len(net.conv):
            _, kernel, stride = net.conv[i]
            windows = inp.reshape(*W.shape[1:], *shapes[i + 1][1:], B)
            if i < len(net.conv) - 1:  # the layers above refilled the window buffer
                _windows(x, kernel, stride, windows)
        grads[i] = ((dz @ inp.T).reshape(W.shape), dz.sum(axis=1))
        if i == 0:  # the first layer's input gradient is the image's
            break
        a = cache[i - 1][2]  # the activation below: masked, then overwritten by its gradient
        mask = np.greater(a, 0.0, out=_buffer(workspace, "mask", a.shape, bool))
        np.matmul(W.reshape(len(W), -1).T, dz, out=inp)  # dW has read inp
        if i < len(net.conv):  # scatter the windows' gradient onto x, a view of a
            _col2im(windows, x, kernel, stride)
        dz = np.multiply(a, mask, out=a)
    return loss, grads


def train(
    net: NetworkSpec,
    training: BinaryImageDataset,
    noise: NoiseModel,
    config: TrainConfig,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Plain float32 SGD training with a held-out slice for best-epoch
    selection; returns the parameters of the best epoch.

    The holdout is min(max(1, round(holdout_fraction * n)), n - 1) of the n
    images, disjoint from the rest, which are fitted; only n = 1 leaves it
    empty.  ``noise`` gives each image a fresh noise sample every epoch,
    drawn from (seed, epoch, batch) streams, whatever its flip probability;
    everything is deterministic for a fixed config.  An empty set raises
    ``EmptyTrainingSetError``; a loss, or after any epoch a parameter, that
    is not finite raises ``NonFiniteLossError``.
    """
    n = len(training)
    if n == 0:
        raise EmptyTrainingSetError("training set is empty")
    images, labels = training.images, training.labels

    n_hold = min(max(1, round(config.holdout_fraction * n)), n - 1)
    perm = trial_stream(config.seed, 0x51).permutation(n)
    hold_idx, fit_idx = perm[:n_hold], perm[n_hold:]
    x_hold, y_hold = images[hold_idx], labels[hold_idx]

    params = [(W.astype(np.float32), b.astype(np.float32))
              for W, b in init_params(net, config.seed)]
    best_acc = -1.0
    workspace: dict = {}

    for epoch in range(config.epochs):
        order = trial_stream(config.seed, 0x5E, epoch).permutation(len(fit_idx))
        for bi in range(0, len(order), config.batch_size):
            sel = fit_idx[order[bi : bi + config.batch_size]]
            xb = sample_noisy(images[sel], noise, trial_stream(config.seed, 0x7A, epoch, bi))
            _, grads = loss_and_grad(net, params, xb, labels[sel], _workspace=workspace)
            lr = config.learning_rate / len(sel)
            for layer, step in zip(params, grads):
                for p, g in zip(layer, step):
                    g *= lr
                    p -= g
        if not all(np.isfinite(p).all() for layer in params for p in layer):
            raise NonFiniteLossError(f"a parameter is not finite after epoch {epoch}")
        x_eval = sample_noisy(x_hold, noise, trial_stream(config.seed, 0x40, epoch))
        if len(y_hold):
            acc = float(np.mean(predict_labels(net, params, x_eval, workspace) == y_hold))
        else:
            acc = 0.0
        if acc >= best_acc:
            best_acc = acc
            best = [(W.copy(), b.copy()) for W, b in params]
    return best

