"""Feed-forward dueling Q-network with analytic gradients.

Tanh trunk, a scalar value head and an advantage head combined as
Q = V + A - mean(A); the mean subtraction removes the constant-shift
ambiguity between the two heads without changing the argmax. Training
minimizes the mean squared TD error on the combined Q.

Each TD term reads one Q per row, and the TD step uses that in both
passes. Forward, Q(s, a) is the last hidden layer dotted with the taken
advantage column (shifted by the value weight and the column mean) plus
the matching biases, so no (B, n_actions) head product is formed.
Backward, dL/dQ has one nonzero per row: the advantage-head gradient is
a rank-one fill of every column plus a scatter into the taken columns,
and the hidden gradient is the same gathered columns scaled by the
residuals. Adam folds its two bias corrections into two scalars, so each
entry takes one division.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

FORMAT_VERSION = 1


class QNetworkParams:
    """Network parameters as views into one contiguous float64 vector.

    ``sizes`` is (input_dim, *hidden_sizes, n_actions). ``flat`` holds each
    trunk layer's weight then bias, then the value weight and bias, then
    the advantage weight and bias, each row-major; the named tensors are
    views into it, so writing either side changes both.
    """

    def __init__(self, sizes, flat: np.ndarray | None = None):
        self.sizes = tuple(int(s) for s in sizes)
        dims, n_actions = self.sizes[:-1], self.sizes[-1]
        shapes = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            shapes += [(fan_in, fan_out), (fan_out,)]
        shapes += [(dims[-1], 1), (1,), (dims[-1], n_actions), (n_actions,)]
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        self.flat = np.zeros(ends[-1]) if flat is None else flat
        pieces = np.split(self.flat, ends[:-1])
        views = [piece.reshape(shape) for piece, shape in zip(pieces, shapes)]
        self.trunk_weights = views[0:-4:2]
        self.trunk_biases = views[1:-4:2]
        self.value_weight, self.value_bias, self.adv_weight, self.adv_bias = views[-4:]

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def n_actions(self) -> int:
        return self.sizes[-1]

    def clone(self) -> "QNetworkParams":
        return QNetworkParams(self.sizes, self.flat.copy())


def init_params(
    input_dim: int,
    hidden_sizes,
    n_actions: int,
    rng: np.random.Generator,
) -> QNetworkParams:
    """Xavier-uniform initialization for the tanh trunk and linear heads."""
    if not hidden_sizes:
        raise DomainError("at least one hidden layer is required")
    params = QNetworkParams((input_dim, *hidden_sizes, n_actions))
    # Draw order (trunk, value head, advantage head) fixes every seeded result.
    for weight in [*params.trunk_weights, params.value_weight, params.adv_weight]:
        limit = np.sqrt(6.0 / sum(weight.shape))
        weight[:] = rng.uniform(-limit, limit, size=weight.shape)
    return params


def _trunk(params: QNetworkParams, x: np.ndarray) -> list[np.ndarray]:
    """Input then each tanh layer's output; bias and tanh work in place."""
    activations = [x]
    h = x
    for w, b in zip(params.trunk_weights, params.trunk_biases):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        activations.append(h)
    return activations


def _forward_full(params: QNetworkParams, x: np.ndarray):
    activations = _trunk(params, x)
    h = activations[-1]
    v = h @ params.value_weight                              # (B, 1)
    v += params.value_bias
    a = h @ params.adv_weight                                # (B, n_actions)
    a += params.adv_bias
    # What a.mean(axis=1) computes: the same sum, then the same division.
    q = v + a
    q -= np.add.reduce(a, axis=1, keepdims=True) / params.n_actions
    return activations, v, a, q


def forward(params: QNetworkParams, encoding: np.ndarray):
    """Value, advantages and combined Q for one encoding or a batch."""
    x = np.asarray(encoding, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != params.input_dim:
        raise DomainError(
            f"encoding width {x.shape[1]} does not match input dim {params.input_dim}"
        )
    _, v, a, q = _forward_full(params, x)
    if single:
        return float(v[0, 0]), a[0], q[0]
    return v[:, 0], a, q


@functools.cache
def _row_offsets(n_actions: int, width: int) -> np.ndarray:
    """Flat index of each row's first cell in a (width, n_actions) matrix."""
    offsets = n_actions * np.arange(width)
    offsets.flags.writeable = False
    return offsets


def backward(
    params: QNetworkParams,
    encodings: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    grads: QNetworkParams | None = None,
):
    """Gradient of the mean squared TD loss; returns (grads, loss).

    Loss = mean over the batch of 0.5 * (Q(s, a) - target)^2. The gradient
    is written into ``grads`` when given: every entry is overwritten, so a
    caller can reuse one buffer across steps. Otherwise a new one is made.
    Each row needs one integer action in [0, n_actions), else DomainError.
    """
    x = np.asarray(encodings, dtype=float)
    acts = np.asarray(actions)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DomainError("batch must be a nonempty 2-D array")
    batch, n_actions = x.shape[0], params.n_actions
    if acts.dtype.kind not in "iu" or acts.shape != (batch,):
        raise DomainError(
            f"need one integer action per batch row, got {acts.dtype} of shape {acts.shape}"
        )
    if acts.min() < 0 or acts.max() >= n_actions:
        raise DomainError(f"actions must lie in [0, {n_actions})")
    if grads is None:
        grads = QNetworkParams(params.sizes)

    # Q(s_i, a_i) = h_i . c_i + beta_i with c_i = adv_weight[:, a_i] +
    # value_weight - mean_j adv_weight[:, j] and beta_i = value_bias +
    # adv_bias[a_i] - mean(adv_bias): a gather of the B taken columns, so
    # no (B, n_actions) product is formed.
    activations = _trunk(params, x)
    h_last = activations[-1]
    shift = params.value_weight[:, 0] - np.add.reduce(params.adv_weight, axis=1) / n_actions
    d_h = params.adv_weight.T[acts]
    d_h += shift
    beta = params.value_bias + params.adv_bias[acts]
    beta -= np.add.reduce(params.adv_bias) / n_actions
    residual = np.einsum("ij,ij->i", h_last, d_h)
    residual += beta
    residual -= y
    loss = 0.5 * float(residual @ residual) / batch

    # dL/dQ is r_i at (i, a_i) and zero elsewhere, with r = residual / B.
    # Through Q = V + A - mean(A) that gives dL/dV_i = r_i and
    # dL/dA[i, j] = r_i ([j = a_i] - 1/n): a rank-one fill of every
    # advantage column plus a scatter into the taken ones.
    r = residual / batch
    np.matmul(h_last.T, r[:, None], out=grads.value_weight)
    grads.value_bias[0] = r.sum()
    grads.adv_weight[...] = grads.value_weight / -n_actions
    grads.adv_bias[...] = grads.value_bias / -n_actions
    # Column a_i of adv_weight gains h_i r_i; in the flat row-major view
    # its cells are k n + a_i. np.add.at sums repeated actions. Both
    # (B, H) operands are temporaries, freed before the trunk gradients.
    np.add.at(
        grads.adv_weight.reshape(-1),
        (acts[:, None] + _row_offsets(n_actions, h_last.shape[1])).reshape(-1),
        (h_last * r[:, None]).reshape(-1),
    )
    np.add.at(grads.adv_bias, acts, r)

    # dL/dh_i = r_i c_i.
    d_h *= r[:, None]
    for layer in reversed(range(len(params.trunk_weights))):
        # tanh' = 1 - h^2, over the activation no later step reads; the
        # layer's input gradient d_pre then takes the place of d_h.
        tanh_grad = activations[layer + 1]
        np.multiply(tanh_grad, tanh_grad, out=tanh_grad)
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        d_pre = d_h
        d_pre *= tanh_grad
        np.matmul(activations[layer].T, d_pre, out=grads.trunk_weights[layer])
        d_pre.sum(axis=0, out=grads.trunk_biases[layer])
        if layer > 0:
            d_h = d_pre @ params.trunk_weights[layer].T
    return grads, loss


def clip_gradients(grads: QNetworkParams, max_norm: float) -> float:
    """Scale all gradients in place to the norm cap; returns the pre-clip norm."""
    norm = float(np.sqrt(grads.flat @ grads.flat))
    if norm > max_norm:
        grads.flat *= max_norm / norm
    return norm


@dataclass(eq=False)
class AdamState:
    first_moment: np.ndarray    # same layout as QNetworkParams.flat
    second_moment: np.ndarray
    step: int = 0

    def clone(self) -> "AdamState":
        return AdamState(self.first_moment.copy(), self.second_moment.copy(), self.step)


def init_adam(params: QNetworkParams) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat))


# Adam updates this many entries at a time, so its temporaries stay small
# instead of each costing a copy of the whole parameter vector.
_ADAM_BLOCK = 1 << 15


def adam_step(
    params: QNetworkParams,
    grads: QNetworkParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> QNetworkParams:
    """Standard Adam update applied in place; returns the params.

    The bias corrections fold into two scalars: with step = lr / (1 - b1^t)
    and root = 1 / sqrt(1 - b2^t), the textbook
    theta -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) becomes
    theta -= step (m / (sqrt(v) root + eps)), one division per entry.
    """
    state.step += 1
    step = lr / (1.0 - beta1**state.step)
    root = 1.0 / math.sqrt(1.0 - beta2**state.step)
    scratch = np.empty(min(_ADAM_BLOCK, params.flat.size))
    denom = np.empty_like(scratch)
    for start in range(0, params.flat.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        theta, grad = params.flat[block], grads.flat[block]
        m, v = state.first_moment[block], state.second_moment[block]
        tmp, den = scratch[: theta.size], denom[: theta.size]
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g.
        m *= beta1
        np.multiply(1.0 - beta1, grad, out=tmp)
        m += tmp
        v *= beta2
        np.multiply(1.0 - beta2, grad, out=tmp)
        tmp *= grad
        v += tmp
        np.sqrt(v, out=den)
        den *= root
        den += eps
        np.divide(m, den, out=tmp)
        tmp *= step
        theta -= tmp
    return params


def _v1_tensors(params: QNetworkParams) -> dict[str, np.ndarray]:
    """The named tensors under their version-1 checkpoint keys."""
    tensors = {}
    for i, (w, b) in enumerate(zip(params.trunk_weights, params.trunk_biases)):
        tensors[f"trunk_w{i}"] = w
        tensors[f"trunk_b{i}"] = b
    tensors.update(
        value_w=params.value_weight, value_b=params.value_bias,
        adv_w=params.adv_weight, adv_b=params.adv_bias,
    )
    return tensors


def save_params(path, params: QNetworkParams) -> None:
    """Checkpoint to a versioned npz tensor list."""
    np.savez(
        path,
        format_version=np.array(FORMAT_VERSION),
        n_trunk_layers=np.array(len(params.trunk_weights)),
        **_v1_tensors(params),
    )


def load_params(path) -> QNetworkParams:
    """Read a ``save_params`` checkpoint. A file that is not an npz without
    pickles, a missing v1 key or another format version is a ConfigError
    naming ``path``; a tensor of the wrong shape is a DomainError."""
    with open(path, "rb") as file:
        try:
            loaded = np.load(file)
            data = dict(loaded) if isinstance(loaded, np.lib.npyio.NpzFile) else None
        except ValueError:
            data = None
    if data is None:
        raise ConfigError(f"checkpoint {path} is not an npz file without pickles")
    try:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ConfigError(f"checkpoint {path} has unsupported format version {version}")
        layers = int(data["n_trunk_layers"])
        widths = [data[f"trunk_w{i}"].shape[1] for i in range(layers)]
        params = QNetworkParams((data["trunk_w0"].shape[0], *widths, data["adv_w"].shape[1]))
        for key, tensor in _v1_tensors(params).items():
            if data[key].shape != tensor.shape:
                raise DomainError(f"checkpoint tensor {key} has shape {data[key].shape}")
            tensor[...] = data[key]
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} has no {exc.args[0]} entry") from None
    return params
