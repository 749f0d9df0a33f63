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

Params are float64, and every product and sum of a step works in
float64; values round to float32 only where they are stored. ``backward``
computes each gradient tensor in float64 and rounds it once into the
caller's buffer, which the agent allocates in float32, at half the
params' bytes. The trunk weight gradients and the advantage-head fill and
scatter are computed at most ``_CHUNK_ROWS`` output rows at a time in
float64 scratch, so no whole float64 copy of them is formed. Without a buffer
``backward`` makes a float64 one, the exact reference that the tests
check. ``clip_gradients`` sums the squared norm in float64 whatever the
buffer's dtype. Adam's two moments are float32, so an agent's optimizer
state takes half its params' bytes too: each block of the update reads
its gradient as float32 (a float64 gradient is cast once), works in
float32, and lands its step on the float64 params. Adam rounds its
gradient to float32 either way, so a float32 buffer changes no step's
bits while the clip does not bind; where it binds, the scaled gradient's
rounding can differ by one float32 ulp. Checkpoints hold the params alone.

Large steps run on two cores, by one rule: ``_halves(fn, n, split)``
calls ``fn(rows, half)``. Unsplit, it calls ``fn(slice(0, n), 0)`` on the
calling thread. Split, the calling thread runs the first half of the rows
and one persistent worker thread the second, and the call returns, or
raises, only after both have finished. Each half writes only its own rows
and works in its own scratch, which ``_scratch`` makes for every half on
the calling thread. The taken-column gather and the advantage-head fill
and scatter (by hidden rows), the clip norm and Adam (by blocks) each
have one body that runs unsplit at desk scale and as halves at paper
width. Three products keep a one-expression whole path beside their split
path: each trunk layer (by batch rows), the trunk weight-gradient product
(by fan-in rows) and the hidden-gradient product (by batch rows). Each is
one numpy call when whole, and routing it through ``_halves`` slowed desk
``backward`` and one-row ``forward``. A step splits only when each half
holds two rows and at least ``_SPLIT_WORK`` multiply-adds, and a product
only when its output width is a multiple of 8. Those rules read the
shapes alone, so results do not depend on the core count; no setting,
flag or environment variable changes them, and no desk-scale call splits.

The split is bit-identical to the whole step. Adam is elementwise, the
scatter adds into each cell in batch order whichever rows it covers, and
the clip norm adds the same two halves' sums whether or not it splits.
Row halves of a product whose output width is a multiple of 8 give the
whole product's bits on OpenBLAS 0.3.31 (SkylakeX kernels); at widths
such as 650 or 700 they differed in a few entries, so those products stay
whole. The tests compare split and whole steps bitwise at the paper's
shapes and at trunk width 700. The 1,101-column advantage-head product of
a batch forward stays whole too: a row split moved 53 of its 281,856
entries, by up to 6e-17 on a freshly initialized network. So do the value
head and single-row forwards. Row chunks of the trunk weight gradient
keep the whole product's bits for the same reason as row halves.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from _queue import SimpleQueue  # queue.SimpleQueue; importing queue costs RSS
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


# A step is split in two only when each half holds at least this many
# multiply-adds (one per entry for Adam and the head-gradient fill and
# scatter). Below it the handoff costs more than the half saves, and
# OpenBLAS runs products of up to 10^6 multiply-adds through small-matrix
# kernels that sum in another order than the whole product.
_SPLIT_WORK = 1 << 20

_worker_lock = threading.Lock()
_worker_jobs: SimpleQueue | None = None


def _forget_worker() -> None:
    # A forked child has no worker thread; it starts its own at its first
    # split. A thread the child does not have may have held the lock at the
    # fork, so the child takes a fresh one.
    global _worker_jobs, _worker_lock
    _worker_jobs = None
    _worker_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _serve(jobs: SimpleQueue) -> None:
    """The worker: run each (fn, rows, done) job as the second half, then
    report on ``done``.

    The job is released before its report, so nothing the job's closure
    holds (a gradient buffer) outlives the call that split it.
    """
    while True:
        fn, rows, done = jobs.get()
        try:
            fn(rows, 1)
            error = None
        except BaseException as exc:    # handed to the caller, which raises it
            error = exc
        fn = rows = None
        done.put(error)
        error = done = None


def _split(n: int, row_work: int) -> bool:
    """Whether a step over n rows of ``row_work`` multiply-adds each runs as
    two halves. A half of one row would run as a matrix-vector product,
    whose sums differ from the matrix product's, so each half needs two."""
    return n >= 4 and n // 2 * row_work >= _SPLIT_WORK


def _split_product(rows: int, inner: int, width: int) -> bool:
    """``_split`` for a (rows x inner) @ (inner x width) product, by rows.
    On OpenBLAS 0.3.31 row halves give the whole product's bits when the
    output width is a multiple of 8, and at other widths they did not."""
    return width % 8 == 0 and _split(rows, inner * width)


def _halves(fn, n: int, split: bool) -> None:
    """Run ``fn(rows, half)`` over n rows, the one way a step reaches the
    worker. Unless ``split``, ``fn(slice(0, n), 0)`` runs on this thread
    alone. Otherwise ``fn(slice(0, n // 2), 0)`` runs on this thread and
    ``fn(slice(n // 2, n), 1)`` on the worker. ``half`` picks that half's
    scratch from ``_scratch``.

    ``fn`` writes only its own rows and calls only numpy, never a public
    function of this package: a tracer that wraps those keeps one call
    stack, which two threads would corrupt. An exception from either half
    is raised after both have stopped.
    """
    if not split:
        fn(slice(0, n), 0)
        return
    global _worker_jobs
    with _worker_lock:
        if _worker_jobs is None:
            _worker_jobs = SimpleQueue()
            threading.Thread(
                target=_serve, args=(_worker_jobs,), name="leodcb-neural-half", daemon=True
            ).start()
    done = SimpleQueue()
    _worker_jobs.put((fn, slice(n // 2, n), done))
    try:
        fn(slice(0, n // 2), 0)
    finally:
        error = done.get()
    if error is not None:
        raise error


def _scratch(split: bool, shape, dtype=np.float64) -> list[np.ndarray]:
    """An empty ``shape`` array for each half that ``_halves`` runs, in the
    order of ``half``. All are made on the calling thread: memory a thread
    frees stays in its own malloc arena, and scratch that the worker made
    for itself raised the paper-width peak RSS by 2.5 to 4 MB instead of
    under 1 MB."""
    # Not a comprehension: on Python 3.11 one costs 0.8 us more per call,
    # and a desk TD step makes three calls.
    scratch = [np.empty(shape, dtype)]
    if split:
        scratch.append(np.empty(shape, dtype))
    return scratch


def _may_split(params: QNetworkParams, rows: int) -> bool:
    # No step of a forward or TD step over ``rows`` can split below this:
    # a half holds at most (rows + 1) / 2 multiply-adds per parameter. One
    # comparison per call spares desk-scale calls every per-step check.
    return rows * params.flat.size >= _SPLIT_WORK


def _trunk(params: QNetworkParams, x: np.ndarray, big: bool) -> list[np.ndarray]:
    """Input then each tanh layer's output; bias and tanh work in place.
    ``big`` is ``_may_split(params, len(x))``."""
    activations = [x]
    h = x
    for w, b in zip(params.trunk_weights, params.trunk_biases):
        if big and _split_product(len(h), *w.shape):
            h = _row_halves(h, w, b)
        else:
            h = h @ w
            h += b
            np.tanh(h, out=h)
        activations.append(h)
    return activations


def _row_halves(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """a @ b as two halves of the rows of a; with ``bias``, the trunk layer
    tanh(a @ b + bias)."""
    out = np.empty((len(a), b.shape[1]))

    def product(rows, half):
        part = out[rows]
        np.matmul(a[rows], b, out=part)
        if bias is not None:
            part += bias
            np.tanh(part, out=part)

    _halves(product, len(a), True)
    return out


def _forward_full(params: QNetworkParams, x: np.ndarray):
    activations = _trunk(params, x, _may_split(params, len(x)))
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


# The most gradient rows computed at a time in float64 scratch before they
# are rounded into the caller's buffer: 128 rows of the paper's 2048-wide
# trunk gradient take 2 MiB of float64, where the whole product takes 32 MiB.
# Chunks of 64 to 256 rows took the same time; below 128 the peak RSS of a
# paper-width step no longer fell.
_CHUNK_ROWS = 128


def _chunks(rows: slice) -> list[slice]:
    """Near-equal chunks of ``rows``, each of at most _CHUNK_ROWS rows and,
    unless there is only one, at least half that many: a short chunk could
    be a one-row product, which sums in another order than the whole."""
    n = rows.stop - rows.start
    count = -(-n // _CHUNK_ROWS)
    return [slice(rows.start + n * i // count, rows.start + n * (i + 1) // count)
            for i in range(count)]


def _store_rows(out: np.ndarray, fill, scratch, rows: slice, half: int) -> None:
    """A ``_halves`` body: compute rows ``rows`` of a gradient tensor in
    float64 chunk by chunk and round each chunk into its rows of ``out``.
    ``fill(chunk, part)`` writes rows ``chunk`` of the tensor to ``part``,
    the first rows of ``scratch[half]``; for an n-row tensor that needs
    min(n, _CHUNK_ROWS) rows."""
    for chunk in _chunks(rows):
        part = scratch[half][: chunk.stop - chunk.start]
        fill(chunk, part)
        out[chunk] = part


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
    caller can reuse one buffer across steps, and each is computed in
    float64 and rounded once to the buffer's dtype (float32 or float64).
    Otherwise a new float64 one is made.
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

    big = _may_split(params, batch)
    activations = _trunk(params, x, big)
    h_last = activations[-1]
    width = h_last.shape[1]
    # The gather and the head gradient split by hidden rows.
    head_split = big and _split(width, n_actions + batch)

    # Q(s_i, a_i) = h_i . c_i + beta_i with c_i = adv_weight[:, a_i] +
    # value_weight - mean_j adv_weight[:, j] and beta_i = value_bias +
    # adv_bias[a_i] - mean(adv_bias): a gather of the B taken columns, so
    # no (B, n_actions) product is formed. Each half writes its own hidden
    # columns of d_h; each hidden row's mean is its own reduction, so halves
    # give the whole's bits.
    d_h = np.empty((batch, width))

    def gather(rows, half):
        weight = params.adv_weight[rows]
        shift = params.value_weight[rows, 0] - np.add.reduce(weight, axis=1) / n_actions
        np.add(weight.T[acts], shift, out=d_h[:, rows])

    _halves(gather, width, head_split)
    beta = params.value_bias + params.adv_bias[acts]
    beta -= np.add.reduce(params.adv_bias) / n_actions
    residual = np.einsum("ij,ij->i", h_last, d_h)
    residual += beta
    residual -= y
    loss = 0.5 * float(residual @ residual) / batch

    # dL/dQ is r_i at (i, a_i) and zero elsewhere, with r = residual / B.
    # Through Q = V + A - mean(A) that gives dL/dV_i = r_i and
    # dL/dA[i, j] = r_i ([j = a_i] - 1/n): a rank-one fill of every
    # advantage column plus a scatter into the taken ones. Both fills
    # read the float64 value gradient, not its copy in ``grads``.
    r = residual / batch
    value_grad = np.matmul(h_last.T, r[:, None])
    value_bias_grad = r.sum()
    grads.value_weight[...] = value_grad
    grads.value_bias[0] = value_bias_grad

    def head_fill(chunk, part):
        # -value_grad / n in every column of hidden rows ``chunk``, then
        # h_ik r_i added to cell (k, a_i) for each batch row i. np.add.at
        # sums repeated actions in batch order, whichever rows it is given,
        # so any split of the rows gives the whole's bits.
        part[...] = value_grad[chunk] / -n_actions
        # In the flat row-major view cell (k, a_i) is k n + a_i.
        index = acts[:, None] + _row_offsets(n_actions, len(part))
        values = h_last[:, chunk] * r[:, None]
        np.add.at(part.reshape(-1), index.reshape(-1), values.reshape(-1))

    scratch = _scratch(head_split, (min(width, _CHUNK_ROWS), n_actions))
    _halves(
        functools.partial(_store_rows, grads.adv_weight, head_fill, scratch), width, head_split
    )
    del scratch
    adv_bias_grad = np.full(n_actions, value_bias_grad / -n_actions)
    np.add.at(adv_bias_grad, acts, r)
    grads.adv_bias[...] = adv_bias_grad

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
        weight, inputs = params.trunk_weights[layer], activations[layer].T
        weight_grad = grads.trunk_weights[layer]
        if big and _split_product(len(weight), batch, weight.shape[1]):
            scratch = _scratch(True, (min(len(weight), _CHUNK_ROWS), weight.shape[1]))
            _halves(
                functools.partial(
                    _store_rows, weight_grad,
                    lambda chunk, part: np.matmul(inputs[chunk], d_pre, out=part), scratch,
                ),
                len(weight), True,
            )
            del scratch
        else:
            weight_grad[...] = inputs @ d_pre
        grads.trunk_biases[layer][...] = d_pre.sum(axis=0)
        if layer == 0:
            break
        if big and _split_product(batch, weight.shape[1], len(weight)):
            d_h = _row_halves(d_pre, weight.T)
        else:
            d_h = d_pre @ weight.T
    return grads, loss


# clip_gradients casts this many entries at a time to float64 for its norm.
_NORM_BLOCK = 1 << 16


def clip_gradients(grads: QNetworkParams, max_norm: float) -> float:
    """Scale all gradients in place to the norm cap; returns the pre-clip norm.

    The squared norm accumulates in float64 whatever the buffer's dtype: a
    float32 dot overflows to inf above a norm of about 1.8e19. The scale
    works in float64 too, and each entry is rounded once when stored.
    """
    flat = grads.flat
    n_blocks = -(-flat.size // _NORM_BLOCK)
    middle = n_blocks // 2 * _NORM_BLOCK
    split = _split(n_blocks, _NORM_BLOCK)
    scratch = _scratch(split, min(_NORM_BLOCK, flat.size))
    # The sums of squares of two halves of the blocks, added in order, on
    # two cores or on one: the norm's bits depend on the size alone. The
    # blocks from ``middle`` on add into the second sum.
    sums = [0.0, 0.0]

    def sum_squares(blocks, half):
        for start in range(blocks.start * _NORM_BLOCK, blocks.stop * _NORM_BLOCK, _NORM_BLOCK):
            block = scratch[half][: min(_NORM_BLOCK, flat.size - start)]
            block[...] = flat[start : start + _NORM_BLOCK]
            sums[start >= middle] += block @ block

    _halves(sum_squares, n_blocks, split)
    norm = math.sqrt(sums[0] + sums[1])
    if norm > max_norm:
        np.multiply(flat, max_norm / norm, out=flat, dtype=np.float64)
    return norm


@dataclass(eq=False)
class AdamState:
    first_moment: np.ndarray    # float32, same layout as QNetworkParams.flat
    second_moment: np.ndarray
    step: int = 0

    def clone(self) -> "AdamState":
        return AdamState(self.first_moment.copy(), self.second_moment.copy(), self.step)


def init_adam(params: QNetworkParams) -> AdamState:
    return AdamState(np.zeros(params.flat.size, np.float32),
                     np.zeros(params.flat.size, np.float32))


# Adam updates this many entries at a time, so its temporaries stay small
# instead of each costing a copy of the whole parameter vector.
_ADAM_BLOCK = 1 << 15
# Adam's moment decay rates and denominator offset, the textbook defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(
    params: QNetworkParams,
    grads: QNetworkParams,
    state: AdamState,
    lr: float,
) -> QNetworkParams:
    """Standard Adam update applied in place; returns the params.

    The bias corrections fold into two scalars: with step = lr / (1 - b1^t)
    and root = 1 / sqrt(1 - b2^t), the textbook
    theta -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) becomes
    theta -= step (m / (sqrt(v) root + eps)), one division per entry.
    The update runs _ADAM_BLOCK entries at a time in float32 scratch. A
    float32 gradient block is read in place and a float64 one is cast to
    float32 once; everything after that is float32 until the step lands on
    the float64 params.
    """
    state.step += 1
    # As float32 scalars, whatever the type of lr, so that the update
    # works in float32: b1, 1 - b1, b2, 1 - b2, step, root, eps.
    beta1, rest1, beta2, rest2, step, root, eps = np.array([
        ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2,
        lr / (1.0 - ADAM_BETA1**state.step), 1.0 / math.sqrt(1.0 - ADAM_BETA2**state.step),
        ADAM_EPS,
    ], np.float32)
    flat, grad_flat, first, second = (
        params.flat, grads.flat, state.first_moment, state.second_moment
    )
    n_blocks = -(-flat.size // _ADAM_BLOCK)
    split = _split(n_blocks, _ADAM_BLOCK)
    scratch = _scratch(split, (2, min(_ADAM_BLOCK, flat.size)), np.float32)

    def update(blocks, half):
        for start in range(blocks.start * _ADAM_BLOCK, blocks.stop * _ADAM_BLOCK, _ADAM_BLOCK):
            block = slice(start, start + _ADAM_BLOCK)
            theta, m, v = flat[block], first[block], second[block]
            # Row 0 of the half's scratch holds the update's temporary, row 1
            # a float64 gradient block cast to float32.
            grad, tmp = grad_flat[block], scratch[half][0, : theta.size]
            if grad.dtype != np.float32:
                grad = scratch[half][1, : theta.size]
                grad[...] = grad_flat[block]
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g.
            m *= beta1
            np.multiply(rest1, grad, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(rest2, grad, out=tmp)
            tmp *= grad
            v += tmp
            np.sqrt(v, out=tmp)
            tmp *= root
            tmp += eps
            np.divide(m, tmp, out=tmp)
            tmp *= step
            theta -= tmp

    _halves(update, n_blocks, split)
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
