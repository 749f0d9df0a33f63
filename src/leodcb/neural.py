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

Params are float64, and every gradient entry is float64 until Adam rounds
it once to float32, after any clip scaling. ``backward`` writes the
gradient into a float64 ``Gradient``. A trunk or advantage weight gradient
of at least ``_FACTORED_ENTRIES`` (2^20) entries is not stored; at paper
width those are the 2048 x 2048 trunk weight and the 2048 x 1101
advantage weight, at desk scale none. ``backward`` hands over each as its
two factors: for a trunk weight the layer input A and the pre-activation
gradient D (the gradient is A^T D), for the advantage weight the last
hidden layer h and the residuals r at the taken actions a.
``clip_gradients`` adds each one's squared norm from two B x B Gram
matrices, sum (A A^T) o (D D^T) and sum (h h^T) o (r r^T o ([a_i = a_j] -
1/n)), to the stored entries' float64 dot, and ``adam_step`` forms the
tensor at most ``_CHUNK_ROWS`` rows at a time in float64 scratch. Adam's
two moments are float32, so an agent's optimizer state takes half its
params' bytes: each block of the update rounds its float64 gradient
entries once to float32, works in float32, and lands its step on the
float64 params. Checkpoints hold the params alone.

Large steps run on two cores, by one rule: ``_halves(fn, n, split)``
calls ``fn(rows, half)``. Unsplit, it calls ``fn(slice(0, n), 0)`` on
the calling thread. Split, the calling thread runs the first half of the
rows and one persistent worker thread the second, and the call returns,
or raises, only after both have finished. Each half writes only its own
rows and works in its own scratch, which ``_scratch`` makes for every
half on the calling thread. The taken-column gather (by hidden rows),
the clip's Gram matrices (one whole product each) and Adam's forming of
a factored gradient (by row chunks) each have one body that runs unsplit
at desk scale and as halves at paper width. Two products keep a
one-expression whole path beside their split path: each trunk layer and
the hidden-gradient product, both by batch rows. Each is one numpy call
when whole, and routing it through ``_halves`` slowed desk ``backward``
and one-row ``forward``. A stored weight gradient is one whole product.
A step splits only when each half holds two rows and at least
``_SPLIT_WORK`` multiply-adds, and a product only when its output width
is a multiple of 8. Those rules read the shapes alone, so results do not
depend on the core count; no setting, flag or environment variable
changes them, and no desk-scale call splits.

The split is bit-identical to the whole step. Adam is elementwise, the
scatter adds into each cell in batch order whichever rows it covers, the
clip norm never splits but for its Gram matrices, each one whole
product, and a factored gradient is formed in the same row chunks either
way. Row halves of a product whose output width is a multiple of 8 give
the whole product's bits on OpenBLAS 0.3.31 (SkylakeX kernels); at
widths such as 650 or 700 they differed in a few entries, so those
products stay whole. The tests compare split and whole steps bitwise at
the paper's shapes and at trunk width 700. The 1,101-column
advantage-head product of a batch forward stays whole too: a row split
moved 53 of its 281,856 entries, by up to 6e-17 on a freshly initialized
network. So do the value head and single-row forwards. Row chunks of the
2048-wide trunk weight gradient keep the whole product's bits for the
same reason as row halves.
"""

from __future__ import annotations

import math
import os
import threading
from _queue import SimpleQueue  # queue.SimpleQueue; importing queue costs RSS
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

FORMAT_VERSION = 1


def _shapes(sizes) -> list[tuple]:
    """Each tensor's shape in layout order: each trunk layer's weight then
    bias, then the value weight and bias, then the advantage weight and
    bias."""
    dims, n_actions = sizes[:-1], sizes[-1]
    shapes = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    return shapes + [(dims[-1], 1), (1,), (dims[-1], n_actions), (n_actions,)]


def _name(holder, tensors: list) -> None:
    """Bind ``tensors``, in layout order, to their names on ``holder``."""
    holder.trunk_weights = tensors[0:-4:2]
    holder.trunk_biases = tensors[1:-4:2]
    holder.value_weight, holder.value_bias, holder.adv_weight, holder.adv_bias = tensors[-4:]


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [piece.reshape(shape) for piece, shape in zip(np.split(flat, ends[:-1]), shapes)]


class QNetworkParams:
    """Network parameters as views into one contiguous float64 vector.

    ``sizes`` is (input_dim, *hidden_sizes, n_actions). ``flat`` holds each
    trunk layer's weight then bias, then the value weight and bias, then
    the advantage weight and bias, each row-major; the named tensors are
    views into it, so writing either side changes both. A copy or a pickle
    rebuilds the views over its own copy of ``flat``.
    """

    def __init__(self, sizes, flat: np.ndarray | None = None):
        self.sizes = tuple(int(s) for s in sizes)
        shapes = _shapes(self.sizes)
        self.flat = np.zeros(sum(map(math.prod, shapes))) if flat is None else flat
        _name(self, _views(self.flat, shapes))

    def __reduce__(self):
        return QNetworkParams, (self.sizes, self.flat)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def n_actions(self) -> int:
        return self.sizes[-1]

    def clone(self) -> "QNetworkParams":
        return QNetworkParams(self.sizes, self.flat.copy())


# A trunk or advantage weight gradient of at least this many entries is not
# stored (see Gradient): at paper width the 2048 x 2048 trunk weight and the
# 2048 x 1101 advantage weight, at desk scale none.
_FACTORED_ENTRIES = 1 << 20


@dataclass(eq=False)
class _Factored:
    """A weight gradient that ``Gradient`` does not store.

    ``backward`` sets ``factors`` at each step. ``rows(*factors, chunk,
    out)`` writes rows ``chunk`` of the gradient in float64 to ``out``.
    ``squared_norm(grams, *factors)`` is its squared norm, where ``grams``
    holds m @ m.T for each of the first ``n_grams`` factors. ``start`` is
    the tensor's offset in the params' flat vector.
    """

    start: int
    shape: tuple
    rows: object
    squared_norm: object
    n_grams: int
    factors: tuple = ()


class Gradient:
    """The float64 gradient of a TD step, in the layout of ``QNetworkParams``.

    A trunk or advantage weight gradient of at least ``_FACTORED_ENTRIES``
    entries is not stored: its name holds a ``_Factored``, to which
    ``backward`` hands the gradient's two factors. Every other tensor is a
    view into ``flat``, which holds them in layout order. ``runs`` lists
    each run of adjacent stored tensors as (its offset in the params' flat
    vector, its entries as a view into ``flat``). ``factored`` lists the
    ``_Factored`` in layout order. ``scale`` is the clip's factor, which
    ``adam_step`` applies to a factored gradient as it forms it;
    ``backward`` sets it to 1.
    """

    def __init__(self, sizes):
        self.sizes = tuple(int(s) for s in sizes)
        shapes = _shapes(self.sizes)
        head = len(shapes) - 2
        kinds = {i: (_product_rows, _product_squared_norm, 2) for i in range(0, head - 2, 2)}
        kinds[head] = (_head_rows, _head_squared_norm, 1)
        tensors, stored, runs, self.factored = [], [], [], []
        start = 0
        for i, shape in enumerate(shapes):
            size = math.prod(shape)
            if i in kinds and size >= _FACTORED_ENTRIES:
                tensors.append(_Factored(start, shape, *kinds[i]))
                self.factored.append(tensors[-1])
            else:
                tensors.append(None)
                stored.append(shape)
                # [offset in the params, size] of each run.
                if runs and sum(runs[-1]) == start:
                    runs[-1][1] += size
                else:
                    runs.append([start, size])
            start += size
        self.flat = np.zeros(sum(size for _, size in runs))
        pieces = _views(self.flat, [(size,) for _, size in runs])
        self.runs = [(first, piece) for (first, _), piece in zip(runs, pieces)]
        views = iter(_views(self.flat, stored))
        _name(self, [next(views) if tensor is None else tensor for tensor in tensors])
        self.scale = 1.0


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
        # What rng.uniform(-limit, limit) computes, -limit + 2 limit u from
        # the same draws, but in place: a whole-tensor temporary freed here
        # raised glibc's mmap threshold to its size (18 MB at paper width),
        # and the heap then kept every later step's scratch resident.
        rng.random(out=weight)
        weight *= limit - -limit
        weight += -limit
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
    return [np.empty(shape, dtype) for _ in range(1 + split)]


def _may_split(params: QNetworkParams, rows: int) -> bool:
    # No step of a forward or TD step over ``rows`` can split below this:
    # a half holds at most (rows + 1) / 2 multiply-adds per parameter. One
    # comparison per call spares desk-scale calls every per-step check.
    return rows * params.flat.size >= _SPLIT_WORK


def _trunk(params: QNetworkParams, x: np.ndarray, big: bool, activations=None) -> np.ndarray:
    """The last tanh layer's output; bias and tanh work in place. ``big``
    is ``_may_split(params, len(x))``. Each layer's output is appended to
    ``activations`` when given; otherwise only the layer being computed and
    its input are held."""
    h = x
    for w, b in zip(params.trunk_weights, params.trunk_biases):
        if big and _split_product(len(h), *w.shape):
            h = _row_halves(h, w, b)
        else:
            h = h @ w
            h += b
            np.tanh(h, out=h)
        if activations is not None:
            activations.append(h)
    return h


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


def forward(params: QNetworkParams, encodings: np.ndarray) -> np.ndarray:
    """The (rows, n_actions) Q of a (rows, input_dim) batch, such as one state's
    ``state_encodings[s : s + 1]``; another shape is a DomainError naming it."""
    x = np.asarray(encodings, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DomainError(f"encodings of shape {x.shape} are not (rows, {params.input_dim})")
    h = _trunk(params, x, _may_split(params, len(x)))
    v = h @ params.value_weight                              # (rows, 1)
    v += params.value_bias
    q = h @ params.adv_weight                                # A, then Q in place
    q += params.adv_bias
    # What A.mean(axis=1) computes: the same sum, then the same division.
    mean = np.add.reduce(q, axis=1, keepdims=True) / params.n_actions
    q += v
    q -= mean
    return q


# The most rows of a factored gradient that adam_step forms at a time in
# float64 scratch: 128 rows of the paper's 2048-wide trunk gradient take 2
# MiB of float64, where the whole product takes 32 MiB. Chunks of 64 to 256
# rows took the same time; below 128 the peak RSS of a paper-width step no
# longer fell.
_CHUNK_ROWS = 128


def _chunks(rows: slice) -> list[slice]:
    """Near-equal chunks of ``rows``, each of at most _CHUNK_ROWS rows and,
    unless there is only one, at least half that many: a short chunk could
    be a one-row product, which sums in another order than the whole."""
    n = rows.stop - rows.start
    count = -(-n // _CHUNK_ROWS)
    return [slice(rows.start + n * i // count, rows.start + n * (i + 1) // count)
            for i in range(count)]


def _product_rows(a: np.ndarray, d: np.ndarray, chunk: slice, out: np.ndarray) -> None:
    """Rows ``chunk`` of a.T @ d, the weight gradient of a trunk layer with
    input a and pre-activation gradient d. On OpenBLAS 0.3.31 row chunks of
    a product whose width is a multiple of 8 give the whole product's bits."""
    np.matmul(a.T[chunk], d, out=out)


def _product_squared_norm(grams, a: np.ndarray, d: np.ndarray) -> float:
    # |a.T d|^2 = sum over i, j of (a a.T)_ij (d d.T)_ij: two B x B Gram
    # matrices in place of a pass over the fan_in x fan_out gradient.
    return float(np.vdot(*grams))


def _head_rows(h, r, acts, value_grad, n_actions, chunk: slice, out: np.ndarray) -> None:
    """Rows ``chunk`` of the advantage-weight gradient: -value_grad / n in
    every column, then h_ik r_i added to cell (k, a_i) for each batch row i.
    np.add.at sums repeated actions in batch order, whichever rows it is
    given, so any chunking of the rows gives the whole's bits."""
    out[...] = value_grad[chunk] / -n_actions
    # In the flat row-major view cell (k, a_i) is k n + a_i.
    index = acts[:, None] + n_actions * np.arange(len(out))
    values = h[:, chunk] * r[:, None]
    np.add.at(out.reshape(-1), index.reshape(-1), values.reshape(-1))


def _head_squared_norm(grams, h, r, acts, value_grad, n_actions) -> float:
    # The gradient is sum_i h_i (x) r_i c_i with c_ij = [j = a_i] - 1/n,
    # and c_i . c_l = [a_i = a_l] - 1/n: so its squared norm is
    # sum over i, l of (h h.T)_il r_i r_l ([a_i = a_l] - 1/n).
    weights = np.equal.outer(acts, acts) - 1.0 / n_actions
    weights *= r[:, None]
    weights *= r
    return float(np.vdot(grams[0], weights))


def backward(
    params: QNetworkParams,
    encodings: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    grads: Gradient | None = None,
):
    """Gradient of the mean squared TD loss; returns (grads, loss).

    Loss = mean over the batch of 0.5 * (Q(s, a) - target)^2. The gradient
    is written into ``grads`` when given, so a caller can reuse one across
    steps: every stored entry is overwritten, and every factored tensor
    gets this step's factors, which the gradient holds until the next call.
    Otherwise a new one is made.
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
        grads = Gradient(params.sizes)

    big = _may_split(params, batch)
    activations = [x]
    h_last = _trunk(params, x, big, activations)
    width = h_last.shape[1]

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

    _halves(gather, width, big and _split(width, n_actions + batch))
    beta = params.value_bias + params.adv_bias[acts]
    beta -= np.add.reduce(params.adv_bias) / n_actions
    residual = np.einsum("ij,ij->i", h_last, d_h)
    residual += beta
    residual -= y
    loss = 0.5 * float(residual @ residual) / batch

    # dL/dQ is r_i at (i, a_i) and zero elsewhere, with r = residual / B.
    # Through Q = V + A - mean(A) that gives dL/dV_i = r_i and
    # dL/dA[i, j] = r_i ([j = a_i] - 1/n): a rank-one fill of every
    # advantage column plus a scatter into the taken ones. Both read the
    # value gradient, not its copy in ``grads``, which the clip may scale
    # before a factored head is formed.
    r = residual / batch
    value_grad = np.matmul(h_last.T, r[:, None])
    value_bias_grad = r.sum()
    grads.value_weight[...] = value_grad
    grads.value_bias[0] = value_bias_grad
    grads.scale = 1.0
    head = (h_last, r, acts, value_grad, n_actions)
    if isinstance(grads.adv_weight, _Factored):
        grads.adv_weight.factors = head
    else:
        _head_rows(*head, slice(0, width), grads.adv_weight)
    grads.adv_bias.fill(value_bias_grad / -n_actions)
    np.add.at(grads.adv_bias, acts, r)

    # dL/dh_i = r_i c_i.
    d_h *= r[:, None]
    # kept[k]: activations[k] is a factor (the input of a factored trunk
    # weight k, or for the last one the factored head's h).
    kept = [isinstance(slot, _Factored) for slot in (*grads.trunk_weights, grads.adv_weight)]
    for layer in reversed(range(len(params.trunk_weights))):
        # tanh' = 1 - h^2, over the activation unless it is a factor; the
        # layer's input gradient d_pre then takes the place of d_h.
        h = activations[layer + 1]
        tanh_grad = np.multiply(h, h, out=None if kept[layer + 1] else h)
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        d_pre = d_h
        d_pre *= tanh_grad
        del tanh_grad
        weight, weight_grad = params.trunk_weights[layer], grads.trunk_weights[layer]
        if kept[layer]:
            weight_grad.factors = (activations[layer], d_pre)
        else:
            np.matmul(activations[layer].T, d_pre, out=weight_grad)
        d_pre.sum(axis=0, out=grads.trunk_biases[layer])
        if layer == 0:
            break
        if big and _split_product(batch, weight.shape[1], len(weight)):
            d_h = _row_halves(d_pre, weight.T)
        else:
            d_h = d_pre @ weight.T
    return grads, loss


def _factored_squared_norm(grads: Gradient) -> float:
    """The squared norm of the factored tensors, added in layout order.
    Each Gram matrix is one whole product, on whichever thread runs it: at
    paper width three of them, one on the calling thread and two on the
    worker."""
    mats = [m for slot in grads.factored for m in slot.factors[: slot.n_grams]]
    grams = [None] * len(mats)

    def gram(items, half):
        for i in range(items.start, items.stop):
            grams[i] = mats[i] @ mats[i].T

    _halves(gram, len(mats), len(mats) > 1 and len(mats[0]) * mats[0].size >= _SPLIT_WORK)
    total, at = 0.0, 0
    for slot in grads.factored:
        total += slot.squared_norm(grams[at : at + slot.n_grams], *slot.factors) * grads.scale**2
        at += slot.n_grams
    return total


def clip_gradients(grads: Gradient, max_norm: float) -> float:
    """Scale the gradient to the norm cap; returns the pre-clip norm.

    The stored entries' squared norm is one float64 dot; each factored
    tensor adds its squared norm from its factors. A binding clip scales
    the stored entries in place and multiplies ``grads.scale``, which
    adam_step applies to each factored tensor as it forms it.
    """
    flat = grads.flat
    total = flat @ flat
    if grads.factored:
        total += _factored_squared_norm(grads)
    norm = math.sqrt(total)
    if norm > max_norm:
        flat *= max_norm / norm
        grads.scale *= max_norm / norm
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


# Adam updates this many stored entries at a time, so its temporaries stay
# small instead of each costing a copy of the whole parameter vector.
_ADAM_BLOCK = 1 << 15
# Adam's moment decay rates and denominator offset, the textbook defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(
    params: QNetworkParams,
    grads: Gradient,
    state: AdamState,
    lr: float,
) -> None:
    """Standard Adam update, applied to ``params`` and ``state`` in place.

    The bias corrections fold into two scalars: with step = lr / (1 - b1^t)
    and root = 1 / sqrt(1 - b2^t), the textbook
    theta -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) becomes
    theta -= step (m / (sqrt(v) root + eps)), one division per entry.
    Each block of at most _ADAM_BLOCK float64 gradient entries is rounded
    once to float32, and the update works in float32 until the step lands
    on the float64 params. A factored gradient is formed _CHUNK_ROWS rows at
    a time in float64 scratch and scaled there by ``grads.scale`` if the
    clip bound, so every entry is scaled before it is rounded.
    """
    state.step += 1
    # As float32 scalars, whatever the type of lr, so that the update
    # works in float32: b1, 1 - b1, b2, 1 - b2, step, root, eps.
    beta1, rest1, beta2, rest2, step, root, eps = np.array([
        ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2,
        lr / (1.0 - ADAM_BETA1**state.step), 1.0 / math.sqrt(1.0 - ADAM_BETA2**state.step),
        ADAM_EPS,
    ], np.float32)
    flat, first, second = params.flat, state.first_moment, state.second_moment

    def update(start: int, gradient: np.ndarray, scratch: np.ndarray) -> None:
        # The params from entry ``start`` on take the float64 ``gradient``,
        # one block at a time so that the update's arrays stay cache-sized.
        # Row 1 of the float32 ``scratch`` holds the block rounded, row 0
        # the update's temporary.
        for at in range(0, gradient.size, _ADAM_BLOCK):
            g = scratch[1, : min(_ADAM_BLOCK, gradient.size - at)]
            g[...] = gradient[at : at + _ADAM_BLOCK]
            tmp = scratch[0, : g.size]
            entries = slice(start + at, start + at + g.size)
            theta, m, v = flat[entries], first[entries], second[entries]
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g.
            m *= beta1
            np.multiply(rest1, g, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(rest2, g, out=tmp)
            tmp *= g
            v += tmp
            np.sqrt(v, out=tmp)
            tmp *= root
            tmp += eps
            np.divide(m, tmp, out=tmp)
            tmp *= step
            theta -= tmp

    scratch = np.empty((2, min(_ADAM_BLOCK, grads.flat.size)), np.float32)
    for start, run in grads.runs:
        update(start, run, scratch)

    for slot in grads.factored:
        cols = slot.shape[1]
        chunks = _chunks(slice(0, slot.shape[0]))
        rows = -(-slot.shape[0] // len(chunks))
        split = _split(len(chunks), rows * cols)
        parts = _scratch(split, (rows, cols))
        blocks = _scratch(split, (2, _ADAM_BLOCK), np.float32)

        def update_chunks(indices, half):
            for chunk in chunks[indices]:
                part = parts[half][: chunk.stop - chunk.start]
                slot.rows(*slot.factors, chunk, part)
                if grads.scale != 1.0:
                    part *= grads.scale
                update(slot.start + chunk.start * cols, part.reshape(-1), blocks[half])

        # The chunks come from the whole tensor's rows, so a split runs the
        # same products as the whole.
        _halves(update_chunks, len(chunks), split)
        del parts, blocks    # freed before the next tensor's are made


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
    pickles, or one whose entries do not make a version-1 checkpoint, is a
    ConfigError naming ``path`` and, for the latter, the entry: a missing
    key, a format version or trunk layer count that is not one integer,
    another format version, no trunk layer, or a tensor of the wrong shape
    or of no real number type."""
    with open(path, "rb") as file:
        try:
            loaded = np.load(file)
            data = dict(loaded) if isinstance(loaded, np.lib.npyio.NpzFile) else None
        except ValueError:
            data = None
    if data is None:
        raise ConfigError(f"checkpoint {path} is not an npz file without pickles")
    try:
        for key in ("format_version", "n_trunk_layers"):
            if data[key].shape != () or data[key].dtype.kind not in "iu":
                raise ConfigError(f"checkpoint {path} entry {key} is not one integer")
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ConfigError(f"checkpoint {path} has unsupported format version {version}")
        layers = int(data["n_trunk_layers"])
        if layers < 1:
            raise ConfigError(f"checkpoint {path} entry n_trunk_layers is {layers}, not >= 1")
        weights = [f"trunk_w{i}" for i in range(layers)] + ["adv_w"]
        for key in weights:
            if data[key].ndim != 2:
                raise ConfigError(
                    f"checkpoint {path} entry {key} has shape {data[key].shape}, not (rows, columns)"
                )
        sizes = (data["trunk_w0"].shape[0], *(data[key].shape[1] for key in weights))
        params = QNetworkParams(sizes)
        for key, tensor in _v1_tensors(params).items():
            if data[key].shape != tensor.shape:
                raise ConfigError(
                    f"checkpoint {path} entry {key} has shape {data[key].shape}, not {tensor.shape}"
                )
            if data[key].dtype.kind not in "fiu":
                raise ConfigError(f"checkpoint {path} entry {key} holds {data[key].dtype}, not numbers")
            tensor[...] = data[key]
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} has no {exc.args[0]} entry") from None
    return params
