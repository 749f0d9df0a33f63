"""Two-core halves of the large network steps (``neural._halves``).

Every split step must give the whole step's bits. The private threshold
``neural._SPLIT_WORK`` is patched to 0 to force every eligible step to
split, and to a huge value to keep every step whole.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from leodcb import neural
from leodcb.agent import MAX_GRAD_NORM, AgentConfig, EnhancedD3qnAgent, target_table
from leodcb.env import DcbUplinkEnv
from leodcb.scenario import desk_scenario

SPLIT, WHOLE = 0, 1 << 62

# The paper's network: (2048, 2048) trunk, 1,101 actions over 110 satellites.
PAPER_HIDDEN, PAPER_ACTIONS, PAPER_SATELLITES = (2048, 2048), 1101, 110


@pytest.fixture
def under(monkeypatch):
    """under(work, fn, *args) runs fn with the split threshold set to work."""
    def run(work, fn, *args):
        monkeypatch.setattr(neural, "_SPLIT_WORK", work)
        return fn(*args)
    return run


@pytest.fixture(scope="module")
def paper_params():
    return neural.init_params(2, PAPER_HIDDEN, PAPER_ACTIONS, np.random.default_rng(18))


def adam_update(params, grads):
    """One Adam step from a state with nonzero moments; returns the
    updated params, first moment and second moment."""
    theta = params.clone()
    state = neural.init_adam(theta)
    state.first_moment[:] = grads.flat
    state.second_moment[:] = 0.5 * grads.flat**2
    state.step = 3
    neural.adam_step(theta, grads, state, lr=1e-3)
    return theta.flat, state.first_moment, state.second_moment


def assert_td_step_equals_whole(under, params, rng, batch):
    """Forward, backward and Adam forced to split give the whole step's bits;
    returns the gradient."""
    x = rng.random((batch, 2))
    actions = rng.integers(params.n_actions, size=batch)
    targets = rng.normal(size=batch)
    q_split = under(SPLIT, neural.forward, params, x)[2]
    q_whole = under(WHOLE, neural.forward, params, x)[2]
    assert np.array_equal(q_split, q_whole)

    grads_split, loss_split = under(SPLIT, neural.backward, params, x, actions, targets)
    grads, loss = under(WHOLE, neural.backward, params, x, actions, targets)
    assert loss_split == loss
    assert np.array_equal(grads_split.flat, grads.flat)
    del grads_split
    norm = under(SPLIT, neural.clip_gradients, grads, np.inf)
    assert under(WHOLE, neural.clip_gradients, grads, np.inf) == norm

    for got, want in zip(
        under(SPLIT, adam_update, params, grads), under(WHOLE, adam_update, params, grads)
    ):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("batch", [256, 255])
def test_paper_shape_steps_equal_whole_steps_bitwise(under, paper_params, batch):
    rng = np.random.default_rng(batch)
    # At the real threshold the trunk products, the head gradient and Adam split.
    width = PAPER_HIDDEN[-1]
    assert neural._split_product(batch, width, width)
    assert neural._split_product(width, batch, width)
    assert neural._split(width, PAPER_ACTIONS + batch)
    assert neural._split(paper_params.flat.size // neural._ADAM_BLOCK, neural._ADAM_BLOCK)
    assert_td_step_equals_whole(under, paper_params, rng, batch)

    # Three chunks of the batch size, the last one partial.
    encodings = rng.random((2 * batch + 88, 2))
    table_split = under(SPLIT, target_table, paper_params, encodings, PAPER_SATELLITES, batch)
    table = under(WHOLE, target_table, paper_params, encodings, PAPER_SATELLITES, batch)
    assert np.array_equal(table_split, table)


@pytest.mark.parametrize(
    ("hidden", "n_actions", "batch"),
    [(PAPER_HIDDEN, PAPER_ACTIONS, 256), (PAPER_HIDDEN, PAPER_ACTIONS, 255), ((64, 64), 121, 64)],
)
def test_float32_buffer_holds_the_whole_float64_gradient_rounded(under, hidden, n_actions, batch):
    # At the real threshold a paper-shape step splits and computes the
    # trunk and head gradients in float64 row chunks; each float32 entry
    # is the rounding of the whole, unsplit float64 gradient's entry.
    rng = np.random.default_rng(batch)
    params = neural.init_params(2, hidden, n_actions, rng)
    x = rng.random((batch, 2))
    actions = rng.integers(n_actions, size=batch)
    targets = rng.normal(size=batch)
    width = hidden[-1]
    if hidden == PAPER_HIDDEN:
        assert neural._split_product(width, batch, width)
        assert len(neural._chunks(slice(0, width // 2))) > 1
    buffer = neural.QNetworkParams(params.sizes, np.full(params.flat.size, np.nan, np.float32))
    grads, buffer_loss = neural.backward(params, x, actions, targets, buffer)
    whole, loss = under(WHOLE, neural.backward, params, x, actions, targets)
    assert grads is buffer and buffer_loss == loss
    assert np.array_equal(buffer.flat, whole.flat.astype(np.float32))


def test_width_700_steps_equal_whole_steps_bitwise(under):
    # Row halves of a 700-column product sum in another order than the
    # whole product, so its products stay whole at any threshold; the head
    # gradient and Adam still split.
    rng = np.random.default_rng(700)
    params = neural.init_params(2, (700, 700), PAPER_ACTIONS, rng)
    batch = 256
    assert neural._split(batch, 700 * 700) and not neural._split_product(batch, 700, 700)
    assert_td_step_equals_whole(under, params, rng, batch)


def test_chunks_of_fewer_than_128_rows_equal_whole_steps_bitwise(under):
    # Each 200-row fan-in half of the trunk weight gradient is computed in
    # two 100-row chunks.
    rng = np.random.default_rng(400)
    params = neural.init_params(2, (400, 400), PAPER_ACTIONS, rng)
    assert [c.stop - c.start for c in neural._chunks(slice(200, 400))] == [100, 100]
    assert_td_step_equals_whole(under, params, rng, 64)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_few_row_forwards_equal_whole_forwards_bitwise(under, paper_params, rows):
    # Halves of one row would be matrix-vector products, which sum in
    # another order; so fewer than four rows never split.
    x = np.random.default_rng(rows).random((rows, 2))
    q_split = under(SPLIT, neural.forward, paper_params, x)[2]
    assert np.array_equal(q_split, under(WHOLE, neural.forward, paper_params, x)[2])


def test_adam_odd_block_count_with_partial_last_block(under):
    rng = np.random.default_rng(19)
    params = neural.init_params(2, (400,), 500, rng)
    n_blocks = -(-params.flat.size // neural._ADAM_BLOCK)
    assert n_blocks % 2 == 1 and params.flat.size % neural._ADAM_BLOCK != 0
    grads = neural.QNetworkParams(params.sizes, rng.normal(size=params.flat.size))
    for got, want in zip(
        under(SPLIT, adam_update, params, grads), under(WHOLE, adam_update, params, grads)
    ):
        assert np.array_equal(got, want)


def wide_agent(hidden=(512, 512)):
    env = DcbUplinkEnv(desk_scenario())
    config = AgentConfig(
        epsilon_decay_iters=10, replay_capacity=500, batch_size=64,
        target_sync_period=5, grad_steps_per_iteration=3, hidden_sizes=hidden,
    )
    agent = EnhancedD3qnAgent.create(config, env.n_actions, np.random.default_rng(20))
    for _ in range(3):
        agent.collect_episode(env)
    return agent, env


def test_wide_agent_trains_to_the_same_bits(under):
    weight = np.array([0.5, 0.3, 0.2])
    runs = []
    for work in (SPLIT, WHOLE):
        agent, env = wide_agent()
        for _ in range(2):
            under(work, agent.train_iteration, env, weight)
        runs.append(agent)
    split, whole = runs
    assert split.adam.step == whole.adam.step == 6
    assert split.last_loss == whole.last_loss
    assert np.array_equal(split.params.flat, whole.params.flat)
    assert np.array_equal(split.adam.first_moment, whole.adam.first_moment)
    assert np.array_equal(split.adam.second_moment, whole.adam.second_moment)
    assert np.array_equal(split.target_q, whole.target_q)


def test_gradient_buffer_is_freed_when_train_iteration_returns(under, monkeypatch):
    # The worker must drop each finished job: a job kept until the next one
    # arrives holds Adam's closure, and with it the gradient buffer.
    agent, env = wide_agent()
    buffers, layouts = [], set()
    backward = neural.backward

    def recording_backward(params, encodings, actions, targets, grads):
        buffers.append(weakref.ref(grads.flat))
        layouts.add((grads.flat.dtype, grads.flat.nbytes))
        return backward(params, encodings, actions, targets, grads)

    monkeypatch.setattr(neural, "backward", recording_backward)
    under(SPLIT, agent.train_iteration, env, np.full(3, 1 / 3))
    assert agent.adam.step == 3
    assert buffers and all(ref() is None for ref in buffers)
    # One float32 buffer, half the bytes of the float64 params.
    assert layouts == {(np.dtype(np.float32), agent.params.flat.nbytes // 2)}


def run_halves_in_thread(fn, n):
    """neural._halves(fn, n, True) on a helper thread; returns what it raised."""
    raised = []

    def call():
        try:
            neural._halves(fn, n, True)
        except Exception as exc:
            raised.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    return raised


@pytest.mark.parametrize("failing_half", [0, 1])
def test_error_in_either_half_waits_for_the_other(failing_half):
    finished = []

    def fn(rows, half):
        if half == failing_half:
            raise ValueError(f"half {half}")
        time.sleep(0.2)
        finished.append(half)

    raised = run_halves_in_thread(fn, 8)
    assert [str(exc) for exc in raised] == [f"half {failing_half}"]
    assert finished == [1 - failing_half]

    filled = np.zeros(8)

    def fill(rows, half):
        filled[rows] = 10 * half + rows.start + 1

    assert run_halves_in_thread(fill, 8) == []
    assert filled.tolist() == [1, 1, 1, 1, 15, 15, 15, 15]


def test_unsplit_halves_run_whole_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(neural, "_worker_jobs", None)
    threads = threading.active_count()
    calls = []
    neural._halves(lambda rows, half: calls.append((rows, half, threading.get_ident())), 8, False)
    assert calls == [(slice(0, 8), 0, threading.get_ident())]
    assert threading.active_count() == threads
    assert neural._worker_jobs is None


def test_desk_width_training_starts_no_thread(monkeypatch):
    monkeypatch.setattr(neural, "_worker_jobs", None)
    agent, env = wide_agent(hidden=(64, 64))
    threads = threading.active_count()
    agent.train_iteration(env, np.full(3, 1 / 3))
    assert agent.adam.step == 3
    assert threading.active_count() == threads
    assert neural._worker_jobs is None


def test_worker_calls_no_public_package_function(under, monkeypatch):
    # A tracer that wraps the package's public functions keeps one call
    # stack; a wrapped call on the worker thread would corrupt it.
    monkeypatch.setattr(neural, "_worker_jobs", None)    # a fresh, profiled worker
    called = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("leodcb"):
            called.add((module, frame.f_code.co_name))

    threading.setprofile(profile)
    try:
        agent, env = wide_agent()
        under(SPLIT, agent.train_iteration, env, np.full(3, 1 / 3))
    finally:
        threading.setprofile(None)
    public = {
        (module, name) for module, name in called
        if not name.startswith("_") and hasattr(sys.modules[module], name)
    }
    assert called and not public


def test_paper_shape_td_step_traced_peak(paper_params):
    # One split TD step at paper shapes, into a float32 buffer, forms no
    # whole float64 gradient tensor and no copy of the head weight: its
    # traced peak read 16.0 to 16.3 MiB above its start, the four
    # (256, 2048) float64 activations and hidden gradients of the trunk's
    # backward. A gather that copied each half's transposed head weight to
    # C order read 33.2 MiB. The bound leaves 1.7 MiB for numpy temporaries.
    rng = np.random.default_rng(28)
    batch = 256
    params = paper_params.clone()
    state = neural.init_adam(params)
    grads = neural.QNetworkParams(params.sizes, np.empty(params.flat.size, np.float32))
    x = rng.random((batch, 2))
    actions = rng.integers(PAPER_ACTIONS, size=batch)
    targets = rng.normal(size=batch)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        neural.backward(params, x, actions, targets, grads)
        neural.clip_gradients(grads, MAX_GRAD_NORM)
        neural.adam_step(params, grads, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20


# The head of a script that a fork test runs in a fresh interpreter. A fork
# in the test process would copy pytest's threads, and under Python 3.12 it
# warns that the process has threads, which ``filterwarnings = error``
# turns into a failure. ``in_child(check)`` forks, runs ``check`` in the
# child, which SIGALRM ends after 5 s if it hangs, and prints the child's
# exit code.
FORK_SCRIPT = """
import os, signal, sys, threading, traceback
import numpy as np
from leodcb import neural

def in_child(check):
    pid = os.fork()
    if pid == 0:
        signal.alarm(5)
        try:
            check()
            code = 0
        except BaseException:
            traceback.print_exc()
            code = 1
        sys.stderr.flush()
        os._exit(code)
    print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def child_exit_code(script):
    """Run FORK_SCRIPT + ``script`` in a fresh interpreter; returns the
    exit code that its forked child printed, and the standard error."""
    src = str(Path(neural.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-c", FORK_SCRIPT + script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return int(run.stdout), run.stderr


def test_child_forked_while_the_worker_lock_is_held_can_split():
    # The thread that held the lock is not in the child, so the child must
    # not wait for the parent's lock.
    code, stderr = child_exit_code("""
held, release = threading.Event(), threading.Event()

def hold():
    with neural._worker_lock:
        held.set()
        release.wait()

threading.Thread(target=hold, daemon=True).start()
held.wait()

def check():
    # A forced-split forward over 8 rows: each trunk layer runs as _halves.
    params = neural.init_params(2, (64, 64), 121, np.random.default_rng(28))
    x = np.random.default_rng(29).random((8, 2))
    neural._SPLIT_WORK = 0
    split = neural.forward(params, x)[2]
    neural._SPLIT_WORK = 1 << 62
    assert np.array_equal(split, neural.forward(params, x)[2])

in_child(check)
release.set()
""")
    assert code == 0, stderr


def test_child_forked_after_the_worker_started_splits_with_its_own():
    # The parent's worker thread is not in the child: the child starts its
    # own at its first split, and its forced-split TD step gives the whole
    # step's bits.
    code, stderr = child_exit_code("""
rng = np.random.default_rng(28)
params = neural.init_params(2, (512, 512), 121, rng)
x, actions, targets = rng.random((64, 2)), rng.integers(121, size=64), rng.normal(size=64)

def td_step(work):
    neural._SPLIT_WORK = work
    theta = params.clone()
    state = neural.init_adam(theta)
    grads = neural.QNetworkParams(theta.sizes, np.empty(theta.flat.size, np.float32))
    _, loss = neural.backward(theta, x, actions, targets, grads)
    norm = neural.clip_gradients(grads, np.inf)
    neural.adam_step(theta, grads, state, lr=1e-3)
    return [loss, norm, grads.flat, theta.flat, state.first_moment, state.second_moment]

whole = td_step(1 << 62)
td_step(0)
assert [t.name for t in threading.enumerate()] == ["MainThread", "leodcb-neural-half"]

def check():
    assert neural._worker_jobs is None
    assert [t.name for t in threading.enumerate()] == ["MainThread"]
    split = td_step(0)
    assert [t.name for t in threading.enumerate()] == ["MainThread", "leodcb-neural-half"]
    assert all(np.array_equal(got, want) for got, want in zip(split, whole))

in_child(check)
""")
    assert code == 0, stderr
