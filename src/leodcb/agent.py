"""Enhanced dueling DQN agent: masked epsilon-greedy selection, replay,
target network, scalarized TD learning under a task weight vector."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import neural
from .env import DcbUplinkEnv, episode_objectives, legitimate_masks
from .errors import ConfigError, StateError, check, is_integer
from .neural import AdamState, QNetworkParams

STATE_DIM = 2  # (slot / T, prev_satellite / N_L)
MAX_GRAD_NORM = 10.0  # gradient norm cap of every TD step


class ReplayBatch(NamedTuple):
    """Transitions as row-aligned arrays, one row per transition."""

    state: np.ndarray           # (n,) state indices at decision time
    action: np.ndarray          # (n,) flat action indices, legitimate when taken
    reward: np.ndarray          # (n, 3) reward vectors
    next_state: np.ndarray      # (n,) state indices of the next states
    next_available: np.ndarray  # (n, N_L) satellite availability of the next state
    terminal: np.ndarray        # (n,) bools


@dataclass
class AgentConfig:
    gamma: float = 0.96
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    # None = resolved by the training framework to half its total iterations.
    epsilon_decay_iters: int | None = None
    replay_capacity: int = 100_000
    batch_size: int = 256
    target_sync_period: int = 100       # gradient steps between hard copies
    grad_steps_per_iteration: int = 16
    episodes_per_iteration: int = 1
    learning_rate: float = 1e-4
    hidden_sizes: tuple = (2048, 2048)

    def __post_init__(self):
        decay = self.epsilon_decay_iters
        sizes = self.hidden_sizes
        integral = isinstance(sizes, tuple) and all(map(is_integer, sizes))
        check("agent", vars(self), ("replay_capacity", "batch_size", "target_sync_period",
                                    "grad_steps_per_iteration", "episodes_per_iteration"),
              ("gamma", "epsilon_start", "epsilon_end", "learning_rate"), lambda: (
            (0.0 < self.gamma < 1.0, "0 < gamma < 1"),
            (0.0 <= self.epsilon_start <= 1.0, "0 <= epsilon_start <= 1"),
            (0.0 <= self.epsilon_end <= 1.0, "0 <= epsilon_end <= 1"),
            (decay is None or is_integer(decay) and decay >= 1,
             "epsilon_decay_iters is None or an integer >= 1"),
            (min(self.replay_capacity, self.batch_size) >= 1, "replay_capacity, batch_size >= 1"),
            (self.target_sync_period >= 1, "target_sync_period >= 1"),
            (self.grad_steps_per_iteration >= 0, "grad_steps_per_iteration >= 0"),
            (self.episodes_per_iteration >= 1, "episodes_per_iteration >= 1"),
            (0.0 <= self.learning_rate < float("inf"), "learning_rate is finite and >= 0"),
            (not integral or all(width >= 1 for width in sizes), "hidden widths >= 1"),
            (integral and len(sizes) >= 1, "hidden_sizes is a nonempty tuple of integers >= 1"),
        ))


class ReplayBuffer:
    """Fixed-capacity FIFO experience store with uniform sampling.

    The i-th pushed transition is row i % capacity of a ``ReplayBatch`` of
    arrays, whose shapes and dtypes come from the first push. The arrays
    double in length until they reach the capacity, so a buffer (and each
    copy of it) holds about as many rows as it has filled.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._rows: ReplayBatch | None = None
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, *transition) -> None:
        """Store one transition, given as the ``ReplayBatch`` fields in order."""
        if self._rows is None:
            self._rows = ReplayBatch(*(
                np.zeros((0, *np.shape(value)), np.asarray(value).dtype)
                for value in transition
            ))
        if self._cursor == len(self._rows.state):
            rows = min(self.capacity, 2 * self._cursor + 1)
            self._rows = ReplayBatch(*(_with_rows(column, rows) for column in self._rows))
        for column, value in zip(self._rows, transition):
            column[self._cursor] = value
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> ReplayBatch:
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return ReplayBatch(*(column[idx] for column in self._rows))

    def copy(self) -> "ReplayBuffer":
        """Independent copy of the filled rows."""
        clone = ReplayBuffer(self.capacity)
        if self._rows is not None:
            clone._rows = ReplayBatch(*(column[: self._size].copy() for column in self._rows))
        clone._size = self._size
        clone._cursor = self._cursor
        return clone


def _with_rows(column: np.ndarray, rows: int) -> np.ndarray:
    grown = np.zeros((rows, *column.shape[1:]), column.dtype)
    grown[: len(column)] = column
    return grown


def select_action(
    params: QNetworkParams,
    state_encoding: np.ndarray,
    legit_mask: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Masked epsilon-greedy choice over the flat action space.

    Greedy ties break to the lowest action index.
    """
    legit = np.flatnonzero(legit_mask)
    if legit.size == 0:
        raise StateError("legitimate action set is empty")
    if rng.random() < epsilon:
        return int(legit[rng.integers(legit.size)])
    _, _, q = neural.forward(params, state_encoding)
    return int(legit[np.argmax(q[legit])])


def target_table(
    params: QNetworkParams,
    encodings: np.ndarray,
    n_satellites: int,
    chunk: int,
) -> np.ndarray:
    """Target Q of every state, reduced to what a TD target reads.

    Row i belongs to ``encodings[i]``: column s - 1 is the best Q over the
    schemes on satellite s, the last column the Q of IDLE. The network runs
    over ``chunk`` rows at a time. The table is read-only.
    """
    table = np.empty((len(encodings), n_satellites + 1))
    for start in range(0, len(encodings), chunk):
        q = neural.forward(params, encodings[start : start + chunk])[2]
        rows = table[start : start + chunk]
        q[:, :-1].reshape(len(q), -1, n_satellites).max(axis=1, out=rows[:, :-1])
        rows[:, -1] = q[:, -1]
        del q    # not held while the next chunk is forwarded
    table.flags.writeable = False
    return table


def td_targets(
    batch: ReplayBatch,
    table: np.ndarray,
    weight: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Scalarized one-step targets, maximized over the next state's
    legitimate choices (its available satellites, or IDLE when none is:
    ``legitimate_masks`` for one scheme) from a ``target_table``; terminal
    transitions bootstrap nothing."""
    rewards = batch.reward @ np.asarray(weight, dtype=float)
    legit = legitimate_masks(batch.next_available, 1)
    best_next = np.where(legit, table[batch.next_state], -np.inf).max(axis=1)
    return rewards + gamma * np.where(batch.terminal, 0.0, best_next)


@dataclass(eq=False)
class EnhancedD3qnAgent:
    """One learning task's policy carrier: network, target, replay, Adam.

    The target network is ``target_q``: the ``target_table`` of ``params``
    over the env last trained on, built at the first TD target after
    creation, a target sync (which drops it) or a change of state space,
    and None until then. Adam runs after each build, so the table is the
    frozen copy; a change of state space mid-period re-syncs the target.
    """

    config: AgentConfig
    params: QNetworkParams
    adam: AdamState
    replay: ReplayBuffer
    rng: np.random.Generator
    iteration: int = 0
    last_loss: float = field(default=0.0)
    target_q: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def create(cls, config: AgentConfig, n_actions: int, rng: np.random.Generator):
        params = neural.init_params(STATE_DIM, config.hidden_sizes, n_actions, rng)
        return cls(
            config=config,
            params=params,
            adam=neural.init_adam(params),
            replay=ReplayBuffer(config.replay_capacity),
            rng=rng,
        )

    def epsilon(self) -> float:
        cfg = self.config
        if cfg.epsilon_decay_iters is None:
            raise ConfigError("epsilon_decay_iters has not been resolved")
        frac = min(1.0, self.iteration / max(1, cfg.epsilon_decay_iters))
        return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)

    def clone(self) -> "EnhancedD3qnAgent":
        """Independent deep copy with its own RNG stream."""
        return EnhancedD3qnAgent(
            config=self.config,
            params=self.params.clone(),
            adam=self.adam.clone(),
            replay=self.replay.copy(),
            rng=np.random.default_rng(int(self.rng.integers(2**63))),
            iteration=self.iteration,
            # Read-only, so the twin can share it until its own next sync.
            target_q=self.target_q,
        )

    def collect_episode(self, env: DcbUplinkEnv) -> None:
        """Run one epsilon-greedy episode, then push its transitions to the replay."""
        states, actions = [env.reset(int(self.rng.integers(2**31)))], []
        eps = self.epsilon()
        while not env.done:
            encoding, mask = env.state_encodings[states[-1]], env.legitimate_mask()
            actions.append(select_action(self.params, encoding, mask, eps, self.rng))
            states.append(env.step(actions[-1]))
        rows = zip(states, actions, env.rewards(env.trace), states[1:], env.available[1:])
        for t, row in enumerate(rows):
            self.replay.push(*row, t == len(actions) - 1)

    def train_iteration(self, env: DcbUplinkEnv, weight: np.ndarray) -> None:
        """Collect episodes, then run the configured gradient steps.

        The steps share one ``neural.Gradient``, which is dropped on
        return, so an agent between iterations holds no gradient memory.
        At paper width it stores neither the trunk nor the advantage weight
        gradient: it holds each step's factors of those, 12 MiB, and Adam
        forms them in chunks.
        """
        cfg = self.config
        for _ in range(cfg.episodes_per_iteration):
            self.collect_episode(env)
        grads = neural.Gradient(self.params.sizes)
        table_shape = (len(env.state_encodings), env.n_satellites + 1)
        for _ in range(cfg.grad_steps_per_iteration):
            if len(self.replay) < cfg.batch_size:
                break
            batch = self.replay.sample(cfg.batch_size, self.rng)
            if self.target_q is None or self.target_q.shape != table_shape:
                self.target_q = target_table(
                    self.params, env.state_encodings, env.n_satellites, cfg.batch_size
                )
            targets = td_targets(batch, self.target_q, weight, cfg.gamma)
            _, self.last_loss = neural.backward(
                self.params, env.state_encodings[batch.state], batch.action, targets, grads
            )
            norm = neural.clip_gradients(grads, MAX_GRAD_NORM)
            if not (math.isfinite(self.last_loss) and math.isfinite(norm)):
                # Stop before Adam writes the non-finite step into the params.
                raise StateError(
                    f"gradient step {self.adam.step + 1}: TD loss {self.last_loss}, "
                    f"pre-clip gradient norm {norm}; both must be finite"
                )
            neural.adam_step(self.params, grads, self.adam, cfg.learning_rate)
            if self.adam.step % cfg.target_sync_period == 0:
                self.target_q = None
        self.iteration += 1


def greedy_rollout(params: QNetworkParams, env: DcbUplinkEnv, seed: int, q_rows=None):
    """One epsilon = 0 episode; returns its trace.

    Q depends only on the state, so rollouts of one policy can share a
    ``q_rows`` dict from state to Q row; each row is computed once.
    """
    if q_rows is None:
        q_rows = {}
    state = env.reset(seed)
    while not env.done:
        q = q_rows.get(state)
        if q is None:
            _, _, q = neural.forward(params, env.state_encodings[state])
            q_rows[state] = q
        legit = np.flatnonzero(env.legitimate_mask())
        action = int(legit[np.argmax(q[legit])])
        state = env.step(action)
    return env.trace


def evaluate_policy(params: QNetworkParams, env: DcbUplinkEnv, seeds) -> np.ndarray:
    """Average objective vector F = (f1_bar, -f2_bar, -f3_bar) over seeds.

    All components are maximized under this sign convention.
    """
    totals = np.zeros(3)
    q_rows = {}
    for seed in seeds:
        f1, f2, f3 = episode_objectives(greedy_rollout(params, env, seed, q_rows), env.scenario)
        totals += (f1, -f2, -f3)
    return totals / len(seeds)
