"""Independent oracles shared by the module and acceptance tests.

Everything here checks implementation paths from the outside: exhaustive
grid search, projected gradient descent, finite differences, the dense
head backward, brute-force dominance, a list-of-members Pareto archive,
TD targets from a per-batch forward, Kepler's third law, scalar
per-point geometry against the env's array geometry, running-sum
objectives of an episode trace, and the scalar per-step reward rule.
None of it calls the solver/gradient code it is used to verify.
"""

import math

import numpy as np

from leodcb import channel
from leodcb.channel import RfConstants
from leodcb.env import legitimate_masks
from leodcb.errors import DomainError
from leodcb.neural import QNetworkParams, forward


def make_rf(n_terminals=3, reference_distance=5e5, bandwidth=1e7):
    beta0 = channel.free_space_reference_gain(2.4e9)
    noise = 10.0 ** (-157.0 / 10.0) * 1e-3 * bandwidth
    rho0 = channel.default_rho0(
        beta0=beta0,
        path_loss_exponent=2.0,
        noise_power=noise,
        p_max=2.0,
        reference_distance=reference_distance,
        slot_seconds=60.0,
        n_terminals=n_terminals,
    )
    return RfConstants(
        beta0=beta0,
        path_loss_exponent=2.0,
        noise_power=noise,
        bandwidth=bandwidth,
        carrier_frequency=2.4e9,
        p_min=1.0,
        p_max=2.0,
        rho0=rho0,
    )


def orbital_period(elements, constants) -> float:
    """Circular-orbit period by Kepler's third law, 2*pi*sqrt(H^3 / mu), seconds."""
    radius = elements.altitude + constants.earth_radius
    return 2.0 * math.pi * math.sqrt(radius**3 / constants.mu)


def elevation_angle(sat_local, terminal_local) -> float:
    """Angle between the local horizontal plane and the terminal->satellite ray.

    Both points must be in the same tangent-plane frame (z up). Result in
    [-pi/2, pi/2]; negative when the satellite sits below the plane.
    """
    delta = np.asarray(sat_local, dtype=float) - np.asarray(terminal_local, dtype=float)
    dist = float(np.linalg.norm(delta))
    if dist == 0.0:
        raise DomainError("satellite and terminal positions coincide")
    return math.asin(max(-1.0, min(1.0, delta[2] / dist)))


def is_geometrically_visible(sat_local, terminal_local, min_elevation: float) -> bool:
    """True iff the elevation angle reaches the threshold (inclusive)."""
    return elevation_angle(sat_local, terminal_local) >= min_elevation


def link_distance(terminal, satellite) -> float:
    """Euclidean propagation distance between two points in one frame."""
    delta = np.asarray(satellite, dtype=float) - np.asarray(terminal, dtype=float)
    return float(np.linalg.norm(delta))


def p2_objective(powers, distances, rf: RfConstants, scheme, slot_seconds: float) -> float:
    """Weighted energy-minus-SNR objective of the per-slot subproblem."""
    p = np.asarray(powers, dtype=float)
    energy_term = scheme.a * rf.rho0 * float(p.sum()) * slot_seconds
    return energy_term - scheme.b * channel.snr(p, distances, rf)


def _p2_gradient(p, gains, a_coef, b_coef):
    coherent = gains @ np.sqrt(p)
    return a_coef - b_coef * coherent * gains / np.sqrt(p)


def pgd_p2(
    distances,
    rf: RfConstants,
    scheme,
    slot_seconds: float,
    grad_tol: float = 1e-8,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Minimize the per-slot objective over the power box by projected
    gradient descent: an approximate check on the exact ``channel.solve_p2``
    that shares none of its code.

    Backtracking line search from the box midpoint; stops when the unit-step
    projected-gradient norm drops below ``grad_tol``. That test is absolute,
    so where |f| is tiny it can stop at the midpoint itself. Pure a- or
    b-only schemes short-circuit to the exact box corner.
    """
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise DomainError("distances must be nonempty")
    lo, hi = rf.p_min, rf.p_max
    if scheme.b == 0.0:
        return np.full(d.shape, lo)
    if scheme.a == 0.0:
        return np.full(d.shape, hi)

    gains = channel.amplitude_gains(d, rf)
    a_coef = scheme.a * rf.rho0 * slot_seconds
    b_coef = scheme.b / rf.noise_power

    def value(p):
        coherent = gains @ np.sqrt(p)
        return a_coef * p.sum() - b_coef * coherent * coherent

    p = np.full(d.shape, 0.5 * (lo + hi))
    f = value(p)
    grad = _p2_gradient(p, gains, a_coef, b_coef)
    # Initial step sized to cross the box in one move.
    step = (hi - lo) / max(float(np.linalg.norm(grad)), 1e-300)
    for _ in range(max_iters):
        if np.linalg.norm(p - np.clip(p - grad, lo, hi)) < grad_tol:
            break
        while True:
            candidate = np.clip(p - step * grad, lo, hi)
            delta = candidate - p
            f_candidate = value(candidate)
            if f_candidate <= f + 1e-4 * float(grad @ delta):
                break
            if float(np.linalg.norm(delta)) < 1e-15:
                # Pinned against the box; nothing left to move.
                f_candidate = f
                candidate = p
                break
            step *= 0.5
        p, f = candidate, f_candidate
        grad = _p2_gradient(p, gains, a_coef, b_coef)
        step *= 2.0
    return p


def grid_search_p2(distances, rf, scheme, slot_seconds, points=201):
    """Exhaustive 3-terminal minimum over a regular box grid."""
    assert len(distances) == 3
    grid = np.linspace(rf.p_min, rf.p_max, points)
    gains = np.sqrt(rf.beta0 * np.asarray(distances, float) ** -rf.path_loss_exponent)
    p2_mesh, p3_mesh = np.meshgrid(grid, grid, indexing="ij")
    best = math.inf
    for p1 in grid:
        amp = (
            gains[0] * math.sqrt(p1)
            + gains[1] * np.sqrt(p2_mesh)
            + gains[2] * np.sqrt(p3_mesh)
        )
        objective = (
            scheme.a * rf.rho0 * slot_seconds * (p1 + p2_mesh + p3_mesh)
            - scheme.b * amp**2 / rf.noise_power
        )
        best = min(best, float(objective.min()))
    return best


def batch_loss(params, x, actions, targets):
    """TD loss recomputed through the forward pass only."""
    _, _, q = forward(params, x)
    picked = q[np.arange(len(actions)), actions]
    residual = picked - targets
    return 0.5 * float(residual @ residual) / len(actions)


def dense_backward(
    params: QNetworkParams,
    encodings: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    grads: QNetworkParams | None = None,
):
    """Gradient of the mean squared TD loss; returns (grads, loss).

    The dense reference for ``neural.backward``: it builds the full
    (B, n_actions) dL/dQ and multiplies it through both head products.

    Loss = mean over the batch of 0.5 * (Q(s, a) - target)^2. The gradient
    is written into ``grads`` when given: every entry is overwritten, so a
    caller can reuse one buffer across steps. Otherwise a new one is made.
    """
    x = np.asarray(encodings, dtype=float)
    acts = np.asarray(actions, dtype=int)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DomainError("batch must be a nonempty 2-D array")
    if grads is None:
        grads = QNetworkParams(params.sizes)

    batch = x.shape[0]
    activations = [x]
    for w, b in zip(params.trunk_weights, params.trunk_biases):
        activations.append(np.tanh(activations[-1] @ w + b))
    _, _, q = forward(params, x)
    picked = q[np.arange(batch), acts]
    residual = picked - y
    loss = 0.5 * float(residual @ residual) / batch

    d_q = np.zeros_like(q)
    d_q[np.arange(batch), acts] = residual / batch
    d_v = d_q.sum(axis=1, keepdims=True)
    d_a = d_q
    d_a -= d_v / params.n_actions

    h_last = activations[-1]
    np.matmul(h_last.T, d_v, out=grads.value_weight)
    d_v.sum(axis=0, out=grads.value_bias)
    np.matmul(h_last.T, d_a, out=grads.adv_weight)
    d_a.sum(axis=0, out=grads.adv_bias)

    # d_v @ value_weight.T has inner dimension 1, so it is the outer
    # product d_v * value_weight.T, bit for bit.
    d_h = d_a @ params.adv_weight.T
    d_h += d_v * params.value_weight.T
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


def forward_td_targets(batch, next_encodings, target_params, weight, gamma):
    """Scalarized one-step targets from a fresh forward over the batch's
    next-state encodings ``next_encodings``, maximized over the next state's
    legitimate actions; terminal transitions bootstrap nothing. The
    table-free check on ``agent.td_targets``."""
    rewards = batch.reward @ np.asarray(weight, dtype=float)
    n_schemes = (target_params.n_actions - 1) // batch.next_available.shape[1]
    legit = legitimate_masks(batch.next_available, n_schemes)
    _, _, next_q = forward(target_params, next_encodings)
    best_next = np.where(legit, next_q, -np.inf).max(axis=1)
    return rewards + gamma * np.where(batch.terminal, 0.0, best_next)


def running_objectives(trace, scenario):
    """(f1_bar, f2_bar, f3_bar) of a finished trace from ``+=`` running sums
    over its rows in slot order, skipping idle slots; the loop check on
    ``env.episode_objectives``."""
    rate_bits = energy_joules = 0.0
    switch_count = 0
    for row in trace:
        if row["satellite"] == 0:
            continue
        rate = float(row["rate_bps"])
        gated_rate = rate if rate > scenario.rate_threshold else 0.0
        rate_bits += gated_rate * scenario.slot_seconds
        energy_joules += float(row["total_power_w"]) * scenario.slot_seconds
        switch_count += int(row["switched"])
    n_slots = scenario.n_slots
    return (
        rate_bits / (n_slots * scenario.slot_seconds),
        energy_joules / n_slots,
        switch_count / n_slots,
    )


def reward_weights(scenario):
    """(rho1, rho2, rho3): the reward's normalizers. rho1 is one over the
    rate of every terminal at p_max from the lowest altitude, rho2 one over
    the array's energy at p_max over a slot, rho3 one."""
    rf, n = scenario.rf, scenario.n_terminals
    altitude = min(s.altitude for s in scenario.constellation)
    snr_max = channel.snr(np.full(n, rf.p_max), np.full(n, altitude), rf)
    rho1 = 1.0 / float(channel.achievable_rate(snr_max, rf))
    rho2 = 1.0 / (n * rf.p_max * scenario.slot_seconds)
    return rho1, rho2, 1.0


def step_reward(env, state, action):
    """The reward array (rho1 · gated rate, −rho2 · slot energy, −rho3 ·
    switch) of taking flat ``action`` in ``state``, one scalar at a time
    from the env's P2 tables: the check on ``env.rewards``. IDLE earns
    zeros."""
    slot, prev = divmod(int(state), env.n_satellites + 1)
    action = int(action)
    if action == env.idle_index:
        return np.zeros(3)
    if action < env.idle_index:
        scheme, sat = action // env.n_satellites + 1, action % env.n_satellites + 1
    else:
        scheme, sat = 0, action - env.idle_index
    scenario = env.scenario
    rho1, rho2, rho3 = reward_weights(scenario)
    rate = float(env.rates[slot, scheme, sat - 1])
    slot_energy = float(env.total_powers[slot, scheme, sat - 1]) * scenario.slot_seconds
    gated_rate = rate if rate > scenario.rate_threshold else 0.0
    switched = int(prev != 0 and sat != prev)
    return np.array([rho1 * gated_rate, -rho2 * slot_energy, -rho3 * switched])


def numeric_gradients(params, x, actions, targets, eps=1e-5):
    """Central finite differences over every entry of ``params.flat``."""
    flat = params.flat
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = batch_loss(params, x, actions, targets)
        flat[i] = original - eps
        down = batch_loss(params, x, actions, targets)
        flat[i] = original
        grads[i] = (up - down) / (2 * eps)
    return grads


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def dominates(fa, fb) -> bool:
    """Pareto dominance under maximization of every component, one vector
    pair at a time."""
    fa = np.asarray(fa, dtype=float)
    fb = np.asarray(fb, dtype=float)
    if fa.shape != fb.shape:
        raise DomainError("objective vectors must have equal length")
    return bool(np.all(fa >= fb) and np.any(fa > fb))


def brute_force_nondominated(points):
    points = [np.asarray(p) for p in points]
    keep = []
    for i, p in enumerate(points):
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i):
            keep.append(tuple(p))
    return set(keep)


class ListArchive:
    """The Pareto archive as a list of (params, objectives, weight) members,
    updated one member comparison at a time with ``dominates``: the
    reference for ``emodrl.ParetoArchive``'s row-aligned arrays."""

    def __init__(self):
        self.members = []

    def update(self, tasks) -> int:
        added = 0
        for task in tasks:
            candidate = np.asarray(task.objectives, dtype=float)
            if any(
                dominates(f, candidate) or np.array_equal(f, candidate)
                for _, f, _ in self.members
            ):
                continue
            self.members = [m for m in self.members if not dominates(candidate, m[1])]
            self.members.append(
                (task.agent.params.clone(), candidate.copy(), np.array(task.weight, dtype=float))
            )
            added += 1
        return added


def assert_pairwise_nondominated(objective_rows):
    rows = [np.asarray(r) for r in objective_rows]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            if i != j and dominates(a, b):
                raise AssertionError(f"archive member {i} dominates member {j}")
