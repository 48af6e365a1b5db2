"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than
the library code under test: a scalar density loop instead of the package's
matrix evaluation, explicit enumeration or a plain-Python dict pass instead
of the vectorised weight pass, Beta moments instead of the frequency-weight
pass, a plain-Python sum over the enumerated weights, or exact rational
arithmetic, instead of the log-space fixed-prior value, a multistart over
softmax prior means instead of the stratum search, and plain 1-D midpoint
quadrature instead of the simplex grid.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from latentidm import DirichletParams, ManifestDataset, SimplexPoint


def reference_log_dirichlet(params: DirichletParams, coords) -> float:
    """Dirichlet log density via math.lgamma, independent of the package path."""
    coords = np.asarray(coords, dtype=float)
    alpha = params.s * params.t.coords
    value = math.lgamma(params.s) - sum(math.lgamma(a) for a in alpha)
    for a, x in zip(alpha, coords):
        value += (a - 1.0) * math.log(x)
    return value


def manifest_given_latent(data: ManifestDataset, assignment) -> float:
    """Probability of the observed sequence given a full hidden assignment."""
    if len(assignment) != data.n:
        raise ValueError(f"assignment length {len(assignment)} != dataset size {data.n}")
    prob = 1.0
    for (emission, row), j in zip(data.observations, assignment):
        prob *= emission.entries[row, j]
    return prob


def brute_frequency_weights(data: ManifestDataset) -> dict:
    """Sum of observation probabilities per frequency vector, by full enumeration."""
    weights: dict[tuple, float] = {}
    for assignment in itertools.product(range(data.k), repeat=data.n):
        prob = manifest_given_latent(data, assignment)
        counts = [0] * data.k
        for j in assignment:
            counts[j] += 1
        key = tuple(counts)
        weights[key] = weights.get(key, 0.0) + prob
    return {key: w for key, w in weights.items() if w != 0.0}


def dict_log_weights(data: ManifestDataset) -> tuple[np.ndarray, np.ndarray]:
    """The sorted support of W and log W(a), by a plain-Python forward pass over a dict.

    The state is the running count vector; each step adds every allowed
    hidden outcome's log emission entry and merges equal keys pairwise with
    log1p(exp(-|d|)), so no weight underflows however small the entries are.
    """
    states: dict[tuple[int, ...], float] = {(0,) * data.k: 0.0}
    for emission, row in data.observations:
        lam = emission.entries[row]
        logs = [(j, math.log(lam[j])) for j in range(data.k) if lam[j] != 0.0]
        nxt: dict[tuple[int, ...], float] = {}
        for counts, log_w in states.items():
            for j, log_lam in logs:
                key = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                term = log_w + log_lam
                known = nxt.get(key)
                if known is not None:
                    term = max(known, term) + math.log1p(math.exp(-abs(known - term)))
                nxt[key] = term
        states = nxt
    keys = sorted(states)
    return np.array(keys, dtype=np.int64), np.array([states[key] for key in keys])


def log_ascending_factorial(x: float, a: int) -> float:
    """log of x (x + 1) ... (x + a - 1), term by term."""
    return sum(math.log(x + step) for step in range(a))


def predictive_oracle(data: ManifestDataset, s: float, t) -> tuple[float, ...]:
    """Posterior predictive of every next hidden outcome at prior Dirichlet(s, t).

    Each frequency vector a, with its enumerated weight W(a), gets the log
    term log W(a) + sum_h log (s t_h)^{(a_h)}; the terms are shifted by
    their maximum before exponentiating, and the conjugate fractions
    (a_j + s t_j) / (n + s) are averaged with those weights by `math.fsum`.
    """
    t = [float(x) for x in t]
    terms = {
        a: math.log(w) + sum(log_ascending_factorial(s * t_h, a_h) for t_h, a_h in zip(t, a))
        for a, w in brute_frequency_weights(data).items()
    }
    top = max(terms.values())
    weights = {a: math.exp(term - top) for a, term in terms.items()}
    total = math.fsum(weights.values())
    return tuple(
        math.fsum(w * (a[j] + s * t[j]) / (data.n + s) for a, w in weights.items()) / total
        for j in range(data.k)
    )


def exact_predictive(data: ManifestDataset, s: float, t) -> tuple[Fraction, ...]:
    """Posterior predictive of every next hidden outcome at Dirichlet(s, t), as exact rationals.

    Every float input is taken at its exact binary value and every sum over
    the k^n hidden assignments is exact, so no weight underflows or rounds.
    """
    s = Fraction(s)
    alpha = [s * Fraction(x) for x in t]
    numerators = [Fraction(0)] * data.k
    total = Fraction(0)
    rows = [[Fraction(float(x)) for x in emission.entries[row]] for emission, row in data.observations]
    for assignment in itertools.product(range(data.k), repeat=data.n):
        term = math.prod((lam[j] for lam, j in zip(rows, assignment)), start=Fraction(1))
        counts = [assignment.count(h) for h in range(data.k)]
        for a_h, alpha_h in zip(counts, alpha):
            term *= math.prod((alpha_h + step for step in range(a_h)), start=Fraction(1))
        total += term
        for j in range(data.k):
            numerators[j] += term * (counts[j] + alpha[j])
    return tuple(x / (total * (data.n + s)) for x in numerators)


def predictive_at_log_t(counts: np.ndarray, log_w: np.ndarray, s: float, log_t: np.ndarray) -> np.ndarray:
    """(points, k) posterior predictive of every outcome at each row of log t.

    The first rung of each ascending factorial, log(s t_h), is taken from
    log t itself, so coordinates far below the smallest float stay exact.
    """
    n = int(counts[0].sum())
    t = np.exp(log_t)
    steps = np.arange(1, max(n, 1))
    rungs = np.concatenate(
        [(math.log(s) + log_t)[:, :, None], np.log(s * t[:, :, None] + steps)], axis=2
    )[:, :, :n]
    ladder = np.concatenate([np.zeros(rungs.shape[:2] + (1,)), np.cumsum(rungs, axis=2)], axis=2)
    scores = log_w + sum(ladder[:, h, counts[:, h]] for h in range(counts.shape[1]))
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return (weights @ counts + s * t) / (n + s)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    top = z.max(axis=-1, keepdims=True)
    return z - top - np.log(np.exp(z - top).sum(axis=-1, keepdims=True))


def predictive_extremes(
    data: ManifestDataset,
    s: float,
    seed: int = 0,
    scales=(0.5, 2.0, 8.0, 32.0, 128.0),
    points: int = 400,
    starts: int = 3,
    rounds: int = 400,
) -> tuple[np.ndarray, np.ndarray]:
    """(lowest, highest) predictive of each outcome found at attained prior means.

    Multistart: t = softmax(z) for standard normal z times each scale, as
    perfbench's probe samples; large scales let coordinates vanish at
    different rates.  The `starts` best points of every outcome and side are
    then refined by a compass search on z: move to the best of the 2k axis
    neighbours and 4 random ones at the current step, or halve the step.
    Every value is attained, so the true lower/upper lie outside them.
    """
    weights = brute_frequency_weights(data)
    counts = np.array(list(weights), dtype=np.int64)
    log_w = np.log(np.array(list(weights.values())))
    k = data.k
    rng = np.random.default_rng(seed)
    z = np.concatenate([rng.standard_normal((points, k)) * scale for scale in scales])
    values = predictive_at_log_t(counts, log_w, s, _log_softmax(z))
    # one start per (outcome, side, rank); sign +1 raises the value, -1 lowers it
    signs = np.array([-1.0, 1.0])
    order = np.argsort(values, axis=0)
    picks = np.concatenate([order[:starts], order[::-1][:starts]])  # (2 starts, k)
    current = z[picks].reshape(-1, k)  # rows: side-major, then rank, then outcome
    outcome = np.tile(np.arange(k), 2 * starts)
    sign = np.repeat(signs, starts * k)
    best = sign * values[picks.reshape(-1), outcome]
    step = np.full(len(current), 2.0)
    axes = np.concatenate([np.eye(k), -np.eye(k)])
    for _ in range(rounds):
        moves = np.concatenate([axes, rng.standard_normal((4, k))])
        trial = current[:, None, :] + step[:, None, None] * moves[None, :, :]
        flat = trial.reshape(-1, k)
        found = predictive_at_log_t(counts, log_w, s, _log_softmax(flat))
        scored = sign[:, None] * found[np.arange(len(flat)), np.repeat(outcome, len(moves))].reshape(
            len(current), len(moves)
        )
        pick = scored.argmax(axis=1)
        gain = scored[np.arange(len(current)), pick] > best
        current[gain] = trial[np.flatnonzero(gain), pick[gain]]
        best[gain] = scored[np.flatnonzero(gain), pick[gain]]
        step = np.where(gain, step, step / 2.0)
        if step.max() < 1e-9:
            break
    signed = best.reshape(2, starts, k).max(axis=1)
    return -signed[0], signed[1]


def midpoint_integral(f, lo: float, hi: float, points: int = 100_000) -> float:
    """Plain midpoint rule on [lo, hi]."""
    x = lo + (np.arange(points) + 0.5) * (hi - lo) / points
    return float(np.sum(f(x)) * (hi - lo) / points)


def beta_moment(a: float, b: float, order: int) -> float:
    """E[x^order] for a Beta(a, b) variable."""
    value = 1.0
    for j in range(order):
        value *= (a + j) / (a + b + j)
    return value


def polynomial_posterior_ratio(a: float, b: float, f_coeffs, l_coeffs) -> float:
    """E[f(x) L(x)] / E[L(x)] under Beta(a, b) for polynomial f and L.

    Coefficients are in ascending powers of x.
    """
    prod = np.polynomial.polynomial.polymul(f_coeffs, l_coeffs)
    num = sum(c * beta_moment(a, b, i) for i, c in enumerate(prod))
    den = sum(c * beta_moment(a, b, i) for i, c in enumerate(l_coeffs))
    return num / den


def random_interior_params(rng, k: int, nonneg_exponents: bool = True) -> DirichletParams:
    """Random prior parameters; with nonneg_exponents, every s*t_i >= 1.05
    so the density is bounded and the grid oracle is trustworthy."""
    t = rng.uniform(0.2, 1.0, size=k)
    t = t / t.sum()
    t = 0.5 * t + 0.5 / k  # keep coordinates comfortably interior
    if nonneg_exponents:
        s = rng.uniform(1.05 / t.min(), 1.05 / t.min() + 6.0)
    else:
        s = rng.uniform(0.5, 8.0)
    return DirichletParams(s=float(s), t=SimplexPoint(t))
