"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than
the library code under test: a scalar density loop instead of the package's
matrix evaluation, explicit enumeration or a plain-Python dict pass instead
of the vectorised weight pass, the lexicographic pass over every state
instead of the graded one (whose results must match it bit for bit), Beta
moments instead of the frequency-weight
pass, a plain-Python sum over the enumerated weights, or exact rational
arithmetic, instead of the log-space fixed-prior value, a multistart over
softmax prior means instead of the stratum search, per-vector and per-row
Python loops instead of the array passes of the envelope checks and the
learnability diagnosis, and plain 1-D midpoint quadrature instead of the
simplex grid.  The trend lab's exact values are
checked against exact-rational Dirichlet-moment sums over an exactly
expanded likelihood, binomial sums for Beta CDFs with integer parameters,
exact-rational bisection for level-set ends, and a substituted 1-D
quadrature for Beta tails whose density diverges; the grid integrator and
scalar densities here are the brute-force oracles of everything else.
"""

import itertools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from latentidm import (
    BinaryChannel,
    BoundaryLimit,
    DirichletParams,
    ManifestDataset,
    SimplexGrid,
    SimplexPoint,
    strata,
)
from latentidm.idm import BoundaryStratum
from latentidm.simplex import _dirichlet_log_density_matrix


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
    for lam, j in zip(data.row_entries, assignment):
        prob *= lam[j]
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
    for lam in data.row_entries:
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


def lexicographic_state_index(k: int, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The states of `lexicographic_likelihood_terms`, lexicographically, and their predecessors.

    A state is a vector of the first k - 1 counts with sum <= n (the k-th is
    the step minus their sum).  predecessors[j][i] is the state one x_j
    before state i, or len(states), an extra -inf slot, when count j is 0;
    x_k leaves the state as is, and a state whose sum exceeds the step is
    unreached, so it reads -inf as well.
    """
    # each prefix extends by each count that keeps the sum <= n
    heads = np.zeros((1, 0), dtype=np.int64)
    for _ in range(k - 1):
        room = n + 1 - heads.sum(axis=1)
        last = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        heads = np.column_stack((np.repeat(heads, room, axis=0), last))
    size = len(heads)
    # a position table over the counts plus one, in base n + 2: a count of -1 lands on a
    # slot that is no state, and every such slot holds `size`
    strides = np.array([(n + 2) ** (k - 2 - j) for j in range(k - 1)], dtype=np.int64)
    codes = (heads + 1) @ strides
    position = np.full((n + 2) ** (k - 1), size, dtype=np.int64)
    position[codes] = np.arange(size)
    return heads, [position[codes - stride] for stride in strides] + [np.arange(size)]


def lexicographic_likelihood_terms(data: ManifestDataset) -> tuple[np.ndarray, np.ndarray]:
    """The support of W, in sorted order, and log W(a) of each of its vectors.

    The pass `observation.likelihood_terms` ran before its graded index:
    every step updates every state.  The graded pass computes each value by
    the same elementwise operations in the same order, so the two agree
    bit for bit.

    The likelihood of the observed sequence is sum_a W(a) theta^a, so these
    are its exponent rows and log coefficients.  A forward pass in log
    space, so no weight underflows however small the entries are: a vector
    is kept iff some hidden assignment with its frequencies meets only
    nonzero emission entries.  Each observation gathers log W at the
    predecessors (`lexicographic_state_index`) under every outcome its row
    allows, adds their log emission entries and combines the rows pairwise
    with `np.logaddexp`.  Unreached states stay -inf; the finite ones after
    the last step are the support, already sorted.
    """
    k, n = data.k, data.n
    heads, predecessors = lexicographic_state_index(k, n)
    size = len(heads)
    log_w = np.full(size + 1, -np.inf)
    log_w[0] = 0.0  # the zero vector
    terms = np.empty((k, size))
    for lam in data.row_entries.tolist():
        allowed = [j for j in range(k) if lam[j] != 0.0]
        rows = terms[: len(allowed)]
        for r, j in enumerate(allowed):
            np.add(log_w[predecessors[j]], math.log(lam[j]), out=rows[r])
        np.logaddexp.reduce(rows, axis=0, out=log_w[:size])
    reached = np.flatnonzero(log_w[:size] > -np.inf)
    heads = heads[reached]
    return np.column_stack((heads, n - heads.sum(axis=1))), log_w[reached]


def envelope_limit(support, j: int, upper: bool, s: float):
    """(value, descriptor) of side (j, upper) if it attains its conjugate envelope, else None.

    The rule of `observation._envelope_limits`, one side at a time in plain
    Python over the support as a list of count tuples: the upper needs every
    vector with the fewest nonzeros off column j to have a_j = A, the lower
    needs a_j constant; a side that fails goes on to the faces with unequal
    rates, on the same vanishing sets in the same order.
    """
    n, k = sum(support[0]), len(support[0])
    column = [a[j] for a in support]
    if upper:
        target = max(column)
        value = (target + s) / (n + s)
        others = tuple(h for h in range(k) if h != j)
        spread = [sum(a[h] > 0 for h in others) for a in support]
        least = min(spread)
        if all(c == target for c, w in zip(column, spread) if w == least):
            return value, BoundaryLimit(j, 1.0)
        candidates = [others]
    else:
        target = min(column)
        value = target / (n + s)
        if all(c == target for c in column):
            return value, BoundaryLimit(j, 0.0)
        candidates = [z for size in range(2, k) for z in itertools.combinations(range(k), size)]
        candidates = [z for z in candidates if j in z]
    counts = np.array(support)
    for vanishing in candidates:
        for rates, members in strata.faces(counts[:, vanishing] > 0):
            if (counts[members, j] == target).all():
                rest = np.isin(np.arange(k), vanishing, invert=True)
                limit = SimplexPoint(rest / rest.sum())
                return value, BoundaryStratum(vanishing, rates, (1.0,) * len(vanishing), limit)
    return None


def diagnosis_witnesses(data: ManifestDataset) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(upper witnesses, lower witnesses) of each outcome, one observed row at a time.

    An upper witness is an observation whose row has lambda_{hj} = 0; a lower
    witness one whose row has lambda_{hj} != 0 and lambda_{hr} = 0 for every
    r != j.
    """
    rows = list(data.row_entries)
    witnesses = []
    for j in range(data.k):
        upper = tuple(i for i, lam in enumerate(rows) if lam[j] == 0.0)
        lower = tuple(
            i
            for i, lam in enumerate(rows)
            if lam[j] != 0.0 and all(lam[r] == 0.0 for r in range(data.k) if r != j)
        )
        witnesses.append((upper, lower))
    return witnesses


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
    rows = [[Fraction(float(x)) for x in lam] for lam in data.row_entries]
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
    """E[x^order] for a Beta(a, b) variable; exact when a and b are Fractions."""
    value = 1
    for j in range(order):
        value *= (a + j) / (a + b + j)
    return value


def polynomial_posterior_ratio(a: float, b: float, f_coeffs, l_coeffs) -> float:
    """E[f(x) L(x)] / E[L(x)] under Beta(a, b) for polynomial f and L.

    Coefficients are in ascending powers of x.  With Fraction parameters and
    coefficients every step is exact, however the coefficients' signs mix.
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


SimplexFunction = Callable[[np.ndarray], float]


def integrate_on_simplex(f: SimplexFunction, grid: SimplexGrid) -> float:
    """Riemann-type grid approximation of the integral of f over the simplex.

    Returns (simplex volume / point count) * sum of f over the grid points,
    with the measure convention documented in `latentidm.simplex`.  f is
    called once per point with a length-k coordinate array.  Evaluation
    failures of f propagate.
    """
    if grid.resolution < 2:
        raise ValueError("integration requires grid resolution m >= 2")
    values = np.fromiter((f(p) for p in grid.points), dtype=float, count=grid.point_count)
    return float(grid.simplex_volume * values.mean())


def dirichlet_log_density(params: DirichletParams, theta) -> float:
    """Log of the Dirichlet density at theta.

    Computes log Gamma(s) - sum_i log Gamma(s t_i) + sum_i (s t_i - 1) log theta_i.
    theta may be a :class:`SimplexPoint` or a plain length-k coordinate array.
    Raises ValueError if theta has a zero coordinate where the corresponding
    exponent s t_i - 1 is negative.
    """
    coords = theta.coords if isinstance(theta, SimplexPoint) else np.asarray(theta, dtype=float)
    if coords.shape != (params.k,):
        raise ValueError(f"theta must have {params.k} coordinates")
    return float(_dirichlet_log_density_matrix(params, coords[None, :])[0])


def latent_likelihood(data: ManifestDataset, theta) -> float | np.ndarray:
    """Likelihood of the observed sequence as a function of the chances.

    Computed through the per-index factorization prod_i sum_j lambda_{h_i j}
    theta_j, which equals the sum over all hidden assignments of
    P(observations | assignment) * P(assignment | theta).  Accepts a single
    point (returns float) or an (N, k) matrix of points (returns N values).
    """
    coords = theta.coords if isinstance(theta, SimplexPoint) else np.asarray(theta, dtype=float)
    single = coords.ndim == 1
    pts = coords[None, :] if single else coords
    if pts.shape[1] != data.k:
        raise ValueError(f"theta must have k={data.k} coordinates")
    acc = np.ones(pts.shape[0])
    for lam in data.row_entries:
        acc = acc * (pts @ lam)
    return float(acc[0]) if single else acc


def latent_to_manifest_chance_vector(channel: BinaryChannel, theta1: np.ndarray) -> np.ndarray:
    """xi_1 = (1 - eps2) * theta_1 + eps1 * (1 - theta_1); image is [eps1, 1-eps2]."""
    return (1.0 - channel.eps2) * theta1 + channel.eps1 * (1.0 - theta1)


def beta_cdf_binomial(x: float, a: int, b: int) -> Fraction:
    """I_x(a, b) for integers a, b >= 1, exactly, at the exact binary value of x.

    X ~ Beta(a, b) has X <= x iff at least a of a + b - 1 Bernoulli(x)
    trials succeed, so I_x(a, b) is a binomial tail; the shorter of the sum
    and its complement is taken, in integer arithmetic over x = p / q.
    """
    p, q = Fraction(x).as_integer_ratio()
    m = a + b - 1
    if b <= a:
        top = sum(math.comb(m, j) * p**j * (q - p) ** (m - j) for j in range(a, m + 1))
        return Fraction(top, q**m)
    low = sum(math.comb(m, j) * p**j * (q - p) ** (m - j) for j in range(a))
    return 1 - Fraction(low, q**m)


def beta_tail_quadrature(x: float, a: float, b: float, points: int = 2**18) -> float:
    """P(X >= x) for X ~ Beta(a, b) with a >= 1 and b <= 1, by 1-D quadrature.

    The density diverges at 1 when b < 1; the substitution u = (1 - X)^b
    turns the tail into (1 / (b B(a, b))) times the integral of
    (1 - u^(1/b))^(a - 1) over [0, (1 - x)^b], a smooth integrand.  Midpoint
    sums at two step sizes are combined by Richardson extrapolation.
    """
    top = (1.0 - x) ** b

    def integrand(u):
        return (1.0 - u ** (1.0 / b)) ** (a - 1.0)

    coarse = midpoint_integral(integrand, 0.0, top, points)
    fine = midpoint_integral(integrand, 0.0, top, 2 * points)
    beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return (4.0 * fine - coarse) / 3.0 / (b * beta)


def monomial_interval(p: int, q: int, level: Fraction) -> tuple[Fraction, Fraction]:
    """The ends of {x in [0, 1] : x^p (1 - x)^q >= level}, for 0 < level < the peak.

    Exact-rational bisection on each side of the peak p / (p + q), to 2^-70.
    """
    peak = Fraction(p, p + q)

    def end(outside: Fraction) -> Fraction:
        inside = peak
        while abs(inside - outside) > Fraction(1, 2**70):
            mid = (inside + outside) / 2
            if mid**p * (1 - mid) ** q >= level:
                inside = mid
            else:
                outside = mid
        return inside

    return end(Fraction(0)), end(Fraction(1))


def dirichlet_moment(s: float, t, e) -> Fraction:
    """E[theta^e] under Dirichlet(s, t), exactly, at the exact binary values of s and t:
    prod_h (s t_h)^{(e_h)} / s^{(|e|)}."""
    s = Fraction(s)
    top = Fraction(1)
    for t_h, e_h in zip(t, e):
        top *= math.prod((s * Fraction(float(t_h)) + j for j in range(e_h)), start=Fraction(1))
    return top / math.prod((s + j for j in range(sum(e))), start=Fraction(1))


def expanded_likelihood(data: ManifestDataset) -> dict[tuple[int, ...], Fraction]:
    """The likelihood prod_i sum_j lambda_{h_i j} theta_j of `data`, expanded exactly:
    exponent vector -> coefficient, with every entry at its exact binary value."""
    terms = {(0,) * data.k: Fraction(1)}
    for row in data.row_entries:
        lam = [Fraction(float(x)) for x in row]
        step: dict[tuple[int, ...], Fraction] = {}
        for e, c in terms.items():
            for j, l_j in enumerate(lam):
                if l_j:
                    key = e[:j] + (e[j] + 1,) + e[j + 1 :]
                    step[key] = step.get(key, Fraction(0)) + c * l_j
        terms = step
    return terms


def moment_ratio(s: float, t, f_exponents, terms: dict) -> Fraction:
    """E[theta^f L] / E[L] under Dirichlet(s, t) for L = sum_e terms[e] theta^e, exactly."""
    shifted = {tuple(a + b for a, b in zip(e, f_exponents)): c for e, c in terms.items()}
    num = sum(c * dirichlet_moment(s, t, e) for e, c in shifted.items())
    return num / sum(c * dirichlet_moment(s, t, e) for e, c in terms.items())
