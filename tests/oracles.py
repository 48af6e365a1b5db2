"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than
the library code under test: a normalised density at one point at a time
instead of the package's unnormalised lattice density, explicit
enumeration, a plain-Python dict pass or an exact-rational one instead of
the vectorised weight pass, the lexicographic pass over every state
instead of the graded one (whose results must match it bit for bit), an
ellipsis-indexed ladder read and one weighted column per outcome instead of
the gathers and the one-table sum of the fixed-prior value (bit for bit too), Beta
moments instead of the frequency-weight
pass, a plain-Python sum over the enumerated weights, or exact rational
arithmetic, instead of the log-space fixed-prior value, a multistart over
softmax prior means instead of the stratum search, exact integer
Fourier-Motzkin elimination instead of the rate box of the face search,
checks over the support's vectors (in one array pass, and in plain Python)
instead of the zero-pattern envelope checks, per-row Python loops instead
of the array pass of the learnability diagnosis, and plain 1-D midpoint
quadrature instead of the simplex grid.  The trend lab's exact values are
checked against exact-rational Dirichlet-moment sums over an exactly
expanded likelihood (binomially expanded, for many equal channel
observations), binomial sums for Beta CDFs with integer parameters,
exact-rational bisection for level-set ends, and a substituted 1-D
quadrature for Beta tails whose density diverges, and a family's priors
table against its priors built one index at a time; the grid integrator and
scalar densities here are the brute-force oracles of everything else.
"""

import decimal
import itertools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from latentidm import strata
from latentidm.idm import BoundaryLimit, BoundaryStratum
from latentidm.manifest import BinaryChannel
from latentidm.observation import ManifestDataset
from latentidm.simplex import DirichletParams, SimplexGrid, SimplexPoint


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


# ln 2 to 40 digits, so e * LN2 is exact to ~1e-36 for every power of two e a weight reaches
LN2 = Fraction(decimal.Decimal(2).ln(decimal.Context(prec=40)))


def exact_weights(data: ManifestDataset) -> dict[tuple[int, ...], Fraction]:
    """W(a) of every vector of the support, as exact rationals.

    The dict pass of `dict_log_weights` in `Fraction`s: every entry is taken
    at its exact binary value, so each W(a) is exact however far it lies
    below the smallest float.
    """
    states: dict[tuple[int, ...], Fraction] = {(0,) * data.k: Fraction(1)}
    for lam in data.row_entries.tolist():
        entries = [(j, Fraction(x)) for j, x in enumerate(lam) if x != 0.0]
        nxt: dict[tuple[int, ...], Fraction] = {}
        for counts, weight in states.items():
            for j, x in entries:
                key = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                nxt[key] = nxt.get(key, 0) + weight * x
        states = nxt
    return states


def exact_log_weights(data: ManifestDataset) -> tuple[np.ndarray, np.ndarray]:
    """The sorted support of W and log W(a), from exact rational weights (`exact_weights`).

    The log is taken after scaling W(a) by 2^-e into [1/2, 2):
    log W = log(W 2^-e) + e ln 2, with the float log of the scaled weight
    (within ~2.2e-16) and ln 2 to 40 digits, summed exactly and rounded
    once.
    """
    states = exact_weights(data)
    keys = sorted(states)
    logs = []
    for key in keys:
        weight = states[key]
        e = weight.numerator.bit_length() - weight.denominator.bit_length()
        logs.append(float(Fraction(math.log(weight / Fraction(2) ** e)) + e * LN2))
    return np.array(keys, dtype=np.int64), np.array(logs)


def exact_frequency_predictive(data: ManifestDataset, s: float, t) -> tuple[Fraction, ...]:
    """Posterior predictive of every next hidden outcome at Dirichlet(s, t), over frequency vectors.

    `exact_predictive` summed over the frequency vectors instead of the k^n
    assignments: each vector a weighs W(a) prod_h (s t_h)^{(a_h)}, all in
    exact rationals (`exact_weights`), so n = 20 at k = 4 takes its 1,771
    vectors instead of 4^20 assignments.
    """
    s = Fraction(s)
    alpha = [s * Fraction(x) for x in t]
    numerators = [Fraction(0)] * data.k
    total = Fraction(0)
    for counts, weight in exact_weights(data).items():
        for a_h, alpha_h in zip(counts, alpha):
            weight *= math.prod((alpha_h + step for step in range(a_h)), start=Fraction(1))
        total += weight
        for j in range(data.k):
            numerators[j] += weight * (counts[j] + alpha[j])
    return tuple(x / (total * (data.n + s)) for x in numerators)


def lexicographic_state_index(k: int, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The states of `lexicographic_likelihood_terms`, lexicographically, and their predecessors.

    A state is a vector of the first k - 1 counts with sum <= n (the k-th is
    the step minus their sum).  predecessors[j][i] is the state one x_j
    before state i, or len(states), an extra unreached slot, when count j
    is 0; x_k leaves the state as is, and a state whose sum exceeds the step
    is unreached as well.
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
    are its exponent rows and log coefficients.  A vector is kept iff some
    hidden assignment with its frequencies meets only nonzero emission
    entries.  When the base-2 logs of the rows' smallest nonzero entries sum
    above -1000 and those of their sums, each floored at 0, below 1000, no
    weight leaves the normal floats: each observation gathers W at the
    predecessors (`lexicographic_state_index`) under every outcome its row
    allows, multiplies each gathered row by its entry and adds the rows one
    after another.  Otherwise the pass runs in log space, so no weight
    underflows however small the entries are: it adds log emission entries
    to the gathered log W and combines one or two rows with `np.logaddexp`
    and three or more by their max-shifted sum, whose shift is floored at
    the lowest finite float.  Unreached states stay 0 or -inf; the others
    after the last step are the support, already sorted.
    """
    k, n = data.k, data.n
    heads, predecessors = lexicographic_state_index(k, n)
    size = len(heads)
    nonzero = [[x for x in lam if x != 0.0] for lam in data.row_entries.tolist()]
    low = sum(math.log2(min(lam)) for lam in nonzero)
    high = sum(max(0.0, math.log2(sum(lam))) for lam in nonzero)
    if low > -1000 and high < 1000:
        w = np.zeros(size + 1)
        w[0] = 1.0  # the zero vector
        for lam in data.row_entries.tolist():
            products = [w[predecessors[j]] * lam[j] for j in range(k) if lam[j] != 0.0]
            w[:size] = products[0]
            for row in products[1:]:
                w[:size] += row
        reached = np.flatnonzero(w[:size] > 0.0)
        heads = heads[reached]
        return np.column_stack((heads, n - heads.sum(axis=1))), np.log(w[reached])
    log_w = np.full(size + 1, -np.inf)
    log_w[0] = 0.0  # the zero vector
    terms, total = np.empty((k, size)), np.empty(size)
    for lam in data.row_entries.tolist():
        allowed = [j for j in range(k) if lam[j] != 0.0]
        rows = terms[: len(allowed)]
        for r, j in enumerate(allowed):
            np.add(log_w[predecessors[j]], math.log(lam[j]), out=rows[r])
        if len(allowed) < 3:
            np.logaddexp.reduce(rows, axis=0, out=log_w[:size])
            continue
        shift = np.maximum.reduce(rows, axis=0, initial=np.finfo(float).min)
        np.exp(rows - shift, out=rows)
        with np.errstate(divide="ignore"):
            np.log(rows.sum(axis=0), out=total)
        log_w[:size] = shift + total
    reached = np.flatnonzero(log_w[:size] > -np.inf)
    heads = heads[reached]
    return np.column_stack((heads, n - heads.sum(axis=1))), log_w[reached]


def support_envelope_limits(counts: np.ndarray, sides, s: float) -> list:
    """(value, descriptor) of each side (j, upper) that an equal-rate path settles, else None.

    The rule `observation._envelope_limits` applied before it read the zero
    patterns: one array pass over the support `counts` (one row per vector),
    with A and B the largest and smallest a_j.  On the straight path to the
    vertex the vectors with the fewest nonzeros off column j survive, so the
    upper reaches (A + s)/(n + s) if all of them have a_j = A; with t_j alone
    vanishing all vectors survive, so the lower reaches B/(n + s) if a_j is
    constant.
    """
    n = sum(counts[0].tolist())
    highest, lowest = counts.max(axis=0), counts.min(axis=0)
    present = counts > 0
    spread = present.sum(axis=1, keepdims=True) - present  # nonzeros off each column
    fewest = spread == spread.min(axis=0)
    straight = ~(fewest & (counts != highest)).any(axis=0)
    highest, lowest, straight = highest.tolist(), lowest.tolist(), straight.tolist()
    limits = []
    for j, upper in sides:
        if upper and straight[j]:
            limits.append(((highest[j] + s) / (n + s), BoundaryLimit(j, 1.0)))
        elif not upper and lowest[j] == highest[j]:
            limits.append((lowest[j] / (n + s), BoundaryLimit(j, 0.0)))
        else:
            limits.append(None)
    return limits


def envelope_limit(support, j: int, upper: bool, s: float):
    """(value, descriptor) of side (j, upper) if it attains its conjugate envelope, else None.

    The rule of `support_envelope_limits` and then the faces with unequal
    rates, one side at a time in plain Python over the support as a list of
    count tuples: the upper needs every vector with the fewest nonzeros off
    column j to have a_j = A, the lower needs a_j constant; a side that
    fails goes on to the faces with unequal rates, an upper's on the vanishing
    set of every other coordinate, a lower's on every vanishing set of 2 to
    k - 1 coordinates containing j, in `strata._strata`'s order.
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


def positive_solution(level: list, above: list, d: int) -> tuple[int, ...] | None:
    """Integer rates r > 0 with <e, r> = 0 for every e in `level` and <g, r> > 0 for every g in `above`.

    Fourier-Motzkin elimination over integer rows (a, strict), each meaning
    <a, r> > 0 when strict and >= 0 otherwise, then back substitution.  Every
    combination stays integral, so the answer is exact.  None when no such r
    exists.
    """
    rows = [(tuple(int(x) for x in e), False) for e in level]
    rows += [(tuple(-int(x) for x in e), False) for e in level]
    rows += [(tuple(int(x) for x in g), True) for g in above]
    rows += [(tuple(int(i == h) for i in range(d)), True) for h in range(d)]
    stages = []
    for m in reversed(range(d)):
        stages.append(rows)
        lower = [(a, strict) for a, strict in rows if a[m] > 0]
        upper = [(b, strict) for b, strict in rows if b[m] < 0]
        rows = [row for row in rows if row[0][m] == 0]
        rows += [
            (tuple(a[m] * y - b[m] * x for x, y in zip(a, b)), sa or sb)
            for a, sa in lower
            for b, sb in upper
        ]
    if any(strict for _, strict in rows):  # every coefficient is zero here: 0 > 0 fails
        return None
    r: list[int] = []
    for m, rows in enumerate(reversed(stages)):
        # rescale the values so far so that every bound on r[m] is an even integer
        scale = 2 * math.prod(abs(a[m]) for a, _ in rows if a[m])
        r = [x * scale for x in r]
        lower = [-sum(x * y for x, y in zip(a, r)) // a[m] for a, _ in rows if a[m] > 0]
        upper = [-sum(x * y for x, y in zip(a, r)) // a[m] for a, _ in rows if a[m] < 0]
        low = max(lower)  # r[m] > 0 is always among the rows
        if not upper:
            r.append(low + 1)
        else:
            r.append((low + min(upper)) // 2)
    divisor = math.gcd(*r)
    return tuple(x // divisor for x in r)


def elimination_faces(patterns: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(rates, member mask) of every face that strictly positive rates expose, exactly.

    The reference for `strata.faces`, for any number d of vanishing
    coordinates.  Only inclusion-minimal patterns can minimise <r, pattern>,
    so the faces are the sets G of those for which some r > 0 levels G and
    puts every other minimal pattern above it (`positive_solution`), tried
    by size and then in pattern order.
    """
    distinct = list(np.unique(patterns.astype(np.int64), axis=0))
    minimal = [p for p in distinct if not any((q <= p).all() and (q < p).any() for q in distinct)]
    faces = []
    for size in range(1, len(minimal) + 1):
        for chosen in itertools.combinations(range(len(minimal)), size):
            base = minimal[chosen[0]]
            level = [minimal[i] - base for i in chosen[1:]]
            above = [minimal[i] - base for i in range(len(minimal)) if i not in chosen]
            rates = positive_solution(level, above, patterns.shape[1])
            if rates is not None:
                face = np.array([minimal[i] for i in chosen], dtype=bool)
                members = (patterns[:, None, :] == face[None, :, :]).all(axis=2).any(axis=1)
                faces.append((rates, members))
    return faces


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


def indexed_log_rising(alpha, counts: np.ndarray) -> np.ndarray:
    """`idm.log_rising` with each coordinate's rungs read by a mixed ellipsis and array
    index and summed from 0 by `sum`, as it was first written; the library's `take`
    gathers, summed in place in the same coordinate order, must agree bit for bit."""
    alpha = np.asarray(alpha, dtype=float)
    ladder = np.zeros((*alpha.shape, int(counts.max()) + 1))
    rungs = ladder[..., 1:]
    np.add(alpha[..., None], np.arange(rungs.shape[-1]), out=rungs)
    np.log(rungs, out=rungs)
    np.cumsum(rungs, axis=-1, out=rungs)
    return sum(ladder[..., h, counts[:, h]] for h in range(alpha.shape[-1]))


def columnwise_predictive_at_t(data: ManifestDataset, prior: DirichletParams) -> tuple[float, ...]:
    """`observation.posterior_predictive_at_t` with one weighted column per outcome, each
    built and summed as its own 1-D array, on `indexed_log_rising`; the library's one table
    of weighted fractions, summed row by row, must agree bit for bit."""
    counts, log_w = data.weight_pass
    s, alpha, n = prior.s, prior.alpha, data.n
    terms = indexed_log_rising(alpha, counts) + log_w
    weights = np.exp(terms - terms.max())
    total = weights.sum()
    return tuple(
        float((weights * ((counts[:, j] + alpha[j]) / (n + s))).sum() / total)
        for j in range(data.k)
    )


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


def prior_at(sequence, n: int) -> DirichletParams:
    """Index n's prior of a concentrating family, one index at a time instead of the
    family's table: mean on the mixing path target (1 - k/n) + 1/n, mixed back into the
    interior with weight 1e-6 / k where it reaches the boundary, then normalised and
    validated; strength n, or the family's fixed strength."""
    k = sequence.target.k
    coords = sequence.target.coords * (1.0 - k / n) + 1.0 / n
    if coords.min() <= 0.0:
        eps = 1e-6 / k
        coords = coords * (1.0 - k * eps) + eps
    s = float(n) if sequence.strength is None else float(sequence.strength)
    return DirichletParams(s=s, t=SimplexPoint(coords / coords.sum()))


SimplexFunction = Callable[[np.ndarray], float]


def integrate_on_simplex(f: SimplexFunction, grid: SimplexGrid) -> float:
    """Riemann-type grid approximation of the integral of f over the simplex.

    Returns (simplex volume / point count) * sum of f over the grid points.
    The measure is Lebesgue measure on the simplex projected onto its first
    k-1 coordinates: the simplex has total measure 1/(k-1)!, and the
    Dirichlet densities of `dirichlet_log_density` integrate to exactly 1.
    (Surface measure of the simplex embedded in R^k differs only by the
    constant factor sqrt(k).)  f is called once per point with a length-k
    coordinate array.  Evaluation failures of f propagate.
    """
    if grid.resolution < 2:
        raise ValueError("integration requires grid resolution m >= 2")
    values = np.fromiter((f(p) for p in grid.points), dtype=float, count=grid.point_count)
    return float(1.0 / math.factorial(grid.k - 1) * values.mean())


def _dirichlet_log_density_matrix(params: DirichletParams, points: np.ndarray) -> np.ndarray:
    """Log density at each row of an (N, k) point matrix.

    Rows with a zero coordinate get -inf when the matching exponent is
    positive and a zero contribution when the exponent is zero; a zero
    coordinate against a negative exponent is a domain error (the density
    diverges there).
    """
    exponents = params.alpha - 1.0
    log_norm = math.lgamma(params.s) - sum(math.lgamma(a) for a in params.alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(points)
        terms = exponents[None, :] * logs
    zero_mask = points == 0.0
    if np.any(zero_mask):
        bad = zero_mask & (exponents[None, :] < 0.0)
        if np.any(bad):
            raise ValueError(
                "density diverges: zero coordinate where the exponent s*t_i - 1 is negative"
            )
        # 0 * log(0) is taken as 0 (the coordinate's factor is theta^0 = 1).
        terms = np.where(zero_mask & (exponents[None, :] == 0.0), 0.0, terms)
    return log_norm + terms.sum(axis=1)


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
    exponent vector -> coefficient, with every entry at its exact binary value.

    A row's entries are integers over one power of two, so the expansion runs on integers
    over one running denominator, and each coefficient is reduced once, at the end."""
    terms, denominator = {(0,) * data.k: 1}, 1
    for row in data.row_entries:
        lam = [Fraction(float(x)) for x in row]
        scale = max(l_j.denominator for l_j in lam)  # every other one divides it
        numerators = [int(l_j * scale) for l_j in lam]
        step: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            for j, l_j in enumerate(numerators):
                if l_j:
                    key = e[:j] + (e[j] + 1,) + e[j + 1 :]
                    step[key] = step.get(key, 0) + c * l_j
        terms, denominator = step, denominator * scale
    return {e: Fraction(c, denominator) for e, c in terms.items()}


def moment_ratio(s: float, t, f_exponents, terms: dict) -> Fraction:
    """E[theta^f L] / E[L] under Dirichlet(s, t) for L = sum_e terms[e] theta^e, exactly.

    Every moment is `dirichlet_moment`'s prod_h (s t_h)^{(e_h)} / s^{(|e|)}, read from
    rising factorials tabulated once per coordinate."""
    s = Fraction(s)
    depth = max(sum(e) for e in terms) + sum(f_exponents)

    def rising(x: Fraction) -> list[Fraction]:
        table = [Fraction(1)]
        for j in range(depth):
            table.append(table[-1] * (x + j))
        return table

    tables, below = [rising(s * Fraction(float(t_h))) for t_h in t], rising(s)

    def moment(e) -> Fraction:
        return math.prod((table[e_h] for table, e_h in zip(tables, e)), start=Fraction(1)) / below[sum(e)]

    num = sum(c * moment([a + b for a, b in zip(e, f_exponents)]) for e, c in terms.items())
    return num / sum(c * moment(e) for e, c in terms.items())


def equal_rows_ratio(a: float, b: float, row, n: int) -> Fraction:
    """E[x L] / E[L] under Beta(a, b), exactly, for L = (row_0 x + row_1 (1 - x))^n: the
    likelihood of n observations of one channel row, at the exact binary values of a, b
    and the row's entries.

    Binomially expanded, every term of L has degree n, so the shared (a + b)^{(n)} cancels
    and the ratio is sum_j w_j (a + j) / ((a + b + n) sum_j w_j), with
    w_j = C(n, j) row_0^j row_1^(n - j) a^{(j)} b^{(n - j)}.  With a = A/D, b = B/D,
    row = (P, Q)/E, the powers of D and E cancel too, so the sums are taken in integers.
    """
    (A, d_a), (B, d_b), (P, e_p), (Q, e_q) = (float(x).as_integer_ratio() for x in (a, b, *row))
    A, B, D = A * d_b, B * d_a, d_a * d_b
    P, Q = P * e_q, Q * e_p
    rising_a, rising_b = [1], [1]
    for j in range(n):
        rising_a.append(rising_a[-1] * (A + j * D))
        rising_b.append(rising_b[-1] * (B + j * D))
    w = [math.comb(n, j) * P**j * Q ** (n - j) * rising_a[j] * rising_b[n - j] for j in range(n + 1)]
    return Fraction(sum(w_j * (A + j * D) for j, w_j in enumerate(w)), (A + B + n * D) * sum(w))


def ratio_tolerance(s: float, degree: int) -> float:
    """README's relative error bound on a trend ratio under a one-row likelihood theta^l
    of degree |l| at strength s: 2^-52 (64 + 2 |l| ln(s + |l|))."""
    return 2.0**-52 * (64 + 2 * degree * math.log(s + degree))
