"""The search for predictive bounds over the boundary strata of the prior-mean simplex.

As the coordinates Z of the prior mean t vanish like c_h eps^{r_h}, the
ascending factorial (s t_h)^{(a_h)} tends to s c_h (a_h - 1)! eps^{r_h} for
a_h > 0.  So only the frequency vectors on the face of the 0/1 polytope
conv{([a_h > 0])_{h in Z} : a in W} that the rates r expose survive the
limit, and the limit is again a predictive of the same form: in t over the
other coordinates and in the multipliers c_h (the Newton-polytope argument
for limits of rational functions along monomial curves; Sturmfels 2002,
CBMS 97).  The faces of d <= 3 vanishing coordinates are read off the rates
of the box {1..d}^d (`faces`).  A stratum is a vanishing set with one
exposed face.  The supremum or infimum over the open simplex is the best
value over the interior and the strata, and every stratum value is a limit
of attained values.

`observation` imports this module on first use: its check of an upper on
the faces with unequal rates reads `faces` of the rows' minimal hitting
sets, with no weight pass, and a side that no zero-pattern check settles
is searched here, on the support and log weights of the dataset's one
weight pass, which runs only for such a side or for a `hyper.t` value.  A
search call builds its table of strata once (`_strata`): the interior,
then the exposed faces of each vanishing set, found once.  The multistart
(`_multistart`) reads that table, within the work cap.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import observation
from .errors import SizeCapError
from .idm import BoundaryStratum
from .simplex import SimplexPoint

# Starts screened per side and stratum, how many of the best of them take
# Newton steps, and the longest step in log coordinates.
_SEEDS = 24
_STARTS = 3
_NEWTON_STEPS = 80
_MAX_STEP = 4.0
# Floats per |W|-by-k working array of one batch of starts.
_CHUNK_CELLS = 65_536


def faces(patterns: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(rates, member mask) of every face that strictly positive rates expose.

    `patterns` holds each support vector's 0/1 pattern [a_h > 0] over the
    d vanishing coordinates; rates r keep the vectors that minimise
    <r, pattern>.  Every rate vector of the box {1..d}^d is tried, by sum
    and then lexicographically, and each distinct minimiser set is kept with
    the first one that exposes it, which is primitive.  For d <= 3, which
    `observation.DP_MAX_K` guarantees, the box exposes every face: an
    exhaustive test checks all 273 sets of distinct patterns against exact
    Fourier-Motzkin elimination.  The faces come by how many distinct
    patterns each holds, then by the sorted order of those patterns.
    """
    d = patterns.shape[1]
    distinct, inverse = np.unique(patterns.astype(np.int64), axis=0, return_inverse=True)
    box = sorted(itertools.product(range(1, d + 1), repeat=d), key=sum)
    orders = np.array(box) @ distinct.T
    exposed: dict[bytes, tuple] = {}
    for rates, face in zip(box, orders == orders.min(axis=1, keepdims=True)):
        exposed.setdefault(face.tobytes(), (rates, face))
    ordered = sorted(exposed.values(), key=lambda p: (p[1].sum(), np.flatnonzero(p[1]).tolist()))
    return [(rates, face[inverse.ravel()]) for rates, face in ordered]


def _strata(counts: np.ndarray) -> list[tuple[tuple, tuple, np.ndarray]]:
    """(vanishing coordinates, rates, member mask) of every stratum of the support, interior first.

    The vanishing sets come by size, then in lexicographic order, each with
    its exposed faces (`faces`).
    """
    k = counts.shape[1]
    strata = [((), (), np.ones(len(counts), dtype=bool))]
    for size in range(1, k):
        for vanishing in itertools.combinations(range(k), size):
            strata += [(vanishing, r, members) for r, members in faces(counts[:, vanishing] > 0)]
    return strata


def _stratum_predictive(counts, log_w, s, free, members, outcome, theta, derivatives):
    """Predictive of `outcome` on each row's stratum, with its gradient and Hessian in theta.

    Row b has free coordinates `free[b]`, where t = softmax(theta) over them,
    and vanishing ones, where theta is the log multiplier u_h = log(s c_h);
    `members[b]` is its face.  A vector's log term is
    log W(a) + sum_free log (s t_h)^{(a_h)} + sum_vanishing [a_h > 0] (u_h + log (a_h - 1)!),
    the log term of the limit.  With pi the normalised terms and
    f_a = (a_j + s t_j)/(n + s), the value is E_pi f, its gradient
    E_pi[df] + Cov_pi(f, dl), and its Hessian adds Cov_pi(f, d2 l) and
    E_pi[(f - E f)(dl - E dl)(dl - E dl)^T]; df is the same for every a.
    """
    rows, k = theta.shape
    n = int(counts[0].sum())
    z = np.where(free, theta, -np.inf)
    top = z.max(axis=1, keepdims=True)
    log_t = z - top - np.log(np.exp(z - top).sum(axis=1, keepdims=True))
    t = np.exp(log_t)
    x = (s * t)[:, :, None]
    steps = np.arange(1, n)
    with np.errstate(divide="ignore"):  # log s t_h is -inf where t_h is not free
        first = np.log(s) + log_t
    # ladder[b, h, c]: log (s t_h)^{(c)} on free coordinates, u_h + log (c - 1)! on vanishing ones
    ladder = np.zeros((rows, k, n + 1))
    ladder[:, :, 1] = first
    ladder[:, :, 2:] = first[:, :, None] + np.cumsum(np.log(x + steps), axis=2)
    occupied = np.arange(n + 1) > 0
    log_factorials = np.array([math.lgamma(c) if c else 0.0 for c in range(n + 1)])
    vanishing = log_factorials + theta[:, :, None] * occupied
    ladder = np.where(free[:, :, None], ladder, vanishing)
    rungs = ladder[:, 0].take(counts[:, 0], axis=1)  # one `take` per coordinate, as `log_rising`
    for h in range(1, k):
        rungs += ladder[:, h].take(counts[:, h], axis=1)
    terms = log_w + rungs
    terms = np.where(members, terms, -np.inf)
    pi = np.exp(terms - terms.max(axis=1, keepdims=True))
    pi /= pi.sum(axis=1, keepdims=True)
    a_j = counts[:, outcome].T
    mean_j = (pi * a_j).sum(axis=1)
    t_j = t[np.arange(rows), outcome]
    value = (mean_j + s * t_j) / (n + s)
    if not derivatives:
        return value
    # e[b, h, c] = d log term / d log t_h (or / d u_h), and q = its derivative in log t_h
    ratios = x / (x + steps)
    e = np.zeros((rows, k, n + 1))
    e[:, :, 1:] = 1.0
    e[:, :, 2:] += np.cumsum(ratios, axis=2)
    e = np.where(free[:, :, None], e, occupied)
    q = np.zeros((rows, k, n + 1))
    q[:, :, 2:] = np.cumsum(ratios * (1.0 - ratios), axis=2)
    q *= free[:, :, None]
    slopes = np.stack([e[:, h].take(counts[:, h], axis=1) for h in range(k)], axis=2)
    bends = np.stack([q[:, h].take(counts[:, h], axis=1) for h in range(k)], axis=2)
    total = (slopes * free[:, None, :]).sum(axis=2)
    dl = slopes - t[:, None, :] * total[:, :, None]
    centred = pi * (a_j - mean_j[:, None]) / (n + s)
    cov = (centred[:, None, :] @ dl)[:, 0]
    toward = np.eye(k)[outcome] - t
    scale = s / (n + s) * t_j
    gradient = scale[:, None] * toward + cov
    spread = t[:, :, None] * np.eye(k) - t[:, :, None] * t[:, None, :]
    jac = (np.eye(k) - t[:, None, :]) * free[:, :, None] * free[:, None, :]
    mean_dl = (pi[:, None, :] @ dl)[:, 0]
    hessian = scale[:, None, None] * (toward[:, :, None] * toward[:, None, :] - spread)
    bend = (centred[:, None, :] @ bends)[:, 0]
    hessian += np.einsum("bh,bhm,bhp->bmp", bend, jac, jac)
    hessian -= (centred * total).sum(axis=1)[:, None, None] * spread
    hessian += (centred[:, :, None] * dl).transpose(0, 2, 1) @ dl
    hessian -= mean_dl[:, :, None] * cov[:, None, :] + cov[:, :, None] * mean_dl[:, None, :]
    return value, gradient, hessian


def _newton(evaluate, theta: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped, saddle-free Newton ascent of each row's signed value from its start.

    A step divides the gradient by |curvature| + damping along each
    eigenvector of the Hessian and is cut to `_MAX_STEP`; a step that does
    not raise the value is refused and the damping raised.  A row stops once
    the gain its step promises to first order, gradient . step, is below
    1e-15.
    """
    value, gradient, hessian = evaluate(theta, rows, True)
    damping = np.full(len(rows), 1e-3)
    active = np.arange(len(rows))
    for _ in range(_NEWTON_STEPS):
        if not active.size:
            break
        curvature, basis = np.linalg.eigh(-hessian[active])
        along = np.einsum("bij,bi->bj", basis, gradient[active])
        step = np.einsum("bij,bj->bi", basis, along / (np.abs(curvature) + damping[active, None]))
        length = np.abs(step).max(axis=1)
        step *= np.minimum(1.0, _MAX_STEP / np.maximum(length, 1e-300))[:, None]
        promised = np.einsum("bi,bi->b", gradient[active], step)
        trial = theta[active] + step
        trial_value, trial_gradient, trial_hessian = evaluate(trial, rows[active], True)
        gain = trial_value - value[active]
        better = gain > 0.0
        took = active[better]
        theta[took], value[took] = trial[better], trial_value[better]
        gradient[took], hessian[took] = trial_gradient[better], trial_hessian[better]
        damping[took] = np.maximum(damping[took] * 0.1, 1e-30)
        damping[active[~better]] = np.maximum(damping[active[~better]] * 10.0, 1e-9)
        active = active[promised >= 1e-15]
    return theta, value


def search(counts: np.ndarray, log_w: np.ndarray, s: float, sides: list[tuple[int, bool]]):
    """(value, extremizer) of each (outcome, upper) side: its best value over the interior and
    every stratum.

    `observation` passes only the sides its zero-pattern checks leave open,
    the faces with unequal rates included.  The table of strata (`_strata`)
    is built once per call and held to the work cap before the multistart
    reads it.
    """
    strata = _strata(counts)
    cells, cap = len(sides) * len(strata) * counts.size, observation.MAX_WORK
    if cells > cap:
        raise SizeCapError(f"search capped at {cap:,} cells; {len(sides)} sides x {len(strata)}"
                           f" strata x |W|={len(counts)} x k={counts.shape[1]} = {cells:,}")
    return _multistart(counts, log_w, s, sides, strata)


def _multistart(counts: np.ndarray, log_w: np.ndarray, s: float, sides, strata) -> list:
    """(value, extremizer) of each side over the interior and the given strata.

    Each side screens `_SEEDS` seeded starts on every stratum.  A stratum
    whose own envelope cannot beat the best screened value of its side is
    dropped; the `_STARTS` best starts on each other stratum take Newton
    steps.  Every value is a limit of attained values, so no side can
    overshoot its true bound.  Among values within 1e-15 of the best, the
    stratum with the most vanishing coordinates, then the smallest face, is
    reported.
    """
    k = counts.shape[1]
    n = int(counts[0].sum())
    free = np.array([np.isin(np.arange(k), z, invert=True) for z, _, _ in strata])
    members = np.array([m for _, _, m in strata])
    side_outcome = np.array([j for j, _ in sides])
    side_sign = np.array([1.0 if upper else -1.0 for _, upper in sides])
    # the envelope of every (side, stratum) pair, in the signed value the search raises
    lift = np.where(free[:, side_outcome].T & (side_sign > 0)[:, None], s, 0.0)
    fractions = side_sign[:, None] * counts.T[side_outcome]
    envelope = (np.where(members[None], fractions[:, None, :], -np.inf).max(axis=2) + lift) / (n + s)

    seeds = np.random.default_rng(0).standard_normal((_SEEDS, k))
    seeds *= np.resize([1.0, 3.0, 9.0], _SEEDS)[:, None]
    seeds[0] = 0.0
    tasks = len(sides) * len(strata)
    side_of = np.repeat(np.arange(len(sides)), len(strata) * _SEEDS)
    stratum_of = np.tile(np.repeat(np.arange(len(strata)), _SEEDS), len(sides))
    theta = np.tile(seeds, (tasks, 1))

    def evaluate(points, rows, derivatives):
        sign = side_sign[side_of[rows]]
        chunk = max(1, _CHUNK_CELLS // (len(log_w) * k))
        parts = []
        for start in range(0, len(rows), chunk):
            block = rows[start : start + chunk]
            stratum = stratum_of[block]
            outcome = side_outcome[side_of[block]]
            parts.append(
                _stratum_predictive(
                    counts, log_w, s, free[stratum], members[stratum], outcome,
                    points[start : start + chunk], derivatives,
                )
            )
        if not derivatives:
            return sign * np.concatenate(parts)
        value, gradient, hessian = (np.concatenate(p) for p in zip(*parts))
        return sign * value, sign[:, None] * gradient, sign[:, None, None] * hessian

    signed = evaluate(theta, np.arange(len(theta)), False)
    screened = signed.reshape(tasks, _SEEDS)
    best = screened.reshape(len(sides), -1).max(axis=1)
    kept = np.flatnonzero((envelope > best[:, None]).ravel())
    starts = np.argsort(-screened[kept], axis=1, kind="stable")[:, :_STARTS]
    rows = (kept[:, None] * _SEEDS + starts).ravel()
    if rows.size:
        theta[rows], signed[rows] = _newton(evaluate, theta[rows], rows)

    # among near-ties, prefer more vanishing coordinates, then a smaller face
    simpler = np.array([len(z) * (len(counts) + 1) - m.sum() for z, _, m in strata])[stratum_of]
    found = []
    for i in range(len(sides)):
        mine = np.arange(i * len(strata) * _SEEDS, (i + 1) * len(strata) * _SEEDS)
        ties = mine[signed[mine] >= signed[mine].max() - 1e-15]
        row = ties[np.argmax(simpler[ties])]
        vanishing, rates, _ = strata[stratum_of[row]]
        z = np.where(free[stratum_of[row]], theta[row], -np.inf)
        t = SimplexPoint(np.exp(z - z.max()) / np.exp(z - z.max()).sum())
        where = t
        if vanishing:
            multipliers = tuple(float(np.exp(theta[row, h]) / s) for h in vanishing)
            where = BoundaryStratum(vanishing, rates, multipliers, t)
        found.append((float(side_sign[i] * signed[row]), where))
    return found
