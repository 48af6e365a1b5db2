"""Independent check on reported predictive bounds.

The probe evaluates the posterior predictive at seeded prior means t and
compares the extremes it finds with the reported interval.  Every probe
value is attained by some t in the open simplex, so a reported upper below
the probe's maximum (or a lower above its minimum) is a bound that is too
narrow; the largest such gap is a lower bound on the true deficit.

It shares only the frequency weights W(a) with the library and evaluates
the ascending factorials (s t_h)^(a_h) itself, in log space.  The points are
t = softmax(scale * z) for standard normal z at several scales: at large
scales the non-dominant coordinates vanish at different exponential rates,
which is how the boundary extremes of a structural-zero channel are
approached.
"""

from __future__ import annotations

import numpy as np

SCALES = (0.5, 2.0, 8.0, 32.0, 128.0)
POINTS_PER_SCALE = 1500
_BLOCK = 500


def _log_t(z: np.ndarray) -> np.ndarray:
    top = z.max(axis=1, keepdims=True)
    return z - top - np.log(np.exp(z - top).sum(axis=1, keepdims=True))


def predictive_values(counts: np.ndarray, log_w: np.ndarray, s: float, log_t: np.ndarray) -> np.ndarray:
    """(points, k) posterior predictive for every outcome at each log t row."""
    n_points, k = log_t.shape
    n = int(counts[0].sum())
    icounts = counts.astype(int)
    t = np.exp(log_t)
    # log (s t + l) for l = 0..n-1; the l = 0 term stays exact when t underflows.
    ladder = np.empty((n_points, k, max(n, 1)))
    ladder[:, :, 0] = np.log(s) + log_t
    steps = np.arange(1, n)
    ladder[:, :, 1:] = np.log(steps) + np.log1p(s * t[:, :, None] / steps)
    prefix = np.concatenate([np.zeros((n_points, k, 1)), np.cumsum(ladder, axis=2)], axis=2)
    scores = np.tile(log_w, (n_points, 1))
    for h in range(k):
        scores += prefix[:, h, icounts[:, h]]
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    # A predictive probability lies in [0, 1]; clipping drops rounding at the ends.
    return np.clip((weights @ counts + s * t) / (n + s), 0.0, 1.0)


def interval_deficit(weights: dict, s: float, bounds: list[dict], seed: int) -> float:
    """Largest gap by which a reported bound sits inside the probe's extremes.

    `weights` maps frequency vectors (anything with `.counts`) to W(a);
    `bounds` are the report's per-outcome entries with outcome, lower, upper.
    """
    counts = np.array([fv.counts for fv in weights], dtype=float)
    log_w = np.log(np.array(list(weights.values()), dtype=float))
    k = counts.shape[1]
    rng = np.random.default_rng(seed)
    low = np.full(k, np.inf)
    high = np.full(k, -np.inf)
    for scale in SCALES:
        z = rng.standard_normal((POINTS_PER_SCALE, k)) * scale
        for start in range(0, POINTS_PER_SCALE, _BLOCK):
            values = predictive_values(counts, log_w, s, _log_t(z[start : start + _BLOCK]))
            low = np.minimum(low, values.min(axis=0))
            high = np.maximum(high, values.max(axis=0))
    deficit = 0.0
    for entry in bounds:
        j = entry["outcome"]
        deficit = max(deficit, high[j] - entry["upper"], entry["lower"] - low[j])
    return float(deficit)
