"""Certification harness for the 1/k error bound of gated SGD.

On a strongly convex finite sum (the quadratic ComponentProblem family),
runs projected SGD where the sampled component gradient is dropped
whenever its norm is at most G/k, with step size 1/(mu*k) and projection
onto the ball of radius D.  Averaged over many seeds, the squared distance
to the minimizer must stay below L/k with

    L = max(4 D^2, G^2/mu^2 + 4 D G / mu).

The harness advances two chains, gated and ungated, for every seed in one
lock step: one (2, n_seeds, dim) array of iterates, one shared gather of
the sampled centers per step, and a step of 0 for every dropped gradient.
It reports averaged error curves, bound violations, the log-log slope over
the last decade of steps, and per-decade skip rates of the gated chain.
A gate on the component loss instead, f_i(w) - f_i* <= G^2/(2 mu k^2),
would be the same gate: for these quadratics
f_i(w) - f_i* = ||grad f_i(w)||^2/(2 mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear_models import ComponentProblem


@dataclass
class TheoremRunConfig:
    problem: ComponentProblem
    n_steps: int
    n_seeds: int = 30
    mode: str = "shrunk"        # "shrunk" or "plain": which chain is certified
    record_every: int = 0       # 0 = auto, about 100 points
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("shrunk", "plain"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_steps < 1000:
            raise ValueError("n_steps must be >= 1000")
        if self.n_seeds < 30:
            raise ValueError("n_seeds must be >= 30 (expectation is averaged)")
        if self.record_every < 0:
            raise ValueError("record_every must be >= 0")
        if self.problem.D <= 0:
            raise ValueError("problem radius D must be > 0")

    @property
    def effective_record_every(self) -> int:
        return self.record_every if self.record_every else max(1, self.n_steps // 100)


def bound_constant(problem: ComponentProblem) -> float:
    d, g, mu = problem.D, problem.G, problem.mu
    return max(4.0 * d * d, g * g / (mu * mu) + 4.0 * d * g / mu)


def uniform_ball(dim: int, radius: float, rng: np.random.Generator,
                 size: int | None = None) -> np.ndarray:
    """Uniform draw(s) from the ball of the given radius."""
    shape = (dim,) if size is None else (size, dim)
    x = rng.standard_normal(shape)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    norms = np.where(norms == 0, 1.0, norms)
    r = radius * rng.random(shape[:-1] + (1,)) ** (1.0 / dim)
    return (x / norms * r).reshape(shape)


def _run_chains(problem: ComponentProblem, idx: np.ndarray, W0: np.ndarray,
                record_ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance the gated and the ungated chain of every seed in one lock step:
    projected SGD with step 1/(mu*k), where the gated chain drops every
    sampled gradient of norm at most G/k.

    idx is (n_steps, n_seeds) of component indices, shared by both chains;
    W0 is (n_seeds, dim).  The iterates live in one (2, n_seeds, dim) array,
    axis 0 = (gated, ungated).  Returns (errors, skips): errors is
    (2, n_points, n_seeds) squared distance to w* at each recorded k
    (pre-step iterate), skips is (n_steps,) skipped seeds of the gated chain
    per step.

    A dropped gradient gets step 0 instead of being masked out, and the
    ungated row's keep mask is always true: x*1.0 and x-0.0 are exact, so
    both chains match stepping each one on its own bit for bit.  Norms use
    np.linalg.norm's own formula, so every projection decision matches too.
    """
    mu, G, D = problem.mu, problem.G, problem.D
    centers, w_star = problem.centers, problem.w_star
    n_steps, n_seeds = idx.shape
    W = np.stack([W0, W0])
    g = np.empty_like(W)
    sq = np.empty_like(W)
    norms = np.empty((2, n_seeds))
    over = np.empty((2, n_seeds), dtype=bool)
    keep = np.ones((2, n_seeds), dtype=bool)
    step = np.empty((2, n_seeds))
    kept = np.empty((n_steps, n_seeds), dtype=bool)
    errors = np.empty((2, len(record_ks), n_seeds))
    rec = {int(k): j for j, k in enumerate(record_ks)}
    for k in range(1, n_steps + 1):
        if k in rec:
            diff = W - w_star
            errors[:, rec[k]] = np.einsum("csd,csd->cs", diff, diff)
        np.subtract(W, centers[idx[k - 1]], out=g)
        np.multiply(g, mu, out=g)
        np.greater(np.einsum("sd,sd->s", g[0], g[0]), (G / k) ** 2, out=keep[0])
        kept[k - 1] = keep[0]
        np.multiply(keep, 1.0 / (mu * k), out=step)
        np.multiply(g, step[..., None], out=g)
        np.subtract(W, g, out=W)
        np.multiply(W, W, out=sq)
        np.sqrt(np.add.reduce(sq, axis=2, out=norms), out=norms)
        if np.greater(norms, D, out=over).any():
            W[over] *= (D / norms[over])[:, None]
    return errors, n_seeds - kept.sum(axis=1)


def _decade_rates(skips: np.ndarray, n_seeds: int) -> dict[str, float]:
    rates: dict[str, float] = {}
    n_steps = len(skips)
    lo = 1
    while lo <= n_steps:
        hi = min(lo * 10 - 1, n_steps)
        span = hi - lo + 1
        rates[f"{lo}-{hi}"] = float(skips[lo - 1:hi].sum()) / (span * n_seeds)
        lo *= 10
    return rates


def _last_decade_slope(ks: np.ndarray, avg_err: np.ndarray) -> float:
    k_max = ks[-1]
    mask = (ks >= k_max / 10) & (avg_err > 0)
    if mask.sum() < 2:
        return float("nan")
    coef = np.polyfit(np.log(ks[mask]), np.log(avg_err[mask]), 1)
    return float(coef[0])


def run_certification(config: TheoremRunConfig) -> dict:
    """Run the gated and ungated chains in one lock step on shared index
    streams and certify the configured one against the L/k envelope."""
    problem = config.problem
    L = bound_constant(problem)
    n_steps, n_seeds = config.n_steps, config.n_seeds
    every = config.effective_record_every
    ks = sorted(set([1, n_steps]) | set(range(every, n_steps + 1, every)))
    record_ks = np.asarray(ks, dtype=np.int64)

    seeds = np.random.SeedSequence(config.seed).spawn(n_seeds)
    idx = np.empty((n_steps, n_seeds), dtype=np.int64)
    W0 = np.empty((n_seeds, problem.dim))
    for s, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        W0[s] = uniform_ball(problem.dim, problem.D, rng)
        idx[:, s] = rng.integers(problem.n, size=n_steps)

    (err_shrunk, err_plain), skips = _run_chains(problem, idx, W0, record_ks)

    certified = err_shrunk if config.mode == "shrunk" else err_plain
    avg = certified.mean(axis=1)
    se = certified.std(axis=1, ddof=1) / math.sqrt(n_seeds)
    bound = L / record_ks
    violations = avg > bound
    violations_3se = (avg - 3.0 * se) > bound

    return {
        "constants": {"mu": problem.mu, "G": problem.G, "D": problem.D,
                      "L": L, "n": problem.n, "dim": problem.dim},
        "mode": config.mode,
        "n_seeds": n_seeds,
        "n_steps": n_steps,
        "ks": [int(k) for k in record_ks],
        "avg_err": avg.tolist(),
        "se_err": se.tolist(),
        "avg_err_plain": err_plain.mean(axis=1).tolist(),
        "avg_err_shrunk": err_shrunk.mean(axis=1).tolist(),
        "bound": bound.tolist(),
        "violation_fraction": float(violations.mean()),
        "violation_fraction_3se": float(violations_3se.mean()),
        "slope_last_decade": _last_decade_slope(record_ks.astype(float), avg),
        "skip_rate_per_decade": _decade_rates(skips, n_seeds),
    }
