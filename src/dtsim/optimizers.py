"""Five population metaheuristics over box-bounded continuous vectors.

Each optimizer minimizes a scalar objective, spends at most `budget`
evaluations, clamps candidates to the bounds before every evaluation, and is
fully deterministic given its numpy Generator. They all return an OptTrace
whose per-generation best-so-far sequence is non-increasing by construction.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Tuple

import numpy as np

Objective = Callable[[np.ndarray], float]


class OptTrace:
    """One search's record: the evaluation counter, the global best so far and
    the best-so-far value after each generation."""

    def __init__(self, objective: Objective, budget: int):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.objective = objective
        self.budget = budget
        self.evaluations = 0
        self.best_x = None
        self.best_f = math.inf
        self.trace: List[float] = []

    def remaining(self) -> int:
        return self.budget - self.evaluations

    def __call__(self, x: np.ndarray) -> float:
        if self.evaluations >= self.budget:
            raise RuntimeError("evaluation budget exceeded")
        self.evaluations += 1
        f = self.objective(x)
        if f < self.best_f or self.best_x is None:
            self.best_f = f
            self.best_x = np.array(x, copy=True)
        return f

    def eval_population(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self(x) for x in xs])

    def generations(self, size: int) -> Iterator[int]:
        """Number 1, 2, ... the generations of `size` evaluations that the
        budget still allows, recording the best so far after each one."""
        gen = 0
        while self.remaining() >= size:
            gen += 1
            yield gen
            self.trace.append(self.best_f)


def _start(objective: Objective, lb, ub, budget: int, rng: np.random.Generator, n_pop: int):
    """Float bounds, the budget's tally, and a first population of
    min(n_pop, budget) uniform points in the box, evaluated as generation 0."""
    if n_pop < 1:
        raise ValueError("n_pop must be positive")
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    tally = OptTrace(objective, budget)
    x = lb + rng.random((min(n_pop, budget), lb.size)) * (ub - lb)
    f = tally.eval_population(x)
    tally.trace.append(tally.best_f)
    return lb, ub, tally, x, f


def constriction_params(k: float, phi1: float, phi2: float) -> Tuple[float, float, float]:
    """Derive (w, c1, c2) from the constriction coefficient.

    chi = 2k / |2 - phi - sqrt(phi^2 - 4 phi)| with phi = phi1 + phi2 >= 4;
    the inertia weight is chi itself and the acceleration coefficients are
    phi1*chi and phi2*chi.
    """
    if not 0 <= k <= 1:
        raise ValueError("k must lie in [0, 1]")
    phi = phi1 + phi2
    if phi < 4:
        raise ValueError(f"phi1 + phi2 must be >= 4, got {phi}")
    chi = 2.0 * k / abs(2.0 - phi - math.sqrt(phi * phi - 4.0 * phi))
    return chi, phi1 * chi, phi2 * chi


# pso's (w, c1, c2): the constriction of k = 1, phi1 = phi2 = 2.05.
PSO_COEFFICIENTS = constriction_params(1.0, 2.05, 2.05)


def pso(objective: Objective, lb, ub, budget: int, rng: np.random.Generator,
        n_pop: int = 50) -> OptTrace:
    """Particle swarm with the constriction-derived PSO_COEFFICIENTS (w, c1, c2).

    Velocity update v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x) with
    per-dimension uniform r1, r2; positions clamp to the bounds.
    """
    w, c1, c2 = PSO_COEFFICIENTS
    lb, ub, tally, x, f = _start(objective, lb, ub, budget, rng, n_pop)
    n_pop = len(x)
    v = np.zeros_like(x)
    pbest_x = x.copy()
    pbest_f = f.copy()
    g = int(np.argmin(pbest_f))

    for _ in tally.generations(n_pop):
        r1 = rng.random(x.shape)
        r2 = rng.random(x.shape)
        v = w * v + c1 * r1 * (pbest_x - x) + c2 * r2 * (pbest_x[g] - x)
        x = np.clip(x + v, lb, ub)
        f = tally.eval_population(x)
        improved = f < pbest_f
        pbest_x[improved] = x[improved]
        pbest_f[improved] = f[improved]
        g = int(np.argmin(pbest_f))
    return tally


def differential_evolution(objective: Objective, lb, ub, budget: int,
                           rng: np.random.Generator, n_pop: int = 50) -> OptTrace:
    """DE/rand/1/bin (F = 0.5, CR = 0.9) with greedy one-to-one selection."""
    # At least 4: rand/1 draws three partners distinct from the target.
    lb, ub, tally, x, f = _start(objective, lb, ub, budget, rng, max(n_pop, 4))
    n_pop, dim = x.shape

    for _ in tally.generations(n_pop):
        for i in range(n_pop):
            choices = [j for j in range(n_pop) if j != i]
            r1, r2, r3 = rng.choice(choices, size=3, replace=False)
            mutant = x[r1] + 0.5 * (x[r2] - x[r3])
            cross = rng.random(dim) < 0.9
            cross[rng.integers(dim)] = True
            trial = np.clip(np.where(cross, mutant, x[i]), lb, ub)
            ft = tally(trial)
            if ft < f[i]:
                x[i] = trial
                f[i] = ft
    return tally


def genetic_algorithm(objective: Objective, lb, ub, budget: int,
                      rng: np.random.Generator, n_pop: int = 50) -> OptTrace:
    """Generational GA: tournament-2 parents, uniform crossover at rate 0.9,
    Gaussian mutation at rate 1/dim with a step decaying geometrically from
    0.1 to 0.001 of the box width over the budget // n_pop generations that
    the budget allows, one elite."""
    lb, ub, tally, x, f = _start(objective, lb, ub, budget, rng, n_pop)
    n_pop, dim = x.shape
    span = ub - lb
    total_gens = max(1, budget // n_pop)
    for gen in tally.generations(n_pop):
        decay = (1e-3 / 0.1) ** (gen / total_gens)
        sigma = 0.1 * decay * span

        def tournament():
            a, b = rng.integers(n_pop), rng.integers(n_pop)
            return x[a] if f[a] <= f[b] else x[b]

        elite = x[int(np.argmin(f))].copy()
        children = [elite]
        while len(children) < n_pop:
            p1, p2 = tournament(), tournament()
            if rng.random() < 0.9:
                mask = rng.random(dim) < 0.5
                c1 = np.where(mask, p1, p2)
                c2 = np.where(mask, p2, p1)
            else:
                c1, c2 = p1.copy(), p2.copy()
            for child in (c1, c2):
                if len(children) >= n_pop:
                    break
                mutate = rng.random(dim) < (1.0 / dim)
                child = child + np.where(mutate, rng.normal(0.0, 1.0, dim) * sigma, 0.0)
                children.append(np.clip(child, lb, ub))
        x = np.array(children)
        f = tally.eval_population(x)
    return tally


def cma_es(objective: Objective, lb, ub, budget: int, rng: np.random.Generator) -> OptTrace:
    """Covariance matrix adaptation evolution strategy (standard population
    size, weights and cumulation constants), started at the box centre with
    step size 0.3 of the mean box width."""
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    dim = lb.size
    tally = OptTrace(objective, budget)

    lam = max(4, min(4 + int(3 * math.log(dim)), budget))
    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights ** 2)

    cc = (4 + mu_eff / dim) / (dim + 4 + 2 * mu_eff / dim)
    cs = (mu_eff + 2) / (dim + mu_eff + 5)
    c1 = 2 / ((dim + 1.3) ** 2 + mu_eff)
    cmu = min(1 - c1, 2 * (mu_eff - 2 + 1 / mu_eff) / ((dim + 2) ** 2 + mu_eff))
    damps = 1 + 2 * max(0.0, math.sqrt((mu_eff - 1) / (dim + 1)) - 1) + cs
    chi_n = math.sqrt(dim) * (1 - 1 / (4 * dim) + 1 / (21 * dim * dim))

    span = ub - lb
    mean = (lb + ub) / 2.0
    sigma = 0.3 * float(np.mean(span))
    pc = np.zeros(dim)
    ps = np.zeros(dim)
    cov = np.eye(dim)
    b_mat = np.eye(dim)
    d_diag = np.ones(dim)

    for iteration in tally.generations(lam):
        z = rng.standard_normal((lam, dim))
        y = z @ (b_mat * d_diag).T
        xs = np.clip(mean + sigma * y, lb, ub)
        fs = tally.eval_population(xs)
        order = np.argsort(fs, kind="stable")
        sel = xs[order[:mu]]
        y_sel = (sel - mean) / sigma

        mean_new = weights @ sel
        y_w = (mean_new - mean) / sigma
        inv_sqrt = b_mat @ np.diag(1.0 / d_diag) @ b_mat.T
        ps = (1 - cs) * ps + math.sqrt(cs * (2 - cs) * mu_eff) * (inv_sqrt @ y_w)
        h_sig = (np.linalg.norm(ps) / math.sqrt(1 - (1 - cs) ** (2 * iteration))
                 < (1.4 + 2 / (dim + 1)) * chi_n)
        pc = (1 - cc) * pc + (h_sig * math.sqrt(cc * (2 - cc) * mu_eff)) * y_w

        rank1 = np.outer(pc, pc)
        rank_mu = (y_sel.T * weights) @ y_sel
        cov = ((1 - c1 - cmu) * cov
               + c1 * (rank1 + (not h_sig) * cc * (2 - cc) * cov)
               + cmu * rank_mu)
        sigma *= math.exp((cs / damps) * (np.linalg.norm(ps) / chi_n - 1))
        sigma = min(sigma, 10.0 * float(np.max(span)))
        mean = mean_new

        cov = (cov + cov.T) / 2.0
        eigvals, b_mat = np.linalg.eigh(cov)
        d_diag = np.sqrt(np.maximum(eigvals, 1e-30))
    if not tally.trace:
        # Budget below one population: spend what is left on random samples.
        xs = np.clip(mean + sigma * rng.standard_normal((tally.remaining(), dim)), lb, ub)
        tally.eval_population(xs)
        tally.trace.append(tally.best_f)
    return tally


def gbo(objective: Objective, lb, ub, budget: int, rng: np.random.Generator,
        n_pop: int = 50) -> OptTrace:
    """Gradient-based optimizer: gradient search rule, whose step scale beta
    decays from 1.2 to 0.2, plus local escaping operator applied with
    probability 0.5."""
    lb, ub, tally, x, f = _start(objective, lb, ub, budget, rng, n_pop)
    n_pop, dim = x.shape

    max_gen = max(1, budget // n_pop)
    for it in tally.generations(n_pop):
        worst_x = x[int(np.argmax(f))].copy()  # the population's worst as this generation starts
        beta = 0.2 + (1.2 - 0.2) * (1 - (it / max_gen) ** 3) ** 2
        alpha = abs(beta * math.sin(3 * math.pi / 2 + math.sin(3 * math.pi / 2 * beta)))

        for i in range(n_pop):
            best_x = tally.best_x  # the population's best: only a trial that beats x[i] enters
            r1, r2, r3, r4 = rng.integers(n_pop, size=4)
            x_mean4 = (x[r1] + x[r2] + x[r3] + x[r4]) / 4.0
            ro = alpha * (2 * rng.random() - 1)
            ro1 = alpha * (2 * rng.random() - 1)
            eps = 5e-3 * rng.random()

            dm = rng.random() * ro * (best_x - x[i])
            gsr = _gradient_search_rule(rng, ro1, best_x, worst_x, x[i], x[r1], dm, eps, x_mean4)
            x1 = x[i] - gsr + dm

            dm = rng.random() * ro * (best_x - x[i])
            gsr = _gradient_search_rule(rng, ro1, best_x, worst_x, x[i], x[r1], dm, eps, x_mean4)
            x2 = best_x - gsr + dm

            x3 = x[i] - ro1 * (x2 - x1)
            ra, rb = rng.random(dim), rng.random(dim)
            x_new = ra * (rb * x1 + (1 - rb) * x2) + (1 - ra) * x3

            if rng.random() < 0.5:
                f1 = rng.uniform(-1, 1)
                f2 = rng.standard_normal()
                ro_leo = alpha * (2 * rng.random() - 1)
                l1 = rng.random() < 0.5
                u1 = 2 * rng.random() if l1 else 1.0
                u2 = rng.random() if l1 else 1.0
                u3 = rng.random() if l1 else 1.0
                l2 = rng.random() < 0.5
                x_rand = lb + rng.random(dim) * (ub - lb)
                x_p = x[rng.integers(n_pop)]
                x_k = x_rand if l2 else x_p
                x_new = ((x_new if u1 < 0.5 else best_x) + f1 * (u1 * best_x - u2 * x_k)
                         + f2 * ro_leo * (u3 * (x2 - x1) + u2 * (x[r1] - x[r2])) / 2)

            x_new = np.clip(x_new, lb, ub)
            f_new = tally(x_new)
            if f_new < f[i]:
                x[i] = x_new
                f[i] = f_new
    return tally


def _gradient_search_rule(rng, ro1, best_x, worst_x, xi, xr1, dm, eps, x_mean4):
    dim = xi.size
    delta = 2 * rng.random(dim) * np.abs(x_mean4 - xi)
    step = ((best_x - xr1) + delta) / 2.0
    del_x = rng.random(dim) * np.abs(step)
    gsr = rng.standard_normal() * ro1 * (2 * del_x * xi) / (best_x - worst_x + eps)
    z_next = xi - gsr + dm
    yp = rng.random() * (0.5 * (z_next + xi) + rng.random() * del_x)
    yq = rng.random() * (0.5 * (z_next + xi) - rng.random() * del_x)
    return rng.standard_normal() * ro1 * (2 * del_x * xi) / (yp - yq + eps)
