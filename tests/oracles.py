"""Independent oracles for the library's solvers, kept out of the package.

``brute_force_vertices`` enumerates the basic feasible points of a small LP,
so the simplex kernel is checked against an answer found without pivoting.
"""

from itertools import combinations

import numpy as np

from spreadhedge import LinearProgram
from spreadhedge.lp import _SENSES


def brute_force_vertices(lp: LinearProgram) -> list[tuple[np.ndarray, float]]:
    """Enumerate basic feasible points and return the optimizer set.

    Independent oracle for small instances: at most 8 variables, and the
    feasible region must be bounded (every variable pinned by bounds or
    constraints) so an optimal vertex exists.  Each candidate point solves a
    square subsystem of active constraints; infeasible problems yield an
    empty list; coincident vertices are deduplicated.
    """
    n = lp.n_vars
    if n > 8:
        raise ValueError(f"brute force accepts at most 8 variables, got {n}")
    sign = _SENSES[lp.objective_sense]
    tol = 1e-9

    rows: list[tuple[np.ndarray, float]] = []
    forced = list(range(lp.A_eq.shape[0]))
    for i in range(lp.A_eq.shape[0]):
        rows.append((lp.A_eq[i], lp.b_eq[i]))
    optional_start = len(rows)
    for i in range(lp.A_ub.shape[0]):
        rows.append((lp.A_ub[i], lp.b_ub[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lower[j]):
            rows.append((e, lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            rows.append((e.copy(), lp.upper[j]))

    def feasible(x: np.ndarray) -> bool:
        scale = max(1.0, float(np.abs(x).max(initial=0.0)))
        if lp.A_eq.size and np.max(np.abs(lp.A_eq @ x - lp.b_eq)) > tol * scale:
            return False
        if lp.A_ub.size and np.max(lp.A_ub @ x - lp.b_ub) > tol * scale:
            return False
        if np.any(x < lp.lower - tol * scale) or np.any(x > lp.upper + tol * scale):
            return False
        return True

    optional = range(optional_start, len(rows))
    need = n - len(forced)
    points: list[np.ndarray] = []
    if need < 0:
        combos: list[tuple[int, ...]] = [()]
    else:
        combos = list(combinations(optional, need))
    for combo in combos:
        idx = forced + list(combo)
        M = np.array([rows[i][0] for i in idx]).reshape(len(idx), n)
        rhs = np.array([rows[i][1] for i in idx])
        sol, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
        if rank < n:
            continue
        if np.max(np.abs(M @ sol - rhs)) > tol * max(1.0, float(np.abs(rhs).max(initial=0.0))):
            continue
        if feasible(sol):
            points.append(sol)

    unique: list[np.ndarray] = []
    for p in points:
        if not any(np.allclose(p, q, atol=1e-9, rtol=1e-9) for q in unique):
            unique.append(p)
    if not unique:
        return []
    objs = [float(lp.c @ p) for p in unique]
    best = min(sign * o for o in objs)
    out = [
        (p, o)
        for p, o in zip(unique, objs)
        if sign * o <= best + 1e-9 * (1.0 + abs(best))
    ]
    return out
