"""Reference values computed apart from the program under test.

Every formula here is written out again from its textbook definition, so a
check against it does not compare the program with itself. Only the Shekel
constants are read from the program (`benchmarks.SHEKEL_A` and `SHEKEL_C`),
because they define which landscape the program registers.
"""

from __future__ import annotations

import numpy as np

SHEKEL_BOX = (0.0, 10.0)
ROSENBROCK_BOX = (-3.0, 3.0)

# Relative tolerance for "the recomputed value equals the reported one":
# the program and the formulas below sum the same terms in another order.
VALUE_RTOL = 1e-12


def shekel_values(points, a_matrix, c) -> np.ndarray:
    """Shekel S(x) = sum_i 1 / (c_i + sum_j (x_j - a_ji)^2) for each row."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a_matrix = np.asarray(a_matrix, dtype=float)
    total = np.zeros(len(points))
    for i in range(len(c)):
        dist2 = np.zeros(len(points))
        for j in range(a_matrix.shape[0]):
            dist2 += (points[:, j] - a_matrix[j, i]) ** 2
        total += 1.0 / (c[i] + dist2)
    return total


def rosenbrock_value(x: float, y: float) -> float:
    """(1 - x)^2 + 100 (y - x^2)^2, whose minimum is 0 at (1, 1)."""
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def shekel_reference(a_matrix, c, per_axis: int = 6, polish: int = 20):
    """Global maximum of the Shekel formula on [0, 10]^4 by scipy.

    Evaluates a coarse grid of cell midpoints, then polishes the `polish`
    best grid points with bounded L-BFGS-B and keeps the best result.
    Returns (point, value).
    """
    from scipy.optimize import minimize

    lo, hi = SHEKEL_BOX
    marks = lo + (np.arange(per_axis) + 0.5) * (hi - lo) / per_axis
    grid = np.stack(np.meshgrid(*[marks] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    starts = grid[np.argsort(-shekel_values(grid, a_matrix, c))[:polish]]
    best = None
    for x0 in starts:
        res = minimize(
            lambda x: -shekel_values(x, a_matrix, c)[0],
            x0,
            method="L-BFGS-B",
            bounds=[SHEKEL_BOX] * 4,
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000},
        )
        if best is None or res.fun < best.fun:
            best = res
    return best.x, float(-best.fun)


def fixed_positions(schema: str) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array([i for i, ch in enumerate(schema) if ch != "*"], dtype=int)
    vals = np.array([int(schema[i]) for i in idx], dtype=np.uint8)
    return idx, vals


def schema_count(members: np.ndarray, schema: str) -> int:
    """Rows of the bit matrix that agree with every fixed position."""
    idx, vals = fixed_positions(schema)
    return int((members[:, idx] == vals).all(axis=1).sum())


def schema_bound(members: np.ndarray, schema: str, p_c: float, p_m: float) -> float:
    """Holland's expected-count lower bound under one-max fitness (1 + ones):
    count * f(H) / f_mean * (1 - p_c * delta / (m - 1)) * (1 - p_m) ** order."""
    idx, vals = fixed_positions(schema)
    fitness = 1.0 + members.sum(axis=1, dtype=float)
    mask = (members[:, idx] == vals).all(axis=1)
    growth = mask.sum() * fitness[mask].mean() / fitness.mean()
    delta = idx[-1] - idx[0]
    m = members.shape[1]
    return float(growth * (1.0 - p_c * delta / (m - 1)) * (1.0 - p_m) ** len(idx))
