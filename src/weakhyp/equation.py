"""Problem description shared by the root diagnostics, the solver and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exprdsl import Expression, evaluate, parse


@dataclass(frozen=True)
class CoefficientSpec:
    """One equation of order ``m`` on the time interval [0, T].

    ``coefficients[h-1]`` is the profile a_h(t) multiplying the mixed
    derivative of time order m-h and space order h; ``initial[h]`` is the
    h-th time derivative of the solution at t = 0 as a function of x.
    ``nonlinearity`` is the monomial degree of the forcing (0 disables it).
    """

    order: int
    horizon: float
    coefficients: tuple[Expression, ...]
    nonlinearity: int
    initial: tuple[Expression, ...]

    @classmethod
    def from_strings(
        cls,
        order: int,
        horizon: float,
        coefficients: Sequence[str],
        nonlinearity: int,
        initial: Sequence[str],
    ) -> "CoefficientSpec":
        coeff_exprs = tuple(parse(src, ("t",)) for src in coefficients)
        init_exprs = tuple(parse(src, ("x",)) for src in initial)
        return cls(order, horizon, coeff_exprs, nonlinearity, init_exprs)

    def coefficients_at(self, t: float) -> np.ndarray:
        """Coefficient values at one time: row 0 of a one-point table."""
        return self.coefficient_table(np.array([t]))[0]

    def coefficient_table(self, ts: np.ndarray) -> np.ndarray:
        """Coefficient values on a time grid, shape (len(ts), m)."""
        ts = np.asarray(ts, dtype=float)
        cols = [evaluate(e, {"t": ts}) for e in self.coefficients]
        return np.stack(cols, axis=1)
