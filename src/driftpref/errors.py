"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class ConfigError(ValueError):
    """A configuration value or config-file line is invalid."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Carries the last iterate and the residual gradient norm so callers can
    inspect how close the solve got; a caller that knows which seed was
    running records it in seed.
    """

    def __init__(self, message: str, iterate: np.ndarray, residual: float):
        super().__init__(f"{message} (residual grad norm {residual:.3e})")
        self.iterate = iterate
        self.residual = residual
        self.seed: int | None = None
