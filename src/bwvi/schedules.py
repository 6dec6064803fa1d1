"""Step-size schedules for the stochastic proximal updates.

The central object is a two-stage schedule: a constant warm-up step
``gamma_0`` for ``t < switch_time`` followed by a Robbins-Monro style
decay ``(1/mu) (2(t + tau) + 1) / (t + tau + 1)^2`` whose ``t * gamma_t``
asymptote ``2/mu`` gives the optimal O(1/T) rate on strongly convex
objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameters

__all__ = ["StepSchedule", "constant_schedule", "theorem_schedule"]


@dataclass(frozen=True)
class StepSchedule:
    """Two-stage step-size schedule.

    Attributes:
        base_step: warm-up step ``gamma_0 > 0``.
        strong_convexity: ``mu`` entering the decay stage; may be ``None``
            only when ``switch_time`` is infinite (constant schedule).
        switch_time: first iteration of the decay stage (``math.inf`` for
            a purely constant schedule).
        offset: decay-stage shift ``tau >= 0``.  With
            ``tau >= 2 / (gamma_0 mu)`` the whole schedule stays bounded
            by ``gamma_0``.
    """

    base_step: float
    strong_convexity: float | None = None
    switch_time: float = math.inf
    offset: float = 0.0

    def __post_init__(self):
        if not (self.base_step > 0.0):
            raise InvalidParameters(f"base_step must be positive, got {self.base_step}")
        if self.switch_time < 0:
            raise InvalidParameters(f"switch_time must be >= 0, got {self.switch_time}")
        if self.offset < 0:
            raise InvalidParameters(f"offset must be >= 0, got {self.offset}")
        if math.isfinite(self.switch_time):
            if self.strong_convexity is None or self.strong_convexity <= 0.0:
                raise InvalidParameters(
                    "a finite switch_time requires strong_convexity > 0, "
                    f"got {self.strong_convexity}"
                )

    def step_at(self, t: int) -> float:
        """Step size ``gamma_t`` at iteration ``t >= 0``."""
        if t < 0:
            raise InvalidParameters(f"iteration index must be >= 0, got {t}")
        if t < self.switch_time:
            return self.base_step
        u = t + self.offset
        return (2.0 * u + 1.0) / (self.strong_convexity * (u + 1.0) ** 2)


def constant_schedule(gamma: float) -> StepSchedule:
    """Schedule that returns ``gamma`` at every iteration."""
    if not (gamma > 0.0):
        raise InvalidParameters(f"gamma must be positive, got {gamma}")
    return StepSchedule(base_step=gamma)


def theorem_schedule(mu: float, smoothness: float, dim: int, delta_sq: float) -> StepSchedule:
    """Schedule parameters tuned for the Bonnet-Price estimators.

    With condition number ``kappa = L / mu``:

    - ``gamma_0 = 1 / (10 L kappa)``
    - ``tau = 8 kappa``
    - ``switch_time = ceil( log(kappa delta_sq / d)
      / log(1 / (1 - 1/(10 kappa^2))) )``, clamped at 0 when the log
      argument is <= 1 (a small initial distance skips the warm-up stage),
      and infinite when ``kappa`` or ``delta_sq`` is too large for the
      formula to be evaluated in floating point.

    ``delta_sq`` is the scaled initial squared distance to the optimum,
    ``mu * W2(q_0, q_*)^2``; exact for quadratic targets, user-estimated
    otherwise.
    """
    if not (0.0 < mu <= smoothness):
        raise InvalidParameters(f"need 0 < mu <= L, got mu={mu}, L={smoothness}")
    if dim < 1:
        raise InvalidParameters(f"dim must be >= 1, got {dim}")
    if delta_sq < 0.0:
        raise InvalidParameters(f"delta_sq must be >= 0, got {delta_sq}")
    kappa = smoothness / mu
    gamma0 = 1.0 / (10.0 * smoothness * kappa)
    tau = 8.0 * kappa
    log_arg = kappa * delta_sq / dim
    if log_arg <= 1.0:
        switch_time = 0
    else:
        try:
            rate = math.log(1.0 / (1.0 - 1.0 / (10.0 * kappa**2)))
            switch_time = max(0, math.ceil(math.log(log_arg) / rate))
        except (OverflowError, ZeroDivisionError):
            # The rate rounds to 0 or the log overflows: the warm-up outlasts any run.
            switch_time = math.inf
    return StepSchedule(
        base_step=gamma0,
        strong_convexity=mu,
        switch_time=switch_time,
        offset=tau,
    )
