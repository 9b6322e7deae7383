"""Argument checks of the public entry points; every integer argument goes
through ``_integer`` and every gate parameter through ``_real``, so no numpy
scalar reaches a result."""

from __future__ import annotations

import math
import numbers


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an ``int``. Raises ``TypeError`` unless it is an integer
    (a bool is none) and ``ValueError`` if it is below ``least``."""
    # ``bool`` is an ``int``, but ``True`` is no count; ``int`` is listed
    # first since the ABC's check is slow
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a ``float``. Raises ``TypeError`` unless it is a real
    number (a bool is none)."""
    # ``bool`` is a ``numbers.Real``, but ``True`` is no angle or standard
    # deviation; ``float`` is listed first since the ABC's check is slow
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_eps(eps: float) -> None:
    _real("eps", eps)
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
