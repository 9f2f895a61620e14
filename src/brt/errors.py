"""Shared exception types."""

from __future__ import annotations

ESTIMATE_DIGITS = 4300
# The largest integer of ESTIMATE_DIGITS digits, CPython's default limit for
# int-to-str conversion: size estimates saturate here, so every one prints.
ESTIMATE_MAX = 10 ** ESTIMATE_DIGITS - 1
_MAX_BITS = ESTIMATE_MAX.bit_length()


def saturated_product(powers) -> int:
    """The product of ``base ** exp`` over the ``(base, exp)`` pairs, exact up
    to ``ESTIMATE_MAX`` and ``ESTIMATE_MAX`` above it.

    A factor with ``exp * (bits(base) - 1) >= bits(ESTIMATE_MAX)`` already
    exceeds the limit, so it is never built; every factor that is built has
    fewer than twice the limit's bits.  Pairs after the product saturates are
    not read, so a lazy iterable stops being computed there.
    """
    out = 1
    for base, exp in powers:
        if base > 1 and exp * (base.bit_length() - 1) >= _MAX_BITS:
            return ESTIMATE_MAX
        out *= base ** exp
        if out >= ESTIMATE_MAX:
            return ESTIMATE_MAX
    return out


def check_size(estimate: int, cap: int, what: str) -> int:
    """``estimate``, or ``InfeasibleError`` when it exceeds ``cap``."""
    if estimate > cap:
        raise InfeasibleError(estimate, cap, what)
    return estimate


def check_natural(x: int, what: str) -> int:
    """``x``, or ``ValueError`` when it is negative."""
    if x < 0:
        raise ValueError(f"{what} must be a natural number, got {x}")
    return x


class LanguageMismatchError(ValueError):
    """Two structures were combined but their languages differ."""


class InfeasibleError(RuntimeError):
    """An enumeration would exceed the configured node-count cap.

    Carries the cap and the size estimate so callers can report both; an
    estimate past ``ESTIMATE_MAX`` is given as ``ESTIMATE_MAX``.
    """

    def __init__(self, estimate: int, cap: int, what: str = "enumeration"):
        self.estimate = estimate
        self.cap = cap
        self.what = what
        super().__init__(f"{what} needs ~{estimate} nodes, cap is {cap}")
