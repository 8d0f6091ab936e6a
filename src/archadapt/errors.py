"""Exception types shared across the package, and the one check each of a shift, a lam and a seed."""

import math


class ArchAdaptError(Exception):
    """Base class for all package errors."""


class DegenerateInput(ArchAdaptError):
    """Too few rows to fit a distribution."""


class InvalidData(ArchAdaptError):
    """Non-finite or otherwise unusable numeric input."""


class NotSPD(ArchAdaptError):
    """Matrix is not symmetric positive definite."""


class DimensionMismatch(ArchAdaptError):
    """Operands live in different dimensions."""


class ParseError(ArchAdaptError):
    """Malformed architecture encoding."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class InvalidToken(ArchAdaptError):
    """Token value outside the configured choice set."""


class ShapeError(ArchAdaptError):
    """Architecture does not match the configured unit layout."""


class SpaceTooLarge(ArchAdaptError):
    """Search space exceeds the enumeration cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"space size {size} exceeds enumeration cap {cap}")
        self.size = size
        self.cap = cap


class InvalidStep(ArchAdaptError):
    """Step index outside the growth plan."""


class InvalidConfig(ArchAdaptError):
    """Configuration value violates its constraints."""


class NumericalError(ArchAdaptError):
    """Numeric computation failed to produce a usable result."""


class DivisionByZeroShift(ArchAdaptError):
    """Reward requested with a zero distribution shift."""


def _checked_shift(shift: float, divided: bool = False, when: str = "") -> float:
    """shift, if usable as d_t; else InvalidData when it is NaN, negative or
    infinite, and, where it is divided by, DivisionByZeroShift when it is 0.
    when (" when lam != 0", say) ends the message."""
    if math.isinf(shift):
        raise InvalidData(f"shift must be finite{when}, got {shift}")
    if not shift >= 0.0:
        raise InvalidData(f"shift must be {'positive' if divided else 'nonnegative'}{when}, got {shift}")
    if divided and shift == 0.0:
        raise DivisionByZeroShift(f"shift must be positive{when}, got {shift}")
    return shift


def _check_lams(lams) -> None:
    """Raise InvalidConfig at the first cost penalty that is not finite and >= 0."""
    for lam in lams:
        if not 0.0 <= lam < math.inf:
            raise InvalidConfig(f"lam must be finite and >= 0, got {lam}")


def _check_seed(seed: int) -> None:
    """Raise InvalidConfig unless 0 <= seed < 2**32: derive_seed keeps 32
    bits of a seed, so one outside them would alias one inside."""
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    if seed >= 2**32:
        raise InvalidConfig(f"seed must be < 2**32, got {seed}")
