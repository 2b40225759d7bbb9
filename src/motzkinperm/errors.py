"""Exceptions shared across the package."""

from __future__ import annotations


class BoundExceededError(ValueError):
    """A request exceeds a fixed safety bound: an enumeration size, a
    series order, a count of random factor sets or the prefixes one walk
    visits (``unit`` names what ``bound`` counts).  Anything past the
    bound would silently take hours, so we refuse instead.  The bounds
    are constants; no argument or environment variable raises them.
    """

    def __init__(self, n: int, bound: int, what: str = "enumeration", unit: str = ""):
        super().__init__(
            f"{what} at n={n} refused: exceeds the bound {bound} {unit}".rstrip()
        )
        self.n = n
        self.bound = bound


class InvariantError(RuntimeError):
    """Two routes that must agree exactly have disagreed."""
