"""Value intervals carrying the ambiguity of card names and country lists.

An interval is a (min, reference, max) triple: the reference is the value
obtained from the most plausible candidate, the endpoints span the remaining
candidates.
"""

from __future__ import annotations

from collections import namedtuple


class EstimateInterval(namedtuple("EstimateInterval", ("min", "reference", "max"))):
    """Scalar (min, reference, max) triple of floats with min <= reference <= max."""

    __slots__ = ()

    def __new__(cls, min, reference, max):
        if not (min <= reference <= max):
            raise ValueError(f"interval ordering violated: {min} <= {reference} <= {max}")
        return tuple.__new__(cls, (min, reference, max))

    @classmethod
    def degenerate(cls, value: float) -> "EstimateInterval":
        return cls(value, value, value)

    @classmethod
    def from_candidates(cls, values, reference: float) -> "EstimateInterval":
        """Envelope over candidate values; the reference must be one of them."""
        values = list(values)
        if not values:
            raise ValueError("no candidate values")
        return cls(min(values), reference, max(values))
