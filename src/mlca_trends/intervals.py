"""Value intervals carrying the ambiguity of card names and country lists.

An interval is a (min, reference, max) triple: the reference is the value
obtained from the most plausible candidate, the endpoints span the remaining
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EstimateInterval:
    """Scalar (min, reference, max) triple with min <= reference <= max."""

    min: float
    reference: float
    max: float

    def __post_init__(self):
        if not (self.min <= self.reference <= self.max):
            raise ValueError(
                f"interval ordering violated: {self.min} <= {self.reference} <= {self.max}"
            )

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
