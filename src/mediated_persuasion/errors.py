"""Exception types raised across the library."""


class PersuasionError(Exception):
    """Base class for all library errors."""


class NegativeEntry(PersuasionError):
    """A matrix entry is below zero beyond tolerance."""

    def __init__(self, row, col, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry ({row}, {col}) = {value!r} is negative")


class NonFiniteEntry(PersuasionError):
    """A matrix entry is NaN or infinite."""

    def __init__(self, row, col, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry ({row}, {col}) = {value!r} is not finite")


class ColumnSumMismatch(PersuasionError):
    """A column of a stochastic matrix does not sum to one.

    Carries the worst offending column (0-based) and its deviation.
    """

    def __init__(self, column, deviation):
        self.column, self.deviation = column, deviation
        super().__init__(
            f"column {column} sums to 1{deviation:+.3g} (|dev| > tolerance)"
        )


class TooFewRealizations(PersuasionError):
    """Fewer realizations than conditioning states (m < n)."""


class DimensionMismatch(PersuasionError):
    """Matrix shapes are incompatible for the requested operation."""


class PriorOutsideSupport(PersuasionError):
    """The prior does not lie between the two candidate posteriors."""


class BarycenterMismatch(PersuasionError):
    """Two belief distributions do not share the same mean."""


class SingularGarbling(PersuasionError):
    """The garbling is rank deficient; the feasible set collapses to the prior."""


class NotSigmaPlausible(PersuasionError):
    """No experiment induces the requested posteriors through this garbling."""


class DegeneratePrior(PersuasionError):
    """Prior of 0 or 1 cannot support a nondegenerate posterior distribution."""


class EmptyDomain(PersuasionError):
    """Concavification domain is empty or inverted."""


class ScenarioError(PersuasionError):
    """A scenario file violates the input schema."""
