"""Exception hierarchy. Every module raises subclasses of MlcaTrendsError;
each class names the stage it reports in `stage`, which the CLI prints."""


class MlcaTrendsError(Exception):
    """Base class for all errors raised by this package."""

    stage = "pipeline"


class ConfigError(MlcaTrendsError):
    """Invalid or missing configuration (paths, JSON schema, flag ranges)."""

    stage = "config"


class CatalogError(MlcaTrendsError):
    """Card-table parsing, merging, or lookup failure."""

    stage = "catalog"


class UnresolvedCardError(CatalogError):
    """No catalog candidate matches a queried card name."""

    def __init__(self, query: str):
        super().__init__(f"no catalog candidate matches card name {query!r}")
        self.query = query


class SystemsError(MlcaTrendsError):
    """Systems-table parsing failure."""

    stage = "systems"


class EstimationError(MlcaTrendsError):
    """GPU-hour estimation failure (bad inputs, unusable cards)."""

    stage = "estimation"


class MissingPeakError(EstimationError):
    """Card exposes no usable peak-compute field (fp32/fp16/tensor)."""


class LcaError(MlcaTrendsError):
    """Life-cycle impact computation failure."""

    stage = "lca"


class CannotEstimateError(LcaError):
    """Card lacks the fields needed for a production-impact estimate."""


class UnknownCountryError(LcaError):
    """Country code absent from the electricity-mix table."""

    def __init__(self, country: str):
        super().__init__(f"country code {country!r} not present in the mix table")
        self.country = country


class PipelineError(MlcaTrendsError):
    """Pipeline-level orchestration failure."""


class StatsError(MlcaTrendsError):
    """Regression or diagnostic-test failure."""

    stage = "stats"


class DegenerateDataError(StatsError):
    """Input has no usable variation (constant predictor or sample)."""
