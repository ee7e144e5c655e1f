"""Exception taxonomy shared across the toolkit.

Every error raised by this package derives from :class:`ClasslinkError` so
callers (and the CLI) can catch one base class and map subclasses to exit
categories.
"""

from __future__ import annotations


class ClasslinkError(Exception):
    """Base class for all toolkit errors."""

    category = "error"


class ParseError(ClasslinkError):
    """An input file or artifact is malformed (bad token, missing field, old version, ...)."""

    category = "parse"


class DimensionError(ClasslinkError):
    """Array shapes disagree with the graph or with each other."""

    category = "dimension"


class ConfigurationError(ClasslinkError):
    """A parameter or config value is out of its documented domain."""

    category = "config"


class CapacityError(ClasslinkError):
    """More samples were requested than the population can provide."""

    category = "capacity"


class MissingLabelError(ClasslinkError):
    """A node required to have a class label does not have one."""

    category = "labels"


class DegenerateNormalizerError(ClasslinkError):
    """A local normalizer evaluated to zero, so rescoring is undefined."""

    category = "numeric"


class NumericError(ClasslinkError):
    """A numeric value is NaN/inf where a finite value is required."""

    category = "numeric"


class TrainingError(ClasslinkError):
    """Optimization diverged or produced non-finite loss."""

    category = "training"


class DependencyError(ClasslinkError):
    """A pipeline stage needs an artifact that has not been produced."""

    category = "pipeline"


class StaleArtifactError(ClasslinkError):
    """An artifact on disk was produced under a different configuration."""

    category = "pipeline"
