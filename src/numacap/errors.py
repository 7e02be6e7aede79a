"""Exception types shared across the package."""

from typing import Optional


class NumacapError(ValueError):
    """Base class for all errors raised by this package."""


class TopologyError(NumacapError):
    """Malformed topology id, invalid parameters, or an unusable graph."""


class DimensionError(NumacapError):
    """Capacity vector length does not match the topology vertex count."""


class CapacityError(NumacapError):
    """Capacity entry is not an integer in [0, 2**32 - 1].

    `index` is the 0-based position of the entry at fault, when there is one.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class ScaleLimitError(NumacapError):
    """Instance exceeds the size bounds of an exhaustive routine."""


class PlacementError(NumacapError):
    """A placement violates adjacency or per-node capacity."""


class ResourceError(NumacapError):
    """Missing or non-positive resource amount in a demand or free-list.

    `resource` names the resource at fault, when there is one.
    """

    def __init__(self, message: str, resource: Optional[str] = None):
        super().__init__(message)
        self.resource = resource


class SchemaError(NumacapError):
    """Invalid input document; message names the offending path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
