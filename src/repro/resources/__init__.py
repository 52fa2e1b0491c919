"""Shared-resource scheduling (the EMSOFT'04 companion dimension)."""

from .audit import ExclusionViolation, audit_mutual_exclusion
from .model import ResourceError, ResourceMap
from .reua import REUA

__all__ = [
    "ResourceMap",
    "ResourceError",
    "REUA",
    "ExclusionViolation",
    "audit_mutual_exclusion",
]
