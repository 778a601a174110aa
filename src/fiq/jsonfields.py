"""Field checks for JSON documents, as the schemas in docs/ state them."""

from __future__ import annotations

from typing import Mapping


def require_fields(data, what: str, *keys: str) -> None:
    """Reject a JSON document that is not an object or lacks one of ``keys``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing required field {key!r}")


def reject_unknown_fields(data: Mapping, what: str, *allowed: str) -> None:
    """Reject a key of ``data`` that is not one of ``allowed``."""
    for key in data:
        if key not in allowed:
            raise ValueError(f"{what} has unknown field {key!r}")
