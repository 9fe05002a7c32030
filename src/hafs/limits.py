"""Enumeration size bounds, overridable through the HAFS_MAX_U variable."""

import os

from .errors import SizeBoundError, ValidationError

DEFAULT_LABELLING_BOUND = 16
DEFAULT_EXTENSION_BOUND = 20
DEFAULT_TERNARY_BOUND = 12

ENV_BOUND = "HAFS_MAX_U"


def check_universe(n: int, bound: int | None, default: int) -> None:
    """Raise :class:`SizeBoundError` when ``n`` elements exceed ``bound``;
    without one, the bound is ``HAFS_MAX_U`` if set, else ``default``, and
    a ``HAFS_MAX_U`` that is no integer raises :class:`ValidationError`."""
    if bound is None:
        raw = os.environ.get(ENV_BOUND)
        try:
            bound = default if raw is None else int(raw)
        except ValueError:
            raise ValidationError(f"{ENV_BOUND} must be an integer, got {raw!r}") from None
    if n > bound:
        raise SizeBoundError(f"universe has {n} elements, bound is {bound}")
