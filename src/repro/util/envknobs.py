"""Uniform parsing for the ``REPRO_*`` environment knobs.

Every runtime toggle that can come from the environment goes through the
helpers below, so empty strings, junk values and out-of-range numbers
fail the same way everywhere: a :class:`ValueError` whose message names
the variable and the offending value.  Callers that surface knob errors
as :class:`~repro.util.errors.OmpRuntimeError` wrap the ValueError at the
call site — the *message* stays uniform either way.

Conventions shared by all knobs:

* an unset variable means "use the default";
* an empty (or whitespace-only) value also means "use the default", so
  CI matrix legs can pass ``REPRO_X=`` to mean "leave it alone";
* anything else must parse, or the run fails fast instead of silently
  picking a behavior the user did not ask for.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def env_raw(name: str) -> Optional[str]:
    """The stripped value of *name*, or ``None`` when unset/empty."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    raw = raw.strip()
    return raw if raw else None


def env_flag(name: str, default: bool = False) -> bool:
    """Parse a boolean knob with :func:`parse_flag`."""
    raw = env_raw(name)
    return default if raw is None else parse_flag(name, raw)


def parse_flag(name: str, raw: str, extra: Tuple[str, ...] = ()):
    """Parse a boolean value (1/0, true/false, yes/no, on/off) or one of
    the knob's own *extra* modes, returned lowercased.  Anything else
    raises :class:`ValueError` naming *name*: junk must not silently
    count as "enabled" (or "disabled")."""
    val = raw.strip().lower()
    if val in _TRUE:
        return True
    if val in _FALSE:
        return False
    if val in extra:
        return val
    raise ValueError(
        f"{name}={raw!r}: expected a boolean "
        f"(one of 1/0, true/false, yes/no, on/off"
        f"{''.join('/' + mode for mode in extra)})")


def env_int(name: str, default: Optional[int] = None,
            minimum: Optional[int] = None) -> Optional[int]:
    """Parse an integer knob, optionally enforcing a lower bound."""
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected an integer") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}={raw!r}: must be >= {minimum}")
    return value
