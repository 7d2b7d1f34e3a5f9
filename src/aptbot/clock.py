"""12-hour clock values stored as integer minutes since midnight.

Plan lines, event logs, and goal slots all carry times in the textual form
"h:mmam" / "h:mmpm" (no leading zero on the hour, lowercase meridiem).
Internally every time is an int in [0, 1439]; a plan is assumed to fit
within one day.
"""

from __future__ import annotations

import re

MINUTES_PER_DAY = 1440

_CLOCK_RE = re.compile(r"^(\d{1,2}):(\d{2})\s*(am|pm)$", re.IGNORECASE)

# Every canonical text once, and its inverse; other spellings take the regex.
_TEXTS = tuple(
    f"{(m // 60 - 1) % 12 + 1}:{m % 60:02d}{'am' if m < 720 else 'pm'}"
    for m in range(MINUTES_PER_DAY)
)
_MINUTES = {text: m for m, text in enumerate(_TEXTS)}


class ClockParseError(ValueError):
    """Raised for text that is not a valid 12-hour clock time."""


def parse_clock(text: str) -> int:
    """Parse "9:56pm" into minutes since midnight (1316)."""
    minutes = _MINUTES.get(text)
    if minutes is not None:
        return minutes
    m = _CLOCK_RE.match(text.strip())
    if m is None:
        raise ClockParseError(f"malformed time {text!r}")
    hour, minute, meridiem = int(m.group(1)), int(m.group(2)), m.group(3).lower()
    if not 1 <= hour <= 12:
        raise ClockParseError(f"hour out of range in {text!r}")
    if minute > 59:
        raise ClockParseError(f"minute out of range in {text!r}")
    hour %= 12  # 12am -> 0, 12pm -> 12 after offset below
    if meridiem == "pm":
        hour += 12
    return hour * 60 + minute


def format_clock(minutes: int) -> str:
    """Render minutes since midnight as "9:56pm"."""
    if not 0 <= minutes < MINUTES_PER_DAY:
        raise ValueError(f"minutes out of range: {minutes}")
    return _TEXTS[minutes]
