"""Declared domains of the numeric config fields.

Each numeric field of a config dataclass states its domain once, through
number(), and Checked.__post_init__ enforces every declared domain when the
dataclass is built. A value is always finite; an omitted bound leaves that
side unbounded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields


class DomainError(ValueError):
    """A field value outside its declared domain; key names the field."""

    def __init__(self, key: str, rule: str):
        super().__init__(f"{key} {rule}")
        self.key, self.rule = key, rule


@dataclass(frozen=True)
class Domain:
    """Finite values of kind between lo and hi."""

    kind: type
    lo: float
    hi: float
    lo_open: bool
    hi_open: bool

    def __str__(self) -> str:
        kind = "an integer" if self.kind is int else "a finite number"
        left, right = "(" if self.lo_open else "[", ")" if self.hi_open else "]"
        return f"{kind} in {left}{self.lo!r}, {self.hi!r}{right}"

    def check(self, key: str, value) -> None:
        """Raise unless value is a number lying inside."""
        # float and int first: isinstance tries them before the slower ABC
        if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
            raise TypeError(f"{key} must be a number, got {value!r}")
        # an infinite end is open, so these comparisons also reject inf and nan
        inside = (value > self.lo if self.lo_open else value >= self.lo) and (
            value < self.hi if self.hi_open else value <= self.hi
        )
        if not inside or (self.kind is int and not isinstance(value, (int, numbers.Integral))):
            raise DomainError(key, f"must be {self}, got {value!r}")


def number(default=MISSING, *, factory=MISSING, kind=float, gt=None, ge=None, lt=None, le=None):
    """A dataclass field holding finite numbers of kind within the bounds;
    a list or mapping field bounds each element or value."""
    lo, hi = (gt if ge is None else ge), (lt if le is None else le)
    lo, hi = (-math.inf if lo is None else lo), (math.inf if hi is None else hi)
    domain = Domain(kind, lo, hi, ge is None, le is None)
    return field(default=default, default_factory=factory, metadata={"domain": domain})


class Checked:
    """Base of the config dataclasses: building one checks every declared
    domain, and a subclass checks its cross-field rules after this."""

    def __post_init__(self):
        for f in fields(self):
            domain, value = f.metadata.get("domain"), getattr(self, f.name)
            if domain is None or (value is None and f.default is None):
                continue
            if not str(f.type).startswith(("list", "dict")):
                domain.check(f.name, value)
            elif isinstance(value, dict):
                for key, item in value.items():
                    domain.check(f"{f.name}.{key}", item)
            else:
                for i, item in enumerate(value):
                    domain.check(f"{f.name}[{i}]", item)
