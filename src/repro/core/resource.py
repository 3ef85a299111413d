"""Execution resources.

The paper maps tasks onto a heterogeneous resource set ``R`` that
includes not only computing elements but any exclusive power consumer —
mechanical subsystems, heaters, a laser ranger.  A resource here is just
a named, single-server mutual-exclusion domain: two tasks with the same
resource may never overlap in time.

Resources optionally carry an *idle power*; the sum of idle powers of
all resources plus the problem's explicit baseline forms the constant
floor of the power profile (the rover's CPU is modelled this way: Table 2
lists it as a constant consumer rather than a schedulable task).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import GraphError

__all__ = ["Resource", "ResourcePool"]


@dataclass(frozen=True)
class Resource:
    """A single-server execution resource.

    Parameters
    ----------
    name:
        Unique resource identifier.
    idle_power:
        Constant power drawn even when no task runs on the resource
        (watts, ``>= 0``).  Contributes to the profile baseline.
    kind:
        Free-form category ("mechanical", "thermal", "digital", ...);
        informational only.
    meta:
        Free-form annotations.
    """

    name: str
    idle_power: float = 0.0
    kind: str = "generic"
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("resource name must be a non-empty string")
        if not self.idle_power >= 0:  # also refuses NaN
            raise GraphError(
                f"resource {self.name!r}: idle_power must be >= 0, "
                f"got {self.idle_power}")


class ResourcePool:
    """An ordered, name-indexed collection of :class:`Resource`.

    The pool preserves insertion order so Gantt-chart rows come out in a
    stable, author-controlled order.
    """

    def __init__(self, resources: "list[Resource] | None" = None):
        self._by_name: "dict[str, Resource]" = {}
        for res in resources or []:
            self.add(res)

    def add(self, resource: Resource) -> Resource:
        """Register a resource; duplicate names are an error."""
        if resource.name in self._by_name:
            raise GraphError(f"duplicate resource {resource.name!r}")
        self._by_name[resource.name] = resource
        return resource

    def ensure(self, name: str, **kwargs: Any) -> Resource:
        """Return the named resource, creating a default one if absent."""
        if name not in self._by_name:
            self._by_name[name] = Resource(name=name, **kwargs)
        return self._by_name[name]

    def __getitem__(self, name: str) -> Resource:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"unknown resource {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    @property
    def names(self) -> "list[str]":
        """Resource names in insertion order."""
        return list(self._by_name)

    @property
    def total_idle_power(self) -> float:
        """Sum of idle powers across the pool (profile floor)."""
        return sum(res.idle_power for res in self._by_name.values())
