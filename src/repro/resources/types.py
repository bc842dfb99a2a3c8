"""Resource-wordlength types -- the ``R`` vertex set of the paper.

A :class:`ResourceType` is a functional-unit *type*, e.g. a ``16x16``-bit
multiplier or a ``12``-bit adder (paper section 2.1).  The datapath may
instantiate several physical units of one type; instances are represented
by the cliques produced during binding.

Coverage (the ``H`` edges of the wordlength compatibility graph) is a
componentwise comparison in the canonical requirement coordinates of the
operation kind: a resource covers an operation iff the resource kind
matches and every canonical width of the resource is at least the
corresponding canonical width of the operation.  The paper's Fig. 1 notes
that "resources can execute operations up to the wordlength of the
resource, even if implementation in a larger resource leads to a longer
latency" -- which is exactly the freedom the allocation heuristic exploits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Tuple

from ..ir.ops import Operation

__all__ = ["ResourceType"]


@dataclass(frozen=True, order=True)
class ResourceType:
    """A functional-unit type characterised by kind and wordlengths.

    Attributes:
        kind: resource-kind name (``"mul"``, ``"add"``, ...).
        widths: canonical wordlength vector, e.g. ``(16, 16)`` for a
            16x16 multiplier or ``(12,)`` for a 12-bit adder.  For
            commutative two-operand kinds the convention is
            ``widths[0] >= widths[1]``.
    """

    kind: str
    widths: Tuple[int, ...]

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.widths)
        if not widths:
            raise ValueError("resource must have at least one width")
        if any(w <= 0 for w in widths):
            raise ValueError(f"resource widths must be positive, got {widths!r}")
        object.__setattr__(self, "widths", widths)

    def covers_requirement(self, requirement: Tuple[int, ...]) -> bool:
        """Whether this type can execute an op with the given requirement."""
        if len(requirement) != len(self.widths):
            return False
        return all(map(operator.ge, self.widths, requirement))

    def covers(self, op: Operation) -> bool:
        """Whether this resource type can execute ``op``."""
        return self.kind == op.resource_kind and self.covers_requirement(op.requirement)

    def dominates(self, other: "ResourceType") -> bool:
        """Whether every op ``other`` covers is also covered by ``self``."""
        return (
            self.kind == other.kind
            and len(self.widths) == len(other.widths)
            and all(a >= b for a, b in zip(self.widths, other.widths))
        )

    def __str__(self) -> str:
        widths = "x".join(str(w) for w in self.widths)
        return f"{widths} {self.kind}"
