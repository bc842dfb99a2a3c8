"""Operations of a multiple-wordlength sequencing graph.

An :class:`Operation` is a node of the paper's sequencing graph ``P(O,S)``:
it has a unique name, an operation kind (``add``, ``mul``, ...) and the
wordlengths of its operands.  The *requirement vector* derived from the
operand widths (see :mod:`repro.ir.kinds`) determines which
resource-wordlength types can execute it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .kinds import get_kind

__all__ = ["Operation"]


@dataclass(frozen=True)
class Operation:
    """A single operation with fixed a-priori operand wordlengths.

    Attributes:
        name: unique identifier within one sequencing graph.
        kind: operation kind name registered in :mod:`repro.ir.kinds`.
        operand_widths: wordlengths (bits) of the operands, in source
            order; canonicalisation is kind-specific.
    """

    name: str
    kind: str
    operand_widths: Tuple[int, ...]
    requirement: Tuple[int, ...] = field(init=False, compare=False)
    resource_kind: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"operation name must be a non-empty string, got {self.name!r}"
            )
        widths = tuple(int(w) for w in self.operand_widths)
        if any(w <= 0 for w in widths):
            raise ValueError(f"operation {self.name!r}: widths must be positive")
        spec = get_kind(self.kind)
        object.__setattr__(self, "operand_widths", widths)
        object.__setattr__(self, "requirement", spec.requirement_of(widths))
        object.__setattr__(self, "resource_kind", spec.resource_kind)

    def __str__(self) -> str:
        widths = "x".join(str(w) for w in self.operand_widths)
        return f"{self.name}:{self.kind}[{widths}]"
