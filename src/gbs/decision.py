"""Structured decision values: answer plus the clause that fired.

Like every gbs value type, a Decision is immutable by convention: a slots
dataclass, not a frozen one, which sets each field through
`object.__setattr__` (1.4 us to build a Decision against 0.24 us, Python 3.11)."""

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class Decision:
    answer: bool
    clause: str = ""
    reasons: tuple[str, ...] = ()
    caveat: bool = False

    def __bool__(self) -> bool:
        return self.answer

    def to_json(self) -> dict:
        out = {"answer": "yes" if self.answer else "no", "clause": self.clause}
        if self.reasons:
            out["reasons"] = list(self.reasons)
        if self.caveat:
            out["caveat"] = True
        return out
