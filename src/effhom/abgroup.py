"""Finitely generated abelian groups in canonical coordinate form.

A group is presented as Z^r + Z/m_1 + ... + Z/m_s (each m_i >= 2) and its
elements are coefficient tuples of length r+s, with the torsion entries
reduced modulo the corresponding m_i.  The presentation is *not* forced
into divisibility-normalized (invariant factor) form; two presentations
may describe isomorphic groups with different mm tuples.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AbGroup:
    """Z^r + Z/m_1 + ... + Z/m_s, encoded as mm = (0,)*r + (m_1,...,m_s)."""

    mm: tuple

    def __post_init__(self):
        mm = tuple(int(m) for m in self.mm)
        object.__setattr__(self, "mm", mm)
        seen_torsion = False
        for m in mm:
            if m == 0:
                if seen_torsion:
                    raise ValueError("free ranks must precede torsion moduli")
            elif m >= 2:
                seen_torsion = True
            else:
                raise ValueError(f"invalid modulus {m}")
        object.__setattr__(self, "_free", not seen_torsion)

    @property
    def rank(self) -> int:
        return sum(1 for m in self.mm if m == 0)

    @property
    def torsion(self) -> tuple:
        return tuple(m for m in self.mm if m != 0)

    @property
    def ngens(self) -> int:
        return len(self.mm)

    def is_trivial(self) -> bool:
        return not self.mm

    # -- element arithmetic ------------------------------------------------

    def zero(self) -> tuple:
        return (0,) * len(self.mm)

    def reduce(self, x) -> tuple:
        x = tuple(x)
        if len(x) != len(self.mm):
            raise ValueError("coefficient tuple has wrong length")
        if self._free:
            return x
        return tuple(c if m == 0 else c % m for c, m in zip(x, self.mm))

    def add(self, x, y) -> tuple:
        return self.reduce(a + b for a, b in zip(x, y))

    def neg(self, x) -> tuple:
        return self.reduce(-a for a in x)

    def scale(self, k: int, x) -> tuple:
        return self.reduce(k * a for a in x)

    def is_zero(self, x) -> bool:
        return all(c == 0 for c in self.reduce(x))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical human-readable name, free part first: "Z + Z/2"."""
        parts = ["Z"] * self.rank + [f"Z/{m}" for m in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()


ZERO_GROUP = AbGroup(())
Z = AbGroup((0,))


def cyclic(m: int) -> AbGroup:
    """Z for m = 0, else Z/m."""
    return AbGroup((m,))
