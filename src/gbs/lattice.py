"""Integer row lattices in Hermite-style echelon form, and the multiplicative
group of nonzero rationals generated by finitely many elements.

A subgroup of Q* generated by q_1..q_k is stored as a sign bit per generator
plus an exponent vector over the coprime base b_1..b_n of the generators'
numerators and denominators (`arith.coprime_base`), no factoring needed;
base exponents map injectively to prime exponents.  The whole group embeds
in Z/2 x Z^n; we encode it as a lattice in Z^(n+1) where the last
coordinate holds the sign exponent and (0,...,0,2) is always a member.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import coprime_base


def _echelon(rows: list[list[int]]) -> list[list[int]]:
    """Row-echelon form over Z (Hermite style): pivots positive, entries
    below pivots zero, entries above reduced mod the pivot.  Canonical for
    lattice equality."""
    rows = [r[:] for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    for col in range(ncols):
        work = [r for r in rows if r[col]]
        if not work:
            continue
        # gcd-reduce all rows nonzero in this column into one pivot row; the
        # others end with 0 here, as every remaining row has in earlier columns
        pivot = work[0]
        rows.remove(pivot)
        for r in work[1:]:
            a, b = pivot[col], r[col]
            while b:
                q = a // b
                for j in range(ncols):
                    pivot[j], r[j] = r[j], pivot[j] - q * r[j]
                a, b = pivot[col], r[col]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        rows = [r for r in rows if any(r)]
    # reduce above-pivot entries for canonicity; a later pivot row changes
    # only columns right of the earlier pivots, so go left to right
    for i in range(len(basis)):
        piv_col = next(j for j, x in enumerate(basis[i]) if x)
        p = basis[i][piv_col]
        for k in range(i):
            q = basis[k][piv_col] // p
            if q:
                for j in range(len(basis[k])):
                    basis[k][j] -= q * basis[i][j]
    return basis


@dataclass(slots=True, unsafe_hash=True)
class IntLattice:
    """Sublattice of Z^n spanned by integer rows, held in echelon form."""

    ncols: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: list[list[int]], ncols: int) -> "IntLattice":
        ech = _echelon([list(r) for r in rows])
        return cls(ncols, tuple(tuple(r) for r in ech))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = list(vec)
        for row in self.basis:
            col = next(j for j, x in enumerate(row) if x)
            if v[col] % row[col] != 0:
                return False
            q = v[col] // row[col]
            for j in range(self.ncols):
                v[j] -= q * row[j]
        return not any(v)


class RationalMultGroup:
    """Finitely generated multiplicative subgroup of Q*."""

    def __init__(self, generators):
        gens = [Fraction(g) for g in generators]
        if any(g == 0 for g in gens):
            raise ValueError("zero generator")
        self.basis: tuple[int, ...] = tuple(
            coprime_base([x for g in gens for x in (g.numerator, g.denominator)])
        )
        self.generators: tuple[Fraction, ...] = tuple(gens)
        n = len(self.basis)
        rows = [self._vector(g) for g in gens]
        rows.append([0] * n + [2])  # (-1)^2 = 1
        self._lat = IntLattice.from_rows(rows, n + 1)

    def _vector(self, q: Fraction) -> list[int]:
        """Base exponent vector + sign slot; raises ValueError if q is not
        +- a product of powers of the base (then q is outside the group)."""
        num, den = abs(q.numerator), q.denominator
        vec = [0] * (len(self.basis) + 1)
        for i, b in enumerate(self.basis):
            while num % b == 0:
                num //= b
                vec[i] += 1
            while den % b == 0:
                den //= b
                vec[i] -= 1
        if num != 1 or den != 1:
            raise ValueError(f"{q} is not a product of powers of the group basis")
        vec[-1] = 0 if q > 0 else 1
        return vec

    def contains(self, q) -> bool:
        q = Fraction(q)
        if q == 0:
            return False
        try:
            vec = self._vector(q)
        except ValueError:
            return False
        return self._lat.contains(vec)

    @property
    def exponent_rank(self) -> int:
        return self._lat.rank - 1  # the sign axis adds rank 1: (0,...,0,2) is in it

    def is_trivial(self) -> bool:
        return all(g == 1 for g in self.generators)

    def is_subgroup_of_pm1(self) -> bool:
        return self.exponent_rank == 0

    def is_cyclic(self) -> bool:
        """Cyclic as an abstract group: trivial, {+-1}, or infinite cyclic.

        Rank >= 2 is never cyclic; rank 1 is cyclic unless -1 sits in the
        group with trivial exponent vector alongside a rank-1 lattice (then
        the group is Z x Z/2)."""
        r = self.exponent_rank
        if r >= 2:
            return False
        if r == 0:
            return True
        return not self._lat.contains([0] * len(self.basis) + [1])
