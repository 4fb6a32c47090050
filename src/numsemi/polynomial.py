"""Sparse integer polynomials as {degree: coefficient} maps.

Everything here is exact: coefficients are Python ints, evaluation accepts
ints or Fractions.  Zero coefficients are never stored.
"""

from __future__ import annotations


class SparsePolynomial:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for deg, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if deg < 0:
                    raise ValueError(f"negative degree {deg}")
                c = t.get(deg, 0) + coeff
                if c:
                    t[deg] = c
                elif deg in t:
                    del t[deg]
        self._terms = t

    # construction helpers

    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "SparsePolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, deg: int, coeff: int = 1) -> "SparsePolynomial":
        return cls({deg: coeff} if coeff else {})

    @classmethod
    def one_minus_z(cls, k: int) -> "SparsePolynomial":
        """1 - z^k (zero for k = 0)."""
        return cls([(0, 1), (k, -1)])

    @classmethod
    def geometric(cls, k: int) -> "SparsePolynomial":
        """1 + z + ... + z^(k-1)."""
        return cls({i: 1 for i in range(k)})

    @classmethod
    def from_exponents(cls, exps) -> "SparsePolynomial":
        """Sum of z^e over the (multi)set of exponents."""
        p = cls()
        t = p._terms
        for e in exps:
            t[e] = t.get(e, 0) + 1
        return p

    # views

    def items(self):
        """(degree, coeff) pairs in increasing degree."""
        return sorted(self._terms.items())

    def coeff(self, deg: int) -> int:
        return self._terms.get(deg, 0)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def is_zero(self) -> bool:
        return not self._terms

    def num_monomials(self) -> int:
        return len(self._terms)

    def nonzero_count(self) -> int:
        # Terms counted with multiplicity: sum of |coeff|.  A 2*z^e term is
        # two monomials that happened to land on the same degree.
        return sum(abs(c) for c in self._terms.values())

    # arithmetic

    def __add__(self, other):
        t = dict(self._terms)
        for d, c in other._terms.items():
            s = t.get(d, 0) + c
            if s:
                t[d] = s
            elif d in t:
                del t[d]
        out = SparsePolynomial.__new__(SparsePolynomial)
        out._terms = t
        return out

    def __neg__(self):
        out = SparsePolynomial.__new__(SparsePolynomial)
        out._terms = {d: -c for d, c in self._terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            out = SparsePolynomial.__new__(SparsePolynomial)
            out._terms = {d: c * other for d, c in self._terms.items()} if other else {}
            return out
        # iterate over the smaller factor
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        t = {}
        for da, ca in a.items():
            for db, cb in b.items():
                d = da + db
                s = t.get(d, 0) + ca * cb
                if s:
                    t[d] = s
                elif d in t:
                    del t[d]
        out = SparsePolynomial.__new__(SparsePolynomial)
        out._terms = t
        return out

    __rmul__ = __mul__

    def times_one_minus_z(self, k: int) -> "SparsePolynomial":
        """Multiply by 1 - z^k in one pass: t[d + k] -= c over a copy."""
        if k < 0:
            raise ValueError(f"negative degree {k}")
        t = dict(self._terms)
        for d, c in self._terms.items():
            s = t.get(d + k, 0) - c
            if s:
                t[d + k] = s
            else:
                del t[d + k]
        out = SparsePolynomial.__new__(SparsePolynomial)
        out._terms = t
        return out

    def eval_at(self, x):
        """Exact evaluation; x may be int or Fraction."""
        if x == 1:  # common case in genus work
            return sum(self._terms.values())
        return sum(c * x ** d for d, c in self._terms.items())

    def __eq__(self, other):
        return isinstance(other, SparsePolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"SparsePolynomial({self.format()!r})"

    def format(self) -> str:
        """Human form like '1 - z^8 - z^9 + 2*z^90'."""
        if not self._terms:
            return "0"
        parts = []
        for d, c in self.items():
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                zz = "z" if d == 1 else f"z^{d}"
                body = zz if mag == 1 else f"{mag}*{zz}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

