"""Exact rational arithmetic for the Lebesgue exponent families.

Three exponent families govern which L^p norms control the order-k uniformity
apparatus::

    p_k = 2^k / (k + 1)          norm domination of U(k)
    q_k = (2^k - 1) / k          domination of cubic convolution products
    s_k = 2^k / (2^k - k - 1)    Hoelder conjugate of p_k; dual-space exponent

Exponents are carried as :class:`fractions.Fraction` so conjugacy identities
hold exactly; callers convert to float only at norm-evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def holder_conjugate(p):
    """Return the Hoelder conjugate ``p / (p - 1)`` as an exact Fraction.

    Raises ValueError for ``p <= 1`` (the conjugate would be infinite or
    negative).
    """
    p = Fraction(p)
    if p <= 1:
        raise ValueError(f"Hoelder conjugate requires p > 1, got {p}")
    return p / (p - 1)


@dataclass(frozen=True)
class ExponentTriple:
    """The exact exponent triple ``(p_k, q_k, s_k)`` for one order ``k >= 2``."""

    k: int
    p: Fraction
    q: Fraction
    s: Fraction

    @property
    def p_float(self):
        return float(self.p)

    @property
    def q_float(self):
        return float(self.q)

    @property
    def s_float(self):
        return float(self.s)

    def as_dict(self):
        """JSON-friendly view: exact fractions as strings plus decimals."""
        return {
            "k": self.k,
            "p": str(self.p),
            "q": str(self.q),
            "s": str(self.s),
            "p_float": self.p_float,
            "q_float": self.q_float,
            "s_float": self.s_float,
        }


def exponent_triple(k):
    """Build the exact :class:`ExponentTriple` for integer order ``k >= 2``.

    ``k < 2`` is rejected: ``2^k - k - 1 <= 0`` there, so ``s_k`` is undefined
    or negative.
    """
    k = int(k)
    if k < 2:
        raise ValueError(f"exponent triple requires k >= 2, got {k}")
    two_k = 1 << k
    p = Fraction(two_k, k + 1)
    q = Fraction(two_k - 1, k)
    s = Fraction(two_k, two_k - k - 1)
    assert s == holder_conjugate(p)
    return ExponentTriple(k=k, p=p, q=q, s=s)
