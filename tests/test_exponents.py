from fractions import Fraction

import pytest

from ghk import exponent_triple, holder_conjugate


class TestExponentTriple:
    @pytest.mark.parametrize(
        "k,p,q,s",
        [
            (2, Fraction(4, 3), Fraction(3, 2), Fraction(4)),
            (3, Fraction(2), Fraction(7, 3), Fraction(2)),
            (4, Fraction(16, 5), Fraction(15, 4), Fraction(16, 11)),
        ],
    )
    def test_known_triples(self, k, p, q, s):
        t = exponent_triple(k)
        assert (t.p, t.q, t.s) == (p, q, s)

    def test_rejects_small_k(self):
        for k in (1, 0, -3):
            with pytest.raises(ValueError):
                exponent_triple(k)

    def test_conjugacy_exact_up_to_20(self):
        for k in range(2, 21):
            t = exponent_triple(k)
            assert 1 / t.p + 1 / t.s == 1
            assert holder_conjugate(t.p) == t.s

    def test_p_strictly_increasing(self):
        ps = [exponent_triple(k).p for k in range(2, 21)]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_all_at_least_one(self):
        for k in range(2, 21):
            t = exponent_triple(k)
            assert t.p >= 1 and t.q >= 1 and t.s >= 1

    def test_k3_self_dual(self):
        t = exponent_triple(3)
        assert t.p == t.s == 2

    def test_float_accessors(self):
        t = exponent_triple(2)
        assert t.p_float == pytest.approx(4 / 3)
        assert t.s_float == 4.0

    def test_as_dict_strings(self):
        d = exponent_triple(3).as_dict()
        assert d["p"] == "2" and d["q"] == "7/3" and d["s"] == "2"


class TestHolderConjugate:
    def test_self_conjugate(self):
        assert holder_conjugate(2) == Fraction(2)

    def test_four_thirds(self):
        assert holder_conjugate(Fraction(4, 3)) == 4

    def test_sixteen_fifths(self):
        assert holder_conjugate(Fraction(16, 5)) == Fraction(16, 11)

    def test_rejects_p_at_most_one(self):
        for p in (1, Fraction(1), 0.5, -2):
            with pytest.raises(ValueError):
                holder_conjugate(p)
