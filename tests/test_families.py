import numpy as np
import pytest

from ghk import lp_norm
from ghk.exponents import exponent_triple
from ghk.families import FAMILIES, random_function, random_tuple, unit_p_norm

from oracles import integral_oracle


class TestRandomFunction:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic(self, family):
        a = random_function(family, 1, 8, 0.25, 42)
        b = random_function(family, 1, 8, 0.25, 42)
        assert a == b

    @pytest.mark.parametrize("family", FAMILIES)
    def test_seed_sensitivity(self, family):
        a = random_function(family, 1, 8, 0.25, 1)
        b = random_function(family, 1, 8, 0.25, 2)
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("family", ["indicator-box", "tent", "gaussian-bump",
                                        "random-nonneg"])
    def test_nonneg_families(self, family):
        for seed in range(10):
            f = random_function(family, 1, 8, 0.25, seed)
            assert f.values.min() >= 0.0

    def test_signed_family_has_both_signs(self):
        f = random_function("random-signed", 1, 64, 0.25, 3)
        assert f.values.min() < 0 < f.values.max()

    def test_gaussian_integral_positive_and_matches_oracle(self):
        f = random_function("gaussian-bump", 2, 6, 0.5, 17)
        from ghk import integral

        got = integral(f)
        assert got > 0
        assert got == pytest.approx(integral_oracle(f.values, f.spacing), rel=1e-13)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            random_function("perlin", 1, 8, 0.25, 0)

    def test_dimensions(self):
        for d in (1, 2, 3):
            f = random_function("random-nonneg", d, 4, 0.5, 9)
            assert f.dim == d and f.extents == (4,) * d

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_function("tent", 0, 8, 0.25, 0)
        with pytest.raises(ValueError):
            random_function("tent", 1, 0, 0.25, 0)


class TestRandomTuple:
    def test_member_count(self):
        fs = random_tuple("random-nonneg", 2, 1, 6, 0.25, 1)
        assert len(fs.functions) == 4
        fsp = random_tuple("random-nonneg", 2, 1, 6, 0.25, 1, punctured=True)
        assert len(fsp.functions) == 3

    def test_members_independent(self):
        fs = random_tuple("random-nonneg", 2, 1, 6, 0.25, 1)
        a, b = fs.functions[0], fs.functions[1]
        assert not np.array_equal(a.values, b.values)

    def test_deterministic(self):
        a = random_tuple("tent", 3, 1, 5, 0.2, 7, punctured=True)
        b = random_tuple("tent", 3, 1, 5, 0.2, 7, punctured=True)
        assert all(x == y for x, y in zip(a, b))


class TestUnitPNorm:
    def test_normalizes(self):
        f = random_function("random-nonneg", 1, 8, 0.25, 11)
        g = unit_p_norm(f, 2)
        assert lp_norm(g, exponent_triple(2).p_float) == pytest.approx(1.0, rel=1e-12)

    def test_zero_passthrough(self):
        from ghk import scale

        z = scale(random_function("tent", 1, 4, 1.0, 0), 0.0)
        assert unit_p_norm(z, 2) == z
