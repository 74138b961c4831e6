"""Exact half-integer label arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from poincare_cgc import TwoParticleSpec, all_basis_states, build_grid
from poincare_cgc.halfint import (
    HalfInt,
    compatible,
    component_index,
    components,
    hrange,
    triangle_rule,
)


def test_twice_storage_and_of():
    assert HalfInt(3) == HalfInt.of(1.5)
    assert HalfInt(2) == HalfInt.of(1)
    assert HalfInt.of(HalfInt(5)) is HalfInt.of(HalfInt(5)) or HalfInt.of(
        HalfInt(5)
    ) == HalfInt(5)
    assert float(HalfInt(-1)) == -0.5
    assert int(HalfInt(4)) == 2


@pytest.mark.parametrize("bad", [0.3, 0.25, 1.01])
def test_of_rejects_non_half_integers(bad):
    with pytest.raises(ValueError):
        HalfInt.of(bad)


@pytest.mark.parametrize("bad", [0.5000001, 1e-7, 1 / 3])
def test_of_does_not_round(bad):
    """Values within a rounding distance of a half-integer are rejected, not snapped."""
    with pytest.raises(ValueError, match="not a half-integer"):
        HalfInt.of(bad)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan"), np.float64("inf")],
                         ids=["inf", "-inf", "nan", "numpy-inf"])
def test_of_rejects_non_finite_values(bad):
    """NaN and the infinities are not half-integers: ValueError, not the
    OverflowError or the integer-ratio message of Fraction."""
    with pytest.raises(ValueError, match="not a half-integer"):
        HalfInt.of(bad)


def test_non_finite_spins_fail_at_the_api_boundary():
    """An infinite j_max or constituent spin raises the same ValueError."""
    spec = TwoParticleSpec.fermion_pair(1.0)
    with pytest.raises(ValueError, match="not a half-integer"):
        all_basis_states(build_grid(4, 8), spec, 9.0, float("inf"), "spin-orbit")
    with pytest.raises(ValueError, match="not a half-integer"):
        TwoParticleSpec(1, 1, float("inf"), 0.5)


@pytest.mark.parametrize("text", ["0.5", " 1/2 ", "1", "3/2"])
def test_strings_are_not_half_integers(text):
    """A string is not a spin label, even one Fraction can read: HalfInt.of,
    a pair's spins and a basis's j_max raise the half-integer ValueError,
    and a HalfInt never equals a string."""
    with pytest.raises(ValueError, match="is not a half-integer"):
        HalfInt.of(text)
    with pytest.raises(ValueError, match="is not a half-integer"):
        TwoParticleSpec(1, 1, text, 0.5)
    spec = TwoParticleSpec.fermion_pair(1.0)
    with pytest.raises(ValueError, match="is not a half-integer"):
        all_basis_states(build_grid(4, 8), spec, 9.0, text, "spin-orbit")
    half = HalfInt.of(Fraction(text.strip()))
    assert half != text and not half == text


@pytest.mark.parametrize("twice", [3, np.int64(3), np.int8(3), True])
def test_twice_is_stored_as_a_plain_int(twice):
    """Plain ints take the fast path; numpy integers and bools take the
    Integral check and are stored as int."""
    half = HalfInt(twice)
    assert type(half.twice) is int and half.twice == int(twice)


@pytest.mark.parametrize(
    "value, twice",
    [(1.5, 3), (-0.5, -1), (Fraction(3, 2), 3), (np.float64(2.5), 5), (np.int64(2), 4)],
)
def test_of_converts_exact_half_integers(value, twice):
    assert HalfInt.of(value) == HalfInt(twice)


def test_twice_must_be_integral():
    with pytest.raises(TypeError):
        HalfInt(1.5)


def test_int_of_half_odd_raises():
    with pytest.raises(ValueError):
        int(HalfInt(1))


def test_arithmetic_and_comparison():
    assert HalfInt(1) + HalfInt(1) == HalfInt(2)
    assert HalfInt(3) - 1 == HalfInt(1)
    assert 2 - HalfInt(1) == HalfInt(3)
    assert -HalfInt(3) == HalfInt(-3)
    assert abs(HalfInt(-5)) == HalfInt(5)
    assert HalfInt(1) < HalfInt(2) <= HalfInt(2) < 1.5
    assert HalfInt(0) == 0 and not HalfInt(0)
    assert HalfInt(2) == 1.0


def test_hash_matches_numeric_value():
    assert hash(HalfInt(2)) == hash(1) == hash(1.0)
    assert {HalfInt(1): "a"}[0.5] == "a"


def test_str_forms():
    assert str(HalfInt(2)) == "1"
    assert str(HalfInt(-3)) == "-3/2"


def test_hrange_inclusive_unit_steps():
    assert hrange(0.5, 2.5) == [HalfInt(1), HalfInt(3), HalfInt(5)]
    assert hrange(1, 1) == [HalfInt(2)]
    assert hrange(1, 0) == []


def test_components_descending():
    assert components(1) == [HalfInt(2), HalfInt(0), HalfInt(-2)]
    assert components(0.5) == [HalfInt(1), HalfInt(-1)]
    assert len(components(HalfInt(7))) == 8


@pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 2])
def test_component_index_enumerates_rows(j):
    comps = components(j)
    for idx, m in enumerate(comps):
        assert component_index(j, m) == idx


def test_component_index_rejects_incompatible():
    with pytest.raises(ValueError):
        component_index(1, 0.5)
    with pytest.raises(ValueError):
        component_index(1, 2)
    assert compatible(1, 1) and not compatible(1, 1.5)


def test_triangle_rule():
    assert triangle_rule(0.5, 0.5, 1)
    assert triangle_rule(0.5, 0.5, 0)
    assert not triangle_rule(0.5, 0.5, 0.5)
    assert not triangle_rule(1, 1, 3)
    assert triangle_rule(2, 1, 1)
