"""Bit-accurate floating-point tests, including a Fraction-exact oracle."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.verify.profiles import active_profile, property_settings

from repro.matchlib import BF16, FP16, FP32, FloatSpec, fp_add, fp_mul, fp_mul_add

TINY = FloatSpec(exp_bits=4, man_bits=3)  # exhaustively testable format


# ----------------------------------------------------------------------
# format plumbing
# ----------------------------------------------------------------------
def test_spec_widths():
    assert FP32.width == 32
    assert FP16.width == 16
    assert BF16.width == 16
    assert FP32.bias == 127
    assert FP16.bias == 15


def test_spec_validation():
    with pytest.raises(ValueError):
        FloatSpec(exp_bits=1, man_bits=3)
    with pytest.raises(ValueError):
        FloatSpec(exp_bits=4, man_bits=0)


def test_special_value_predicates():
    for spec in (FP16, FP32, TINY):
        assert spec.is_inf(spec.inf())
        assert spec.is_inf(spec.inf(1))
        assert spec.is_nan(spec.nan())
        assert spec.is_zero(spec.zero())
        assert spec.is_zero(spec.zero(1))
        assert not spec.is_nan(spec.inf())
        assert not spec.is_inf(spec.nan())


def test_decode_special_values():
    assert FP32.decode(FP32.inf()) == float("inf")
    assert FP32.decode(FP32.inf(1)) == float("-inf")
    assert math.isnan(FP32.decode(FP32.nan()))
    assert FP32.decode(FP32.zero()) == 0.0


def fp32_bits(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


@pytest.mark.parametrize("value", [
    0.0, 1.0, -1.0, 0.5, 2.0, 3.14159, -2.71828, 1e-30, 1e30,
    1.1754943508222875e-38,   # smallest normal
    1e-40,                    # subnormal
    3.4028234663852886e38,    # largest normal
])
def test_fp32_encode_matches_ieee754(value):
    assert FP32.encode(value) == fp32_bits(value)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
@property_settings(scale=3)
def test_fp32_encode_decode_roundtrip_hypothesis(value):
    bits = FP32.encode(value)
    assert bits == fp32_bits(value)
    assert FP32.decode(bits) == value


# ----------------------------------------------------------------------
# exact oracle on the tiny format
# ----------------------------------------------------------------------
def _tiny_exact(bits: int):
    """Decode a TINY pattern to an exact Fraction (or a special marker)."""
    sign, exp, man = TINY.fields(bits)
    if exp == TINY.exp_max:
        return "nan" if man else ("-inf" if sign else "+inf")
    if exp == 0:
        frac = Fraction(man, 1) * Fraction(2) ** (1 - TINY.bias - TINY.man_bits)
    else:
        frac = Fraction(man + 8, 1) * Fraction(2) ** (exp - TINY.bias - TINY.man_bits)
    return -frac if sign else frac


def _tiny_round(value: Fraction, sign_hint: int) -> int:
    """Round an exact Fraction to TINY with RNE (the oracle)."""
    if value == 0:
        return TINY.zero(0)
    sign = 1 if value < 0 else 0
    mag = abs(value)
    # Find all representable magnitudes (finite TINY values are few).
    reps = sorted({abs(_tiny_exact(b)) for b in range(1 << TINY.width)
                   if isinstance(_tiny_exact(b), Fraction)})
    max_rep = reps[-1]
    # IEEE overflow rule: round to inf past max + 1/2 ulp.
    ulp = max_rep - reps[-2]
    if mag >= max_rep + ulp / 2:
        return TINY.inf(sign)
    # Nearest representable; ties to even mantissa.
    below = max((r for r in reps if r <= mag), default=Fraction(0))
    above = min((r for r in reps if r >= mag), default=max_rep)
    if mag - below < above - mag:
        choice = below
    elif above - mag < mag - below:
        choice = above
    else:
        # Tie: pick the one with even mantissa field.
        def bits_of(r):
            for b in range(1 << TINY.width):
                v = _tiny_exact(b)
                if isinstance(v, Fraction) and abs(v) == r and v >= 0:
                    return b
            raise AssertionError
        choice = below if bits_of(below) % 2 == 0 else above
    for b in range(1 << TINY.width):
        v = _tiny_exact(b)
        if isinstance(v, Fraction) and abs(v) == choice and (v < 0) == bool(sign):
            return b
        if choice == 0 and isinstance(v, Fraction) and v == 0:
            return TINY.zero(sign)
    raise AssertionError("unreachable")


def _finite_tiny_patterns():
    return [b for b in range(1 << TINY.width)
            if isinstance(_tiny_exact(b), Fraction)]


#: Pair stride per ``REPRO_HYPOTHESIS_PROFILE`` tier.  The Fraction
#: oracle is deliberately naive (and slow), so the 240 x 240 finite
#: pairs are subsampled: every ``s``-th pattern on the left, and on the
#: right every ``s``-th from an offset that rotates with the left
#: operand, so each pattern still appears there.  ``ci`` is the stride
#: this test always ran at (6400 pairs per op); ``dev`` makes the same
#: exact-equality assertion on ~730; ``thorough`` is truly exhaustive.
_PAIR_STRIDE = {"dev": 9, "ci": 3, "thorough": 1}


@pytest.mark.parametrize("op", ["mul", "add"])
def test_tiny_format_exhaustive_against_fraction_oracle(op):
    """Every finite x finite pair in the tiny format, checked exactly."""
    patterns = _finite_tiny_patterns()
    step = _PAIR_STRIDE[active_profile()]
    for i, a in enumerate(patterns[::step]):
        for b in patterns[i % step::step]:
            ea, eb = _tiny_exact(a), _tiny_exact(b)
            if op == "mul":
                got = fp_mul(TINY, a, b)
                want = _tiny_round(ea * eb, 0)
            else:
                got = fp_add(TINY, a, b)
                want = _tiny_round(ea + eb, 0)
            if TINY.is_zero(got) and TINY.is_zero(want):
                continue  # signed-zero differences are acceptable
            assert got == want, (
                f"{op}({TINY.decode(a)}, {TINY.decode(b)}): "
                f"got {TINY.decode(got)}, want {TINY.decode(want)}"
            )


# ----------------------------------------------------------------------
# IEEE special-case algebra
# ----------------------------------------------------------------------
def test_mul_special_cases():
    one = FP32.encode(1.0)
    assert fp_mul(FP32, FP32.nan(), one) == FP32.nan()
    assert fp_mul(FP32, FP32.inf(), one) == FP32.inf()
    assert fp_mul(FP32, FP32.inf(), FP32.encode(-2.0)) == FP32.inf(1)
    assert FP32.is_nan(fp_mul(FP32, FP32.inf(), FP32.zero()))


def test_add_special_cases():
    one = FP32.encode(1.0)
    assert fp_add(FP32, FP32.nan(), one) == FP32.nan()
    assert fp_add(FP32, FP32.inf(), one) == FP32.inf()
    assert FP32.is_nan(fp_add(FP32, FP32.inf(), FP32.inf(1)))
    assert fp_add(FP32, FP32.inf(1), FP32.inf(1)) == FP32.inf(1)


def test_add_exact_cancellation_is_positive_zero():
    a = FP32.encode(1.5)
    b = FP32.encode(-1.5)
    assert fp_add(FP32, a, b) == FP32.zero(0)


def test_mul_add_special_cases():
    one = FP32.encode(1.0)
    assert fp_mul_add(FP32, FP32.nan(), one, one) == FP32.nan()
    assert FP32.is_nan(fp_mul_add(FP32, FP32.inf(), FP32.zero(), one))
    # inf*1 + (-inf) = nan
    assert FP32.is_nan(fp_mul_add(FP32, FP32.inf(), one, FP32.inf(1)))
    assert fp_mul_add(FP32, FP32.inf(), one, FP32.inf()) == FP32.inf()
    assert fp_mul_add(FP32, one, one, FP32.inf(1)) == FP32.inf(1)


# ----------------------------------------------------------------------
# fused vs unfused rounding
# ----------------------------------------------------------------------
def test_fma_single_rounding_differs_from_two_roundings():
    """Classic FMA witness: a*b+c where the product rounds away info."""
    spec = FP16
    a = spec.encode(1.0009765625)      # 1 + 2^-10 (odd mantissa lsb)
    b = spec.encode(1.0009765625)
    c = spec.encode(-1.001953125)      # -(1 + 2^-9)
    fused = fp_mul_add(spec, a, b, c)
    unfused = fp_add(spec, fp_mul(spec, a, b), c)
    # Exact: (1+2^-10)^2 - (1+2^-9) = 2^-20; the unfused path loses it.
    assert spec.decode(fused) == 2.0 ** -20
    assert spec.decode(unfused) == 0.0


@given(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
@property_settings(scale=2)
def test_fp32_mul_matches_python_float(a, b):
    """FP32 with RNE is exactly Python's double rounded to single."""
    bits = fp_mul(FP32, FP32.encode(a), FP32.encode(b))
    af = FP32.decode(FP32.encode(a))
    bf = FP32.decode(FP32.encode(b))
    want = struct.unpack("<f", struct.pack("<f", af * bf))[0]
    assert FP32.decode(bits) == pytest.approx(want, rel=1e-7, abs=1e-38)


@given(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
@property_settings(scale=2)
def test_fp32_add_matches_python_float(a, b):
    bits = fp_add(FP32, FP32.encode(a), FP32.encode(b))
    af = FP32.decode(FP32.encode(a))
    bf = FP32.decode(FP32.encode(b))
    want = struct.unpack("<f", struct.pack("<f", af + bf))[0]
    assert FP32.decode(bits) == pytest.approx(want, rel=1e-7, abs=1e-38)


def test_overflow_rounds_to_inf():
    big = FP16.encode(60000.0)
    assert FP16.is_inf(fp_mul(FP16, big, big))


def test_underflow_to_subnormal_and_zero():
    tiny = FP16.encode(2.0 ** -14)  # smallest normal
    half = FP16.encode(0.5)
    sub = fp_mul(FP16, tiny, half)
    assert FP16.decode(sub) == 2.0 ** -15  # subnormal
    zero = fp_mul(FP16, sub, FP16.encode(2.0 ** -12))
    assert FP16.is_zero(zero)
