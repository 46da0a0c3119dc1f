"""Codes, valuation metric, balls, and the coefficient bound."""

import math
from itertools import combinations, product

import numpy as np
import pytest

from hipan import (
    Ball,
    CodecParams,
    PadicCode,
    ball_contains,
    code,
    code_to_text,
    is_prime,
    next_prime_geq,
    ultrametric_distance,
    valuation,
    vdp_bound,
)


def _sieve(limit):
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def test_is_prime_matches_sieve():
    flags = _sieve(2000)
    for n in range(2000):
        assert is_prime(n) == bool(flags[n]), n
    assert not is_prime(-7)


def test_is_prime_miller_rabin_edges():
    # the least strong pseudoprime to the bases 2..37, and 2^64 + 13
    assert not is_prime(318665857834031151167461)
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(18446744073709551629)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    with pytest.raises(ValueError, match="3.3e24"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        CodecParams(2**89 - 1, 1)


def test_next_prime_geq():
    assert next_prime_geq(2) == 2
    assert next_prime_geq(3) == 3
    assert next_prime_geq(4) == 5
    assert next_prime_geq(14) == 17
    assert next_prime_geq(330) == 331
    assert next_prime_geq(409) == 409


def test_next_prime_geq_rejects_below_two():
    for n in (1, 0, -5):
        with pytest.raises(ValueError):
            next_prime_geq(n)


def test_codec_validation():
    CodecParams(2, 1)
    CodecParams(409, 18)
    with pytest.raises(ValueError):
        CodecParams(4, 2)
    with pytest.raises(ValueError):
        CodecParams(1, 2)
    with pytest.raises(ValueError):
        CodecParams(3, 0)


def test_code_validation():
    codec = CodecParams(3, 2)
    PadicCode((0, 2), codec)
    with pytest.raises(ValueError):
        PadicCode((0,), codec)
    with pytest.raises(ValueError):
        PadicCode((0, 3), codec)
    with pytest.raises(ValueError):
        PadicCode((-1, 0), codec)


def test_code_helper():
    c = code([0, 1, 2], 3)
    assert c.params == CodecParams(3, 3)
    assert c.digits == (0, 1, 2)
    # explicit K must still match the digit count
    assert code([1, 0], 5, K=2).params.K == 2
    with pytest.raises(ValueError):
        code([1, 0], 5, K=3)


def test_code_text_round_trip():
    c = code([0, 2, 1], 3)
    assert code_to_text(c) == "0-2-1"
    assert str(c) == "0-2-1"


def test_valuation():
    assert valuation(code([0, 1, 2], 3), code([0, 1, 0], 3)) == 2
    assert valuation(code([1, 1], 3), code([0, 1], 3)) == 0
    # equal codes exhaust all digits
    assert valuation(code([0, 1], 3), code([0, 1], 3)) == 2
    a, b = code([0, 2], 3), code([2, 2], 3)
    assert valuation(a, b) == valuation(b, a)


def test_valuation_codec_mismatch():
    with pytest.raises(ValueError):
        valuation(code([0, 1], 3), code([0, 1], 5))
    with pytest.raises(ValueError):
        ultrametric_distance(code([0], 3), code([0, 0], 3))


def test_distance():
    assert ultrametric_distance(code([0, 0, 1], 2), code([0, 1, 1], 2)) == 0.5
    assert ultrametric_distance(code([1, 0], 3), code([1, 0], 3)) == 0.0
    assert ultrametric_distance(code([0, 0], 3), code([1, 0], 3)) == 1.0
    assert ultrametric_distance(code([0, 0], 3), code([0, 1], 3)) == pytest.approx(1 / 3)
    a, b = code([2, 0, 4], 5), code([2, 3, 4], 5)
    assert ultrametric_distance(a, b) == ultrametric_distance(b, a) == 0.2


def test_strong_triangle_exhaustive():
    # every triple in {0,1,2}^3 satisfies d(x,z) <= max(d(x,y), d(y,z))
    codes = [code(ds, 3) for ds in product(range(3), repeat=3)]
    for x, y, z in combinations(codes, 3):
        dxz = ultrametric_distance(x, z)
        dxy = ultrametric_distance(x, y)
        dyz = ultrametric_distance(y, z)
        assert dxz <= max(dxy, dyz)


def test_ball_basics():
    c = code([1, 0, 2], 3)
    b = Ball(c, depth=2)
    assert b.radius == pytest.approx(1 / 9)
    assert ball_contains(b, code([1, 0, 0], 3))
    assert not ball_contains(b, code([1, 1, 2], 3))
    # depth 0 is the whole space, depth K the singleton
    assert ball_contains(Ball(c, 0), code([2, 2, 2], 3))
    assert ball_contains(Ball(c, 3), c)
    assert not ball_contains(Ball(c, 3), code([1, 0, 1], 3))


def test_ball_depth_validation():
    c = code([1, 0], 3)
    with pytest.raises(ValueError):
        Ball(c, -1)
    with pytest.raises(ValueError):
        Ball(c, 3)


def test_ball_codec_mismatch():
    with pytest.raises(ValueError):
        ball_contains(Ball(code([1, 0], 3), 1), code([1, 0], 5))


def test_vdp_bound():
    assert vdp_bound(2, 3) == 7
    assert vdp_bound(3, 1) == 1
    assert vdp_bound(3, 2) == 4
    assert vdp_bound(5, 4) == 156
    big = vdp_bound(409, 18)
    assert big == sum(409**j for j in range(18))
    assert isinstance(big, int)


def test_vdp_bound_validation():
    with pytest.raises(ValueError):
        vdp_bound(4, 3)
    with pytest.raises(ValueError):
        vdp_bound(3, 0)


def test_distance_is_power_of_p():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = int(rng.choice([2, 3, 5, 7]))
        K = int(rng.integers(1, 7))
        a = code(rng.integers(0, p, size=K), p)
        b = code(rng.integers(0, p, size=K), p)
        d = ultrametric_distance(a, b)
        if a == b:
            assert d == 0.0
        else:
            v = valuation(a, b)
            assert d == float(p) ** -v
            assert 0 <= v < K
            assert math.log(d, p) == pytest.approx(-v)
