"""Fixed-length base-p digit codes with the ultrametric they induce.

A code is a sequence of K digits, each in [0, p-1], with the root-most
digit at index 0 (place value p^0).  Two codes are compared by the index
of their first differing digit (the valuation); the distance between
them is p**-valuation, which satisfies the strong triangle inequality
d(x, z) <= max(d(x, y), d(y, z)).

Balls group codes by shared prefixes: the ball of depth k around a code
contains every code agreeing with it on the first k digits.  vdp_bound
counts the balls of a full code space, one indicator coefficient each:
the storage the factorized digit heads avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


# Miller-Rabin with the primes up to 41 as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015);
# the primes up to 37 alone are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the prime bases 2..41.

    Args:
        n: integer to test.

    Returns:
        True if n is prime.

    Raises:
        ValueError: n is at least 3.3e24, where these bases no longer
            decide primality (so no codec takes an alphabet that large).

    Examples:
        >>> [x for x in range(2, 20) if is_prime(x)]
        [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot decide whether {n} is prime: the test is exact below 3.3e24")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_geq(n: int) -> int:
    """Smallest prime >= n.

    Args:
        n: lower bound, must be >= 2.

    Returns:
        The least prime not below n.

    Raises:
        ValueError: if n < 2 (no usable alphabet is smaller than 2).

    Examples:
        >>> next_prime_geq(409)
        409
        >>> next_prime_geq(330)
        331
        >>> next_prime_geq(2)
        2
    """
    if n < 2:
        raise ValueError(f"no prime alphabet below 2 (got {n})")
    c = n
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class CodecParams:
    """Alphabet size and code length shared by every code of a hierarchy.

    Attributes:
        p: prime alphabet size; one digit value per possible sibling index
           plus at least one spare.
        K: code length = maximum leaf depth of the encoded hierarchy.
    """

    p: int
    K: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"alphabet size must be prime, got p={self.p}")
        if self.K < 1:
            raise ValueError(f"code length must be >= 1, got K={self.K}")


@dataclass(frozen=True)
class PadicCode:
    """One fixed-length digit sequence under a codec.

    Attributes:
        digits: K digits, root-most first, each in [0, p-1].
        params: the codec this code belongs to.
    """

    digits: tuple[int, ...]
    params: CodecParams

    def __post_init__(self) -> None:
        if len(self.digits) != self.params.K:
            raise ValueError(
                f"expected {self.params.K} digits, got {len(self.digits)}"
            )
        for i, d in enumerate(self.digits):
            if not (0 <= d < self.params.p):
                raise ValueError(
                    f"digit {d} at index {i} outside [0, {self.params.p - 1}]"
                )

    def __str__(self) -> str:
        return code_to_text(self)


def code(digits: Iterable[int], p: int, K: int | None = None) -> PadicCode:
    """Convenience constructor.

    Args:
        digits: digit values, root-most first.
        p: prime alphabet size.
        K: code length; defaults to len(digits).
    """
    ds = tuple(int(d) for d in digits)
    return PadicCode(ds, CodecParams(p, K if K is not None else len(ds)))


def code_to_text(c: PadicCode) -> str:
    """Canonical text form: hyphen-separated digits, root-most first.

    Examples:
        >>> code_to_text(code([0, 2, 1], p=3))
        '0-2-1'
    """
    return "-".join(str(d) for d in c.digits)


def _check_same_codec(a: PadicCode, b: PadicCode) -> None:
    if a.params != b.params:
        raise ValueError(
            f"codec mismatch: {a.params} vs {b.params}; codes are not comparable"
        )


def valuation(a: PadicCode, b: PadicCode) -> int:
    """Index of the first differing digit; K when the codes are equal.

    Args:
        a, b: codes under the same codec.

    Raises:
        ValueError: when the codecs differ.

    Examples:
        >>> valuation(code([0, 1, 2], 3), code([0, 1, 0], 3))
        2
        >>> valuation(code([0, 1], 3), code([0, 1], 3))
        2
    """
    _check_same_codec(a, b)
    for k in range(a.params.K):
        if a.digits[k] != b.digits[k]:
            return k
    return a.params.K


def ultrametric_distance(a: PadicCode, b: PadicCode) -> float:
    """p**-valuation, exactly 0.0 for equal codes.

    For leaves of an encoded hierarchy this equals p**-(LCA depth), so the
    encoding is an isometry onto its image.

    Examples:
        >>> ultrametric_distance(code([0, 0, 1], 2), code([0, 1, 1], 2))
        0.5
        >>> ultrametric_distance(code([1, 0], 3), code([1, 0], 3))
        0.0
    """
    v = valuation(a, b)
    if v == a.params.K:
        return 0.0
    return float(a.params.p) ** -v


@dataclass(frozen=True)
class Ball:
    """All codes sharing the center's first `depth` digits.

    depth=0 is the whole space; depth=K is the singleton {center}.
    """

    center: PadicCode
    depth: int

    def __post_init__(self) -> None:
        if not (0 <= self.depth <= self.center.params.K):
            raise ValueError(
                f"ball depth {self.depth} outside [0, {self.center.params.K}]"
            )

    @property
    def radius(self) -> float:
        """p**-depth, the diameter bound of the ball."""
        return float(self.center.params.p) ** -self.depth


def ball_contains(ball: Ball, x: PadicCode) -> bool:
    """Prefix membership test.

    Examples:
        >>> b = Ball(code([1, 0, 2], 3), depth=2)
        >>> ball_contains(b, code([1, 0, 0], 3))
        True
        >>> ball_contains(b, code([1, 1, 2], 3))
        False
    """
    _check_same_codec(ball.center, x)
    return x.digits[: ball.depth] == ball.center.digits[: ball.depth]


def vdp_bound(p: int, K: int) -> int:
    """Indicator-coefficient count for a full depth-K code space.

    One coefficient per realizable prefix ball: sum of p^j for
    j in [0, K-1] = (p**K - 1) // (p - 1).  Exact arbitrary-precision
    integer; this is the storage the factorized digit heads avoid.

    Examples:
        >>> vdp_bound(2, 3)
        7
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return (p**K - 1) // (p - 1)


__all__ = [
    "Ball",
    "CodecParams",
    "PadicCode",
    "ball_contains",
    "code",
    "code_to_text",
    "is_prime",
    "next_prime_geq",
    "ultrametric_distance",
    "valuation",
    "vdp_bound",
]
