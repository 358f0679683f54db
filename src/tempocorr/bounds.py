"""Certified qubit bounds of the witnesses B1..B4, in the standard library only.

The caps of B1..B4, the bound C1 of B1 and the exact bound C3 of B3 live
here, with the B4 envelope formula that both the C3 certificate and the
numpy profiles of :mod:`tempocorr.witness` evaluate.  Nothing here loads
numpy, so ``tempocorr bounds --which C1`` and ``--which C3`` run without it;
:mod:`tempocorr.witness` re-exports every name below.

C3 is the largest local maximum of the B3 profile on [-1, 1].  Every
critical point of the profile inside (-1, 1) is a root of a degree-10
integer polynomial, whose real roots are isolated exactly by a Sturm
sequence on lists of Fractions and integer bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NoValidRoot

C1_VALUE = 3.0
B2_ANALYTIC_CAP = 3.5
B4_ANALYTIC_CAP = 2.0 + math.sqrt(2.0)
B1_PROJECTIVE_MAX = 1.5 + math.sqrt(2.0)


@dataclass(frozen=True)
class C1Bound:
    """Qubit bound for B1 (3, analytic) and the projective sub-maximum."""

    value: float
    projective_maximum: float


def c1_bound() -> C1Bound:
    return C1Bound(C1_VALUE, B1_PROJECTIVE_MAX)


# --- the B4 envelope ---------------------------------------------------------------

def _envelope(p, x, root):
    """The B4 envelope at ``p`` in [0, 1] and cos gamma ``x`` in [-1, 1],
    floats or numpy arrays, where ``root(v)`` is the square root of ``v``
    clipped at 0.  Every square is written as a product, which rounds alike
    on floats and on float64 arrays, so floats with :func:`_root` give the
    bits that arrays with a numpy root give element by element."""
    pp = p * p
    x0 = 1.0 + p + root(pp + 1.0 + 2.0 * p * x)
    x1 = 3.0 - p + root(pp + 1.0 - 2.0 * p * x)
    px0 = p * x0
    return 0.25 * ((2.0 - p) * x0 + x1 + root(px0 * px0 + x1 * x1 + 2.0 * p * x0 * x1 * x))


def _root(v: float) -> float:
    return math.sqrt(max(v, 0.0))


def _b3_profile(x: float) -> float:
    """The B3 profile, the B4 envelope at p = 1, at one cos gamma in [-1, 1]:
    ``witness.b3_profile(x)`` bit for bit."""
    return _envelope(1.0, x, _root)


def b3_profile_derivative(x: float) -> float:
    """d(b3_profile)/d(cos_gamma), defined on the open interval (-1, 1)."""
    if not -1.0 < x < 1.0:
        raise DomainError("derivative of the B3 profile is defined on (-1, 1)")
    x0 = 2.0 + math.sqrt(2.0 + 2.0 * x)
    x1 = 2.0 + math.sqrt(2.0 - 2.0 * x)
    d0 = 1.0 / math.sqrt(2.0 + 2.0 * x)
    d1 = -1.0 / math.sqrt(2.0 - 2.0 * x)
    radicand = x0 * x0 + x1 * x1 + 2.0 * x0 * x1 * x
    droot = (x0 * d0 + x1 * d1 + (d0 * x1 + x0 * d1) * x + x0 * x1) / math.sqrt(radicand)
    return 0.25 * (d0 + d1 + droot)


# --- the exact C3 root ---------------------------------------------------------------

# Degree-10 polynomial whose relevant root locates the maximum of the B3
# profile; nested form kept verbatim, coefficients read off its value at a
# large power of two.

def nested_polynomial(x):
    return 1 - x * (
        42
        - x * (-531 - 4 * x * (380 - x * (-24 - x * (-762 - x * (481 - 8 * x * (19 - 4 * x * (-3 + 2 * (1 + x) * x)))))))
    )


@lru_cache(maxsize=1)
def expanded_polynomial_coefficients() -> tuple[int, ...]:
    """Ascending integer coefficients of the nested degree-10 polynomial.

    They are the balanced base-2**64 digits of its value at 2**64: no
    coefficient exceeds the nested form with every constant made positive,
    at x = 1, which is 8,666, far below 2**63."""
    base = 2**64
    value, coeffs = nested_polynomial(base), []
    while value:
        digit = (value + base // 2) % base - base // 2
        coeffs.append(digit)
        value = (value - digit) // base
    return tuple(coeffs)


def _sign(coeffs, n: int, d: int) -> int:
    """Sign at n/d, d > 0, of the polynomial with ascending integer ``coeffs``,
    from the integer d**deg * p(n/d)."""
    value, scale = 0, 1
    for c in reversed(coeffs):
        value, scale = value * n + c * scale, scale * d
    return (value > 0) - (value < 0)


def _real_roots(coeffs) -> list[tuple]:
    """Each distinct real root in [-1, 1] of the nonzero polynomial p with
    ascending integer ``coeffs``, ascending, as ``(nearest float, lo, hi)``:
    the only root in (lo, hi] ([-1, hi] for a root at -1), with Fraction
    ends, hi - lo <= 2**-20.  A repeated root is counted once.

    The Sturm sequence of p's square-free part (p, p' and the negated
    remainders of Euclid's algorithm, each divided by gcd(p, p')) is built in
    exact rational arithmetic on coefficient lists, trailing zeros dropped,
    and scaled to integers by positive factors.  By Sturm's theorem (lo, hi]
    holds V(lo) - V(hi) distinct roots, V(x) the sign changes of the
    sequence at x; halving on these counts isolates each root, and halving
    on the exact sign of p at dyadic points narrows it until both ends round
    to the same float or p vanishes at hi.
    """
    from fractions import Fraction  # imported here: only C3 needs it, and it loads decimal

    def trimmed(s):
        while len(s) > 1 and not s[-1]:
            s = s[:-1]
        return s

    def divide(num, den):
        """Quotient and remainder of ``num`` by ``den``, trimmed lists with
        ``len(num) >= len(den)``; the remainder trimmed, at least ``[0]``."""
        rem, quot = list(num), [Fraction(0)] * (len(num) - len(den) + 1)
        for k in reversed(range(len(quot))):
            q = quot[k] = rem[k + len(den) - 1] / den[-1]
            for i, c in enumerate(den):
                rem[k + i] -= q * c
        return quot, trimmed(rem[: len(den) - 1] or [Fraction(0)])

    seq = [trimmed([Fraction(c) for c in coeffs])]
    seq.append([i * c for i, c in enumerate(seq[0])][1:])
    while any(seq[-1]):
        seq.append([-c for c in divide(seq[-2], seq[-1])[1]])
    seq = [divide(s, seq[-2])[0] for s in seq[:-1]]
    scales = [Fraction(math.lcm(*(c.denominator for c in s)), math.gcd(*(c.numerator for c in s))) for s in seq]
    seq = [[int(c * k) for c in s] for s, k in zip(seq, scales)]

    def changes(n, d):
        signs = [s for s in (_sign(c, n, d) for c in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    p, roots = seq[0], []
    # (j / 2**k, (j + 1) / 2**k] with its counts; a root at -1 counts as if -1 were just below it
    v = [changes(-1, 1) + (_sign(p, -1, 1) == 0), changes(0, 1), changes(1, 1)]
    stack = [(0, 0, v[1], v[2], None), (-1, 0, v[0], v[1], None)]
    while stack:
        j, k, v_lo, v_hi, narrow = stack.pop()
        if v_lo - v_hi == 1:
            if narrow is None and k >= 20:
                narrow = (Fraction(j, 2**k), Fraction(j + 1, 2**k))
            s_hi = _sign(p, j + 1, 2**k)
            if narrow and (s_hi == 0 or j / 2**k == (j + 1) / 2**k):
                roots.append(((j + 1) / 2**k, *narrow))
                continue
        if v_lo > v_hi:
            if v_lo - v_hi == 1:  # one root, simple: the signs of p at mid and hi tell its half
                v_mid = v_lo if s_hi == 0 or _sign(p, 2 * j + 1, 2 ** (k + 1)) == -s_hi else v_hi
            else:
                v_mid = changes(2 * j + 1, 2 ** (k + 1))
            stack += [(2 * j + 1, k + 1, v_mid, v_hi, narrow), (2 * j, k + 1, v_lo, v_mid, narrow)]
    return roots


@dataclass(frozen=True)
class C3Bound:
    """Maximum qubit value of B3 with its certificate data.

    ``polynomial_roots`` are the nearest floats of all real roots in [-1, 1]
    of the degree-10 polynomial, isolated in exact arithmetic.  ``certified``
    says that the profile at both ends of [-1, 1] does not exceed ``value``.
    """

    value: float
    cos_gamma_star: float
    certified: bool
    polynomial_roots: tuple[float, ...]


@lru_cache(maxsize=1)
def c3_bound() -> C3Bound:
    """Locate C3 as the maximum of the B3 profile over [-1, 1].

    Every critical point of the profile inside (-1, 1) is a root of the
    degree-10 polynomial, and :func:`_real_roots` isolates them all exactly.
    Squaring steps in the derivation of the polynomial created spurious
    roots, so a root only counts when the unsquared derivative of the B3
    profile goes from positive to negative across its isolating interval,
    inside (-1, 1): a local maximum of the profile.  The largest one,
    checked against both boundary values, is the bound.  The profile is
    evaluated on floats (:func:`_b3_profile`), with the bits of the numpy
    ``witness.b3_profile``.
    """
    roots = _real_roots(expanded_polynomial_coefficients())
    floats = tuple(r for r, _, _ in roots)
    slope = b3_profile_derivative
    candidates = [r for r, lo, hi in roots if -1 < lo and hi < 1 and slope(float(lo)) > 0.0 > slope(float(hi))]
    if not candidates:
        listed = ", ".join(f"{r:.12g}" for r in floats)
        raise NoValidRoot(f"no polynomial root satisfies the derivative condition; roots: {listed}")
    star = max(candidates, key=_b3_profile)
    value = _b3_profile(star)
    return C3Bound(value, star, max(_b3_profile(-1.0), _b3_profile(1.0)) <= value, floats)
