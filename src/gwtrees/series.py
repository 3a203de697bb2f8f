"""Truncated power series as plain coefficient lists.

A series of order N is a list of N+1 coefficients (Fraction for exact work,
float otherwise).  All operations are exact up to the truncation order when
the coefficients are exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

Coeffs = list


def add(a: Sequence, b: Sequence) -> Coeffs:
    if len(a) != len(b):
        raise ValueError("order mismatch")
    return [x + y for x, y in zip(a, b)]


def sub(a: Sequence, b: Sequence) -> Coeffs:
    if len(a) != len(b):
        raise ValueError("order mismatch")
    return [x - y for x, y in zip(a, b)]


def scale(c, a: Sequence) -> Coeffs:
    return [c * x for x in a]


def mul(a: Sequence, b: Sequence) -> Coeffs:
    """Cauchy product truncated to the common order."""
    if len(a) != len(b):
        raise ValueError("order mismatch")
    n = len(a)
    out = [a[0] * b[0] * 0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(n - i):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return out


def reciprocal(a: Sequence) -> Coeffs:
    """Multiplicative inverse of a series with non-zero constant term."""
    if a[0] == 0:
        raise ZeroDivisionError("series has zero constant term")
    n = len(a)
    inv0 = Fraction(1) / a[0] if isinstance(a[0], Fraction) else 1.0 / a[0]
    out = [inv0]
    for m in range(1, n):
        acc = a[0] * 0
        for k in range(1, m + 1):
            ak = a[k] if k < n else 0
            if ak != 0:
                acc += ak * out[m - k]
        out.append(-acc * inv0)
    return out
