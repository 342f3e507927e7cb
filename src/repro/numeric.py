"""Numeric kernels ported bit for bit from their reference implementations.

The library needs two classical routines: the standard normal quantile
(:func:`ndtri`, for the endurance model's order statistics) and a bracketed
scalar root finder (:func:`brentq`, for the synthetic-trace calibrations).
Both are small, so they live here on numpy and the standard library alone
instead of pulling in a large scientific stack at import time.

Each port follows its reference line for line — the Cephes ``ndtri`` routine
and the C ``brentq`` of the standard scientific Python stack, which the test
suite uses as oracles — so results are identical to the last bit, and every
seeded output built on them (golden traces, digests, hash pins) is the same
as when the reference computed it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

__all__ = ["ndtri", "brentq"]

#: ``sqrt(2 pi)``.
_S2PI = 2.50662827463100050242e0
#: ``exp(-2)``: below it (and above ``1 - exp(-2)``) the tail branch applies.
_EXP_M2 = 0.13533528323661269189

# Approximation for 0 <= |y - 0.5| <= 3/8.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# Approximation for z = sqrt(-2 log y) in [2, 8), i.e. y down to exp(-32).
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# Approximation for z = sqrt(-2 log y) in [8, 64], i.e. y down to exp(-2048).
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule, highest-degree coefficient first."""
    ans = x * coef[0] + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(values: np.ndarray) -> np.ndarray:
    """Element-wise natural log through the C library's ``log``.

    numpy's SIMD ``np.log`` is not correctly rounded and disagrees with libm
    by one ulp on a small share of inputs; Cephes calls libm, so the tail
    branch must too to stay bit-identical.
    """
    return np.fromiter(map(math.log, values.tolist()), dtype=np.float64,
                       count=values.size)


def ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile ``Phi^-1(p)``, element-wise, as Cephes does it.

    Returns a float64 array of ``p``'s shape: ``-inf`` at 0, ``inf`` at 1 and
    ``nan`` outside ``[0, 1]``.  The interior ``|p - 0.5| <= 0.5 - exp(-2)``
    uses one rational approximation in ``(p - 0.5)^2``; the tails use
    ``x = sqrt(-2 log y)`` with ``y = min(p, 1 - p)`` and one of two rational
    corrections in ``1/x`` split at ``x = 8`` (``y = exp(-32)``).
    """
    y0 = np.asarray(p, dtype=np.float64)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf  # repro: allow(FLOAT-EQ): exact endpoint, as in Cephes
    out[y0 == 1.0] = np.inf  # repro: allow(FLOAT-EQ): exact endpoint, as in Cephes

    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    inner = (y > _EXP_M2) & (y0 < 1.0)
    if inner.any():
        yc = y[inner] - 0.5
        y2 = yc * yc
        x = yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        out[inner] = x * _S2PI

    tail = (y0 > 0.0) & (y0 < 1.0) & ~inner
    if tail.any():
        x = np.sqrt(-2.0 * _libm_log(y[tail]))
        x0 = x - _libm_log(x) / x
        z = 1.0 / x
        x1 = np.where(x < 8.0,
                      z * _polevl(z, _P1) / _p1evl(z, _Q1),
                      z * _polevl(z, _P2) / _p1evl(z, _Q2))
        x = x0 - x1
        out[tail] = np.where(upper[tail], x, -x)
    return out


#: The reference's default relative tolerance, ``4 * eps``, and iteration cap.
_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float = 2e-12) -> float:
    """Root of *f* in the bracket ``[a, b]`` by Brent's method.

    A port of the reference C ``brentq`` at its default relative tolerance
    and iteration cap: the result is to within ``xtol + 4 * eps * |x|``.
    Raises ``ValueError`` when ``f(a)`` and ``f(b)`` have the same sign,
    when ``xtol <= 0`` or when *f* returns NaN, and ``RuntimeError`` when
    the iteration cap is reached.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def call(x: float) -> float:
        value = float(f(x))
        if math.isnan(value):
            raise ValueError(
                f"f({x:f}) is NaN; the solver cannot continue")
        return value

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # Zeros are returned above and excluded in the loop, so ``v < 0``
    # stands for C's ``signbit(v)`` in every sign test.
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Interpolate.
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # Extrapolate (inverse quadratic).
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # Good short step.
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(
        f"failed to converge after {_MAXITER} iterations, value is {xcur}")
