"""QUADPACK's adaptive quadrature `dqagse` in pure Python, with the
finite-limit front end of `scipy.integrate.quad`.

`dqagse` (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK,
1983) bisects the subinterval with the largest error estimate, integrates
both halves with the 21-point Gauss-Kronrod rule (`dqk21`), keeps the
subintervals ordered by error (`dqpsrt`) and accelerates the sequence of
area estimates with Wynn's epsilon algorithm (`dqelg`).  The port keeps the
Fortran routines statement for statement:

- the Kronrod and Gauss constants are QUADPACK's decimal literals;
- the abscissae are formed as `centr - absc` and `centr + absc` with
  `absc = hlgth * xgk[j]`;
- the integrand is called with one Python float at a time (an array call
  can take a SIMD path with other bits), or, when it has a `many` form
  that returns those same bits, once per rule with all 21 abscissae;
- `(200 * abserr / resasc) ** 1.5` is the C library's `pow`, as in Fortran;
- the lists keep Fortran's 1-based indices (slot 0 is unused), so the
  bookkeeping reads like the original.

Every operation is the same IEEE double operation in the same order, so
`quad` returns the bits of `scipy.integrate.quad(f, a, b, limit=limit)` for
finite limits: value, error estimate, evaluation count and subinterval
count.  That keeps the calibration constants of `semigroup.calibrate_family`
as they were, without importing scipy.
"""

from __future__ import annotations

import math
from typing import Callable

EPMACH = 2.220446049250313e-16       # d1mach(4), the machine epsilon
UFLOW = 2.2250738585072014e-308      # d1mach(1), the smallest normal
OFLOW = 1.7976931348623157e308       # d1mach(2), the largest finite
EPSABS = EPSREL = 1.49e-8            # scipy.integrate.quad's tolerances

# 21-point Kronrod abscissae; xgk[2], xgk[4], ... are the 10-point Gauss ones
XGK = (None,
       0.995657163025808080735527280689003,
       0.973906528517171720077964012084452,
       0.930157491355708226001207180059508,
       0.865063366688984510732096688423493,
       0.780817726586416897063717578345042,
       0.679409568299024406234327365114874,
       0.562757134668604683339000099272694,
       0.433395394129247190799265943165784,
       0.294392862701460198131126603103866,
       0.148874338981631210884826001129720,
       0.000000000000000000000000000000000)
WGK = (None,
       0.011694638867371874278064396062192,
       0.032558162307964727478818972459390,
       0.054755896574351996031381300244580,
       0.075039674810919952767043140916190,
       0.093125454583697605535065465083366,
       0.109387158802297641899210590325805,
       0.123491976262065851077958109831074,
       0.134709217311473325928054001771707,
       0.142775938577060080797094273138717,
       0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
WG = (None,
      0.066671344308688137593568809893332,
      0.149451349150580593145776339657697,
      0.219086362515982043995534934228163,
      0.269266719309996355091226921569469,
      0.295524224714752870173892994651338)


def dqk21(f: Callable[[float], float], a: float, b: float):
    """21-point Gauss-Kronrod rule on [a, b]: (result, abserr, resabs,
    resasc), with resabs the rule applied to |f| and resasc to
    |f - mean|.  An integrand with a `many` attribute gets the 21 abscissae
    in one call, f.many(xs) -> 21 values, each the bits of f(x)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    # the abscissae in QUADPACK's order: the centre, then (centr - absc,
    # centr + absc) for the Gauss points xgk[2], ..., xgk[10], then for the
    # Kronrod points xgk[1], ..., xgk[9]
    order = [*range(2, 11, 2), *range(1, 10, 2)]
    xs = [centr]
    for jtw in order:
        absc = hlgth * XGK[jtw]
        xs += [centr - absc, centr + absc]
    many = getattr(f, "many", None)
    fx = [float(v) for v in many(xs)] if many else [float(f(x)) for x in xs]
    fc = fx[0]
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    for at, jtw in enumerate(order):
        fv1[jtw], fv2[jtw] = fx[1 + 2 * at], fx[2 + 2 * at]
    resg = 0.0
    resk = WGK[11] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j
        fval1, fval2 = fv1[jtw], fv2[jtw]
        fval = fval1 + fval2
        resg = resg + WG[j] * fval
        resk = resk + WGK[jtw] * fval
        resabs = resabs + WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        fval1, fval2 = fv1[jtwm1], fv2[jtwm1]
        fval = fval1 + fval2
        resk = resk + WGK[jtwm1] * fval
        resabs = resabs + WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = WGK[11] * abs(fc - reskh)
    for j in range(1, 11):
        resasc = resasc + WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio ** 1.5), without the OverflowError of a huge ratio
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (min(1.0, ratio ** 1.5) if ratio < 1.0 else 1.0)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int):
    """Keeps iord descending in elist over the part of the list that can
    still be bisected; returns (maxerr, ermax, nrmax) of the subinterval to
    bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def dqelg(n: int, epstab: list, res3la: list, nres: int):
    """One step of Wynn's epsilon algorithm on epstab[1..n]; returns
    (n, result, abserr, nres) with n the table length after the step."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if (num // 2) * 2 == num else 1
    for _ in range(newelm + 1):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def qagse(f: Callable[[float], float], a: float, b: float, limit: int):
    """The integral of f over [a, b] (b < a integrates backwards) to
    EPSABS and EPSREL: (value, abserr, neval, ier, last).  ier is
    QUADPACK's: 0 on success, 1 when `limit` subintervals did not reach the
    tolerance, 2 for roundoff, 3 for bad integrand behaviour, 4 when the
    extrapolation did not converge, 5 for a probably divergent integral."""
    a, b = float(a), float(b)
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    res3la = [0.0] * 4
    rlist2 = [0.0] * 53
    ier = 0
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier, last

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * EPMACH) * defabs:
        ksgn = 1

    sum_rlist = False        # leave by Fortran's label 115, not by 100
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = dqk21(f, a2, b2)

        # improve the approximations to integral and error, test accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(EPSABS, EPSREL * abs(area))

        # roundoff, subdivision limit, bad behaviour at a point of the range
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        # keep the error list ordered; pick the subinterval to bisect next
        maxerr, errmax, nrmax = dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_rlist = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease the error over the larger intervals (erlarg)
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate (Fortran labels 100-130); with no
    # extrapolated result (abserr still OFLOW) the subintervals are summed
    sum_rlist = sum_rlist or abserr == OFLOW
    if not sum_rlist:
        divergence_test = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_rlist = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_rlist = True
            elif area == 0.0:
                divergence_test = False
        if divergence_test and not sum_rlist and not (
                ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _ieee_div(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if sum_rlist:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier, last


def _ieee_div(x: float, y: float) -> float:
    """x / y as IEEE arithmetic gives it, also at y == 0."""
    if y != 0.0:
        return x / y
    if x == 0.0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def quad(f: Callable[[float], float], a: float, b: float, limit: int):
    """`scipy.integrate.quad(f, a, b, limit=limit)` for finite a and b:
    zero on an empty interval, and reversed limits integrate over [b, a]
    and negate the value.  Returns (value, abserr, neval, ier, last) as
    `qagse` does."""
    if a == b:
        return 0.0, 0.0, 0, 0, 0
    flip, a, b = b < a, min(a, b), max(a, b)
    value, abserr, neval, ier, last = qagse(f, a, b, limit)
    return (-value if flip else value), abserr, neval, ier, last
