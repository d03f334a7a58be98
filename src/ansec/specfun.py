"""Scalar special functions backing the secrecy-rate closed forms.

All routines are real-valued, double precision, and cover only the
parameter families the rate expressions need: the generalized
exponential integral E_n(x) with its exponentially scaled variants,
and the Gauss hypergeometric family 2F1(1, b; c; x) with integer
parameters.

Method sources: E_1 by its series below x = 1.5 (Abramowitz & Stegun
5.1.11), E_n by the continued fraction 5.1.22 above (Lentz's algorithm,
which directly yields the scaled function e^x E_n(x) without forming
e^x), and other orders, alone or summed, by the recurrence 5.1.14 from
one evaluated order. One bounded kernel sums
S_a(u) = sum_m u^m/(a+m) = 2F1(1, a; a+1; u)/a: the single-eavesdropper
capacity, and through the Pfaff transformation (DLMF 15.8.1) every
2F1(1, 1; c; x), hence the appendix closed forms. Other negative
hypergeometric arguments are Pfaff-mapped into (0, 1) for a Gauss series.
"""
from __future__ import annotations

import math

_EULER_GAMMA = 0.57721566490153286061
_SERIES_CF_SPLIT = 1.5  # E_1 series below, E_n continued fraction above
# From x^3 >= _EN_ASYMPTOTIC * n on, e^x E_n(x) = 1/(x+n) (1 + n/(x+n)^2) to one
# ulp (A&S 5.1.52: the next term is below 2n/x^3 <= 1e-16); the continued
# fraction loses digits past there, and fails once b += 2 no longer moves b.
_EN_ASYMPTOTIC = 2e16
_EN_MAX_ITER = 10_000
_HYP_MAX_TERMS = 5_000_000
_LERCH_MAX_TERMS = 200  # loop cap of every _lerch_sum route
# ln a - psi(a) for a = 1..19 (mpmath at 30 digits): ln a - H_{a-1} cancels
_LN_MINUS_PSI = (
    0.5772156649015329, 0.27036284546147815, 0.17582795356964256, 0.13017669268809015,
    0.1033202440022999, 0.08564180079625452, 0.07312581395684617, 0.06380006372422593,
    0.05658309938060939, 0.05083250392732458, 0.04614268373164944, 0.042244969812188296,
    0.038954344152391386, 0.03613923938303634, 0.033703539441416366, 0.03157539391232087,
    0.029700015728755712, 0.02803490015693962, 0.02654656587165983)


def _is_int(value: object) -> bool:
    # An integer count: exactly int, since bool subclasses int but True is
    # not a count. The public entry points run this on every call; a type
    # test costs half an isinstance pair.
    return type(value) is int


def _scaled_e1_series(x: float) -> float:
    # e^x E_1(x) for 0 < x < _SERIES_CF_SPLIT via A&S 5.1.11.
    acc = -_EULER_GAMMA - math.log(x)
    term = 1.0  # (-x)^m / m!
    for m in range(1, _EN_MAX_ITER):
        term *= -x / m
        contrib = term / m
        acc -= contrib
        if abs(contrib) < 1e-18 * abs(acc):
            return math.exp(x) * acc
    raise RuntimeError(f"E_1 series failed to converge for x={x}")


def _scaled_en_cf(n: int, x: float) -> float:
    # e^x E_n(x) for x >= _SERIES_CF_SPLIT: modified Lentz on A&S 5.1.22.
    b = x + n
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, _EN_MAX_ITER):
        a = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError(f"E_n continued fraction failed to converge for n={n}, x={x}")


def scaled_expint_en(n: int, x: float) -> float:
    """Exponentially scaled exponential integral e^x * E_n(x).

    Never forms e^x on its own, so the result is finite for arbitrarily
    large x (it decays like 1/x, to 0.0 at x = inf). n = 0 gives exactly
    1/x. x = 0 is allowed for n >= 2, where E_n(0) = 1/(n-1).
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"order must be an integer >= 0, got {n!r}")
    if x < 0:
        raise ValueError(f"E_n is only evaluated for x >= 0, got x={x}")
    if x == 0:
        if n >= 2:
            return 1.0 / (n - 1)
        raise ValueError(f"E_{n}(0) diverges")
    if n == 0:
        return 1.0 / x
    if x < _SERIES_CF_SPLIT:
        e = _scaled_e1_series(x)
        for k in range(1, n):  # A&S 5.1.14 upward; each step scales errors by x/k < 1.5
            e = (1.0 - x * e) / k
        return e
    if x * x * x >= _EN_ASYMPTOTIC * n:
        t = 1.0 / (x + n)
        return t * (1.0 + n * t * t)
    return _scaled_en_cf(n, x)


def expint_en(n: int, x: float) -> float:
    """Generalized exponential integral E_n(x) = int_1^inf e^{-xt} t^{-n} dt."""
    return scaled_expint_en(n, x) * math.exp(-x)  # the scaled form checks n and x first


def scaled_expint_sum(n_terms: int, x: float) -> float:
    """e^x * sum_{k=1..n_terms} E_k(x), overflow-safe for any x > 0.

    One term e^x E_k0(x) is evaluated, at k0 = n_terms if x >= n_terms and
    at the largest k0 <= max(1, x) otherwise; the rest follow from A&S
    5.1.14, e_{k+1} = (1 - x e_k)/k upward and e_k = (1 - k e_{k+1})/x
    downward, each of which damps its error while it moves away from k = x.
    """
    if not _is_int(n_terms) or n_terms < 1:
        raise ValueError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    if not x > 0:
        raise ValueError(f"the scaled sum needs x > 0, got x={x}")
    k0 = n_terms if x >= n_terms else max(1, int(x))
    terms = [scaled_expint_en(k0, x)]
    for k in range(k0, n_terms):
        terms.append((1.0 - x * terms[-1]) / k)
    e = terms[0]
    for k in range(k0 - 1, 0, -1):
        e = (1.0 - k * e) / x
        terms.append(e)
    return math.fsum(terms)


def _lerch_sum(a: int, d: float, y: float) -> float:
    # S_a(u) = sum_{m>=0} u^m / (a + m) = 2F1(1, a; a+1; u) / a, integer a >= 1,
    # u < 1, from d = a u and y = a (1 - u) > 0, each formed without cancellation:
    #   |u| <= 1/2: the series itself, smooth through u = 0;
    #   u < -1.5: closed u^{-a} (ln(a/y) - sum_{l<a} u^l / l) in nonpositive
    #     powers of u (it cancels near |u| = 1: 6e-11 at u = -0.99, a = 511);
    #   y <= 1.5: the connection series in x = 1 - u = y/a (DLMF 15.8.10),
    #     sum_k (a)_k/k! (psi(k+1) - psi(a+k) - ln x) x^k, ratio about y;
    #   else: the Pfaff form 2F1(1, 1; a+1; w) / y, w = u/(u-1) (DLMF 15.8.1),
    #     as Gauss's 1/(1 - k_1 w/(1 - k_2 w/(1 - ...))) by modified Lentz.
    # x and w come from d and y, not from the rounded u, which costs digits
    # near u = 1. No route needs more than about 140 terms, for any a.
    u = d / a
    total = 0.0
    if abs(u) <= 0.5:
        term = 1.0
        for m in range(_LERCH_MAX_TERMS):
            total += term / (a + m)
            term *= u
            if abs(term) / (a + m + 1) <= 1e-18 * abs(total):
                return total
    elif u < -1.5:
        log_part = math.log(a / y) * u ** (1 - a)
        partial = 0.0
        for l in range(1, a):
            partial += u ** (l + 1 - a) / l
        return (log_part - partial) / u
    elif y <= 1.5:  # here u > 1/2, since u < -1/2 needs y > 1.5; so x < 1/2
        x = y / a
        if a < 20:  # -ln x - H_{a-1} = (ln a - psi(a)) - ln y - gamma
            bracket = _LN_MINUS_PSI[a - 1] - math.log(y) - _EULER_GAMMA
        else:  # ln a - psi(a) by A&S 6.3.18
            r = 1.0 / (a * a)
            bracket = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r / 132))))
            bracket += 0.5 / a - math.log(y) - _EULER_GAMMA
        coef = 1.0
        for k in range(_LERCH_MAX_TERMS):
            total += coef * bracket
            coef *= (a + k) / (k + 1.0) * x
            bracket += 1.0 / (k + 1.0) - 1.0 / (a + k)
            if coef * (abs(bracket) + 1.0) <= 1e-17 * total:
                return total
    else:
        w = -d / y
        f = c = 1.0
        e = 0.0
        for n in range(1, _LERCH_MAX_TERMS):
            h = (n + 1) // 2
            k = h * (a + h - 1.0) / ((a + n - 1.0) * (a + n))
            e = 1.0 / (1.0 - k * w * e)
            c = 1.0 - k * w / c
            delta = c * e
            f *= delta
            if abs(delta - 1.0) < 1e-16:
                return 1.0 / (f * y)
    raise RuntimeError(f"S_a(u) exceeded {_LERCH_MAX_TERMS} terms for a={a}, d={d}, y={y}")


def hyp2f1_appendix_closed_form(n_cap: int, x: float, form: str) -> float:
    """Logarithmic closed forms of two integer-parameter 2F1 values.

    form="first-form":  2F1(N, N; N+1; x) = (-1)^N N / x^N *
                        (ln(1-x) - sum_{l=1}^{N-1} (1/l) (x/(x-1))^l)
    form="second-form": 2F1(1, 1; N+1; x) = (1-x)^{N-1} * first form

    with N = n_cap, valid for x < 1. The bracket cancels, so neither is
    summed as written: the second is hyp2f1_1b_c(1, N+1, x) and the first
    that times (1-x)^{1-N}, or inf where it exceeds the double range.
    """
    if form not in ("first-form", "second-form"):
        raise ValueError(f"form must be 'first-form' or 'second-form', got {form!r}")
    if not _is_int(n_cap) or n_cap < 1:
        raise ValueError(f"n_cap must be an integer >= 1, got {n_cap!r}")
    if not x < 1:
        raise ValueError(f"the closed forms require x < 1, got x={x}")
    power = 1 - n_cap if form == "first-form" else 0
    s = 1.0 - x
    t = s - 1.0
    e = (1.0 - (s - t)) - (x + t)  # Knuth's two-sum: 1 - x = s + e exactly
    try:
        return _hyp2f1_1b_c(1, n_cap + 1, x) * s ** power * (1.0 + power * e / s)
    except OverflowError:
        return math.inf


def _gauss_series_1b_c(b: int, c: int, y: float) -> float:
    # 2F1(1, b; c; y) for y in (0, 1): all terms positive, Kahan-summed.
    # Term ratio tends to y, so demand the geometric tail be below 1e-16.
    stop = 1e-16 * (1.0 - y) / y if y > 0.5 else 1e-16
    total = 1.0
    comp = 0.0
    term = 1.0
    m = 0
    while True:
        term *= (b + m) / (c + m) * y
        corrected = term - comp
        fresh = total + corrected
        comp = (fresh - total) - corrected
        total = fresh
        m += 1
        if term <= stop * total:
            return total
        if m > _HYP_MAX_TERMS:
            raise RuntimeError(f"2F1 series failed to converge for b={b}, c={c}, y={y}")


def hyp2f1_1b_c(b: int, c: int, x: float) -> float:
    """Gauss hypergeometric 2F1(1, b; c; x) for integers c > b >= 1, x < 1.

    c = b + 1 and b = 1 instances run on the bounded S_a(u) kernel; other
    negative arguments are Pfaff-transformed to y = x/(x-1) in (0, 1).
    """
    if not _is_int(b) or not _is_int(c) or b < 1:
        raise ValueError(f"b and c must be integers with b >= 1, got ({b!r}, {c!r})")
    if c <= b:
        raise ValueError(f"unsupported parameters: need c > b, got b={b}, c={c}")
    if not x < 1:
        raise ValueError(f"need x < 1, got x={x}")
    return _hyp2f1_1b_c(b, c, x)


def _hyp2f1_1b_c(b: int, c: int, x: float) -> float:
    # hyp2f1_1b_c without its argument checks, for capacity_eve's loop.
    if x == 0:
        return 1.0
    if c - b == 1:
        return b * _lerch_sum(b, b * x, b * (1.0 - x))
    if b == 1:
        a = c - 1
        return a * _lerch_sum(a, a * (x / (x - 1.0)), a / (1.0 - x)) / (1.0 - x)
    if x < 0:
        return _gauss_series_1b_c(c - b, c, x / (x - 1)) / (1.0 - x)
    return _gauss_series_1b_c(b, c, x)
