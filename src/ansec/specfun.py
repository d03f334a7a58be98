"""Scalar special functions backing the secrecy-rate closed forms.

All routines are real-valued, double precision, and cover only the
parameter families the rate expressions need: the generalized
exponential integral E_n(x) with its exponentially scaled variants,
and the Gauss hypergeometric family 2F1(1, b; c; x) with integer
parameters.

Method sources: the E_n series/continued-fraction split follows
Abramowitz & Stegun 5.1.12 and 5.1.22 (Lentz's algorithm for the
continued fraction, which directly yields the scaled function
e^x E_n(x) without forming e^x); negative hypergeometric arguments are
mapped into (0, 1) by the Pfaff transformation (DLMF 15.8.1); the
logarithmic closed forms evaluate their "log minus partial sum"
bracket as an exact tail series sum_{l>=N} w^l / l whenever that
converges, because the direct difference cancels catastrophically for
small |w|.
"""
from __future__ import annotations

import math

_EULER_GAMMA = 0.57721566490153286061
_SERIES_CF_SPLIT = 1.5  # E_n series below, continued fraction above
# From x^3 >= _EN_ASYMPTOTIC * n on, e^x E_n(x) = 1/(x+n) (1 + n/(x+n)^2) to one
# ulp (A&S 5.1.52: the next term is below 2n/x^3 <= 1e-16); the continued
# fraction loses digits past there, and fails once b += 2 no longer moves b.
_EN_ASYMPTOTIC = 2e16
_EN_MAX_ITER = 10_000
_HYP_SMALL_X = 1e-3  # below this the direct Gauss series wins on accuracy
_HYP_MAX_TERMS = 5_000_000
_TAIL_W_LIMIT = 0.99  # tail series for |w| <= limit, log closed form beyond


def _is_int(value: object) -> bool:
    # An integer count: exactly int, since bool subclasses int but True is
    # not a count. capacity_eve's loop runs this check about 16 000 times
    # per adaptive solve at ne = 2; a type test costs half an isinstance pair.
    return type(value) is int


def _scaled_en_series(n: int, x: float) -> float:
    # e^x E_n(x) for 0 < x < _SERIES_CF_SPLIT via A&S 5.1.12.
    psi = -_EULER_GAMMA + sum(1.0 / k for k in range(1, n))
    if n == 1:
        acc = psi - math.log(x)
    else:
        # (-x)^{n-1}/(n-1)! in the log domain; underflows cleanly to 0
        log_mag = (n - 1) * math.log(x) - math.lgamma(n)
        coef = math.exp(log_mag) if log_mag > -745.0 else 0.0
        if (n - 1) % 2:
            coef = -coef
        acc = coef * (psi - math.log(x))
    term = 1.0  # (-x)^m / m!
    for m in range(_EN_MAX_ITER):
        if m != n - 1:
            contrib = term / (m - n + 1)
            acc -= contrib
            if abs(contrib) < 1e-18 * abs(acc) and m > n:
                break
        term *= -x / (m + 1)
    else:
        raise RuntimeError(f"E_n series failed to converge for n={n}, x={x}")
    return math.exp(x) * acc


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
        return _scaled_en_series(n, x)
    if x * x * x >= _EN_ASYMPTOTIC * n:
        t = 1.0 / (x + n)
        return t * (1.0 + n * t * t)
    return _scaled_en_cf(n, x)


def expint_en(n: int, x: float) -> float:
    """Generalized exponential integral E_n(x) = int_1^inf e^{-xt} t^{-n} dt."""
    if x < 0:
        raise ValueError(f"E_n is only evaluated for x >= 0, got x={x}")
    if x == 0:
        return scaled_expint_en(n, x)
    return math.exp(-x) * scaled_expint_en(n, x)


def scaled_expint_sum(n_terms: int, x: float) -> float:
    """e^x * sum_{k=1..n_terms} E_k(x), overflow-safe for any x > 0.

    Each term is evaluated independently (series or continued fraction in
    scaled form); the upward recurrence is avoided because it amplifies
    error by x/k while k < x.
    """
    if not _is_int(n_terms) or n_terms < 1:
        raise ValueError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    if x <= 0:
        raise ValueError(f"the scaled sum needs x > 0, got x={x}")
    return math.fsum(scaled_expint_en(k, x) for k in range(1, n_terms + 1))


def _log_tail(w: float, n: int) -> float:
    # sum_{l>=n} w^l / l == log(1/(1-w)) - sum_{l<n} w^l / l, |w| < 1,
    # evaluated directly to avoid the cancellation of the difference form.
    t = w ** n
    if t == 0.0:
        return 0.0
    acc = 0.0
    l = n
    while True:
        acc += t / l
        t *= w
        l += 1
        if abs(t) / l <= 1e-18 * abs(acc) + 5e-324:
            return acc
        if l - n > _HYP_MAX_TERMS:
            raise RuntimeError(f"log-tail series failed to converge for w={w}, n={n}")


def _appendix_series(n_cap: int, x: float, form: str) -> float:
    # Direct Gauss series of the requested function; used for small |x|.
    total = 1.0
    term = 1.0
    m = 0
    while True:
        if form == "first-form":
            term *= (n_cap + m) ** 2 / ((n_cap + 1 + m) * (m + 1.0)) * x
        else:
            term *= (m + 1.0) / (n_cap + 1 + m) * x
        total += term
        m += 1
        if abs(term) <= 1e-18 * abs(total):
            return total
        if m > _HYP_MAX_TERMS:
            raise RuntimeError(f"series failed to converge for n={n_cap}, x={x}")


def hyp2f1_appendix_closed_form(n_cap: int, x: float, form: str) -> float:
    """Logarithmic closed forms of two integer-parameter 2F1 values.

    form="first-form":  2F1(N, N; N+1; x) = (-1)^N N / x^N *
                        (ln(1-x) - sum_{l=1}^{N-1} (1/l) (x/(x-1))^l)
    form="second-form": 2F1(1, 1; N+1; x) = (1-x)^{N-1} * first form

    with N = n_cap, valid for x < 1. Below |x| = 1e-3 the closed form
    loses digits to cancellation and the direct series is used instead;
    the same fallback guards rare deep-underflow corners at large N.
    """
    if form not in ("first-form", "second-form"):
        raise ValueError(f"form must be 'first-form' or 'second-form', got {form!r}")
    if not _is_int(n_cap) or n_cap < 1:
        raise ValueError(f"n_cap must be an integer >= 1, got {n_cap!r}")
    if not x < 1:
        raise ValueError(f"the closed forms require x < 1, got x={x}")
    return _appendix_closed_form(n_cap, x, form)


def _appendix_closed_form(n_cap: int, x: float, form: str) -> float:
    if x == 0:
        return 1.0
    if abs(x) < _HYP_SMALL_X or n_cap * math.log(1 / abs(x)) > 600:
        return _appendix_series(n_cap, x, form)
    w = x / (x - 1)
    if abs(w) <= _TAIL_W_LIMIT:
        bracket = _log_tail(w, n_cap)
    else:
        partial = 0.0
        t = 1.0
        for l in range(1, n_cap):
            t *= w
            partial += t / l
        bracket = math.log1p(-x) - partial
    if form == "first-form":
        return n_cap * bracket * (-1.0 / x) ** n_cap
    # (1-x)^{N-1}/x^N regrouped as a ratio power so neither factor overflows
    # while their product is moderate (e.g. x -> -inf).
    return n_cap * bracket * (-(1.0 - x) / x) ** (n_cap - 1) * (-1.0 / x)


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

    Negative arguments are Pfaff-transformed to y = x/(x-1) in (0, 1);
    b = 1 instances route through the logarithmic closed form.
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
    if b == 1:
        return _appendix_closed_form(c - 1, x, "second-form")
    if x < 0:
        y = x / (x - 1)
        bp = c - b
        if bp == 1:
            return _appendix_closed_form(c - 1, y, "second-form") / (1.0 - x)
        return _gauss_series_1b_c(bp, c, y) / (1.0 - x)
    return _gauss_series_1b_c(b, c, x)
