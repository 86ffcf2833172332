"""The standard normal CDF and quantile on numpy alone.

``ndtr`` is Cody's rational erf/erfc (Math. Comp. 23(107), 1969) with the
coefficients of Moshier's Cephes ``ndtr.c``: erf for |x| < 1 and
exp(-x^2) times an erfc rational beyond, where x = z / sqrt(2).  The
factor exp(-x^2) is computed as exp(-z^2 / 2) from the exact input z,
not from the rounded x, which keeps the relative error of the far tail
near 6e-14 down to the underflow of Phi.

``ndtri`` is Wichura's AS241 (Appl. Stat. 37(3), 1988) with the
coefficients and operation order of the standard library's
``statistics.NormalDist.inv_cdf``, elementwise.

Each branch is evaluated only on the elements that take it.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

# Phi(z) rounds to 1 from here on: 1 - Phi(8.3) = 5.2e-17 is below half
# an ulp of 1
_ONE_FROM = 8.3
_ZERO_AT = -40.0
_SQRT1_2 = 0.70710678118654752440
_SQRT2 = 1.41421356237309504880

# erf(x) = x T(x^2) / U(x^2) on |x| < 1 (|z| < sqrt(2))
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8 (sqrt(2) <= |z| < 8 sqrt(2))
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc(x) = exp(-x^2) R(x) / S(x) on x >= 8, the tail form
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)

# AS241 numerators and denominators, highest power first
_A = (2.5090809287301226727e+3, 3.3430575583588128105e+4,
      6.7265770927008700853e+4, 4.5921953931549871457e+4,
      1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0)
_B = (5.2264952788528545610e+3, 2.8729085735721942674e+4,
      3.9307895800092710610e+4, 2.1213794301586595867e+4,
      5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)
_C = (7.7454501427834140764e-4, 2.2723844989269184583e-2,
      2.4178072517745061177e-1, 1.2704582524523683826e+0,
      3.6478483247632046050e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0)
_D = (1.0507500716444168432e-9, 5.4759380849953449460e-4,
      1.5198666563616457197e-2, 1.4810397642748007459e-1,
      6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)
_E = (2.0103343992922881327e-7, 2.7115555687434875782e-5,
      1.2426609473880784386e-3, 2.6532189526576123093e-2,
      2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0)
_F = (2.0442631033899397856e-15, 1.4215117583164458887e-7,
      1.8463183175100546818e-5, 7.8686913114561325910e-4,
      1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)


def _poly(coef, x: Array, *, monic: bool = False) -> Array:
    """Horner's rule, highest power first; ``monic`` prepends a leading 1.

    Updates one array in place rather than making a temporary per step.
    """
    if monic:
        p, rest = x + coef[0], coef[1:]
    else:
        p, rest = coef[0] * x, coef[2:]
        p += coef[1]
    for c in rest:
        p *= x
        p += c
    return p


def _phi_outer(z: Array, num, den) -> Array:
    """Phi(z) for |z| >= sqrt(2) from erfc(x) = exp(-x^2) num(x) / den(x).

    Overwrites ``z``, a selection the caller no longer needs.
    """
    q = z * z
    q *= -0.5
    np.exp(q, out=q)
    upper = z > 0.0
    x = np.abs(z, out=z)
    x *= _SQRT1_2
    q *= _poly(num, x)
    q /= _poly(den, x, monic=True)
    q *= 0.5           # Phi(-|z|) = erfc(x) / 2
    return np.subtract(1.0, q, out=q, where=upper)


def ndtr(z) -> Array:
    """Standard normal CDF Phi(z), elementwise; NaN stays NaN.

    Few large temporaries: at gain-table sizes each one costs its page
    faults, about as much as the arithmetic on it.
    """
    z = np.asarray(z, dtype=float)
    # final where z >= _ONE_FROM or z is NaN
    out = np.minimum(z, 1.0, out=np.empty_like(z))
    todo = z < _ONE_FROM
    vals = z[todo]             # overwritten branch by branch
    inner = (vals > -_SQRT2) & (vals < _SQRT2)
    tail = vals <= -8.0 * _SQRT2   # todo keeps z below 8 sqrt(2)
    mid = ~(inner | tail)
    x = vals[inner] * _SQRT1_2
    xx = x * x
    vals[inner] = 0.5 + 0.5 * x * _poly(_T, xx) / _poly(_U, xx, monic=True)
    vals[mid] = _phi_outer(vals[mid], _P, _Q)
    # Phi(-40) underflows to 0 like Phi(-inf), which the kernels cannot take
    vals[tail] = _phi_outer(np.maximum(vals[tail], _ZERO_AT), _R, _S)
    out[todo] = vals
    return out[()]   # a scalar for a scalar, as a ufunc returns


def ndtri(p) -> Array:
    """Standard normal quantile Phi^-1(p), elementwise.

    -inf at 0, +inf at 1 and NaN outside [0, 1].  Interior levels match
    ``statistics.NormalDist().inv_cdf`` bit for bit.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    out = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, np.nan))
    inside = (p > 0.0) & (p < 1.0)
    central = inside & (np.abs(q) <= 0.425)
    qc = q[central]
    r = 0.180625 - qc * qc
    out[central] = _poly(_A, r) * qc / _poly(_B, r)
    tails = inside & ~central
    qt = q[tails]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, p[tails], 1.0 - p[tails])))
    x = np.empty_like(r)
    near = r <= 5.0
    for sel, shift, num, den in ((near, 1.6, _C, _D), (~near, 5.0, _E, _F)):
        rs = r[sel] - shift
        x[sel] = _poly(num, rs) / _poly(den, rs)
    out[tails] = np.where(qt < 0.0, -x, x)
    return out[()]
