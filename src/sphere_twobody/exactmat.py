"""Sparse square matrices over the Gaussian rationals, optionally with radicals.

A GMat stores only its nonzero entries, in one dict from position (i, j)
to (real part, imaginary part).  Entries are Fractions, or q*sqrt(rad)
carried exactly by Rad: the unitary B1 ladder entries are quarter square
roots of integers, and the sums the ladder code forms pair equal radicands.
The ladder module stores its operators as integer bands and checks both
their relations and its classified vectors on them; GMats are the exact
views it builds for printing (`table`) and float conversion (`to_numpy`).
"""

from fractions import Fraction

__all__ = ["Rad", "GMat"]

_ZERO = Fraction(0)
_ONE = Fraction(1)
# Fractions are immutable, so the small integers that fill diagonal
# matrices are shared, with the matrices and with the ladder module's
# EigenvectorRecords, which keep them
_SMALL = {i: Fraction(i) for i in range(-64, 65)}
_SMALL[0], _SMALL[1] = _ZERO, _ONE


def _square_free(n):
    """n = s*s*r with r square-free; returns (s, r). n is a positive int."""
    s, r, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            r *= p
        p += 1
    return s, r * n


class Rad:
    """Exact scalar fr * sqrt(rad), fr rational, rad square-free rational.

    Canonical: rad's numerator and denominator are square-free, so equal
    values compare equal and like terms always combine.
    """

    __slots__ = ("fr", "rad")

    def __init__(self, fr, rad=_ONE):
        fr = Fraction(fr)
        rad = Fraction(rad)
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        if not fr or not rad:
            fr, rad = fr if rad else _ZERO, _ONE
        elif rad != 1:
            sn, rn = _square_free(rad.numerator)
            sd, rd = _square_free(rad.denominator)
            fr *= Fraction(sn, sd)
            rad = Fraction(rn, rd)
        self.fr, self.rad = fr, rad

    def __bool__(self):
        return bool(self.fr)

    def __float__(self):
        return float(self.fr) * float(self.rad) ** 0.5

    def __eq__(self, other):
        if isinstance(other, Rad):
            return self.fr == other.fr and self.rad == other.rad
        return self.rad == 1 and self.fr == other

    def __repr__(self):
        return str(self.fr) if self.rad == 1 else f"{self.fr}*sqrt({self.rad})"


def _mul(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x * y
    xf, xr = (x.fr, x.rad) if isinstance(x, Rad) else (x, _ONE)
    yf, yr = (y.fr, y.rad) if isinstance(y, Rad) else (y, _ONE)
    return Rad(xf * yf, xr * yr)


def _add(x, y):
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y if x and y else x or y
    xf, xr = (x.fr, x.rad) if isinstance(x, Rad) else (x, _ONE)
    yf, yr = (y.fr, y.rad) if isinstance(y, Rad) else (y, _ONE)
    if not xf:
        return y
    if not yf:
        return x
    if xr != yr:
        # radicands pair up in a valid ladder module; a corrupted band meets this
        raise ArithmeticError(f"cannot add unlike radicals sqrt({xr}), sqrt({yr})")
    return Rad(xf + yf, xr) if xr != 1 else xf + yf


def _neg(x):
    return Rad(-x.fr, x.rad) if isinstance(x, Rad) else -x


def _cmul(x, y, u, v):
    """(x + iy)(u + iv), skipping the products with a zero factor."""
    re = _mul(x, u) if x and u else _ZERO
    if y and v:
        re = _add(re, _neg(_mul(y, v)))
    im = _mul(x, v) if x and v else _ZERO
    if y and u:
        im = _add(im, _mul(y, u))
    return re, im


def _accumulate(acc, key, re, im):
    old = acc.get(key)
    acc[key] = (re, im) if old is None else (_add(old[0], re), _add(old[1], im))


def _scalar(v):
    """v as a Fraction or Rad; small integers as the shared Fractions."""
    if isinstance(v, Rad):
        return v
    v = v if isinstance(v, Fraction) else Fraction(v)
    return _SMALL.get(v, v)


class GMat:
    """Square matrix with exact (rational or radical) complex entries.

    Only nonzero entries are stored, in one dict {(i, j): (re, im)}, whose
    items entries() yields.  An entry that cancels to zero is dropped, so
    GMat(n) is the zero matrix and has no entries.
    """

    __slots__ = ("n", "_nz")

    def __init__(self, n, nz=None):
        self.n = n
        self._nz = {k: v for k, v in nz.items() if v[0] or v[1]} if nz else {}

    def entries(self):
        """((i, j), (re, im)) for every stored entry."""
        return self._nz.items()

    re = property(lambda self: self._dense(0), doc="Dense real parts, built on each read.")
    im = property(lambda self: self._dense(1), doc="Dense imaginary parts, built on each read.")

    def _dense(self, part):
        grid = [[_ZERO] * self.n for _ in range(self.n)]
        for (i, j), v in self.entries():
            grid[i][j] = v[part]
        return grid

    @classmethod
    def eye(cls, n, scale=1):
        return cls(n, dict.fromkeys([(i, i) for i in range(n)], (_scalar(scale), _ZERO)))

    @classmethod
    def diag(cls, values):
        return cls(len(values), {(i, i): (_scalar(v), _ZERO) for i, v in enumerate(values)})

    @classmethod
    def build(cls, n, entries):
        """entries: {(i, j): scalar | (re, im)} with scalars Fraction or Rad."""
        pairs = (v if isinstance(v, tuple) else (v, _ZERO) for v in entries.values())
        return cls(n, {k: (_scalar(re), _scalar(im)) for k, (re, im) in zip(entries, pairs)})

    def __add__(self, other):
        acc = dict(self.entries())
        for key, (u, v) in other.entries():
            _accumulate(acc, key, u, v)
        return GMat(self.n, acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, re, im=0):
        """Multiply by the exact scalar re + i*im."""
        a, b = Fraction(re), Fraction(im)
        return GMat(self.n, {key: _cmul(x, y, a, b) for key, (x, y) in self.entries()})

    def __matmul__(self, other):
        rows = {}
        for (t, j), uv in other.entries():
            rows.setdefault(t, []).append((j, uv))
        acc = {}
        for (i, t), (x, y) in self.entries():
            for j, (u, v) in rows.get(t, ()):
                _accumulate(acc, (i, j), *_cmul(x, y, u, v))
        return GMat(self.n, acc)

    def commutator(self, other):
        return self @ other - other @ self

    def anticommutator(self, other):
        return self @ other + other @ self

    def is_zero(self):
        return not self._nz

    def max_abs(self):
        """Float bound max |re| + |im| over entries; 0.0 iff exactly zero."""
        return max((abs(float(x)) + abs(float(y)) for _, (x, y) in self.entries()), default=0.0)

    def apply(self, vec):
        """Multiply an exact column vector of (re, im) scalar pairs."""
        acc = {i: (_ZERO, _ZERO) for i in range(self.n)}
        for (i, j), (x, y) in self.entries():
            _accumulate(acc, i, *_cmul(x, y, *vec[j]))
        return [acc[i] for i in range(self.n)]

    def to_numpy(self):
        import numpy as np

        a = np.zeros((self.n, self.n), dtype=complex)
        for (i, j), (x, y) in self.entries():
            a[i, j] = float(x) + 1j * float(y)
        return a

    def table(self):
        """Rows of entry strings: "x", "(y)i" or "x+(y)i"; zeros print "0"."""
        def fmt(x, y):
            return str(x) if not y else f"({y})i" if not x else f"{x}+({y})i"

        re, im = self.re, self.im
        return [[fmt(re[i][j], im[i][j]) for j in range(self.n)] for i in range(self.n)]

    def __eq__(self, other):
        if not isinstance(other, GMat) or other.n != self.n:
            return NotImplemented
        return self._nz == other._nz  # canonical entries: equal values compare equal

    def __repr__(self):
        rows = ["[" + ", ".join(row) + "]" for row in self.table()]
        return "GMat([" + ",\n      ".join(rows) + "])"
