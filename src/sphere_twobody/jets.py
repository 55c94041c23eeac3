"""Second-order jets over the complex numbers.

A Jet carries (f, f', f'') through arithmetic and principal-branch powers,
which is all the radial eigenfunctions need; ODE residuals computed this
way are exact up to roundoff, with no finite-difference truncation.
"""

import math

__all__ = ["Jet", "scaled_residual"]

_SCALARS = (int, float, complex)


class Jet:
    __slots__ = ("f", "df", "d2f")

    def __init__(self, f, df=0.0, d2f=0.0):
        self.f = complex(f)
        self.df = complex(df)
        self.d2f = complex(d2f)

    @staticmethod
    def variable(x):
        return Jet(x, 1.0, 0.0)

    def __repr__(self):
        return f"Jet({self.f!r}, {self.df!r}, {self.d2f!r})"

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, _SCALARS):
            return Jet(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.f + o.f, self.df + o.df, self.d2f + o.d2f)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.df, -self.d2f)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.f - o.f, self.df - o.df, self.d2f - o.d2f)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(o.f - self.f, o.df - self.df, o.d2f - self.d2f)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(
            self.f * o.f,
            self.df * o.f + self.f * o.df,
            self.d2f * o.f + 2.0 * self.df * o.df + self.f * o.d2f,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        h = self.f / o.f
        dh = (self.df - h * o.df) / o.f
        d2h = (self.d2f - 2.0 * dh * o.df - h * o.d2f) / o.f
        return Jet(h, dh, d2h)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, s):
        if not isinstance(s, _SCALARS):
            return NotImplemented
        s = complex(s)
        if s == 0:
            return Jet(1.0)
        w = self.f ** s
        w1 = s * self.f ** (s - 1)
        w2 = s * (s - 1) * self.f ** (s - 2)
        return Jet(w, w1 * self.df, w2 * self.df * self.df + w1 * self.d2f)


def scaled_residual(*terms):
    """|sum of terms| over the largest |term|, no floor: NaN stays NaN, all-zero reads inf."""
    res = abs(sum(terms))
    if math.isnan(res):  # max() over the terms alone can drop a NaN
        return res
    scale = max(abs(t) for t in terms)
    return res / scale if scale > 0.0 else math.inf
