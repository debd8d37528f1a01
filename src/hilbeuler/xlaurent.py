"""Laurent polynomials in x_1..x_n with coefficients in an arbitrary ring.

Coefficients may be ints, Fractions, RationalFunction1 values, or BiSeries;
any type supporting +, * and truthiness-as-nonzero works. Exponent vectors
are integer tuples of fixed length.

`add_terms` is the one merge step for every sparse dict in the package
(symmetric functions, torus characters, x-Laurent kernels and bivariate
series): it adds terms into a dict and keeps only nonzero values.
"""


def add_terms(out, terms):
    """Add (key, value) pairs into the dict out and return it. Zero terms
    are skipped and a key whose value cancels is deleted."""
    for k, v in terms:
        if not v:
            continue
        if k in out:
            v = out[k] + v
            if not v:
                del out[k]
                continue
        out[k] = v
    return out


class XLaurent:
    __slots__ = ("nvars", "c")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                if len(k) != nvars:
                    raise ValueError("exponent vector %r has wrong length" % (k,))
                if v:
                    self.c[tuple(k)] = v

    @classmethod
    def const(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    def __bool__(self):
        return bool(self.c)

    def __len__(self):
        return len(self.c)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        self._check(other)
        r = XLaurent(self.nvars)
        r.c = add_terms(dict(self.c), other.c.items())
        return r

    def __neg__(self):
        r = XLaurent(self.nvars)
        r.c = {k: -v for k, v in self.c.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        r = XLaurent(self.nvars)
        for k1, v1 in self.c.items():
            add_terms(r.c, ((tuple(a + b for a, b in zip(k1, k2)), v1 * v2)
                            for k2, v2 in other.c.items()))
        return r

    def scale(self, value):
        r = XLaurent(self.nvars)
        for k, v in self.c.items():
            nv = v * value
            if nv:
                r.c[k] = nv
        return r

    def coeff(self, exps, zero=0):
        return self.c.get(tuple(exps), zero)

    def items_sorted(self):
        return sorted(self.c.items())

    def __eq__(self, other):
        if not isinstance(other, XLaurent):
            return NotImplemented
        return self.nvars == other.nvars and self.c == other.c

    def __repr__(self):
        return "XLaurent(%d, %r)" % (self.nvars, self.c)

