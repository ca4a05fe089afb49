"""A stand-in for ``betaplane.eigen._flapack`` that counts the calls the tests read.

Every name it does not define is the real binding's, so a routine that the
package starts to call needs no change here.
"""


class CountingLapack:
    """The binding, with each whole-spectrum ``stebz`` call (``range='I'``) and each
    ``pttrf`` factorization counted, and ``dstebz``, when given, in place of the real one."""

    def __init__(self, real, dstebz=None):
        self.real, self.whole_spectrum, self.definite = real, 0, 0
        self.stebz = real.dstebz if dstebz is None else dstebz

    def __getattr__(self, name):
        return getattr(self.real, name)

    def dstebz(self, d, e, kind, *args):
        self.whole_spectrum += kind == 2
        return self.stebz(d, e, kind, *args)

    def dpttrf(self, *args, **kwargs):
        self.definite += 1
        return self.real.dpttrf(*args, **kwargs)
