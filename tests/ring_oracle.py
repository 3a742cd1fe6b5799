"""Digit-loop reference for the arithmetic of F_q[eps]/(eps^nil).

Field elements are multiplied as polynomials over F_p reduced by the
modulus, and ring elements digit by digit in base q: addition and
negation per eps-digit, multiplication as the truncated eps-convolution,
inversion by the finite geometric series of the nilpotent part, and the
p-th power map as a_i^p moved to eps-degree i*p.  It is slow and exists to
check the ring tables of ``multiwitt.ring`` against an independent
construction.
"""

from __future__ import annotations

from multiwitt import CoeffRing, NonUnit


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _field_digits(i, p, e):
    # the base-p digits of the field index i, the lowest first
    return [i // p**k % p for k in range(e)]


def _poly_mulmod(a, b, modulus, p):
    # product of coefficient lists over F_p, reduced by the monic modulus
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    e = len(modulus) - 1
    for k in range(len(out) - 1, e - 1, -1):
        c = out[k]
        out[k] = 0
        for t in range(e):
            out[k - e + t] = (out[k - e + t] - c * modulus[t]) % p
    return _trim(out)


class DigitLoopRing:
    """Raw-element arithmetic of ``ring`` by base-q digit loops."""

    def __init__(self, ring: CoeffRing):
        p, e, q = ring.p, ring.e, ring.q
        self.ring, self.q, self.nil, self.p, self.e = ring, q, ring.nil, p, e
        vec = [_field_digits(i, p, e) for i in range(q)]

        def enc(v):
            return sum(c * p**k for k, c in enumerate(v))

        self.f_add = [[enc([(x + y) % p for x, y in zip(vec[i], vec[j])]) for j in range(q)] for i in range(q)]
        self.f_neg = [enc([(-x) % p for x in vec[i]]) for i in range(q)]
        self.f_mul = [
            [enc(_poly_mulmod(_trim(list(vec[i])), _trim(list(vec[j])), ring.modulus, p)) for j in range(q)]
            for i in range(q)
        ]
        self.f_inv = [0] + [self.f_mul[i].index(1) for i in range(1, q)]
        self.f_frob = []
        for i in range(q):
            acc = i
            for _ in range(p - 1):
                acc = self.f_mul[acc][i]
            self.f_frob.append(acc)

    def _digits(self, a):
        return [(a // self.q**k) % self.q for k in range(self.nil)]

    def raw_to_coords(self, a):
        # each base-q digit as the base-p digits of its field index
        return [_field_digits(x, self.p, self.e) for x in self._digits(a)]

    def _digit_add(self, acc, slot, fval):
        q = self.q
        cur = (acc // q**slot) % q
        return acc + (self.f_add[cur][fval] - cur) * q**slot

    def radd(self, a, b):
        out = 0
        for k, (x, y) in enumerate(zip(self._digits(a), self._digits(b))):
            out += self.f_add[x][y] * self.q**k
        return out

    def rneg(self, a):
        return sum(self.f_neg[x] * self.q**k for k, x in enumerate(self._digits(a)))

    def rsub(self, a, b):
        return self.radd(a, self.rneg(b))

    def rmul(self, a, b):
        da, db = self._digits(a), self._digits(b)
        out = 0
        for i, x in enumerate(da):
            for j in range(self.nil - i):
                out = self._digit_add(out, i + j, self.f_mul[x][db[j]])
        return out

    def rinv(self, a):
        if a % self.q == 0:
            raise NonUnit(f"{a} is not a unit")
        u0 = self.f_inv[a % self.q]
        # a = c(1 + n) with n nilpotent: invert via finite geometric series
        x = self.rsub(1, self.rmul(u0, a))
        acc, pw = 1, x
        while pw != 0:
            acc = self.radd(acc, pw)
            pw = self.rmul(pw, x)
        return self.rmul(u0, acc)

    def rfrob_p(self, a):
        # (sum a_i eps^i)^p = sum a_i^p eps^(ip) in characteristic p
        out = 0
        for i, x in enumerate(self._digits(a)):
            if i * self.p < self.nil:
                out = self._digit_add(out, i * self.p, self.f_frob[x])
        return out
