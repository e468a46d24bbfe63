"""Arithmetic for small prime power fields GF(p^m) and their extensions.

Elements are encoded as integers in [0, p^m): the base-p digits of the
encoding are the coefficients of the residue polynomial, constant term
first.  The prime subfield therefore sits at encodings 0..p-1 and the
residue class of x has encoding p.  Flat lookup tables are built for
fields of at most TABLE_LIMIT elements, by recurrences on the base-p
digits in O(q^2) lookups; larger fields fall back to on-the-fly
polynomial arithmetic and cannot back matrix computations.
An extension GF(q^ell) over GF(q) reads its elements in the power basis
1, y, .., y^(ell-1), y the class of x in the top field: coordinates map
to an element by one sum, and back by a lookup in a table of all q^ell
coordinate vectors.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence

TABLE_LIMIT = 256
SIZE_CAP = 1 << 16  # largest field order accepted


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _encode(digits: Sequence[int], p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num modulo den over Z_p, coefficients constant term first."""
    num = _poly_trim(list(num))
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p)
    while len(num) - 1 >= dd and num:
        shift = len(num) - 1 - dd
        f = num[-1] * lead_inv % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - f * c) % p
        _poly_trim(num)
    return num


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, modulus, p)


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2 over Z_p."""
    m = len(modulus) - 1
    if m < 1 or modulus[-1] == 0:
        return False
    if m == 1:
        return True
    if modulus[0] == 0:
        return False
    from itertools import product as _product

    for d in range(1, m // 2 + 1):
        for low in _product(range(p), repeat=d):
            den = list(low) + [1]
            if not _poly_mod(modulus, den, p):
                return False
    return True


class FieldCtx:
    """A concrete GF(p^m) with a fixed modulus and fixed element encoding.

    Build it through make_field or field_of_order, never directly: those
    intern one object per (p, m, modulus), so fields compare and hash by
    identity.
    """

    __slots__ = ("p", "m", "q", "modulus", "add_tab", "sub_tab", "mul_tab", "inv_tab")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        if self.q <= TABLE_LIMIT:
            self._build_tables()
        else:
            self.add_tab = self.sub_tab = self.mul_tab = self.inv_tab = None

    def _build_tables(self) -> None:
        """The four tables by recurrences on the base-p digits, in O(q^2) lookups.

        With a = p a' + a_0: add[a, b] = (a_0 + b_0) % p + p add[a', b'];
        x a shifts the digits up and folds the top one back through the
        modulus; a b = x (a b') + b_0 a, filled in increasing b.
        """
        p, m, q = self.p, self.m, self.q
        low = q // p
        add = [list(range(q))]
        for a in range(1, q):
            digit = [(a + d) % p for d in range(p)]
            add.append([p * x + y for x in add[a // p][:low] for y in digit])
        neg = [row.index(0) for row in add]
        mul = [[0] * q]
        for c in range(1, p):  # c a = (c - 1) a + a
            mul.append([add[u][a] for a, u in enumerate(mul[-1])])
        fold = neg[_encode(self.modulus[:m], p)]  # x^m = -(modulus below the leading 1)
        xtimes = [add[a % low * p][mul[a // low][fold]] for a in range(q)]
        for b in range(p, q):
            mul.append([add[xtimes[u]][v] for u, v in zip(mul[b // p], mul[b % p])])
        self.add_tab = b"".join(map(bytes, add))
        self.sub_tab = bytes(row[b] for row in add for b in neg)
        self.mul_tab = b"".join(map(bytes, mul))
        self.inv_tab = bytes([0] + [row.index(1) for row in mul[1:]])

    @property
    def has_tables(self) -> bool:
        return self.mul_tab is not None

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element encoding of {self!r}")
        return a

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def add(self, a: int, b: int) -> int:
        if self.add_tab is not None:
            return self.add_tab[a * self.q + b]
        p = self.p
        return _encode(
            [(x + y) % p for x, y in zip(_digits(a, p, self.m), _digits(b, p, self.m))], p
        )

    def sub(self, a: int, b: int) -> int:
        if self.sub_tab is not None:
            return self.sub_tab[a * self.q + b]
        p = self.p
        return _encode(
            [(x - y) % p for x, y in zip(_digits(a, p, self.m), _digits(b, p, self.m))], p
        )

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.mul_tab is not None:
            return self.mul_tab[a * self.q + b]
        p = self.p
        prod = _poly_mul_mod(_digits(a, p, self.m), _digits(b, p, self.m), self.modulus, p)
        return _encode(prod + [0] * self.m, p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.inv_tab is not None:
            return self.inv_tab[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def to_poly(self, a: int) -> tuple[int, ...]:
        return tuple(_digits(a, self.p, self.m))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def _build_field(p: int, m: int, modulus: tuple[int, ...]) -> FieldCtx:
    """The intern table of fields; it must never evict, as a field's identity is its equality."""
    return FieldCtx(p, m, modulus)


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m with the smallest integer encoding."""
    for low in range(p**m):
        cand = _digits(low, p, m) + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


def make_field(p: int, m: int = 1, modulus: Sequence[int] | None = None) -> FieldCtx:
    """Construct GF(p^m), refused above SIZE_CAP elements.

    The modulus is given low to high including the leading 1, and defaults
    to the monic irreducible of degree m whose encoding is smallest.
    """
    if p > SIZE_CAP:  # also keeps the trial division below short
        raise ValueError(f"field size {p}^{m} exceeds cap {SIZE_CAP}")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError(f"m = {m} must be positive")
    _require_size(p, m)
    if modulus is None:
        mod = _default_modulus(p, m)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree m, constant term first")
        if not is_irreducible(mod, p):
            raise ValueError(f"modulus {mod} is reducible over GF({p})")
    return _build_field(p, m, mod)


def _require_size(p: int, m: int) -> None:
    """Refuse p^m above SIZE_CAP, sizing m before the power is taken."""
    if m >= SIZE_CAP.bit_length() or p**m > SIZE_CAP:
        raise ValueError(f"field size {p}^{m} exceeds cap {SIZE_CAP}")


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, by trial division and without building tables.

    q above SIZE_CAP is refused first: the division takes up to sqrt(q) steps.
    """
    if q > SIZE_CAP:
        raise ValueError(f"field size {q} exceeds cap {SIZE_CAP}")
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    p = 2
    while q % p:
        p += 1
        if p * p > q:
            p = q
            break
    m = 0
    rest = q
    while rest > 1:
        if rest % p:
            raise ValueError(f"q = {q} is not a prime power")
        rest //= p
        m += 1
    return p, m


def field_of_order(q: int) -> FieldCtx:
    """GF(q) with the default modulus, for q any prime power."""
    return make_field(*prime_power(q))


class ExtensionCtx:
    """GF(q^ell) viewed as an ell dimensional vector space over GF(q).

    Both fields are realised over the common prime field; the subfield is
    mapped in through the smallest root of its modulus in the top field.
    Coordinates refer to the power basis 1, y, .., y^(ell-1), y the class
    of x in the top field, held as `basis`: from_coords sums
    embed(v_j) * y^j, and to_coords is a lookup in the table of all q^ell
    coordinate vectors, built once.  make_extension interns one object per
    (base, ell), so extensions compare and hash by identity too.
    """

    __slots__ = (
        "base",
        "top",
        "ell",
        "embed_tab",
        "_lift",
        "basis",
        "_coords",
    )

    def __init__(self, base: FieldCtx, top: FieldCtx, ell: int):
        if top.p != base.p or top.m != base.m * ell:
            raise ValueError("top field degree must be base degree times ell")
        self.base = base
        self.top = top
        self.ell = ell
        self._build_embedding()
        self._build_coords()

    def _build_embedding(self) -> None:
        # The roots of the base modulus lie in GF(q)* and are the Frobenius
        # conjugates z^(p^i) of any one root z.  The norm t -> t^((Q-1)/(q-1))
        # maps the units onto GF(q)*, so a scan of the units' norms soon
        # meets a root; its smallest conjugate is the smallest root.
        base, top = self.base, self.top

        def at(coeffs: Sequence[int], x: int) -> int:
            acc = 0
            for c in reversed(coeffs):
                acc = top.add(top.mul(acc, x), c)
            return acc

        if base.m == 1:
            root = -base.modulus[0] % base.p
        else:
            e = (top.q - 1) // (base.q - 1)
            for t in top.units():
                z = top.pow(t, e)
                if at(base.modulus, z) == 0:
                    break
            else:
                raise RuntimeError("subfield modulus has no root in the top field")
            conjugates = [z]
            for _ in range(base.m - 1):
                conjugates.append(top.pow(conjugates[-1], base.p))
            root = min(conjugates)
        tab = [at(base.to_poly(c), root) for c in base.elements()]
        self.embed_tab = tuple(tab)
        if len(set(tab)) != base.q:
            raise RuntimeError("subfield embedding is not injective")
        self._lift = {t: c for c, t in enumerate(tab)}

    def _build_coords(self) -> None:
        # the coordinates of every element, one power of y at a time: after
        # j powers the table maps each sum over them to its j coordinates
        base, top = self.base, self.top
        y = base.p % top.q  # residue class of x, unused when ell == 1
        y_pows = [1]
        for _ in range(self.ell - 1):
            y_pows.append(top.mul(y_pows[-1], y))
        table = {0: ()}
        for y_pow in y_pows:
            scaled = [(c, top.mul(self.embed_tab[c], y_pow)) for c in base.elements()]
            table = {top.add(a, s): v + (c,) for c, s in scaled for a, v in table.items()}
        if len(table) != top.q:
            raise RuntimeError("power basis coordinate map is singular")
        self.basis = tuple(y_pows)
        self._coords = tuple(table[a] for a in top.elements())

    def embed(self, c: int) -> int:
        self.base.check(c)
        return self.embed_tab[c]

    def lift(self, t: int) -> int:
        try:
            return self._lift[t]
        except KeyError:
            raise ValueError(f"{t} is not in the embedded subfield") from None

    def to_coords(self, a: int) -> tuple[int, ...]:
        self.top.check(a)
        return self._coords[a]

    def from_coords(self, vec: Sequence[int]) -> int:
        if len(vec) != self.ell:
            raise ValueError(f"expected {self.ell} coordinates")
        top = self.top
        acc = 0
        for v, y_pow in zip(vec, self.basis):
            acc = top.add(acc, top.mul(self.embed(v), y_pow))
        return acc

    def norm(self, a: int) -> int:
        """Product of the GF(q) conjugates of a, an element of the base field."""
        self.top.check(a)
        if a == 0:
            return 0
        acc = 1
        x = a
        for _ in range(self.ell):
            acc = self.top.mul(acc, x)
            x = self.top.pow(x, self.base.q)
        return self.lift(acc)

    def embed_pair(self, a: int, b: int) -> tuple[int, ...]:
        """Coordinates of (a, b) in GF(q)^(2*ell) under the power basis."""
        return self.to_coords(a) + self.to_coords(b)

    def __repr__(self) -> str:
        return f"GF({self.top.q})/GF({self.base.q})"


@functools.lru_cache(maxsize=None)
def _build_extension(base: FieldCtx, ell: int, top: FieldCtx) -> ExtensionCtx:
    """The intern table of extensions; like _build_field's, it must never evict."""
    return ExtensionCtx(base, top, ell)


def extension_order(q: int, ell: int) -> int:
    """q^ell, refused where make_extension(field_of_order(q), ell) refuses, building no table."""
    p, m = prime_power(q)
    if ell < 1:
        raise ValueError(f"ell = {ell} must be positive")
    _require_size(p, m * ell)
    return q**ell


def make_extension(base: FieldCtx, ell: int) -> ExtensionCtx:
    """The degree ell extension of base, its top field on the default modulus."""
    extension_order(base.q, ell)
    return _build_extension(base, ell, make_field(base.p, base.m * ell))
