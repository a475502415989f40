"""Exact arithmetic in GF(p) and GF(p^2) = GF(p)[i] for primes p = 3 (mod 4).

For such primes x^2 + 1 is irreducible over GF(p), so the quadratic extension
behaves like the complex numbers over the reals: elements are re + im*i,
conjugation is re - im*i, and the conjugation is realized by the Frobenius
power x -> x^p.  GF(p) itself plays the role of the reals.

One map converts field values into ordinary real numbers: ``phi_map``, the
product-preserving sign map GF(p) -> {-1, 0, +1}.  It sends zero to 0, even
powers of a multiplicative generator to +1 and odd powers to -1
(equivalently, it is the quadratic-residue character).  Because
p = 3 (mod 4), phi_map(-1) = -1.

All arithmetic is exact integer arithmetic; floats never appear.  A field is
one object per (p, degree), and it interns its elements: ``element(re, im)``
reduces both parts mod p and returns the one shared ``FieldElement`` for that
residue pair, so elements compare by identity and are validated once.
Operations compute on the integer residues and look the result up there.

Results are ``Record``s: immutable, with fields read off the class
annotations, compared by class and fields, printed as ``Name(field=value)``
and turned into plain dicts by ``asdict``.  Configs, elements and records
all refuse attribute writes through the one ``_immutable``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from operator import attrgetter, index


# the bound is the least strong pseudoprime to all these bases (Sorenson & Webster 2015)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is not below {PRIME_TEST_BOUND}, the exact primality test's bound")
    if n < 43 * 43:  # a composite below has a prime factor up to 41
        return n > 1 and all(n % a or n == a for a in PRIME_BASES)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s  # n - 1 = d 2^s with d odd
    # a strong probable prime to base a: a^d = 1, or a^(d 2^k) = -1 for a k < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << k, n) == n - 1 for k in range(s))
               for a in PRIME_BASES)


def _powers(h: int, p: int) -> list[int]:
    """The powers 1, h, h^2, ... of the unit h mod p, until they return to 1."""
    powers = [1]
    while (x := powers[-1] * h % p) != 1:
        powers.append(x)
    return powers


@lru_cache(maxsize=None)
def find_generator(p: int) -> int:
    """Smallest residue generating the multiplicative group of GF(p).

    Each candidate's powers are walked until they return to 1, so the one
    returned is seen to sweep all p - 1 units: that is what makes the unit
    group cyclic, which ``preserves_products`` and the uniqueness check rest on.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # GF(2) has no candidate; its one unit is 1
    return next((g for g in range(2, p) if len(_powers(g, p)) == p - 1), 1)


def residue_sign(r: int, p: int) -> int:
    """The sign map on the residue r mod p by Euler's criterion: r^((p-1)/2)
    is 0, 1 for an even power of a generator, or p - 1 for an odd one."""
    power = pow(r, (p - 1) // 2, p)
    return -1 if power == p - 1 else power


def _immutable(self, name: str, *value: object) -> None:
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class Record:
    """An immutable record of named fields.

    The fields are a subclass's own annotations, in order, after its bases'
    fields.  ``__init__`` binds every field by position or keyword, then runs
    ``__post_init__``, where a subclass checks its fields.  Records are equal
    when they share a class and equal fields, and hash as their field tuple:
    the dataclass semantics, with methods compiled once rather than generated.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # from 3.10 a class's __annotations__ are its own, empty when it adds none
        cls._fields = names = (*cls._fields, *cls.__annotations__)
        # the field tuple of a record, compared and hashed; attrgetter gives
        # one only for two or more names
        cls._values = attrgetter(*names) if len(names) > 1 else staticmethod(
            lambda record: tuple(getattr(record, name) for name in names))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if kwargs and not args and tuple(kwargs) == names:
            args = kwargs.values()
        elif kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # set one by one, as a dataclass does: an instance whose __dict__ is
        # never touched keeps its values inline, and reads them faster
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values in field order, from positions then keywords."""
        names = self._fields
        values = dict(zip(names, args)) | kwargs
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}, got"
                            f" {len(args)} by position and {sorted(kwargs)} by keyword")
        return [values[name] for name in names]

    def __post_init__(self) -> None:
        pass

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def asdict(value):
    """Records as dicts of their fields, recursively through lists, tuples and
    dicts, which keep their types; every other value is returned as it is."""
    if isinstance(value, Record):
        return {name: asdict(getattr(value, name)) for name in value._fields}
    if isinstance(value, (list, tuple)):
        return type(value)(map(asdict, value))
    if isinstance(value, dict):
        return type(value)((asdict(k), asdict(v)) for k, v in value.items())
    return value


def replace(record: Record, **changes: object) -> Record:
    """A record of the same class with the named fields changed, checked anew."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


class FieldConfig:
    """A field GF(p^degree) with p prime, p = 3 (mod 4), degree 1 or 2.

    One object per field: ``FieldConfig(p, degree)`` validates once and then
    returns the process's single instance for (p, degree), so "the same
    field" is ``is``.  Each config interns its elements: ``element`` returns
    one shared instance per residue pair, created on first use, so the store
    holds only the elements a computation actually produced.
    """

    __slots__ = ("p", "degree", "_interned")
    _instances: dict[tuple[int, int], FieldConfig] = {}

    p: int
    degree: int

    def __new__(cls, p: int, degree: int = 1) -> FieldConfig:
        # a float would otherwise sit under the key of its integer value
        p, degree = index(p), index(degree)
        if (config := cls._instances.get((p, degree))) is not None:
            return config
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if p % 4 != 3:
            raise ValueError(f"p must be 3 (mod 4) so x^2 + 1 is irreducible, got {p}")
        if degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {degree}")
        config = super().__new__(cls)
        for name, value in zip(cls.__slots__, (p, degree, _InternStore(config))):
            object.__setattr__(config, name, value)
        # two threads may both miss; the first to register is the field
        return cls._instances.setdefault((p, degree), config)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # copies and unpickling go through the constructor, back to the one instance
        return FieldConfig, (self.p, self.degree)

    def __repr__(self) -> str:
        return f"FieldConfig(p={self.p}, degree={self.degree})"

    @property
    def order(self) -> int:
        return self.p**self.degree

    @property
    def is_extension(self) -> bool:
        return self.degree == 2

    def element(self, re: int, im: int = 0) -> FieldElement:
        """The interned element (re mod p) + (im mod p)*i."""
        p = self.p
        return self._interned[re % p, im % p]

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def elements(self) -> list[FieldElement]:
        """All field elements, ordered by (re, im)."""
        if self.degree == 1:
            return [self.element(r) for r in range(self.p)]
        return [
            self.element(r, s) for r, s in iter_product(range(self.p), range(self.p))
        ]

    def __str__(self) -> str:
        return f"GF({self.order})"


class _InternStore(dict):
    """Canonical residue pair -> the config's one element with those residues."""

    __slots__ = ("config",)

    def __init__(self, config: FieldConfig):
        super().__init__()
        self.config = config

    def __missing__(self, key: tuple[int, int]) -> FieldElement:
        # validation runs here, once per element; a rejected pair is not stored
        x = self[key] = FieldElement(key[0], key[1], self.config)
        return x


def _signed(r: int, p: int) -> int:
    # balanced representative; in particular p-1 prints as -1
    return r if r <= p // 2 else r - p


class FieldElement:
    """An element re + im*i of GF(p^2), or re in GF(p) when im = 0.

    Immutable.  Elements come from ``FieldConfig.element``, one instance per
    value of each field, so equality and hash are identity, and elements of
    two fields never combine.
    """

    __slots__ = ("re", "im", "config", "is_zero", "is_real")

    re: int
    im: int
    config: FieldConfig
    is_zero: bool
    is_real: bool

    def __init__(self, re: int, im: int, config: FieldConfig):
        if not (0 <= re < config.p and 0 <= im < config.p):
            raise ValueError("components must be canonical residues in [0, p)")
        if im != 0 and not config.is_extension:
            raise ValueError("imaginary part requires a degree-2 field")
        init = object.__setattr__
        init(self, "re", re)
        init(self, "im", im)
        init(self, "config", config)
        init(self, "is_zero", re == 0 and im == 0)
        init(self, "is_real", im == 0)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return self.config.element, (self.re, self.im)

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other: FieldElement | int) -> FieldElement:
        if other.__class__ is FieldElement:
            if other.config is not self.config:
                raise ValueError(f"field mismatch: {self.config} vs {other.config}")
            return other
        if isinstance(other, int):
            return self.config.element(other)
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    # -- arithmetic ------------------------------------------------------
    # an element of the same field is tested for inline, and ints and foreign
    # values go through _coerce; results are reduced here and read from the
    # intern store

    def __add__(self, other: FieldElement | int) -> FieldElement:
        config = self.config
        if other.__class__ is not FieldElement or other.config is not config:
            other = self._coerce(other)
        p = config.p
        return config._interned[(self.re + other.re) % p, (self.im + other.im) % p]

    __radd__ = __add__

    def __sub__(self, other: FieldElement | int) -> FieldElement:
        config = self.config
        if other.__class__ is not FieldElement or other.config is not config:
            other = self._coerce(other)
        p = config.p
        return config._interned[(self.re - other.re) % p, (self.im - other.im) % p]

    def __rsub__(self, other: FieldElement | int) -> FieldElement:
        return self._coerce(other) - self

    def __neg__(self) -> FieldElement:
        return self.config.element(-self.re, -self.im)

    def __mul__(self, other: FieldElement | int) -> FieldElement:
        config = self.config
        if other.__class__ is not FieldElement or other.config is not config:
            other = self._coerce(other)
        p = config.p
        # (a + bi)(c + di) = (ac - bd) + (ad + bc)i, using i^2 = -1
        return config._interned[(self.re * other.re - self.im * other.im) % p,
                                (self.re * other.im + self.im * other.re) % p]

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.is_zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        p = self.config.p
        # (a + bi)^-1 = (a - bi) / (a^2 + b^2); the norm a^2 + b^2 lies in
        # GF(p) and vanishes only at zero because -1 is a non-residue
        norm = (self.re * self.re + self.im * self.im) % p
        norm_inv = pow(norm, -1, p)
        return self.config.element(self.re * norm_inv, -self.im * norm_inv)

    def __truediv__(self, other: FieldElement | int) -> FieldElement:
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: FieldElement | int) -> FieldElement:
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> FieldElement:
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = self.config.one()
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def frobenius(self) -> FieldElement:
        """The field automorphism x -> x^p; conjugation on the extension."""
        # a^p = a for a in GF(p) and i^p = -i when p = 3 (mod 4), so the
        # power map reduces to negating the imaginary part
        config = self.config
        return config._interned[self.re, -self.im % config.p]

    # -- presentation ----------------------------------------------------

    def __str__(self) -> str:
        p = self.config.p
        re, im = _signed(self.re, p), _signed(self.im, p)
        if im == 0:
            return str(re)
        if im == 1:
            im_part = "i"
        elif im == -1:
            im_part = "-i"
        else:
            im_part = f"{im}i"
        if re == 0:
            return im_part
        return f"{re}+{im_part}" if not im_part.startswith("-") else f"{re}{im_part}"

    def __repr__(self) -> str:
        return f"<{self} in {self.config}>"


def phi_map(x: FieldElement) -> int:
    """Product-preserving sign map GF(p) -> {-1, 0, +1}.

    Zero maps to 0; even powers of the generator map to +1, odd powers
    to -1.  Raises ValueError on inputs outside the base field: elements
    with a nonzero imaginary part have no sign.
    """
    if not x.is_real:
        raise ValueError(f"phi_map is defined on GF(p) only, got {x}")
    return residue_sign(x.re, x.config.p)


class PhiUniquenessReport(Record):
    """Outcome of the exhaustive uniqueness check for the sign map."""

    p: int
    method: str  # 'exhaustive' (all sign assignments) or 'cyclic'
    candidates_checked: int
    qualifying_count: int
    unique: bool
    kernel: tuple[int, ...]
    matches_phi_map: bool
    generator_independent: bool


_EXHAUSTIVE_LIMIT = 13  # 2^(p-1) assignments stay enumerable up to here
_UNIQUENESS_GUARD = 1000


def preserves_products(p: int, signs) -> bool:
    """Whether the table signs[x], x in GF(p), has phi(ab) = phi(a) phi(b): with g
    the generator, whose powers sweep every unit, phi(0) = 0, phi(1) = 1 and
    phi(g x) = phi(g) phi(x) for all x give phi(g^k) = phi(g)^k by induction."""
    g = find_generator(p)
    return signs[0] == 0 and signs[1] == 1 and all(
        signs[g * x % p] == signs[g] * signs[x] for x in range(p))


def verify_phi_uniqueness(p: int) -> PhiUniquenessReport:
    """Check that exactly one surjective sign homomorphism exists on GF(p).

    Candidate maps send every unit to +1 or -1 (zero is fixed at 0) and must
    preserve products.  Exactly one candidate besides the trivial all-ones
    map survives, and it coincides with phi_map; its kernel is the set of
    even generator powers, independent of which generator is chosen.

    For p <= 13 all 2^(p-1) sign assignments are enumerated.  For larger p
    (guarded at p <= 1000) the unit group is cyclic on the generator, whose
    powers ``find_generator`` has seen sweep every unit; that forces any
    homomorphism to be determined by its value there, and the two possible
    determinations are checked.  Each candidate is a table of signs indexed
    by residue, checked by ``preserves_products``.  Generators are read off
    the same power walk as in ``find_generator``: walks of length p - 1.
    """
    if not is_prime(p) or p % 4 != 3:
        raise ValueError(f"p must be a prime with p = 3 (mod 4), got {p}")
    if p > _UNIQUENESS_GUARD:
        raise ValueError(f"p = {p} exceeds the enumeration guard {_UNIQUENESS_GUARD}")

    g = find_generator(p)
    g_powers = _powers(g, p)
    units = list(range(1, p))
    if p <= _EXHAUSTIVE_LIMIT:
        method = "exhaustive"
        tables = [(0, *signs) for signs in iter_product((1, -1), repeat=p - 1)]
    else:
        method = "cyclic"
        tables = []
        for sign_of_g in (1, -1):
            table = [0] * p
            for k, x in enumerate(g_powers):
                table[x] = sign_of_g**k
            tables.append(table)

    # the trivial all-ones map preserves products too; the sign map is the other
    qualifying = [t for t in tables if preserves_products(p, t) and -1 in t]
    unique = len(qualifying) == 1
    kernel: tuple[int, ...] = ()
    matches = False
    if unique:
        the_map = qualifying[0]
        kernel = tuple(a for a in units if the_map[a] == 1)
        config = FieldConfig(p, 1)
        matches = all(the_map[a] == phi_map(config.element(a)) for a in units)

    # the parity-of-exponent definition must not depend on the generator
    expected = frozenset(g_powers[::2])
    generator_independent = all(
        frozenset(h_powers[::2]) == expected
        for h_powers in (_powers(h, p) for h in units)
        if len(h_powers) == p - 1
    )

    return PhiUniquenessReport(
        p=p,
        method=method,
        candidates_checked=len(tables),
        qualifying_count=len(qualifying),
        unique=unique,
        kernel=kernel,
        matches_phi_map=matches,
        generator_independent=generator_independent,
    )
