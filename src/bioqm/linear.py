"""State vectors, dual vectors and projective states over a Galois field.

The inner product is sesquilinear: dot(a, b) applies the Frobenius
conjugation to the left argument componentwise.  A vector may be orthogonal
to itself (dot(v, v) = 0 with v nonzero); such vectors admit no conjugate
dual and are excluded from the physical state space.

The kernels below (``dot``, pairings, ``mat_vec``, duals, scaling, tensor
and Kronecker products, ``det2``) accumulate each output component over the
integer residues of their inputs and reduce mod p once, so each output costs
one interned ``FieldConfig.element`` lookup rather than one per field
operation.

Projective states identify vectors up to a nonzero scalar.  The canonical
representative scales the first nonzero component to 1.  State columns hold
element indices e = re * w + im (w = p over GF(p^2), 1 over GF(p)), encoded
and decoded here (entangle's product column, cheaper than an engine, is the
one other encoder); enumeration is lexicographic over them and runs on
``array`` columns: ``projective_columns`` builds index and norm columns by
repetition, ``enumerate_projective`` is the object view of its rows (each
by ``residue_state``), ``flat_residues`` reads a vector's (re, im), and
``ColumnEngine`` acts on columns, its ``rows`` inverting the row order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import add, getitem, mul, sub
from typing import Iterable, Sequence

from .gf import FieldConfig, FieldElement

# raw-vector count beyond which enumeration refuses to run
ENUMERATION_GUARD = 10**8

EntryLike = FieldElement | int | tuple[int, int]


def _same_field(a: FieldConfig, b: FieldConfig) -> bool:
    return a is b or a == b


def _require_field(config: FieldConfig, entries: Iterable[FieldElement]) -> None:
    """The field check each per-element operation made, done once per entry."""
    for x in entries:
        if x.config is not config and x.config != config:
            raise ValueError(f"field mismatch: {x.config} vs {config}")


def _as_element(config: FieldConfig, entry: EntryLike) -> FieldElement:
    if isinstance(entry, FieldElement):
        if not _same_field(entry.config, config):
            raise ValueError(f"field mismatch: {entry.config} vs {config}")
        return entry
    if isinstance(entry, tuple):
        return config.element(*entry)
    return config.element(entry)


@dataclass(frozen=True)
class StateVector:
    """A ket: a tuple of field elements."""

    components: tuple[FieldElement, ...]
    config: FieldConfig

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a state vector needs at least one component")
        for c in self.components:
            if c.config is not self.config and c.config != self.config:
                raise ValueError("all components must live in the same field")

    @staticmethod
    def make(config: FieldConfig, entries: Iterable[EntryLike]) -> StateVector:
        return StateVector(tuple(_as_element(config, e) for e in entries), config)

    @property
    def dim(self) -> int:
        return len(self.components)

    def __getitem__(self, k: int) -> FieldElement:
        return self.components[k]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def scale(self, factor: FieldElement) -> StateVector:
        config = self.config
        factor = _as_element(config, factor)
        element, fr, fi = config.element, factor.re, factor.im
        return StateVector(
            tuple(element(c.re * fr - c.im * fi, c.re * fi + c.im * fr) for c in self.components),
            config,
        )

    def tensor(self, other: StateVector) -> StateVector:
        """Row-major Kronecker product (left index varies slowest)."""
        if not _same_field(other.config, self.config):
            raise ValueError("tensor factors must share a field")
        return StateVector(_outer(self.config, self.components, other.components), self.config)

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.components) + "]"


def _outer(config: FieldConfig, xs, ys) -> tuple[FieldElement, ...]:
    """All products x * y, x slowest: the Kronecker product of two rows."""
    element = config.element
    return tuple(
        element(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)
        for x in xs
        for y in ys
    )


def _contract(config: FieldConfig, xs, ys) -> FieldElement:
    """sum of x_k * y_k, reduced once."""
    re = im = 0
    for x, y in zip(xs, ys):
        xr, xi, yr, yi = x.re, x.im, y.re, y.im
        re += xr * yr - xi * yi
        im += xr * yi + xi * yr
    return config.element(re, im)


def dot(a: StateVector, b: StateVector) -> FieldElement:
    """Sesquilinear inner product: sum of frobenius(a_k) * b_k."""
    if not _same_field(a.config, b.config) or a.dim != b.dim:
        raise ValueError("dot requires matching shape and field")
    # frobenius(x) * y = (xr - xi i)(yr + yi i)
    re = im = 0
    for x, y in zip(a.components, b.components):
        xr, xi, yr, yi = x.re, x.im, y.re, y.im
        re += xr * yr + xi * yi
        im += xr * yi - xi * yr
    return a.config.element(re, im)


def is_self_orthogonal(v: StateVector) -> bool:
    """True when dot(v, v) vanishes for a nonzero v (an unphysical state)."""
    if v.is_zero:
        raise ValueError("the zero vector is not a state")
    return dot(v, v).is_zero


@dataclass(frozen=True)
class DualVector:
    """A bra: a row of field elements paired with kets by plain contraction."""

    components: tuple[FieldElement, ...]
    config: FieldConfig

    def __post_init__(self) -> None:
        _require_field(self.config, self.components)

    @property
    def dim(self) -> int:
        return len(self.components)

    def __getitem__(self, k: int) -> FieldElement:
        return self.components[k]

    def pairing(self, v: StateVector) -> FieldElement:
        if not _same_field(v.config, self.config) or v.dim != self.dim:
            raise ValueError("pairing requires matching shape and field")
        return _contract(self.config, self.components, v.components)

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.components) + "]"


def conjugate_dual(v: StateVector) -> DualVector:
    """The bra with components frobenius(v_k) / dot(v, v).

    Defined exactly when v is not self-orthogonal; the normalization makes
    the pairing of the dual with v equal to 1 regardless of scaling.
    """
    norm = dot(v, v)
    if norm.is_zero:
        raise ValueError(f"self-orthogonal vector {v} has no conjugate dual")
    # the norm lies in GF(p), so frobenius(c) * inv = (cr - ci i) * inv
    inv = norm.inverse().re
    element = v.config.element
    return DualVector(
        tuple(element(c.re * inv, -c.im * inv) for c in v.components), v.config
    )


@dataclass(frozen=True)
class ProjectiveState:
    """A ray: the canonical representative has leading component 1."""

    rep: StateVector
    self_orthogonal: bool

    @property
    def physical(self) -> bool:
        return not self.self_orthogonal

    @property
    def config(self) -> FieldConfig:
        return self.rep.config

    @property
    def dim(self) -> int:
        return self.rep.dim

    def __str__(self) -> str:
        return str(self.rep)


def canonicalize(v: StateVector) -> ProjectiveState:
    """Scale v so its first nonzero component becomes 1."""
    if v.is_zero:
        raise ValueError("the zero vector has no projective class")
    leading = next(c for c in v.components if not c.is_zero)
    rep = v.scale(leading.inverse())
    return ProjectiveState(rep=rep, self_orthogonal=is_self_orthogonal(rep))


def index_width(config: FieldConfig) -> int:
    """w in the element index e = re * w + im: p over GF(p^2), 1 over GF(p)."""
    return config.p if config.is_extension else 1


def index_residues(config: FieldConfig) -> list[tuple[int, int]]:
    """The (re, im) residues of every element index, in index order."""
    w = index_width(config)
    return [divmod(e, w) for e in range(config.order)]


def element_indices(config: FieldConfig, entries: Iterable[FieldElement]) -> tuple[int, ...]:
    """The element indices of a run of field elements."""
    w = index_width(config)
    return tuple(x.re * w + x.im for x in entries)


def require_enumerable(config: FieldConfig, dim: int) -> None:
    """Refuse, before anything is built, a dimension below 1 or q^dim past the guard."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if (q := config.order) ** dim > ENUMERATION_GUARD:
        raise ValueError(f"enumeration of {q}^{dim} raw vectors exceeds guard {ENUMERATION_GUARD}")


def require_byte_indices(config: FieldConfig) -> None:
    """Refuse, before anything is built, a field whose indices need more than a byte."""
    if config.order > 256:
        raise ValueError(f"GF({config.order}) has q > 256 elements, past a one-byte element index")


def projective_columns(config: FieldConfig, dim: int) -> tuple[tuple[array, ...], array]:
    """Every projective state of the given dimension as integer columns.

    Returns (columns, norms), one row per state: columns[k] is the element
    index of the canonical representative's component k, and norms is
    dot(v, v) mod p, zero exactly on self-orthogonal states; each is an
    ``array`` of the narrowest typecode holding q - 1.  Rows run zeros, a
    leading 1 (index w), then a free tail, lexicographically by index; there
    are (q^dim - 1) / (q - 1) of them.

    No row is built on its own.  In a block of tails, each column takes each
    index n times in turn and repeats that, so it is ``array * n`` and
    concatenation.  A tail c + t has norm N(c) + N(t), so the norms of the
    tails of length L, plus s, are those of length L - 1 plus s + N(c) for
    each index c in turn: one copy per distinct value mod p.
    """
    require_enumerable(config, dim)
    q, p, w = config.order, config.p, index_width(config)
    code = next(c for c in "BHIL" if q <= 256 ** array(c).itemsize)
    norm = [(re * re + im * im) % p for re, im in index_residues(config)]

    def joined(parts: Iterable[array]) -> array:
        return array(code, b"".join(parts))

    copies: dict[tuple[int, int], array] = {}

    def tail_norms(length: int, shift: int) -> array:
        """N(t) + shift mod p for every tail t of this many components."""
        if (length, shift) not in copies:
            copies[length, shift] = joined(
                tail_norms(length - 1, (shift + n) % p) for n in norm
            ) if length else array(code, (shift,))
        return copies[length, shift]

    # leading-zero prefixes sort first, so walking the pivot from the last
    # position to the first gives lexicographic order directly
    blocks: list[list[array]] = [[] for _ in range(dim + 1)]
    for pivot in range(dim - 1, -1, -1):
        choices = [(0,)] * pivot + [(w,)] + [range(q)] * (dim - 1 - pivot)
        for k, values in enumerate(choices):
            n, tile = q ** (dim - 1 - max(k, pivot)), q ** max(0, k - 1 - pivot)
            blocks[k].append(joined(array(code, (x,)) * n for x in values) * tile)
        blocks[-1].append(tail_norms(dim - 1 - pivot, 1))
    *columns, norms = map(joined, blocks)
    expected = (q**dim - 1) // (q - 1)
    if any(len(column) != expected for column in (*columns, norms)):
        raise AssertionError(f"projective count {len(norms)} != {expected}")
    return tuple(columns), norms


def residue_state(config: FieldConfig, v: Sequence[int], norm: int) -> ProjectiveState:
    """The projective state of one ``projective_columns`` row (v, norm)."""
    # an index's residues are reduced already, so they key the intern store as they are
    w = index_width(config)
    components = tuple(config._interned[divmod(e, w)] for e in v)
    return ProjectiveState(StateVector(components, config), norm == 0)


class ColumnEngine:
    """Actions on columns: ``bytes`` of element indices, one column per
    component, as ``entangle.two_particle_codes`` stores them.

    ``times[m]`` translates a column to m times it, ``plus[x][y]`` is x + y,
    ``inverse`` and ``negate`` translate to inverses (0 to 0) and negatives,
    and ``first[x][y]`` is x if x != 0 else y.  An index is one byte, so a
    field past 256 elements is refused before any table is built.
    """

    def __init__(self, config: FieldConfig):
        require_byte_indices(config)
        self.q, self.width = q, w = config.order, index_width(config)
        p, pad, pairs = config.p, bytes(256 - q), index_residues(config)

        def column(values) -> bytes:
            return bytes((x % p) * w + y % p for x, y in values) + pad

        self.times = [column((mr * xr - mi * xi, mr * xi + mi * xr) for xr, xi in pairs)
                      for mr, mi in pairs]
        self.plus = [column((xr + yr, xi + yi) for yr, yi in pairs) for xr, xi in pairs]
        self.inverse = bytes([0, *(row.index(w) for row in self.times[1:])]) + pad
        self.negate = column((-x, -y) for x, y in pairs)
        self.first = [bytes(range(256)), *(bytes((x,)) * 256 for x in range(1, q))]

    def lin(self, m0: int, x: bytes, m1: int, y: bytes) -> bytes:
        """The column m0 x + m1 y, for element indices m0 and m1."""
        return bytes(map(getitem, map(self.plus.__getitem__, x.translate(self.times[m0])),
                         y.translate(self.times[m1])))

    def side1(self, m: Sequence[int], psi: Sequence[bytes]) -> tuple[bytes, ...]:
        """psi -> M psi on 2x2 arrays [[psi0, psi1], [psi2, psi3]], M as element indices."""
        m0, m1, m2, m3 = m
        return (self.lin(m0, psi[0], m1, psi[2]), self.lin(m0, psi[1], m1, psi[3]),
                self.lin(m2, psi[0], m3, psi[2]), self.lin(m2, psi[1], m3, psi[3]))

    def canonical(self, columns: Sequence[bytes]) -> list[bytes]:
        """Each row scaled by its first nonzero entry's inverse, so that entry is 1."""
        pivots = columns[-1]
        for column in columns[-2::-1]:
            pivots = bytes(map(getitem, map(self.first.__getitem__, column), pivots))
        scale = pivots.translate(self.inverse)
        return [bytes(map(getitem, map(self.times.__getitem__, scale), column))
                for column in columns]

    def rows(self, columns: Sequence[bytes]) -> list[int]:
        """Each canonical row's index in ``projective_columns(config, d)``.

        Rows run by pivot, then lexicographically, so a leading 1 at
        component k and tail indices e_j give row (q^m - 1)/(q - 1) + sum over
        j > k of e_j q^(d-1-j), m = d - 1 - k.  In base q the row reads
        V = w q^m + that sum, the leading 1 being index w, and V lies in
        [w q^m, (w + 1) q^m): a bisection finds m.
        """
        q, w, d = self.q, self.width, len(columns)
        values = columns[0]
        for column in columns[1:]:
            values = map(add, map(mul, values, repeat(q)), column)
        values = list(values)
        bounds = [w * q**m for m in range(d)]
        shifts = [0, *(w * q**m - (q**m - 1) // (q - 1) for m in range(d))]
        return list(map(sub, values, map(shifts.__getitem__,
                                         map(bisect_right, repeat(bounds), values))))

    def positions(self, rows: Iterable[int], dim: int) -> list[int]:
        """Each ``projective_columns(config, dim)`` row's position in rows, or -1."""
        out = [-1] * ((self.q ** dim - 1) // (self.q - 1))
        for k, row in enumerate(rows):
            out[row] = k
        return out

    def permutation(self, positions: Sequence[int], columns: Sequence[bytes]) -> tuple[int, ...]:
        """The set position of each row of columns, brought to canonical form."""
        perm = tuple(map(positions.__getitem__, self.rows(self.canonical(columns))))
        if -1 in perm:
            raise ValueError("the action escapes the given state set")
        return perm


def enumerate_projective(config: FieldConfig, dim: int) -> list[ProjectiveState]:
    """All projective states of the given dimension, lexicographically: the
    objects of the ``projective_columns`` rows, in their order."""
    columns, norms = projective_columns(config, dim)
    return [residue_state(config, v, norm) for v, norm in zip(zip(*columns), norms)]


def flat_residues(entries: Iterable[FieldElement]) -> tuple[int, ...]:
    """The flat (re, im, ...) residues of a run of field elements."""
    return tuple(part for x in entries for part in (x.re, x.im))


# -- small exact matrices ---------------------------------------------------
#
# Matrices are tuples of row tuples.  Only tiny sizes occur (2x2 and 4x4),
# so the helpers stay naive and allocation-friendly.

Matrix = tuple[tuple[FieldElement, ...], ...]


def matrix_make(config: FieldConfig, rows: Sequence[Sequence[EntryLike]]) -> Matrix:
    return tuple(tuple(_as_element(config, e) for e in row) for row in rows)


def identity_matrix(config: FieldConfig, n: int) -> Matrix:
    zero, one = config.zero(), config.one()
    return tuple(
        tuple(one if r == c else zero for c in range(n)) for r in range(n)
    )


def mat_vec(m: Matrix, v: StateVector) -> StateVector:
    if len(m[0]) != v.dim:
        raise ValueError("matrix and vector shapes do not match")
    config, comps = v.config, v.components
    for row in m:
        _require_field(config, row)
    return StateVector(tuple(_contract(config, row, comps) for row in m), config)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix shapes do not match")
    config = a[0][0].config
    for row in a + b:
        _require_field(config, row)
    columns = tuple(zip(*b))
    return tuple(tuple(_contract(config, row, col) for col in columns) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(m: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in m)


def dagger(m: Matrix) -> Matrix:
    """Conjugate transpose using the Frobenius conjugation."""
    return tuple(
        tuple(m[r][c].frobenius() for r in range(len(m))) for c in range(len(m[0]))
    )


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Row-major Kronecker product, so kron(A, B)(x tensor y) = Ax tensor By."""
    config = a[0][0].config
    for row in a + b:
        _require_field(config, row)
    return tuple(_outer(config, row_a, row_b) for row_a in a for row_b in b)


def det2(m: Matrix) -> FieldElement:
    if len(m) != 2 or len(m[0]) != 2:
        raise ValueError("det2 expects a 2x2 matrix")
    (a, b), (c, d) = m
    _require_field(a.config, (b, c, d))
    # ad - bc over the residues
    return a.config.element(
        a.re * d.re - a.im * d.im - b.re * c.re + b.im * c.im,
        a.re * d.im + a.im * d.re - b.re * c.im - b.im * c.re,
    )


def inverse2(m: Matrix) -> Matrix:
    d = det2(m)
    if d.is_zero:
        raise ZeroDivisionError("matrix is singular")
    inv = d.inverse()
    return (
        (m[1][1] * inv, -m[0][1] * inv),
        (-m[1][0] * inv, m[0][0] * inv),
    )
