"""Two-particle states, product/entangled classification, correlators, CHSH.

A four-component state is a product state exactly when its 2x2 reshape has
zero determinant (rank one means it is a Kronecker product of two
one-particle vectors).  Product spin observables are Kronecker products of
one-particle spin observables, plain 4x4 matrices.

``two_particle_codes`` caches, per field, every canonical two-particle state
in ``bytes`` columns: 4 of element indices, norms, and kind bytes (that
determinant test, read off the row order, and physicality).  ``census``
counts kind bytes and ``chsh_bound`` scans the index columns without
building a state object; ``two_particle_states`` is their object view.

The CHSH combination for axis choices (A, a) on side 1 and (B, b) on side 2
is E(A,B) + E(A,b) + E(a,B) - E(a,b) with each E a sign-mapped correlator.
Admissible quadruples require A != a and B != b.

Every sign-mapped correlator E(i,j) = phi_map(<psi|spin_i x spin_j|psi>)
comes from one integer-residue kernel, ``_sign_grids``.  Write psi_r =
x_r + i y_r and take the 16 Gram values G_rr = x_r^2 + y_r^2 and, for r < c,
G_rc = x_r x_c + y_r y_c and A_rc = y_r x_c - x_r y_c.  Then conj(psi_r)
psi_c = G_rc - i A_rc, so a table entry hr + i hi at (r, c) adds
(hr G_rc + hi A_rc) + i (hi G_rc - hr A_rc) to the bracket.  ``_pair_forms``
folds each s_i x s_j (row index on side 1) this way, once per field, into a
real form over the Gram values, keeping the coefficients nonzero mod p (2 or
4 of 16 for the spin tables).  The tables are Hermitian, so the bracket lies
in GF(p): the fold checks that once per field, raising RuntimeError on an
imaginary form with a coefficient left.  The bracket divides the real part
by the norm n = <psi, psi> in GF(p)*.  The sign map is multiplicative and
n^-1 = n * (n^-1)^2 differs from n by a square, so phi(n^-1) = phi(n) and
E(i,j) = phi(bracket_ij * n): one sign per pair, read off integer residues
without building any field element.  The kernel reads a chunk of states as
8 (re, im) residue columns, builds each Gram value and form as a column by
``map`` chains that run in C, and yields one sign grid per state:
``correlator_grid`` passes columns of one entry and signs by Euler's
criterion, ``chsh_bound`` streams the physical rows in chunks, each split
into re and im by translation, and looks signs up in a table of all p.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, compress, islice, product, repeat
from operator import add, mul, sub
from typing import Callable, Iterable

from .gf import FieldConfig, phi_map, residue_sign
from .linear import (
    Matrix,
    ProjectiveState,
    StateVector,
    canonicalize,
    det2,
    flat_residues,
    identity_matrix,
    index_residues,
    index_width,
    kron,
    projective_columns,
    require_byte_indices,
    require_enumerable,
    residue_state,
)
from .biortho import bracket, require_axes, spin_axes, spin_observable


@dataclass(frozen=True)
class TwoParticleState:
    """A projective four-component state tagged product or entangled."""

    state: ProjectiveState
    kind: str  # 'product' or 'entangled'

    @property
    def physical(self) -> bool:
        return self.state.physical

    @property
    def config(self) -> FieldConfig:
        return self.state.config

    @property
    def is_product(self) -> bool:
        return self.kind == "product"

    def __str__(self) -> str:
        return str(self.state)


def classify(state: ProjectiveState) -> TwoParticleState:
    if state.dim != 4:
        raise ValueError("two-particle states have four components")
    v = state.rep
    reshaped = ((v[0], v[1]), (v[2], v[3]))
    kind = "product" if det2(reshaped).is_zero else "entangled"
    return TwoParticleState(state=state, kind=kind)


def from_vector(vec: StateVector) -> TwoParticleState:
    return classify(canonicalize(vec))


def from_product(x: StateVector, y: StateVector) -> TwoParticleState:
    out = from_vector(x.tensor(y))
    if not out.is_product:
        raise AssertionError("tensor product classified as entangled")  # unreachable
    return out


PHYSICAL, PRODUCT = 1, 2  # the bits of a ``two_particle_codes`` kind byte


@lru_cache(maxsize=None)
def two_particle_codes(config: FieldConfig) -> tuple[tuple[bytes, ...], bytes, bytes]:
    """Every two-particle state, lexicographically, as columns (psis, norms, kinds).

    psis is the 4 element-index columns and norms the norm column of
    ``linear.projective_columns(config, 4)`` as ``bytes``, 6 bytes a state
    with the kinds; a field past the guard or 256 elements is refused first.
    A kind byte is PRODUCT when det [[a, b], [c, d]] = ad - bc vanishes, plus
    PHYSICAL when the norm is nonzero.

    No determinant is taken per state.  A canonical row has a = 0 or 1, and
    each row after (0, 0, 0, 1) lies in a run of q rows sharing (a, b, c)
    with d running over every component.  The determinant is affine in d:
    -bc on a run with a = 0, so the runs (0, 0, 1, d) and (0, 1, 0, d) are
    all product and (0, 1, c, d) with c != 0 none; d - bc on a run with
    a = 1, so exactly its row d = bc is.  That is rows 0 to 2q and one row in
    each of the q^2 runs (1, b, c, d): (q + 1)^2 in all.
    """
    require_enumerable(config, 4)
    require_byte_indices(config)
    columns, norms = projective_columns(config, 4)
    q, p, w = config.order, config.p, index_width(config)
    kinds = bytearray(norms.tobytes().translate(bytes((0,)) + bytes((PHYSICAL,)) * 255))
    # after the 1 + q + q^2 rows with a = 0, one run per (b, c); d's index is its offset
    bc = (((br * cr - bi * ci) % p) * w + (br * ci + bi * cr) % p
          for (br, bi), (cr, ci) in product(index_residues(config), repeat=2))
    for row in chain(range(2 * q + 1), map(add, range(1 + q + q * q, len(kinds), q), bc)):
        kinds[row] |= PRODUCT
    return tuple(map(bytes, columns)), bytes(norms), bytes(kinds)


@lru_cache(maxsize=None)
def two_particle_states(config: FieldConfig) -> tuple[TwoParticleState, ...]:
    """The objects of ``two_particle_codes``, in its order."""
    columns, norms, kinds = two_particle_codes(config)
    return tuple(
        TwoParticleState(residue_state(config, psi, norm),
                         "product" if kind & PRODUCT else "entangled")
        for psi, norm, kind in zip(zip(*columns), norms, kinds)
    )


@dataclass(frozen=True)
class Census:
    """State counts for one field, split by product/entangled and physicality."""

    states: int
    product: int
    product_physical: int
    product_self_orthogonal: int
    entangled: int
    entangled_physical: int
    entangled_self_orthogonal: int

    def counts(self) -> dict[str, int]:
        """The counts by field name, in field order (the census report's row order)."""
        return asdict(self)


def census(config: FieldConfig) -> Census:
    kinds = two_particle_codes(config)[2]
    tally = [kinds.count(kind) for kind in range(4)]  # indexed by kind byte
    return Census(
        states=len(kinds),
        product=tally[PRODUCT | PHYSICAL] + tally[PRODUCT],
        product_physical=tally[PRODUCT | PHYSICAL],
        product_self_orthogonal=tally[PRODUCT],
        entangled=tally[PHYSICAL] + tally[0],
        entangled_physical=tally[PHYSICAL],
        entangled_self_orthogonal=tally[0],
    )


# -- product observables and correlators --------------------------------------


@lru_cache(maxsize=None)
def product_spin(config: FieldConfig, i: int, j: int) -> Matrix:
    """The two-particle observable spin(i) tensor spin(j)."""
    return kron(spin_observable(config, i), spin_observable(config, j))


@lru_cache(maxsize=None)
def one_sided_spin(config: FieldConfig, side: int, axis: int) -> Matrix:
    """spin(axis) acting on one side, identity on the other."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    sigma = spin_observable(config, axis)
    eye = identity_matrix(config, 2)
    return kron(sigma, eye) if side == 1 else kron(eye, sigma)


# the index pairs r < c of a four-component amplitude, in Gram-value order
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


# Gram value k as (op, a, b, u, v) = op(w_a w_b, w_u w_v) over flat residues w,
# x_r = w_2r and y_r = w_2r+1: each G_rr, then G_rc and A_rc for ``_PAIRS``
_GRAM = tuple(
    [(add, 2 * r, 2 * c, 2 * r + 1, 2 * c + 1) for r, c in (*zip(range(4), range(4)), *_PAIRS)]
    + [(sub, 2 * r + 1, 2 * c, 2 * r, 2 * c + 1) for r, c in _PAIRS]
)
_CHUNK = 2048  # physical code-table rows per ``_sign_grids`` call in ``chsh_bound``


def _sparse(coefficients: list[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A form over the ``_GRAM`` values as its (indices, coefficients) nonzero
    mod p; the zero polynomial has no index."""
    kept = {k: c % p for k, c in enumerate(coefficients) if c % p}
    return tuple(kept), tuple(kept.values())


@lru_cache(maxsize=None)
def _pair_forms(config: FieldConfig) -> dict:
    """Per-field kernel input: (i, j) -> the real part of <psi, (s_i x s_j) psi>
    as a ``_sparse`` form over ``_GRAM``.

    A spin table M = sum lambda_k k k^dagger / n_k has lambda_k, n_k = <k, k>
    in GF(p), so M^dagger = M and so is s_i x s_j: the imaginary part is 0.
    The imaginary form is folded only to check that, as the 16 Gram values
    are linearly independent quadratic forms: with no coefficient left it is
    0 on every state, and a coefficient left raises RuntimeError.
    """
    p = config.p
    tables = {axis: flat_residues(chain(*spin_observable(config, axis)))
              for axis in spin_axes(config)}
    forms = {}
    for (i, s), (j, t) in product(tables.items(), repeat=2):
        # h_rc = (s x t)[r][c] = s[r//2][c//2] * t[r%2][c%2] as hr + i hi
        hr, hi = {}, {}
        for r, c in product(range(4), repeat=2):
            u, v = 2 * (r // 2 * 2 + c // 2), 2 * (r % 2 * 2 + c % 2)
            hr[r, c] = s[u] * t[v] - s[u + 1] * t[v + 1]
            hi[r, c] = s[u] * t[v + 1] + s[u + 1] * t[v]
        # conj(psi_r) h_rc psi_c = (hr G + hi A) + i (hi G - hr A), A_cr = -A_rc
        re = ([hr[r, r] for r in range(4)] + [hr[r, c] + hr[c, r] for r, c in _PAIRS]
              + [hi[r, c] - hi[c, r] for r, c in _PAIRS])
        im = ([hi[r, r] for r in range(4)] + [hi[r, c] + hi[c, r] for r, c in _PAIRS]
              + [hr[c, r] - hr[r, c] for r, c in _PAIRS])
        if any(x % p for x in im):
            raise RuntimeError(f"spin {i}x{j} is not Hermitian; observable is malformed")
        forms[i, j] = _sparse(re, p)
    return forms


def correlator_grid(
    state: TwoParticleState, side1: tuple[int, ...], side2: tuple[int, ...]
) -> dict[tuple[int, int], int]:
    """E(i, j) for every axis i in side1 and j in side2, from one kernel pass.

    Raises ValueError on an axis the field lacks or a self-orthogonal state.
    """
    config = state.config
    require_axes(config, (*side1, *side2))
    psi = flat_residues(state.state.rep.components)
    norm = sum(map(mul, psi, psi)) % config.p
    if norm == 0:
        raise ValueError(f"self-orthogonal vector {state.state.rep} has no conjugate dual")
    pairs = [(i, j) for i in side1 for j in side2]
    forms = map(_pair_forms(config).__getitem__, pairs)
    sign = partial(residue_sign, p=config.p)
    (signs,) = _sign_grids(config, [(x,) for x in psi], (norm,), forms, sign)
    return dict(zip(pairs, signs))


def _sign_grids(config: FieldConfig, flat, norms, forms: Iterable, sign: Callable[[int], int]):
    """The sign E of each ``_pair_forms`` real form in forms for each state of
    a chunk, given as its 8 flat (re, im) residue columns in flat and its
    norms <psi, psi> mod p != 0 in norms, by ``sign`` on [0, p).  On real rows
    (all y_r = 0) G_rc = x_r x_c and A_rc = 0."""
    p = config.p
    real = not any(map(any, flat[1::2]))
    gram = {}

    def column(form):
        terms = []
        for k, c in zip(*form):
            if k not in gram:
                op, a, b, u, v = _GRAM[k]
                products = map(mul, flat[a], flat[b])
                gram[k] = list(products if real else map(op, products, map(mul, flat[u], flat[v])))
            terms.append(gram[k] if c == 1 else map(c.__mul__, gram[k]))
        return reduce(partial(map, add), terms) if terms else repeat(0, len(norms))

    return zip(*[map(sign, map(p.__rmod__, map(mul, column(form), norms))) for form in forms])


def correlator(state: TwoParticleState, i: int, j: int) -> int:
    """The sign-mapped two-particle expectation E(spin_i x spin_j)."""
    return correlator_grid(state, (i,), (j,))[i, j]


def single_spin(state: TwoParticleState, side: int, axis: int) -> int:
    """The sign-mapped one-sided expectation E(spin_axis on the given side)."""
    return phi_map(bracket(state.state, one_sided_spin(state.config, side, axis)))


@dataclass(frozen=True)
class CHSHRecord:
    state: str
    axes: tuple[int, int, int, int]  # (A, a, B, b)
    value: int
    correlators: dict[str, int]


def chsh(state: TwoParticleState, A: int, a: int, B: int, b: int,
         label: str | None = None) -> CHSHRecord:
    require_axes(state.config, (A, a, B, b))
    if A == a or B == b:
        raise ValueError("CHSH needs two distinct axes on each side")
    e = correlator_grid(state, (A, a), (B, b))
    return CHSHRecord(
        state=label if label is not None else str(state),
        axes=(A, a, B, b),
        value=next(_chsh_values(e, ((A, a, B, b),))),
        correlators={f"{i}{j}": e[i, j] for (i, j) in sorted(e)},
    )


def axis_quadruples(config: FieldConfig) -> list[tuple[int, int, int, int]]:
    axes = spin_axes(config)
    return [
        (A, a, B, b)
        for A in axes
        for a in axes
        if a != A
        for B in axes
        for b in axes
        if b != B
    ]


def _chsh_values(e: dict[tuple[int, int], int], quadruples):
    """The CHSH value of each quadruple (A, a, B, b) read from a correlator grid."""
    return (e[A, B] + e[A, b] + e[a, B] - e[a, b] for A, a, B, b in quadruples)


def chsh_scan(state: TwoParticleState) -> dict[int, int]:
    """Histogram of |CHSH| over all admissible axis quadruples."""
    axes = spin_axes(state.config)
    grid = correlator_grid(state, axes, axes)
    tally = {k: 0 for k in range(5)}
    for value in _chsh_values(grid, axis_quadruples(state.config)):
        tally[abs(value)] += 1
    return tally


@dataclass(frozen=True)
class ChshBound:
    bound: int
    states_scanned: int
    quadruples_per_state: int


def chsh_bound(config: FieldConfig) -> ChshBound:
    """Maximum |CHSH| over every physical two-particle state and quadruple.

    The physical rows of the code table go to the kernel ``_CHUNK`` at a
    time, so the working memory is one chunk's columns whatever the field.
    Every grid is computed (``states_scanned`` is a true count);
    then the CHSH values are read once per distinct grid (at most 3^9) up to
    the first that reaches 4: four signs in {-1, 0, 1} sum to no more.
    """
    quadruples = axis_quadruples(config)
    forms = _pair_forms(config)
    # every state reads many signs, so a table of all p of them pays off
    # here; a single state's grid over a large prime must not build one
    sign = tuple(residue_sign(r, config.p) for r in range(config.p)).__getitem__
    columns, norms, _ = two_particle_codes(config)
    split = [bytes(part) + bytes(256 - config.order) for part in zip(*index_residues(config))]
    rows, physical = [compress(column, norms) for column in columns], filter(None, norms)
    grids, scanned = set(), 0
    while chunk := list(islice(physical, _CHUNK)):
        scanned += len(chunk)
        indices = [bytes(islice(column, len(chunk))) for column in rows]
        flat = [column.translate(part) for column in indices for part in split]
        grids.update(_sign_grids(config, flat, chunk, forms.values(), sign))
    best = 0
    for grid in grids:
        best = max(best, *map(abs, _chsh_values(dict(zip(forms, grid)), quadruples)))
        if best == 4:
            break
    return ChshBound(bound=best, states_scanned=scanned, quadruples_per_state=len(quadruples))


# -- named representatives -----------------------------------------------------


REPRESENTATIVES: dict[str, tuple[tuple[int, int], ...]] = {
    "S": ((0, 0), (1, 0), (-1, 0), (0, 0)),
    "T": ((1, 0), (0, 0), (1, 1), (1, 0)),
    "U": ((1, 0), (0, 0), (1, 0), (1, 1)),
}


@lru_cache(maxsize=None)
def representative_states(config: FieldConfig) -> dict[str, TwoParticleState]:
    """The entangled ``REPRESENTATIVES``: S always, T and U on degree 2."""
    reps = {label: from_vector(StateVector.make(config, entries))
            for label, entries in REPRESENTATIVES.items() if label == "S" or config.is_extension}
    for label, tp in reps.items():
        if tp.is_product or not tp.physical:
            raise AssertionError(f"representative {label} is not entangled physical")
    return reps
