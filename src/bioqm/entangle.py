"""Two-particle states, product/entangled classification, correlators, CHSH.

A four-component state is a product state exactly when its 2x2 reshape has
zero determinant (rank one means it is a Kronecker product of two
one-particle vectors).  Product spin observables are Kronecker products of
one-particle spin observables, plain 4x4 matrices.

``two_particle_codes`` caches, per field, every canonical two-particle state
in ``bytes`` columns: 4 of element indices, norms, and kind bytes (that
determinant test, read off the row order, and physicality).  ``census``
counts kind bytes and ``two_particle_states`` is their object view;
``chsh_bound`` reads the table's runs without building it.

The CHSH combination for axis choices (A, a) on side 1 and (B, b) on side 2
is E(A,B) + E(A,b) + E(a,B) - E(a,b) with each E a sign-mapped correlator.
Admissible quadruples require A != a and B != b.

Every sign-mapped correlator E(i,j) = phi_map(<psi|spin_i x spin_j|psi>) is
read off integer residues.  Write psi_r = x_r + i y_r and take the 16 Gram
values G_rr = x_r^2 + y_r^2 and, for r < c, G_rc = x_r x_c + y_r y_c and
A_rc = y_r x_c - x_r y_c.  Then conj(psi_r) psi_c = G_rc - i A_rc, so a table
entry hr + i hi at (r, c) adds (hr G_rc + hi A_rc) + i (hi G_rc - hr A_rc) to
the bracket.  ``_pair_forms`` folds each ``product_spin`` s_i x s_j this way,
once per field, into a real form over the Gram values, keeping the
coefficients nonzero mod p (2 or 4 of 16 for the spin tables).  The tables
are Hermitian, so the bracket lies in GF(p): the fold checks that once per
field, raising RuntimeError on an imaginary form with a coefficient left.
The bracket divides the real part by the norm n = <psi, psi> in GF(p)*.  The
sign map is multiplicative and n^-1 = n * (n^-1)^2 differs from n by a
square, so phi(n^-1) = phi(n) and E(i,j) = phi(bracket_ij) phi(n).  Each real
form is c0 sum t_k G_k with t_k = +-1; the fold moves phi(c0) into the t_k,
leaving the square c0 phi(c0) as a scale whose sign is 1, so
E(i,j) = phi(sum t_k G_k) phi(n): one sign per pair and one per state, read
off integer residues without building any field element.  ``correlator_grid``
evaluates a single state on its 16 Gram integers: each form is sum t_k G_k,
signed by Euler's criterion and multiplied by phi(n).  The run kernel
``_run_lines``, behind ``chsh_bound`` alone, signs the code table's runs of
q rows (a, b, c, d), d over the field, without building the table: on a run
each form is C + u x_3 + v y_3 + h N(d) with integers C, u and v of the
prefix, so its signs are one translated line of q bytes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, product, repeat
from operator import add, itemgetter, methodcaller, mod, mul, sub
from typing import Iterable, Iterator

from .gf import FieldConfig, Record, asdict, phi_map, residue_sign
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


class TwoParticleState(Record):
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


class Census(Record):
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


@lru_cache(maxsize=None)
def _pair_forms(config: FieldConfig) -> dict:
    """Per-field kernel input: (i, j) -> the real part of <psi, (s_i x s_j) psi>
    as (indices, signs, scale), the form scale * sum t_k G_k over the ``_GRAM``
    values at indices with each sign t_k = +-1.

    A spin table M = sum lambda_k k k^dagger / n_k has lambda_k, n_k = <k, k>
    in GF(p), so M^dagger = M and so is s_i x s_j: the imaginary part is 0.
    The imaginary form is folded only to check that, as the 16 Gram values
    are linearly independent quadratic forms: with no coefficient left it is
    0 on every state, and a coefficient left raises RuntimeError.

    Every real form is c0 times a signed sum of Gram values, c0 its first
    coefficient nonzero mod p; one that is not (or has no coefficient) raises
    RuntimeError too.  phi(c0) goes into the signs, so scale = c0 phi(c0) is a
    square (-1 is not one, as p = 3 mod 4) and phi(form) = phi(sum t_k G_k).
    A positive sign comes first when there is one.
    """
    p = config.p
    forms = {}
    for i, j in product(spin_axes(config), repeat=2):
        h = product_spin(config, i, j)  # h_rc = hr + i hi
        hr = {(r, c): h[r][c].re for r, c in product(range(4), repeat=2)}
        hi = {(r, c): h[r][c].im for r, c in product(range(4), repeat=2)}
        # conj(psi_r) h_rc psi_c = (hr G + hi A) + i (hi G - hr A), A_cr = -A_rc
        re = ([hr[r, r] for r in range(4)] + [hr[r, c] + hr[c, r] for r, c in _PAIRS]
              + [hi[r, c] - hi[c, r] for r, c in _PAIRS])
        im = ([hi[r, r] for r in range(4)] + [hi[r, c] + hi[c, r] for r, c in _PAIRS]
              + [hr[c, r] - hr[r, c] for r, c in _PAIRS])
        if any(x % p for x in im):
            raise RuntimeError(f"spin {i}x{j} is not Hermitian; observable is malformed")
        kept = {k: c % p for k, c in enumerate(re) if c % p}
        c0 = next(iter(kept.values()), 0)
        if not c0 or not set(kept.values()) <= {c0, p - c0}:
            raise RuntimeError(f"spin {i}x{j} folds to coefficients other than +-c0; "
                               "observable is malformed")
        unit = residue_sign(c0, p)
        terms = sorted(((k, unit if c == c0 else -unit) for k, c in kept.items()),
                       key=itemgetter(1), reverse=True)
        forms[i, j] = (*map(tuple, zip(*terms)), c0 * unit % p)
    return forms


def correlator_grid(
    state: TwoParticleState, side1: tuple[int, ...], side2: tuple[int, ...]
) -> dict[tuple[int, int], int]:
    """E(i, j) for every axis i in side1 and j in side2, from the state's 16
    Gram integers: each form's sum t_k G_k signed by Euler's criterion (a table
    would need about 8 p^2 entries), times phi(n).

    Raises ValueError on an axis the field lacks or a self-orthogonal state.
    """
    config = state.config
    p = config.p
    require_axes(config, (*side1, *side2))
    w = flat_residues(state.state.rep.components)
    norm = sum(map(mul, w, w)) % p
    if norm == 0:
        raise ValueError(f"self-orthogonal vector {state.state.rep} has no conjugate dual")
    gram = [op(w[a] * w[b], w[u] * w[v]) for op, a, b, u, v in _GRAM].__getitem__
    forms, phi_n, grid = _pair_forms(config), residue_sign(norm, p), {}
    for pair in product(side1, side2):
        indices, signs, _ = forms[pair]
        grid[pair] = phi_n * residue_sign(sum(map(mul, signs, map(gram, indices))), p)
    return grid


def _run_lines(config: FieldConfig, flat, norms, forms: Iterable) -> list[Iterator[bytes]]:
    """The sign lines of the runs of prefixes (a, b, c), given as 6 flat
    (re, im) residue columns and their norms mod p: per form in forms, then
    for phi(n), one line per prefix, the q sign bytes (0, 1 or 255 for -1) of
    the rows (a, b, c, d), d in index order.

    On a run a form's sum t_k G_k is C + u x_3 + v y_3 + h G_33: by
    ``_GRAM``, a Gram value of the prefix alone adds t G_k to C, one
    op(w_a x_3, w_c y_3) adds t w_a to u and op(0, t) w_c to v, and G_33 gives
    h = t.  C, u and v are integer columns over the prefixes, run by ``map``.
    A run's line is (u x + v y + h N(x + i y)) mod p over the indices, built
    once per (u, v, h) and translated by ``shift[C]``, the sign of r + C at r.
    """
    p, residues = config.p, index_residues(config)
    signs = [residue_sign(r, p) % 256 for r in range(p)] * 2
    shift = [bytes(signs[c:c + p]) + bytes(256 - p) for c in range(p)]

    def reduced(terms):
        total = repeat(0, len(norms))
        for t, column in terms:
            total = map(add if t > 0 else sub, total, column)
        return map(mod, total, repeat(p))

    def line(u, v, h):
        return bytes((u * x + v * y + h * (x * x + y * y)) % p for x, y in residues)

    lines = []
    for indices, form_signs, _ in forms:
        parts, h = ([], [], []), 0  # the terms of C, u and v
        for k, t in zip(indices, form_signs):
            op, a, b, c, d = _GRAM[k]
            if a >= 6:  # G_33
                h = t
            elif b < 6:  # the prefix alone
                gram = map(op, map(mul, flat[a], flat[b]), map(mul, flat[c], flat[d]))
                parts[0].append((t, gram))
            else:  # op(w_a x_3, w_c y_3)
                parts[1].append((t, flat[a]))
                parts[2].append((op(0, t), flat[c]))
        C, *uv = map(reduced, parts)
        uv = list(zip(*uv))
        base = {key: line(*key, h) for key in set(uv)}
        lines.append(map(bytes.translate, map(base.__getitem__, uv), map(shift.__getitem__, C)))
    lines.append(map(bytes.translate, repeat(line(0, 0, 1)), map(shift.__getitem__, norms)))
    return lines


def correlator(state: TwoParticleState, i: int, j: int) -> int:
    """The sign-mapped two-particle expectation E(spin_i x spin_j)."""
    return correlator_grid(state, (i,), (j,))[i, j]


def single_spin(state: TwoParticleState, side: int, axis: int) -> int:
    """The sign-mapped one-sided expectation E(spin_axis on the given side)."""
    return phi_map(bracket(state.state, one_sided_spin(state.config, side, axis)))


class CHSHRecord(Record):
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


class ChshBound(Record):
    bound: int
    states_scanned: int
    quadruples_per_state: int


def chsh_bound(config: FieldConfig) -> ChshBound:
    """Maximum |CHSH| over every physical two-particle state and quadruple.

    The code table's rows are (0, 0, 0, 1), then a run of q rows per row
    (a, b, c) of ``projective_columns(config, 3)``; the table is not built.
    The first row heads each ``_run_lines`` line: its one Gram value is
    G_33 = 1, so each form sums to its sign h on G_33, and its norm is 1.
    Every row is signed, so ``states_scanned`` is a true count, the nonzero
    bytes of the phi(n) line.  Distinct raw tuples are kept in scan order and
    those whose phi(n) is -1 flipped by a translation.  CHSH values are read
    once per distinct grid (at most 3^9), fewest zeros first, as those have
    the most quadruples that can reach 4, up to the first that does.
    """
    quadruples = axis_quadruples(config)
    forms = _pair_forms(config)
    require_enumerable(config, 4)
    require_byte_indices(config)
    columns, norms = projective_columns(config, 3)
    split = [bytes(part) + bytes(256 - config.order) for part in zip(*index_residues(config))]
    flat = [column.tobytes().translate(part) for column in columns for part in split]
    heads = [dict(zip(indices, signs)).get(3, 0) for indices, signs, _ in forms.values()]  # G_33
    lines = [b"".join(chain((bytes((h % 256,)),), runs))
             for h, runs in zip((*heads, 1), _run_lines(config, flat, norms, forms.values()))]
    raw = dict.fromkeys(compress(zip(*lines), lines[-1]))
    flip = {1: None, 255: bytes.maketrans(b"\x01\xff", b"\xff\x01")}
    grids = dict.fromkeys(map(bytes.translate, map(bytes, raw),
                              map(flip.__getitem__, map(itemgetter(-1), raw))))
    best = 0
    for grid in sorted(grids, key=methodcaller("count", 0)):
        e = dict(zip(forms, memoryview(grid).cast("b")))
        best = max(best, *map(abs, _chsh_values(e, quadruples)))
        if best == 4:
            break
    scanned = len(lines[-1]) - lines[-1].count(0)
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
