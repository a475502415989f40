"""Two-particle states, product/entangled classification, correlators, CHSH.

A four-component state is a product state exactly when its 2x2 reshape has
zero determinant (rank one means it is a Kronecker product of two
one-particle vectors).  Product spin observables are Kronecker products of
one-particle spin observables, assembled together with their product
biorthogonal system so the spectral form survives.

``two_particle_codes`` caches, per field, every canonical two-particle state
in columns: integer residues, norms, and kind bytes (that determinant test
and physicality).  ``census`` counts kind bytes and ``chsh_bound`` scans the
residues without building a state object; ``two_particle_states`` is their
object view, in the same order.

The CHSH combination for axis choices (A, a) on side 1 and (B, b) on side 2
is E(A,B) + E(A,b) + E(a,B) - E(a,b) with each E a sign-mapped correlator.
Admissible quadruples require A != a and B != b.

Every sign-mapped correlator E(i,j) = phi_map(<psi|spin_i x spin_j|psi>)
comes from one integer-residue kernel, ``correlator_grid``.  Write psi_r =
x_r + i y_r and take the 16 Gram values G_rr = x_r^2 + y_r^2 and, for r < c,
G_rc = x_r x_c + y_r y_c and A_rc = y_r x_c - x_r y_c.  Then conj(psi_r)
psi_c = G_rc - i A_rc, so a table entry hr + i hi at (r, c) adds
(hr G_rc + hi A_rc) + i (hi G_rc - hr A_rc) to the bracket.  ``_pair_forms``
folds each s_i x s_j (row index on side 1) this way, once per field, into a
real and an imaginary form over the Gram values, keeping the coefficients
nonzero mod p (2 or 4 of 16 for the spin tables).  No Hermiticity is
assumed: a nonzero imaginary form is checked on every state and raises as
``bracket`` does; a Hermitian table folds to imaginary forms with no
coefficient left, the zero polynomial.  The bracket divides the real part
by the norm n = <psi, psi> in GF(p)*.  The sign map is multiplicative and
n^-1 = n * (n^-1)^2 differs from n by a square, so phi(n^-1) = phi(n) and
E(i,j) = phi(bracket_ij * n): one sign per pair, read off integer residues
without building any field element.  ``chsh_bound`` feeds the kernel the
code table's flat (re, im) residues and looks each sign up in a table of
all p residues' signs (one state's grid takes each by Euler's criterion
instead); it checks every physical state's grid but reads CHSH values once
per distinct grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from operator import mul
from typing import Callable

from .gf import FieldConfig, phi_map, residue_sign
from .linear import (
    Matrix,
    ProjectiveState,
    StateVector,
    canonicalize,
    det2,
    flat_residues,
    identity_matrix,
    kron,
    matrix_residues,
    projective_residues,
    residue_state,
)
from .biortho import Observable, bracket, require_axes, spin_axes, spin_observable


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
def two_particle_codes(config: FieldConfig) -> tuple[tuple[tuple[int, ...], ...], tuple, bytes]:
    """Every two-particle state, lexicographically, as columns (psis, norms, kinds).

    A psi is the canonical representative's flat (re, im) residues and its
    norm is <psi, psi> mod p, as ``linear.projective_residues`` gives them.
    Its kind byte is PRODUCT when both parts of det [[a, b], [c, d]] = ad - bc
    vanish mod p, plus PHYSICAL when the norm is nonzero.
    """
    p = config.p
    psis, norms, kinds = [], [], bytearray()
    for psi, norm in projective_residues(config, 4):
        ar, ai, br, bi, cr, ci, dr, di = psi
        is_product = (
            not (ar * dr - ai * di - br * cr + bi * ci) % p
            and not (ar * di + ai * dr - br * ci - bi * cr) % p
        )
        psis.append(psi)
        norms.append(norm)
        kinds.append(PRODUCT * is_product + (norm != 0))
    return tuple(psis), tuple(norms), bytes(kinds)


@lru_cache(maxsize=None)
def two_particle_states(config: FieldConfig) -> tuple[TwoParticleState, ...]:
    """The objects of ``two_particle_codes``, in its order."""
    return tuple(
        TwoParticleState(residue_state(config, psi, norm),
                         "product" if kind & PRODUCT else "entangled")
        for psi, norm, kind in zip(*two_particle_codes(config))
    )


@dataclass(frozen=True)
class Census:
    """State counts for one field, split by product/entangled and physicality."""

    config: FieldConfig
    states: int
    product: int
    product_physical: int
    product_self_orthogonal: int
    entangled: int
    entangled_physical: int
    entangled_self_orthogonal: int

    def counts(self) -> dict[str, int]:
        return {
            "states": self.states,
            "product": self.product,
            "product_physical": self.product_physical,
            "product_self_orthogonal": self.product_self_orthogonal,
            "entangled": self.entangled,
            "entangled_physical": self.entangled_physical,
            "entangled_self_orthogonal": self.entangled_self_orthogonal,
        }


def census(config: FieldConfig) -> Census:
    kinds = two_particle_codes(config)[2]
    tally = [kinds.count(kind) for kind in range(4)]  # indexed by kind byte
    return Census(
        config=config,
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
def product_spin(config: FieldConfig, i: int, j: int) -> Observable:
    """The two-particle observable spin(i) tensor spin(j)."""
    left = spin_observable(config, i)
    right = spin_observable(config, j)
    system = left.system.tensor(right.system)
    eigenvalues = tuple(a * b for a in left.eigenvalues for b in right.eigenvalues)
    matrix = kron(left.matrix, right.matrix)
    obs = Observable(matrix=matrix, eigenvalues=eigenvalues, system=system)
    return obs


@lru_cache(maxsize=None)
def one_sided_spin(config: FieldConfig, side: int, axis: int) -> Matrix:
    """spin(axis) acting on one side, identity on the other."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    sigma = spin_observable(config, axis).matrix
    eye = identity_matrix(config, 2)
    return kron(sigma, eye) if side == 1 else kron(eye, sigma)


# the index pairs r < c of a four-component amplitude, in Gram-value order
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _gram(psi: tuple[int, ...]) -> list[int]:
    """The 16 Gram values of flat (re, im) residues psi, unreduced: each
    G_rr, then G_rc and A_rc for (r, c) in ``_PAIRS`` (module docstring)."""
    x0, y0, x1, y1, x2, y2, x3, y3 = psi
    return [
        x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3,
        x0 * x1 + y0 * y1, x0 * x2 + y0 * y2, x0 * x3 + y0 * y3,
        x1 * x2 + y1 * y2, x1 * x3 + y1 * y3, x2 * x3 + y2 * y3,
        y0 * x1 - x0 * y1, y0 * x2 - x0 * y2, y0 * x3 - x0 * y3,
        y1 * x2 - x1 * y2, y1 * x3 - x1 * y3, y2 * x3 - x2 * y3,
    ]


def _sparse(coefficients: list[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A form over ``_gram``'s values as its (indices, coefficients) nonzero
    mod p; the zero polynomial has no index."""
    kept = {k: c % p for k, c in enumerate(coefficients) if c % p}
    return tuple(kept), tuple(kept.values())


@lru_cache(maxsize=None)
def _pair_forms(config: FieldConfig) -> dict:
    """Per-field kernel input: (i, j) -> (re, im), the real and imaginary
    parts of <psi, (s_i x s_j) psi> as ``_sparse`` forms over ``_gram``."""
    p = config.p
    tables = {axis: matrix_residues(spin_observable(config, axis).matrix)
              for axis in spin_axes(config)}
    forms = {}
    for i, s in tables.items():
        for j, t in tables.items():
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
            forms[i, j] = (_sparse(re, p), _sparse(im, p))
    return forms


def correlator_grid(
    state: TwoParticleState, side1: tuple[int, ...], side2: tuple[int, ...]
) -> dict[tuple[int, int], int]:
    """E(i, j) for every axis i in side1 and j in side2, from one kernel pass.

    Raises ValueError on a self-orthogonal state and RuntimeError on a
    bracket with a nonzero imaginary part, as ``bracket`` does.
    """
    config = state.config
    psi = flat_residues(state.state.rep.components)
    norm = sum(map(mul, psi, psi)) % config.p
    if norm == 0:
        rep = residue_state(config, psi, norm).rep
        raise ValueError(f"self-orthogonal vector {rep} has no conjugate dual")
    forms = _pair_forms(config)
    pairs = [((i, j), *forms[i, j]) for i in side1 for j in side2]
    signs = _residue_grid(config, psi, norm, pairs, partial(residue_sign, p=config.p))
    return {pair: e for (pair, _, _), e in zip(pairs, signs)}


def _residue_grid(config: FieldConfig, psi: tuple[int, ...], norm: int, pairs: list,
                  sign: Callable[[int], int]) -> tuple[int, ...]:
    """The sign E of each ((i, j), re, im) ``_pair_forms`` entry in pairs on
    the state with flat (re, im) residues psi and norm <psi, psi> mod p != 0,
    with ``sign`` the sign map on a residue in [0, p)."""
    p = config.p
    at = _gram(psi).__getitem__
    for (i, j), _, (indices, coefficients) in pairs:
        if indices and sum(map(mul, coefficients, map(at, indices))) % p:
            rep = residue_state(config, psi, norm).rep
            raise RuntimeError(
                f"bracket of spin {i}x{j} in {rep} has a nonzero imaginary "
                "part; observable is malformed"
            )
    return tuple([
        sign(sum(map(mul, coefficients, map(at, indices))) * norm % p)
        for _, (indices, coefficients), _ in pairs
    ])


def correlator(state: TwoParticleState, i: int, j: int) -> int:
    """The sign-mapped two-particle expectation E(spin_i x spin_j)."""
    require_axes(state.config, (i, j))
    return correlator_grid(state, (i,), (j,))[i, j]


def single_spin(state: TwoParticleState, side: int, axis: int) -> int:
    """The sign-mapped one-sided expectation E(spin_axis on the given side)."""
    return phi_map(bracket(state.state, one_sided_spin(state.config, side, axis)))


@dataclass(frozen=True)
class CHSHRecord:
    state_label: str
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
        state_label=label if label is not None else str(state),
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
    config: FieldConfig
    bound: int
    states_scanned: int
    quadruples_per_state: int


def chsh_bound(config: FieldConfig) -> ChshBound:
    """Maximum |CHSH| over every physical two-particle state and quadruple,
    read once per distinct sign grid (at most 3^9 of them in any field)."""
    quadruples = axis_quadruples(config)
    forms = _pair_forms(config)
    pairs = [(pair, *form) for pair, form in forms.items()]
    # every state reads many signs, so a table of all p of them pays off
    # here; a single state's grid over a large prime must not build one
    sign = tuple(residue_sign(r, config.p) for r in range(config.p)).__getitem__
    grids = set()
    scanned = 0
    for psi, norm in zip(*two_particle_codes(config)[:2]):
        if norm:
            scanned += 1
            grids.add(_residue_grid(config, psi, norm, pairs, sign))
    best = max(
        (max(map(abs, _chsh_values(dict(zip(forms, grid)), quadruples))) for grid in grids),
        default=0,
    )
    return ChshBound(
        config=config,
        bound=best,
        states_scanned=scanned,
        quadruples_per_state=len(quadruples),
    )


# -- named representatives -----------------------------------------------------


@lru_cache(maxsize=None)
def representative_states(config: FieldConfig) -> dict[str, TwoParticleState]:
    """The canonical entangled representatives: S always, T and U on degree 2."""
    reps = {"S": from_vector(StateVector.make(config, (0, 1, -1, 0)))}
    if config.is_extension:
        reps["T"] = from_vector(StateVector.make(config, (1, 0, (1, 1), 1)))
        reps["U"] = from_vector(StateVector.make(config, (1, 0, 1, (1, 1))))
    for label, tp in reps.items():
        if tp.is_product or not tp.physical:
            raise AssertionError(f"representative {label} is not entangled physical")
    return reps
