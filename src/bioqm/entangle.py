"""Two-particle states, product/entangled classification, correlators, CHSH.

A four-component state is a product state exactly when its 2x2 reshape has
zero determinant (rank one means it is a Kronecker product of two
one-particle vectors).  Product spin observables are Kronecker products of
one-particle spin observables, assembled together with their product
biorthogonal system so the spectral form survives.

``two_particle_codes`` caches, per field, every canonical two-particle state
as integer residues with its norm and that determinant test.  ``census``
counts over it and ``chsh_bound`` scans it without building a state object;
``two_particle_states`` is its object view, in the same order.

The CHSH combination for axis choices (A, a) on side 1 and (B, b) on side 2
is E(A,B) + E(A,b) + E(a,B) - E(a,b) with each E a sign-mapped correlator.
Admissible quadruples require A != a and B != b.

Every sign-mapped correlator E(i,j) = phi_map(<psi|spin_i x spin_j|psi>)
comes from one integer-residue kernel, ``correlator_grid``.  Reshape the
amplitude to the 2x2 array psi (row index on side 1).  The row-major
Kronecker product acts as (s_i x s_j) psi = s_i psi s_j^T, so the unnormalized
bracket is

    <psi, (s_i x s_j) psi> = sum over entries of conj(u_i) * w_j,
    u_i = s_i^dagger psi,   w_j = psi s_j^T,

which costs one 2x2 product per axis and side, not one 4x4 product per pair.
No Hermiticity is assumed: s_i^dagger is taken with ``linear.dagger``.  The
bracket divides this by the norm n = <psi, psi>, which lies in GF(p)*.  The
sign map is multiplicative and n^-1 = n * (n^-1)^2 differs from n by a
square, so phi(n^-1) = phi(n) and E(i,j) = phi(bracket_ij * n): one sign
per pair, read off integer residues without building any field element.
The kernel's core reads psi as flat (re, im) residues, so ``chsh_bound``
feeds it the code table's tuples directly, and looks each sign up in a
table of all p residues' signs; one state's grid takes each sign by Euler's
criterion instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import mul
from typing import Callable

from .gf import FieldConfig, phi_map, residue_sign
from .linear import (
    Matrix,
    ProjectiveState,
    StateVector,
    canonicalize,
    dagger,
    det2,
    flat_residues,
    identity_matrix,
    kron,
    matrix_residues,
    projective_residues,
    residue_mul2,
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


@lru_cache(maxsize=None)
def two_particle_codes(config: FieldConfig) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
    """Every two-particle state as (psi, norm, is_product), lexicographically.

    psi is the canonical representative's flat (re, im) residues and norm is
    <psi, psi> mod p, as ``linear.projective_residues`` gives them; the state
    is a product exactly when both parts of det [[a, b], [c, d]] = ad - bc
    vanish mod p.
    """
    p = config.p
    codes = []
    for psi, norm in projective_residues(config, 4):
        ar, ai, br, bi, cr, ci, dr, di = psi
        is_product = (
            not (ar * dr - ai * di - br * cr + bi * ci) % p
            and not (ar * di + ai * dr - br * ci - bi * cr) % p
        )
        codes.append((psi, norm, is_product))
    return tuple(codes)


@lru_cache(maxsize=None)
def two_particle_states(config: FieldConfig) -> tuple[TwoParticleState, ...]:
    """The objects of ``two_particle_codes``, in its order."""
    return tuple(
        TwoParticleState(residue_state(config, psi, norm), "product" if is_product else "entangled")
        for psi, norm, is_product in two_particle_codes(config)
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
    codes = two_particle_codes(config)
    # keyed by (is_product, physical)
    tally = Counter((is_product, norm != 0) for _, norm, is_product in codes)
    return Census(
        config=config,
        states=len(codes),
        product=tally[True, True] + tally[True, False],
        product_physical=tally[True, True],
        product_self_orthogonal=tally[True, False],
        entangled=tally[False, True] + tally[False, False],
        entangled_physical=tally[False, True],
        entangled_self_orthogonal=tally[False, False],
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


@lru_cache(maxsize=None)
def _kernel_tables(config: FieldConfig):
    """Per-field kernel inputs, as flat (re, im) residue 2x2 tables per axis.

    Returns (daggers, transposes): spin_i^dagger and spin_j^T keyed by axis.
    """
    daggers, transposes = {}, {}
    for axis in spin_axes(config):
        sigma = spin_observable(config, axis).matrix
        daggers[axis] = matrix_residues(dagger(sigma))
        transposes[axis] = matrix_residues(zip(*sigma))
    return daggers, transposes


def correlator_grid(
    state: TwoParticleState, side1: tuple[int, ...], side2: tuple[int, ...]
) -> dict[tuple[int, int], int]:
    """E(i, j) for every axis i in side1 and j in side2, from one kernel pass.

    Raises ValueError on a self-orthogonal state and RuntimeError on a
    bracket with a nonzero imaginary part, as ``bracket`` does.
    """
    psi = flat_residues(state.state.rep.components)
    sign = partial(residue_sign, p=state.config.p)
    return _residue_grid(state.config, psi, side1, side2, sign)


def _residue_grid(
    config: FieldConfig,
    psi: tuple[int, ...],
    side1: tuple[int, ...],
    side2: tuple[int, ...],
    sign: Callable[[int], int],
) -> dict[tuple[int, int], int]:
    """``correlator_grid`` on the amplitude's flat (re, im) residues psi,
    with ``sign`` the sign map on a residue in [0, p)."""
    p = config.p
    daggers, transposes = _kernel_tables(config)
    norm = sum(map(mul, psi, psi)) % p
    if norm == 0:
        state = residue_state(config, psi, norm).rep
        raise ValueError(f"self-orthogonal vector {state} has no conjugate dual")
    ws = []
    for j in side2:
        w = residue_mul2(psi, transposes[j])
        # conj(u) * w has real part u_re * w_re + u_im * w_im and imaginary
        # part u_re * w_im - u_im * w_re: plain sums of products against w
        # and against w turned to (w_im, -w_re)
        turned = []
        for k in (0, 2, 4, 6):
            turned += (w[k + 1], -w[k])
        ws.append((j, w, turned))
    grid = {}
    for i in side1:
        u = residue_mul2(daggers[i], psi)
        for j, w, turned in ws:
            if sum(map(mul, u, turned)) % p:
                state = residue_state(config, psi, norm).rep
                raise RuntimeError(
                    f"bracket of spin {i}x{j} in {state} has a nonzero imaginary "
                    "part; observable is malformed"
                )
            grid[i, j] = sign(sum(map(mul, u, w)) * norm % p)
    return grid


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
    """Maximum |CHSH| over every physical two-particle state and quadruple."""
    codes = two_particle_codes(config)
    quadruples = axis_quadruples(config)
    axes = spin_axes(config)
    # every state reads many signs, so a table of all p of them pays off
    # here; a single state's grid over a large prime must not build one
    sign = tuple(residue_sign(r, config.p) for r in range(config.p)).__getitem__
    best = 0
    scanned = 0
    for psi, norm, _ in codes:
        if not norm:
            continue
        scanned += 1
        grid = _residue_grid(config, psi, axes, axes, sign)
        best = max(best, *map(abs, _chsh_values(grid, quadruples)))
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
