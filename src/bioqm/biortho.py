"""Biorthogonal systems, spectral observables and expectation values.

A biorthogonal system pairs a spanning set of kets with the bras obtained by
conjugate dualization, so that bra_r(ket_s) is the Kronecker delta.  An
observable is built spectrally, sum of eigenvalue_k |k><k|, with eigenvalues
drawn from the base field.  Expectation values convert the field-valued
bracket <psi|A|psi> into a real number through the sign map, and variances
follow from the bracket of the squared observable.  ``bracket`` computes
<psi|A|psi> in one pass over the integer residues of psi and A, building no
dual or image vector and looking up one field element for the result.

The three spin observables arise from the named one-particle states:

    axis 3 from {a, b} = {[1,0], [0,1]}      -> diag(1, -1)
    axis 1 from {c, d} = {[1,1], [1,-1]}     -> [[0,1],[1,0]]
    axis 2 from {e, f} = {[1,i], [1,-i]}     -> [[0,-i],[i,0]]  (degree 2)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .gf import FieldConfig, FieldElement, phi_map
from .linear import (
    DualVector,
    Matrix,
    ProjectiveState,
    StateVector,
    canonicalize,
    conjugate_dual,
    dot,
    enumerate_projective,
    mat_add,
    mat_mul,
)


def is_ortho_nondegenerate(kets: Sequence[StateVector]) -> bool:
    """True when the kets are mutually orthogonal and none is self-orthogonal.

    A list of other than dim kets is a usage error, not a False.  True needs
    no rank check: if sum c_k v_k = 0, then 0 = dot(v_j, sum c_k v_k) =
    c_j dot(v_j, v_j) with dot(v_j, v_j) != 0, so the dim kets are independent.
    """
    if not kets:
        raise ValueError("empty basis")
    if len(kets) != kets[0].dim:
        raise ValueError("basis does not span the space")
    for r, u in enumerate(kets):
        for s, v in enumerate(kets):
            if (dot(u, v).is_zero) != (r != s):
                return False
    return True


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Kets with their conjugate-dual bras, pairing to the identity."""

    kets: tuple[StateVector, ...]
    bras: tuple[DualVector, ...]

    @staticmethod
    def from_kets(kets: Sequence[StateVector]) -> BiorthogonalSystem:
        if not is_ortho_nondegenerate(kets):
            raise ValueError("kets are not an orthogonal nondegenerate basis")
        bras = tuple(conjugate_dual(k) for k in kets)
        for r, bra in enumerate(bras):
            for s, ket in enumerate(kets):
                value = bra.pairing(ket)
                expected = ket.config.one() if r == s else ket.config.zero()
                if value != expected:
                    raise AssertionError("biorthogonality failed")  # unreachable
        return BiorthogonalSystem(kets=tuple(kets), bras=bras)

    @property
    def config(self) -> FieldConfig:
        return self.kets[0].config

    @property
    def dim(self) -> int:
        return self.kets[0].dim


@dataclass(frozen=True)
class Observable:
    """A spectrally built operator: sum of eigenvalue_k |k><k|."""

    matrix: Matrix
    eigenvalues: tuple[FieldElement, ...]
    system: BiorthogonalSystem

    @property
    def config(self) -> FieldConfig:
        return self.system.config

    def squared(self) -> Observable:
        return Observable(
            matrix=mat_mul(self.matrix, self.matrix),
            eigenvalues=tuple(a * a for a in self.eigenvalues),
            system=self.system,
        )


def build_observable(
    system: BiorthogonalSystem, eigenvalues: Sequence[FieldElement | int]
) -> Observable:
    """Assemble sum of eigenvalue_k |ket_k><bra_k| with base-field eigenvalues."""
    config = system.config
    eigs = tuple(
        e if isinstance(e, FieldElement) else config.element(e) for e in eigenvalues
    )
    if len(eigs) != len(system.kets):
        raise ValueError("need exactly one eigenvalue per ket")
    for e in eigs:
        if not e.is_real:
            raise ValueError(f"eigenvalue {e} lies outside the base field")
    n = system.dim
    zero = config.zero()
    matrix = tuple(tuple(zero for _ in range(n)) for _ in range(n))
    for eig, ket, bra in zip(eigs, system.kets, system.bras):
        outer = tuple(
            tuple(ket[r] * bra[c] * eig for c in range(n)) for r in range(n)
        )
        matrix = mat_add(matrix, outer)
    return Observable(matrix=matrix, eigenvalues=eigs, system=system)


# -- named states and spin observables ---------------------------------------

_NAMED_ENTRIES: dict[str, tuple] = {
    "a": ((1, 0), (0, 0)),
    "b": ((0, 0), (1, 0)),
    "c": ((1, 0), (1, 0)),
    "d": ((1, 0), (-1, 0)),
    "e": ((1, 0), (0, 1)),
    "f": ((1, 0), (0, -1)),
}


@lru_cache(maxsize=None)
def named_states(config: FieldConfig) -> dict[str, ProjectiveState]:
    """The named one-particle states a..d (plus e, f on degree-2 fields)."""
    labels = "abcdef" if config.is_extension else "abcd"
    out = {}
    for label in labels:
        entries = _NAMED_ENTRIES[label]
        vec = StateVector.make(config, entries)
        out[label] = canonicalize(vec)
    return out


def state_label(state: ProjectiveState) -> str:
    """The letter name when the state is a named one, else its components."""
    for label, named in named_states(state.config).items():
        if named.rep == state.rep:
            return label
    return str(state)


@lru_cache(maxsize=None)
def physical_states(config: FieldConfig) -> tuple[ProjectiveState, ...]:
    """Physical one-particle states, named ones first, the rest lexicographic."""
    ordered = list(named_states(config).values())
    seen = {s.rep for s in ordered}
    for s in enumerate_projective(config, 2):
        if s.physical and s.rep not in seen:
            ordered.append(s)
    return tuple(ordered)


SPIN_AXIS_KETS = {3: ("a", "b"), 1: ("c", "d"), 2: ("e", "f")}


def spin_axes(config: FieldConfig) -> tuple[int, ...]:
    return (1, 2, 3) if config.is_extension else (1, 3)


def require_axes(config: FieldConfig, axes: Iterable[int]) -> None:
    """Raise ValueError on the first axis the field does not offer."""
    available = spin_axes(config)
    for axis in axes:
        if axis not in available:
            raise ValueError(f"axis {axis} is not available over {config}")


@lru_cache(maxsize=None)
def spin_observable(config: FieldConfig, axis: int) -> Observable:
    """The spin observable for an axis, eigenvalues (+1, -1) on its kets."""
    require_axes(config, (axis,))
    named = named_states(config)
    kets = tuple(named[n].rep for n in SPIN_AXIS_KETS[axis])
    system = BiorthogonalSystem.from_kets(kets)
    return build_observable(system, (1, -1))


# -- measurements -------------------------------------------------------------


def bracket(state: ProjectiveState | StateVector, obs: Observable | Matrix) -> FieldElement:
    """The field value <psi|A|psi>, independent of the representative scaling.

    One pass over the integer residues: the norm n = <psi, psi> and the sum
    conj(psi)^T A psi accumulate as plain integer sums, and the value is
    their quotient mod p, read off as one field element.  This equals
    ``conjugate_dual(psi).pairing(mat_vec(A, psi))``.
    """
    vec = state.rep if isinstance(state, ProjectiveState) else state
    matrix = obs.matrix if isinstance(obs, Observable) else obs
    config, comps = vec.config, vec.components
    p = config.p
    res = [c.re for c in comps]
    ims = [c.im for c in comps]
    norm = (sum(map(mul, res, res)) + sum(map(mul, ims, ims))) % p
    if not norm:
        raise ValueError(f"self-orthogonal vector {vec} has no conjugate dual")
    if list(map(len, matrix)) != [len(comps)] * len(comps):
        raise ValueError("matrix and vector shapes do not match")
    # conj(v_r) * (A v)_r = (vr - vi i)(wr + wi i), summed over the rows r
    total_re = total_im = 0
    for row, vr, vi in zip(matrix, res, ims):
        wr = wi = 0
        for x, cr, ci in zip(row, res, ims):
            if x.config is not config and x.config != config:
                raise ValueError(f"field mismatch: {x.config} vs {config}")
            xr, xi = x.re, x.im
            wr += xr * cr - xi * ci
            wi += xr * ci + xi * cr
        total_re += vr * wr + vi * wi
        total_im += vr * wi - vi * wr
    inv = pow(norm, -1, p)
    value = config.element(total_re * inv, total_im * inv)
    if not value.is_real:
        raise RuntimeError(
            f"bracket {value} has a nonzero imaginary part; observable is malformed"
        )
    return value


@dataclass(frozen=True)
class Measurement:
    """Expectation and variance of an observable in a state, as integers; a
    negative variance (contrived observables) is reported verbatim, never clamped."""

    expectation: int
    variance: int


def expectation(state: ProjectiveState | StateVector, obs: Observable) -> Measurement:
    e = phi_map(bracket(state, obs))
    second_moment = phi_map(bracket(state, obs.squared()))
    return Measurement(expectation=e, variance=second_moment - e * e)


# -- the one-particle table ----------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    label: str
    state: ProjectiveState
    cells: tuple[Measurement, ...]


@dataclass(frozen=True)
class TableReport:
    config: FieldConfig
    axes: tuple[int, ...]
    rows: tuple[TableRow, ...]


def table_report(config: FieldConfig) -> TableReport:
    """Expectation/variance of every spin observable in every physical state."""
    axes = spin_axes(config)
    observables = [spin_observable(config, axis) for axis in axes]
    rows = []
    for state in physical_states(config):
        cells = tuple(expectation(state, obs) for obs in observables)
        rows.append(TableRow(label=state_label(state), state=state, cells=cells))
    return TableReport(config=config, axes=axes, rows=tuple(rows))
