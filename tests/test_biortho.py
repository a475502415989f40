"""Biorthogonal systems, spin observables, and the one-particle tables."""

import re

import pytest

from bioqm import (
    BiorthogonalSystem,
    FieldConfig,
    StateVector,
    bracket,
    build_observable,
    enumerate_group,
    expectation,
    named_states,
    physical_states,
    spin_axes,
    spin_observable,
    state_label,
    table_report,
)
from bioqm.biortho import SPIN_AXIS_KETS, is_ortho_nondegenerate
from bioqm.entangle import one_sided_spin, product_spin, two_particle_states
from bioqm.gf import phi_map
from bioqm.linear import (conjugate_dual, dot, enumerate_projective, mat_mul, mat_vec,
                          matrix_make)

GF3 = FieldConfig(3, 1)
GF9 = FieldConfig(3, 2)
GF7 = FieldConfig(7, 1)
GF11 = FieldConfig(11, 1)


def vec(config, entries):
    return StateVector.make(config, entries)


def enumerate_biorthogonal_systems(config):
    """All two-dimensional biorthogonal systems, in deterministic order.

    Built by pairing mutually orthogonal physical projective states; each
    unordered pair appears once, kets sorted lexicographically.
    """
    physical = [s for s in enumerate_projective(config, 2) if s.physical]
    systems = []
    for idx, u in enumerate(physical):
        for v in physical[idx + 1 :]:
            if dot(u.rep, v.rep).is_zero:
                systems.append(BiorthogonalSystem.from_kets((u.rep, v.rep)))
    systems.sort(key=lambda s: tuple((x.re, x.im) for k in s.kets for x in k.components))
    return systems


def verify_spectral(matrix, kets, eigenvalues):
    """Each ket is an eigenvector of the matrix with its eigenvalue."""
    return all(
        mat_vec(matrix, ket) == ket.scale(eig) for eig, ket in zip(eigenvalues, kets)
    )


def test_named_state_components():
    states = named_states(GF9)
    assert sorted(states) == list("abcdef")
    assert str(states["a"].rep) == "[1, 0]"
    assert str(states["b"].rep) == "[0, 1]"
    assert str(states["c"].rep) == "[1, 1]"
    assert str(states["d"].rep) == "[1, -1]"
    assert str(states["e"].rep) == "[1, i]"
    assert str(states["f"].rep) == "[1, -i]"
    assert sorted(named_states(GF3)) == list("abcd")


def test_state_label_round_trip():
    for label, state in named_states(GF9).items():
        assert state_label(state) == label


def test_physical_states_put_named_first():
    states = physical_states(GF9)
    assert len(states) == 6
    assert [state_label(s) for s in states] == list("abcdef")
    assert all(s.physical for s in states)
    gf3 = physical_states(GF3)
    assert [state_label(s) for s in gf3] == list("abcd")


def test_physical_states_cache_one_entry_per_field():
    # every caller asks for the same tuple, so each field is built once
    physical_states.cache_clear()
    for config in (GF3, GF9):
        table_report(config)
        enumerate_group.__wrapped__(config)  # past its own cache, to its physical_states call
        physical_states(config)
    assert physical_states.cache_info().currsize == 2


def test_spin_axes_depend_on_degree():
    assert spin_axes(GF3) == (1, 3)
    assert spin_axes(GF9) == (1, 2, 3)
    assert spin_axes(GF7) == (1, 3)
    assert SPIN_AXIS_KETS == {3: ("a", "b"), 1: ("c", "d"), 2: ("e", "f")}


def test_spin_matrices_frozen():
    assert spin_observable(GF9, 3) == matrix_make(GF9, [[1, 0], [0, -1]])
    assert spin_observable(GF9, 1) == matrix_make(GF9, [[0, 1], [1, 0]])
    assert spin_observable(GF9, 2) == matrix_make(GF9, [[0, (0, 2)], [(0, 1), 0]])
    assert spin_observable(GF3, 1) == matrix_make(GF3, [[0, 1], [1, 0]])


def test_spin_observables_square_to_identity():
    ident = matrix_make(GF9, [[1, 0], [0, 1]])
    for axis in (1, 2, 3):
        sigma = spin_observable(GF9, axis)
        assert mat_mul(sigma, sigma) == ident


def test_verify_spectral():
    for config in (GF3, GF9):
        named = named_states(config)
        eigenvalues = (config.one(), -config.one())
        for axis in spin_axes(config):
            kets = [named[label].rep for label in SPIN_AXIS_KETS[axis]]
            assert verify_spectral(spin_observable(config, axis), kets, eigenvalues)
    # any base-field eigenvalues: the built matrix keeps them on the system's kets
    for system in enumerate_biorthogonal_systems(GF7):
        eigenvalues = (GF7.element(3), GF7.element(1))
        assert verify_spectral(build_observable(system, (3, 1)), system.kets, eigenvalues)


def test_from_kets_gives_delta_pairing():
    kets = (vec(GF9, [1, (0, 1)]), vec(GF9, [1, (0, 2)]))
    system = BiorthogonalSystem.from_kets(kets)
    for r, bra in enumerate(system.bras):
        for s, ket in enumerate(system.kets):
            value = bra.pairing(ket)
            assert value == (GF9.one() if r == s else GF9.zero())


def test_from_kets_rejects_degenerate_sets():
    # a full-length dependent list is a False verdict, not a usage error
    dependent = (vec(GF3, [1, 1]), vec(GF3, [-1, -1]))
    assert is_ortho_nondegenerate(dependent) is False
    with pytest.raises(ValueError):
        BiorthogonalSystem.from_kets(dependent)
    # orthogonal but one member self-orthogonal over GF(9) in dim 4
    with pytest.raises(ValueError):
        BiorthogonalSystem.from_kets(
            (vec(GF9, [1, 1, 1, 0]), vec(GF9, [0, 0, 0, 1]))
        )


def test_is_ortho_nondegenerate_raises_on_short_span():
    with pytest.raises(ValueError):
        is_ortho_nondegenerate([vec(GF3, [1, 0, 0, 0]), vec(GF3, [0, 1, 0, 0])])


@pytest.mark.parametrize("config,count", [(GF3, 2), (GF9, 3), (GF7, 4)])
def test_system_census(config, count):
    systems = enumerate_biorthogonal_systems(config)
    assert len(systems) == count
    # independent recount: scan unordered pairs of physical rays for orthogonality
    physical = [s.rep for s in physical_states(config)]
    pairs = 0
    for i, u in enumerate(physical):
        for v in physical[i + 1 :]:
            if dot(u, v).is_zero:
                pairs += 1
    assert pairs == count


def test_gf9_systems_are_the_three_axes():
    from bioqm.linear import canonicalize

    systems = enumerate_biorthogonal_systems(GF9)
    labeled = {
        tuple(sorted(state_label(canonicalize(k)) for k in s.kets)) for s in systems
    }
    assert labeled == {("a", "b"), ("c", "d"), ("e", "f")}


# -- brackets and expectation values --------------------------------------------


def _oracle_bracket(state, matrix):
    """Reference evaluation: bra entries are frob(v_k)/dot(v, v)."""
    v = state.rep if hasattr(state, "rep") else state
    bra = conjugate_dual(v)
    config = v.config
    total = config.zero()
    for r in range(v.dim):
        for c in range(v.dim):
            total = total + bra[r] * matrix[r][c] * v[c]
    return total


def test_bracket_matches_oracle_everywhere():
    for config in (GF3, GF9):
        for axis in spin_axes(config):
            sigma = spin_observable(config, axis)
            for state in physical_states(config):
                assert bracket(state, sigma) == _oracle_bracket(state, sigma)


def test_bracket_rejects_self_orthogonal_states():
    with pytest.raises(ValueError):
        bracket(vec(GF9, [1, 1, 1, 0]), spin_observable(GF9, 3))


def test_bracket_rejects_non_real_values():
    skew = matrix_make(GF9, [[(0, 1), 0], [0, 0]])
    state = named_states(GF9)["a"]
    with pytest.raises(RuntimeError, match="bracket i has a nonzero imaginary part"):
        bracket(state, skew)


def test_bracket_errors_pinned():
    state = named_states(GF9)["c"]
    with pytest.raises(ValueError, match="shapes do not match"):
        bracket(state, product_spin(GF9, 1, 1))
    sigma = spin_observable(GF9, 1)
    for malformed in (sigma[:1], (sigma[0], sigma[1][:1])):
        with pytest.raises(ValueError, match="shapes do not match"):
            bracket(state, malformed)
    with pytest.raises(ValueError, match="field mismatch"):
        bracket(named_states(GF7)["c"], spin_observable(GF3, 1))
    # FieldConfig(3, 2) is GF9 itself, not a second GF(9)
    assert bracket(vec(FieldConfig(3, 2), [1, 1]), spin_observable(GF9, 1)) == GF9.one()
    message = "self-orthogonal vector [1, 1+i] has no conjugate dual"
    with pytest.raises(ValueError, match=re.escape(message)):
        bracket(vec(GF9, [1, (1, 1)]), spin_observable(GF9, 1))


def reference_bracket(state, matrix):
    # the composed object path: the conjugate dual paired with A psi
    v = state.rep
    return conjugate_dual(v).pairing(mat_vec(matrix, v))


@pytest.mark.parametrize("config", [GF3, GF7, GF9, GF11], ids=["gf3", "gf7", "gf9", "gf11"])
def test_one_pass_bracket_matches_the_composed_reference(config):
    axes = spin_axes(config)
    for axis in axes:
        sigma = spin_observable(config, axis)
        for matrix in (sigma, mat_mul(sigma, sigma)):
            for state in physical_states(config):
                assert bracket(state, matrix) == reference_bracket(state, matrix)
    matrices = [product_spin(config, i, j) for i in axes for j in axes]
    matrices += [one_sided_spin(config, side, axis) for side in (1, 2) for axis in axes]
    for pair in two_particle_states(config):
        if pair.physical:
            for matrix in matrices:
                assert bracket(pair.state, matrix) == reference_bracket(pair.state, matrix)


TABLE1 = {
    "a": ((0, 1), (1, 0)),
    "b": ((0, 1), (-1, 0)),
    "c": ((1, 0), (0, 1)),
    "d": ((-1, 0), (0, 1)),
}

TABLE2 = {
    "a": ((0, 1), (0, 1), (1, 0)),
    "b": ((0, 1), (0, 1), (-1, 0)),
    "c": ((1, 0), (0, 1), (0, 1)),
    "d": ((-1, 0), (0, 1), (0, 1)),
    "e": ((0, 1), (1, 0), (0, 1)),
    "f": ((0, 1), (-1, 0), (0, 1)),
}


@pytest.mark.parametrize(
    "config,expected", [(GF3, TABLE1), (GF9, TABLE2)], ids=["gf3", "gf9"]
)
def test_expectation_tables_frozen(config, expected):
    report = table_report(config)
    assert report.axes == spin_axes(config)
    seen = {
        row.label: tuple((m.expectation, m.variance) for m in row.cells)
        for row in report.rows
    }
    assert seen == expected


def test_expectation_table_against_oracle():
    # recompute every cell from raw brackets, without ``expectation``
    report = table_report(GF9)
    for row in report.rows:
        for axis, cell in zip(report.axes, row.cells):
            sigma = spin_observable(GF9, axis)
            e = phi_map(_oracle_bracket(row.state, sigma))
            sq = phi_map(_oracle_bracket(row.state, mat_mul(sigma, sigma)))
            assert cell.expectation == e
            assert cell.variance == sq - e * e


def test_eigenstates_have_unit_expectation_and_zero_variance():
    for config in (GF3, GF9):
        named = named_states(config)
        for axis in spin_axes(config):
            obs = spin_observable(config, axis)
            up, down = SPIN_AXIS_KETS[axis]
            for label, sign in ((up, 1), (down, -1)):
                m = expectation(named[label], obs)
                assert m.expectation == sign
                assert m.variance == 0


def test_gf7_table_cells_stay_in_known_pattern():
    report = table_report(GF7)
    for row in report.rows:
        for cell in row.cells:
            assert (cell.expectation, cell.variance) in {(1, 0), (-1, 0), (0, 1)}


def test_negative_variance_shows_up_for_spread_eigenvalues():
    # over GF(7), eigenvalues 3 and 1 on the sigma_1 eigenbasis give a state
    # whose variance comes out negative under the sign map
    system = enumerate_biorthogonal_systems(GF7)[0]
    found = False
    for eigs in ((3, 1), (1, 3), (2, 3), (3, 2)):
        obs = build_observable(system, eigs)
        for state in physical_states(GF7):
            try:
                m = expectation(state, obs)
            except RuntimeError:
                continue
            if m.variance < 0:
                found = True
    assert found


def test_build_observable_checks_arity_and_reality():
    system = enumerate_biorthogonal_systems(GF9)[0]
    with pytest.raises(ValueError):
        build_observable(system, (1,))
    with pytest.raises(ValueError):
        build_observable(system, (GF9.element(0, 1), GF9.one()))
