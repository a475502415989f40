"""Two-particle states, censuses, correlators, and the CHSH scan."""

import random
import sys
import time
import tracemalloc
from collections import Counter
from functools import partial
from itertools import combinations_with_replacement

import pytest

from bioqm import (
    FieldConfig,
    StateVector,
    axis_quadruples,
    census,
    chsh,
    chsh_bound,
    chsh_scan,
    classify,
    correlator,
    from_product,
    from_vector,
    phi_map,
    representative_states,
    single_spin,
    spin_axes,
    two_particle_states,
)
from bioqm import cli, entangle, linear
from bioqm.biortho import bracket, spin_observable
from bioqm.gf import is_prime, residue_sign
from bioqm.entangle import correlator_grid, one_sided_spin, product_spin
from bioqm.linear import (
    ProjectiveState,
    dagger,
    det2,
    dot,
    enumerate_projective,
    is_self_orthogonal,
    kron,
    mat_vec,
    matrix_make,
)
from test_linear import index_code, reference_projective, reference_residues, residue_code

GF3 = FieldConfig(3, 1)
GF9 = FieldConfig(3, 2)
GF7 = FieldConfig(7, 1)


def vec(config, entries):
    return StateVector.make(config, entries)


def _det_oracle(state):
    # a 4-vector factorizes exactly when its 2x2 reshape is singular
    v = state.rep
    reshaped = ((v[0], v[1]), (v[2], v[3]))
    return det2(reshaped).is_zero


@pytest.mark.parametrize("config", [GF3, GF9], ids=["gf3", "gf9"])
def test_classification_matches_determinant_oracle(config):
    for pair in two_particle_states(config):
        assert pair.is_product == _det_oracle(pair.state)


def test_two_particle_states_cover_projective_space():
    assert len(two_particle_states(GF3)) == 40
    assert len(two_particle_states(GF9)) == 820


CENSUS3 = {
    "states": 40,
    "product": 16,
    "product_physical": 16,
    "product_self_orthogonal": 0,
    "entangled": 24,
    "entangled_physical": 8,
    "entangled_self_orthogonal": 16,
}

CENSUS9 = {
    "states": 820,
    "product": 100,
    "product_physical": 36,
    "product_self_orthogonal": 64,
    "entangled": 720,
    "entangled_physical": 504,
    "entangled_self_orthogonal": 216,
}

CENSUS7 = {
    "states": 400,
    "product": 64,
    "product_physical": 64,
    "product_self_orthogonal": 0,
    "entangled": 336,
    "entangled_physical": 272,
    "entangled_self_orthogonal": 64,
}


@pytest.mark.parametrize(
    "config,expected", [(GF3, CENSUS3), (GF9, CENSUS9), (GF7, CENSUS7)],
    ids=["gf3", "gf9", "gf7"],
)
def test_census_frozen(config, expected):
    assert census(config).counts() == expected


def test_census_against_independent_recount():
    # recount GF(3) from scratch with only projective enumeration and the
    # determinant test
    product = product_physical = 0
    entangled = entangled_physical = 0
    for state in enumerate_projective(GF3, 4):
        reshaped = ((state.rep[0], state.rep[1]), (state.rep[2], state.rep[3]))
        if det2(reshaped).is_zero:
            product += 1
            product_physical += state.physical
        else:
            entangled += 1
            entangled_physical += state.physical
    counts = census(GF3).counts()
    assert counts["product"] == product == 16
    assert counts["product_physical"] == product_physical == 16
    assert counts["entangled"] == entangled == 24
    assert counts["entangled_physical"] == entangled_physical == 8


GF11 = FieldConfig(11, 1)
GF19 = FieldConfig(19, 1)
GF49 = FieldConfig(7, 2)
CODE_FIELDS = [GF3, GF7, GF9, GF11, GF19]
CODE_IDS = ["gf3", "gf7", "gf9", "gf11", "gf19"]


def reference_codes(config):
    """The per-state reference for ``entangle.two_particle_codes``: every row
    of ``reference_residues`` with its own determinant test, as (4 element-index
    columns, norms, kinds) in bytes."""
    p = config.p
    psis, norms, kinds = [], [], []
    for psi, norm in reference_residues(config, 4):
        ar, ai, br, bi, cr, ci, dr, di = psi
        is_product = (
            not (ar * dr - ai * di - br * cr + bi * ci) % p
            and not (ar * di + ai * dr - br * ci - bi * cr) % p
        )
        psis.append(index_code(config, psi))
        norms.append(norm)
        kinds.append(entangle.PRODUCT * is_product + (norm != 0) * entangle.PHYSICAL)
    return tuple(map(bytes, zip(*psis))), bytes(norms), bytes(kinds)


@pytest.mark.parametrize("config", CODE_FIELDS + [GF49], ids=CODE_IDS + ["gf49"])
def test_code_table_matches_per_state_reference(config):
    assert entangle.two_particle_codes(config) == reference_codes(config)


def test_code_table_is_bytes_columns():
    # one byte per state in each of 6 columns (4 element indices, the norm
    # and the kind), not a tuple per state
    table = entangle.two_particle_codes(GF49)
    columns, norms, kinds = table
    assert all(type(column) is bytes for column in (*columns, norms, kinds))
    size = sys.getsizeof(table) + sys.getsizeof(columns) + sum(
        map(sys.getsizeof, (*columns, norms, kinds)))
    assert size <= 7 * CENSUS49["states"] + 4096, size


def test_code_table_refuses_two_byte_indices_before_any_build(monkeypatch):
    # GF(19^2) passes a raised guard, but its 361 indices need two bytes
    def unreachable(config, dim):
        raise AssertionError("the columns were built")

    monkeypatch.setattr(entangle, "projective_columns", unreachable)
    monkeypatch.setattr(linear, "ENUMERATION_GUARD", 10**12)
    with pytest.raises(ValueError, match="q > 256"):
        entangle.two_particle_codes(FieldConfig(19, 2))


@pytest.mark.parametrize("config", CODE_FIELDS, ids=CODE_IDS)
def test_code_table_matches_classify_on_every_state(config):
    reference = reference_projective(config, 4)
    columns, norms, kinds = entangle.two_particle_codes(config)
    psis = list(zip(*columns))
    assert len(psis) == len(norms) == len(kinds) == len(reference)
    assert set(kinds) <= {0, 1, 2, 3}
    w = config.p if config.is_extension else 1
    for psi, norm, kind, state in zip(psis, norms, kinds, reference):
        assert psi == tuple(x.re * w + x.im for x in state.rep.components)
        assert norm == dot(state.rep, state.rep).re
        assert bool(kind & entangle.PRODUCT) == classify(state).is_product
        assert bool(kind & entangle.PHYSICAL) == state.physical
    assert two_particle_states(config) == tuple(classify(s) for s in reference)


@pytest.mark.parametrize("config", CODE_FIELDS, ids=CODE_IDS)
def test_census_matches_object_recount(config):
    tally = Counter(
        (classify(s).kind, "physical" if s.physical else "self_orthogonal")
        for s in reference_projective(config, 4)
    )
    expected = {"states": sum(tally.values())}
    for kind in ("product", "entangled"):
        expected[kind] = tally[kind, "physical"] + tally[kind, "self_orthogonal"]
        for flag in ("physical", "self_orthogonal"):
            expected[f"{kind}_{flag}"] = tally[kind, flag]
    assert census(config).counts() == expected


@pytest.mark.parametrize("config", [GF3, GF7, GF11, GF19, GF9, GF49],
                         ids=["gf3", "gf7", "gf11", "gf19", "gf9", "gf49"])
def test_census_closed_forms(config):
    # the product states are the Segre variety P1 x P1, and the
    # self-orthogonal ones the quadric sum x_r^(p+1) = 0: hyperbolic over
    # GF(p), p = 3 mod 4, and Hermitian over GF(p^2) (Bose & Chakravarti
    # 1966; Hirschfeld)
    q, p = config.order, config.p
    c = census(config).counts()
    self_orthogonal = c["product_self_orthogonal"] + c["entangled_self_orthogonal"]
    assert c["states"] == (q**4 - 1) // (q - 1)
    assert c["product"] == (q + 1) ** 2
    if config.is_extension:
        assert c["product_physical"] == (p * p - p) ** 2
        assert self_orthogonal == (p**3 + 1) * (p * p + 1)
    else:
        assert c["product_physical"] == (p + 1) ** 2
        assert self_orthogonal == (p + 1) ** 2


# the frozen GF(49) census of the benchmark's scan workload
CENSUS49 = {
    "states": 120100,
    "product": 2500,
    "product_physical": 1764,
    "product_self_orthogonal": 736,
    "entangled": 117600,
    "entangled_physical": 101136,
    "entangled_self_orthogonal": 16464,
}


def test_census_counts_codes_without_building_states(monkeypatch):
    # a fresh field object, so any element the census interned would show in it
    monkeypatch.delitem(FieldConfig._instances, (7, 2), raising=False)
    config = FieldConfig(7, 2)
    two_particle_states.cache_clear()
    entangle.two_particle_codes.cache_clear()
    assert census(config).counts() == CENSUS49
    assert two_particle_states.cache_info().currsize == 0
    assert len(config._interned) == 0


def test_chsh_bound_interns_only_kernel_elements(monkeypatch):
    monkeypatch.delitem(FieldConfig._instances, (19, 1), raising=False)
    config = FieldConfig(19, 1)
    two_particle_states.cache_clear()
    entangle.two_particle_codes.cache_clear()
    entangle._pair_forms.cache_clear()
    result = chsh_bound(config)
    assert (result.bound, result.states_scanned) == (4, 6840)
    assert two_particle_states.cache_info().currsize == 0
    # the spin tables' entries, not one element per state
    assert len(config._interned) <= 16


def test_census_totals_are_consistent():
    for config in (GF3, GF9, GF7):
        c = census(config).counts()
        assert c["states"] == c["product"] + c["entangled"]
        assert c["product"] == c["product_physical"] + c["product_self_orthogonal"]
        assert (
            c["entangled"]
            == c["entangled_physical"] + c["entangled_self_orthogonal"]
        )


def test_representative_states_frozen():
    reps9 = representative_states(GF9)
    assert sorted(reps9) == ["S", "T", "U"]
    assert str(reps9["S"].state.rep) == "[0, 1, -1, 0]"
    assert str(reps9["T"].state.rep) == "[1, 0, 1+i, 1]"
    assert str(reps9["U"].state.rep) == "[1, 0, 1, 1+i]"
    for pair in reps9.values():
        assert pair.physical and not pair.is_product
    reps3 = representative_states(GF3)
    assert sorted(reps3) == ["S"]
    assert str(reps3["S"].state.rep) == "[0, 1, -1, 0]"


def test_from_product_and_from_vector():
    pair = from_product(vec(GF3, [1, 0]), vec(GF3, [0, 1]))
    assert pair.is_product
    singlet = from_vector(vec(GF3, [0, 1, -1, 0]))
    assert not singlet.is_product
    assert singlet.physical


def test_classify_accepts_projective_input():
    from bioqm.linear import canonicalize

    state = canonicalize(vec(GF9, [1, 0, (1, 1), 1]))
    assert not classify(state).is_product


# -- correlators ----------------------------------------------------------------

# rows indexed by (i, j) over axes 1, 2, 3
CORRELATOR_GRID = {
    "S": {(1, 1): -1, (1, 2): 0, (1, 3): 0,
          (2, 1): 0, (2, 2): -1, (2, 3): 0,
          (3, 1): 0, (3, 2): 0, (3, 3): -1},
    "T": {(1, 1): -1, (1, 2): 0, (1, 3): -1,
          (2, 1): 0, (2, 2): 1, (2, 3): -1,
          (3, 1): 1, (3, 2): -1, (3, 3): 0},
    "U": {(1, 1): -1, (1, 2): -1, (1, 3): -1,
          (2, 1): -1, (2, 2): 1, (2, 3): 0,
          (3, 1): 1, (3, 2): 1, (3, 3): -1},
}


def test_correlator_grids_frozen():
    reps = representative_states(GF9)
    for label, grid in CORRELATOR_GRID.items():
        state = reps[label]
        for (i, j), value in grid.items():
            assert correlator(state, i, j) == value, (label, i, j)


def test_gf3_singlet_correlators():
    singlet = representative_states(GF3)["S"]
    assert {(i, j): correlator(singlet, i, j) for i in (1, 3) for j in (1, 3)} == {
        (1, 1): -1, (1, 3): 0, (3, 1): 0, (3, 3): -1,
    }


MARGINALS = {
    "S": {1: {1: 0, 2: 0, 3: 0}, 2: {1: 0, 2: 0, 3: 0}},
    "T": {1: {1: -1, 2: -1, 3: 1}, 2: {1: -1, 2: 1, 3: -1}},
    "U": {1: {1: -1, 2: 0, 3: 1}, 2: {1: -1, 2: -1, 3: 0}},
}


def test_single_spin_marginals_frozen():
    reps = representative_states(GF9)
    for label, sides in MARGINALS.items():
        for side, by_axis in sides.items():
            for axis, value in by_axis.items():
                assert single_spin(reps[label], side, axis) == value, (label, side, axis)


def test_gf3_singlet_marginals_vanish():
    singlet = representative_states(GF3)["S"]
    for side in (1, 2):
        for axis in (1, 3):
            assert single_spin(singlet, side, axis) == 0


def test_product_state_correlators_factorize():
    from bioqm import expectation, spin_observable

    x, y = vec(GF9, [1, 1]), vec(GF9, [1, (0, 1)])
    pair = from_product(x, y)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            left = expectation(x, spin_observable(GF9, i)).expectation
            right = expectation(y, spin_observable(GF9, j)).expectation
            assert correlator(pair, i, j) == left * right


def test_product_spin_is_kron_of_one_particle_matrices():
    from bioqm import spin_observable

    for i in (1, 2, 3):
        for j in (1, 2, 3):
            expected = kron(spin_observable(GF9, i), spin_observable(GF9, j))
            assert product_spin(GF9, i, j) == expected


def test_one_sided_spin_embeds_identity_on_the_other_slot():
    from bioqm import spin_observable

    ident = matrix_make(GF9, [[1, 0], [0, 1]])
    s3 = spin_observable(GF9, 3)
    assert one_sided_spin(GF9, 1, 3) == kron(s3, ident)
    assert one_sided_spin(GF9, 2, 3) == kron(ident, s3)


# -- CHSH -----------------------------------------------------------------------


def test_chsh_named_values():
    reps = representative_states(GF9)
    assert chsh(reps["S"], 1, 3, 3, 1).value == -2
    assert chsh(reps["T"], 1, 3, 3, 1).value == -3
    assert chsh(reps["U"], 1, 3, 3, 1).value == -4
    singlet3 = representative_states(GF3)["S"]
    assert chsh(singlet3, 1, 3, 3, 1).value == -2


def test_chsh_record_details():
    record = chsh(representative_states(GF9)["U"], 1, 3, 3, 1, label="U")
    assert record.state == "U"
    assert record.axes == (1, 3, 3, 1)
    assert record.correlators == {"11": -1, "13": -1, "31": 1, "33": -1}
    # value = E(13) + E(11) + E(33) - E(31)
    assert record.value == -1 + -1 + -1 - 1


def test_chsh_extra_frozen_values():
    t = representative_states(GF9)["T"]
    assert chsh(t, 1, 3, 1, 3).value == -1
    assert chsh(t, 3, 1, 1, 3).value == 1
    assert chsh(t, 3, 1, 3, 1).value == 1
    s = representative_states(GF9)["S"]
    assert chsh(s, 3, 1, 1, 3).value == -2


def test_chsh_rejects_bad_axes():
    s = representative_states(GF9)["S"]
    with pytest.raises(ValueError):
        chsh(s, 1, 1, 3, 1)
    with pytest.raises(ValueError):
        chsh(s, 1, 3, 3, 3)
    with pytest.raises(ValueError):
        chsh(s, 1, 4, 3, 1)
    singlet3 = representative_states(GF3)["S"]
    with pytest.raises(ValueError):
        chsh(singlet3, 1, 2, 3, 1)  # axis 2 needs the extension field


def test_axis_quadruple_counts():
    assert len(axis_quadruples(GF3)) == 4
    assert len(axis_quadruples(GF9)) == 36
    for A, a, B, b in axis_quadruples(GF9):
        assert A != a and B != b


SCAN = {
    "S": {0: 6, 1: 24, 2: 6, 3: 0, 4: 0},
    "T": {0: 6, 1: 18, 2: 6, 3: 6, 4: 0},
    "U": {0: 12, 1: 12, 2: 4, 3: 4, 4: 4},
}


def test_chsh_scan_frozen():
    reps = representative_states(GF9)
    for label, expected in SCAN.items():
        hist = chsh_scan(reps[label])
        assert hist == expected
        assert sum(hist.values()) == 36


def test_chsh_bounds():
    b3 = chsh_bound(GF3)
    assert b3.bound == 2
    assert b3.states_scanned == 24
    assert b3.quadruples_per_state == 4
    b9 = chsh_bound(GF9)
    assert b9.bound == 4
    assert b9.states_scanned == 540
    assert b9.quadruples_per_state == 36


def test_chsh_classical_bound_holds_for_all_product_states():
    for pair in two_particle_states(GF3):
        if pair.physical and pair.is_product:
            for A, a, B, b in axis_quadruples(GF3):
                assert abs(chsh(pair, A, a, B, b).value) <= 2


# -- the integer-residue correlator kernel -------------------------------------

def _gram(psi):
    """The 16 Gram values of flat (re, im) residues psi, unreduced, one state
    at a time: each G_rr, then G_rc and A_rc for (r, c) in ``entangle._PAIRS``."""
    x0, y0, x1, y1, x2, y2, x3, y3 = psi
    return [
        x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3,
        x0 * x1 + y0 * y1, x0 * x2 + y0 * y2, x0 * x3 + y0 * y3,
        x1 * x2 + y1 * y2, x1 * x3 + y1 * y3, x2 * x3 + y2 * y3,
        y0 * x1 - x0 * y1, y0 * x2 - x0 * y2, y0 * x3 - x0 * y3,
        y1 * x2 - x1 * y2, y1 * x3 - x1 * y3, y2 * x3 - x2 * y3,
    ]


def _residue_grid(config, psi, norm, forms):
    """The per-state reference for ``entangle._run_lines``: the sign E of each
    ``_pair_forms`` real form in forms on one state with flat (re, im)
    residues psi and norm <psi, psi> mod p != 0, the form's value times the
    norm reduced mod p and signed by Euler's criterion."""
    p = config.p
    return tuple(residue_sign(_form_value(form, _gram(psi), p) * norm % p, p) for form in forms)


def _signed(raw):
    """The signs of a raw run-kernel row: its bytes 0, 1, 255 read as 0, 1, -1."""
    return tuple(s - 256 if s > 127 else s for s in raw)


def _applied(raw):
    """A raw run-kernel row with its last entry phi(n) applied: the grid."""
    *signs, phi_n = _signed(raw)
    return tuple(phi_n * sign for sign in signs)


def _all_forms(config):
    return list(entangle._pair_forms(config).values())


def _physical_codes(config):
    """The physical rows of the code table as (flat (re, im) residues, norm)."""
    columns, norms, _ = entangle.two_particle_codes(config)
    return [(residue_code(config, psi), norm) for psi, norm in zip(zip(*columns), norms) if norm]


def _runs(config, prefixes, forms):
    """The raw rows of the run of each flat (re, im) prefix (a, b, c) by
    ``_run_lines``: per prefix, its q rows (a, b, c, d), d in index order."""
    norms = [sum(x * x for x in prefix) % config.p for prefix in prefixes]
    lines = zip(*entangle._run_lines(config, list(zip(*prefixes)), norms, forms))
    runs = [list(zip(*run)) for run in lines]
    assert list(map(len, runs)) == [config.order] * len(prefixes)
    return runs


def _ends(config):
    """The flat (re, im) residues of every last component d, in index order."""
    return [residue_code(config, (d,)) for d in range(config.order)]


def _prefixes(config):
    """The flat rows of ``projective_columns(config, 3)``: the code table's prefixes."""
    columns, _ = linear.projective_columns(config, 3)
    return [residue_code(config, prefix) for prefix in zip(*columns)]


def _times_unit(p, psi):
    """Flat (re, im) residues psi times the non-real unit u = 1 + i, whose norm
    N(u) = 2 scales <psi, psi>.  A code-table row has y_0 = 0; its multiple has
    y_0 = x_0, so the kernel reads both halves of every Gram value on it."""
    return tuple(part for x, y in zip(psi[::2], psi[1::2]) for part in ((x - y) % p, (x + y) % p))


def _physical_grids(run):
    """The sorted grids of a run's physical rows."""
    return sorted(_applied(raw) for raw in run if raw[-1])


@pytest.mark.parametrize("config", CODE_FIELDS, ids=CODE_IDS)
def test_run_lines_match_per_state_reference_exhaustively(config):
    # every row of every prefix's run: phi(n) is the norm's sign, zero exactly
    # on the self-orthogonal rows, and a physical row's grid is the reference
    p, forms = config.p, _all_forms(config)
    prefixes = _prefixes(config)
    runs = _runs(config, prefixes, forms)
    for prefix, run in zip(prefixes, runs):
        for end, raw in zip(_ends(config), run):
            psi = prefix + end
            norm = sum(x * x for x in psi) % p
            assert _signed(raw)[-1] == residue_sign(norm, p), psi
            if norm:
                assert _applied(raw) == _residue_grid(config, psi, norm, forms), psi
    if config.is_extension:
        # the run of u (a, b, c) is u times the run of (a, b, c): the same
        # states, so the same sorted grids
        scaled = _runs(config, [_times_unit(p, prefix) for prefix in prefixes], forms)
        for prefix, run, unit_run in zip(prefixes, runs, scaled):
            assert _physical_grids(unit_run) == _physical_grids(run), prefix


def test_run_lines_match_per_state_reference_on_a_sample():
    forms, p = _all_forms(GF49), GF49.p
    w = linear.index_width(GF49)
    rows = random.Random(4902).sample(_physical_codes(GF49), 300)
    runs = _runs(GF49, [psi[:6] for psi, _ in rows], forms)
    scaled = _runs(GF49, [_times_unit(p, psi[:6]) for psi, _ in rows], forms)
    for (psi, norm), run, unit_run in zip(rows, runs, scaled):
        grid = _residue_grid(GF49, psi, norm, forms)
        x, y = psi[6:]
        assert _applied(run[x * w + y]) == grid, psi
        # u psi lies at u d in the run of u (a, b, c), its y_0 = x_0 != 0
        x, y = _times_unit(p, psi[6:])
        assert _applied(unit_run[x * w + y]) == grid, psi
        assert _physical_grids(unit_run) == _physical_grids(run), psi


@pytest.mark.parametrize("config", [GF3, GF9, GF19], ids=["gf3", "gf9", "gf19"])
def test_chsh_bound_runs_are_the_code_table_rows_in_order(config, monkeypatch):
    # after its first row (0, 0, 0, 1) the code table is one run of q rows per
    # prefix (a, b, c), d in index order; ``chsh_bound`` hands ``_run_lines``
    # those prefixes in table order, once each, with their norms
    expected = chsh_bound(config)
    kernel = entangle._run_lines
    fed = []

    def recording(field, flat, norms, forms):
        fed.append(([tuple(column) for column in flat], list(norms)))
        return kernel(field, flat, norms, forms)

    monkeypatch.setattr(entangle, "_run_lines", recording)
    assert chsh_bound(config) == expected
    ((flat, norms),) = fed
    q = config.order
    columns, table_norms, _ = entangle.two_particle_codes(config)
    rows = [residue_code(config, psi) for psi in zip(*columns)]
    assert rows[0] == (0,) * 6 + residue_code(config, (linear.index_width(config),))
    assert [row[:6] for row in rows[1::q]] == list(zip(*flat))
    assert [row[6:] for row in rows[1:]] == _ends(config) * len(norms)
    # d = 0 adds nothing to the norm
    assert list(table_norms[1::q]) == norms


def test_chsh_bound_never_builds_the_code_table(monkeypatch):
    def unreachable(config):
        raise AssertionError("the code table was read")

    monkeypatch.setattr(entangle, "two_particle_codes", unreachable)
    for config, bound, scanned in ((GF3, 2, 24), (GF9, 4, 540), (GF19, 4, 6840)):
        result = chsh_bound(config)
        assert (result.bound, result.states_scanned) == (bound, scanned)


@pytest.mark.parametrize("config", [FieldConfig(43, 1), GF49, FieldConfig(83, 1)],
                         ids=["gf43", "gf49", "gf83"])
def test_chsh_bound_scans_every_physical_state_in_closed_form(config):
    # (q^4 - 1) / (q - 1) states, less the self-orthogonal ones: (p + 1)^2
    # over GF(p), (p^3 + 1)(p^2 + 1) over GF(p^2)
    q, p = config.order, config.p
    self_orthogonal = (p**3 + 1) * (p**2 + 1) if config.is_extension else (p + 1) ** 2
    result = chsh_bound(config)
    assert (result.bound, result.states_scanned) == (4, (q**4 - 1) // (q - 1) - self_orthogonal)


@pytest.mark.parametrize("config", CODE_FIELDS, ids=CODE_IDS)
def test_chsh_bound_reads_the_reference_grid_of_every_physical_row(config, monkeypatch):
    # the scan keeps each distinct raw tuple and applies its phi(n) after; the
    # grids it reads are the per-state references' set, each read once.  CHSH
    # values of 0 keep it from stopping at the first grid that reaches 4
    forms = entangle._pair_forms(config)
    read = []

    def recording(e, quadruples):
        read.append(tuple(e[pair] for pair in forms))
        return [0]

    monkeypatch.setattr(entangle, "_chsh_values", recording)
    assert chsh_bound(config).bound == 0
    rows = _physical_codes(config)
    assert sorted(read) == sorted(
        {_residue_grid(config, psi, norm, list(forms.values())) for psi, norm in rows})


# forms over the Gram values that sweep a run's terms: G_01 alone, then with
# every sign -1 on G_01, G_03 and G_33, then A_03 with G_33, then G_03 - A_03
SWEEP_FORMS = [((4,), (1,), 1), ((4, 6, 3), (-1, -1, -1), 1), ((12, 3), (1, 1), 1),
               ((6, 12), (1, -1), 1)]


@pytest.mark.parametrize("config", [GF3, GF7, GF9, GF19, GF49, FieldConfig(83, 1)],
                         ids=["gf3", "gf7", "gf9", "gf19", "gf49", "gf83"])
def test_run_lines_read_every_shift_and_term(config):
    # on the prefixes (1, c, 0), G_01 = c takes every residue, so each form's
    # line is read through every shift table; x_0 = 1 puts x_3 in G_03 and
    # y_3 in A_03 = y_0 x_3 - x_0 y_3, and the sums run negative before their
    # reduction mod p
    p = config.p
    prefixes = [(1, 0, c, 0, 0, 0) for c in range(p)]
    for prefix, run in zip(prefixes, _runs(config, prefixes, SWEEP_FORMS)):
        for end, raw in zip(_ends(config), run):
            psi = prefix + end
            expected = [residue_sign(_form_value(form, _gram(psi), p), p) for form in SWEEP_FORMS]
            norm = sum(x * x for x in psi) % p
            assert _signed(raw) == (*expected, residue_sign(norm, p)), psi


def test_chsh_bound_working_memory_is_its_run_lines():
    # the scan reads prefixes, not the code table: its working memory is a
    # few lines of q bytes per prefix, not columns over the whole field
    entangle._pair_forms(GF19)
    tracemalloc.start()
    try:
        result = chsh_bound(GF19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.bound, result.states_scanned) == (4, 6840)
    assert peak < 1 << 20, peak


def _object_grid(state):
    """Every E(i, j) by the object path: a 4x4 product matrix and ``bracket``."""
    config = state.config
    axes = spin_axes(config)
    return {
        (i, j): phi_map(bracket(state.state, product_spin(config, i, j)))
        for i in axes
        for j in axes
    }


def _physical(config):
    return [s for s in two_particle_states(config) if s.physical]


def _sampled_physical(config, seed, count):
    """Seeded random physical two-particle states, each held by the random
    (not canonical) vector drawn, without enumerating the field."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = vec(config, [
            (rng.randrange(config.p), rng.randrange(config.p) if config.is_extension else 0)
            for _ in range(4)
        ])
        if not v.is_zero and not is_self_orthogonal(v):
            out.append(classify(ProjectiveState(rep=v, self_orthogonal=False)))
    return out


@pytest.mark.parametrize(
    "config", [GF3, GF7, GF9, GF11], ids=["gf3", "gf7", "gf9", "gf11"]
)
def test_kernel_matches_object_path_exhaustively(config):
    axes = spin_axes(config)
    unit = config.element(1, 1) if config.is_extension else None
    for state in _physical(config):
        grid = _object_grid(state)
        assert correlator_grid(state, axes, axes) == grid, str(state)
        if unit is not None:
            # the same state held by u psi for the non-real unit u = 1 + i
            rep = state.state.rep.scale(unit)
            scaled = classify(ProjectiveState(rep=rep, self_orthogonal=False))
            assert correlator_grid(scaled, axes, axes) == grid, str(scaled)


@pytest.mark.parametrize(
    "config,seed", [(GF19, 1901), (GF49, 4901)], ids=["gf19", "gf49"]
)
def test_kernel_matches_object_path_on_a_sample(config, seed):
    axes = spin_axes(config)
    for state in _sampled_physical(config, seed, 300):
        assert correlator_grid(state, axes, axes) == _object_grid(state), str(state)


@pytest.mark.parametrize("config", [GF3, GF7, GF9, GF49], ids=["gf3", "gf7", "gf9", "gf49"])
def test_one_state_grid_is_the_run_kernel_on_its_row(config):
    # correlator_grid evaluates one state on its Gram integers; the run kernel
    # behind chsh_bound, fed the state's prefix, agrees on the state's row
    axes = spin_axes(config)
    forms = entangle._pair_forms(config)
    columns, norms, _ = entangle.two_particle_codes(config)
    rows = [(psi, norm) for psi, norm in zip(zip(*columns), norms) if norm]
    if config is GF49:  # the rows of the run kernel's GF(49) sample
        rows = random.Random(4902).sample(rows, 300)
    runs = _runs(config, [residue_code(config, psi[:3]) for psi, _ in rows], list(forms.values()))
    for (psi, norm), run in zip(rows, runs):
        state = entangle.TwoParticleState(linear.residue_state(config, psi, norm), "entangled")
        grid = dict(zip(forms, _applied(run[psi[3]])))
        assert correlator_grid(state, axes, axes) == grid, str(state)


def test_kernel_reads_one_pair_or_a_rectangle():
    u = representative_states(GF9)["U"]
    grid = _object_grid(u)
    assert correlator_grid(u, (3,), (1, 2)) == {(3, 1): grid[3, 1], (3, 2): grid[3, 2]}
    for (i, j), value in grid.items():
        assert correlator(u, i, j) == value
    with pytest.raises(ValueError):
        correlator(representative_states(GF3)["S"], 1, 2)


@pytest.mark.parametrize(
    "config", [GF3, GF7, GF9, GF11], ids=["gf3", "gf7", "gf9", "gf11"]
)
def test_chsh_bound_and_scan_match_object_path_reference(config):
    quadruples = axis_quadruples(config)
    best = 0
    states = _physical(config)
    for state in states:
        e = _object_grid(state)
        values = [e[A, B] + e[A, b] + e[a, B] - e[a, b] for A, a, B, b in quadruples]
        tally = {k: 0 for k in range(5)}
        for value in values:
            tally[abs(value)] += 1
        assert chsh_scan(state) == tally, str(state)
        best = max(best, *map(abs, values))
    result = chsh_bound(config)
    assert (result.bound, result.states_scanned) == (best, len(states))
    assert result.quadruples_per_state == len(quadruples)


def test_self_orthogonal_state_raises_value_error():
    state = next(s for s in two_particle_states(GF9) if not s.physical)
    with pytest.raises(ValueError):
        bracket(state.state, product_spin(GF9, 1, 1))
    with pytest.raises(ValueError):
        correlator_grid(state, (1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        correlator(state, 3, 3)
    with pytest.raises(ValueError):
        chsh_scan(state)


# axis-1 spin tables that are neither Hermitian nor symmetric: a raising
# operator over GF(3), and over GF(9) one with an imaginary part in every entry
MALFORMED = {
    GF3: [[0, 1], [0, 0]],
    GF9: [[(1, 1), (1, 2)], [(2, 1), (0, 1)]],
}


@pytest.fixture
def pair_forms_cleared():
    # the fold reads spin tables through ``product_spin``, so its cache goes too
    for cached in (entangle._pair_forms, entangle.product_spin):
        cached.cache_clear()
    yield
    for cached in (entangle._pair_forms, entangle.product_spin):
        cached.cache_clear()


def _substitute_malformed(monkeypatch, tables):
    """Make axis 1's spin table the one tables holds for the field, wherever
    ``entangle`` reads it."""
    original = entangle.spin_observable

    def substituted(field, axis):
        return matrix_make(field, tables[field]) if axis == 1 else original(field, axis)

    monkeypatch.setattr(entangle, "spin_observable", substituted)


def _refused_everywhere(config, message, capsys):
    """Every correlator entry point, and ``chsh --bound``, raises message."""
    state = representative_states(config)["S"]
    axes = spin_axes(config)
    entry_points = [
        partial(entangle._pair_forms, config),
        partial(correlator_grid, state, axes, axes),
        partial(chsh, state, 1, 3, 3, 1),
        partial(chsh_scan, state),
        partial(chsh_bound, config),
    ]
    for call in entry_points:
        with pytest.raises(RuntimeError) as raised:
            call()
        assert str(raised.value) == message
    argv = ["chsh", "--p", str(config.p), "--degree", str(config.degree), "--bound"]
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == f"internal error: {message}\n"


@pytest.mark.parametrize("config", list(MALFORMED), ids=["gf3", "gf9"])
def test_malformed_spin_table_is_refused_at_fold_time(config, monkeypatch, pair_forms_cleared,
                                                      capsys):
    # a table that is not Hermitian is refused once per field, when its pairs
    # are folded, so every correlator entry point refuses it on every state;
    # s_1 x s_1 is the first pair folded
    _substitute_malformed(monkeypatch, MALFORMED)
    _refused_everywhere(config, "spin 1x1 is not Hermitian; observable is malformed", capsys)


# Hermitian axis-1 tables whose s_1 x s_1 has coefficients 1 and 2 on the
# Gram values: 2 is not +-1 mod 7, so the form is not c0 times a signed sum
UNSIGNED = {
    GF7: [[1, 0], [0, 2]],
    GF49: [[1, (1, 1)], [(1, 6), 2]],
}


@pytest.mark.parametrize("config", list(UNSIGNED), ids=["gf7", "gf49"])
def test_unsigned_hermitian_spin_table_is_refused_at_fold_time(config, monkeypatch,
                                                               pair_forms_cleared, capsys):
    table = matrix_make(config, UNSIGNED[config])
    assert dagger(table) == table
    _substitute_malformed(monkeypatch, UNSIGNED)
    _refused_everywhere(
        config, "spin 1x1 folds to coefficients other than +-c0; observable is malformed", capsys)


def _form_value(form, gram, p):
    """scale * sum t_k G_k mod p for a ``_pair_forms`` form."""
    indices, signs, scale = form
    return scale * sum(t * gram[k] for k, t in zip(indices, signs)) % p


@pytest.mark.parametrize("config", [GF3, GF7, GF9], ids=["gf3", "gf7", "gf9"])
def test_pair_forms_fold_the_unnormalized_bracket(config):
    # on every state, self-orthogonal ones too, the real form read off the
    # Gram values is <psi, (s_i x s_j) psi> mod p, whose imaginary part is 0
    forms = entangle._pair_forms(config)
    axes = spin_axes(config)
    assert set(forms) == {(i, j) for i in axes for j in axes}
    for state in two_particle_states(config):
        v = state.state.rep
        gram = _gram(tuple(part for x in v.components for part in (x.re, x.im)))
        for (i, j), form in forms.items():
            value = dot(v, mat_vec(product_spin(config, i, j), v))
            assert (_form_value(form, gram, config.p), value.im) == (value.re, 0), (str(v), i, j)


# every p = 3 mod 4 below 200 at degree 1, and up to 19 at degree 2
HERMITIAN_FIELDS = ([FieldConfig(p, 1) for p in range(3, 200, 4) if is_prime(p)]
                    + [FieldConfig(p, 2) for p in range(3, 20, 4) if is_prime(p)])


@pytest.mark.parametrize("config", HERMITIAN_FIELDS,
                         ids=[f"gf{c.order}" for c in HERMITIAN_FIELDS])
def test_hermitian_spin_tables_fold_to_zero_imaginary_forms(config):
    # sum lambda_k k k^dagger / n_k over GF(p) is Hermitian, so ``_pair_forms``
    # finds no coefficient left in any imaginary form and folds without raising
    for axis in spin_axes(config):
        m = spin_observable(config, axis)
        assert dagger(m) == m, axis
    assert len(entangle._pair_forms(config)) == len(spin_axes(config)) ** 2


def _polarization_points(config):
    """The flat (re, im) residue vectors e_a and e_a + e_b (re parts only over
    GF(p)).  A quadratic form in the flat residues is fixed by its values on
    them, so two forms that agree there agree on every state."""
    for a, b in combinations_with_replacement(range(0, 8, 1 if config.is_extension else 2), 2):
        flat = [0] * 8
        flat[a] = flat[b] = 1
        yield tuple(flat)


@pytest.mark.parametrize("config", HERMITIAN_FIELDS,
                         ids=[f"gf{c.order}" for c in HERMITIAN_FIELDS])
def test_pair_forms_are_a_square_times_a_signed_gram_sum(config):
    # each form is scale * sum t_k G_k with t_k = +-1 and phi(scale) = 1, and
    # it is the unnormalized bracket on every state: it agrees with
    # <psi, (s_i x s_j) psi> on the polarization points
    p = config.p
    for (i, j), form in entangle._pair_forms(config).items():
        indices, signs, scale = form
        assert len(indices) == len(signs) <= 4 and set(signs) <= {1, -1}, (i, j)
        assert residue_sign(scale, p) == 1, (i, j)
        for flat in _polarization_points(config):
            v = vec(config, list(zip(flat[::2], flat[1::2])))
            value = dot(v, mat_vec(product_spin(config, i, j), v))
            assert (_form_value(form, _gram(flat), p), value.im) == (value.re, 0), (flat, i, j)


def test_single_state_over_a_large_prime_builds_no_sign_table(capsys):
    # one state's grid is signed by Euler's criterion, with no table over
    # the field's residues, in well under a second
    argv = ["chsh", "--state", "S", "--axes", "1313", "--p", "1000003"]
    start = time.perf_counter()
    assert cli.run(argv) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.startswith("C_1313(S) = 0\n")
    # again with the fold redone, its working memory traced: no wide table
    entangle._pair_forms.cache_clear()
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
