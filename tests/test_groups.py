"""The projective symmetry groups, their actions, and orbit decompositions."""

from collections import Counter
from functools import cache
from itertools import cycle, islice, product
from operator import eq, itemgetter, mul
from string import ascii_lowercase
from types import SimpleNamespace

import pytest

from bioqm import (
    FieldConfig,
    act,
    burnside_count,
    conjugate_observable,
    conjugacy_classes,
    element_orders,
    entangled_labels,
    enumerate_group,
    find_local_transform,
    named_states,
    orbits,
    representative_states,
    spin_observable,
    verify_isomorphism,
)
from bioqm.biortho import physical_states, spin_axes, state_label
from bioqm import entangle
from bioqm.entangle import (
    PHYSICAL,
    PRODUCT,
    classify,
    from_product,
    two_particle_codes,
    two_particle_states,
)
from bioqm.gf import phi_map
from bioqm import groups
from bioqm.groups import (
    ProjectiveGroup,
    _acting_order,
    _cycle_notation,
    _generator_permutations,
    _local_reach,
    _stabilizer_order,
    _walk,
)
from bioqm.linear import (
    ColumnEngine,
    StateVector,
    canonicalize,
    dagger,
    det2,
    flat_residues,
    identity_matrix,
    inverse2,
    kron,
    mat_mul,
    mat_vec,
    matrix_make,
)
from test_linear import (index_code, reference_indices, reference_projective,
                         reference_residues, residue_code)

GF3 = FieldConfig(3, 1)
GF9 = FieldConfig(3, 2)
GF7 = FieldConfig(7, 1)
GF11 = FieldConfig(11, 1)
GF19 = FieldConfig(19, 1)
GF23 = FieldConfig(23, 1)
GF49 = FieldConfig(7, 2)
FIELDS = [GF3, GF7, GF9, GF11, GF19, GF23]
FIELD_IDS = ["gf3", "gf7", "gf9", "gf11", "gf19", "gf23"]


def _matrix_key(m):
    return tuple((x.re, x.im) for row in m for x in row)


# the object group products: the references the index tables are checked
# against, by matrix multiplication and lookup of the canonical form


@cache
def _by_matrix(group):
    return {g.matrix: g for g in group.elements}


def canonical_matrix(m):
    """The leading-1 form of a 2x2 matrix: ``canonicalize`` on its row-major entries."""
    v = canonicalize(StateVector(sum(m, ()), m[0][0].config)).rep.components
    return (v[:2], v[2:])


def group_lookup(group, m):
    g = _by_matrix(group).get(canonical_matrix(m))
    if g is None:
        raise ValueError("matrix does not belong to the group")
    return g


def group_mul(group, g, h):
    return group_lookup(group, mat_mul(g.matrix, h.matrix))


def group_inv(group, g):
    return group_lookup(group, inverse2(g.matrix))


# the per-state path the column operations replaced: a 2x2 product of flat
# (re, im) residue tables, a leading-1 scaling of a flat code, and the code
# dict each canonical image is looked up in


def reference_mul2(x, y):
    """The product [[a, b], [c, d]] [[e, f], [g, h]] of two flat (re, im)
    residue tables, unreduced."""
    ar, ai, br, bi, cr, ci, dr, di = x
    er, ei, fr, fi, gr, gi, hr, hi = y
    return [
        ar * er - ai * ei + br * gr - bi * gi, ar * ei + ai * er + br * gi + bi * gr,
        ar * fr - ai * fi + br * hr - bi * hi, ar * fi + ai * fr + br * hi + bi * hr,
        cr * er - ci * ei + dr * gr - di * gi, cr * ei + ci * er + dr * gi + di * gr,
        cr * fr - ci * fi + dr * hr - di * hi, cr * fi + ci * fr + dr * hi + di * hr,
    ]


def reference_canonicalizer(config):
    """``canonicalize`` on flat (re, im, ...) integers, scaled by the field's
    inverses from the object elements."""
    p = config.p
    inverses = {(x.re, x.im): (y.re, y.im)
                for x in config.elements() if not x.is_zero for y in (x.inverse(),)}

    def canonical(v):
        v = [x % p for x in v]
        k = next(k for k in range(0, len(v), 2) if v[k] or v[k + 1])
        sr, si = inverses[v[k], v[k + 1]]
        out = []
        for re, im in zip(v[::2], v[1::2]):
            out += ((re * sr - im * si) % p, (re * si + im * sr) % p)
        return tuple(out)

    return canonical


def reference_permutation(step, codes, canonical):
    """The position of each code's canonical image under step."""
    position = {code: k for k, code in enumerate(codes)}
    return tuple(position[canonical(step(code))] for code in codes)


def test_group_orders():
    assert enumerate_group(GF3).order == 8
    assert enumerate_group(GF9).order == 24


@pytest.mark.parametrize("config", [GF3, GF9], ids=["gf3", "gf9"])
def test_group_matches_brute_force_enumeration(config):
    # independent oracle: every invertible canonical matrix with
    # dagger(M) M = c * identity, c nonzero and real
    group = enumerate_group(config)
    found = set()
    elements = list(config.elements())
    for quad in product(elements, repeat=4):
        m = ((quad[0], quad[1]), (quad[2], quad[3]))
        if det2(m).is_zero:
            continue
        gram = mat_mul(dagger(m), m)
        c = gram[0][0]
        if gram[0][1].is_zero and gram[1][0].is_zero and gram[1][1] == c:
            if not c.is_zero and c.is_real:
                found.add(canonical_matrix(m))
    assert found == {g.matrix for g in group.elements}


def _object_group(config):
    """(matrix, label, sign) of every element, filtered on objects: each
    candidate of the object enumeration is a matrix, dagger(M) M its Gram."""
    states = physical_states(config)
    index_of = {s.rep: k for k, s in enumerate(states)}
    letters = ascii_lowercase[: len(states)]
    found = []
    for candidate in reference_projective(config, 4):
        v = candidate.rep.components
        m = (v[0:2], v[2:4])
        gram = mat_mul(dagger(m), m)
        c = gram[0][0]
        if c.is_zero or not gram[0][1].is_zero or not gram[1][0].is_zero or gram[1][1] != c:
            continue
        assert c.is_real
        perm = tuple(index_of[canonicalize(mat_vec(m, s.rep)).rep] for s in states)
        found.append((m, _cycle_notation(perm, letters), phi_map(c)))
    return found


def reference_member_codes(config):
    """The members found by search: every canonical 4-vector of the residue
    enumeration, read row-major as M = [[a, b], [c, d]], kept when
    dagger(M) M = [[n, x], [conj(x), n']] has n = n' nonzero and x = 0, with
    the column norms n, n' and x = conj(a) b + conj(c) d; as element-index
    codes, sorted."""
    p = config.p
    found = []
    for v, _ in reference_residues(config, 4):
        ar, ai, br, bi, cr, ci, dr, di = v
        norm = (ar * ar + ai * ai + cr * cr + ci * ci) % p
        if (
            norm
            and norm == (br * br + bi * bi + dr * dr + di * di) % p
            and not (ar * br + ai * bi + cr * dr + ci * di) % p
            and not (ar * bi - ai * br + cr * di - ci * dr) % p
        ):
            found.append(index_code(config, v))
    return sorted(found)


@pytest.mark.parametrize("config", FIELDS + [GF49], ids=FIELD_IDS + ["gf49"])
def test_constructed_members_match_the_residue_filter(config):
    # GF(49) is checked on the codes alone: enumerate_group refuses it
    # because its 42 physical one-particle states outnumber the letters
    codes = groups._group_index(config).codes
    p = config.p
    assert len(codes) == (p * (p * p - 1) if config.is_extension else 2 * (p + 1))
    assert list(codes) == reference_member_codes(config)


@pytest.mark.parametrize("config", FIELDS, ids=FIELD_IDS)
def test_group_matches_object_filter(config):
    elements = [(g.matrix, g.label, g.sign) for g in enumerate_group(config).elements]
    assert elements == _object_group(config)


@pytest.mark.parametrize("config", [GF3, GF9], ids=["gf3", "gf9"])
def test_closure_and_inverses(config):
    group = enumerate_group(config)
    for g in group.elements:
        assert group_mul(group, g, group_inv(group, g)) is group.identity
        for h in group.elements:
            assert group_mul(group, g, h) in group.elements


GF3_MATRICES = {
    "e": (1, [[1, 0], [0, 1]]),
    "(ab)": (1, [[0, 1], [1, 0]]),
    "(cd)": (1, [[1, 0], [0, -1]]),
    "(ab)(cd)": (1, [[0, 1], [-1, 0]]),
    "(ac)(bd)": (-1, [[1, 1], [1, -1]]),
    "(ad)(bc)": (-1, [[1, -1], [-1, -1]]),
    "(acbd)": (-1, [[1, -1], [1, 1]]),
    "(adbc)": (-1, [[1, 1], [-1, 1]]),
}


def _index_columns(config, codes):
    """``bytes`` element-index columns of flat (re, im, ...) residue codes."""
    return [bytes(column) for column in zip(*(index_code(config, code) for code in codes))]


@pytest.mark.parametrize("config", [GF3, GF7, GF9, GF49], ids=["gf3", "gf7", "gf9", "gf49"])
def test_closed_form_row_index_is_the_table_position(config):
    engine = ColumnEngine(config)
    for dim in (2, 4):
        columns = list(zip(*(v for v, _ in reference_indices(config, dim))))
        assert engine.rows(columns) == list(range((config.order**dim - 1) // (config.order - 1)))


@pytest.mark.parametrize("config", [GF7, GF9, GF49], ids=["gf7", "gf9", "gf49"])
def test_canonical_columns_undo_every_scaling(config):
    engine = ColumnEngine(config)
    p = config.p
    canonical = reference_canonicalizer(config)
    rows = [v for v, _ in reference_residues(config, 4)]
    columns = _index_columns(config, rows)
    # row r scaled by the (r mod (q - 1)) + 1-th element, so every nonzero
    # scalar meets rows of every pivot
    scalars = islice(cycle(x for x in config.elements() if not x.is_zero), len(rows))
    scaled = _index_columns(config, [
        [part % p for re, im in zip(v[::2], v[1::2]) for part in (re * s.re - im * s.im,
                                                                  re * s.im + im * s.re)]
        for v, s in zip(rows, scalars)])
    assert scaled != columns
    assert engine.canonical(scaled) == columns
    # and on raw images: a generator times every 97th row, reduced mod p but
    # not scaled, against the reference scaling
    index = groups._group_index(config)
    member = residue_code(config, index.codes[index.generators[-1]])
    raw = [[x % p for x in reference_mul2(member, code)] for code in rows[::97]]
    assert engine.canonical(_index_columns(config, raw)) == _index_columns(
        config, list(map(canonical, raw)))


def test_fields_past_one_byte_element_indices_are_refused(monkeypatch):
    # the refusal comes before any table or member is built
    def unreachable(config):
        raise AssertionError("the members were built")

    monkeypatch.setattr(groups, "physical_states", unreachable)
    with pytest.raises(ValueError, match="one-byte element index"):
        groups._group_index(FieldConfig(263, 1))


def test_gf3_elements_frozen():
    group = enumerate_group(GF3)
    assert {g.label for g in group.elements} == set(GF3_MATRICES)
    for label, (sign, rows) in GF3_MATRICES.items():
        g = group.by_label[label]
        assert g.sign == sign
        assert g.matrix == matrix_make(GF3, rows)


def _cycle_notation_oracle(mapping):
    """Rebuild disjoint-cycle notation from a label -> label dict."""
    letters = sorted(mapping)
    seen = set()
    out = []
    for start in letters:
        if start in seen or mapping[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = mapping[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = mapping[nxt]
        out.append("(" + "".join(cycle) + ")")
    return "".join(out) or "e"


@pytest.mark.parametrize("config", [GF3, GF9], ids=["gf3", "gf9"])
def test_labels_encode_the_action_on_named_states(config):
    group = enumerate_group(config)
    named = named_states(config)
    for g in group.elements:
        mapping = {
            label: state_label(act(g, state)) for label, state in named.items()
        }
        assert _cycle_notation_oracle(mapping) == g.label


def test_gf3_conjugacy_classes_frozen():
    group = enumerate_group(GF3)
    classes = {
        frozenset(g.label for g in cls) for cls in conjugacy_classes(group)
    }
    assert classes == {
        frozenset({"e"}),
        frozenset({"(ab)(cd)"}),
        frozenset({"(ab)", "(cd)"}),
        frozenset({"(ac)(bd)", "(ad)(bc)"}),
        frozenset({"(acbd)", "(adbc)"}),
    }


def test_gf9_conjugacy_classes_frozen():
    group = enumerate_group(GF9)
    classes = {
        frozenset(g.label for g in cls) for cls in conjugacy_classes(group)
    }
    assert classes == {
        frozenset({"e"}),
        frozenset({"(ab)(cd)", "(ab)(ef)", "(cd)(ef)"}),
        frozenset(
            {
                "(ab)(ce)(df)",
                "(ab)(cf)(de)",
                "(ac)(bd)(ef)",
                "(ad)(bc)(ef)",
                "(ae)(bf)(cd)",
                "(af)(be)(cd)",
            }
        ),
        frozenset(
            {"(acbd)", "(adbc)", "(aebf)", "(afbe)", "(cedf)", "(cfde)"}
        ),
        frozenset(
            {
                "(ace)(bdf)",
                "(acf)(bde)",
                "(ade)(bcf)",
                "(adf)(bce)",
                "(aec)(bfd)",
                "(aed)(bfc)",
                "(afc)(bed)",
                "(afd)(bec)",
            }
        ),
    }


def reference_conjugacy_classes(group):
    # the object loop: {h g h^-1} over every h, by group_mul and group_inv
    remaining = list(group.elements)
    classes = []
    while remaining:
        g = remaining[0]
        members = {
            group_mul(group, group_mul(group, h, g), group_inv(group, h))
            for h in group.elements
        }
        classes.append(tuple(sorted(members, key=lambda x: _matrix_key(x.matrix))))
        remaining = [x for x in remaining if x not in members]
    classes.sort(key=lambda c: (len(c), _matrix_key(c[0].matrix)))
    return classes


def reference_element_order(group, g):
    power, n = g, 1
    while power is not group.identity:
        power, n = group_mul(group, power, g), n + 1
    return n


@pytest.mark.parametrize("config", FIELDS, ids=FIELD_IDS)
def test_classes_and_orders_match_the_object_references(config):
    group = enumerate_group(config)
    assert conjugacy_classes(group) == reference_conjugacy_classes(group)
    orders = [reference_element_order(group, g) for g in group.elements]
    assert list(element_orders(group)) == orders
    profile = tuple(sorted(Counter(orders).items()))
    assert verify_isomorphism(group).element_order_profile == profile


def test_isomorphism_reports():
    rep3 = verify_isomorphism(enumerate_group(GF3))
    assert rep3.name == "D4"
    assert rep3.verified
    assert rep3.order == 8
    assert not rep3.abelian
    assert rep3.class_sizes == (1, 1, 2, 2, 2)
    assert rep3.element_order_profile == ((1, 1), (2, 5), (4, 2))

    rep9 = verify_isomorphism(enumerate_group(GF9))
    assert rep9.name == "S4"
    assert rep9.verified
    assert rep9.order == 24
    assert not rep9.abelian
    assert rep9.class_sizes == (1, 3, 6, 6, 8)
    assert rep9.element_order_profile == ((1, 1), (2, 9), (3, 8), (4, 6))


@pytest.mark.parametrize(
    "config, name",
    [(GF3, "D4"), (GF7, "D8"), (GF11, "D12"), (GF19, "D20"), (GF23, "D24"), (GF9, "S4")],
    ids=["gf3", "gf7", "gf11", "gf19", "gf23", "gf9"],
)
def test_isomorphism_names_the_group_on_every_field(config, name):
    report = verify_isomorphism(enumerate_group(config))
    assert (report.name, report.verified) == (name, True)
    p = config.p
    assert report.order == (p * (p * p - 1) if config.is_extension else 2 * (p + 1))


def test_a_failed_check_reports_unidentified(monkeypatch):
    monkeypatch.setattr(groups, "_is_dihedral", lambda index, n: False)
    monkeypatch.setattr(groups, "_sharply_3_transitive", lambda config: False)
    for config in (GF3, GF9):
        report = verify_isomorphism(enumerate_group(config))
        assert (report.name, report.verified) == ("unidentified", False)


def _abelian_index(elements, add):
    """A stand-in for ``_GroupIndex`` on a small abelian group, identity first."""
    position = {x: k for k, x in enumerate(elements)}
    left = [[position[add(x, y)] for y in elements] for x in elements]
    orders = []
    for row in left:
        y, n = row[0], 1
        while y != 0:
            y, n = row[y], n + 1
        orders.append(n)
    return SimpleNamespace(identity=0, orders=orders, generator_left=None,
                           compose=lambda x, rows: left[x])


def test_dihedral_check_rejects_groups_of_the_same_order():
    # S4 has the order of D12 but no element of order 12
    assert groups._is_dihedral(groups._group_index(GF11), 12)
    assert not groups._is_dihedral(groups._group_index(GF9), 12)
    # D8 holds copies of D4 but has twice its order
    assert not groups._is_dihedral(groups._group_index(GF7), 4)
    # Z8 has no involution outside <r>; in Z2 x Z4, r s has order 4, not 2
    z8 = _abelian_index(list(range(8)), lambda x, y: (x + y) % 8)
    z2z4 = _abelian_index(list(product(range(2), range(4))),
                          lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4))
    assert z8.orders[2] == z2z4.orders[1] == 4
    assert not groups._is_dihedral(z8, 4)
    assert not groups._is_dihedral(z2z4, 4)


@pytest.mark.parametrize("config", [GF3, GF7, GF11, GF19, GF23],
                         ids=["gf3", "gf7", "gf11", "gf19", "gf23"])
def test_three_transitivity_check_rejects_the_prime_fields(config):
    # p = 3 (mod 4): no one-particle point over GF(p) is self-orthogonal
    assert not groups._sharply_3_transitive(config)


@pytest.mark.parametrize("change", [lambda column: column[:-1] + column[:1],
                                    lambda column: column + column[:1]],
                         ids=["replaced", "appended"])
def test_three_transitivity_check_rejects_a_repeated_member(change, monkeypatch):
    # the last member replaced by, or followed by, a copy of the first
    index = groups._group_index(GF9)
    assert groups._sharply_3_transitive(GF9)
    changed = SimpleNamespace(engine=index.engine, members=tuple(map(change, index.members)))
    monkeypatch.setattr(groups, "_group_index", lambda config: changed)
    assert not groups._sharply_3_transitive(GF9)


@pytest.mark.parametrize("p", [7, 11], ids=["gf49", "gf121"])
def test_three_transitivity_holds_on_the_member_codes_past_the_letters(p):
    # the groups are refused on letters, but their members act as PGL(2, 7)
    # and PGL(2, 11) on the p + 1 self-orthogonal points
    config = FieldConfig(p, 2)
    with pytest.raises(ValueError, match="letter-label"):
        enumerate_group(config)
    assert len(groups._group_index(config).codes) == p * (p * p - 1)
    assert groups._sharply_3_transitive(config)
    # the index reads the member codes alone, so it builds past the letters:
    # PGL(2, q) has q + 2 conjugacy classes
    index = groups._group_index(config)
    assert len(index.orders) == p * (p * p - 1)
    assert len(index.classes) == p + 2
    with pytest.raises(ValueError, match="letter-label"):
        enumerate_group(config)


@pytest.mark.parametrize("p", [7, 11], ids=["gf49", "gf121"])
def test_index_tables_match_the_per_member_reference(p):
    # left multiplication and the adjugate inverse on the column path, against
    # each member's residue product, canonical form and code lookup
    config = FieldConfig(p, 2)
    index = groups._group_index(config)
    codes = [residue_code(config, code) for code in index.codes]
    canonical = reference_canonicalizer(config)
    for k, left in zip(index.generators, index.generator_left):
        assert left == reference_permutation(lambda code: reference_mul2(codes[k], code),
                                             codes, canonical)
    adjugate = itemgetter(6, 7, 2, 3, 4, 5, 0, 1)
    negate = (1, 1, -1, -1, -1, -1, 1, 1)
    assert index.inverse == reference_permutation(
        lambda code: list(map(mul, adjugate(code), negate)), codes, canonical)
    identity = codes[index.identity]
    for code, k in zip(codes, index.inverse):
        assert canonical(reference_mul2(code, codes[k])) == identity


# -- conjugation of spin observables ---------------------------------------------

# label -> {source axis: (sign, image axis)}
GF3_CONJUGATION = {
    "e": {1: (1, 1), 3: (1, 3)},
    "(ab)": {1: (1, 1), 3: (-1, 3)},
    "(cd)": {1: (-1, 1), 3: (1, 3)},
    "(ab)(cd)": {1: (-1, 1), 3: (-1, 3)},
    "(ac)(bd)": {1: (1, 3), 3: (1, 1)},
    "(ad)(bc)": {1: (-1, 3), 3: (-1, 1)},
    "(acbd)": {1: (-1, 3), 3: (1, 1)},
    "(adbc)": {1: (1, 3), 3: (-1, 1)},
}

GF9_CONJUGATION_SAMPLES = {
    "(ab)(ce)(df)": {1: (1, 2), 2: (1, 1), 3: (-1, 3)},
    "(cedf)": {1: (1, 2), 2: (-1, 1), 3: (1, 3)},
    "(ade)(bcf)": {1: (-1, 2), 2: (1, 3), 3: (-1, 1)},
    "(ad)(bc)(ef)": {1: (-1, 3), 2: (-1, 2), 3: (-1, 1)},
    "e": {1: (1, 1), 2: (1, 2), 3: (1, 3)},
}


def _conjugation_row(config, g):
    row = {}
    for axis in spin_axes(config):
        c = conjugate_observable(g, spin_observable(config, axis))
        row[axis] = (c.sign, c.axis)
    return row


def test_gf3_conjugation_table_frozen():
    group = enumerate_group(GF3)
    for label, expected in GF3_CONJUGATION.items():
        assert _conjugation_row(GF3, group.by_label[label]) == expected


def test_gf9_conjugation_samples_frozen():
    group = enumerate_group(GF9)
    for label, expected in GF9_CONJUGATION_SAMPLES.items():
        assert _conjugation_row(GF9, group.by_label[label]) == expected


def test_conjugation_permutes_the_axes():
    for config in (GF3, GF9):
        axes = set(spin_axes(config))
        for g in enumerate_group(config).elements:
            row = _conjugation_row(config, g)
            assert {image for _, image in row.values()} == axes


def test_positive_elements_fix_axis_three_setwise():
    # sign +1 elements send sigma_3 to plus or minus itself
    for g in enumerate_group(GF9).elements:
        row = _conjugation_row(GF9, g)
        if g.sign == 1:
            assert row[3][1] == 3
        else:
            assert row[3][1] != 3


# -- actions and orbits -----------------------------------------------------------


def test_act_modes_round_trip():
    group = enumerate_group(GF9)
    g = group.by_label["(cedf)"]
    inv = group_inv(group, g)
    one = named_states(GF9)["c"]
    assert act(inv, act(g, one)).rep.components == one.rep.components
    pair = representative_states(GF9)["T"]
    for mode in ("global", "local_1", "local_2"):
        image = act(g, pair, mode=mode)
        back = act(inv, image, mode=mode)
        assert back.state.rep.components == pair.state.rep.components


@pytest.mark.parametrize("config", [GF3, GF9], ids=["gf3", "gf9"])
def test_act_matches_the_kronecker_reference(config):
    # reference: the 4x4 Kronecker matrix applied to the four amplitudes
    eye = identity_matrix(config, 2)
    states = two_particle_states(config)
    for g in enumerate_group(config).elements:
        for mode, matrix in (
            ("global", kron(g.matrix, g.matrix)),
            ("local_1", kron(g.matrix, eye)),
            ("local_2", kron(eye, g.matrix)),
        ):
            for state in states:
                expected = classify(canonicalize(mat_vec(matrix, state.state.rep)))
                assert act(g, state, mode=mode) == expected


def test_act_rejects_bad_mode_and_shape():
    pair = representative_states(GF3)["S"]
    with pytest.raises(ValueError):
        act(enumerate_group(GF3).identity, pair, mode="sideways")
    with pytest.raises(ValueError):
        act(enumerate_group(GF3).identity, pair, mode="single")
    with pytest.raises(ValueError):
        act(enumerate_group(GF3).identity, named_states(GF3)["a"], mode="global")


def test_global_action_fixes_the_singlet():
    for config in (GF3, GF9):
        singlet = representative_states(config)["S"]
        for g in enumerate_group(config).elements:
            image = act(g, singlet, mode="global")
            assert image.state.rep.components == singlet.state.rep.components


def _code(state):
    """A two-particle state's element-index code."""
    return index_code(state.config, flat_residues(state.state.rep.components))


@cache
def _rows_by_code(config):
    """Each ``two_particle_codes`` row, by its element-index code."""
    return {code: r for r, (code, _) in enumerate(reference_indices(config, 4))}


def _row(state):
    """A two-particle state's row in ``two_particle_codes``, by lookup."""
    return _rows_by_code(state.config)[_code(state)]


def _objects(config, rows):
    """The ``two_particle_states`` objects of code-table rows, in order."""
    states = two_particle_states(config)
    return [states[r] for r in rows]


def _subset_table(config, subset):
    """The field's table ("entangled"), or one built on the code-table rows
    of the physical product states ("products")."""
    if subset == "entangled":
        return groups._action_table(config)
    kinds = two_particle_codes(config)[2]
    products = [r for r, kind in enumerate(kinds) if kind == PRODUCT | PHYSICAL]
    return groups._ActionTable(config, products)


def _use_table(monkeypatch, table):
    """Run orbits and burnside_count on table instead of the field's own."""
    monkeypatch.setattr(groups, "_action_table", lambda config: table)


def test_action_table_escape_raises():
    # a restricted row set must be closed under both one-sided actions
    singlet = _row(representative_states(GF3)["S"])
    with pytest.raises(ValueError, match="escapes"):
        groups._ActionTable(GF3, (singlet,))


def test_action_table_escape_raises_for_a_global_orbit():
    # a global orbit is closed under the global action but under neither
    # side alone, and the table checks closure under one-sided generators
    group = enumerate_group(GF9)
    for orbit in orbits(GF9, "global"):
        members = _objects(GF9, orbit.members)
        for g in group.elements:
            assert {_row(act(g, m, mode="global")) for m in members} == set(orbit.members)
        with pytest.raises(ValueError, match="escapes"):
            groups._ActionTable(GF9, orbit.members)


@pytest.mark.parametrize("config", [GF3, GF9], ids=["gf3", "gf9"])
def test_orbits_of_the_physical_product_states(config, monkeypatch):
    # unlike entangled states, product states have nontrivial one-sided
    # stabilizers, so the local stabilizer count sees products of them
    table = _subset_table(config, "products")
    _use_table(monkeypatch, table)
    order = enumerate_group(config).order
    (orbit,) = orbits(config, "local")
    assert orbit.size == len(table.rows)
    assert orbit.stabilizer_order == order * order // len(table.rows)
    assert orbit.representative == _objects(config, table.rows[:1])[0]
    assert orbit.representative.is_product
    for mode in ("global", "local"):
        assert burnside_count(config, mode) == len(orbits(config, mode))


@cache
def _positions(table):
    return {row: k for k, row in enumerate(table.rows)}


def _index_of(table, state):
    """A state's position in the table, by its row."""
    return _positions(table)[_row(state)]


@pytest.mark.parametrize(
    "config", [GF3, GF7, GF9, GF11], ids=["gf3", "gf7", "gf9", "gf11"]
)
def test_generator_built_table_matches_per_element_reference(config):
    # each state's image under every element, composed from the generator
    # rows along the Cayley tree, against act() for that element and state
    table = groups._action_table(config)
    index = table.index
    assert len(index.generators) <= 4
    elements = enumerate_group(config).elements
    for side, mode in enumerate(("local_1", "local_2")):
        rows = [sides[side] for sides in table.generator_sides]
        for i, state in enumerate(_objects(config, table.rows)):
            expected = [_index_of(table, act(g, state, mode)) for g in elements]
            assert index.images(i, rows) == expected


@pytest.mark.parametrize("subset", ["entangled", "products"])
@pytest.mark.parametrize(
    "config", [GF3, GF7, GF9, GF11, GF19], ids=["gf3", "gf7", "gf9", "gf11", "gf19"]
)
def test_residue_generator_rows_match_object_act(config, subset):
    # the rows applied on residue codes, against act() on the state objects
    table = _subset_table(config, subset)
    states = _objects(config, table.rows)
    gens = [enumerate_group(config).elements[k] for k in table.index.generators]
    for g, (side1, side2) in zip(gens, table.generator_sides):
        for mode, row in (("local_1", side1), ("local_2", side2)):
            assert row == tuple(_index_of(table, act(g, s, mode)) for s in states)


@pytest.mark.parametrize(
    "config", [GF3, GF7, GF9, GF11, GF19], ids=["gf3", "gf7", "gf9", "gf11", "gf19"]
)
def test_element_index_words_match_group_multiplication(config):
    table = groups._action_table(config)
    index = table.index
    group = enumerate_group(config)
    elements = group.elements
    gens = [elements[k] for k in index.generators]
    for g, left in zip(gens, index.generator_left):
        assert [elements[j] for j in left] == [group_mul(group, g, h) for h in elements]
    for g, k in zip(elements, index.inverse):
        assert group_mul(group, g, elements[k]) is group.identity


@pytest.mark.parametrize("config", [GF3, GF7, GF9], ids=["gf3", "gf7", "gf9"])
def test_composed_rows_match_group_multiplication_and_act(config):
    # each element's row, composed from the generator rows along its tree
    # path: on element indices against group_mul, on states against act()
    index = groups._group_index(config)
    table = groups._action_table(config)
    group = enumerate_group(config)
    elements = group.elements
    states = _objects(config, table.rows)
    side1 = [s1 for s1, _ in table.generator_sides]
    for x, g in enumerate(elements):
        left = index.compose(x, index.generator_left)
        assert [elements[j] for j in left] == [group_mul(group, g, h) for h in elements]
        expected = [_index_of(table, act(g, state, "local_1")) for state in states]
        assert index.compose(x, side1) == expected


def test_column_rows_match_the_per_state_reference_past_the_letters():
    # GF(49)'s entangled physical states under the generators of its index:
    # side 1 is M psi and side 2 is psi M^T, each a residue product here
    config = GF49
    kinds = two_particle_codes(config)[2]
    rows = [r for r, kind in enumerate(kinds) if kind == PHYSICAL]
    codes = [code for (code, _), kind in zip(reference_residues(config, 4), kinds)
             if kind == PHYSICAL]
    table = groups._ActionTable(config, rows)
    members = [residue_code(config, code) for code in groups._group_index(config).codes]
    canonical = reference_canonicalizer(config)
    transpose = itemgetter(0, 1, 4, 5, 2, 3, 6, 7)
    assert len(table.generator_sides) == len(table.index.generators) > 0
    for k, (side1, side2) in zip(table.index.generators, table.generator_sides):
        m, mt = members[k], transpose(members[k])
        for row, step in ((side1, lambda code: reference_mul2(m, code)),
                          (side2, lambda code: reference_mul2(code, mt))):
            assert row == reference_permutation(step, codes, canonical)


def test_orbits_on_a_closed_subset(monkeypatch):
    # the 24-state local orbit over GF(9) is closed, so restriction works
    closed = next(o for o in orbits(GF9, "local") if o.size == 24).members
    _use_table(monkeypatch, groups._ActionTable(GF9, closed))
    within = orbits(GF9, "global")
    assert sum(o.size for o in within) == 24
    assert burnside_count(GF9, "global") == len(within)


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("config", [GF3, GF7, GF9], ids=["gf3", "gf7", "gf9"])
def test_orbit_members_are_the_entangled_physical_rows(config, mode):
    # members are ascending code-table rows whose kind byte is PHYSICAL
    # alone, the orbits partition those rows, and the representative is the
    # state object of the least one
    kinds = two_particle_codes(config)[2]
    states = two_particle_states(config)
    found = orbits(config, mode)
    for orbit in found:
        assert list(orbit.members) == sorted(orbit.members)
        assert all(kinds[r] == PHYSICAL for r in orbit.members)
        assert orbit.representative == states[orbit.members[0]]
    assert groups.state_rows(config, [o.representative for o in found]) == [
        o.members[0] for o in found]
    rows = sorted(r for orbit in found for r in orbit.members)
    assert rows == [r for r, kind in enumerate(kinds) if kind == PHYSICAL]


def test_gf3_global_orbits_frozen():
    labels = entangled_labels(GF3)
    rep_of = {_row(state): label for label, state in labels.items()}
    got = {
        frozenset(rep_of[m] for m in orbit.members): orbit.stabilizer_order
        for orbit in orbits(GF3, "global")
    }
    assert got == {
        frozenset({"S"}): 8,
        frozenset({"(ab)(cd)"}): 8,
        frozenset({"(ab)", "(cd)"}): 4,
        frozenset({"(ac)(bd)", "(ad)(bc)"}): 4,
        frozenset({"(acbd)", "(adbc)"}): 4,
    }
    for orbit in orbits(GF3, "global"):
        assert orbit.acting_order == 8
        assert orbit.stabilizer_order * orbit.size == orbit.acting_order


def test_gf3_local_orbit_is_everything():
    out = orbits(GF3, "local")
    assert len(out) == 1
    assert out[0].size == 8
    assert out[0].stabilizer_order == 8
    assert out[0].acting_order == 64


def test_gf9_global_orbit_profile():
    sizes = {}
    for orbit in orbits(GF9, "global"):
        sizes[orbit.size] = sizes.get(orbit.size, 0) + 1
        assert orbit.acting_order == 24
        assert orbit.stabilizer_order * orbit.size == 24
    assert sizes == {24: 17, 12: 4, 8: 4, 6: 2, 3: 1, 1: 1}
    assert sum(size * count for size, count in sizes.items()) == 504


def test_gf9_local_orbits_frozen():
    out = orbits(GF9, "local")
    reps = representative_states(GF9)
    by_size = {orbit.size: orbit for orbit in out}
    assert set(by_size) == {24, 192, 288}
    assert by_size[24].stabilizer_order == 24
    assert by_size[192].stabilizer_order == 3
    assert by_size[288].stabilizer_order == 2
    for orbit in out:
        assert orbit.acting_order == 576
    assert _row(reps["S"]) in by_size[24].members
    assert _row(reps["T"]) in by_size[192].members
    assert _row(reps["U"]) in by_size[288].members


@pytest.mark.parametrize(
    "config,mode",
    [
        (GF3, "global"),
        (GF3, "local"),
        (GF9, "global"),
        (GF9, "local"),
        (GF7, "global"),
        (GF7, "local"),
        (GF11, "global"),
        (GF11, "local"),
        (GF19, "global"),
        (GF19, "local"),
        (GF23, "global"),
        (GF23, "local"),
    ],
)
def test_burnside_agrees_with_direct_orbit_count(config, mode):
    assert burnside_count(config, mode) == len(orbits(config, mode))


def reference_burnside_count(table, mode):
    # the per-state sum: every state's stabilizer order, walked along the tree
    perms = _generator_permutations(table, mode)
    total = sum(_stabilizer_order(table, mode, perms, i) for i in range(len(table.rows)))
    count, rest = divmod(total, _acting_order(table, mode))
    assert rest == 0
    return count


@pytest.mark.parametrize("subset", ["entangled", "products"])
@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("config", FIELDS, ids=FIELD_IDS)
def test_burnside_class_sum_matches_the_per_state_sum(config, mode, subset, monkeypatch):
    table = _subset_table(config, subset)
    _use_table(monkeypatch, table)
    assert burnside_count(config, mode) == reference_burnside_count(table, mode)


def reference_class_pair_count(table):
    # the local sum over pairs of classes: (a, b) fixes i exactly when
    # side1_a[i] = side2_b^-1[i]
    index = table.index
    perms = _generator_permutations(table, "local")
    n = len(index.generators)
    back2 = [(len(c), index.compose(index.inverse[c[0]], perms[n:])) for c in index.classes]
    total = 0
    for c in index.classes:
        row1 = index.compose(c[0], perms[:n])
        total += len(c) * sum(size * sum(map(eq, row1, row2)) for size, row2 in back2)
    count, rest = divmod(total, _acting_order(table, "local"))
    assert rest == 0
    return count


@pytest.mark.parametrize("subset", ["entangled", "products"])
@pytest.mark.parametrize("config", FIELDS, ids=FIELD_IDS)
def test_local_burnside_matches_the_class_pair_sum(config, subset, monkeypatch):
    table = _subset_table(config, subset)
    _use_table(monkeypatch, table)
    assert burnside_count(config, "local") == reference_class_pair_count(table)


@pytest.mark.parametrize("count", [burnside_count, orbits], ids=["burnside", "orbits"])
def test_unknown_orbit_mode_raises(count):
    with pytest.raises(ValueError, match="orbit mode"):
        count(GF3, "sideways")


def _local_stabilizer_pairs(label):
    reps = representative_states(GF9)
    state = reps[label]
    group = enumerate_group(GF9)
    fixed = set()
    target = state.state.rep.components
    for g1 in group.elements:
        moved = act(g1, state, mode="local_1")
        for g2 in group.elements:
            image = act(g2, moved, mode="local_2")
            if image.state.rep.components == target:
                fixed.add((g1.label, g2.label))
    return fixed


def test_local_orbit_stabilizers_of_t_and_u_match_the_fixing_pairs():
    orbit_of = {m: o for o in orbits(GF9, "local") for m in o.members}
    reps = representative_states(GF9)
    for label, count in (("T", 3), ("U", 2)):
        pairs = _local_stabilizer_pairs(label)
        assert len(pairs) == count
        assert orbit_of[_row(reps[label])].stabilizer_order == len(pairs)


def test_gf3_stabilizer_orders_match_the_fixing_elements():
    # every entangled state's stabilizer, read from the tree-walked images,
    # against the elements (global) and pairs (local) that act() finds fixing it
    table = groups._action_table(GF3)
    elements = enumerate_group(GF3).elements
    global_perms = _generator_permutations(table, "global")
    local_perms = _generator_permutations(table, "local")
    for i, state in enumerate(_objects(GF3, table.rows)):
        fixing = [g for g in elements if _index_of(table, act(g, state, "global")) == i]
        assert _stabilizer_order(table, "global", global_perms, i) == len(fixing)
        fixing_pairs = [
            (g1, g2)
            for g1 in elements
            for g2 in elements
            if _index_of(table, act(g2, act(g1, state, "local_1"), "local_2")) == i
        ]
        assert _stabilizer_order(table, "local", local_perms, i) == len(fixing_pairs)


def test_local_stabilizers_of_t_and_u_frozen():
    assert _local_stabilizer_pairs("T") == {
        ("e", "e"),
        ("(adf)(bce)", "(afc)(bed)"),
        ("(afd)(bec)", "(acf)(bde)"),
    }
    assert _local_stabilizer_pairs("U") == {
        ("e", "e"),
        ("(ad)(bc)(ef)", "(ab)(ce)(df)"),
    }


# -- local equivalence and entangled-state labels ----------------------------------


GF3_ENTANGLED_LABELS = {
    "S": [0, 1, -1, 0],
    "(ab)": [1, 0, 0, -1],
    "(cd)": [0, 1, 1, 0],
    "(ab)(cd)": [1, 0, 0, 1],
    "(ac)(bd)": [1, -1, -1, -1],
    "(ad)(bc)": [1, 1, 1, -1],
    "(acbd)": [1, -1, 1, 1],
    "(adbc)": [1, 1, -1, 1],
}


def test_entangled_labels_frozen():
    labels = entangled_labels(GF3)
    assert set(labels) == set(GF3_ENTANGLED_LABELS)
    for name, entries in GF3_ENTANGLED_LABELS.items():
        expected = StateVector.make(GF3, entries)
        assert labels[name].state.rep.components == expected.components


def test_entangled_labels_replay_the_defining_relation():
    # the state labeled g satisfies (g tensor 1) state = S
    group = enumerate_group(GF3)
    labels = entangled_labels(GF3)
    singlet = labels["S"].state.rep.components
    for name, state in labels.items():
        g = group.identity if name == "S" else group.by_label[name]
        assert act(g, state, mode="local_1").state.rep.components == singlet


def test_entangled_labels_need_a_free_covering_action():
    with pytest.raises(ValueError):
        entangled_labels(GF9)


@pytest.mark.parametrize(
    "config", [GF3, GF7, GF9, GF11], ids=["gf3", "gf7", "gf9", "gf11"]
)
def test_find_local_transform_round_trip(config):
    # states in a representative's local orbit map back onto it; the other
    # entangled physical states belong to no representative and are refused
    rep_labels = {_row(rep): label for label, rep in representative_states(config).items()}
    label_of = {}
    covered = 0
    for orbit in orbits(config, "local"):
        labels = [rep_labels[m] for m in orbit.members if m in rep_labels]
        if labels:
            (label,) = labels
            label_of.update((m, label) for m in orbit.members)
            covered += orbit.size
    round_trips = 0
    for state in two_particle_states(config):
        if not state.physical or state.is_product:
            continue
        if _row(state) not in label_of:
            with pytest.raises(ValueError):
                find_local_transform(state)
            continue
        move = find_local_transform(state)
        assert move.representative_label == label_of[_row(state)]
        image = act(move.g2, act(move.g1, state, mode="local_1"), mode="local_2")
        assert (
            image.state.rep.components
            == move.representative.state.rep.components
        )
        round_trips += 1
    assert round_trips == covered


def _reference_reach(config):
    """The local-transform words multiplied out as group elements: for each
    state index reached from a representative, (label, A, B) with state =
    (A tensor B) rep."""
    table = groups._action_table(config)
    group = enumerate_group(config)
    gens = [group.elements[k] for k in table.index.generators]
    perms = _generator_permutations(table, "local")
    reach = {}
    for label, rep in representative_states(config).items():
        start = _index_of(table, rep)
        if start in reach:
            continue
        reach[start] = (label, group.identity, group.identity)
        for j, k, i in _walk(start, perms):
            _, acc1, acc2 = reach[i]
            if k < len(gens):
                reach[j] = (label, group_mul(group, gens[k], acc1), acc2)
            else:
                reach[j] = (label, acc1, group_mul(group, gens[k - len(gens)], acc2))
    return reach


@pytest.mark.parametrize(
    "config", [GF3, GF7, GF9, GF11], ids=["gf3", "gf7", "gf9", "gf11"]
)
def test_find_local_transform_matches_the_element_walk(config):
    table = groups._action_table(config)
    group = enumerate_group(config)
    reach = _reference_reach(config)
    states = _objects(config, table.rows)
    assert sorted(_code(states[i]) for i in reach) == sorted(_local_reach(config))
    for i, state in enumerate(states):
        if i not in reach:
            with pytest.raises(ValueError, match="not locally equivalent"):
                find_local_transform(state)
            continue
        label, a, b = reach[i]
        move = find_local_transform(state)
        assert move.g1 is group_inv(group, a) and move.g2 is group_inv(group, b)
        assert move.representative_label == label


def _counting(calls, name, func):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)
    return wrapper


def _count_act_calls(monkeypatch):
    # the object group products are the helpers above; the group itself
    # offers none for a fast path to fall back on.  act and the object
    # images it is made of (mat_vec, canonicalize) are counted
    for name in ("mul", "inv", "lookup"):
        assert not hasattr(ProjectiveGroup, name)
    calls = Counter()
    for name in ("act", "mat_vec", "canonicalize"):
        monkeypatch.setattr(groups, name, _counting(calls, name, getattr(groups, name)))
    return calls


@pytest.mark.parametrize("config", [FieldConfig(7, 1), FieldConfig(3, 2)], ids=["gf7", "gf9"])
def test_table_and_words_run_without_object_group_calls(config, monkeypatch):
    # a fresh table and word walk, then 50 transforms (GF(7) has only S's
    # orbit of 16 to draw from): the inverse index comes from the adjugate
    # codes, and act never runs
    calls = _count_act_calls(monkeypatch)
    groups._group_index.cache_clear()
    groups._action_table.cache_clear()
    _local_reach.cache_clear()
    states = {_code(s): s for s in _objects(config, groups._action_table(config).rows)}
    reach = _local_reach(config)
    for code in islice(cycle(sorted(reach)), 50):
        find_local_transform(states[code])
    assert calls == Counter()


def test_find_local_transform_frozen_chains():
    labels = entangled_labels(GF3)
    move = find_local_transform(labels["(ab)"])
    assert (move.g1.label, move.g2.label) == ("(ab)", "e")
    for name in ("(cd)", "(acbd)"):
        move = find_local_transform(labels[name])
        image = act(
            move.g2, act(move.g1, labels[name], mode="local_1"), mode="local_2"
        )
        assert image.state.rep.components == labels["S"].state.rep.components


def test_find_local_transform_rejects_product_states():
    # a product state, and an entangled state of norm zero (kind byte 0)
    pair = from_product(
        StateVector.make(GF3, [1, 0]), StateVector.make(GF3, [0, 1])
    )
    self_orthogonal = two_particle_states(GF3)[two_particle_codes(GF3)[2].index(0)]
    assert not self_orthogonal.is_product and not self_orthogonal.physical
    for state in (pair, self_orthogonal):
        with pytest.raises(ValueError, match="not an entangled physical state"):
            find_local_transform(state)


@pytest.mark.parametrize("config", [GF3, GF7, GF9], ids=["gf3", "gf7", "gf9"])
def test_classes_and_burnside_run_without_object_group_products(config, monkeypatch):
    # from fresh caches the group, its index, the action table, the classes,
    # the element orders, both Burnside sums, the orbits and the local words
    # come from the members' codes, the code table and the index tables: no
    # object image is made, no two-particle state list is built, and a state
    # object is made only for each orbit's representative
    calls = _count_act_calls(monkeypatch)
    for module in (groups, entangle):
        monkeypatch.setattr(module, "residue_state",
                            _counting(calls, "residue_state", module.residue_state))
    for cached in (enumerate_group, groups._group_index,
                   groups._action_table, _local_reach, two_particle_codes,
                   two_particle_states):
        cached.cache_clear()
    group = enumerate_group(config)
    groups._group_index(config)
    groups._action_table(config)
    assert calls == Counter()
    conjugacy_classes(group)
    verify_isomorphism(group)
    found = 0
    for mode in ("global", "local"):
        burnside_count(config, mode)
        found += len(orbits(config, mode))
    _local_reach(config)
    assert calls == Counter(residue_state=found)
    assert two_particle_states.cache_info().misses == 0


def test_orbits_and_burnside_read_only_the_group_index(monkeypatch):
    # from fresh caches, the orbit path builds no labelled object group
    configs = [GF7, GF9, GF23]
    expected = [(mode, len(orbits(c, mode)), burnside_count(c, mode))
                for c in configs for mode in ("global", "local")]

    def unreachable(config):
        raise AssertionError("the object group was built")

    groups._group_index.cache_clear()
    groups._action_table.cache_clear()
    monkeypatch.setattr(groups, "enumerate_group", unreachable)
    assert [(mode, len(orbits(c, mode)), burnside_count(c, mode))
            for c in configs for mode in ("global", "local")] == expected


@pytest.mark.parametrize("config", [GF49, FieldConfig(83, 1)], ids=["gf49", "gf83"])
def test_orbits_refuse_past_the_letters_before_the_code_table(config, monkeypatch):
    def unreachable(config):
        raise AssertionError("the code table was built")

    monkeypatch.setattr(groups, "two_particle_codes", unreachable)
    with pytest.raises(ValueError, match="too many one-particle states to letter-label"):
        orbits(config, "local")
