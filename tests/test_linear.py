"""State vectors, the sesquilinear pairing, duals, and matrix helpers."""

import random
from itertools import product

import pytest

from bioqm import (
    FieldConfig,
    StateVector,
    bracket,
    canonicalize,
    conjugate_dual,
    dot,
    enumerate_projective,
    is_self_orthogonal,
)
from bioqm.biortho import spin_axes, spin_observable
from bioqm.entangle import product_spin
from bioqm.linear import (
    DualVector,
    ProjectiveState,
    det2,
    identity_matrix,
    inverse2,
    kron,
    mat_mul,
    mat_vec,
    matrix_make,
    projective_columns,
)

GF3 = FieldConfig(3, 1)
GF9 = FieldConfig(3, 2)
GF7 = FieldConfig(7, 1)
GF11 = FieldConfig(11, 1)


def vec(config, entries):
    return StateVector.make(config, entries)


def test_make_and_str():
    v = vec(GF3, [0, 1, -1, 0])
    assert v.dim == 4
    assert str(v) == "[0, 1, -1, 0]"
    assert v[1] == GF3.one()
    w = vec(GF9, [(1, 1), 0])
    assert str(w) == "[1+i, 0]"


def test_zero_vector_flag():
    assert vec(GF3, [0, 0]).is_zero
    assert not vec(GF3, [0, 1]).is_zero


def test_dot_conjugates_the_left_slot():
    c = vec(GF9, [1, 1])
    e = vec(GF9, [1, (0, 1)])
    # dot(a, b) = sum frob(a_k) b_k, so dot(e, e) = 1 + (-i)(i) = 2 = -1
    assert dot(e, e) == GF9.element(-1)
    assert dot(c, c) == GF9.element(-1)
    assert dot(c, e) == GF9.element(1, 1)
    assert dot(e, c) == GF9.element(1, 2)  # conjugate of dot(c, e)


def test_frozen_norms():
    c3 = vec(GF3, [1, 1])
    assert dot(c3, c3) == GF3.element(-1)
    t = vec(GF9, [1, 0, (1, 1), 1])
    assert dot(t, t) == GF9.one()


def test_self_orthogonal_detection():
    s = vec(GF9, [1, (0, 1)])  # 1 + (-i)(i) = 2, not zero
    assert not is_self_orthogonal(s)
    w = vec(GF9, [1, 1, 1, 0])  # norm 3 = 0
    assert is_self_orthogonal(w)
    with pytest.raises(ValueError):
        is_self_orthogonal(vec(GF3, [0, 0]))


def test_conjugate_duals_frozen():
    cases = [
        (GF3, [1, 1], [-1, -1]),
        (GF3, [1, -1], [-1, 1]),
        (GF9, [1, (0, 1)], [-1, (0, 1)]),
        (GF9, [1, (0, 2)], [-1, (0, 2)]),
        (GF3, [0, 1, -1, 0], [0, -1, 1, 0]),
        (GF9, [1, 0, (1, 1), 1], [1, 0, (1, 2), 1]),
        (GF9, [1, 0, 1, (1, 1)], [1, 0, 1, (1, 2)]),
    ]
    for config, ket, bra in cases:
        dual = conjugate_dual(vec(config, ket))
        assert dual.components == vec(config, bra).components


def test_dual_pairing_is_normalized():
    for entries in ([1, 1], [1, -1], [1, 0], [0, 1]):
        v = vec(GF3, entries)
        assert conjugate_dual(v).pairing(v) == GF3.one()


def test_kets_and_bras_are_rows_of_their_own_kind():
    ket = vec(GF9, [1, (0, 1)])
    bra = DualVector(ket.components, GF9)
    assert (bra.dim, bra[1], str(bra)) == (ket.dim, ket[1], str(ket))
    assert (ket.dim, ket[1], str(ket)) == (2, GF9.element(0, 1), "[1, i]")
    assert ket != bra and bra != ket
    assert repr(ket).startswith("StateVector(") and repr(bra).startswith("DualVector(")
    for row in (ket, bra):
        with pytest.raises(AttributeError, match="is immutable"):
            row.note = "a frozen row takes no new attribute"
    for row in (StateVector, DualVector):
        with pytest.raises(ValueError, match="a vector needs at least one component"):
            row((), GF9)


def test_conjugate_dual_rejects_self_orthogonal():
    with pytest.raises(ValueError):
        conjugate_dual(vec(GF9, [1, 1, 1, 0]))


def test_canonicalize_scales_first_nonzero_to_one():
    p = canonicalize(vec(GF3, [0, -1, 1, 0]))
    assert str(p.rep) == "[0, 1, -1, 0]"
    q = canonicalize(vec(GF9, [(0, 1), -1]))
    assert str(q.rep) == "[1, i]"


def test_canonicalize_identifies_scalar_multiples():
    v = vec(GF9, [1, (1, 1), 0, (0, 2)])
    for scalar in GF9.elements():
        if scalar.is_zero:
            continue
        assert canonicalize(v.scale(scalar)).rep.components == canonicalize(v).rep.components


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize(vec(GF3, [0, 0]))


def _projective_count(q, n):
    return (q**n - 1) // (q - 1)


@pytest.mark.parametrize(
    "config,dim,count",
    [(GF3, 2, 4), (GF9, 2, 10), (GF3, 4, 40), (GF9, 4, 820), (GF7, 2, 8)],
)
def test_projective_counts(config, dim, count):
    states = enumerate_projective(config, dim)
    assert len(states) == count
    assert count == _projective_count(config.order, dim)
    reps = {s.rep.components for s in states}
    assert len(reps) == count


def test_projective_enumeration_matches_raw_dedupe():
    # independent oracle: canonicalize every nonzero raw vector and dedupe
    seen = {}
    for entries in product(range(3), repeat=2):
        if entries == (0, 0):
            continue
        state = canonicalize(vec(GF3, entries))
        seen[state.rep.components] = state.self_orthogonal
    listed = enumerate_projective(GF3, 2)
    assert {s.rep.components: s.self_orthogonal for s in listed} == seen


def test_projective_enumeration_is_deterministic():
    a = [s.rep.components for s in enumerate_projective(GF9, 2)]
    b = [s.rep.components for s in enumerate_projective(GF9, 2)]
    assert a == b
    assert a == sorted(a, key=lambda es: tuple((e.re, e.im) for e in es))


def test_physical_flag_tracks_self_orthogonality():
    for state in enumerate_projective(GF9, 2):
        assert state.physical == (not state.self_orthogonal)
        assert state.self_orthogonal == is_self_orthogonal(state.rep)


def test_enumeration_guard_trips():
    with pytest.raises(ValueError):
        enumerate_projective(GF3, 17)  # 3^17 > 10^8
    with pytest.raises(ValueError):
        projective_columns(GF3, 17)  # refused before any column is built


def reference_projective(config, dim):
    """The object enumerator: a leading 1 after zeros, then every tail of
    field elements, each vector's self-orthogonality taken from ``dot``."""
    zero, one = config.zero(), config.one()
    states = []
    for pivot in range(dim - 1, -1, -1):
        prefix = (zero,) * pivot + (one,)
        for tail in product(config.elements(), repeat=dim - 1 - pivot):
            v = StateVector(prefix + tail, config)
            states.append(ProjectiveState(rep=v, self_orthogonal=is_self_orthogonal(v)))
    return states


def reference_residues(config, dim):
    """The per-state residue enumerator: each canonical representative as a
    flat (re, im, ...) residue tuple v with its norm dot(v, v) mod p, one
    state at a time, in the order of ``reference_projective``."""
    p = config.p
    ims = range(p) if config.is_extension else (0,)
    components = [((re, im), re * re + im * im) for re in range(p) for im in ims]
    # tails[k] holds every k-component tail with its unreduced norm
    tails = [[((), 0)]]
    for _ in range(dim - 2):
        tails.append([(c + t, cn + n) for c, cn in components for t, n in tails[-1]])
    yield (0, 0) * (dim - 1) + (1, 0), 1
    for pivot in range(dim - 2, -1, -1):
        prefix, walked = (0, 0) * pivot + (1, 0), tails[dim - 2 - pivot]
        for c, cn in components:
            for t, n in walked:
                yield prefix + c + t, (1 + cn + n) % p


def index_code(config, flat):
    """The element indices re * w + im of flat (re, im, ...) residues, with
    w = p over GF(p^2) and 1 over GF(p)."""
    w = config.p if config.is_extension else 1
    return tuple(re * w + im for re, im in zip(flat[::2], flat[1::2]))


def residue_code(config, code):
    """The flat (re, im, ...) residues of element indices: ``index_code`` undone."""
    w = config.p if config.is_extension else 1
    return tuple(part for e in code for part in divmod(e, w))


def reference_indices(config, dim):
    """The rows of ``reference_residues`` with each component as its index."""
    return [(index_code(config, v), norm) for v, norm in reference_residues(config, dim)]


def column_rows(config, dim):
    """The rows (v, norm) of ``projective_columns``, every column checked to
    have one entry per state."""
    columns, norms = projective_columns(config, dim)
    assert len(columns) == dim
    assert {len(column) for column in columns} == {len(norms)}
    return list(zip(zip(*columns), norms))


REFERENCE_FIELDS = [GF3, GF7, GF9, GF11]
GF263 = FieldConfig(263, 1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("config", REFERENCE_FIELDS, ids=["gf3", "gf7", "gf9", "gf11"])
def test_enumeration_matches_object_reference(config, dim):
    reference = reference_projective(config, dim)
    assert enumerate_projective(config, dim) == reference
    residues = [
        (tuple(part for x in s.rep.components for part in (x.re, x.im)), dot(s.rep, s.rep).re)
        for s in reference
    ]
    assert list(reference_residues(config, dim)) == residues
    assert column_rows(config, dim) == [(index_code(config, v), norm) for v, norm in residues]


def test_wide_residue_columns_match_the_references():
    # indices past 255 need two bytes per entry, GF(19^2)'s 361 among them
    # although each of its residues fits in a byte
    reference = reference_projective(GF263, 2)
    assert enumerate_projective(GF263, 2) == reference
    assert column_rows(GF263, 2) == [
        (tuple(x.re for x in s.rep.components), dot(s.rep, s.rep).re) for s in reference
    ]
    assert column_rows(GF263, 3) == reference_indices(GF263, 3)
    wide, gf361 = FieldConfig(9967, 1), FieldConfig(19, 2)
    for config in (wide, gf361):
        assert column_rows(config, 2) == reference_indices(config, 2)
        assert {column.itemsize for column in projective_columns(config, 2)[0]} == {2}
    assert enumerate_projective(gf361, 2) == reference_projective(gf361, 2)


def test_tensor_is_row_major():
    a = vec(GF3, [1, 0])
    b = vec(GF3, [0, 1])
    assert str(a.tensor(b)) == "[0, 1, 0, 0]"
    assert str(b.tensor(a)) == "[0, 0, 1, 0]"
    ab, ba = a.tensor(b).components, b.tensor(a).components
    singlet = StateVector(tuple(x - y for x, y in zip(ab, ba)), GF3)
    assert str(singlet) == "[0, 1, -1, 0]"


# -- matrices -------------------------------------------------------------------


def M(config, rows):
    return matrix_make(config, rows)


def test_identity_and_mat_vec():
    ident = identity_matrix(GF3, 2)
    v = vec(GF3, [1, -1])
    assert mat_vec(ident, v).components == v.components


def test_mat_mul_against_by_hand_product():
    a = M(GF3, [[1, 1], [0, 1]])
    b = M(GF3, [[1, 0], [1, 1]])
    assert mat_mul(a, b) == M(GF3, [[-1, 1], [1, 1]])


def test_kron_frozen():
    sigma1 = M(GF3, [[0, 1], [1, 0]])
    sigma3 = M(GF3, [[1, 0], [0, -1]])
    product_matrix = kron(sigma1, sigma3)
    assert product_matrix == M(
        GF3,
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
    )


def test_kron_respects_tensor_of_vectors():
    a = vec(GF9, [1, (1, 1)])
    b = vec(GF9, [(0, 1), -1])
    m1 = M(GF9, [[1, (0, 1)], [0, 1]])
    m2 = M(GF9, [[1, 1], [(1, 2), 0]])
    left = mat_vec(kron(m1, m2), a.tensor(b))
    right = mat_vec(m1, a).tensor(mat_vec(m2, b))
    assert left.components == right.components


def test_det2_and_inverse2_exhaustive_over_gf3():
    entries = list(GF3.elements())
    ident = identity_matrix(GF3, 2)
    invertible = 0
    for quad in product(entries, repeat=4):
        m = ((quad[0], quad[1]), (quad[2], quad[3]))
        d = det2(m)
        if d.is_zero:
            with pytest.raises(ZeroDivisionError):
                inverse2(m)
        else:
            invertible += 1
            assert mat_mul(m, inverse2(m)) == ident
            assert mat_mul(inverse2(m), m) == ident
    assert invertible == 48  # |GL(2, 3)|


# -- the fused integer kernels against element-by-element references -------------
#
# The references are the per-element loops the kernels replaced: every step is
# one FieldElement operation, reduced and checked on its own.


def _ref_dot(a, b):
    total = a.config.zero()
    for x, y in zip(a.components, b.components):
        total = total + x.frobenius() * y
    return total


def _ref_pairing(dual, v):
    total = dual.config.zero()
    for d, c in zip(dual.components, v.components):
        total = total + d * c
    return total


def _ref_conjugate_dual(v):
    inv = _ref_dot(v, v).inverse()
    return DualVector(tuple(c.frobenius() * inv for c in v.components), v.config)


def _ref_mat_vec(m, v):
    out = []
    for row in m:
        acc = v.config.zero()
        for entry, comp in zip(row, v.components):
            acc = acc + entry * comp
        out.append(acc)
    return StateVector(tuple(out), v.config)


def _ref_mat_mul(a, b):
    zero = a[0][0].config.zero()
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(len(b))), zero) for c in range(len(b[0])))
        for r in range(len(a))
    )


def _ref_kron(a, b):
    return tuple(
        tuple(a[ra][ca] * b[rb][cb] for ca in range(len(a[0])) for cb in range(len(b[0])))
        for ra in range(len(a))
        for rb in range(len(b))
    )


def _ref_det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _check_kernels(vectors, matrices):
    config = vectors[0].config
    for u in vectors:
        dual = None if _ref_dot(u, u).is_zero else _ref_conjugate_dual(u)
        if dual is not None:
            assert conjugate_dual(u).components == dual.components
        for v in vectors:
            assert dot(u, v) == _ref_dot(u, v)
            if dual is not None:
                assert dual.pairing(v) == _ref_pairing(dual, v)
        for scalar in config.elements():
            assert u.scale(scalar).components == tuple(c * scalar for c in u.components)
    for m in matrices:
        for v in vectors:
            assert mat_vec(m, v).components == _ref_mat_vec(m, v).components
        for n in matrices:
            assert mat_mul(m, n) == _ref_mat_mul(m, n)
            assert kron(m, n) == _ref_kron(m, n)


@pytest.mark.parametrize("config", [GF3, GF9], ids=str)
def test_fused_kernels_match_references_exhaustively(config):
    vectors = [vec(config, [x, y]) for x, y in product(config.elements(), repeat=2)]
    spins = [spin_observable(config, axis) for axis in spin_axes(config)]
    _check_kernels(vectors, spins)
    for u in vectors:
        for v in vectors:
            assert u.tensor(v).components == tuple(
                a * b for a in u.components for b in v.components
            )
    for quad in product(config.elements(), repeat=4):
        m = ((quad[0], quad[1]), (quad[2], quad[3]))
        assert det2(m) == _ref_det2(m)


def test_fused_kernels_match_references_on_gf49_sample():
    gf49 = FieldConfig(7, 2)
    rnd = random.Random(49)
    elements = gf49.elements()
    vectors = [
        vec(gf49, [rnd.choice(elements) for _ in range(4)]) for _ in range(60)
    ]
    axes = spin_axes(gf49)
    products = [product_spin(gf49, i, j) for i in axes for j in axes]
    _check_kernels(vectors, products)


# Each call meets a GF(9) operand with a GF(3) one.  The GF(3) entries are
# real residues, which GF(9) arithmetic would accept, so only the field check
# of the entry point itself can refuse them.
_M3, _M9 = identity_matrix(GF3, 2), identity_matrix(GF9, 2)
_V3, _V9 = vec(GF3, [1, 1]), vec(GF9, [1, (0, 1)])
_MIXED = ((GF9.one(), GF3.one()), _M9[1])
MIXED_FIELD_CALLS = {
    "dot": lambda: dot(_V9, _V3),
    "tensor": lambda: _V9.tensor(_V3),
    "pairing": lambda: conjugate_dual(_V9).pairing(_V3),
    "state-vector": lambda: StateVector(_MIXED[0], GF9),
    "dual-vector": lambda: DualVector(_MIXED[0], GF9),
    "make": lambda: StateVector.make(GF9, _MIXED[0]),
    "scale": lambda: _V9.scale(GF3.one()),
    "scale-by-extension": lambda: _V3.scale(GF9.element(0, 1)),
    "mat-vec": lambda: mat_vec(_M3, _V9),
    "mat-mul": lambda: mat_mul(_M9, _M3),
    "kron": lambda: kron(_M9, _M3),
    "det2": lambda: det2(_MIXED),
    "bracket": lambda: bracket(_V9, _M3),
    "add": lambda: GF9.one() + GF3.one(),
    "sub": lambda: GF9.one() - GF3.one(),
    "mul": lambda: GF9.one() * GF3.one(),
    "truediv": lambda: GF9.one() / GF3.one(),
    "ref-mat-vec": lambda: _ref_mat_vec(_M3, _V9),
    "ref-mat-mul": lambda: _ref_mat_mul(_M9, _M3),
    "ref-kron": lambda: _ref_kron(_M9, _M3),
    "ref-det2": lambda: _ref_det2(_MIXED),
}


@pytest.mark.parametrize("call", MIXED_FIELD_CALLS.values(), ids=MIXED_FIELD_CALLS)
def test_kernels_refuse_mixed_fields(call):
    with pytest.raises(ValueError, match="mismatch|share a field|shape and field"):
        call()
