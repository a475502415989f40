"""Algebraic invariants checked over randomized inputs."""

from functools import partial

from hypothesis import assume, given, settings, strategies as st

from bioqm import (
    FieldConfig,
    StateVector,
    bracket,
    canonicalize,
    chsh,
    correlator,
    dot,
    expectation,
    from_product,
    is_self_orthogonal,
    named_states,
    phi_map,
    spin_observable,
    two_particle_states,
)
from bioqm.acceptance import signed_chsh, signed_correlator
from bioqm.biortho import SPIN_AXIS_KETS, build_observable
from bioqm.entangle import one_sided_spin, product_spin
from bioqm.exactlp import rref
from bioqm.inference import moment_system
from bioqm.linear import mat_vec
from test_biortho import enumerate_biorthogonal_systems

SMALL_PRIMES = (3, 7, 11)
PHI_PRIMES = tuple(
    p for p in range(3, 200)
    if p % 4 == 3 and all(p % d for d in range(2, int(p**0.5) + 1))
)

configs = st.sampled_from([FieldConfig(p, 2) for p in SMALL_PRIMES])


@st.composite
def field_pairs(draw, count=2):
    config = draw(configs)
    elems = tuple(
        config.element(draw(st.integers(0, config.p - 1)),
                       draw(st.integers(0, config.p - 1)))
        for _ in range(count)
    )
    return (config, *elems)


@given(field_pairs(count=3))
def test_field_axioms(data):
    config, a, b, c = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + config.zero() == a
    assert a * config.one() == a
    assert a + (-a) == config.zero()
    if not a.is_zero:
        assert a * a.inverse() == config.one()


@given(field_pairs(count=2))
def test_frobenius_is_a_field_automorphism(data):
    _, a, b = data
    assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    assert (a + b).frobenius() == a.frobenius() + b.frobenius()
    assert a.frobenius().frobenius() == a


@given(st.sampled_from(PHI_PRIMES), st.data())
def test_phi_preserves_products(p, data):
    config = FieldConfig(p, 1)
    a = config.element(data.draw(st.integers(0, p - 1)))
    b = config.element(data.draw(st.integers(0, p - 1)))
    assert phi_map(a * b) == phi_map(a) * phi_map(b)


@st.composite
def state_vectors(draw, dim=2, count=1):
    """(config, v_1, ..., v_count): nonzero vectors over one drawn field."""
    config = draw(configs)
    vectors = []
    for _ in range(count):
        entries = [
            (draw(st.integers(0, config.p - 1)), draw(st.integers(0, config.p - 1)))
            for _ in range(dim)
        ]
        assume(any(e != (0, 0) for e in entries))
        vectors.append(StateVector.make(config, entries))
    return (config, *vectors)


@given(state_vectors(count=2))
def test_dot_is_sesquilinear_and_conjugate_symmetric(data):
    config, u, v = data
    assert dot(u, v).frobenius() == dot(v, u)
    for scalar in (config.element(2 % config.p, 1), config.element(0, 1)):
        assert dot(u.scale(scalar), v) == scalar.frobenius() * dot(u, v)
        assert dot(u, v.scale(scalar)) == scalar * dot(u, v)
    u_plus_v = StateVector(tuple(x + y for x, y in zip(u.components, v.components)), config)
    assert dot(u_plus_v, v) == dot(u, v) + dot(v, v)


@given(state_vectors(dim=4), st.data())
def test_canonicalize_is_idempotent_and_scale_invariant(data, rnd):
    config, v = data
    state = canonicalize(v)
    assert canonicalize(state.rep).rep.components == state.rep.components
    scalar = config.element(
        rnd.draw(st.integers(0, config.p - 1)), rnd.draw(st.integers(0, config.p - 1))
    )
    assume(not scalar.is_zero)
    assert canonicalize(v.scale(scalar)).rep.components == state.rep.components


@st.composite
def gf9_physical_vectors(draw, dim=2):
    config = FieldConfig(3, 2)
    entries = [
        (draw(st.integers(0, 2)), draw(st.integers(0, 2))) for _ in range(dim)
    ]
    assume(any(e != (0, 0) for e in entries))
    v = StateVector.make(config, entries)
    assume(not is_self_orthogonal(v))
    return v


@given(gf9_physical_vectors(), st.sampled_from([1, 2, 3]), st.data())
def test_bracket_is_phase_invariant(v, axis, data):
    config = v.config
    obs = spin_observable(config, axis)
    reference = bracket(v, obs)
    scalar = config.element(data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
    assume(not scalar.is_zero)
    assert bracket(v.scale(scalar), obs) == reference


@given(st.sampled_from([FieldConfig(3, 1), FieldConfig(3, 2), FieldConfig(7, 1)]), st.data())
def test_eigenstates_have_zero_variance(config, data):
    systems = enumerate_biorthogonal_systems(config)
    system = data.draw(st.sampled_from(systems))
    eigs = (
        data.draw(st.integers(0, config.p - 1)),
        data.draw(st.integers(0, config.p - 1)),
    )
    obs = build_observable(system, eigs)
    for k, ket in enumerate(system.kets):
        m = expectation(ket, obs)
        assert m.expectation == phi_map(config.element(eigs[k]))
        assert m.variance == 0


@given(gf9_physical_vectors(), gf9_physical_vectors(),
       st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]))
def test_product_state_correlators_factorize(x, y, i, j):
    pair = from_product(x, y)
    left = expectation(x, spin_observable(x.config, i)).expectation
    right = expectation(y, spin_observable(y.config, j)).expectation
    assert correlator(pair, i, j) == left * right


GF9 = FieldConfig(3, 2)
ENTANGLED_GF9 = tuple(
    s for s in two_particle_states(GF9) if s.physical and not s.is_product
)


@settings(max_examples=60)
@given(st.sampled_from(ENTANGLED_GF9), st.data())
def test_chsh_sign_and_swap_identities(state, data):
    axes = (1, 2, 3)
    A = data.draw(st.sampled_from(axes))
    a = data.draw(st.sampled_from([x for x in axes if x != A]))
    B = data.draw(st.sampled_from(axes))
    b = data.draw(st.sampled_from([x for x in axes if x != B]))
    base = chsh(state, A, a, B, b).value
    correlate = partial(signed_correlator, state)
    assert base == signed_chsh(correlate, (1, A), (1, a), (1, B), (1, b))
    # negating one primed observable swaps the partner pair
    assert base == signed_chsh(correlate, (1, A), (-1, a), (1, b), (1, B))
    assert base == -signed_chsh(correlate, (-1, A), (1, a), (1, b), (1, B))
    assert base == signed_chsh(correlate, (1, a), (1, A), (1, B), (-1, b))
    assert base == -signed_chsh(correlate, (1, a), (1, A), (-1, B), (1, b))


@given(st.sampled_from(ENTANGLED_GF9), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 2, 3]))
def test_one_sided_products_compose(state, i, j):
    # measuring i on side 1 and j on side 2 equals the joint product matrix
    config = state.config
    joint = product_spin(config, i, j)
    v = state.state.rep
    step = mat_vec(one_sided_spin(config, 1, i), mat_vec(one_sided_spin(config, 2, j), v))
    assert step.components == mat_vec(joint, v).components


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=1,
        max_size=5,
    ),
    st.integers(1, 6),
)
def test_moment_rank_counts_distinct_outcome_values(values, max_power):
    report = moment_system(values, max_power)
    distinct = len(set(values))
    assert report.rank == min(distinct, max_power + 1)
    assert report.indeterminacy == len(values) - report.rank


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rref_rank_is_stable_under_row_doubling(rows):
    rhs = [0] * len(rows)
    base = rref(rows, rhs)
    doubled = rref(rows + rows, rhs + rhs)
    assert doubled.rank == base.rank
    assert doubled.consistent


def test_spin_axis_kets_are_eigenvectors():
    for axis, (up, down) in SPIN_AXIS_KETS.items():
        sigma = spin_observable(GF9, axis)
        named = named_states(GF9)
        up_vec = named[up].rep
        down_vec = named[down].rep
        assert mat_vec(sigma, up_vec).components == up_vec.components
        minus_down = down_vec.scale(GF9.element(-1))
        assert mat_vec(sigma, down_vec).components == minus_down.components
