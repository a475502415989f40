"""Field arithmetic, Frobenius conjugation, and the sign map."""

import copy
import operator
import pickle
import time
from itertools import product

import pytest

from bioqm import FieldConfig, FieldElement, find_generator, phi_map
from bioqm.biortho import table_report
from bioqm.gf import PRIME_TEST_BOUND, _powers, asdict, is_prime, verify_phi_uniqueness


def test_config_rejects_bad_parameters():
    before = dict(FieldConfig._instances)
    with pytest.raises(ValueError):
        FieldConfig(4, 1)
    with pytest.raises(ValueError):
        FieldConfig(5, 1)  # 5 = 1 mod 4
    with pytest.raises(ValueError):
        FieldConfig(3, 3)
    for args in [(3.0,), (3, 2.0), ("3",)]:
        with pytest.raises(TypeError):
            FieldConfig(*args)
    # a refused field registers nothing
    assert FieldConfig._instances == before


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_a_sieve_below_200000():
    n = 200_000
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for k in range(2, int(n**0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, n, k)))
    assert [is_prime(k) for k in range(n)] == list(map(bool, sieve))


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051,
                               318665857834031151167461],
                         ids=["carmichael", "spsp-2-to-7", "spsp-2-to-23", "spsp-2-to-37"])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # each passes Miller-Rabin on every prime base up to the one its id names
    assert not is_prime(n)


def test_large_prime_field_builds_at_once():
    start = time.perf_counter()
    config = FieldConfig(10**18 + 3, 1)
    assert time.perf_counter() - start < 0.05
    assert config.element(-1).re == 10**18 + 2


def test_primality_from_its_exact_bound_is_refused():
    assert not is_prime(PRIME_TEST_BOUND - 2)  # a multiple of 17, answered
    for n in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 2):
        with pytest.raises(ValueError, match="exact primality test"):
            FieldConfig(n, 1)


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_prime_field_matches_integer_arithmetic(p):
    config = FieldConfig(p, 1)
    for a in range(p):
        for b in range(p):
            x, y = config.element(a), config.element(b)
            assert (x + y).re == (a + b) % p
            assert (x - y).re == (a - b) % p
            assert (x * y).re == (a * b) % p
            if b:
                assert ((x / y) * y) == x


def _result(op, a, b):
    try:
        return op(a, b)
    except ZeroDivisionError as exc:
        return type(exc)


@pytest.mark.parametrize("p,degree", [(7, 1), (3, 2)], ids=["gf7", "gf9"])
def test_int_operands_give_the_element_result(p, degree):
    # an int operand, on either side and unreduced, goes through _coerce; the
    # interned element it gives is the one the all-element path gives
    config = FieldConfig(p, degree)
    for x in config.elements():
        for n in range(-p, 2 * p):
            y = config.element(n)
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                assert _result(op, x, n) is _result(op, x, y), (op, x, n)
                assert _result(op, n, x) is _result(op, y, x), (op, n, x)


def test_inverse_matches_fermat():
    p = 7
    config = FieldConfig(p, 1)
    for a in range(1, p):
        assert config.element(a).inverse().re == pow(a, p - 2, p)
    with pytest.raises(ZeroDivisionError):
        config.zero().inverse()


@pytest.mark.parametrize("p,generator", [(3, 2), (7, 3), (11, 2)])
def test_find_generator_frozen(p, generator):
    assert find_generator(p) == generator


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
def test_generator_powers_cover_all_units(p):
    g = find_generator(p)
    powers = {pow(g, k, p) for k in range(p - 1)}
    assert powers == set(range(1, p))


@pytest.mark.parametrize("p", [p for p in range(3, 200) if p % 4 == 3 and is_prime(p)] + [991])
def test_power_walk_matches_the_pow_and_sort_rule(p):
    # the reference rule: h generates when its p - 1 powers by pow, sorted,
    # are the units, and its even powers are pow(h, 2k, p)
    units = list(range(1, p))
    reference = {
        h: frozenset(pow(h, 2 * k, p) for k in range((p - 1) // 2))
        for h in units
        if sorted(pow(h, k, p) for k in range(p - 1)) == units
    }
    walked = {h: frozenset(powers[::2]) for h in units if len(powers := _powers(h, p)) == p - 1}
    assert walked == reference
    assert find_generator(p) == min(reference)
    assert verify_phi_uniqueness(p).generator_independent


def _poly_mul(a, b, p):
    # reference GF(p^2) product: (a0 + a1 x)(b0 + b1 x) mod (x^2 + 1, p)
    re = (a[0] * b[0] - a[1] * b[1]) % p
    im = (a[0] * b[1] + a[1] * b[0]) % p
    return re, im


@pytest.mark.parametrize("p", [3, 7, 11])
def test_extension_product_matches_polynomial_reference(p):
    config = FieldConfig(p, 2)
    for a in product(range(p), repeat=2):
        for b in product(range(p), repeat=2):
            x = config.element(*a) * config.element(*b)
            assert (x.re, x.im) == _poly_mul(a, b, p)


@pytest.mark.parametrize("p", [3, 7, 11])
def test_extension_division(p):
    config = FieldConfig(p, 2)
    one = config.one()
    for re in range(p):
        for im in range(p):
            x = config.element(re, im)
            if x.is_zero:
                continue
            assert x * x.inverse() == one
            assert (one / x) * x == one


@pytest.mark.parametrize("p", [3, 7, 11])
def test_frobenius_is_pth_power(p):
    config = FieldConfig(p, 2)
    for re in range(p):
        for im in range(p):
            x = config.element(re, im)
            assert x.frobenius() == x ** p
            assert x.frobenius().frobenius() == x


def test_frobenius_fixes_exactly_the_real_subfield():
    config = FieldConfig(3, 2)
    fixed = [x for x in config.elements() if x.frobenius() == x]
    assert all(x.is_real for x in fixed)
    assert len(fixed) == 3


def test_frozen_frobenius_value_over_gf49():
    config = FieldConfig(7, 2)
    x = config.element(3, 5)
    assert x ** 7 == config.element(3, 2)
    assert x.frobenius() == config.element(3, 2)


def test_division_in_gf3_wraps_to_negative():
    config = FieldConfig(3, 1)
    assert config.element(1) / config.element(2) == config.element(-1)


def test_balanced_rendering():
    g3 = FieldConfig(3, 1)
    assert str(g3.element(2)) == "-1"
    g7 = FieldConfig(7, 1)
    assert str(g7.element(5)) == "-2"
    assert str(g7.element(3)) == "3"
    g9 = FieldConfig(3, 2)
    assert str(g9.element(1, 1)) == "1+i"
    assert str(g9.element(0, 2)) == "-i"
    assert str(g9.element(1, 2)) == "1-i"
    assert str(g9.element(0, 0)) == "0"


def test_power_and_negation():
    config = FieldConfig(3, 2)
    i = config.element(0, 1)
    assert i * i == config.element(-1)
    assert i ** 4 == config.one()
    assert -i == config.element(0, 2)


def test_elements_enumeration_ordered():
    config = FieldConfig(3, 2)
    elems = list(config.elements())
    assert len(elems) == 9
    assert elems == sorted(elems, key=lambda x: (x.re, x.im))


# -- the sign map --------------------------------------------------------------


def _squares(p):
    return {pow(y, 2, p) for y in range(1, p)}


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
def test_phi_is_the_quadratic_character(p):
    config = FieldConfig(p, 1)
    squares = _squares(p)
    assert phi_map(config.zero()) == 0
    for a in range(1, p):
        expected = 1 if a in squares else -1
        assert phi_map(config.element(a)) == expected


@pytest.mark.parametrize("p", [3, 7, 11, 19, 23])
def test_phi_preserves_products_exhaustively(p):
    config = FieldConfig(p, 1)
    values = {a: phi_map(config.element(a)) for a in range(p)}
    for a in range(p):
        for b in range(p):
            assert values[(a * b) % p] == values[a] * values[b]


def test_phi_rejects_imaginary_arguments():
    config = FieldConfig(3, 2)
    with pytest.raises(ValueError):
        phi_map(config.element(0, 1))


def test_phi_on_embedded_reals_of_extension_field():
    config = FieldConfig(3, 2)
    assert phi_map(config.one()) == 1
    assert phi_map(config.element(-1)) == -1
    assert phi_map(config.zero()) == 0


@pytest.mark.parametrize("p,kernel", [(7, (1, 2, 4)), (11, (1, 3, 4, 5, 9))])
def test_phi_kernel_frozen(p, kernel):
    report = verify_phi_uniqueness(p)
    assert report.kernel == kernel


def _brute_force_sign_maps(p):
    """All surjective product-preserving maps GF(p) -> {-1, 0, +1} with f(0) = 0."""
    units = list(range(1, p))
    found = []
    for signs in product((1, -1), repeat=p - 1):
        f = dict(zip(units, signs))
        if all(f[(a * b) % p] == f[a] * f[b] for a in units for b in units):
            if -1 in signs:
                found.append(signs)
    return found


@pytest.mark.parametrize("p", [3, 7, 11])
def test_uniqueness_matches_brute_force(p):
    report = verify_phi_uniqueness(p)
    brute = _brute_force_sign_maps(p)
    assert len(brute) == 1
    assert report.unique
    assert report.qualifying_count == 1
    assert report.matches_phi_map
    assert report.generator_independent
    assert report.method == "exhaustive"
    assert report.candidates_checked == 2 ** (p - 1)
    config = FieldConfig(p, 1)
    lone = dict(zip(range(1, p), brute[0]))
    for a in range(1, p):
        assert phi_map(config.element(a)) == lone[a]


def test_uniqueness_switches_to_cyclic_method_for_larger_primes():
    report = verify_phi_uniqueness(19)
    assert report.method == "cyclic"
    assert report.unique and report.matches_phi_map and report.generator_independent


def test_uniqueness_guard_rejects_huge_primes():
    with pytest.raises(ValueError):
        verify_phi_uniqueness(1019)


def test_field_element_hash_and_equality():
    config = FieldConfig(3, 2)
    a = config.element(1, 2)
    b = config.element(1, 2)
    assert a == b and hash(a) == hash(b)
    assert a != config.element(2, 1)


def test_a_field_is_one_object_and_its_elements_compare_by_identity():
    gf9 = FieldConfig(3, 2)
    assert FieldConfig(3, 2) is gf9 and FieldConfig(p=3, degree=2) is gf9
    assert FieldConfig(3, True) is FieldConfig(3) is FieldConfig(3, 1) is not gf9
    assert repr(gf9) == "FieldConfig(p=3, degree=2)" and str(gf9) == "GF(9)"
    assert gf9.element(4, 5) is gf9.element(1, 2)
    assert gf9.element(1, 2) * gf9.one() is gf9.element(1, 2)
    for x in gf9.elements():
        for y in gf9.elements():
            a, b = (x.re, x.im), (y.re, y.im)
            assert x + y is gf9.element(a[0] + b[0], a[1] + b[1])
            assert ((x * y).re, (x * y).im) == _poly_mul(a, b, 3)
            if not y.is_zero:
                assert (x / y) * y is x
    # an element built outside the field's store is another value
    stray = FieldElement(1, 2, gf9)
    assert stray != gf9.element(1, 2) and stray in {stray}

    with pytest.raises(ValueError, match="field mismatch"):
        gf9.one() + FieldConfig(3, 1).one()
    with pytest.raises(ValueError):
        FieldConfig(3, 1).element(1, 1)
    with pytest.raises(ValueError):
        FieldElement(3, 0, gf9)  # not a canonical residue


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_the_one_object(clone):
    gf7, gf9 = FieldConfig(7, 1), FieldConfig(3, 2)
    for x in (gf9, gf9.element(1, 2), gf7, gf7.element(3)):
        assert clone(x) is x


def test_a_result_holding_elements_converts_with_asdict():
    gf9 = FieldConfig(3, 2)
    rows = asdict(table_report(gf9))["rows"]
    rep = rows[0]["state"]["rep"]
    assert len(rows) == 6 and rep["config"] is gf9
    assert rep["components"] == (gf9.one(), gf9.zero())


def test_field_config_is_immutable():
    config = FieldConfig(7, 2)
    with pytest.raises(AttributeError):
        config.p = 11
    with pytest.raises(AttributeError):
        del config.degree
    with pytest.raises(AttributeError):
        config._interned = {}
    assert (config.p, config.degree, config.order) == (7, 2, 49)
