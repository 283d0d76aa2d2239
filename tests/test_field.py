import time

import pytest

from gelfand.errors import CapExceededError, DomainError
from gelfand.field import Fq, build_field, field_from_q, is_prime

ALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]


# ---------------------------------------------------------
# construction
# ---------------------------------------------------------

def test_prime_field_has_empty_modulus(f3):
    assert (f3.p, f3.e, f3.q) == (3, 1, 3)
    assert f3.modulus == ()


def test_f4_modulus_is_the_unique_irreducible_quadratic(f4):
    # oracle: exhaust all 4 monic quadratics over F_2 and test for roots
    irreducible = []
    for c0 in range(2):
        for c1 in range(2):
            if all((x * x + c1 * x + c0) % 2 for x in range(2)):
                irreducible.append((c0, c1, 1))
    assert irreducible == [(1, 1, 1)]
    assert f4.modulus == (1, 1, 1)


@pytest.mark.parametrize("q", [8, 9, 16, 25])
def test_modulus_is_irreducible(q):
    # oracle: a degree-e polynomial with a factor of degree <= e/2 has either
    # a root or, for e = 4, a quadratic factor; trial-divide explicitly
    f = field_from_q(q)
    p, e = f.p, f.e
    coeffs = list(f.modulus)
    assert len(coeffs) == e + 1 and coeffs[-1] == 1

    def poly_eval(c, x):
        acc = 0
        for ci in reversed(c):
            acc = (acc * x + ci) % p
        return acc

    assert all(poly_eval(coeffs, x) for x in range(p)), "modulus has a root"
    if e == 4:
        from itertools import product
        from gelfand.field import _poly_mod
        for c0, c1 in product(range(p), repeat=2):
            assert _poly_mod(coeffs, [c0, c1, 1], p), \
                "modulus has a quadratic factor"


def test_non_prime_p_rejected():
    with pytest.raises(DomainError):
        build_field(4, 1)


def test_size_cap():
    with pytest.raises(CapExceededError):
        build_field(29, 1)
    with pytest.raises(CapExceededError):
        build_field(2, 5)
    # the cap trips before trial division, which would stall on these
    with pytest.raises(CapExceededError):
        field_from_q(2 ** 31 - 1)
    with pytest.raises(CapExceededError):
        build_field(2 ** 31 - 1, 1)
    assert build_field(5, 2).q == 25  # boundary fits


def test_a_huge_extension_degree_is_refused_before_the_power():
    # 3^(10^6) has 477,122 digits; the cap trips on e alone
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError, match=r"3\^1000000"):
        Fq(3, 10 ** 6)
    assert time.perf_counter() - t0 < 0.05
    with pytest.raises(CapExceededError, match="q = 27 "):
        Fq(3, 3)  # below the e shortcut, the power itself is compared


def test_field_from_q_rejects_non_prime_powers():
    with pytest.raises(DomainError):
        field_from_q(6)
    with pytest.raises(DomainError):
        field_from_q(12)
    assert field_from_q(9).p == 3


# ---------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------

def test_addition_examples(f3, f4):
    assert f3.add(2, 2) == 1
    assert f4.add(2, 3) == 1  # x + (x+1) = 1


def test_multiplication_examples(f4, f5):
    assert f4.mul(2, 2) == 3  # x * x = x + 1 under x^2+x+1
    assert f5.mul(2, 3) == 1


def test_f4_mul_table_against_polynomial_arithmetic(f4):
    # independent recomputation: multiply digit polynomials, reduce by hand
    def digits(a):
        return (a % 2, a // 2)

    def undigits(c0, c1):
        return c0 + 2 * c1

    for a in range(4):
        for b in range(4):
            a0, a1 = digits(a)
            b0, b1 = digits(b)
            # (a0 + a1 x)(b0 + b1 x) with x^2 = x + 1
            c0 = a0 * b0
            c1 = a0 * b1 + a1 * b0
            c2 = a1 * b1
            c0, c1 = (c0 + c2) % 2, (c1 + c2) % 2
            assert f4.mul(a, b) == undigits(c0, c1)


def test_inverse_examples(f2, f4, f5):
    assert f5.inv(2) == 3
    assert f2.inv(1) == 1
    assert f4.inv(2) == 3  # x * (x+1) = x^2 + x = 1


def test_inverse_of_zero_rejected(f3):
    with pytest.raises(DomainError):
        f3.inv(0)


# ---------------------------------------------------------
# field axioms, exhaustive for every q <= 25
# ---------------------------------------------------------

@pytest.mark.parametrize("q", ALL_PRIME_POWERS)
def test_field_axioms_exhaustive(q):
    f = field_from_q(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", ALL_PRIME_POWERS)
def test_every_nonzero_element_invertible(q):
    f = field_from_q(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.inv(f.inv(a)) == a  # inv is an involution


@pytest.mark.parametrize("q", ALL_PRIME_POWERS)
def test_multiplicative_group_is_cyclic(q):
    f = field_from_q(q)
    g = f.generator()
    powers = set()
    x = 1
    for _ in range(q - 1):
        x = f.mul(x, g)
        powers.add(x)
    assert len(powers) == q - 1
    assert 1 in powers


def test_is_prime_helper():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_build_field_is_cached():
    assert build_field(3, 1) is build_field(3, 1)
