import hashlib
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

    def rem_by_monic_quadratic(c, c0, c1):
        # long division by x^2 + c1 x + c0, highest degree first
        c = list(c)
        for k in range(len(c) - 1, 1, -1):
            lead = c[k]
            c[k] = 0
            c[k - 1] = (c[k - 1] - lead * c1) % p
            c[k - 2] = (c[k - 2] - lead * c0) % p
        return c[:2]

    assert all(poly_eval(coeffs, x) for x in range(p)), "modulus has a root"
    if e == 4:
        for c0 in range(p):
            for c1 in range(p):
                assert any(rem_by_monic_quadratic(coeffs, c0, c1)), \
                    "modulus has a quadratic factor"


# sha256 of (modulus, add, mul, neg, inv, generator()) per field, taken from
# the table construction that used polynomial long division and Fermat
# inverses; any change to an index convention or the modulus rule moves it
FIELD_DIGESTS = {
    2: "71a2de737bdc52e95de2e6d3f2267479278f731d6f182bb6db856d22dae2d073",
    3: "7be07096e4b3eb146172a9ce0176a5162343ad4de86e00e94a669de2d8223a17",
    4: "a42b1a61c38d2d518ae9a00e93fdcce48f2ebb9157c64314180b593bee7560f5",
    5: "b7b11036518a37169bd2512a643166aa90e6be8bb733c808d6ac117b342ec4d3",
    7: "336e08553e02d25ffc2b125ef35dabd099e1c59da05fd508b683a0cbfaa06392",
    8: "5c8968b959b28fe5d13acc3d130b206032e92095b54644b2645bb970d8d235bf",
    9: "fe55920ee2e4ddee62e539d69f2c8d1a9166047efae0ace0b52cf49adf2a53f3",
    11: "a656ee4071d9458c45e51b9ea36479c1f3adeecc6955a0cc29558836b40822de",
    13: "7ce451563a785d3ec99171aab2914d7fa7f9a33ae310d1baf300acd0a30d9693",
    16: "32d7b2a8a20c34aad19bdb45fe9fa30b03bdb18c9d0809988c176bbf4bc6427c",
    17: "96df211d8c03503d8a7c49881d7bb96ac1d49d3f7ae8e6f7b4b0ddf794abb542",
    19: "add1549bb14bbaabc9b2ed048582602c023e1b7f1d2a3549359aa25c4b75f367",
    23: "b8d10db2bdac19aa92f9a5b8b2b24471b889c57b885dfb217401ea57023ada89",
    25: "c3d856a01419d2d3daaf35e2cc53bd5c6af51ad94bc322cf900ae1663860df88",
}


@pytest.mark.parametrize("q", ALL_PRIME_POWERS)
def test_tables_match_pinned_digest(q):
    f = field_from_q(q)
    r = range(q)
    payload = repr((f.modulus,
                    [f.add(a, b) for a in r for b in r],
                    [f.mul(a, b) for a in r for b in r],
                    [f.neg(a) for a in r],
                    [0] + [f.inv(a) for a in range(1, q)],
                    f.generator()))
    assert hashlib.sha256(payload.encode()).hexdigest() == FIELD_DIGESTS[q]


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
    with pytest.raises(DomainError, match="q = 1 is not a prime power"):
        field_from_q(1)
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
