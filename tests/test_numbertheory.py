import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfnpkit.errors import OracleContractError
from tfnpkit.numbertheory import (
    PRIME,
    all_factors,
    all_factors_via_factor,
    factor,
    factor_via_all_factors,
    is_prime,
)


def brute_divisors(n: int) -> list[int]:
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def test_factor_examples():
    assert factor(91) == 7
    assert factor(97) == PRIME
    assert factor(4) == 2


def test_all_factors_examples():
    assert all_factors(12) == [2, 3, 4, 6]
    assert all_factors(97) == PRIME
    assert all_factors(49) == [7]


def test_domain_errors():
    for bad in (1, 0, -5):
        with pytest.raises(ValueError):
            factor(bad)
        with pytest.raises(ValueError):
            all_factors(bad)


@given(st.integers(min_value=2, max_value=3000))
def test_factor_agrees_with_brute_force(n):
    divs = brute_divisors(n)
    if divs:
        assert factor(n) == divs[0]
        assert all_factors(n) == divs
    else:
        assert factor(n) == PRIME
        assert all_factors(n) == PRIME


def test_divisor_list_closure():
    for n in range(2, 3000):
        answer = all_factors(n)
        if answer == PRIME:
            continue
        assert answer == sorted(answer)
        assert 1 not in answer and n not in answer
        assert all(n % d == 0 for d in answer)
        assert sorted(n // d for d in answer) == answer


def test_all_factors_via_factor_traced():
    calls = []

    def tracing(k):
        calls.append(k)
        return factor(k)

    assert all_factors_via_factor(12, tracing) == [2, 3, 4, 6]
    assert all(k < 12 for k in calls)


def test_prime_input_needs_no_query():
    def forbidden(k):
        raise AssertionError("primes must not query")

    assert all_factors_via_factor(97, forbidden) == PRIME


def test_via_factor_agrees_on_sweep():
    calls = []

    def tracing(k):
        calls.append(k)
        return factor(k)

    for n in range(2, 1500):
        calls.clear()
        assert all_factors_via_factor(n, tracing) == all_factors(n)
        assert all(k < n for k in calls)
        assert all(k <= n // 2 for k in calls)


def test_via_factor_handles_any_nontrivial_answer():
    # the oracle may return a composite factor; decomposition must recover
    def largest(k):
        divs = brute_divisors(k)
        return PRIME if not divs else divs[-1]

    for n in range(2, 800):
        assert all_factors_via_factor(n, largest) == all_factors(n)


def test_truncated_all_factors_oracle_still_works():
    def truncated(k):
        answer = all_factors(k)
        return answer if answer == PRIME else answer[:1][0]

    for n in (12, 60, 97, 128, 255):
        assert all_factors_via_factor(n, truncated) == all_factors(n)


def test_factor_via_all_factors_single_call():
    calls = []

    def tracing(k):
        calls.append(k)
        return all_factors(k)

    assert factor_via_all_factors(12, tracing) == 2
    assert calls == [12]
    assert factor_via_all_factors(97, tracing) == PRIME


def test_factor_via_all_factors_sweep():
    for n in range(2, 1500):
        assert factor_via_all_factors(n, all_factors) == factor(n)


def test_oracle_contract_violations_raise():
    with pytest.raises(OracleContractError):
        all_factors_via_factor(12, lambda k: 5)  # 5 does not divide 6
    with pytest.raises(OracleContractError):
        all_factors_via_factor(12, lambda k: "prime")  # 6 is not prime
    with pytest.raises(OracleContractError):
        factor_via_all_factors(12, lambda k: [5])


def test_is_prime_matches_brute():
    for n in range(2, 2000):
        assert is_prime(n) == (not brute_divisors(n))
