"""Factor and all-factors with the two oracle reductions between them.

Answers use ``"prime"`` for primes, a single smallest nontrivial factor for
:func:`factor`, and the sorted list of all nontrivial divisors for
:func:`all_factors`.  Primality is deterministic trial division; everything
here is desk scale.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from .errors import OracleContractError

PRIME = "prime"

FactorAnswer = int | str
AllFactorsAnswer = list[int] | str


def _check_domain(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"factoring is defined for integers >= 2, got {n!r}")


def smallest_factor(n: int) -> int | None:
    """Smallest nontrivial factor, or None for primes."""
    _check_domain(n)
    if n % 2 == 0:
        return 2 if n > 2 else None
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return None


def is_prime(n: int) -> bool:
    _check_domain(n)
    return smallest_factor(n) is None


def factor(n: int) -> FactorAnswer:
    """``"prime"`` or the smallest nontrivial factor."""
    f = smallest_factor(n)
    return PRIME if f is None else f


def _divisor_list(primes: Counter) -> list[int]:
    divisors = [1]
    for p, count in primes.items():
        divisors = [d * p**e for d in divisors for e in range(count + 1)]
    total = 1
    for p, count in primes.items():
        total *= p**count
    return sorted(d for d in divisors if 1 < d < total)


def all_factors(n: int) -> AllFactorsAnswer:
    """``"prime"`` or every divisor strictly between 1 and n, ascending."""
    _check_domain(n)
    primes: Counter = Counter()
    rest = n
    while rest > 1:
        f = smallest_factor(rest)
        if f is None:
            primes[rest] += 1
            break
        primes[f] += 1
        rest //= f
    return PRIME if rest == n else _divisor_list(primes)  # n is its own only prime


def all_factors_via_factor(
    n: int, oracle: Callable[[int], FactorAnswer]
) -> AllFactorsAnswer:
    """Full divisor list using a single-factor oracle for strictly smaller
    numbers.

    The input's own first split is computed locally (the oracle may not be
    asked about n itself); every remaining part is decomposed by oracle
    calls, each on a number strictly smaller than the one it came from.
    """
    _check_domain(n)
    first = smallest_factor(n)
    if first is None:
        return PRIME
    primes: Counter = Counter({first: 1})
    stack = [n // first]
    while stack:
        part = stack.pop()
        if part == 1:
            continue
        if part >= n:
            raise OracleContractError(f"query {part} is not below the input {n}")
        answer = oracle(part)
        if answer == PRIME and is_prime(part):  # a false claim is refused below
            primes[part] += 1
            continue
        if not isinstance(answer, int) or not 1 < answer < part or part % answer:
            raise OracleContractError(f"oracle returned {answer!r} for {part}")
        stack.append(answer)
        stack.append(part // answer)
    return _divisor_list(primes)


def factor_via_all_factors(
    n: int, oracle: Callable[[int], AllFactorsAnswer]
) -> FactorAnswer:
    """Single factor from one call to an all-divisors oracle.  The oracle is
    trusted to list every divisor: only that each listed one divides n can
    be checked without factoring, so ``[6]`` for 12 returns 6."""
    _check_domain(n)
    answer = oracle(n)
    if answer == PRIME:
        return PRIME
    if (
        not isinstance(answer, list)
        or not answer
        or any(not isinstance(d, int) or not 1 < d < n or n % d for d in answer)
    ):
        raise OracleContractError(f"oracle returned {answer!r} for {n}")
    return min(answer)
