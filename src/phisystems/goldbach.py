"""Prime-pair and prime-triple parametrizations of Goldbach-style sums.

Even totals 2n are split as (n - x, n + x) for x in [0, n - 3]. The same
split set appears three more ways: as solutions of
nu((x' - 2n)(4n - x')) = 2 on the shifted interval (2n + 1, 4n - 1), as
the paired totient equations phi(n - x) + 1 = n - x and
phi(n + x) + 1 = n + x, and as paired Fermat-congruence certifications
of n - x and n + x.

Odd totals n > 5 are split as triples (n - x - y, 2x - n, n - x + y)
under the chain 0 <= y < x < x + y + 2 < n + 1 < 2x. The middle
component 2x - n is odd by parity and plays a designated role: a sum
like 19 = 3 + 5 + 11 yields one witness per valid middle choice.
Restricting the product of the first two components to multiples of 3
ties the triple form back to the pair form at total n - 3.

``count_table`` gives the pair, triple or triple-with-3 count of every n
up to a bound at once, from exact FFT convolutions of the odd values of a
primality mask: the sieve's, or a certify block for the congruence form.
Sweeps in count mode read it; the per-n functions stay the reference it is
tested against. A float convolution is accepted only when every value lies
within 0.25 of an integer and the rounded values sum to the product of the
input sums, an exact integer identity; otherwise it raises, with no fallback.

``first_pair_y_block`` gives the first pair witness of every total 2m of a
block at once: each m walks the primes r >= m of its mask upward and
tests whether 2m - r is prime, so the minimal offset y = r - m takes
about y / ln m probes, and the rounds drop each m once it is resolved.
Sweeps read their pair and triple first witnesses from it, and the scalar
scans (``first_binary_witness``, ``first_peculiar_witness``,
``two_prime_sum_exists``) stay the reference it is tested against.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .arith import SpfTable
from .certify import certify_verdict

__all__ = [
    "BinaryWitness",
    "TernaryWitness",
    "binary_count",
    "binary_solutions",
    "count_table",
    "decomposition_to_xy",
    "fermat_system_solutions",
    "first_binary_witness",
    "first_pair_y_block",
    "first_peculiar_witness",
    "first_ternary_witness",
    "peculiar_count",
    "peculiar_solutions",
    "proposition_check",
    "raw_form_solutions",
    "substitution_bijection_check",
    "ternary_count",
    "ternary_solutions",
    "two_prime_sum_exists",
]


@dataclass(frozen=True, slots=True)
class BinaryWitness:
    """A split 2n = p + q with p = n - x, q = n + x, both prime."""

    n: int
    x: int
    p: int
    q: int


@dataclass(frozen=True, slots=True)
class TernaryWitness:
    """A split n = p + q + r with p = n-x-y, q = 2x-n, r = n-x+y, all prime."""

    n: int
    x: int
    y: int
    p: int
    q: int
    r: int


def _validate_pair_n(n: int, table: SpfTable) -> None:
    if n < 2:
        raise ValueError(f"defined for n >= 2, got {n}")
    if 2 * n > table.limit:
        raise ValueError(
            f"n = {n} needs the sieve through {2 * n}, table stops at {table.limit}"
        )


def _validate_odd_n(n: int, table: SpfTable) -> None:
    if n <= 5 or n % 2 == 0:
        raise ValueError(f"defined for odd n > 5, got {n}")
    if n > table.limit:
        raise ValueError(f"n = {n} is beyond the table limit {table.limit}")


def binary_solutions(n: int, table: SpfTable) -> list[BinaryWitness]:
    """All x with n - x and n + x both prime, ascending: x in [0, n-3],
    and x = 0 for n = 2 since 4 = 2 + 2."""
    _validate_pair_n(n, table)
    both = _pair_mask(2 * n, table.is_prime_mask)
    return [
        BinaryWitness(n=n, x=x, p=n - x, q=n + x)
        for x in np.nonzero(both)[0].tolist()
    ]


def binary_count(n: int, table: SpfTable) -> int:
    """len(binary_solutions(n)) without materializing witnesses."""
    _validate_pair_n(n, table)
    return _pair_count(2 * n, table.is_prime_mask)


def first_binary_witness(n: int, table: SpfTable) -> BinaryWitness | None:
    """Lowest-x witness, scanning only the viable parity class of x."""
    _validate_pair_n(n, table)
    x = _first_pair_y(2 * n, table.is_prime_mask.data)
    return None if x is None else BinaryWitness(n=n, x=x, p=n - x, q=n + x)


def raw_form_solutions(n: int, table: SpfTable) -> list[int]:
    """All x in (2n+1, 4n-1) with nu((x - 2n)(4n - x)) = 2, ascending.

    Both factors exceed 1 on that interval, so nu = 2 forces both prime.
    nu of the product is evaluated as nu(x - 2n) + nu(4n - x), which is
    exact because nu is completely additive.
    """
    _validate_pair_n(n, table)
    seg = table.nu_values[2 : 2 * n - 1]
    total = seg + seg[::-1]
    return (np.nonzero(total == 2)[0] + (2 * n + 2)).tolist()


def substitution_bijection_check(n: int, table: SpfTable) -> bool:
    """Whether x -> 3n - x carries the raw-form x-set onto the binary x-set.

    The raw interval sees each unordered pair from both sides: binary
    witness z > 0 corresponds to raw solutions 3n - z and 3n + z, while
    z = 0 corresponds to 3n alone. Images are folded by absolute value
    and the two-to-one multiplicity off zero is required exactly.
    """
    if n < 3:
        raise ValueError(f"defined for n >= 3, got {n}")
    folded = Counter(abs(3 * n - x) for x in raw_form_solutions(n, table))
    expected = {w.x: (1 if w.x == 0 else 2) for w in binary_solutions(n, table)}
    return folded == expected


def fermat_system_solutions(
    n: int, table: SpfTable, *, verdicts: np.ndarray | None = None
) -> list[int]:
    """All x in [0, n-3] where both n - x and n + x certify as prime.

    Each side runs the congruence system with its own bound: primes
    p <= isqrt(n - x) and q <= isqrt(n + x). Passing verdicts, a
    ``certify_block`` from 0 through at least 2n - 2, reuses one
    certification per distinct value; without it every x re-runs both
    systems directly. Range sweeps use ``count_table``.
    """
    if n <= 3:
        raise ValueError(f"defined for n > 3, got {n}")
    if verdicts is not None:
        if len(verdicts) < 2 * n - 1:
            raise ValueError(f"n = {n} needs verdicts through {2 * n - 2}")
        return np.nonzero(_pair_mask(2 * n, verdicts))[0].tolist()
    out = []
    for x in range(0, n - 2):
        if certify_verdict(n - x, table)[0] and certify_verdict(n + x, table)[0]:
            out.append(x)
    return out


def _pair_mask(s: int, mask: np.ndarray) -> np.ndarray:
    """Whether s/2 - y and s/2 + y are both prime, for y in [0, s/2 - 2].

    s is even and >= 4. Past s = 4 the last entry pairs 2 with an even
    number above 2, so it is never set.
    """
    m = s // 2
    return mask[2 : m + 1][::-1] & mask[m : 2 * m - 1]


def _pair_count(s: int, mask: np.ndarray) -> int:
    """Number of splits s = p + r with p <= r both prime, s even >= 4."""
    return int(np.count_nonzero(_pair_mask(s, mask)))


def _first_pair_y(s: int, prime: memoryview) -> int | None:
    """Smallest y >= 0 with s/2 - y and s/2 + y both prime, s even >= 4;
    prime is the buffer (``.data``) of a primality mask, which indexes
    faster than the array itself. A caller that scans many s takes it once."""
    m = s // 2
    if m == 2:
        return 0  # 4 = 2 + 2
    # p = m - y and r = m + y must be odd primes once m > 2, fixing y's parity;
    # y = m - 2 would put p = 2 against an even r > 2, so stop at m - 3
    y = 0 if m % 2 else 1
    while y <= m - 3:
        if prime[m - y] and prime[m + y]:
            return y
        y += 2
    return None


def first_pair_y_block(m: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The smallest y >= 0 with m - y and m + y both prime, for every m >= 2
    of an array, or -1 where there is none, as int64.

    The block form of the scan behind the first witnesses: each m walks the
    primes r >= m upward and tests whether 2m - r is prime too, so y = r - m
    and an m takes about y / ln m probes. Each round takes one step for
    every m still open, and closes an m once it has its pair, once
    2m - r < 3 or once it runs out of primes. mask is any primality mask
    reaching 2 max(m) - 3, the sieve's is_prime_mask or a certify block
    from 0; the walked primes are its own.
    """
    m = np.asarray(m, dtype=np.int64)
    out = np.full(m.shape, -1, dtype=np.int64)
    out[m == 2] = 0  # 4 = 2 + 2
    at = np.flatnonzero(m > 2)
    if not at.size:
        return out
    m = m[at]
    first, top = int(m.min()), 2 * int(m.max()) - 2
    # the primes an m can reach, m <= r <= 2m - 3, then top: 2m - top < 3
    # for every m, so a walk that runs out of primes closes there
    primes = np.append(np.flatnonzero(mask[first:top]) + first, top)
    k = np.searchsorted(primes, m)  # the index of the first prime r >= m
    open_ = np.ones(at.shape, dtype=np.bool_)
    found = np.zeros(at.shape, dtype=np.bool_)
    while True:
        r = primes.take(k)
        lo = 2 * m - r
        open_ &= lo >= 3  # y <= m - 3
        left = np.count_nonzero(open_)
        if 2 * left <= open_.size:  # also when no m is left open
            out[at[found]] = r[found] - m[found]
            if not left:
                return out
            at, m, k, lo, open_, found = _compact(open_, at, m, k, lo, open_, found)
        # a closed m may point outside the mask; its lookup is discarded
        hit = mask.take(lo, mode="clip")
        hit &= open_
        found |= hit
        open_ &= ~hit
        np.add(k, 1, out=k, where=open_)


def _compact(keep: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries of each array where keep is set.

    The block rounds compact only once half their entries are closed, and
    allocate nothing sized by a round's hits, so that their arrays take few
    distinct sizes: numpy keeps freed buffers below 1 KiB for reuse by
    size, and hundreds of sizes would leave hundreds of them held.
    """
    return tuple(a[keep] for a in arrays)


def _odd_prime_bound(n: int, table: SpfTable) -> int:
    """Index bounding the odd primes q <= n - 4 usable as a middle component."""
    return bisect_right(table.prime_list, n - 4)


def ternary_solutions(n: int, table: SpfTable) -> list[TernaryWitness]:
    """Every (x, y) on the chain with all three components prime, by (x, y).

    x ascending is the middle prime q = 2x - n ascending; for fixed q the
    remaining even total n - q splits as (p, r) = ((n-q)/2 - y, (n-q)/2 + y).
    """
    _validate_odd_n(n, table)
    mask = table.is_prime_mask
    plist = table.prime_list
    out: list[TernaryWitness] = []
    for i in range(1, _odd_prime_bound(n, table)):
        q = plist[i]
        m = (n - q) // 2
        x = (n + q) // 2
        for y in np.nonzero(_pair_mask(n - q, mask))[0].tolist():
            out.append(TernaryWitness(n=n, x=x, y=y, p=m - y, q=q, r=m + y))
    return out


def ternary_count(n: int, table: SpfTable) -> int:
    """len(ternary_solutions(n)) without materializing witnesses."""
    _validate_odd_n(n, table)
    mask = table.is_prime_mask
    plist = table.prime_list
    return sum(
        _pair_count(n - plist[i], mask) for i in range(1, _odd_prime_bound(n, table))
    )


def first_ternary_witness(n: int, table: SpfTable) -> TernaryWitness | None:
    _validate_odd_n(n, table)
    prime = table.is_prime_mask.data
    plist = table.prime_list
    for i in range(1, _odd_prime_bound(n, table)):
        q = plist[i]
        y = _first_pair_y(n - q, prime)
        if y is not None:
            m = (n - q) // 2
            return TernaryWitness(n=n, x=(n + q) // 2, y=y, p=m - y, q=q, r=m + y)
    return None


def peculiar_solutions(n: int, table: SpfTable) -> list[TernaryWitness]:
    """The witnesses whose first two components multiply to a multiple of 3.

    Since p and q are prime, p * q == 0 (mod 3) means p = 3 or q = 3.
    """
    return [w for w in ternary_solutions(n, table) if (w.p * w.q) % 3 == 0]


def peculiar_count(n: int, table: SpfTable) -> int:
    """len(peculiar_solutions(n)) without enumerating all triples."""
    _validate_odd_n(n, table)
    mask = table.is_prime_mask
    # q = 3 branch: any pair split of n - 3 qualifies
    count = _pair_count(n - 3, mask)
    # p = 3 branch with q != 3: q >= 5 and r = n - 3 - q >= 3 both prime
    qs = np.flatnonzero(mask[5 : n - 5]) + 5
    count += int(np.count_nonzero(mask[n - 3 - qs]))
    return count


def first_peculiar_witness(n: int, table: SpfTable) -> TernaryWitness | None:
    """Lexicographically first peculiar witness, or None.

    q = 3 minimizes x, so its lowest-y witness is the global first. No
    witness has p = 3 without one having q = 3: with p = 3, q >= 5 and
    r >= 3, q + r = n - 3 splits into two odd primes, which is a q = 3
    witness.
    """
    _validate_odd_n(n, table)
    y = _first_pair_y(n - 3, table.is_prime_mask.data)
    if y is None:
        return None
    m = (n - 3) // 2
    return TernaryWitness(n=n, x=(n + 3) // 2, y=y, p=m - y, q=3, r=m + y)


def _exact_convolution(a: np.ndarray, b: np.ndarray, keep: int) -> np.ndarray:
    """The first ``keep`` terms of the linear convolution of two
    nonnegative integer arrays, as int64, from one float64 FFT.

    The result is rejected unless every value lies within 0.25 of an
    integer and the rounded values sum to sum(a) * sum(b) exactly. Passing
    ``b is a`` reuses one spectrum for a self-convolution.
    """
    size = len(a) + len(b) - 1
    length = 1 << (size - 1).bit_length()  # a power of two keeps the FFT fast
    spectrum = np.fft.rfft(a, length)
    spectrum *= spectrum if b is a else np.fft.rfft(b, length)
    values = np.fft.irfft(spectrum, length)[:size]
    del spectrum
    rounded = np.rint(values)
    values -= rounded
    worst = float(np.abs(values, out=values).max())
    if worst >= 0.25:
        raise ArithmeticError(
            f"FFT convolution of length {length} is not exact: "
            f"a value lies {worst:.3g} from the nearest integer"
        )
    total = int(np.sum(rounded, dtype=np.int64))
    expected = int(a.sum()) * int(b.sum())
    if total != expected:
        raise ArithmeticError(
            f"FFT convolution of length {length} is not exact: "
            f"rounded values sum to {total}, expected {expected}"
        )
    return rounded[:keep].astype(np.int64)


def _count_table_bytes(task: str, hi: int) -> tuple[int, str]:
    """What count_table(task, hi) holds at its peak, and what it is: 8 bytes
    per n of counts, 17 per packed odd value (its byte, ordered and half)
    and 36 per point of one FFT (ternary's second is as long), its result
    included: at 2^20 to 2^24 points tracemalloc puts numpy's buffers at
    20, and RSS grows by 32-33 with pocketfft's work space (numpy 2.4)."""
    odd = hi if task == "binary" else (hi + 1) // 2
    length = 1 << (2 * odd - 2).bit_length()  # as _exact_convolution picks it
    nbytes = 8 * (hi + 1) + 17 * odd + 36 * length
    return nbytes, f"FFT convolution of length {length}"


def count_table(task: str, hi: int, mask: np.ndarray) -> np.ndarray:
    """The count of one task for every n <= hi, as an int64 array indexed by n.

    task "binary" gives binary_count(n) for n >= 2; "ternary" and
    "peculiar" give ternary_count(n) and peculiar_count(n) for odd n > 5.
    Every other entry is 0. mask is the sieve's is_prime_mask or a certify
    block from 0, through 2 hi - 1 for "binary" and hi otherwise. Only its
    odd values are read, packed so that index i holds 2i + 1. The
    self-convolution of that packed mask counts ordered odd-prime pairs of
    each even total; "ternary" convolves the pair counts with it once more.
    Raises ArithmeticError if a convolution is inexact.
    """
    if task not in ("binary", "ternary", "peculiar"):
        raise ValueError(f"no count table for task {task!r}")
    if hi < 0:
        raise ValueError(f"hi must be >= 0, got {hi}")
    top = 2 * hi - 1 if task == "binary" else hi  # the largest value read
    if top >= len(mask):
        raise ValueError(
            f"counts through n = {hi} need primality through {top}, "
            f"mask stops at {len(mask) - 1}"
        )
    counts = np.zeros(hi + 1, dtype=np.int64)
    if hi < 2:
        return counts  # no eligible n, and no odd value to pack
    odd = mask[1 : top + 1 : 2].astype(np.uint8)  # odd[i]: is 2i + 1 prime
    # ordered[k] counts ordered odd-prime pairs of the total 2k + 2
    ordered = _exact_convolution(odd, odd, len(odd))
    # half[a] counts splits 2a = p + r with p <= r prime: for a >= 3 both are
    # odd, and each pair p < r appears twice in ordered[a - 1]
    half = np.append(0, ordered)
    half[1::2] += odd[: len(half) // 2]  # p = r = a, for odd a
    half //= 2
    half[2:3] = 1  # 4 = 2 + 2
    if task == "binary":
        counts[2:] = half[2:]
    elif task == "ternary":
        # n = 2b + 1 sums half[b - j] over odd primes q = 2j + 1
        counts[7::2] = _exact_convolution(half, odd, len(odd))[3:]
    else:
        # n = 2b + 1; q = 3 branch: pair splits of n - 3 = 2(b - 1); p = 3
        # branch: ordered odd-prime pairs (q, r) of n - 3 whose q is not 3
        b = np.arange(3, len(odd))
        counts[2 * b + 1] = half[b - 1] + ordered[b - 2] - odd[b - 3]
    return counts


def two_prime_sum_exists(total: int, table: SpfTable) -> bool:
    """Whether total = p + q for primes p <= q, including 2 + 2 = 4."""
    if total > table.limit:
        raise ValueError(f"total {total} is beyond the table limit {table.limit}")
    if total < 4:
        return False
    prime = table.is_prime_mask.data
    plist = table.prime_list
    for i in range(bisect_right(plist, total // 2)):
        if prime[total - plist[i]]:
            return True
    return False


def _two_prime_sums(totals: np.ndarray, table: SpfTable) -> np.ndarray:
    """two_prime_sum_exists for every total of an array, by rounds over the
    primes up to max(totals) / 2: round p tests whether total - p is prime
    for every total still open with p <= total / 2, smallest p first."""
    out = np.zeros(len(totals), dtype=np.bool_)
    at = np.arange(len(totals))
    rest = np.array(totals, dtype=np.int64)  # total - p, stepped in place
    open_ = np.ones(at.shape, dtype=np.bool_)
    found = np.zeros(at.shape, dtype=np.bool_)
    mask = table.is_prime_mask
    primes = np.flatnonzero(mask[: int(np.max(rest, initial=0)) // 2 + 1])
    prev = 0
    for p in primes.tolist():
        rest -= p - prev
        prev = p
        open_ &= rest >= p
        left = np.count_nonzero(open_)
        if 2 * left <= open_.size:  # also when no total is left open
            out[at[found]] = True
            if not left:
                break
            at, rest, open_, found = _compact(open_, at, rest, open_, found)
        hit = mask.take(rest, mode="clip")
        hit &= open_
        found |= hit
        open_ &= ~hit
    out[at[found]] = True  # found since the last compaction, past the last p
    return out


def proposition_check(n: int, table: SpfTable) -> bool:
    """Equivalence at a single odd n > 5: a triple split containing the
    prime 3 exists iff n - 3 is a sum of two primes (2 + 2 included)."""
    _validate_odd_n(n, table)
    has_triple_with_3 = first_peculiar_witness(n, table) is not None
    return has_triple_with_3 == two_prime_sum_exists(n - 3, table)


def decomposition_to_xy(p: int, q: int, r: int, n: int) -> tuple[int, int]:
    """Invert a canonical triple (p <= r, odd middle q) to its (x, y).

    x = (n + q) / 2 and y = (r - p) / 2, both integral under the parity
    preconditions; the witness definition then maps (x, y) back onto
    (p, q, r) and the chain 0 <= y < x < x+y+2 < n+1 < 2x holds.
    """
    for name, v in (("p", p), ("q", q), ("r", r)):
        if v < 2:
            raise ValueError(f"{name} must be a prime >= 2, got {v}")
    if p + q + r != n:
        raise ValueError(f"p + q + r = {p + q + r} != n = {n}")
    if n % 2 == 0 or n <= 5:
        raise ValueError(f"n must be odd and > 5, got {n}")
    if q % 2 == 0:
        raise ValueError(f"the middle component must be odd, got {q}")
    if p > r:
        raise ValueError(f"expected p <= r, got p = {p}, r = {r}")
    if (r - p) % 2:
        raise ValueError(f"p and r must share parity, got {p} and {r}")
    return (n + q) // 2, (r - p) // 2
