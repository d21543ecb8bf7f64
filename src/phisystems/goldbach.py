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
Sweeps in count mode read it, or on a narrow range the mask-level kernels
that ``binary_count`` and ``peculiar_count`` call, one n at a time; the
per-n functions stay the reference it is tested against. A float
convolution is accepted only when every value lies within 0.25 of an
integer and the rounded values sum to the product of the input sums, an
exact integer identity; otherwise it raises, with no fallback.

``first_pair_y_block`` gives the first pair witness of every total 2m of a
block at once, in two phases. On a run of consecutive m, as sweeps pass,
an offset phase tries one offset y at a time on every m of a parity class,
whose values m - y and m + y are two contiguous slices of the mask's odd
values, as bitmap verifications sweep a whole segment of n (Oliveira e
Silva, Herzog and Pardi). The few m it leaves open, and the smallest m,
walk the primes r of the mask upward from there and test whether 2m - r
is prime, about y / ln m probes for an offset y, reading a window a
margin past the block, and again over a wider one if it runs out.
Sweeps read their pair and triple first witnesses from it, and the scalar
scans (``first_binary_witness``, ``first_peculiar_witness``,
``two_prime_sum_exists``) stay the reference it is tested against.
"""

import itertools
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


# The window a pair walk reads past its largest m: the largest first-pair
# offset y up to 10^7 is 2352, so below 10^7 no m is retried
_PAIR_MARGIN = 1 << 12

# The offset phase stops once fewer than 1 in _PHASE_OPEN of a class is
# open (checked every 8 steps), or after _PHASE_STEPS steps, the most a
# uint8 step count holds. A class of 2^16 m up to 5 * 10^6 is 1/16 open
# after 75-175 steps and 0.04-2 % open after 255. Over the chunks of 2^17 m
# up to 5 * 10^6 (2-vCPU guest, best of 7), stopping at 1/8 open takes
# 10-15 % longer than at 1/16, at 1/32 3-6 % less, and 127 steps take 30 %
# longer than 255.
_PHASE_OPEN = 16
_PHASE_STEPS = 255
# The phase takes the m from _PHASE_FROM up, where all _PHASE_STEPS offsets
# keep m - y >= 3, and leaves the smaller m to the walk. A lower start would
# cut the whole class at its smallest m's last offset: from 64 up, at 31
# steps, and the first chunk of 2^17 m took 13 ms where it takes 6 ms.
_PHASE_FROM = 2 * _PHASE_STEPS + 2


def first_pair_y_block(m: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The smallest y >= 0 with m - y and m + y both prime, for every m >= 2
    of an array, or -1 where there is none, as int64.

    The block form of the scan behind the first witnesses, in two phases.
    When m is a run of consecutive integers, _offset_phase first tries each
    offset y on every m >= _PHASE_FROM of one parity class at once, three
    byte passes per step. The m it leaves open, the smaller m, and every m
    of any other array, then walk from the offset y0 reached: each walks
    the primes r >= m + y0 upward and tests whether 2m - r is prime too, so
    y = r - m and an m takes about y / ln m probes. The walk reads the
    primes in [min m, max m + _PAIR_MARGIN); an m whose walk runs out of
    them before it closes is walked again over a margin eight times wider,
    until the window reaches 2 max(m) - 3, past which no m has a pair.
    mask is any primality mask reaching as far as the walks read,
    2 max(m) - 3 at most: the sieve's is_prime_mask or a certify block
    from 0; the walked primes are its own.
    """
    m = np.asarray(m, dtype=np.int64)
    run = m.size and int(m[-1]) - int(m[0]) == m.size - 1 and (np.diff(m) == 1).all()
    out = np.full(m.shape, -1, dtype=np.int64)
    out[m == 2] = 0  # 4 = 2 + 2
    start = np.zeros(m.shape, dtype=np.int64)  # the offset each walk starts at
    if run:
        _offset_phase(m, mask, out, start)
    at = np.flatnonzero((out < 0) & (m > 2))
    margin = _PAIR_MARGIN
    while at.size:
        end = _pair_walk(m[at], start[at], at, mask, margin, out)
        # an m without a pair whose candidates r <= 2m - 3 reach past the
        # window has run out of primes: it is retried, never guessed
        at = at[(out[at] < 0) & (2 * m[at] - 2 > end)]
        margin *= 8
    return out


def _offset_phase(m, mask, out, start) -> None:
    """Try the offsets y upward on the consecutive m >= _PHASE_FROM, one
    parity class at a time, and write into out the y of each m that closes,
    into start the first offset not yet tried of each m left open.

    In class c (m = c mod 2) y runs over 1 - c, 3 - c, ..., so that m - y
    and m + y are odd. The class's m are m1, m1 + 2, ..., so at step s,
    y = 1 - c + 2s, the values m - y are consecutive odd values, as are
    m + y: two contiguous slices of odd, the mask's odd values from v_lo
    copied once. Their AND closes an m; a uint8 counts the steps each m
    stays open, so a closed m has y = 1 - c + 2 steps."""
    skip = max(_PHASE_FROM - int(m[0]), 0)
    if skip >= m.size:
        return
    y_top = 2 * _PHASE_STEPS - 1  # the largest offset tried
    v_lo = (int(m[skip]) - y_top) | 1  # >= 3, the smallest odd value read
    odd = mask[v_lo : int(m[-1]) + y_top + 1 : 2].copy()  # odd[i]: is v_lo + 2i prime
    for i1 in range(skip, min(skip + 2, m.size)):
        m1, w = int(m[i1]), (m.size - i1 + 1) // 2
        c = m1 % 2
        lo, hi = (m1 - (1 - c) - v_lo) // 2, (m1 + (1 - c) - v_lo) // 2
        open_ = np.ones(w, dtype=np.bool_)
        both = np.empty(w, dtype=np.bool_)
        steps = np.zeros(w, dtype=np.uint8)
        for s in range(_PHASE_STEPS):
            np.bitwise_and(odd[lo - s : lo - s + w], odd[hi + s : hi + s + w], out=both)
            np.greater(open_, both, out=open_)
            steps += open_.view(np.uint8)
            if s % 8 == 7 and _PHASE_OPEN * np.count_nonzero(open_) < w:
                break
        y = steps.astype(np.int64)
        y *= 2
        y += 1 - c
        start[i1::2] = y
        y[open_] = -1
        out[i1::2] = y


def _pair_walk(m, y0, at, mask, margin, out) -> int:
    """Walk every m > 2 from r >= m + y0 over the primes of mask in
    [min m, end), where end = min(max m + margin, 2 max(m) - 2), and write
    each pair's y into out at the m's place in at; return end. Each round
    takes one step for every m still open, and closes an m once it has its
    pair, once 2m - r < 3 or once it runs out of primes."""
    first, top = int(m.min()), 2 * int(m.max()) - 2
    end = min(int(m.max()) + margin, top)
    # the walked primes, then top: 2m - top < 3 for every m, so a walk that
    # runs out of primes, or starts past them (y0 > m - 3), closes there
    primes = np.append(np.flatnonzero(mask[first:end]) + first, top)
    k = np.searchsorted(primes, m + y0)  # the first prime r >= m + y0
    open_ = np.ones(at.shape, dtype=np.bool_)
    found = np.zeros(at.shape, dtype=np.bool_)
    while True:
        r = primes.take(k, mode="clip")
        lo = m - r
        lo += m
        open_ &= lo >= 3  # y <= m - 3
        left = np.count_nonzero(open_)
        if 2 * left <= open_.size:  # also when no m is left open
            out[at[found]] = r[found] - m[found]
            if not left:
                return end
            del r  # not held beside the compacted arrays
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
    return _peculiar_count(n, table.is_prime_mask)


def _peculiar_count(n: int, mask: np.ndarray) -> int:
    """Number of triple splits of an odd n > 5 with p = 3 or q = 3, from a
    primality mask through n - 5, in three byte passes over it."""
    # q = 3 branch: any pair split of n - 3 qualifies
    count = _pair_count(n - 3, mask)
    # p = 3 branch with q != 3: q >= 5 and r = n - 3 - q >= 3 both prime,
    # q running up over [5, n - 6] as r runs down over [3, n - 8]
    count += int(np.count_nonzero(mask[5 : n - 5] & mask[3 : n - 7][::-1]))
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


def _packed_odd(task: str, hi: int) -> int:
    """The number of odd values count_table(task, hi) packs."""
    return hi if task == "binary" else (hi + 1) // 2


def _count_table_length(task: str, hi: int) -> int:
    """The length of count_table(task, hi)'s FFT, as _exact_convolution picks it."""
    return 1 << (2 * _packed_odd(task, hi) - 2).bit_length()


def _count_table_bytes(task: str, hi: int) -> tuple[int, str]:
    """What count_table(task, hi) holds at its peak, and what it is: 8 bytes
    per n of counts, 17 per packed odd value (its byte, ordered and half)
    and 36 per point of one FFT (ternary's second is as long), its result
    included: at 2^20 to 2^24 points tracemalloc puts numpy's buffers at
    20, and RSS grows by 32-33 with pocketfft's work space (numpy 2.4)."""
    length = _count_table_length(task, hi)
    nbytes = 8 * (hi + 1) + 17 * _packed_odd(task, hi) + 36 * length
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


# The first block of values _primes_from flattens; each next block is eight
# times wider. Nearly every total of _two_prime_sums closes on a prime below
# it, and bertrand's next prime past a chunk lies in it.
_SUM_BLOCK = 1 << 12


def _primes_from(mask: np.ndarray, lo: int, stop: int):
    """The primes of mask in [lo, stop), ascending, flattened a block at a
    time from _SUM_BLOCK values on, each block eight times wider."""
    width = _SUM_BLOCK
    while lo < stop:
        hi = min(lo + width, stop)
        yield from np.flatnonzero(mask[lo:hi]) + lo
        lo, width = hi, 8 * width


def _two_prime_sums(totals: range, table: SpfTable) -> np.ndarray:
    """two_prime_sum_exists for every total of a range, by rounds over the
    primes up to max(totals) / 2: round p tests whether total - p is prime
    for every total still open with p <= total / 2, smallest p first.

    While most totals are open, round p reads total - p of every total
    from one strided slice of the mask, a view; then the totals still open
    are compacted and each round gathers theirs."""
    out = np.zeros(len(totals), dtype=np.bool_)
    open_ = np.ones(len(totals), dtype=np.bool_)
    mask = table.is_prime_mask
    primes = _primes_from(mask, 0, totals[-1] // 2 + 1 if totals else 0)
    for p in primes:
        first = max(0, -(-(2 * p - totals.start) // totals.step))  # total >= 2p
        open_[:first] = False
        if 2 * np.count_nonzero(open_) <= open_.size:
            break
        hit = mask[totals[first] - p : totals[-1] - p + 1 : totals.step] & open_[first:]
        out[first:] |= hit
        open_[first:] ^= hit
    else:
        return out
    at = np.flatnonzero(open_)
    rest = totals.start + totals.step * at  # total - p, stepped in place
    open_ = np.ones(at.shape, dtype=np.bool_)
    found = np.zeros(at.shape, dtype=np.bool_)
    prev = 0
    for p in itertools.chain([p], primes):
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
