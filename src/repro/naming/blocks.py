"""Address-space blocks and base-``n^{1/k}`` prefix arithmetic.

Section 2 splits the name space ``{0..n-1}`` into ``sqrt(n)``-sized
blocks ``B_i``.  Section 3.1 generalizes: names are written in base
``q = ceil(n^{1/k})`` as length-``k`` strings over the alphabet
``Sigma = {0..q-1}``; a *block* ``B_alpha`` is the set of names sharing
a length-``(k-1)`` prefix ``alpha``; ``sigma^i`` extracts length-``i``
prefixes.

The paper assumes ``n`` is a perfect ``k``-th power "for simplicity".
We drop that assumption: :class:`BlockSpace` uses ``q = ceil(n^{1/k})``
and simply allows the top block(s) to be partially filled, which
changes no bound by more than a constant factor.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.exceptions import NamingError
from repro.graph.roundtrip import level_size


class BlockSpace:
    """Base-``q`` block/prefix structure over the name space ``[n]``.

    Args:
        n: name-space size.
        k: number of digits (levels); ``k = 2`` reproduces Section 2's
            ``sqrt(n)`` blocks.

    Attributes:
        q: the alphabet size ``ceil(n^{1/k})``
            (:func:`~repro.graph.roundtrip.level_size`).
    """

    def __init__(self, n: int, k: int):
        if n <= 0:
            raise NamingError(f"n must be positive, got {n}")
        if k < 1:
            raise NamingError(f"k must be >= 1, got {k}")
        self._n = n
        self._k = k
        self._q = level_size(n, 1, k)

    @property
    def n(self) -> int:
        """Name-space size."""
        return self._n

    @property
    def k(self) -> int:
        """Digit count."""
        return self._k

    @property
    def q(self) -> int:
        """Alphabet size ``|Sigma|``."""
        return self._q

    # ------------------------------------------------------------------
    # digits and prefixes
    # ------------------------------------------------------------------
    def digits(self, name: int) -> Tuple[int, ...]:
        """``<u>``: the base-``q`` digits of ``name``, most significant
        first, zero-padded to length ``k``."""
        self._check_name(name)
        out = []
        x = name
        for _ in range(self._k):
            out.append(x % self._q)
            x //= self._q
        return tuple(reversed(out))

    def from_digits(self, digits: Tuple[int, ...]) -> int:
        """Inverse of :meth:`digits` (may exceed ``n-1`` for padded
        spaces; the caller checks with :meth:`is_name`)."""
        if len(digits) != self._k:
            raise NamingError(f"need exactly k={self._k} digits, got {len(digits)}")
        x = 0
        for d in digits:
            if not (0 <= d < self._q):
                raise NamingError(f"digit {d} out of range [0, {self._q})")
            x = x * self._q + d
        return x

    def is_name(self, value: int) -> bool:
        """Whether ``value`` is a valid name (``< n``)."""
        return 0 <= value < self._n

    def prefix(self, name: int, i: int) -> Tuple[int, ...]:
        """``sigma^i(<name>)``: the first ``i`` digits."""
        if not (0 <= i <= self._k):
            raise NamingError(f"prefix length {i} out of range [0, {self._k}]")
        return self.digits(name)[:i]

    def shares_prefix(self, a: int, b: int, i: int) -> bool:
        """Whether names ``a`` and ``b`` agree on their first ``i``
        digits."""
        return self.prefix(a, i) == self.prefix(b, i)

    def match_length(self, a: int, b: int) -> int:
        """The longest common digit-prefix length of names ``a``, ``b``."""
        da, db = self.digits(a), self.digits(b)
        h = 0
        while h < self._k and da[h] == db[h]:
            h += 1
        return h

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------
    def num_blocks(self) -> int:
        """Number of non-empty blocks (length-``(k-1)`` prefixes that
        contain at least one valid name)."""
        if self._k == 1:
            return 1
        # Block alpha covers names [alpha*q, (alpha+1)*q); count those
        # intersecting [0, n).
        return (self._n + self._q - 1) // self._q

    def block_of(self, name: int) -> int:
        """The block index (the length-``(k-1)`` prefix, packed as an
        integer) containing ``name``."""
        self._check_name(name)
        if self._k == 1:
            return 0
        return name // self._q

    def block_prefix(self, block: int) -> Tuple[int, ...]:
        """The length-``(k-1)`` digit string of ``block``."""
        self._check_block(block)
        out = []
        x = block
        for _ in range(self._k - 1):
            out.append(x % self._q)
            x //= self._q
        return tuple(reversed(out))

    def block_members(self, block: int) -> List[int]:
        """All valid names in ``B_block`` (at most ``q``)."""
        self._check_block(block)
        if self._k == 1:
            return list(range(self._n))
        lo = block * self._q
        hi = min(lo + self._q, self._n)
        return list(range(lo, hi))

    def block_has_prefix(self, block: int, tau: Tuple[int, ...]) -> bool:
        """``sigma^i(B_block) == tau`` where ``i = len(tau)``
        (the paper's slight abuse of notation for block prefixes)."""
        i = len(tau)
        if not (0 <= i <= self._k - 1):
            raise NamingError(
                f"block prefixes have length <= k-1={self._k - 1}, got {i}"
            )
        return self.block_prefix(block)[:i] == tuple(tau)

    def blocks_with_prefix(self, tau: Tuple[int, ...]) -> List[int]:
        """All non-empty blocks whose prefix extends ``tau``."""
        return [
            b for b in range(self.num_blocks()) if self.block_has_prefix(b, tau)
        ]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_name(self, name: int) -> None:
        if not self.is_name(name):
            raise NamingError(f"name {name} out of range [0, {self._n})")

    def _check_block(self, block: int) -> None:
        if not (0 <= block < self.num_blocks()):
            raise NamingError(
                f"block {block} out of range [0, {self.num_blocks()})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockSpace(n={self._n}, k={self._k}, q={self._q})"


def sqrt_block_space(n: int) -> BlockSpace:
    """Section 2's block structure: ``k = 2``, i.e. ``~sqrt(n)`` blocks
    of ``~sqrt(n)`` names each."""
    return BlockSpace(n, 2)


def block_count_bound(n: int, k: int) -> int:
    """Upper bound ``ceil(n^{(k-1)/k}) + 1`` on the number of blocks,
    used by size assertions in tests and benchmarks (the root in exact
    integers, :func:`~repro.graph.roundtrip.level_size`)."""
    return level_size(n, k - 1, k) + 1
