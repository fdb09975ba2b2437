"""The universal-hashing name reduction (Section 1.1.2 and [4]).

The TINN schemes assume names are a permutation of ``{0..n-1}``.  The
paper notes (citing [4]) that nodes choosing their own names from a
large space can be supported: pick a universal hash function ``h``
mapping the wild names to ``{0..n-1}``; collisions are rare, and each
dictionary slot simply stores the (short) list of wild names hashing to
it, blowing tables up by only a constant factor.  Crucially the hash
family is chosen *after* the adversary fixes the names (footnote 5).

This module implements:

* :class:`CarterWegmanHash` — the classic ``((a*x + b) mod p) mod n``
  universal family;
* :class:`HashedNaming` — the end-to-end reduction: wild names ->
  slots in ``{0..n-1}``, exposing per-slot buckets, the maximum bucket
  size (the table blow-up factor), and collision statistics.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.exceptions import NamingError


def _is_probable_prime(x: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-ish integers."""
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if x % p == 0:
            return x == p
    d = x - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        v = pow(a, d, x)
        if v in (1, x - 1):
            continue
        for _ in range(s - 1):
            v = v * v % x
            if v == x - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    """Smallest prime ``>= x``."""
    if x <= 2:
        return 2
    candidate = x | 1
    while not _is_probable_prime(candidate):
        candidate += 2
    return candidate


class CarterWegmanHash:
    """Universal hash ``x -> ((a*x + b) mod p) mod n``.

    Args:
        universe_bound: exclusive upper bound on hashed keys.
        n: output range size.
        rng: randomness for drawing ``a`` (nonzero) and ``b``.
    """

    def __init__(self, universe_bound: int, n: int, rng: Optional[random.Random] = None):
        if universe_bound < 1 or n < 1:
            raise NamingError("universe_bound and n must be positive")
        rng = rng or random.Random(0)
        self._p = next_prime(max(universe_bound, n + 1))
        self._a = rng.randrange(1, self._p)
        self._b = rng.randrange(0, self._p)
        self._n = n

    @property
    def p(self) -> int:
        """The prime modulus."""
        return self._p

    def __call__(self, x: int) -> int:
        if not (0 <= x < self._p):
            raise NamingError(f"key {x} outside hash universe [0, {self._p})")
        return ((self._a * x + self._b) % self._p) % self._n


class HashedNaming:
    """Reduction from arbitrary unique "wild" names to slots ``[n]``.

    Args:
        wild_names: the adversary-chosen unique node names (one per
            vertex, ``wild_names[vertex]``), drawn from a large space.
        universe_bound: exclusive upper bound on wild-name values.
        rng: used to draw the hash function *after* names are fixed.
        max_expected_load: retry drawing the hash function until the
            max bucket size is at most this (constant) bound; mirrors
            the paper's "small numbers of collisions" requirement.

    Raises:
        NamingError: on duplicate wild names, or if no hash function
            with acceptable load is found in a reasonable number of
            draws (which for a universal family is astronomically
            unlikely at the default bound).
    """

    #: draws before giving up
    _MAX_DRAWS = 64

    def __init__(
        self,
        wild_names: Sequence[int],
        universe_bound: int,
        rng: Optional[random.Random] = None,
        max_expected_load: int = 8,
    ):
        rng = rng or random.Random(0)
        n = len(wild_names)
        if len(set(wild_names)) != n:
            raise NamingError("wild names must be unique")
        for w in wild_names:
            if not (0 <= w < universe_bound):
                raise NamingError(
                    f"wild name {w} outside universe [0, {universe_bound})"
                )
        self._wild: List[int] = list(wild_names)
        self._n = n
        attempt = 0
        while True:
            attempt += 1
            h = CarterWegmanHash(universe_bound, n, rng)
            buckets: Dict[int, List[int]] = {}
            for vertex, w in enumerate(self._wild):
                buckets.setdefault(h(w), []).append(vertex)
            load = max(len(b) for b in buckets.values())
            if load <= max_expected_load:
                break
            if attempt >= self._MAX_DRAWS:
                raise NamingError(
                    f"could not find hash with load <= {max_expected_load} "
                    f"after {self._MAX_DRAWS} draws (last load {load})"
                )
        self._hash = h
        self._buckets = buckets

    @property
    def n(self) -> int:
        """Number of nodes (= output range size)."""
        return self._n

    def slot_of_wild(self, wild_name: int) -> int:
        """The slot in ``{0..n-1}`` a wild name hashes to."""
        return self._hash(wild_name)

    def slot_of_vertex(self, vertex: int) -> int:
        """The slot of the vertex's own wild name."""
        return self._hash(self.wild_of_vertex(vertex))

    def wild_of_vertex(self, vertex: int) -> int:
        """The vertex's wild name.

        Raises:
            NamingError: for a vertex outside ``[0, n)``.
        """
        if not 0 <= vertex < self._n:
            raise NamingError(f"vertex {vertex} out of range [0, {self._n})")
        return self._wild[vertex]

    def bucket(self, slot: int) -> List[int]:
        """Vertices whose wild names hash to ``slot`` (may be empty)."""
        return list(self._buckets.get(slot, []))

    def resolve(self, wild_name: int) -> int:
        """Find the vertex carrying ``wild_name``.

        This is what a dictionary node does: hash, then scan the short
        bucket.  Raises :class:`NamingError` if no vertex has the name.
        """
        for vertex in self._buckets.get(self._hash(wild_name), []):
            if self._wild[vertex] == wild_name:
                return vertex
        raise NamingError(f"no vertex has wild name {wild_name}")

    # ------------------------------------------------------------------
    # statistics for the E10 experiment
    # ------------------------------------------------------------------
    def max_load(self) -> int:
        """Largest bucket size — the table blow-up factor."""
        return max(len(b) for b in self._buckets.values())

    def collision_count(self) -> int:
        """Number of name pairs sharing a slot."""
        return sum(
            len(b) * (len(b) - 1) // 2 for b in self._buckets.values()
        )

    def occupied_slots(self) -> int:
        """Number of distinct slots in use."""
        return len(self._buckets)


def random_wild_names(
    n: int, universe_bound: int, rng: Optional[random.Random] = None
) -> List[int]:
    """Draw ``n`` distinct wild names uniformly from the universe.

    Uses rejection sampling for universes too large for
    ``random.sample`` (e.g. ``2**64``).
    """
    rng = rng or random.Random(0)
    if universe_bound < n:
        raise NamingError("universe must be at least as large as n")
    if universe_bound <= 1 << 24:
        return rng.sample(range(universe_bound), n)
    seen: set[int] = set()
    while len(seen) < n:
        seen.add(rng.randrange(universe_bound))
    return sorted(seen)
