"""Tests for adversarial namings, blocks/prefixes, and the hash reduction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NamingError
from repro.naming.blocks import BlockSpace, block_count_bound, sqrt_block_space
from repro.naming.hashing import (
    CarterWegmanHash,
    HashedNaming,
    next_prime,
    random_wild_names,
)
from repro.naming.permutation import (
    Naming,
    identity_naming,
    random_naming,
    worst_case_namings,
)


class TestNaming:
    def test_identity(self):
        nm = identity_naming(5)
        for v in range(5):
            assert nm.name_of(v) == v
            assert nm.vertex_of(v) == v

    def test_bijection(self):
        nm = Naming([2, 0, 1, 3])
        for v in range(4):
            assert nm.vertex_of(nm.name_of(v)) == v
        for name in range(4):
            assert nm.name_of(nm.vertex_of(name)) == name

    def test_rejects_non_permutation(self):
        with pytest.raises(NamingError):
            Naming([0, 0, 1])
        with pytest.raises(NamingError):
            Naming([1, 2, 3])

    def test_out_of_range_lookup(self):
        nm = identity_naming(3)
        with pytest.raises(NamingError):
            nm.name_of(3)
        with pytest.raises(NamingError):
            nm.vertex_of(-1)

    def test_random_naming_is_permutation(self):
        nm = random_naming(40, random.Random(5))
        assert sorted(nm.all_names()) == list(range(40))

    def test_random_naming_reproducible(self):
        a = random_naming(20, random.Random(9))
        b = random_naming(20, random.Random(9))
        assert a == b

    def test_worst_case_batch_distinct(self):
        batch = worst_case_namings(6, 5, random.Random(1))
        assert len(batch) == 5
        reprs = {tuple(nm.all_names()) for nm in batch}
        assert len(reprs) == 5

    @given(st.integers(min_value=1, max_value=60), st.integers())
    @settings(max_examples=30, deadline=None)
    def test_random_naming_property(self, n: int, seed: int):
        nm = random_naming(n, random.Random(seed))
        assert sorted(nm.all_names()) == list(range(n))


class TestBlockSpace:
    def test_sqrt_space_matches_paper(self):
        bs = sqrt_block_space(36)
        assert bs.k == 2
        assert bs.q == 6
        assert bs.num_blocks() == 6
        # B_i holds names i*sqrt(n) .. (i+1)*sqrt(n)-1
        assert bs.block_members(0) == [0, 1, 2, 3, 4, 5]
        assert bs.block_members(5) == [30, 31, 32, 33, 34, 35]

    def test_non_perfect_square(self):
        bs = sqrt_block_space(10)
        assert bs.q == 4  # ceil(sqrt(10))
        members = [bs.block_members(b) for b in range(bs.num_blocks())]
        flat = [x for m in members for x in m]
        assert flat == list(range(10))

    def test_digits_roundtrip(self):
        bs = BlockSpace(27, 3)
        for name in range(27):
            assert bs.from_digits(bs.digits(name)) == name

    def test_digits_base(self):
        bs = BlockSpace(27, 3)
        assert bs.q == 3
        assert bs.digits(0) == (0, 0, 0)
        assert bs.digits(26) == (2, 2, 2)
        assert bs.digits(14) == (1, 1, 2)

    def test_prefix(self):
        bs = BlockSpace(27, 3)
        assert bs.prefix(14, 0) == ()
        assert bs.prefix(14, 2) == (1, 1)
        assert bs.prefix(14, 3) == (1, 1, 2)

    def test_prefix_bounds(self):
        bs = BlockSpace(27, 3)
        with pytest.raises(NamingError):
            bs.prefix(0, 4)
        with pytest.raises(NamingError):
            bs.prefix(0, -1)

    def test_shares_prefix(self):
        bs = BlockSpace(27, 3)
        # 15 = (1,2,0), 14 = (1,1,2): share only the first digit
        assert bs.shares_prefix(15, 14, 1)
        assert not bs.shares_prefix(15, 14, 2)

    def test_match_length(self):
        bs = BlockSpace(27, 3)
        assert bs.match_length(14, 14) == 3
        assert bs.match_length(15, 14) == 1
        assert bs.match_length(12, 14) == 2  # (1,1,0) vs (1,1,2)
        assert bs.match_length(0, 26) == 0

    def test_block_of_consistency(self):
        bs = BlockSpace(30, 3)
        for name in range(30):
            assert name in bs.block_members(bs.block_of(name))

    def test_block_prefix_matches_members(self):
        bs = BlockSpace(27, 3)
        for b in range(bs.num_blocks()):
            pref = bs.block_prefix(b)
            for name in bs.block_members(b):
                assert bs.prefix(name, bs.k - 1) == pref

    def test_block_has_prefix(self):
        bs = BlockSpace(27, 3)
        assert bs.block_has_prefix(4, (1,))  # block 4 = digits (1,1)
        assert bs.block_has_prefix(4, ())
        assert not bs.block_has_prefix(4, (0,))

    def test_blocks_with_prefix_partition(self):
        bs = BlockSpace(27, 3)
        all_blocks = []
        for d in range(bs.q):
            all_blocks.extend(bs.blocks_with_prefix((d,)))
        assert sorted(all_blocks) == list(range(bs.num_blocks()))

    def test_k1_degenerate(self):
        bs = BlockSpace(7, 1)
        assert bs.num_blocks() == 1
        assert bs.block_members(0) == list(range(7))
        assert bs.block_of(3) == 0

    def test_invalid_params(self):
        with pytest.raises(NamingError):
            BlockSpace(0, 2)
        with pytest.raises(NamingError):
            BlockSpace(10, 0)

    def test_bound_helper(self):
        assert block_count_bound(36, 2) >= BlockSpace(36, 2).num_blocks()
        assert block_count_bound(100, 3) >= BlockSpace(100, 3).num_blocks()
        # 32 ** (4 / 5) is 16.000000000000004 in floats; the root is 16
        assert block_count_bound(32, 5) == 17

    @given(
        st.integers(min_value=2, max_value=500),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_namespace(self, n: int, k: int):
        bs = BlockSpace(n, k)
        seen = []
        for b in range(bs.num_blocks()):
            seen.extend(bs.block_members(b))
        assert sorted(seen) == list(range(n))
        assert bs.q ** bs.k >= n

    @given(
        st.integers(min_value=2, max_value=500),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_alphabet_is_minimal(self, n: int, k: int):
        bs = BlockSpace(n, k)
        assert (bs.q - 1) ** k < n or bs.q == 1


class TestHashing:
    def test_next_prime(self):
        assert next_prime(2) == 2
        assert next_prime(10) == 11
        assert next_prime(14) == 17
        assert next_prime(1_000_000) == 1_000_003

    def test_hash_range(self):
        h = CarterWegmanHash(10 ** 9, 50, random.Random(3))
        for x in range(0, 10 ** 6, 99991):
            assert 0 <= h(x) < 50

    def test_hash_out_of_universe(self):
        h = CarterWegmanHash(100, 10, random.Random(1))
        with pytest.raises(NamingError):
            h(h.p + 5)

    def test_hashed_naming_resolves_all(self):
        rng = random.Random(7)
        wild = random_wild_names(64, 2 ** 40, rng)
        hn = HashedNaming(wild, 2 ** 40, rng)
        for vertex, w in enumerate(wild):
            assert hn.resolve(w) == vertex
            assert hn.slot_of_vertex(vertex) == hn.slot_of_wild(w)
            assert hn.wild_of_vertex(vertex) == w

    def test_unknown_wild_name_raises(self):
        rng = random.Random(8)
        wild = random_wild_names(16, 2 ** 30, rng)
        hn = HashedNaming(wild, 2 ** 30, rng)
        missing = next(x for x in range(2 ** 30) if x not in set(wild))
        with pytest.raises(NamingError):
            hn.resolve(missing)

    def test_vertex_range_checked_like_naming(self):
        # a negative vertex must not wrap around to the last wild name
        wild = [11, 22, 33, 44]
        hn = HashedNaming(wild, 100, random.Random(0))
        assert [hn.wild_of_vertex(v) for v in range(4)] == wild
        for vertex in (-1, 4):
            with pytest.raises(NamingError):
                hn.wild_of_vertex(vertex)
            with pytest.raises(NamingError):
                hn.slot_of_vertex(vertex)

    def test_duplicate_wild_names_rejected(self):
        with pytest.raises(NamingError):
            HashedNaming([5, 5, 6], 100, random.Random(0))

    def test_load_is_small(self):
        rng = random.Random(9)
        wild = random_wild_names(256, 2 ** 48, rng)
        hn = HashedNaming(wild, 2 ** 48, rng)
        assert hn.max_load() <= 8  # the constant blow-up of the paper
        assert hn.occupied_slots() >= 256 // 8

    def test_collision_count_consistent(self):
        rng = random.Random(10)
        wild = random_wild_names(100, 2 ** 32, rng)
        hn = HashedNaming(wild, 2 ** 32, rng)
        # collisions = sum over buckets of C(size, 2)
        total = sum(
            len(hn.bucket(s)) * (len(hn.bucket(s)) - 1) // 2
            for s in range(hn.n)
        )
        assert hn.collision_count() == total

    def test_hash_chosen_after_names_defeats_adversary(self):
        # Adversarially clustered names still spread out because the
        # hash is drawn after they are fixed (footnote 5).
        rng = random.Random(11)
        wild = [i * 1000 for i in range(128)]  # structured names
        hn = HashedNaming(wild, 2 ** 20, rng)
        assert hn.max_load() <= 8

    def test_universe_too_small(self):
        with pytest.raises(NamingError):
            random_wild_names(10, 5, random.Random(0))

    @given(st.integers(min_value=1, max_value=200), st.integers())
    @settings(max_examples=25, deadline=None)
    def test_resolution_property(self, n: int, seed: int):
        rng = random.Random(seed)
        wild = random_wild_names(n, max(n, 2 ** 24), rng)
        hn = HashedNaming(wild, max(n, 2 ** 24), rng)
        for vertex in range(0, n, max(1, n // 10)):
            assert hn.resolve(wild[vertex]) == vertex
