"""Tests for the YCSB-style workload generators."""

import random
from collections import Counter

import pytest

from repro.workloads import ycsb
from repro.workloads.ycsb import (
    MIX_READ_INTENSIVE,
    MIX_READ_WRITE,
    MIX_WRITE_INTENSIVE,
    OperationChooser,
    OperationMix,
    RecordSpec,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    _fnv1a_64,
)


def fnv1a_64_shift_loop(value):
    """The scrambler as eight shift-and-mask rounds: the reference the
    byte-loop implementation must equal."""
    hashed = 0xCBF29CE484222325
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        hashed ^= octet
        hashed = (hashed * 0x100000001B3) & ((1 << 64) - 1)
    return hashed


class TestFnvScrambler:
    def test_matches_the_shift_loop(self):
        rng = random.Random(20190325)
        values = [0, 255, 256, 2**64 - 1, 2**64 + 5, -1, -256, -(2**63), -(2**70) - 3]
        values += [rng.getrandbits(80) for _ in range(500)]
        values += [-rng.getrandbits(80) for _ in range(500)]
        for value in values:
            assert _fnv1a_64(value) == fnv1a_64_shift_loop(value), value


class TestZipfian:
    def test_values_in_range(self):
        # n = 2 is where Gray et al.'s eta is 0/0
        for item_count in (1, 2, 3, 1000):
            gen = ZipfianGenerator(item_count, seed=1)
            for _ in range(5000):
                assert 0 <= gen.next() < item_count

    def test_zeta_is_the_direct_sum(self):
        for item_count in (3, 1000, 50_000):
            for theta in (0.5, 0.99):
                gen = ZipfianGenerator(item_count, theta)
                direct = sum(1.0 / (i ** theta) for i in range(1, item_count + 1))
                assert gen._zeta_n == direct  # bit for bit: same terms, same order
                assert gen._zeta2 == 1.0 + 1.0 / 2 ** theta

    def test_second_generator_sums_nothing(self):
        ZipfianGenerator(50_000)
        before = ycsb._zeta.cache_info()
        ZipfianGenerator(50_000, seed=99)
        after = ycsb._zeta.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 2  # zeta(n) and zeta(2)

    def test_skew_toward_low_items(self):
        gen = ZipfianGenerator(1000, seed=1)
        counts = Counter(gen.next() for _ in range(20000))
        top10 = sum(counts[i] for i in range(10))
        # with theta=0.99, the top-10 items draw a large share
        assert top10 / 20000 > 0.25

    def test_rank_ordering(self):
        gen = ZipfianGenerator(100, seed=2)
        counts = Counter(gen.next() for _ in range(50000))
        assert counts[0] > counts[10] > counts.get(90, 0)

    def test_deterministic_under_seed(self):
        a = ZipfianGenerator(100, seed=3)
        b = ZipfianGenerator(100, seed=3)
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]

    def test_invalid_item_count(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)


class TestScrambledZipfian:
    def test_values_in_range(self):
        gen = ScrambledZipfianGenerator(1000, seed=1)
        for _ in range(2000):
            assert 0 <= gen.next() < 1000

    def test_hot_keys_spread_over_keyspace(self):
        gen = ScrambledZipfianGenerator(10000, seed=1)
        counts = Counter(gen.next() for _ in range(20000))
        hot = [k for k, _ in counts.most_common(10)]
        # the hottest keys are not clustered at the low end
        assert max(hot) > 1000

    def test_cassandra_keyspace_sequence_is_pinned(self):
        # the draws of a 50,000-key Cassandra keyspace, as recorded before
        # the generator's constants were memoized
        gen = ScrambledZipfianGenerator(50_000, seed=7)
        assert [gen.next() for _ in range(12)] == [
            6288, 3223, 6037, 24405, 21613, 9190, 24405, 33816, 24405, 29082, 24405, 34996,
        ]

    def test_skew_preserved(self):
        gen = ScrambledZipfianGenerator(1000, seed=1)
        counts = Counter(gen.next() for _ in range(20000))
        top_share = sum(c for _, c in counts.most_common(10)) / 20000
        assert top_share > 0.2


class TestUniform:
    def test_roughly_flat(self):
        gen = UniformGenerator(10, seed=1)
        counts = Counter(gen.next() for _ in range(10000))
        assert all(800 < counts[i] < 1200 for i in range(10))

    def test_invalid_item_count(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)


class TestOperationMix:
    def test_paper_mixes_write_fractions(self):
        assert MIX_WRITE_INTENSIVE.write_fraction == pytest.approx(0.75)
        assert MIX_READ_WRITE.write_fraction == pytest.approx(0.50)
        assert MIX_READ_INTENSIVE.write_fraction == pytest.approx(0.25)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            OperationMix(read=0.5, update=0.3)

    def test_chooser_matches_mix(self):
        chooser = OperationChooser(MIX_WRITE_INTENSIVE, seed=1)
        counts = Counter(chooser.next() for _ in range(20000))
        assert counts["read"] / 20000 == pytest.approx(0.25, abs=0.02)
        writes = (counts["update"] + counts["insert"]) / 20000
        assert writes == pytest.approx(0.75, abs=0.02)

    def test_chooser_deterministic(self):
        a = OperationChooser(MIX_READ_WRITE, seed=9)
        b = OperationChooser(MIX_READ_WRITE, seed=9)
        assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]


class TestRecordSpec:
    def test_ycsb_default_1kb(self):
        assert RecordSpec().record_bytes == 1000

    def test_custom(self):
        assert RecordSpec(field_count=4, field_bytes=50).record_bytes == 200
