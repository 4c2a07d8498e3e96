"""Unit and property tests for the convergent versioned store."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.storage import (
    TOMBSTONE,
    LWWResolver,
    Record,
    VersionedStore,
    VersionVector,
    stamp_of,
)


def vv(**entries):
    return VersionVector(entries)


class TestApply:
    def test_first_write_applies(self):
        store = VersionedStore()
        result = store.apply("k", "v1", vv(dc0=1))
        assert result.applied
        assert store.get("k").value == "v1"

    def test_dominating_write_replaces(self):
        store = VersionedStore()
        store.apply("k", "v1", vv(dc0=1))
        result = store.apply("k", "v2", vv(dc0=2))
        assert result.applied
        assert store.get("k").value == "v2"

    def test_dominated_write_ignored(self):
        store = VersionedStore()
        store.apply("k", "v2", vv(dc0=2))
        result = store.apply("k", "v1", vv(dc0=1))
        assert not result.applied
        assert store.get("k").value == "v2"
        assert store.writes_ignored == 1

    def test_duplicate_write_ignored(self):
        store = VersionedStore()
        store.apply("k", "v1", vv(dc0=1))
        result = store.apply("k", "v1", vv(dc0=1))
        assert not result.applied

    def test_concurrent_writes_resolved_convergently(self):
        a, b = VersionedStore(), VersionedStore()
        a.apply("k", "from0", vv(dc0=1))
        a.apply("k", "from1", vv(dc1=1))
        b.apply("k", "from1", vv(dc1=1))
        b.apply("k", "from0", vv(dc0=1))
        assert a.get("k").value == b.get("k").value
        assert a.get("k").version == b.get("k").version == vv(dc0=1, dc1=1)
        assert a.conflicts_resolved == 1

    def test_merged_version_dominates_both_inputs(self):
        store = VersionedStore()
        store.apply("k", "a", vv(dc0=1))
        result = store.apply("k", "b", vv(dc1=1))
        assert result.was_conflict
        assert result.record.version.dominates(vv(dc0=1))
        assert result.record.version.dominates(vv(dc1=1))

    def test_version_of_unknown_key_is_zero(self):
        assert VersionedStore().version_of("nope").is_zero()


class TestTombstones:
    def test_delete_hides_value(self):
        store = VersionedStore()
        store.apply("k", "v", vv(dc0=1))
        store.delete("k", vv(dc0=2))
        assert store.get("k") is None
        assert "k" not in store

    def test_tombstone_retains_version(self):
        store = VersionedStore()
        store.apply("k", "v", vv(dc0=1))
        store.delete("k", vv(dc0=2))
        assert store.get_record("k").version == vv(dc0=2)
        assert store.get_record("k").is_deleted

    def test_stale_write_does_not_resurrect(self):
        store = VersionedStore()
        store.delete("k", vv(dc0=2))
        store.apply("k", "old", vv(dc0=1))
        assert store.get("k") is None

    def test_newer_write_overrides_tombstone(self):
        store = VersionedStore()
        store.delete("k", vv(dc0=1))
        store.apply("k", "new", vv(dc0=2))
        assert store.get("k").value == "new"

    def test_len_excludes_tombstones(self):
        store = VersionedStore()
        store.apply("a", 1, vv(dc0=1))
        store.apply("b", 2, vv(dc0=1))
        store.delete("a", vv(dc0=2))
        assert len(store) == 1
        assert list(store.keys()) == ["b"]


def preload_record(key, value, version, now=0.0):
    return Record(key, value, version, stamp_of(version), now)


class TestInstall:
    def test_absent_key_stores_the_record_itself(self):
        store = VersionedStore()
        rec = preload_record("k", "v", vv(preload=1), now=0.5)
        assert store.install(rec) is True
        assert store.get_record("k") is rec
        assert store.writes_applied == 1 and store.writes_ignored == 0

    @pytest.mark.parametrize(
        "prior",
        [
            {"preload": 1},  # duplicate → ignored
            {"preload": 2},  # stored dominates → ignored
            {},  # incoming dominates → replaces
            {"dc0": 1},  # concurrent → resolved
        ],
    )
    def test_present_key_matches_apply(self, prior):
        installed, applied = VersionedStore(), VersionedStore()
        for store in (installed, applied):
            store.apply("k", "v0", VersionVector(prior), 0.1)
        rec = preload_record("k", "v", vv(preload=1), now=0.5)
        changed = installed.install(rec)
        result = applied.apply("k", "v", vv(preload=1), 0.5)
        assert changed == result.applied
        assert installed.get_record("k") == applied.get_record("k")
        for counter in ("writes_applied", "writes_ignored", "conflicts_resolved"):
            assert getattr(installed, counter) == getattr(applied, counter)

    def test_later_put_leaves_other_replicas_record_alone(self):
        replicas = [VersionedStore() for _ in range(3)]
        rec = preload_record("k", "v", vv(preload=1))
        for store in replicas:
            store.install(rec)
        replicas[0].apply("k", "new", vv(preload=1, dc0=1), 1.0)
        assert replicas[0].get_record("k").value == "new"
        for store in replicas[1:]:
            assert store.get_record("k") is rec
        assert (rec.value, rec.version, rec.updated_at) == ("v", vv(preload=1), 0.0)


class TestAntiEntropy:
    def test_digest_covers_tombstones(self):
        store = VersionedStore()
        store.apply("a", 1, vv(dc0=1))
        store.delete("a", vv(dc0=2))
        assert store.digest() == {"a": vv(dc0=2)}

    def test_records_newer_than_finds_missing(self):
        ahead, behind = VersionedStore(), VersionedStore()
        ahead.apply("a", 1, vv(dc0=1))
        ahead.apply("b", 2, vv(dc0=1))
        behind.apply("a", 1, vv(dc0=1))
        missing = ahead.records_newer_than(behind.digest())
        assert [r.key for r in missing] == ["b"]

    def test_records_newer_than_finds_stale(self):
        ahead, behind = VersionedStore(), VersionedStore()
        ahead.apply("a", 2, vv(dc0=2))
        behind.apply("a", 1, vv(dc0=1))
        assert [r.key for r in ahead.records_newer_than(behind.digest())] == ["a"]

    def test_nothing_missing_when_equal(self):
        a = VersionedStore()
        a.apply("a", 1, vv(dc0=1))
        assert a.records_newer_than(a.digest()) == []

    def test_clear_wipes_state(self):
        store = VersionedStore()
        store.apply("a", 1, vv(dc0=1))
        store.clear()
        assert len(store) == 0


# Hypothesis: a set of *realistically versioned* writes applied in any
# order converges. Realistic means what the protocols guarantee: each
# datacenter assigns its per-key counter exactly once per write (a
# single serialisation point per key per DC), possibly reflecting some
# prefix of the other DC's writes it has already merged. Without that
# discipline a write could collide with the pointwise merge of two
# concurrent writes, which no protocol execution produces.
@st.composite
def write_sets(draw):
    counters = {("k1", "dc0"): 0, ("k1", "dc1"): 0, ("k2", "dc0"): 0, ("k2", "dc1"): 0}
    # Each (key, DC) pair is a serialisation point whose assigned vectors
    # only grow — heads/owners never forget what they have merged.
    state = {}
    writes = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        key = draw(st.sampled_from(["k1", "k2"]))
        dc = draw(st.sampled_from(["dc0", "dc1"]))
        other = "dc1" if dc == "dc0" else "dc0"
        counters[(key, dc)] += 1
        seen_other = draw(st.integers(min_value=0, max_value=counters[(key, other)]))
        previous = state.get((key, dc), VersionVector())
        version = previous.merge(VersionVector({other: seen_other})).increment(dc)
        state[(key, dc)] = version
        writes.append((key, i, version.entries()))
    return writes


class TestConvergenceProperty:
    @given(write_sets(), st.randoms())
    def test_apply_order_does_not_matter(self, writes, rnd):
        ordered = VersionedStore()
        shuffled_store = VersionedStore()
        shuffled = list(writes)
        rnd.shuffle(shuffled)
        for key, value, entries in writes:
            ordered.apply(key, value, VersionVector(entries))
        for key, value, entries in shuffled:
            shuffled_store.apply(key, value, VersionVector(entries))
        assert ordered.checksum_state() == shuffled_store.checksum_state()

    @given(write_sets())
    def test_all_permutations_converge_small(self, writes):
        states = set()
        for perm in itertools.islice(itertools.permutations(writes), 24):
            store = VersionedStore()
            for key, value, entries in perm:
                store.apply(key, value, VersionVector(entries))
            states.add(store.checksum_state())
        assert len(states) == 1
