"""Property-based tests for bitmaps, RLE and the git-like delta codec."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitmap import Bitmap
from repro.bitmap.delta import CommitHistory
from repro.bitmap.rle import rle_decode, rle_encode
from repro.gitlike.packfile import delta_decode, delta_encode

index_sets = st.sets(st.integers(min_value=0, max_value=2000), max_size=200)


class TestBitmapProperties:
    @given(index_sets)
    def test_set_bits_roundtrip(self, indices):
        bitmap = Bitmap.from_indices(indices)
        assert set(bitmap.iter_set_bits()) == indices
        assert bitmap.count() == len(indices)

    @given(index_sets)
    def test_serialization_roundtrip(self, indices):
        bitmap = Bitmap.from_indices(indices)
        restored = Bitmap.from_bytes(bitmap.to_bytes(), len(bitmap))
        assert restored == bitmap

    @given(index_sets, index_sets)
    def test_bulk_ops_match_set_algebra(self, left, right):
        a = Bitmap.from_indices(left)
        b = Bitmap.from_indices(right)
        assert set((a & b).iter_set_bits()) == left & right
        assert set((a | b).iter_set_bits()) == left | right
        assert set((a ^ b).iter_set_bits()) == left ^ right
        assert set(a.and_not(b).iter_set_bits()) == left - right

    @given(index_sets, index_sets)
    def test_xor_involution(self, left, right):
        a = Bitmap.from_indices(left)
        b = Bitmap.from_indices(right)
        assert (a ^ b) ^ b == a

    @given(index_sets, st.sets(st.integers(min_value=0, max_value=2000), max_size=50))
    def test_clear_is_difference(self, initial, removed):
        bitmap = Bitmap.from_indices(initial)
        for index in removed:
            bitmap.clear(index)
        assert set(bitmap.iter_set_bits()) == initial - removed


class TestRLEProperties:
    @given(st.binary(max_size=4096))
    def test_roundtrip(self, data):
        assert rle_decode(rle_encode(data)) == data

    @given(st.binary(max_size=2048))
    def test_overhead_bounded(self, data):
        # Worst-case expansion stays small: token + varint per literal run.
        assert len(rle_encode(data)) <= len(data) + 8 + len(data) // 127 + 2

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=255),
    )
    def test_pure_runs_compress_to_constant_size(self, length, byte):
        encoded = rle_encode(bytes([byte]) * (length * 100))
        assert len(encoded) <= 8


class TestCommitHistoryProperties:
    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(min_value=0, max_value=500), max_size=60),
                st.booleans(),
            ),
            min_size=1,
            max_size=16,
        ),
        st.sampled_from([0, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_commit_is_recoverable(self, steps, layer_interval):
        """Commits that change the bitmap interleave with commits that keep
        it; every commit checks out as a naive list of snapshots says, live
        and after rebuilding the history from the recorded deltas."""
        history = CommitHistory(layer_interval)
        rebuilt = CommitHistory(layer_interval)
        naive: list[Bitmap] = []
        current = Bitmap()
        for sequence, (indices, unchanged) in enumerate(steps):
            if not unchanged:
                current = Bitmap.from_indices(indices)
            recorded = history.record_commit(sequence, current.copy())
            assert (recorded is None) == (
                current == (naive[-1] if naive else Bitmap())
            )
            if recorded is not None:
                rebuilt.replay(sequence, recorded)
            naive.append(current)
        for sequence, bitmap in enumerate(naive):
            assert history.checkout(sequence) == bitmap
            assert rebuilt.checkout(sequence) == bitmap


class TestGitDeltaProperties:
    @given(st.binary(max_size=4096), st.binary(max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_arbitrary_pairs(self, base, target):
        assert delta_decode(base, delta_encode(base, target)) == target

    @given(st.binary(min_size=200, max_size=2000), st.binary(max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_appends_encode_compactly(self, base, tail):
        delta = delta_encode(base, base + tail)
        assert delta_decode(base, delta) == base + tail
        assert len(delta) < len(base) // 2 + len(tail) + 32
