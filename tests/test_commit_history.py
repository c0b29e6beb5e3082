"""Tests for delta-compressed commit histories."""

import pytest

from repro.bitmap.bitmap import Bitmap
from repro.bitmap.delta import CommitHistory
from repro.errors import StorageError


def snapshots(count: int, stride: int = 5) -> list[Bitmap]:
    """A growing series of bitmaps, each extending the previous one."""
    result = []
    bitmap = Bitmap()
    for i in range(count):
        bitmap = bitmap.copy()
        for bit in range(i * stride, (i + 1) * stride):
            bitmap.set(bit)
        result.append(bitmap)
    return result


class TestCommitHistory:
    def test_checkout_reconstructs_every_snapshot(self):
        history = CommitHistory()
        series = snapshots(20)
        for i, snapshot in enumerate(series):
            history.record_commit(i, snapshot)
        for i, snapshot in enumerate(series):
            assert history.checkout(i) == snapshot

    def test_checkout_with_bit_clears(self):
        history = CommitHistory()
        first = Bitmap.from_indices([1, 2, 3, 4])
        second = first.copy()
        second.clear(2)
        second.set(10)
        history.record_commit(1, first)
        history.record_commit(2, second)
        assert history.checkout(1) == first
        assert history.checkout(2) == second

    def test_latest_snapshot(self):
        history = CommitHistory()
        series = snapshots(3)
        for i, snapshot in enumerate(series):
            history.record_commit(i, snapshot)
        assert history.latest_snapshot() == series[-1]

    def test_out_of_order_commit_rejected(self):
        history = CommitHistory()
        history.record_commit(5, Bitmap.from_indices([1]))
        with pytest.raises(StorageError):
            history.record_commit(5, Bitmap.from_indices([2]))
        with pytest.raises(StorageError):
            history.record_commit(4, Bitmap.from_indices([2]))

    def test_checkout_before_the_first_entry_is_empty(self):
        history = CommitHistory()
        assert not history.checkout(3).any()
        history.record_commit(5, Bitmap.from_indices([1]))
        assert not history.checkout(4).any()

    def test_unchanged_commit_records_nothing(self):
        history = CommitHistory()
        assert history.record_commit(1, Bitmap()) is None
        assert len(history) == 0
        snapshot = Bitmap.from_indices([3, 9])
        assert history.record_commit(2, snapshot) is not None
        assert history.record_commit(3, snapshot.copy()) is None
        assert len(history) == 1
        # A commit between entries reads the latest entry at or before it.
        assert history.checkout(3) == snapshot
        assert history.checkout(99) == snapshot

    def test_composite_layer_present(self):
        history = CommitHistory(layer_interval=4)
        for i, snapshot in enumerate(snapshots(12)):
            history.record_commit(i, snapshot)
        # 12 base deltas fold into 3 composites.
        assert len(history._composites) == 3

    def test_flat_chain_when_layering_disabled(self):
        history = CommitHistory(layer_interval=0)
        series = snapshots(10)
        for i, snapshot in enumerate(series):
            history.record_commit(i, snapshot)
        assert history._composites == []
        for i, snapshot in enumerate(series):
            assert history.checkout(i) == snapshot

    def test_layered_and_flat_agree(self):
        layered = CommitHistory(layer_interval=3)
        flat = CommitHistory(layer_interval=0)
        series = snapshots(17, stride=3)
        for i, snapshot in enumerate(series):
            layered.record_commit(i, snapshot)
            flat.record_commit(i, snapshot)
        for i in range(len(series)):
            assert layered.checkout(i) == flat.checkout(i)

    def test_size_is_small_relative_to_raw_snapshots(self):
        history = CommitHistory()
        series = snapshots(30, stride=50)
        for i, snapshot in enumerate(series):
            history.record_commit(i, snapshot)
        raw = sum(len(s.to_bytes()) for s in series)
        assert 0 < history.size_bytes() < raw

    def test_cancelled_composite_is_skipped_without_decoding(self, monkeypatch):
        history = CommitHistory(layer_interval=2)
        first = Bitmap.from_indices([1, 5, 9])
        second = Bitmap.from_indices([1, 5])
        # Deltas {1, 5}, {9}, {9}, {9}: the second pair's composite cancels.
        for sequence, snapshot in enumerate([second, first, second, first]):
            history.record_commit(sequence, snapshot)
        assert history._composites[1] == b""
        import repro.bitmap.delta as delta_module

        decoded = []
        original = delta_module.rle_decode

        def counting_decode(payload):
            decoded.append(payload)
            return original(payload)

        monkeypatch.setattr(delta_module, "rle_decode", counting_decode)
        assert history.checkout(3) == first
        assert len(decoded) == 1  # the first composite; the second is empty
        decoded.clear()
        assert history.checkout(2) == second
        assert len(decoded) == 2  # the first composite, then one delta

    def test_replay_rebuilds_the_same_history(self):
        """Feeding the recorded deltas back in order rebuilds a history that
        checks out, and records the next commit, exactly as the live one."""
        live = CommitHistory(layer_interval=3)
        rebuilt = CommitHistory(layer_interval=3)
        series = snapshots(7)
        for i, snapshot in enumerate(series):
            for sequence in (2 * i, 2 * i + 1):  # every other one unchanged
                recorded = live.record_commit(sequence, snapshot)
                if recorded is not None:
                    rebuilt.replay(sequence, recorded)
        for sequence in range(2 * len(series)):
            assert rebuilt.checkout(sequence) == live.checkout(sequence)
        assert rebuilt.latest_snapshot() == live.latest_snapshot()
        following = Bitmap.from_indices([0, 77])
        assert rebuilt.record_commit(20, following) == live.record_commit(
            20, following
        )
        assert rebuilt._composites == live._composites
        assert rebuilt.checkout(20) == following
