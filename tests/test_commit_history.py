"""Tests for delta-compressed commit histories."""

import os

import pytest

from repro.bitmap.bitmap import Bitmap
from repro.bitmap.delta import CommitHistory
from repro.errors import CommitNotFoundError, CorruptionError, StorageError


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
            history.record_commit(f"c{i}", snapshot)
        for i, snapshot in enumerate(series):
            assert history.checkout(f"c{i}") == snapshot

    def test_checkout_with_bit_clears(self):
        history = CommitHistory()
        first = Bitmap.from_indices([1, 2, 3, 4])
        second = first.copy()
        second.clear(2)
        second.set(10)
        history.record_commit("a", first)
        history.record_commit("b", second)
        assert history.checkout("a") == first
        assert history.checkout("b") == second

    def test_latest_snapshot(self):
        history = CommitHistory()
        series = snapshots(3)
        for i, snapshot in enumerate(series):
            history.record_commit(f"c{i}", snapshot)
        assert history.latest_snapshot() == series[-1]

    def test_duplicate_commit_rejected(self):
        history = CommitHistory()
        history.record_commit("a", Bitmap.from_indices([1]))
        with pytest.raises(StorageError):
            history.record_commit("a", Bitmap.from_indices([2]))

    def test_unknown_commit_rejected(self):
        history = CommitHistory()
        with pytest.raises(CommitNotFoundError):
            history.checkout("missing")

    def test_contains_and_len(self):
        history = CommitHistory()
        history.record_commit("a", Bitmap())
        assert "a" in history and "b" not in history
        assert len(history) == 1
        assert history.commit_ids == ["a"]

    def test_composite_layer_present(self):
        history = CommitHistory(layer_interval=4)
        for i, snapshot in enumerate(snapshots(12)):
            history.record_commit(f"c{i}", snapshot)
        # 12 base deltas and 3 composites.
        assert history.size_bytes() > history.base_delta_bytes()

    def test_flat_chain_when_layering_disabled(self):
        history = CommitHistory(layer_interval=0)
        series = snapshots(10)
        for i, snapshot in enumerate(series):
            history.record_commit(f"c{i}", snapshot)
        assert history.size_bytes() >= history.base_delta_bytes()
        for i, snapshot in enumerate(series):
            assert history.checkout(f"c{i}") == snapshot

    def test_layered_and_flat_agree(self):
        layered = CommitHistory(layer_interval=3)
        flat = CommitHistory(layer_interval=0)
        series = snapshots(17, stride=3)
        for i, snapshot in enumerate(series):
            layered.record_commit(f"c{i}", snapshot)
            flat.record_commit(f"c{i}", snapshot)
        for i in range(len(series)):
            assert layered.checkout(f"c{i}") == flat.checkout(f"c{i}")

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "history.hist")
        history = CommitHistory(path=path, layer_interval=4)
        series = snapshots(9)
        for i, snapshot in enumerate(series):
            history.record_commit(f"c{i}", snapshot)
        reloaded = CommitHistory(path=path, layer_interval=4)
        reloaded.rebind_commit_ids([f"c{i}" for i in range(len(series))])
        assert reloaded.latest_snapshot() == series[-1]
        for i, snapshot in enumerate(series):
            assert reloaded.checkout(f"c{i}") == snapshot

    def test_rebind_length_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "history.hist")
        history = CommitHistory(path=path)
        history.record_commit("a", Bitmap.from_indices([1]))
        reloaded = CommitHistory(path=path)
        with pytest.raises(StorageError):
            reloaded.rebind_commit_ids(["a", "b"])

    def test_size_is_small_relative_to_raw_snapshots(self):
        history = CommitHistory()
        series = snapshots(30, stride=50)
        for i, snapshot in enumerate(series):
            history.record_commit(f"c{i}", snapshot)
        raw = sum(len(s.to_bytes()) for s in series)
        assert history.size_bytes() < raw

    def test_noop_deltas_carry_zero_popcount_and_are_skipped(self, monkeypatch):
        history = CommitHistory(layer_interval=3)
        snapshot = Bitmap.from_indices([1, 5, 9])
        # Repeated identical snapshots produce all-zero deltas (and one
        # all-zero composite after three of them).
        for i in range(6):
            history.record_commit(f"c{i}", snapshot)
        from repro.bitmap.delta import _KIND_BASE, _KIND_COMPOSITE

        base = [e.popcount for e in history._entries if e.kind == _KIND_BASE]
        composites = [
            e.popcount for e in history._entries if e.kind == _KIND_COMPOSITE
        ]
        assert base[0] == 3  # the first delta sets the three bits
        assert all(p == 0 for p in base[1:])  # every later delta is a no-op
        # The first composite folds the first delta in; the second covers
        # only no-ops and cancels to zero.
        assert composites == [3, 0]
        # Checkout must not decode any zero-popcount payload.
        import repro.bitmap.delta as delta_module

        decoded = []

        def counting_decode(payload):
            decoded.append(payload)
            return original(payload)

        original = delta_module.rle_decode
        monkeypatch.setattr(delta_module, "rle_decode", counting_decode)
        assert history.checkout("c5") == snapshot
        assert len(decoded) == 1  # only the first (non-empty) delta

    def test_flipped_byte_raises_corruption_error(self, tmp_path, monkeypatch):
        """Every entry is CRC-framed: a flipped byte in an early entry is
        reported, never replayed as a different delta."""
        monkeypatch.setenv("REPRO_STRICT_RECOVERY", "1")
        path = str(tmp_path / "history.hist")
        history = CommitHistory(path=path, layer_interval=4)
        for i, snapshot in enumerate(snapshots(6)):
            history.record_commit(f"c{i}", snapshot)
        with open(path, "r+b") as handle:
            handle.seek(22)  # inside the first entry's RLE payload
            byte = handle.read(1)
            handle.seek(22)
            handle.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(CorruptionError) as info:
            CommitHistory(path=path, layer_interval=4)
        assert info.value.file == path

    def test_torn_final_entry_is_truncated(self, tmp_path):
        path = str(tmp_path / "history.hist")
        history = CommitHistory(path=path, layer_interval=0)
        series = snapshots(4)
        for i, snapshot in enumerate(series):
            history.record_commit(f"c{i}", snapshot)
        os.truncate(path, os.path.getsize(path) - 2)
        reloaded = CommitHistory(path=path, layer_interval=0)
        assert len(reloaded) == 3
        reloaded.rebind_commit_ids(["c0", "c1", "c2"])
        assert reloaded.latest_snapshot() == series[2]

    def test_popcount_survives_persistence(self, tmp_path):
        path = str(tmp_path / "history.hist")
        history = CommitHistory(path=path, layer_interval=4)
        series = snapshots(9)
        for i, snapshot in enumerate(series):
            history.record_commit(f"c{i}", snapshot)
        history.record_commit("noop", series[-1])
        reloaded = CommitHistory(path=path, layer_interval=4)
        assert [e.popcount for e in reloaded._entries] == [
            e.popcount for e in history._entries
        ]
        assert reloaded._entries[-1].popcount == 0
        reloaded.rebind_commit_ids([f"c{i}" for i in range(9)] + ["noop"])
        for i, snapshot in enumerate(series):
            assert reloaded.checkout(f"c{i}") == snapshot
        assert reloaded.checkout("noop") == series[-1]
