"""Former home of the durable per-branch pk-index files.

Primary-key maps are derived data and are no longer persisted: each branch
rebuilds its map from storage on first touch (see
:mod:`repro.index.maintenance`).
"""

from __future__ import annotations


class PrimaryKeyIndexStore:
    # Kept only because perf/trace.py patches ``load_branch`` by name.
    def load_branch(self, branch: str, expected_epoch: str | None) -> None:
        return None
