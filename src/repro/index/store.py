"""Former home of the durable per-branch pk-index files.

Primary-key indexes are derived data and are no longer persisted: they
are rebuilt from storage on first use (see :mod:`repro.storage.pk_index`).
"""

from __future__ import annotations


class PrimaryKeyIndexStore:
    # Kept only because perf/trace.py patches ``load_branch`` by name.
    def load_branch(self, branch: str, expected_epoch: str | None) -> None:
        return None
