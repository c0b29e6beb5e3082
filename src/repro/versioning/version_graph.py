"""The version graph: commits, branches, and their provenance DAG.

The version-level provenance of a dataset is maintained as a directed acyclic
graph whose nodes are versions (commits) and whose edges record derivation --
by modification, branching or merging (paper Section 2.2.2).  All three
storage engines consult the same graph for branch heads, ancestry and
lowest-common-ancestor queries.

The graph is persisted as JSON alongside the data files on every branch or
commit operation, as in the paper (Section 3, preamble), as a log of its own
mutations: each mutator queues one JSON event naming itself and its
arguments, :meth:`VersionGraph.save` appends the queued events to
``version_graph.log`` as one CRC-framed record -- one write and one fsync,
however large the graph -- and :meth:`VersionGraph.load` replays them through
the same mutators.  A commit's event also carries the committing engine's
state (:meth:`VersionGraph.set_commit_state`), so one frame commits both, and
a branch creation's event carries whatever the engine's new storage needs
beyond the event itself (:meth:`VersionGraph.set_branch_state`): an engine
rebuilds its segment topology by replaying the branch events in order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.core.durable import append_framed, read_framed
from repro.errors import (
    BranchExistsError,
    BranchNotFoundError,
    CommitNotFoundError,
    CorruptionError,
    VersionError,
)

#: Name of the branch created by ``init`` -- the authoritative branch of
#: record for the dataset (paper Section 2.2.2).
MASTER_BRANCH = "master"

#: The mutators a version-graph log event may name.
_LOGGED_OPS = ("init", "commit", "create_branch", "merge", "retire_branch")


@dataclass(frozen=True)
class Commit:
    """One immutable version of the dataset.

    ``sequence`` is a graph-wide monotonically increasing counter used to
    order commits chronologically and to pick the *lowest* common ancestor
    among several candidates.
    """

    commit_id: str
    branch: str
    parents: tuple[str, ...]
    sequence: int
    message: str = ""

    @property
    def is_merge(self) -> bool:
        """True if this commit has more than one parent."""
        return len(self.parents) > 1


@dataclass
class Branch:
    """A working copy of the dataset: a named, movable head pointer."""

    name: str
    head: str
    created_from: str | None
    active: bool = True
    #: The branch this branch was created from (None for the master branch).
    parent_branch: str | None = None
    #: For branches created by a merge: parent branch names in precedence
    #: order (first wins conflicts under the precedence policy).
    merge_precedence: tuple[str, ...] = field(default_factory=tuple)
    #: True if forked off its parent branch's head, not an older commit.
    at_head: bool = True
    #: The engine state recorded with the branch's creation.
    state: Any = None


class VersionGraph:
    """Commits and branches of one dataset."""

    def __init__(self):
        self._commits: dict[str, Commit] = {}
        self._branches: dict[str, Branch] = {}
        self._sequence = 0
        #: commit id -> the engine state recorded with that commit.
        self._states: dict[str, Any] = {}
        #: Mutation events not yet appended to the log by :meth:`save`.
        self._pending: list[dict] = []

    # -- initialization -------------------------------------------------------

    def init(self, message: str = "init") -> Commit:
        """Create the initial commit and the master branch."""
        if self._commits:
            raise VersionError("the version graph is already initialized")
        commit = self._new_commit(MASTER_BRANCH, parents=(), message=message)
        self._branches[MASTER_BRANCH] = Branch(
            name=MASTER_BRANCH, head=commit.commit_id, created_from=None
        )
        self._log("init", commit, message=message)
        return commit

    @property
    def initialized(self) -> bool:
        """True once :meth:`init` has been called."""
        return bool(self._commits)

    # -- commit / branch bookkeeping -------------------------------------------

    def _new_commit(
        self, branch: str, parents: tuple[str, ...], message: str
    ) -> Commit:
        self._sequence += 1
        commit_id = f"v{self._sequence:06d}"
        commit = Commit(
            commit_id=commit_id,
            branch=branch,
            parents=parents,
            sequence=self._sequence,
            message=message,
        )
        self._commits[commit_id] = commit
        return commit

    def commit(self, branch: str, message: str = "") -> Commit:
        """Record a new commit advancing ``branch``'s head."""
        branch_obj = self.branch(branch)
        commit = self._new_commit(branch, parents=(branch_obj.head,), message=message)
        branch_obj.head = commit.commit_id
        self._log("commit", commit, branch=branch, message=message)
        return commit

    def create_branch(
        self, name: str, from_commit: str | None = None, from_branch: str | None = None
    ) -> Branch:
        """Create a branch off ``from_commit`` (or a branch's current head).

        A branch may be created from any commit on any existing branch
        (paper Section 2.2.3, *Branch*).
        """
        if name in self._branches:
            raise BranchExistsError(f"branch {name!r} already exists")
        if from_commit is None:
            source = from_branch if from_branch is not None else MASTER_BRANCH
            from_commit = self.branch(source).head
        if from_commit not in self._commits:
            raise CommitNotFoundError(f"unknown commit: {from_commit!r}")
        parent_branch = (
            from_branch
            if from_branch is not None
            else self._commits[from_commit].branch
        )
        parent = self._branches.get(parent_branch)
        branch = Branch(
            name=name,
            head=from_commit,
            created_from=from_commit,
            parent_branch=parent_branch,
            at_head=parent is not None and parent.head == from_commit,
        )
        self._branches[name] = branch
        self._log(
            "create_branch",
            name=name,
            from_commit=from_commit,
            from_branch=parent_branch,
        )
        return branch

    def merge(
        self,
        target_branch: str,
        source_branch: str,
        message: str = "",
        precedence: str | None = None,
    ) -> Commit:
        """Merge ``source_branch``'s head into ``target_branch``.

        The heads of both branches become the parents of a new commit which
        becomes the new head of ``target_branch`` (paper Section 2.2.3,
        *Merge*; making the merged version the head of the target branch is
        the variant the benchmark exercises).
        """
        target = self.branch(target_branch)
        source = self.branch(source_branch)
        parents = (target.head, source.head)
        commit = self._new_commit(target_branch, parents=parents, message=message)
        target.head = commit.commit_id
        first = precedence if precedence is not None else target_branch
        second = source_branch if first == target_branch else target_branch
        target.merge_precedence = (first, second)
        self._log(
            "merge",
            commit,
            target_branch=target_branch,
            source_branch=source_branch,
            message=message,
            precedence=precedence,
        )
        return commit

    def retire_branch(self, name: str) -> None:
        """Mark a branch inactive (science-pattern branches have lifetimes)."""
        self.branch(name).active = False
        self._log("retire_branch", name=name)

    def set_commit_state(self, commit_id: str, state: Any) -> None:
        """Attach an engine's JSON-serializable state to an unsaved commit.

        The state rides in the commit's own event, so it becomes durable in
        the same log frame as the commit.  ``None`` records nothing.
        """
        if state is not None:
            self._pending_event("id", commit_id)["state"] = state
            self._states[commit_id] = state

    def commit_state(self, commit_id: str) -> Any:
        """The state recorded with ``commit_id`` (as JSON once reloaded)."""
        return self._states.get(commit_id)

    def set_branch_state(self, name: str, state: Any) -> None:
        """Attach an engine's JSON-serializable state to an unsaved branch
        creation, as :meth:`set_commit_state` does to a commit; reloaded,
        it is the branch's :attr:`Branch.state`.  ``None`` records nothing."""
        if state is not None:
            self._pending_event("name", name)["state"] = state
            self.branch(name).state = state

    def _pending_event(self, key: str, value: str) -> dict:
        """The newest unsaved event whose ``key`` is ``value``."""
        for event in reversed(self._pending):
            if event.get(key) == value:
                return event
        raise VersionError(f"{value!r} is not awaiting a save")

    # -- lookups ----------------------------------------------------------------

    def branch(self, name: str) -> Branch:
        """The branch named ``name``; raises if unknown."""
        try:
            return self._branches[name]
        except KeyError:
            raise BranchNotFoundError(f"unknown branch: {name!r}") from None

    def get_commit(self, commit_id: str) -> Commit:
        """The commit with id ``commit_id``; raises if unknown."""
        try:
            return self._commits[commit_id]
        except KeyError:
            raise CommitNotFoundError(f"unknown commit: {commit_id!r}") from None

    def has_branch(self, name: str) -> bool:
        """True if a branch named ``name`` exists."""
        return name in self._branches

    def has_commit(self, commit_id: str) -> bool:
        """True if a commit with this id exists."""
        return commit_id in self._commits

    def branches(self, active_only: bool = False) -> list[Branch]:
        """All branches in creation order."""
        result = list(self._branches.values())
        if active_only:
            result = [branch for branch in result if branch.active]
        return result

    def branch_names(self, active_only: bool = False) -> list[str]:
        """Names of all (or all active) branches."""
        return [branch.name for branch in self.branches(active_only)]

    def head(self, branch: str) -> str:
        """The head commit id of ``branch``."""
        return self.branch(branch).head

    def heads(self) -> dict[str, str]:
        """Mapping of branch name to head commit id for all branches."""
        return {name: branch.head for name, branch in self._branches.items()}

    def commits(self) -> list[Commit]:
        """All commits in creation (sequence) order."""
        return sorted(self._commits.values(), key=lambda commit: commit.sequence)

    def commits_on_branch(self, branch: str) -> list[Commit]:
        """Commits recorded directly on ``branch``, oldest first."""
        return [commit for commit in self.commits() if commit.branch == branch]

    def __len__(self) -> int:
        return len(self._commits)

    # -- ancestry --------------------------------------------------------------

    def ancestors(self, commit_id: str, include_self: bool = True) -> set[str]:
        """All ancestors of ``commit_id`` in the version DAG."""
        self.get_commit(commit_id)
        seen: set[str] = set()
        stack = [commit_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._commits[current].parents)
        if not include_self:
            seen.discard(commit_id)
        return seen

    def is_ancestor(self, ancestor_id: str, descendant_id: str) -> bool:
        """True if ``ancestor_id`` is an ancestor of (or equals) ``descendant_id``."""
        return ancestor_id in self.ancestors(descendant_id)

    def lowest_common_ancestor(self, commit_a: str, commit_b: str) -> str:
        """The common ancestor with the highest sequence number.

        The LCA commit anchors diff and three-way merge in every engine
        (paper Sections 3.2-3.4).
        """
        common = self.ancestors(commit_a) & self.ancestors(commit_b)
        if not common:
            raise VersionError(
                f"commits {commit_a!r} and {commit_b!r} share no ancestor"
            )
        return max(common, key=lambda cid: self._commits[cid].sequence)

    def lineage(self, commit_id: str) -> list[Commit]:
        """Path of commits from ``commit_id`` back to the root.

        At merge commits the first parent is followed, which corresponds to
        the branch's own line of development.
        """
        path = []
        current: str | None = commit_id
        while current is not None:
            commit = self.get_commit(current)
            path.append(commit)
            current = commit.parents[0] if commit.parents else None
        return path

    def branch_lineage(self, branch: str) -> list[str]:
        """Branch names contributing data to ``branch``, nearest first.

        This is the order in which the version-first engine visits segment
        files for a single-branch scan (paper Section 3.3): the branch's own
        segment, then its parents in precedence order, recursively, without
        repeats.
        """
        result: list[str] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            result.append(name)
            branch_obj = self.branch(name)
            # Merge parents first (precedence order), then the branch point.
            for parent in branch_obj.merge_precedence:
                if parent != name:
                    visit(parent)
            if branch_obj.parent_branch is not None:
                visit(branch_obj.parent_branch)
            elif branch_obj.created_from is not None:
                visit(self.get_commit(branch_obj.created_from).branch)

        visit(branch)
        return result

    # -- persistence -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Append the events queued since the last save to the log at ``path``.

        All of them go into one frame: one write and one fsync per save
        (crashpoint ``graph-persist-pre-fsync``), and nothing at all when
        the graph has not changed.  A batch that starts with ``init`` holds
        the whole history, so it starts the log afresh.
        """
        if not self._pending:
            return
        if self._pending[0]["op"] == "init" and os.path.exists(path):
            os.remove(path)
        payload = json.dumps(self._pending, separators=(",", ":"))
        append_framed(path, payload.encode("utf-8"), label="graph-persist")
        self._pending.clear()

    @classmethod
    def load(cls, path: str) -> "VersionGraph":
        """Rebuild a graph by replaying the log written by :meth:`save`.

        A torn final frame is truncated away (a crash mid-save: the graph
        lands on the commit before it).  Raises
        :class:`~repro.errors.CorruptionError` when a frame fails its
        checksum with readable frames after it, or when an event does not
        replay to the commit id it recorded (a lost or reordered frame).
        """
        if not os.path.exists(path):
            raise VersionError(f"no version graph at {path!r}")
        graph = cls()
        for payload in read_framed(path, "version graph"):
            try:
                events = json.loads(payload)
                for event in events:
                    produced = graph._replay(event)
                    if produced != event.get("id"):
                        raise CorruptionError(
                            path,
                            f"{event['op']} event replayed to another commit",
                            expected=event.get("id"),
                            actual=produced,
                        )
                    if "state" in event and event["op"] == "create_branch":
                        graph._branches[event["name"]].state = event["state"]
                    elif "state" in event:
                        graph._states[produced] = event["state"]
            except (ValueError, TypeError, KeyError, VersionError) as exc:
                raise CorruptionError(
                    path, f"version graph event does not replay: {exc}"
                ) from exc
            graph._pending.clear()
        return graph

    def _log(self, op: str, commit: Commit | None = None, **args: Any) -> None:
        """Queue the event for mutator ``op`` called with ``args``."""
        event = {"op": op, **args}
        if commit is not None:
            event["id"] = commit.commit_id
        self._pending.append(event)

    def _replay(self, event: dict) -> str | None:
        """Apply one logged event; returns the id of the commit it made."""
        if event["op"] not in _LOGGED_OPS:
            raise ValueError(f"unknown version graph event {event['op']!r}")
        args = {k: v for k, v in event.items() if k not in ("op", "id", "state")}
        produced = getattr(self, event["op"])(**args)
        return produced.commit_id if isinstance(produced, Commit) else None
