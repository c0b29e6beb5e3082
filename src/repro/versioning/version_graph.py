"""The version graph: commits, branches, and their provenance DAG.

The version-level provenance of a dataset is maintained as a directed acyclic
graph whose nodes are versions (commits) and whose edges record derivation --
by modification, branching or merging (paper Section 2.2.2).  All three
storage engines consult the same graph for branch heads, ancestry and
lowest-common-ancestor queries.

The graph is persisted alongside the data files on every branch or commit
operation, as in the paper (Section 3, preamble), as a log of its own
mutations: each mutator queues one event naming itself and its arguments,
:meth:`VersionGraph.save` appends the queued events to ``version_graph.log``
as one CRC-framed record -- one write and one fsync, however large the graph
-- and :meth:`VersionGraph.load` replays them through the same mutators.  A
commit's event also carries the committing engine's state
(:meth:`VersionGraph.set_commit_state`), so one frame commits both, and a
branch creation's event carries whatever the engine's new storage needs
beyond the event itself (:meth:`VersionGraph.set_branch_state`): an engine
rebuilds its segment topology by replaying the branch events in order.

Events are binary (:func:`encode_events`, :func:`decode_events`): an op byte,
then the op's fields as compact unsigned integers and length-prefixed UTF-8
names, then the engine state, if any.  A commit is named by its sequence
number, so a commit frame costs about its state's bytes.
"""

from __future__ import annotations

import os
import struct
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
    #: True if the engine's commit states of this branch record changes
    #: from the read state of :attr:`created_from` (its fork state), not
    #: from an empty state.
    fork_relative: bool = False


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
        commit_id = _commit_id(self._sequence)
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
            from_sequence=self._commits[from_commit].sequence,
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
        """Attach an engine's state to an unsaved commit.

        A state is one of the shapes the log encodes: a bitmap delta
        ``(bit length, RLE bytes)``, ``{segment number: delta}``, or a
        ``(segment number, record offset)`` location.  It rides in the
        commit's own event, so it becomes durable in the same log frame as
        the commit, and reloads as it was set.  ``None`` records nothing.
        """
        if state is not None:
            _state_shape(state)
            sequence = self.get_commit(commit_id).sequence
            self._pending_event("sequence", sequence)["state"] = state
            self._states[commit_id] = state

    def commit_state(self, commit_id: str) -> Any:
        """The state recorded with ``commit_id``, or None."""
        return self._states.get(commit_id)

    def set_branch_state(
        self, name: str, state: Any, *, fork_relative: bool = False
    ) -> None:
        """Attach an engine's state -- a record count, a non-negative int:
        version-first's branch-point limit, or the empty head a hybrid fork
        kept -- to an unsaved branch creation, as :meth:`set_commit_state`
        does to a commit; reloaded, it is the branch's
        :attr:`Branch.state`.  ``None`` records nothing.  With
        ``fork_relative`` the event also marks the branch's commit states
        as relative to its fork state (:attr:`Branch.fork_relative`)."""
        if state is not None:
            _state_shape(state)
            self._pending_event("name", name)["state"] = state
            self.branch(name).state = state
        if fork_relative:
            self._pending_event("name", name)["fork_relative"] = True
            self.branch(name).fork_relative = True

    def _pending_event(self, key: str, value: str | int) -> dict:
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
        append_framed(path, encode_events(self._pending), label="graph-persist")
        self._pending.clear()

    @classmethod
    def load(cls, path: str) -> "VersionGraph":
        """Rebuild a graph by replaying the log written by :meth:`save`.

        A torn final frame is truncated away (a crash mid-save: the graph
        lands on the commit before it).  Raises
        :class:`~repro.errors.CorruptionError` when a frame fails its
        checksum with readable frames after it, when a frame does not
        decode, or when an event does not replay to the commit sequence it
        recorded (a lost or reordered frame).
        """
        if not os.path.exists(path):
            raise VersionError(f"no version graph at {path!r}")
        graph = cls()
        for payload in read_framed(path, "version graph"):
            try:
                for event in decode_events(payload):
                    produced = graph._replay(event)
                    sequence = event.get("sequence")
                    if produced is not None and produced.sequence != sequence:
                        raise CorruptionError(
                            path,
                            f"{event['op']} event replayed to another commit",
                            expected=_commit_id(sequence),
                            actual=produced.commit_id,
                        )
                    if produced is not None:
                        if "state" in event:
                            graph._states[produced.commit_id] = event["state"]
                    elif event["op"] == "create_branch":
                        branch = graph._branches[event["name"]]
                        branch.state = event.get("state")
                        branch.fork_relative = event.get("fork_relative", False)
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
            event["sequence"] = commit.sequence
        self._pending.append(event)

    def _replay(self, event: dict) -> Commit | None:
        """Apply one decoded event; returns the commit it made, if any."""
        args = {
            k: v
            for k, v in event.items()
            if k not in ("op", "sequence", "state", "fork_relative")
        }
        if "from_sequence" in args:
            args["from_commit"] = _commit_id(args.pop("from_sequence"))
        produced = getattr(self, event["op"])(**args)
        return produced if isinstance(produced, Commit) else None


def _commit_id(sequence: int) -> str:
    """The id of the commit with graph-wide sequence number ``sequence``."""
    return f"v{sequence:06d}"


# -- the event codec ---------------------------------------------------------------
#
# An event is one op byte -- the op's index in _LOGGED_OPS in its low three
# bits, the shape of its engine state above them, _FORK_RELATIVE on a branch
# creation whose commit states start at its fork state, and _HAS_PRECEDENCE
# on a merge that names one -- followed by the op's fields in _FIELDS order and,
# last, the state.  Integers are compact: a value below 0xFC is its own
# byte; 0xFC, 0xFD and 0xFE prefix a 2-, 4- and 8-byte little-endian one.

#: Each op's fields, in encoding order: ``uint`` or ``text``.
_FIELDS: dict[str, tuple[tuple[str, str], ...]] = {
    "init": (("sequence", "uint"), ("message", "text")),
    "commit": (("sequence", "uint"), ("branch", "text"), ("message", "text")),
    "create_branch": (
        ("name", "text"),
        ("from_sequence", "uint"),
        ("from_branch", "text"),
    ),
    "merge": (
        ("sequence", "uint"),
        ("target_branch", "text"),
        ("source_branch", "text"),
        ("message", "text"),
    ),
    "retire_branch": (("name", "text"),),
}

#: State shapes (bits 3-5 of the op byte).  A segment is named by its
#: number, a bitmap delta by its bit length and RLE bytes.
_NO_STATE = 0
_DELTA = 1  # tuple-first: (bit length, RLE bytes)
_SEGMENT_DELTAS = 2  # hybrid: {segment number: (bit length, RLE bytes)}
_LOCATION = 3  # version-first commit: (segment number, record offset)
_LIMIT = 4  # version-first at-head fork: the branch point's record limit
_STATE_SHIFT = 3
_OP_MASK = (1 << _STATE_SHIFT) - 1
_SHAPE_MASK = 0x07
_FORK_RELATIVE = 0x40
_HAS_PRECEDENCE = 0x80

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _state_shape(state: Any) -> int:
    """The shape code of an engine state; raises for any other value."""
    kind = type(state)
    if kind is int and state >= 0:
        return _LIMIT
    if kind is dict:
        return _SEGMENT_DELTAS
    if kind is tuple and len(state) == 2 and type(state[0]) is int:
        if type(state[1]) is bytes:
            return _DELTA
        if type(state[1]) is int:
            return _LOCATION
    raise VersionError(f"not a version-graph engine state: {state!r}")


def _uint(value: int) -> bytes:
    if value < 0xFC:
        return bytes((value,))
    if value < 1 << 16:
        return b"\xfc" + _U16.pack(value)
    if value < 1 << 32:
        return b"\xfd" + _U32.pack(value)
    return b"\xfe" + _U64.pack(value)


def _text(value: str) -> bytes:
    encoded = value.encode("utf-8")
    return _uint(len(encoded)) + encoded


def _delta(delta: tuple[int, bytes]) -> bytes:
    num_bits, payload = delta
    return _uint(num_bits) + _uint(len(payload)) + payload


def _encode_event(event: dict) -> bytes:
    op = event["op"]
    state = event.get("state")
    shape = _NO_STATE if state is None else _state_shape(state)
    code = _LOGGED_OPS.index(op) | shape << _STATE_SHIFT
    precedence = event.get("precedence")
    if precedence is not None:
        code |= _HAS_PRECEDENCE
    if event.get("fork_relative"):
        code |= _FORK_RELATIVE
    parts = [bytes((code,))]
    for name, kind in _FIELDS[op]:
        parts.append(_uint(event[name]) if kind == "uint" else _text(event[name]))
    if precedence is not None:
        parts.append(_text(precedence))
    if shape == _DELTA:
        parts.append(_delta(state))
    elif shape == _SEGMENT_DELTAS:
        parts.append(_uint(len(state)))
        for number, delta in state.items():
            parts.append(_uint(number) + _delta(delta))
    elif shape == _LOCATION:
        parts.append(_uint(state[0]) + _uint(state[1]))
    elif shape == _LIMIT:
        parts.append(_uint(state))
    return b"".join(parts)


def encode_events(events: list[dict]) -> bytes:
    """The binary form of ``events`` (dicts as :func:`decode_events` returns
    them): one log frame's payload."""
    return b"".join(_encode_event(event) for event in events)


class _Reader:
    """Reads the fields of encoded events from a payload, in order."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def uint(self) -> int:
        data, pos = self.data, self.pos
        head = data[pos]
        if head < 0xFC:
            self.pos = pos + 1
            return head
        if head == 0xFC:
            self.pos = pos + 3
            return _U16.unpack_from(data, pos + 1)[0]
        if head == 0xFD:
            self.pos = pos + 5
            return _U32.unpack_from(data, pos + 1)[0]
        if head == 0xFE:
            self.pos = pos + 9
            return _U64.unpack_from(data, pos + 1)[0]
        raise ValueError(f"bad integer prefix {head:#x} at byte {pos}")

    def blob(self) -> bytes:
        size = self.uint()
        start = self.pos
        end = self.pos = start + size
        if end > len(self.data):
            raise ValueError(f"{size}-byte field overruns the event at byte {start}")
        return self.data[start:end]

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def delta(self) -> tuple[int, bytes]:
        num_bits = self.uint()
        return num_bits, self.blob()


def decode_events(payload: bytes) -> list[dict]:
    """The events of one log frame's payload, each a dict of ``op``, its
    fields (``sequence`` names a commit) and, when it has one, ``state``.

    Raises :class:`ValueError` when the payload is not a run of whole
    events.
    """
    reader = _Reader(payload)
    events = []
    try:
        while reader.pos < len(payload):
            code = payload[reader.pos]
            reader.pos += 1
            op_index, shape = code & _OP_MASK, code >> _STATE_SHIFT & _SHAPE_MASK
            if op_index >= len(_LOGGED_OPS) or shape > _LIMIT:
                raise ValueError(f"unknown version graph event code {code:#x}")
            op = _LOGGED_OPS[op_index]
            if code & _FORK_RELATIVE and op != "create_branch":
                raise ValueError(f"{op} event is marked fork-relative")
            event: dict[str, Any] = {"op": op}
            for name, kind in _FIELDS[op]:
                event[name] = reader.uint() if kind == "uint" else reader.text()
            if op == "merge":
                event["precedence"] = (
                    reader.text() if code & _HAS_PRECEDENCE else None
                )
            elif code & _HAS_PRECEDENCE:
                raise ValueError(f"{op} event names a precedence")
            if code & _FORK_RELATIVE:
                event["fork_relative"] = True
            if shape == _DELTA:
                event["state"] = reader.delta()
            elif shape == _SEGMENT_DELTAS:
                event["state"] = {
                    reader.uint(): reader.delta() for _ in range(reader.uint())
                }
            elif shape == _LOCATION:
                event["state"] = (reader.uint(), reader.uint())
            elif shape == _LIMIT:
                event["state"] = reader.uint()
            events.append(event)
    except (IndexError, struct.error) as exc:
        raise ValueError(f"truncated version graph event: {exc}") from exc
    return events
