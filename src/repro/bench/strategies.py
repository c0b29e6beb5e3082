"""Branching strategies (paper Section 4.1).

A strategy turns the benchmark configuration into a deterministic *plan*: an
ordered list of operations (create branch, insert, update, merge, retire)
that the driver replays against a storage engine.  Deep and flat are the two
stress extremes; science and curation model the usage patterns of
Section 1.1.  After planning, a strategy also knows which branches the
benchmark queries should target (e.g. "the tail branch", "the oldest active
branch", "mainline and an active development branch").
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import BenchmarkError

MAINLINE = "master"


class OperationKind(enum.Enum):
    """The kinds of operations a plan may contain."""

    CREATE_BRANCH = "create-branch"
    INSERT = "insert"
    UPDATE = "update"
    MERGE = "merge"
    RETIRE = "retire"


@dataclass(frozen=True)
class Operation:
    """One step of a benchmark plan."""

    kind: OperationKind
    branch: str = ""
    parent: str | None = None
    target: str | None = None
    source: str | None = None


@dataclass
class StrategyConfig:
    """Parameters shared by every strategy."""

    num_branches: int = 10
    total_operations: int = 10_000
    update_fraction: float = 0.2
    seed: int = 7
    #: Science only: odds in favour of the mainline when choosing the branch
    #: for an insert (the paper uses a 2-to-1 skew).
    mainline_skew: int = 2
    #: Science only: how many operations a working branch stays active.
    branch_lifetime_operations: int = 0  # 0 -> derived from the totals
    #: Curation only: development branch length in operations before merging.
    dev_branch_operations: int = 0  # 0 -> derived from the totals

    def __post_init__(self) -> None:
        if self.num_branches < 1:
            raise BenchmarkError("num_branches must be at least 1")
        if self.total_operations < self.num_branches:
            raise BenchmarkError("need at least one operation per branch")
        if not 0.0 <= self.update_fraction < 1.0:
            raise BenchmarkError("update_fraction must be in [0, 1)")


class BranchingStrategy(ABC):
    """Base class: plans operations and nominates query targets."""

    name = "abstract"

    def __init__(self, config: StrategyConfig | None = None, **overrides):
        if config is None:
            config = StrategyConfig(**overrides)
        elif overrides:
            raise BenchmarkError("pass either a StrategyConfig or keyword overrides")
        self.config = config
        self.rng = random.Random(config.seed)
        #: Branches that remain active (accepting queries) after loading.
        self.active_branches: list[str] = [MAINLINE]
        #: All branches ever created, in creation order.
        self.all_branches: list[str] = [MAINLINE]
        self._plan: list[Operation] | None = None

    # -- planning -------------------------------------------------------------------

    def plan(self) -> list[Operation]:
        """The full, deterministic operation schedule (cached)."""
        if self._plan is None:
            self._plan = self._build_plan()
        return self._plan

    @abstractmethod
    def _build_plan(self) -> list[Operation]:
        """Produce the operation schedule."""

    def _data_operation(self, branch: str) -> Operation:
        """An insert or update on ``branch`` according to the update mix."""
        if self.rng.random() < self.config.update_fraction:
            return Operation(OperationKind.UPDATE, branch=branch)
        return Operation(OperationKind.INSERT, branch=branch)

    def _register_branch(self, name: str) -> None:
        self.all_branches.append(name)
        self.active_branches.append(name)

    def _retire(self, name: str) -> None:
        if name in self.active_branches:
            self.active_branches.remove(name)

    # -- query target selection (paper Section 4.1) -------------------------------------

    @abstractmethod
    def single_scan_branch(self, rng: random.Random | None = None) -> str:
        """The branch Query 1 should scan."""

    @abstractmethod
    def multi_scan_pair(self, rng: random.Random | None = None) -> tuple[str, str]:
        """The branch pair Queries 2 and 3 should compare."""

    def query1_targets(self) -> dict[str, str]:
        """Named Query 1 scan targets, as labelled in the paper's Figure 7."""
        return {self.name: self.single_scan_branch(random.Random(0))}

    def _rng(self, rng: random.Random | None) -> random.Random:
        return rng if rng is not None else self.rng


class DeepStrategy(BranchingStrategy):
    """A single linear chain: each branch is created from the end of the last.

    Once a branch is created no further records go to its parent, so inserts
    and updates always target the newest branch (the *tail*).
    """

    name = "deep"

    def _build_plan(self) -> list[Operation]:
        config = self.config
        per_branch = config.total_operations // config.num_branches
        plan: list[Operation] = []
        previous = MAINLINE
        for index in range(config.num_branches):
            if index == 0:
                branch = MAINLINE
            else:
                branch = f"b{index:03d}"
                plan.append(
                    Operation(
                        OperationKind.CREATE_BRANCH, branch=branch, parent=previous
                    )
                )
                self._register_branch(branch)
                self._retire(previous)
            for _ in range(per_branch):
                plan.append(self._data_operation(branch))
            previous = branch
        self.tail_branch = previous
        return plan

    def single_scan_branch(self, rng: random.Random | None = None) -> str:
        return self.tail_branch

    def query1_targets(self) -> dict[str, str]:
        return {"deep-tail": self.tail_branch}

    def multi_scan_pair(self, rng: random.Random | None = None) -> tuple[str, str]:
        chooser = self._rng(rng)
        # The tail versus either its parent or the head of the structure.
        index = self.all_branches.index(self.tail_branch)
        parent = self.all_branches[index - 1] if index > 0 else MAINLINE
        other = parent if chooser.random() < 0.5 else MAINLINE
        return self.tail_branch, other


class FlatStrategy(BranchingStrategy):
    """Many children of a single initial parent.

    The parent is populated first; the children are then created together and
    loaded in interleaved fashion, each receiving the same number of records.
    """

    name = "flat"

    def _build_plan(self) -> list[Operation]:
        config = self.config
        per_branch = config.total_operations // config.num_branches
        plan: list[Operation] = [
            self._data_operation(MAINLINE) for _ in range(per_branch)
        ]
        children = [f"b{index:03d}" for index in range(1, config.num_branches)]
        for child in children:
            plan.append(
                Operation(OperationKind.CREATE_BRANCH, branch=child, parent=MAINLINE)
            )
            self._register_branch(child)
        # Interleaved loading: each insert goes to a child selected uniformly
        # at random, with every child receiving the same total.
        slots: list[str] = []
        for child in children:
            slots.extend([child] * per_branch)
        self.rng.shuffle(slots)
        plan.extend(self._data_operation(branch) for branch in slots)
        self.children = children
        return plan

    def single_scan_branch(self, rng: random.Random | None = None) -> str:
        # The paper always selects the newest branch (the choice is arbitrary
        # as all children are equivalent).
        return self.children[-1] if self.children else MAINLINE

    def query1_targets(self) -> dict[str, str]:
        return {"flat-child": self.single_scan_branch()}

    def multi_scan_pair(self, rng: random.Random | None = None) -> tuple[str, str]:
        chooser = self._rng(rng)
        child = chooser.choice(self.children) if self.children else MAINLINE
        return child, MAINLINE


class ScienceStrategy(BranchingStrategy):
    """The data-science pattern: working branches off an evolving mainline.

    New branches start either from the mainline's current state or from the
    head of an active working branch; there are no merges; branches retire
    after a fixed lifetime; inserts favour the mainline with a configurable
    skew (2-to-1 by default, as in the paper's evaluation).
    """

    name = "science"

    def _build_plan(self) -> list[Operation]:
        config = self.config
        plan: list[Operation] = []
        num_working = max(config.num_branches - 1, 0)
        creation_gap = config.total_operations // (num_working + 1)
        lifetime = config.branch_lifetime_operations or creation_gap * 2
        branch_ages: dict[str, int] = {}
        created = 0
        warmup = max(creation_gap // 2, 1)
        for op_index in range(config.total_operations):
            if (
                created < num_working
                and op_index >= warmup
                and (op_index - warmup) % creation_gap == 0
            ):
                name = f"work{created:03d}"
                actives = [b for b in self.active_branches if b != MAINLINE]
                if actives and self.rng.random() < 0.3:
                    parent = self.rng.choice(actives)
                else:
                    parent = MAINLINE
                plan.append(
                    Operation(OperationKind.CREATE_BRANCH, branch=name, parent=parent)
                )
                self._register_branch(name)
                branch_ages[name] = 0
                created += 1
            branch = self._choose_branch()
            plan.append(self._data_operation(branch))
            expired = []
            for name in branch_ages:
                branch_ages[name] += 1
                if branch_ages[name] >= lifetime:
                    expired.append(name)
            for name in expired:
                plan.append(Operation(OperationKind.RETIRE, branch=name))
                self._retire(name)
                del branch_ages[name]
        self._working_order = [b for b in self.all_branches if b != MAINLINE]
        return plan

    def _choose_branch(self) -> str:
        actives = [b for b in self.active_branches if b != MAINLINE]
        if not actives:
            return MAINLINE
        # Skew in favour of the mainline: mainline_skew tickets for the
        # mainline versus one for some active working branch.
        tickets = self.config.mainline_skew + 1
        if self.rng.randrange(tickets) < self.config.mainline_skew:
            return MAINLINE
        return self.rng.choice(actives)

    def _query_candidates(self) -> list[str]:
        actives = [b for b in self.active_branches if b != MAINLINE]
        if not actives:
            actives = self._working_order[-1:] or [MAINLINE]
        oldest = actives[0]
        youngest = actives[-1]
        return [MAINLINE, oldest, youngest]

    def single_scan_branch(self, rng: random.Random | None = None) -> str:
        return self._rng(rng).choice(self._query_candidates())

    def query1_targets(self) -> dict[str, str]:
        mainline, oldest, youngest = self._query_candidates()
        return {"sci-young-active": youngest, "sci-old-active": oldest}

    def multi_scan_pair(self, rng: random.Random | None = None) -> tuple[str, str]:
        candidates = self._query_candidates()
        oldest_active = candidates[1]
        return oldest_active, MAINLINE


class CurationStrategy(BranchingStrategy):
    """The data-curation pattern: development and fix branches merged back.

    Development branches are created off the mainline periodically and merged
    back after a fixed number of operations; short-lived feature/fix branches
    hang off the mainline or an active development branch and merge back into
    their parents.  Modifications go to a branch chosen uniformly among the
    mainline and all active branches.
    """

    name = "curation"

    def _build_plan(self) -> list[Operation]:
        config = self.config
        plan: list[Operation] = []
        num_extra = max(config.num_branches - 1, 0)
        creation_gap = config.total_operations // (num_extra + 1)
        dev_length = self.config.dev_branch_operations or creation_gap
        feature_length = max(dev_length // 4, 1)
        created = 0
        branch_parent: dict[str, str] = {}
        branch_remaining: dict[str, int] = {}
        warmup = max(creation_gap // 2, 1)
        self.merge_count = 0
        for op_index in range(config.total_operations):
            if (
                created < num_extra
                and op_index >= warmup
                and (op_index - warmup) % creation_gap == 0
            ):
                is_feature = created % 3 == 2  # every third branch is short-lived
                if is_feature:
                    name = f"fix{created:03d}"
                    dev_branches = [
                        b for b in self.active_branches if b.startswith("dev")
                    ]
                    parent = (
                        self.rng.choice(dev_branches)
                        if dev_branches and self.rng.random() < 0.5
                        else MAINLINE
                    )
                    lifetime = feature_length
                else:
                    name = f"dev{created:03d}"
                    parent = MAINLINE
                    lifetime = dev_length
                plan.append(
                    Operation(OperationKind.CREATE_BRANCH, branch=name, parent=parent)
                )
                self._register_branch(name)
                branch_parent[name] = parent
                branch_remaining[name] = lifetime
                created += 1
            branch = self.rng.choice(self.active_branches)
            plan.append(self._data_operation(branch))
            merged = []
            for name in branch_remaining:
                branch_remaining[name] -= 1
                if branch_remaining[name] <= 0:
                    merged.append(name)
            for name in merged:
                plan.append(
                    Operation(
                        OperationKind.MERGE,
                        target=branch_parent[name],
                        source=name,
                    )
                )
                self.merge_count += 1
                self._retire(name)
                del branch_remaining[name]
        self._dev_branches = [b for b in self.all_branches if b.startswith("dev")]
        self._fix_branches = [b for b in self.all_branches if b.startswith("fix")]
        return plan

    def _query_candidates(self) -> list[str]:
        active_dev = [b for b in self.active_branches if b.startswith("dev")]
        active_fix = [b for b in self.active_branches if b.startswith("fix")]
        candidates = [MAINLINE]
        candidates.append(
            self.rng.choice(active_dev) if active_dev else (self._dev_branches[-1] if self._dev_branches else MAINLINE)
        )
        candidates.append(
            self.rng.choice(active_fix) if active_fix else (self._fix_branches[-1] if self._fix_branches else MAINLINE)
        )
        return candidates

    def single_scan_branch(self, rng: random.Random | None = None) -> str:
        return self._rng(rng).choice(self._query_candidates())

    def query1_targets(self) -> dict[str, str]:
        mainline, dev, fix = self._query_candidates()
        return {"cur-feature": fix, "cur-dev": dev, "cur-mainline": mainline}

    def multi_scan_pair(self, rng: random.Random | None = None) -> tuple[str, str]:
        candidates = self._query_candidates()
        return MAINLINE, candidates[1]


_STRATEGIES = {
    "deep": DeepStrategy,
    "flat": FlatStrategy,
    "science": ScienceStrategy,
    "sci": ScienceStrategy,
    "curation": CurationStrategy,
    "cur": CurationStrategy,
}


def make_strategy(name: str, config: StrategyConfig | None = None, **overrides) -> BranchingStrategy:
    """Create a strategy by name (``deep``, ``flat``, ``science``, ``curation``)."""
    try:
        cls = _STRATEGIES[name.lower()]
    except KeyError:
        raise BenchmarkError(
            f"unknown branching strategy {name!r}; expected one of {sorted(set(_STRATEGIES))}"
        ) from None
    return cls(config, **overrides)
