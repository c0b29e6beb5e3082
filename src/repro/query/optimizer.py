"""Rule-based optimization: stage two of the query pipeline.

The main rewrites run over the logical plan, bottom-up:

* **Diff recognition** -- the ``NOT IN``-over-the-same-relation shape
  (lowered as an :class:`~repro.query.logical.AntiJoin` of two version
  scans) is rewritten to a :class:`~repro.query.logical.VersionDiff` when
  both sides are branch heads of the same relation compared on the primary
  key.  That routes the query to the engine's bitmap ``diff`` primitive
  (paper Section 2.2.3), which the tuple-first and hybrid layouts answer
  with bitmap intersections instead of two full scans.

* **Predicate pushdown** -- column comparisons held in
  :class:`~repro.query.logical.Filter` nodes are pushed into the scans they
  apply to, so they are evaluated inside the engines' column scans
  (``scan_branch_columns``/``scan_commit_columns``/``scan_branches_batched``)
  during the single pass over the data.  A filter whose terms
  are all pushed disappears (Filter-over-Scan collapse); terms that cannot
  be pushed (e.g. residual predicates above a diff) stay behind.

* **Build-side choice** -- a join whose one input carries a pushed-down
  predicate builds its hash table on that input, so the other input's scan
  is probed with the build's keys (see
  :class:`~repro.core.operators.HashJoin`).  It is a rule, not a cost
  model.
"""

from __future__ import annotations

from repro.core.predicates import ColumnPredicate, conjunction_terms
from repro.query.logical import (
    Aggregate,
    AntiJoin,
    Distinct,
    Filter,
    HeadScan,
    IndexScan,
    Join,
    Limit,
    LogicalNode,
    Project,
    Sort,
    TopN,
    VersionDiff,
    VersionScan,
)
from repro.query.parser import ColumnComparison

#: An index scan is selected only when its estimated match fraction is at or
#: below this threshold; above it a sequential scan's streaming decode beats
#: per-key point fetches.
INDEX_SELECTIVITY_THRESHOLD = 0.25

_index_selection = True


def set_index_selection(enabled: bool) -> None:
    """Globally enable/disable the index-scan rewrite (benchmark A/B knob)."""
    global _index_selection
    _index_selection = enabled


def index_selection_enabled() -> bool:
    """Whether :func:`select_index_scans` currently rewrites scans."""
    return _index_selection


def optimize(plan: LogicalNode) -> LogicalNode:
    """Apply all rewrite rules to ``plan`` and return the optimized plan."""
    plan = rewrite_diffs(plan)
    plan = push_down_predicates(plan)
    plan = select_index_scans(plan)
    plan = choose_build_sides(plan)
    plan = fuse_top_n(plan)
    plan = prune_scan_columns(plan)
    return plan


# -- rule: Limit over Sort -> Top-N --------------------------------------------


def fuse_top_n(node: LogicalNode) -> LogicalNode:
    """Fuse ``Limit`` directly above a ``Sort`` into a bounded-heap ``TopN``.

    Three shapes qualify, bottom-up:

    * ``Limit(Sort(x))`` becomes ``TopN(x)``;
    * ``Limit(Sort(Project(x)))`` where every sort key exists in ``x``'s
      schema becomes ``Project(TopN(x))`` -- the heap then sees raw scan
      batches and only the surviving k rows are projected (projection is 1:1
      and order-preserving, so the rewrite is exact);
    * ``Limit(Project(Sort(x)))`` (the planner's shape for ORDER BY on a
      non-projected column) becomes ``Project(TopN(x))`` the same way.

    The resulting node is tagged ``[top-n k=n]`` in EXPLAIN output (see
    :func:`rewrite_labels`), so the substitution is never silent.
    """
    node.children = [fuse_top_n(child) for child in node.children]
    if not isinstance(node, Limit):
        return node
    child = node.children[0]
    if isinstance(child, Sort):
        inner = child.child
        if isinstance(inner, Project) and all(
            key in inner.child.schema.column_names for key, _ in child.keys
        ):
            return Project(
                TopN(inner.child, child.keys, node.n), inner.user_columns
            )
        return TopN(child.child, child.keys, node.n)
    if isinstance(child, Project) and isinstance(child.children[0], Sort):
        sort = child.children[0]
        return Project(TopN(sort.child, sort.keys, node.n), child.user_columns)
    return node


def rewrite_labels(plan: LogicalNode) -> dict[int, str]:
    """Per-node rewrite annotations for EXPLAIN, keyed by ``id(node)``.

    Every ``TopN`` produced by :func:`fuse_top_n` is tagged ``top-n k=n``,
    every scan rewritten by :func:`select_index_scans` is tagged ``index``,
    every scan pruned by :func:`prune_scan_columns` is tagged ``project``,
    and a join's version-scan probe is tagged with the build-key filter the
    hash join adds to it, so no optimizer substitution is silent.
    """
    labels: dict[int, str] = {}

    def walk(node: LogicalNode) -> None:
        if isinstance(node, Join):
            probe, column = _probe_of(node)
            if isinstance(probe, VersionScan):
                labels[id(probe)] = f"probe: {column} IN build keys"
        elif isinstance(node, TopN):
            labels[id(node)] = f"top-n k={node.n}"
        elif isinstance(node, IndexScan):
            labels[id(node)] = "index"
        elif isinstance(node, VersionScan) and node.columns is not None:
            labels[id(node)] = "project"
        for child in node.children:
            walk(child)

    walk(plan)
    return labels


# -- rule: build joins on their filtered side ----------------------------------


def choose_build_sides(plan: LogicalNode) -> LogicalNode:
    """Build each join on the input that carries a pushed-down predicate.

    When exactly one input of a :class:`Join` is a scan with a pushed-down
    predicate, that input builds the hash table and the other probes it;
    otherwise the left input builds.  Building on the filtered side makes
    the probe's build-key filter selective: ``a.id = b.id AND b.c1 < 100``
    would otherwise hash every row of ``a`` and probe ``b`` with all of
    its keys.  The choice is recorded on the node (``Join.build``) for the
    physical join and EXPLAIN; the output columns stay left then right.
    """
    plan.children = [choose_build_sides(child) for child in plan.children]
    if isinstance(plan, Join):
        left, right = (_filtered_scan(child) for child in plan.children)
        if left != right:
            plan.build = "left" if left else "right"
    return plan


def _filtered_scan(node: LogicalNode) -> bool:
    return (
        isinstance(node, (VersionScan, HeadScan, IndexScan))
        and node.predicate is not None
    )


def _probe_of(join: Join) -> tuple[LogicalNode, str]:
    """A join's probe input and its first key column."""
    left_column, right_column = join.conditions[0]
    if join.build == "left":
        return join.right, right_column
    return join.left, left_column


# -- rule: selective predicate term -> index scan -----------------------------


def select_index_scans(plan: LogicalNode) -> LogicalNode:
    """Rewrite branch scans whose predicate an index answers selectively.

    A branch-head :class:`VersionScan` qualifies when its pushed-down
    predicate has a top-level :class:`ColumnPredicate` conjunct over an
    indexed column (the primary key, equality only; or a declared secondary
    index, equality and ranges) whose estimated match fraction is at most
    :data:`INDEX_SELECTIVITY_THRESHOLD`.  Among qualifying conjuncts the
    most selective one drives the scan; the full predicate is kept on the
    :class:`IndexScan` and re-applied after the fetch, so the rewrite never
    changes results.  EXPLAIN tags rewritten scans ``[index]``.
    """
    if not _index_selection:
        return plan
    plan.children = [select_index_scans(child) for child in plan.children]
    if not isinstance(plan, VersionScan):
        return plan
    if plan.kind != "branch" or plan.predicate is None:
        return plan
    hook = getattr(plan.engine, "index_hook", None)
    if hook is None:
        return plan
    best: tuple[float, ColumnPredicate] | None = None
    for term in conjunction_terms(plan.predicate):
        if not isinstance(term, ColumnPredicate):
            continue
        if not hook.has_index(term.column):
            continue
        if not hook.supports_op(term.column, term.op):
            continue
        fraction = hook.match_fraction(
            plan.version, term.column, term.op, term.value
        )
        if fraction is None or fraction > INDEX_SELECTIVITY_THRESHOLD:
            continue
        if best is None or fraction < best[0]:
            best = (fraction, term)
    if best is None:
        return plan
    term = best[1]
    return IndexScan(
        plan.engine,
        plan.relation,
        plan.alias,
        plan.version,
        term.column,
        term.op,
        term.value,
        plan.predicate,
    )


# -- rule: projection pushdown into columnar scans -----------------------------


def prune_scan_columns(plan: LogicalNode) -> LogicalNode:
    """Push the plan's column requirements down into version scans.

    Runs last.  Each :class:`VersionScan` (branch head or commit) whose
    ancestors reference a proper subset of the relation's columns gets
    ``scan.columns`` set -- predicate columns included, schema order
    preserved -- and its output schema projected, so the engine's column
    scan skips every unreferenced column.  Nodes that need their child's
    full schema (joins, diffs, head scans) stop the pruning.
    """

    def walk(node: LogicalNode, needed: set[str] | None) -> None:
        if isinstance(node, VersionScan):
            if needed is None:
                return
            all_names = node.engine.schema.column_names
            keep = set(needed)
            if node.predicate is not None:
                keep.update(t.column for t in _term_columns(node.predicate))
            if not keep:
                keep = {node.engine.schema.primary_key}
            ordered = tuple(name for name in all_names if name in keep)
            if len(ordered) < len(all_names):
                node.columns = ordered
                node.schema = node.engine.schema.project(list(ordered))
            return
        if isinstance(node, Project):
            walk(node.child, set(node.physical_columns))
            return
        if isinstance(node, Aggregate):
            child_needed = set(node.group_by)
            for item in node.items:
                if item.is_aggregate:
                    if item.argument != "*":
                        child_needed.add(item.argument)
                else:
                    child_needed.add(item.column)
            walk(node.child, child_needed)
            return
        if isinstance(node, Filter):
            child_needed = (
                None
                if needed is None
                else needed | {term.column for term in node.terms}
            )
            walk(node.child, child_needed)
            node.schema = node.child.schema
            return
        if isinstance(node, (Sort, TopN)):
            child_needed = (
                None
                if needed is None
                else needed | {column for column, _ in node.keys}
            )
            walk(node.children[0], child_needed)
            node.schema = node.children[0].schema
            return
        if isinstance(node, (Distinct, Limit)):
            walk(node.children[0], needed)
            node.schema = node.children[0].schema
            return
        # Joins, anti-joins, diffs, head scans and index scans need (or
        # produce) their full relation schema; pruning stops here.
        for child in node.children:
            walk(child, None)

    walk(plan, None)
    return plan


def _term_columns(term):
    """The leaf column predicates below one conjunct (Or/Not included)."""
    from repro.core.predicates import And, ModuloPredicate, Not, Or

    if isinstance(term, (And, Or)):
        return _term_columns(term.left) + _term_columns(term.right)
    if isinstance(term, Not):
        return _term_columns(term.inner)
    if isinstance(term, (ColumnPredicate, ModuloPredicate)):
        return [term]
    return []


# -- rule: NOT IN -> engine diff ---------------------------------------------------


def rewrite_diffs(node: LogicalNode) -> LogicalNode:
    """Rewrite qualifying anti-joins to the engine's ``diff`` primitive."""
    node.children = [rewrite_diffs(child) for child in node.children]
    if not isinstance(node, AntiJoin):
        return node
    outer, inner = node.outer, node.inner
    if not (isinstance(outer, VersionScan) and isinstance(inner, VersionScan)):
        return node
    if (
        outer.engine is inner.engine
        and outer.kind == "branch"
        and inner.kind == "branch"
        and outer.predicate is None
        and inner.predicate is None
        and node.outer_column == node.inner_column
        and node.outer_column == outer.schema.primary_key
    ):
        return VersionDiff(
            outer.engine,
            outer.relation,
            (outer.kind, outer.version),
            (inner.kind, inner.version),
            node.outer_column,
            include_modified=False,
        )
    return node


# -- rule: predicate pushdown ------------------------------------------------------


def push_down_predicates(node: LogicalNode) -> LogicalNode:
    """Push filter terms into scans; drop filters that become empty."""
    node.children = [push_down_predicates(child) for child in node.children]
    if not isinstance(node, Filter):
        return node
    child = node.child
    remaining = [term for term in node.terms if not _push_term(child, term)]
    if not remaining:
        return child
    node.terms = remaining
    return node


def _push_term(node: LogicalNode, term: ColumnComparison) -> bool:
    """Try to push one comparison into ``node``'s scans; True if consumed."""
    if isinstance(node, (VersionScan, HeadScan)):
        if term.alias not in (node.alias, None):
            return False
        if term.column not in node.engine.schema.column_names:
            return False
        node.attach_predicate(ColumnPredicate(term.column, term.op, term.value))
        return True
    if isinstance(node, Join):
        left, right = node.left, node.right
        if term.alias is None:
            # An unqualified predicate applies to every side that has the
            # column (the seed executor's semantics), so it is only consumed
            # when both sides can evaluate it during their scans.
            if _accepts_term(left, term) and _accepts_term(right, term):
                _push_term(left, term)
                _push_term(right, term)
                return True
            return False
        return _push_term(left, term) or _push_term(right, term)
    if isinstance(node, AntiJoin):
        # Only the outer side contributes output rows; inner-side predicates
        # come from the subquery and are already attached below.
        return _push_term(node.outer, term)
    return False


def _accepts_term(node: LogicalNode, term: ColumnComparison) -> bool:
    return (
        isinstance(node, (VersionScan, HeadScan))
        and term.alias in (node.alias, None)
        and term.column in node.engine.schema.column_names
    )
