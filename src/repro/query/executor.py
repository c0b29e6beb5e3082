"""Entry points of the query pipeline: parse -> lower -> optimize -> execute.

Every SQL query runs through three explicit stages:

1. :mod:`repro.query.logical` lowers the parsed AST into a logical plan
   (version scans, diffs, joins, filters, aggregation, ordering);
2. :mod:`repro.query.optimizer` applies rule-based rewrites -- predicate
   pushdown into engine scans, recognition of the ``NOT IN`` shape as the
   engine's bitmap ``diff`` primitive, index-scan selection, Top-N fusion
   and projection pushdown;
3. :mod:`repro.query.physical` maps the optimized plan onto the columnar
   operators of :mod:`repro.core.operators` and assembles the result.

:func:`explain_query` returns the optimized plan as indented text, which is
what :meth:`repro.db.database.Decibel.explain` surfaces to users.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.query.logical import LogicalNode, lower_query, render_plan
from repro.query.optimizer import optimize, rewrite_labels
from repro.query.parser import parse_query
from repro.query.physical import QueryResult, execute_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Decibel

__all__ = ["QueryResult", "execute_query", "explain_query", "plan_query"]


def plan_query(db: "Decibel", sql: str) -> LogicalNode:
    """Parse ``sql`` and return its optimized logical plan."""
    return optimize(lower_query(db, parse_query(sql)))


def execute_query(db: "Decibel", sql: str) -> QueryResult:
    """Parse and execute ``sql`` against the relations registered in ``db``."""
    return execute_plan(plan_query(db, sql))


def explain_query(db: "Decibel", sql: str) -> str:
    """The optimized plan for ``sql``, rendered as an indented tree.

    Optimizer substitutions carry tags (``[top-n k=n]`` for the
    Limit-over-Sort rewrite, ``[index]`` for index scans, ``[project]`` for
    column-pruned scans), so no rewrite is silent.

    Explained plans are always run through the plan verifier
    (:func:`repro.analysis.plan_check.verify_plan`): EXPLAIN is the
    debugging surface, so an invariant-violating plan must fail loudly
    here rather than render as if it were executable.
    """
    from repro.analysis.plan_check import verify_plan

    plan = plan_query(db, sql)
    verify_plan(plan)
    return render_plan(plan, rewrite_labels(plan))
