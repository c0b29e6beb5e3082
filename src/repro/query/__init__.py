"""A small versioned SQL front end.

Decibel supports arbitrary declarative queries that compare multiple versions
(paper Section 2.2.3); its companion language VQuel is defined elsewhere and
the paper communicates queries through their SQL equivalents (Table 1).  This
package implements that SQL dialect: single-version scans
(``WHERE R.Version = 'v01'``), positive diffs (``NOT IN`` subqueries over
another version), multi-version self-joins, and head scans
(``WHERE HEAD(R.Version) = true``), plus ordinary column predicates,
``DISTINCT``, aggregates, ``GROUP BY``, ``ORDER BY`` and ``LIMIT``.

Execution is a three-stage pipeline: :mod:`repro.query.logical` lowers the
parsed AST into a logical plan, :mod:`repro.query.optimizer` applies
rule-based rewrites (predicate pushdown, ``NOT IN`` -> engine ``diff``), and
:mod:`repro.query.physical` maps the optimized plan onto the columnar
operators of :mod:`repro.core.operators`.
"""

from repro.query.tokenizer import Token, TokenType, tokenize
from repro.query.parser import (
    ColumnComparison,
    HeadCondition,
    JoinCondition,
    NotInSubquery,
    OrderKey,
    SelectItem,
    SelectQuery,
    TableRef,
    VersionCondition,
    parse_query,
)
from repro.query.logical import LogicalNode, lower_query, render_plan, result_columns
from repro.query.optimizer import optimize
from repro.query.physical import QueryResult, build_physical, execute_plan
from repro.query.executor import execute_query, explain_query, plan_query

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "SelectQuery",
    "SelectItem",
    "OrderKey",
    "TableRef",
    "VersionCondition",
    "HeadCondition",
    "ColumnComparison",
    "JoinCondition",
    "NotInSubquery",
    "parse_query",
    "LogicalNode",
    "lower_query",
    "render_plan",
    "result_columns",
    "optimize",
    "build_physical",
    "execute_plan",
    "QueryResult",
    "execute_query",
    "explain_query",
    "plan_query",
]
