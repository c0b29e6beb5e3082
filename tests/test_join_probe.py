"""Query 3's probe reads only what its build side can match.

Once a hash join has hashed its build side, a probe that is a version scan
is issued with a build-key filter ANDed into its pushed-down predicate, so
the engines decode the key column of a cold page and then only the
matching records.  The optimizer builds on the side that carries the
predicate, so the filter is selective wherever the query puts it.  Answers
are checked against plain Python over the reference row scans
(``scan_branch``), and decode work against a counting wrapper over the
record codec's row decodes, on all three engines.
"""

from __future__ import annotations

import pytest

from repro.core.predicates import ColumnPredicate
from repro.core.record import Record, RecordCodec
from repro.core.schema import Schema
from repro.db.database import Decibel
from tests.conftest import ENGINE_CLASSES, SMALL_PAGE_SIZE

ROWS = 2000
#: ``c1 = key % MODULUS``, so ``c1 < 1`` selects one key in MODULUS.
MODULUS = 50
Q3 = (
    "SELECT * FROM R AS a, R AS b WHERE a.Version = '{a}' "
    "AND b.Version = '{b}' AND a.id = b.id{keys} AND {side}.c1 < {bound}"
)


@pytest.fixture(params=sorted(ENGINE_CLASSES))
def database(request, tmp_path):
    db = Decibel(
        str(tmp_path / "db"), engine=request.param, page_size=SMALL_PAGE_SIZE
    )
    relation = db.create_relation("R", Schema.of_ints(4))
    relation.init([Record((key, key % MODULUS, key * 3, 0)) for key in range(ROWS)])
    relation.branch("dev", from_branch="master")
    for key in range(0, ROWS, 7):
        relation.update("dev", Record((key, key % MODULUS, key * 3 + 1, 1)))
    for key in range(ROWS, ROWS + 300):
        relation.insert("dev", Record((key, key % MODULUS, key * 3, 2)))
    relation.delete("dev", MODULUS)
    relation.commit("dev")
    yield db
    db.close()


def q3(a: str, b: str, side: str, bound: int = 1, composite: bool = False) -> str:
    keys = " AND a.c2 = b.c2" if composite else ""
    return Q3.format(a=a, b=b, side=side, bound=bound, keys=keys)


def oracle(relation, a: str, b: str, side: str, bound: int = 1, composite=False):
    """The join of the two branches' row scans, filtered on ``side``."""
    key = (lambda row: (row[0], row[2])) if composite else (lambda row: row[0])
    left = [record.values for record in relation.scan(a)]
    right = [record.values for record in relation.scan(b)]
    if side == "a":
        left = [row for row in left if row[1] < bound]
    else:
        right = [row for row in right if row[1] < bound]
    by_key: dict = {}
    for row in right:
        by_key.setdefault(key(row), []).append(row)
    return sorted(row + match for row in left for match in by_key.get(key(row), []))


class DecodeCounter:
    """Counts the records the codec decodes whole (every column)."""

    def __init__(self, monkeypatch):
        self.rows = 0
        for name in ("decode_batch_columns", "decode_batch"):
            monkeypatch.setattr(RecordCodec, name, self._counting(getattr(RecordCodec, name)))

    def _counting(self, decode):
        def counted(codec, data, offset=0, count=None):
            if count is None:
                count = (len(data) - offset) // codec.record_size
            self.rows += max(count, 0)
            return decode(codec, data, offset, count)

        return counted


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("composite", [False, True])
def test_both_filter_placements_match_the_row_scan_oracle(database, side, composite):
    relation = database.relation("R")
    for a, b in [("dev", "master"), ("master", "dev"), ("dev", "dev")]:
        sql = q3(a, b, side, bound=3, composite=composite)
        result = database.query(sql)
        assert sorted(map(tuple, result.rows)) == oracle(
            relation, a, b, side, bound=3, composite=composite
        ), sql
        assert result.columns[:4] == ["id", "c1", "c2", "c3"]
        assert result.columns[4:] == ["id_r", "c1_r", "c2_r", "c3_r"]


@pytest.mark.parametrize("side, build", [("a", "left"), ("b", "right")])
def test_explain_shows_the_build_side_and_the_probe_filter(database, side, build):
    plan = database.explain(q3("dev", "master", side)).splitlines()
    assert plan[0] == f"Join(id = id, build={build})"
    probe = plan[2] if build == "left" else plan[1]
    filtered = plan[1] if build == "left" else plan[2]
    assert probe.endswith("[probe: id IN build keys]")
    assert "predicate=[c1 < 1]" in filtered


@pytest.mark.parametrize("side", ["a", "b"])
def test_cold_probe_decodes_only_matches(database, monkeypatch, side):
    relation = database.relation("R")
    engine = relation.engine
    build_branch, probe_branch = ("dev", "master") if side == "a" else ("master", "dev")
    per_page = SMALL_PAGE_SIZE // RecordCodec(engine.schema).record_size
    matches = len(oracle(relation, "dev", "master", side))
    probe_rows = sum(1 for _ in relation.scan(probe_branch))
    # The bound below is far under a full decode of the probe branch.
    assert matches + per_page < probe_rows // 4
    counter = DecodeCounter(monkeypatch)
    engine.drop_caches()
    list(engine.scan_branch_columns(build_branch, ColumnPredicate("c1", "<", 1)))
    build_decodes = counter.rows
    engine.drop_caches()
    counter.rows = 0
    result = database.query(q3("dev", "master", side))
    assert len(result.rows) == matches
    assert counter.rows - build_decodes <= matches + per_page


def test_empty_build_issues_no_probe_scan(database, monkeypatch):
    engine = database.relation("R").engine
    issued: list[str] = []
    scan = engine.scan_branch_columns

    def recording(branch, *args, **kwargs):
        issued.append(branch)
        return scan(branch, *args, **kwargs)

    monkeypatch.setattr(engine, "scan_branch_columns", recording)
    assert database.query(q3("dev", "master", "a", bound=0)).rows == []
    assert database.query(q3("dev", "master", "b", bound=0)).rows == []
    assert issued == ["dev", "master"]
    assert database.query(q3("dev", "master", "a")).rows
    assert issued[2:] == ["dev", "master"]
