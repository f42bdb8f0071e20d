"""The on-disk columnar block format and the block store.

Covers :mod:`repro.dbms.columnar` (exact round trips through the
numeric lanes and the object sidecar, zero-copy mmap reads, corruption
rejection, atomic writes) and :class:`ColumnarStore` (idempotent
publish, version GC, forget), plus the ``Database``-level block-cache
knobs the store's spill tier rides on: entry capacity, shared byte
budget, spill-to-disk with bit-identical reloads, and the EXPLAIN /
QueryMetrics surfaces that report it all.

The append-only re-publish (a block built from the previous version's
block plus the new rows) is held to byte identity with a full encode,
both on the format level and over random mutation sequences run
through a process-pool database.
"""

import gc
import pickle
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dbms import columnar
from repro.dbms.columnar import (
    BlockReader,
    ColumnarStore,
    atomic_write_bytes,
    encode_block,
)
from repro.dbms.database import Database
from repro.dbms.faults import FaultPlan
from repro.dbms.schema import (
    Column,
    TableSchema,
    dataset_schema,
    dimension_names,
)
from repro.dbms.storage import BLOCK_CACHE_CAPACITY, BlockCacheConfig
from repro.dbms.types import SqlType
from repro.errors import ExportError, FaultInjected, SchemaError


def _write_block(tmp_path, columns, name="block.blk"):
    path = tmp_path / name
    atomic_write_bytes(path, encode_block(columns))
    return BlockReader(path)


# ---------------------------------------------------------- block format
class TestBlockFormat:
    def test_int_and_float_lanes_round_trip_exactly(self, tmp_path):
        ints = [1, -5, 2**62, 0]
        floats = [0.1, -1e300, 5e-324, 0.0]
        reader = _write_block(tmp_path, [ints, floats])
        assert reader.column_values(0) == ints
        assert reader.column_values(1) == floats
        assert all(type(v) is int for v in reader.column_values(0))
        assert all(type(v) is float for v in reader.column_values(1))
        reader.close()

    def test_nulls_round_trip_in_numeric_lanes(self, tmp_path):
        ints = [None, 2, None, 4, 5]
        floats = [1.5, None, 3.5, None, None]
        reader = _write_block(tmp_path, [ints, floats])
        assert reader.column_values(0) == ints
        assert reader.column_values(1) == floats
        reader.close()

    def test_exactness_rules_route_to_object_sidecar(self, tmp_path):
        # bool is an int subclass, oversize ints overflow int64, strings
        # and mixed columns have no lane: all must come back
        # type-preserving via the pickled sidecar.
        bools = [True, False, True]
        oversize = [2**63, 1, 2]
        strings = ["a", None, "c"]
        mixed = [1, "two", 3.0]
        reader = _write_block(tmp_path, [bools, oversize, strings, mixed])
        assert reader.column_values(0) == bools
        assert all(type(v) is bool for v in reader.column_values(0))
        assert reader.column_values(1) == oversize
        assert reader.column_values(2) == strings
        values = reader.column_values(3)
        assert values == mixed
        assert [type(v) for v in values] == [int, str, float]
        reader.close()

    def test_row_tuples_matches_column_zip(self, tmp_path):
        columns = [[1, 2, 3], ["x", "y", None], [0.5, None, 2.5]]
        reader = _write_block(tmp_path, columns)
        assert reader.row_tuples() == list(zip(*columns))
        reader.close()

    def test_empty_block(self, tmp_path):
        reader = _write_block(tmp_path, [[], []])
        assert reader.rows == 0
        assert reader.row_tuples() == []
        assert reader.column_values(0) == []
        reader.close()

    def test_float_column_null_becomes_nan(self, tmp_path):
        reader = _write_block(tmp_path, [[1.0, None, 3.0], [1, None, 3]])
        for position in (0, 1):
            out = reader.float_column(position)
            assert out[0] == 1.0 and out[2] == 3.0
            assert np.isnan(out[1])
        reader.close()

    def test_float_matrix_matches_partition_numeric_matrix(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.normal(size=11).tolist()
        b = [None if i % 4 == 0 else float(i) for i in range(11)]
        reader = _write_block(tmp_path, [a, b])
        expected = np.column_stack(
            [
                np.asarray(a, dtype=float),
                np.asarray(
                    [np.nan if v is None else v for v in b], dtype=float
                ),
            ]
        )
        np.testing.assert_array_equal(
            reader.float_matrix([0, 1]), expected
        )
        reader.close()

    def test_non_null_float_lane_is_zero_copy_and_read_only(self, tmp_path):
        reader = _write_block(tmp_path, [[1.5, 2.5, 3.5]])
        lane = reader.float_column(0)
        # A view over the mapped pages: no copy was made, and the
        # mapping is read-only so the view cannot be scribbled on.
        assert lane.base is not None
        assert not lane.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            lane[0] = 9.0
        reader.close()

    def test_reader_rejects_non_block_file(self, tmp_path):
        path = tmp_path / "junk.blk"
        path.write_bytes(b"not a columnar block at all")
        with pytest.raises(ExportError, match="not a columnar block"):
            BlockReader(path)

    def test_reader_rejects_missing_file(self, tmp_path):
        with pytest.raises(ExportError, match="cannot map block"):
            BlockReader(tmp_path / "absent.blk")

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ExportError, match="differ in length"):
            encode_block([[1, 2], [1]])

    def test_atomic_write_leaves_no_temp_sibling(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [path]


# ------------------------------------------------------------ block store
def _loaded_db(n=60, workers=1, **kwargs):
    rng = np.random.default_rng(11)
    d = 2
    db = Database(amps=4, executor_workers=workers, **kwargs)
    db.create_table("x", dataset_schema(d, with_y=True))
    columns = {"i": np.arange(1, n + 1), "y": rng.normal(size=n)}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = rng.normal(50.0, 10.0, size=n)
    db.load_columns("x", columns)
    return db


class TestColumnarStore:
    def test_publish_is_idempotent_per_version(self, tmp_path):
        with _loaded_db() as db:
            store = ColumnarStore(tmp_path / "blocks")
            table = db.catalog.table("x")
            first = store.publish(table)
            assert first["fresh"] is True
            assert first["partitions"]  # non-empty partitions listed
            written = store.blocks_written
            assert written == len(first["partitions"])
            second = store.publish(table)
            assert second["fresh"] is False
            assert store.blocks_written == written  # nothing rewritten
            assert second["version"] == first["version"]

    def test_descriptor_is_plain_and_tiny(self, tmp_path):
        # The whole point of the block store: task submission ships a
        # descriptor, never data.  It must pickle small no matter how
        # large the table is.
        with _loaded_db(n=500) as db:
            store = ColumnarStore(tmp_path / "blocks")
            descriptor = store.publish(db.catalog.table("x"))
            assert len(pickle.dumps(descriptor)) < 512

    def test_blocks_round_trip_partition_rows(self, tmp_path):
        with _loaded_db() as db:
            store = ColumnarStore(tmp_path / "blocks")
            table = db.catalog.table("x")
            published = store.publish(table)
            for pid in published["partitions"]:
                reader = BlockReader(
                    store.block_path(
                        published["table"], published["version"], pid
                    )
                )
                assert reader.row_tuples() == list(
                    table.partitions[pid].rows()
                )
                reader.close()

    def test_mutation_bumps_version_and_gc_keeps_two(self, tmp_path):
        with _loaded_db() as db:
            store = ColumnarStore(tmp_path / "blocks")
            table = db.catalog.table("x")
            versions = []
            for step in range(4):
                db.execute(
                    f"INSERT INTO x (i, x1, x2, y) "
                    f"VALUES ({1000 + step}, 1.0, 2.0, 3.0)"
                )
                versions.append(store.publish(table)["version"])
            assert versions == sorted(set(versions))  # strictly grows
            kept = sorted(
                entry.name for entry in store.table_dir("x").iterdir()
            )
            assert len(kept) == 2  # _KEEP_VERSIONS
            assert kept[-1] == f"v{versions[-1]}"

    def test_forget_drops_directory_and_republish_recreates(self, tmp_path):
        with _loaded_db() as db:
            store = ColumnarStore(tmp_path / "blocks")
            table = db.catalog.table("x")
            store.publish(table)
            assert store.table_dir("x").exists()
            store.forget("x")
            assert not store.table_dir("x").exists()
            assert store.publish(table)["fresh"] is True


    def test_append_only_publish_extends_previous_blocks(self, tmp_path):
        with _loaded_db() as db:
            store = ColumnarStore(tmp_path / "blocks")
            table = db.catalog.table("x")
            store.publish(table)
            assert (store.rows_encoded, store.rows_reused) == (60, 0)
            db.insert_rows(
                "x", [(1000 + k, float(k), None, 1.0) for k in range(7)]
            )
            published = store.publish(table)
            assert store.rows_encoded == 60 + 7  # only the new rows
            assert store.rows_reused == 60
            for pid in published["partitions"]:
                partition = table.partitions[pid]
                path = store.block_path(
                    published["table"], published["version"], pid
                )
                assert path.read_bytes() == encode_block(
                    [partition.column(i) for i in range(partition.width)]
                )

    def test_destructive_change_reencodes_every_row(self, tmp_path):
        with _loaded_db() as db:
            store = ColumnarStore(tmp_path / "blocks")
            table = db.catalog.table("x")
            store.publish(table)
            db.execute("DELETE FROM x WHERE i <= 10")
            store.publish(table)
            assert store.rows_encoded == 60 + 50
            assert store.rows_reused == 0

    def test_recreated_table_gets_a_new_incarnation(self, tmp_path):
        with _loaded_db() as db:
            store = ColumnarStore(tmp_path / "blocks")
            first = store.publish(db.catalog.table("x"))
            db.catalog.drop_table("x")
            db.execute("CREATE TABLE x (i INTEGER PRIMARY KEY, x1 FLOAT)")
            db.execute("INSERT INTO x VALUES (1, 100.0)")
            second = store.publish(db.catalog.table("x"))
            assert second["fresh"] is True
            assert second["table"] != first["table"]
            assert store.rows_reused == 0  # never extends a dead block
            assert not (store.root / first["table"]).exists()


# ------------------------------------------------ append-only re-publish
_PART_VALUES = {
    "int": st.integers(-(2**63), 2**63 - 1),
    "float": st.floats(),
    "oversize": st.integers(2**63, 2**70),
    "bool": st.booleans(),
    "str": st.text(max_size=3),
    "null": st.none(),
}


@st.composite
def _column_part(draw, rows):
    """*rows* values of one drawn kind, optionally sprinkled with NULLs."""
    values = _PART_VALUES[draw(st.sampled_from(sorted(_PART_VALUES)))]
    if draw(st.booleans()):
        values = st.one_of(st.none(), values)
    return draw(st.lists(values, min_size=rows, max_size=rows))


def _reference_classify(values):
    """The one-value-at-a-time lane classifier the block format was
    first written with: ``(kind or None, has_null)``, kind decided by
    the first non-NULL value and demoted to "obj" by any mismatch."""
    kind, has_null = None, False
    for value in values:
        if value is None:
            has_null = True
        elif type(value) is int and -(2**63) <= value < 2**63:
            kind = "i8" if kind in (None, "i8") else "obj"
        elif type(value) is float:
            kind = "f8" if kind in (None, "f8") else "obj"
        else:
            kind = "obj"
    return kind, has_null


class TestPrefixEncode:
    @given(values=st.data())
    @settings(max_examples=200, deadline=None)
    def test_classifier_matches_reference_loop(self, values):
        column = values.draw(_column_part(5)) + values.draw(_column_part(5))
        assert columnar._classify_column(column) == _reference_classify(column)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_prefix_encode_is_byte_identical(self, data):
        # Prefix and tail are drawn independently, so every lane-kind
        # transition (int→float, →oversize, →bool/str, all-NULL prefix,
        # empty tail) meets the reuse rule.
        head = data.draw(st.integers(1, 20), label="head")
        tail = data.draw(st.integers(0, 20), label="tail")
        columns = [
            data.draw(_column_part(head)) + data.draw(_column_part(tail))
            for _ in range(data.draw(st.integers(1, 4), label="width"))
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prefix.blk"
            atomic_write_bytes(path, encode_block([c[:head] for c in columns]))
            prefix = BlockReader(path)
            try:
                assert encode_block(columns, prefix) == encode_block(columns)
            finally:
                prefix.close()

    def test_mismatched_prefix_rejected(self, tmp_path):
        path = tmp_path / "prefix.blk"
        atomic_write_bytes(path, encode_block([[1, 2, 3]]))
        prefix = BlockReader(path)
        # Longer than the columns, or of another width: not a prefix.
        for columns in ([[1, 2]], [[1, 2, 3], [1.0, 2.0, 3.0]]):
            with pytest.raises(ExportError, match="prefix block"):
                encode_block(columns, prefix)
        prefix.close()


_MIXED_SCHEMA = TableSchema.build(
    [
        Column("i", SqlType.INTEGER, nullable=False),
        ("a", SqlType.INTEGER),
        ("f", SqlType.FLOAT),
        ("s", SqlType.VARCHAR),
    ],
    primary_key="i",
)
_ROW_A = st.one_of(st.none(), st.integers(-5, 5), st.integers(2**63, 2**64))
_ROW_F = st.one_of(st.none(), st.floats())
_ROW_S = st.one_of(st.none(), st.text(max_size=2))
# Bulk loads store values uncoerced: integral floats and bools land in
# the INTEGER column, ints in the FLOAT column (an i8 lane that a later
# float insert turns mixed).
_LOAD_A = st.one_of(
    st.lists(st.one_of(st.none(), st.integers(-5, 5)), min_size=1),
    st.lists(st.integers(-5, 5).map(float), min_size=1),
    st.lists(st.booleans(), min_size=1),
)
_LOAD_F = st.one_of(
    st.lists(st.integers(-5, 5), min_size=1),
    st.lists(st.one_of(st.none(), st.floats()), min_size=1),
    st.lists(st.none(), min_size=1),
)
_MUTATIONS = st.one_of(
    st.tuples(st.just("insert"), st.tuples(_ROW_A, _ROW_F, _ROW_S)),
    st.tuples(
        st.just("insert_many"),
        st.lists(st.tuples(_ROW_A, _ROW_F, _ROW_S), min_size=1, max_size=9),
    ),
    st.tuples(st.just("load"), st.tuples(_LOAD_A, _LOAD_F)),
    st.tuples(
        st.just("failed_flush"),
        st.lists(st.tuples(_ROW_A, _ROW_F, _ROW_S), min_size=1, max_size=9),
        st.integers(0, 3),
    ),
    st.just(("truncate",)),
    st.just(("delete",)),
    st.just(("update",)),
)
_DESTRUCTIVE = {
    "truncate": "DELETE FROM t",
    "delete": "DELETE FROM t WHERE i MOD 3 = 0",
    "update": "UPDATE t SET a = a + 1 WHERE i MOD 2 = 0",
}


@pytest.fixture(scope="module")
def process_db():
    db = Database(amps=4, executor_workers=2, executor_kind="process")
    yield db
    db.close()


class TestIncrementalPublishProperty:
    @given(steps=st.lists(_MUTATIONS, min_size=1, max_size=8))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_published_blocks_equal_full_encode(self, process_db, steps):
        db = process_db
        db.drop_table("t", if_exists=True)
        table = db.create_table("t", _MIXED_SCHEMA)
        store = db.columnar_store
        keys = iter(range(1, 10**6))
        # What the store held at the last query: row count, version,
        # and whether a truncate has happened since.
        rows, version, destructive = 0, table.version, False
        for step in steps:
            op = step[0]
            if op == "insert":
                table.insert((next(keys), *step[1]))
            elif op == "insert_many":
                db.insert_rows("t", [(next(keys), *row) for row in step[1]])
            elif op == "load":
                a, f = step[1]
                count = min(len(a), len(f))
                db.load_columns(
                    "t",
                    {
                        "i": [next(keys) for _ in range(count)],
                        "a": a[:count],
                        "f": f[:count],
                        "s": ["s"] * count,
                    },
                )
            elif op == "failed_flush":
                db.faults = FaultPlan().fail("insert.flush", partition=step[2])
                try:
                    db.insert_rows(
                        "t", [(next(keys), *row) for row in step[1]]
                    )
                except FaultInjected:
                    pass  # rolled back: the table is unchanged
                finally:
                    db.faults = None
            else:
                db.execute(_DESTRUCTIVE[op])
                destructive = True
            encoded, reused = store.rows_encoded, store.rows_reused
            result = db.execute("SELECT count(*) FROM t")
            assert result.rows == [(table.row_count,)]
            assert "publish" not in result.metrics.fallback_reason
            if table.row_count == 0:
                rows, version, destructive = 0, table.version, False
                continue
            published = store.publish(table)
            assert published["fresh"] is False  # the query published
            for pid in published["partitions"]:
                partition = table.partitions[pid]
                path = store.block_path(
                    published["table"], published["version"], pid
                )
                assert path.read_bytes() == encode_block(
                    [partition.column(i) for i in range(partition.width)]
                )
            if table.version == version:
                expected = (0, 0)
            elif destructive:
                expected = (table.row_count, 0)
            else:
                expected = (table.row_count - rows, rows)
            assert (
                store.rows_encoded - encoded,
                store.rows_reused - reused,
            ) == expected
            rows, version, destructive = table.row_count, table.version, False


class TestStoreLifetime:
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_database_is_freed_without_the_cycle_collector(self, kind):
        # The drop listener that forgets blocks must not tie the
        # catalog back to its Database: a cycle there keeps every
        # dropped database's rows alive until the collector runs.
        gc.disable()
        try:
            db = Database(amps=4, executor_workers=2, executor_kind=kind)
            db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT)")
            db.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
            db.execute("SELECT sum(v) FROM t")
            db.close()
            freed = weakref.ref(db)
            del db
            assert freed() is None
        finally:
            gc.enable()


class TestPublishFailure:
    def test_publish_failure_is_a_reason_tagged_fallback(self, monkeypatch):
        sql = "SELECT sum(x1), sum(y), count(*) FROM x"
        with _loaded_db(workers=2, executor_kind="process") as db:

            def broken(*args, **kwargs):
                raise OSError("disk full")

            monkeypatch.setattr(columnar, "encode_block", broken)
            degraded = db.execute(sql)
            assert degraded.metrics.fallbacks == 1
            assert degraded.metrics.fallback_reason == (
                "columnar publish failed: OSError: disk full"
            )
            monkeypatch.undo()
            healthy = db.execute(sql)
            assert healthy.metrics.fallbacks == 0
            assert healthy.rows == degraded.rows


# ------------------------------------------------- database cache knobs
class TestDatabaseCacheKnobs:
    def test_default_capacity_unchanged(self):
        with _loaded_db() as db:
            assert db.block_cache_config is None  # historic default
        assert BLOCK_CACHE_CAPACITY == 8

    def test_entry_capacity_knob_installed_on_all_tables(self):
        with _loaded_db(block_cache_entries=2) as db:
            config = db.block_cache_config
            assert config is not None and config.max_entries == 2
            table = db.catalog.table("x")
            assert table.cache_config is config
            assert all(
                p.cache_config is config for p in table.partitions
            )
            # Tables created after the knob inherit it too.
            db.create_table("later", dataset_schema(1))
            assert db.catalog.table("later").cache_config is config

    def test_capacity_must_be_positive(self):
        with pytest.raises(SchemaError, match=">= 1 entry"):
            BlockCacheConfig(max_entries=0)
        with pytest.raises(SchemaError, match="byte budget"):
            BlockCacheConfig(max_bytes=0)

    def test_byte_budget_spills_and_reloads_bit_identically(self):
        sql = "SELECT sum(x1 * x1 + x2), count(*) FROM x"
        with _loaded_db(n=400) as db:
            expected = db.execute(sql).rows
        # A budget far below one partition's float block forces every
        # insert over budget: evictions spill, reloads must not change
        # one bit of the answer.
        with _loaded_db(n=400, block_cache_bytes=256) as db:
            first = db.execute(sql)
            assert first.rows == expected
            assert first.metrics.cache_evictions > 0
            assert first.metrics.blocks_spilled > 0
            assert first.metrics.bytes_spilled > 0
            again = db.execute(sql)
            assert again.rows == expected

    def test_spill_reload_counts_as_hit(self):
        with _loaded_db(n=200, block_cache_bytes=256) as db:
            table = db.catalog.table("x")
            partition = next(
                p for p in table.partitions if p.row_count
            )
            block, stats = partition.numeric_matrix_with_cache_stats(
                [1, 2]
            )
            assert not stats.hit
            assert stats.spilled_blocks >= 1  # over budget immediately
            reloaded, stats2 = partition.numeric_matrix_with_cache_stats(
                [1, 2]
            )
            assert stats2.hit  # served from the disk tier
            np.testing.assert_array_equal(np.asarray(reloaded), block)

    def test_mutation_unlinks_spill_files(self):
        with _loaded_db(n=200, block_cache_bytes=256) as db:
            db.execute("SELECT sum(x1), count(*) FROM x")
            table = db.catalog.table("x")
            spilled = [
                path
                for p in table.partitions
                for path in p._spilled.values()
            ]
            assert spilled and all(path.exists() for path in spilled)
            # Truncate invalidates every partition: all spill files go.
            table.truncate()
            assert all(not path.exists() for path in spilled)
            assert all(not p._spilled for p in table.partitions)

    def test_explain_notes_budget_and_analyze_notes_spills(self):
        with _loaded_db(n=200, block_cache_bytes=256) as db:
            plain = db.explain_plan("SELECT sum(x1), count(*) FROM x")
            assert "block cache budget 256 bytes" in plain.text()
            analyzed = db.explain_plan(
                "SELECT sum(x1), count(*) FROM x", analyze=True
            )
            assert "spilled" in analyzed.text()
        with _loaded_db(n=200) as db:
            plain = db.explain_plan("SELECT sum(x1), count(*) FROM x")
            assert "block cache budget" not in plain.text()
