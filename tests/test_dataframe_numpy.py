"""Tests for the numpy-backed columnar core.

Covers the buffer representation (typed arrays + null masks), missing-value
semantics across the vectorised paths (property tests comparing
``Predicate.mask`` / ``groupby_agg`` against pure-Python references),
mixed-type object-backed columns at the numpy boundary (the CSV loader must
not silently coerce ints to strings), buffer-hashed fingerprints, and the
negative-result caching added to :class:`ExecutionCache`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eager_oracle import run_one
from repro.dataframe import DataTable, Predicate, read_delimited_text
from repro.dataframe.aggregates import AGG_FUNCTIONS, apply_aggregation
from repro.dataframe.column import Column
from repro.dataframe.errors import AggregationError
from repro.dataframe.expressions import FILTER_OPERATORS, combine_and, combine_or
from repro.explore import (
    ExecutionCache,
    ExecutionError,
    ExplorationEnvironment,
    FilterOperation,
    GroupAggOperation,
    QueryExecutor,
)

# -- cell strategies: ints, floats (NaN included), strings, None -------------------------

_CELLS = st.one_of(
    st.none(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_infinity=False, width=32),  # NaN allowed: must read as null
    st.text(alphabet="abcXY015. -", max_size=6),
)


def _reference_groupby(keys, values, func):
    """Pure-Python group-and-aggregate: first-appearance order, nulls skipped."""
    rows: dict[object, list] = {}
    order: list = []
    for key, value in zip(keys, values):
        if key is None:
            continue
        if key not in rows:
            rows[key] = []
            order.append(key)
        rows[key].append(value)
    return {key: apply_aggregation(func, rows[key]) for key in order}


class TestBuffers:
    def test_int_column_buffers(self):
        data, mask = Column("x", [1, None, 3]).buffers()
        assert data.dtype == np.int64
        assert list(mask) == [False, True, False]
        assert data[0] == 1 and data[2] == 3

    def test_float_column_buffers_use_nan_filler(self):
        data, mask = Column("x", [1.5, None]).buffers()
        assert data.dtype == np.float64
        assert math.isnan(data[1]) and bool(mask[1])

    def test_str_column_buffers_are_unicode(self):
        data, mask = Column("x", ["a", None, "bc"]).buffers()
        assert data.dtype.kind == "U"
        assert data[1] == "" and bool(mask[1])

    def test_buffers_are_read_only(self):
        data, mask = Column("x", [1, 2]).buffers()
        with pytest.raises(ValueError):
            data[0] = 9
        with pytest.raises(ValueError):
            mask[0] = True

    def test_values_round_trip_with_nulls(self):
        column = Column("x", [1, None, 3])
        assert column.values == (1, None, 3)
        assert list(column) == [1, None, 3]

    def test_nan_and_empty_string_become_null(self):
        assert Column("x", [1.0, float("nan")]).values == (1.0, None)
        assert Column("x", ["a", ""]).values == ("a", None)

    def test_nul_characters_round_trip_via_object_fallback(self):
        column = Column("x", ["a\x00", "b"])
        assert column.values == ("a\x00", "b")
        assert column.is_object_backed

    def test_take_and_rename_share_buffer_semantics(self):
        column = Column("x", [10, None, 30])
        taken = column.take(np.array([2, 0]))
        assert taken.values == (30, 10)
        assert column.rename("y").values == column.values


class TestMissingValueSemantics:
    @given(
        st.lists(_CELLS, max_size=25),
        st.sampled_from(FILTER_OPERATORS),
        st.one_of(st.integers(-5, 5), st.text(alphabet="abX015.", max_size=4)),
    )
    def test_vectorised_mask_matches_pure_python_reference(self, cells, op, term):
        """Nulls (None and NaN alike) never match, exactly as evaluate() says."""
        column = Column("x", cells)
        predicate = Predicate("x", op, term)
        mask = predicate.mask(column)
        assert isinstance(mask, np.ndarray)
        assert list(mask) == predicate.mask_reference(column.values)

    @given(
        st.lists(st.one_of(st.none(), st.sampled_from(["k1", "k2", "k3"])), max_size=25),
        st.lists(_CELLS, max_size=25),
        st.sampled_from(["count", "nunique"]),
    )
    def test_groupby_matches_reference_on_any_values(self, keys, cells, func):
        length = min(len(keys), len(cells))
        table = DataTable({"k": keys[:length], "v": cells[:length]})
        expected = _reference_groupby(
            table.column("k").values, table.column("v").values, func
        )
        result = table.groupby_agg("k", func, "v")
        got = {row["k"]: row[result.columns[-1]] for row in result.rows()}
        assert got == expected

    @given(
        st.lists(st.one_of(st.none(), st.sampled_from(["k1", "k2"])), max_size=25),
        st.lists(
            st.one_of(st.none(), st.floats(allow_infinity=False, width=16)),
            max_size=25,
        ),
        st.sampled_from(AGG_FUNCTIONS),
    )
    def test_numeric_groupby_matches_reference(self, keys, cells, func):
        """NaN/None values are skipped by every aggregate, pre/post numpy."""
        length = min(len(keys), len(cells))
        table = DataTable({"k": keys[:length], "v": cells[:length]})
        if func in ("sum", "mean") and not table.column("v").is_numeric:
            # All-null columns infer as str; numeric-only aggregates reject
            # them up front (unchanged pre-numpy contract).
            with pytest.raises(AggregationError):
                table.groupby_agg("k", func, "v")
            return
        expected = _reference_groupby(
            table.column("k").values, table.column("v").values, func
        )
        result = table.groupby_agg("k", func, "v")
        got = {row["k"]: row[result.columns[-1]] for row in result.rows()}
        assert set(got) == set(expected)
        for key, value in expected.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, nan_ok=True)
            else:
                assert got[key] == value

    def test_null_group_keys_are_skipped(self):
        table = DataTable({"k": ["a", None, "a", "b"], "v": [1, 2, None, 4]})
        result = table.groupby_agg("k", "count", "v")
        counts = {row["k"]: row["count_v"] for row in result.rows()}
        assert counts == {"a": 1, "b": 1}

    def test_filter_never_keeps_null_rows(self):
        table = DataTable({"v": [1, None, -1]})
        for op in ("eq", "neq", "le", "ge", "contains"):
            kept = table.filter(Predicate("v", op, 1))
            assert None not in kept.column("v").values

    def test_sort_places_nulls_last_both_directions(self):
        table = DataTable({"v": [3.0, None, 1.0, None, 2.0]})
        assert list(table.sort_by("v").column("v")) == [1.0, 2.0, 3.0, None, None]
        assert list(table.sort_by("v", descending=True).column("v")) == [
            3.0,
            2.0,
            1.0,
            None,
            None,
        ]

    def test_combine_masks_accept_lists_and_arrays(self):
        a = np.array([True, True, False])
        b = [True, False, True]
        assert list(combine_and([a, b])) == [True, False, False]
        assert list(combine_or([a, b])) == [True, True, True]


class TestMixedTypeColumns:
    MIXED_CSV = "id,code\n1,7\n2,x\n3,9\n4,\n"

    def test_loader_preserves_ints_in_mixed_columns(self):
        table = read_delimited_text(self.MIXED_CSV)
        code = table.column("code")
        assert code.dtype == "str"
        assert code.is_object_backed
        # Regression: ints must stay ints, not become "7"/"9" strings.
        assert code.values == (7, "x", 9, None)

    def test_mixed_column_sort_is_type_aware(self):
        table = read_delimited_text(self.MIXED_CSV)
        assert list(table.sort_by("code").column("code")) == [7, 9, "x", None]
        assert list(table.sort_by("code", descending=True).column("code")) == [
            "x",
            9,
            7,
            None,
        ]

    def test_mixed_column_mask_dispatches_per_cell(self):
        table = read_delimited_text(self.MIXED_CSV)
        predicate = Predicate("code", "eq", 7)
        assert list(predicate.mask(table.column("code"))) == [True, False, False, False]
        assert len(table.filter(predicate)) == 1

    def test_mixed_column_groupby_falls_back(self):
        table = DataTable([Column.from_raw("m", [1, "a", 1, None, "a"])])
        result = table.groupby_agg("m", "count")
        counts = {row["m"]: row["count"] for row in result.rows()}
        assert counts == {"1": 2, "a": 2}  # result keys re-enter the coercing path

    def test_mixed_min_max_raises_aggregation_error(self):
        table = DataTable(
            [Column.from_raw("m", [1, "a"]), Column("g", ["x", "x"])]
        )
        with pytest.raises(AggregationError):
            table.groupby_agg("g", "min", "m")

    def test_pure_columns_are_not_object_backed_on_load(self):
        table = read_delimited_text("a,b,c\n1,2.5,x\n3,,y\n")
        assert not table.column("a").is_object_backed
        assert not table.column("b").is_object_backed
        assert not table.column("c").is_object_backed


class TestFingerprintBuffers:
    def test_equal_tables_share_fingerprint_across_construction_paths(self):
        base = DataTable({"s": ["aa", "b", "aa", "cc"], "v": [1, 2, 3, 4]})
        taken = base.head(4)  # buffers sliced from the parent (wider unicode)
        rebuilt = DataTable(base.to_columns())
        assert taken.fingerprint() == rebuilt.fingerprint()

    def test_empty_views_share_fingerprint(self):
        base = DataTable({"s": ["aaaa", "bb"], "v": [1, 2]})
        a = base.filter(Predicate("s", "eq", "zzz"))
        b = base.filter(Predicate("v", "gt", 99))
        assert a.fingerprint() == b.fingerprint()

    def test_null_position_changes_fingerprint(self):
        a = DataTable({"x": [None, 0]})
        b = DataTable({"x": [0, None]})
        assert a.fingerprint() != b.fingerprint()

    def test_mixed_object_columns_fingerprint_by_value(self):
        a = DataTable([Column.from_raw("m", [1, "1"])])
        b = DataTable([Column.from_raw("m", ["1", 1])])
        assert a.fingerprint() != b.fingerprint()

    def test_object_backed_all_string_column_matches_typed_fingerprint(self):
        # Equal tables share a fingerprint regardless of construction path.
        typed = DataTable([Column("c", ["a", None, "bb"])])
        raw = DataTable([Column.from_raw("c", ["a", None, "bb"])])
        assert typed == raw
        assert typed.fingerprint() == raw.fingerprint()


class TestInt64Boundaries:
    def test_huge_ints_survive_exactly_via_object_storage(self):
        big = 2**70
        column = Column("x", [big, 7, None], dtype="int")
        assert column.values == (big, 7, None)
        assert column.is_object_backed
        assert column.sum() == big + 7
        assert column.min() == 7 and column.max() == big

    def test_int64_range_sums_do_not_wrap(self):
        column = Column("x", [2**62, 2**62, 2**62])
        assert not column.is_object_backed
        assert column.sum() == 3 * 2**62  # > int64 max; must not wrap

    def test_grouped_huge_int_sum_is_exact(self):
        table = DataTable({"k": ["a", "a", "b"], "v": [2**53 + 1, 2**53 + 1, 1]})
        result = table.groupby_agg("k", "sum", "v")
        sums = {row["k"]: row["sum_v"] for row in result.rows()}
        assert sums == {"a": 2**54 + 2, "b": 1}

    def test_grouped_sum_exact_when_only_the_total_overflows_float64(self):
        # Every element is below 2**52 but the group total exceeds 2**53.
        value = 3 * 2**50 + 1
        table = DataTable({"k": ["a"] * 9, "v": [value] * 9})
        result = table.groupby_agg("k", "sum", "v")
        assert result.rows()[0]["sum_v"] == 9 * value

    def test_sum_exact_at_int64_min(self):
        # np.abs(INT64_MIN) wraps; the magnitude guard must not rely on it.
        column = Column("x", [-(2**63), -1], dtype="int")
        assert column.sum() == -(2**63) - 1

    def test_infinity_in_int_column_raises_like_python_int(self):
        with pytest.raises(OverflowError):
            Column("x", [float("inf"), 1], dtype="int")


class TestNegativeResultCaching:
    def _failing_setup(self):
        # Static validity passes (both columns exist) but execution fails at
        # runtime: min() over a mixed-type object column.
        table = DataTable(
            [Column.from_raw("m", [1, "a", 2]), Column("g", ["x", "x", "y"])]
        )
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        operation = GroupAggOperation("g", "min", "m")
        assert executor.can_execute(table, operation)
        return table, cache, executor, operation

    def test_repeated_failure_served_from_cache(self):
        table, cache, executor, operation = self._failing_setup()
        with pytest.raises(ExecutionError) as first:
            run_one(executor, table, operation)
        assert cache.negative_entries == 1
        assert cache.stats.negative_hits == 0
        with pytest.raises(ExecutionError) as second:
            run_one(executor, table, operation)
        assert str(second.value) == str(first.value)
        assert cache.stats.negative_hits == 1
        # Only the first attempt counted a (result-map) miss.
        assert cache.stats.misses == 1

    def test_missing_column_failures_cached_too(self, request):
        table = DataTable({"a": [1, 2]})
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        operation = FilterOperation("nope", "eq", "x")
        for _ in range(3):
            with pytest.raises(ExecutionError):
                run_one(executor, table, operation)
        assert cache.stats.negative_hits == 2
        assert len(cache) == 0  # failures never occupy result entries

    def test_negative_entries_bounded_lru(self):
        table = DataTable({"a": [1, 2]})
        cache = ExecutionCache(max_error_entries=2)
        executor = QueryExecutor(cache=cache)
        for name in ("x", "y", "z"):
            with pytest.raises(ExecutionError):
                run_one(executor, table, FilterOperation(name, "eq", 1))
        assert cache.negative_entries == 2
        # The oldest failure (x) was evicted: re-raising re-executes.
        with pytest.raises(ExecutionError):
            run_one(executor, table, FilterOperation("x", "eq", 1))
        assert cache.stats.negative_hits == 0

    def test_describe_and_clear_cover_negative_map(self):
        table, cache, executor, operation = self._failing_setup()
        with pytest.raises(ExecutionError):
            run_one(executor, table, operation)
        summary = cache.describe()
        assert summary["negative_entries"] == 1
        assert summary["negative_hits"] == 0
        assert summary["max_error_entries"] == cache.max_error_entries
        cache.clear()
        assert cache.negative_entries == 0
        assert cache.describe()["negative_entries"] == 0

    def test_thread_safe_cache_exposes_negative_api(self):
        table, _, _, operation = self._failing_setup()
        cache = ExecutionCache(max_error_entries=4)
        executor = QueryExecutor(cache=cache)
        with pytest.raises(ExecutionError):
            run_one(executor, table, operation)
        with pytest.raises(ExecutionError):
            run_one(executor, table, operation)
        assert cache.stats.negative_hits == 1

    def test_invalid_max_error_entries_rejected(self):
        with pytest.raises(ValueError):
            ExecutionCache(max_error_entries=0)

    def test_environment_counts_cached_failures_once(self):
        # End-to-end: an environment sharing a cache does not re-execute
        # runtime failures; its stats dict carries the negative counters.
        from repro.datasets import load_dataset

        env = ExplorationEnvironment(load_dataset("netflix", num_rows=50))
        stats = env.cache_stats()
        assert "negative_hits" in stats


class TestObservationFeaturisation:
    def test_observe_matches_manual_featurisation(self):
        table = DataTable(
            {"c": ["a", "a", None, "b"], "v": [1.0, None, 3.0, 4.0]},
            name="t",
        )
        env = ExplorationEnvironment(table, episode_length=4)
        obs = env.reset()
        assert obs.dtype == np.float64
        assert len(obs) == env.observation_size()
        assert obs[0] == pytest.approx(1.0)  # full view: log-size ratio is 1
        assert obs[1] == pytest.approx(1.0)
        # Column "c": present, 2 distinct / 4 rows, 1 null / 4 rows.
        assert obs[4:7] == pytest.approx([1.0, 0.5, 0.25])
        assert obs[7:10] == pytest.approx([1.0, 0.75, 0.25])

    def test_observation_is_freshly_writable_each_step(self):
        table = DataTable({"v": [1, 2, 3]})
        env = ExplorationEnvironment(table, episode_length=2)
        first = env.reset()
        first[0] = 123.0  # callers may scribble on their copy
        second = env.observe()
        assert second[0] != 123.0
