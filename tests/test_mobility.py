"""Tests for contact traces, synthetic Haggle generation and trace statistics."""

import pytest

from repro.mobility import (
    ContactRecord,
    ContactTrace,
    HAGGLE_DATASET_SIZES,
    average_degree_series,
    average_group_size_series,
    contact_duration_stats,
    generate_haggle_like_trace,
    haggle_dataset,
    intercontact_time_stats,
)


class TestContactRecord:
    def test_normalises_device_order(self):
        record = ContactRecord(5, 2, 0.0, 10.0)
        assert (record.a, record.b) == (2, 5)

    def test_rejects_self_contact(self):
        with pytest.raises(ValueError):
            ContactRecord(1, 1, 0.0, 10.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            ContactRecord(0, 1, 10.0, 10.0)

    def test_duration(self):
        assert ContactRecord(0, 1, 10.0, 20.0).duration == 10.0


class TestContactTrace:
    def _trace(self):
        return ContactTrace(
            3,
            [
                ContactRecord(0, 1, 0.0, 100.0),
                ContactRecord(0, 1, 200.0, 300.0),
                ContactRecord(1, 2, 50.0, 150.0),
            ],
        )

    def test_duration(self):
        assert self._trace().duration == 300.0
        assert ContactTrace(2, []).duration == 0.0

    def test_rejects_out_of_range_devices(self):
        with pytest.raises(ValueError):
            ContactTrace(2, [ContactRecord(0, 5, 0.0, 1.0)])

    def test_adjacency_at(self):
        trace = self._trace()
        assert trace.adjacency_at(60.0)[0] == {1}
        assert trace.adjacency_at(60.0)[1] == {0, 2}
        assert trace.adjacency_at(175.0)[0] == set()
        assert trace.adjacency_at(250.0)[0] == {1}

    def test_adjacency_between_union(self):
        trace = self._trace()
        union = trace.adjacency_between(120.0, 220.0)
        assert union[1] == {0, 2}
        assert trace.adjacency_between(150.0, 199.0)[0] == set()

    def test_groups_at_respects_window(self):
        trace = self._trace()
        groups = trace.groups_at(300.0, window=600.0)
        assert {0, 1, 2} in groups
        groups_small_window = trace.groups_at(175.0, window=10.0)
        assert sorted(len(g) for g in groups_small_window) == [1, 1, 1]

    def test_overlapping_records_are_merged(self):
        trace = ContactTrace(
            2, [ContactRecord(0, 1, 0.0, 50.0), ContactRecord(0, 1, 25.0, 80.0)]
        )
        assert len(trace.records) == 1
        assert trace.records[0].start == 0.0
        assert trace.records[0].end == 80.0

    def test_csv_round_trip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        loaded = ContactTrace.from_csv(str(path), n_devices=3)
        assert len(loaded) == len(trace)
        assert loaded.adjacency_at(60.0) == trace.adjacency_at(60.0)

    def test_csv_without_device_count_sizes_to_the_highest_id(self, tmp_path):
        path = tmp_path / "trace.csv"
        ContactTrace(5, [ContactRecord(1, 3, 0.0, 10.0)]).to_csv(str(path))
        assert ContactTrace.from_csv(str(path)).n_devices == 4

    def test_snapshots_iteration(self):
        trace = self._trace()
        snaps = list(trace.snapshots(step=100.0))
        assert len(snaps) == 4
        times = [t for t, _ in snaps]
        assert times == [0.0, 100.0, 200.0, 300.0]


class TestSyntheticHaggle:
    def test_dataset_sizes_match_paper(self):
        assert HAGGLE_DATASET_SIZES == {1: 9, 2: 12, 3: 41}

    def test_generator_validates_inputs(self):
        with pytest.raises(ValueError):
            generate_haggle_like_trace(0)
        with pytest.raises(ValueError):
            generate_haggle_like_trace(5, duration_hours=-1)

    def test_generated_trace_shape(self):
        trace = generate_haggle_like_trace(9, duration_hours=24.0, seed=1)
        assert trace.n_devices == 9
        assert trace.duration <= 24.0 * 3600.0 + 1.0
        assert len(trace) > 0

    def test_generated_trace_is_reproducible(self):
        a = generate_haggle_like_trace(9, duration_hours=12.0, seed=3)
        b = generate_haggle_like_trace(9, duration_hours=12.0, seed=3)
        assert len(a) == len(b)
        assert a.adjacency_at(3600.0) == b.adjacency_at(3600.0)

    def test_different_seeds_differ(self):
        a = generate_haggle_like_trace(9, duration_hours=12.0, seed=3)
        b = generate_haggle_like_trace(9, duration_hours=12.0, seed=4)
        assert any(
            a.adjacency_at(t) != b.adjacency_at(t) for t in (1800.0, 3600.0, 7200.0, 14400.0)
        )

    def test_groups_are_small_and_transient(self):
        trace = generate_haggle_like_trace(12, duration_hours=48.0, seed=2)
        _, sizes = average_group_size_series(trace, step_seconds=3600.0)
        assert max(sizes) <= 12
        assert min(sizes) >= 1
        # Group sizes must actually vary over time (a static clique would not).
        assert max(sizes) - min(sizes) > 0.5

    def test_dataset_presets(self):
        trace = haggle_dataset(1)
        assert trace.n_devices == 9
        with pytest.raises(ValueError):
            haggle_dataset(4)

    def test_diurnal_cycle_present(self):
        trace = generate_haggle_like_trace(20, duration_hours=48.0, seed=5, community_size=5)
        _, degrees = average_degree_series(trace, step_seconds=3600.0)
        # Peak activity should clearly exceed the overnight trough.
        assert max(degrees) > 2.0 * (min(degrees) + 0.05)


class TestTraceStats:
    def test_contact_duration_stats(self):
        trace = ContactTrace(
            2, [ContactRecord(0, 1, 0, 100), ContactRecord(0, 1, 200, 250)]
        )
        stats = contact_duration_stats(trace)
        assert stats["count"] == 2
        assert stats["mean"] == pytest.approx(75.0)
        assert stats["max"] == 100.0

    def test_contact_duration_stats_empty(self):
        assert contact_duration_stats(ContactTrace(2, []))["count"] == 0

    def test_intercontact_time_stats(self):
        trace = ContactTrace(
            2, [ContactRecord(0, 1, 0, 100), ContactRecord(0, 1, 400, 500)]
        )
        stats = intercontact_time_stats(trace)
        assert stats["count"] == 1
        assert stats["mean"] == pytest.approx(300.0)

    def test_intercontact_time_stats_empty(self):
        assert intercontact_time_stats(ContactTrace(2, []))["count"] == 0
