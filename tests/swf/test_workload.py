"""Unit tests for the Workload container."""

from __future__ import annotations

import pytest

from repro.core.swf import MISSING, Workload
from tests.conftest import make_job, make_workload


class TestContainerBasics:
    def test_len_iter_index(self, tiny_workload):
        assert len(tiny_workload) == 4
        assert [j.job_number for j in tiny_workload] == [1, 2, 3, 4]
        assert tiny_workload[0].job_number == 1

    def test_append_and_extend(self):
        workload = make_workload([])
        workload.append(make_job(1))
        workload.extend([make_job(2, submit=5)])
        assert len(workload) == 2

    def test_copy_is_independent(self, tiny_workload):
        clone = tiny_workload.copy(name="clone")
        clone.append(make_job(5, submit=100))
        assert len(tiny_workload) == 4
        assert len(clone) == 5
        assert clone.name == "clone"

    def test_equality(self, tiny_workload):
        assert tiny_workload == tiny_workload.copy()

    def test_summary_vs_partial_views(self):
        jobs = [make_job(1, status=1), make_job(1, status=2), make_job(1, status=3)]
        workload = make_workload(jobs)
        assert len(workload.summary_jobs()) == 1
        assert len(workload.partial_jobs()) == 2

    def test_filter(self, tiny_workload):
        small = tiny_workload.filter(lambda j: j.allocated_processors <= 8)
        assert [j.job_number for j in small] == [1, 4]


class TestDerivedQuantities:
    def test_span(self, tiny_workload):
        # Last completion: job 3 submits at 20, waits 0, runs 200 -> 220.
        assert tiny_workload.span() == 220

    def test_total_area(self, tiny_workload):
        expected = 8 * 100 + 16 * 50 + 32 * 200 + 4 * 25
        assert tiny_workload.total_area() == expected

    def test_offered_load_uses_submit_span(self, tiny_workload):
        load = tiny_workload.offered_load(32)
        assert load == pytest.approx(tiny_workload.total_area() / (32 * 30))

    def test_offered_load_zero_for_degenerate_cases(self):
        assert make_workload([make_job(1)]).offered_load(32) == 0.0
        assert make_workload([]).offered_load(32) == 0.0

    def test_resolve_machine_size_falls_back_header_then_widest_job(self, tiny_workload):
        assert tiny_workload.resolve_machine_size(64) == 64
        assert tiny_workload.resolve_machine_size() == 32
        headerless = Workload(list(tiny_workload), name="bare")
        assert headerless.resolve_machine_size() == 32

    def test_resolve_machine_size_unknown_raises(self):
        bare = Workload([make_job(1).replace(allocated_processors=MISSING,
                                              requested_processors=MISSING)])
        with pytest.raises(ValueError, match="machine size is unknown"):
            bare.resolve_machine_size()
        assert bare.resolve_machine_size(8) == 8

    def test_max_processors_and_populations(self, tiny_workload):
        assert tiny_workload.max_processors() == 32
        assert tiny_workload.users() == [1]
        assert tiny_workload.groups() == [1]
        assert tiny_workload.executables() == [1]


class TestTransformations:
    def test_sorted_by_submit(self):
        jobs = [make_job(1, submit=50), make_job(2, submit=0)]
        ordered = make_workload(jobs).sorted_by_submit()
        assert [j.job_number for j in ordered] == [2, 1]

    def test_renumbered_rewrites_ids_and_dependencies(self):
        jobs = [
            make_job(10, submit=0),
            make_job(20, submit=5, preceding_job=10, think_time=5),
        ]
        renumbered = make_workload(jobs).renumbered()
        assert [j.job_number for j in renumbered] == [1, 2]
        assert renumbered[1].preceding_job == 1

    def test_renumbered_drops_dangling_dependencies(self):
        jobs = [make_job(5, submit=0, preceding_job=99, think_time=10)]
        renumbered = make_workload(jobs).renumbered()
        assert renumbered[0].preceding_job == MISSING
        assert renumbered[0].think_time == MISSING

    def test_scale_load_changes_offered_load_proportionally(self, lublin_workload):
        base = lublin_workload.offered_load(64)
        scaled = lublin_workload.scale_load(1.5)
        assert scaled.offered_load(64) == pytest.approx(1.5 * base, rel=0.05)
        assert len(scaled) == len(lublin_workload)

    def test_scale_to_load_hits_the_target(self, lublin_workload):
        scaled = lublin_workload.scale_to_load(0.9, name="at-0.9")
        assert scaled.offered_load(64) == pytest.approx(0.9, rel=1e-3)
        assert scaled.name == "at-0.9"
        wider = lublin_workload.scale_to_load(0.9, machine_size=128)
        assert wider.offered_load(128) == pytest.approx(0.9, rel=1e-3)

    def test_scale_to_load_without_offered_load_raises(self):
        with pytest.raises(ValueError, match="offered load"):
            make_workload([make_job(1)]).scale_to_load(0.5)
        with pytest.raises(ValueError, match="offered load"):
            make_workload([make_job(1), make_job(2)]).scale_to_load(0.5)

    def test_scale_load_requires_positive_factor(self, tiny_workload):
        with pytest.raises(ValueError):
            tiny_workload.scale_load(0)

    def test_truncate(self, tiny_workload):
        head = tiny_workload.truncate(2)
        assert len(head) == 2
        with pytest.raises(ValueError):
            tiny_workload.truncate(-1)

    def test_shift_origin(self):
        jobs = [make_job(1, submit=100), make_job(2, submit=160)]
        shifted = make_workload(jobs).shift_origin()
        assert [j.submit_time for j in shifted] == [0, 60]

    def test_shift_origin_empty_workload(self):
        assert len(make_workload([]).shift_origin()) == 0
