"""Tests for the internal-job-structure strawman (barriers, granularity, variance)."""

from __future__ import annotations

import pytest

from repro.core.swf import validate
from repro.evaluation import simulate
from repro.metrics import compute_metrics
from repro.schedulers import EasyBackfillScheduler, simulate_gang
from repro.simulation import make_rng
from repro.workloads import (
    InternalStructure,
    InternalStructureModel,
    Lublin99Model,
    apply_structure,
    synchronization_stretch,
)


class TestInternalStructure:
    def test_validation(self):
        with pytest.raises(ValueError):
            InternalStructure(processes=0, barriers=1, granularity_seconds=1.0, variance=0.1)
        with pytest.raises(ValueError):
            InternalStructure(processes=2, barriers=-1, granularity_seconds=1.0, variance=0.1)
        with pytest.raises(ValueError):
            InternalStructure(processes=2, barriers=1, granularity_seconds=-1.0, variance=0.1)


class TestSynchronizationStretch:
    def test_no_barriers_or_single_process_cost_nothing(self):
        serial = InternalStructure(processes=1, barriers=0, granularity_seconds=0.0, variance=0.0)
        assert synchronization_stretch(serial, coscheduled=False) == 1.0
        no_sync = InternalStructure(processes=32, barriers=0, granularity_seconds=0.0, variance=0.0)
        assert synchronization_stretch(no_sync, coscheduled=False) == 1.0

    def test_uncoordinated_never_cheaper_than_coscheduled(self):
        rng = make_rng(1)
        model = InternalStructureModel()
        for _ in range(100):
            structure = model.sample(int(rng.integers(2, 65)), int(rng.integers(10, 10_000)), rng)
            co = synchronization_stretch(structure, coscheduled=True)
            un = synchronization_stretch(structure, coscheduled=False)
            assert un >= co >= 1.0

    def test_fine_granularity_pays_more_without_coscheduling(self):
        fine = InternalStructure(processes=32, barriers=10_000, granularity_seconds=0.01, variance=0.5)
        coarse = InternalStructure(processes=32, barriers=10, granularity_seconds=600, variance=0.5)
        fine_penalty = synchronization_stretch(fine, False) / synchronization_stretch(fine, True)
        coarse_penalty = synchronization_stretch(coarse, False) / synchronization_stretch(coarse, True)
        assert fine_penalty > coarse_penalty
        assert fine_penalty > 2.0
        assert coarse_penalty == pytest.approx(1.0, rel=0.01)

    def test_skew_grows_with_variance(self):
        low = InternalStructure(processes=16, barriers=100, granularity_seconds=1.0, variance=0.1)
        high = InternalStructure(processes=16, barriers=100, granularity_seconds=1.0, variance=1.0)
        assert synchronization_stretch(high, True) > synchronization_stretch(low, True)


class TestModelAndApplication:
    @pytest.fixture(scope="class")
    def annotated(self):
        workload = Lublin99Model(machine_size=64).generate_with_load(200, 0.6, seed=33)
        structures = InternalStructureModel(fine_grained_fraction=0.5).annotate(workload, seed=33)
        return workload, structures

    def test_every_job_annotated(self, annotated):
        workload, structures = annotated
        assert set(structures) == {j.job_number for j in workload.summary_jobs()}

    def test_serial_jobs_have_no_barriers(self, annotated):
        workload, structures = annotated
        for job in workload.summary_jobs():
            if job.allocated_processors == 1:
                assert structures[job.job_number].barriers == 0

    def test_apply_structure_preserves_validity_and_stretches_runtimes(self, annotated):
        workload, structures = annotated
        coscheduled = apply_structure(workload, structures, coscheduled=True)
        uncoordinated = apply_structure(workload, structures, coscheduled=False)
        assert validate(coscheduled).is_clean
        assert validate(uncoordinated).is_clean
        total_co = sum(j.run_time for j in coscheduled)
        total_un = sum(j.run_time for j in uncoordinated)
        total_base = sum(j.run_time for j in workload)
        assert total_base <= total_co <= total_un

    def test_gang_scheduling_benefit_for_fine_grained_workloads(self, annotated):
        """The Section 2.2 argument: coscheduling pays off when grain is fine."""
        workload, structures = annotated
        coscheduled = apply_structure(workload, structures, coscheduled=True)
        uncoordinated = apply_structure(workload, structures, coscheduled=False)
        # Gang scheduling delivers coscheduling, so it runs the coscheduled
        # variant; uncoordinated time sharing runs the stretched variant.
        gang = compute_metrics(simulate_gang(coscheduled, machine_size=64, max_slots=4))
        uncoordinated_gang = compute_metrics(
            simulate_gang(uncoordinated, machine_size=64, max_slots=4)
        )
        assert gang.mean_response <= uncoordinated_gang.mean_response

    def test_model_parameter_validation(self):
        with pytest.raises(ValueError):
            InternalStructureModel(fine_grained_fraction=1.5)
        with pytest.raises(ValueError):
            InternalStructureModel(max_variance=-0.1)
