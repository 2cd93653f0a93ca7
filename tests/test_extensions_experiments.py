"""Integration tests for the extension experiment drivers."""

from repro.experiments import REGISTRY, run_experiment
from repro.experiments import exp_ablation, exp_feedback, exp_randomized, exp_speeds


class TestExtensionDrivers:
    def test_randomized_small(self):
        report = exp_randomized.run(trials=4, ms=(2,), configs=((2, 2),))
        assert report.passed, report.failing_checks()

    def test_speeds_small(self):
        report = exp_speeds.run(seed=1, repeats=1, n_jobs=(4,))
        assert report.passed, report.failing_checks()

    def test_feedback_small(self):
        report = exp_feedback.run(seed=1, repeats=1, quanta=(2, 4), n_jobs=6)
        assert report.passed, report.failing_checks()

    def test_ablation(self):
        report = exp_ablation.run(seed=1, m=2)
        assert report.passed, report.failing_checks()


class TestRegistryComplete:
    def test_all_registered(self):
        assert {"RAND", "SPEED", "FEEDBACK", "ABLATE"} <= set(REGISTRY)

    def test_run_by_id(self):
        report = run_experiment("ablate", m=2)
        assert report.experiment_id == "ABLATE"


class TestFairnessDriver:
    def test_fair_small(self):
        from repro.experiments import exp_fairness

        report = exp_fairness.run(seed=1, repeats=1, num_jobs=20)
        assert report.passed, report.failing_checks()

    def test_fair_registered(self):
        assert "FAIR" in REGISTRY


class TestShopAndFaultDrivers:
    def test_shop_small(self):
        from repro.experiments import exp_dagshop

        report = exp_dagshop.run(seed=1, repeats=1)
        assert report.passed, report.failing_checks()

    def test_fault_small(self):
        from repro.experiments import exp_faults

        report = exp_faults.run(seed=1, repeats=1, n_jobs=6)
        assert report.passed, report.failing_checks()

    def test_churn_small(self):
        from repro.experiments import exp_churn

        report = exp_churn.run(seed=1, repeats=1)
        assert report.passed, report.failing_checks()


class TestOptDriver:
    def test_opt_small(self):
        from repro.experiments import exp_optimal

        report = exp_optimal.run(seed=1, instances=8)
        assert report.passed, report.failing_checks()


class TestHuntDriver:
    def test_hunt_small(self):
        from repro.experiments import exp_hunt

        report = exp_hunt.run(seed=1, iterations=300, configs=((2, 1),))
        assert report.passed, report.failing_checks()


class TestWorkloadTable:
    def test_wkld(self):
        from repro.experiments import exp_workloads

        report = exp_workloads.run(seed=2)
        assert report.passed, report.failing_checks()


class TestAppsDriver:
    def test_apps_small(self):
        from repro.experiments import exp_applications

        report = exp_applications.run(seed=3, repeats=2, num_jobs=8)
        assert report.passed, report.failing_checks()


class TestSensitivityDriver:
    def test_sens_small(self):
        from repro.experiments import exp_sensitivity

        report = exp_sensitivity.run(ks=(1, 2), ps=(2,), m=2)
        assert report.passed, report.failing_checks()
