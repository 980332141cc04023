"""Bit-identity gate for the optimized simulation kernel.

``tools/golden_result.py`` replays the committed fixture grid (all four
catalog devices across read/write patterns) and flattens every
``ExperimentResult`` to a canonical form where floats are compared by
``float.hex()``.  Any kernel "optimization" that changes a single bit of any
result -- a reordered float sum, a skipped event, a shifted RNG draw --
fails here, not in a downstream study.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import golden_result  # noqa: E402


class TestGoldenEquivalence:
    def test_all_fixtures_bit_identical(self):
        """Every committed golden fixture must replay bit-identically."""
        assert golden_result.main([]) == 0

    def test_fixture_set_is_nonempty(self):
        """An empty fixture directory must never silently pass the gate."""
        fixtures = sorted(golden_result.GOLDEN_DIR.glob("*.json"))
        assert len(fixtures) >= 20

    def test_covers_every_catalog_device(self):
        """The grid must exercise each catalog device class at least once."""
        names = {p.stem.split("_")[0] for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert {"ssd1", "ssd2", "ssd3", "hdd"} <= names

    def test_covers_policy_runtime_and_fleet(self):
        """The composite paths -- online policy decisions and the fleet
        epoch loop -- must be pinned alongside the single-device grid."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert "ssd2_policy_feedback" in stems
        assert "ssd2_policy_ladder" in stems
        assert "fleet_tiny" in stems

    def test_every_named_case_has_a_fixture(self):
        """golden_names() and the committed fixture set must agree, so a
        new case cannot be added to the tool without committing its
        fixture (and vice versa)."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert stems == set(golden_result.golden_names())


class TestGoldenBranchCoverage:
    """Each IO-path branch case must really take its branch, or its
    fixture would pin nothing the plain grid does not already pin."""

    @staticmethod
    def _run(name, tracer=None):
        from repro.core.experiment import run_experiment

        return run_experiment(golden_result.golden_configs()[name], tracer=tracer)

    def test_fault_cases_inject_spikes_and_io_errors(self):
        for name in ("ssd2_randread_faults", "ssd2_randwrite_faults"):
            faults = self._run(name).faults
            assert faults.count("latency_spike") > 0, name
            assert faults.count("io_error") > 0, name

    def test_apst_case_wakes_the_device(self):
        from repro.obs.events import EventKind, Tracer

        tracer = Tracer()
        self._run("pm1743_randread_apst", tracer)
        wakes = [
            e
            for e in tracer.of_kind(EventKind.POWER_STATE)
            if e.fields["from_state"] == "ps4" and e.fields["operational"]
        ]
        assert len(wakes) >= 2

    def test_alpm_case_wakes_the_link(self):
        from repro.devices.catalog import ssd_d3s4510
        from repro.devices.link import LinkPowerMode

        result = self._run("ssd3_randwrite_alpm")
        exit_s = ssd_d3s4510().link_power_table.exit_latency_s[LinkPowerMode.SLUMBER]
        first = min(result.job.records, key=lambda r: r.submit_time)
        assert first.complete_time - first.submit_time > exit_s

    def test_small_buffer_case_parks_writes(self):
        from repro.obs.events import EventKind

        tracer = golden_result.run_traced("ssd2_randwrite_smallbuf_traced")
        assert len(tracer.of_kind(EventKind.CACHE_MISS)) > 0
        assert len(tracer.of_kind(EventKind.CACHE_HIT)) > 0

    def test_traced_cases_pin_io_events(self):
        for name in golden_result.TRACED_CASES:
            kinds = dict(golden_result.compute_golden(name)["kinds"])
            assert kinds["io_submit"] == kinds["io_complete"] > 0, name
