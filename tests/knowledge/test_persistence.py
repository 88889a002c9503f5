"""Tests for knowledge-base persistence (save/load via Turtle)."""

import pytest

from repro.apps.gatk import build_gatk_model
from repro.knowledge import PersistentKnowledgeBase
from repro.knowledge.kb import _trailing_int
from repro.knowledge.profiles import ProfileObservation


def observation(stage=0, size=5.0, threads=1, time=10.0):
    return ProfileObservation(
        app="gatk", stage=stage, input_gb=size, threads=threads,
        execution_time=time, cpu=8, ram_gb=4.0,
    )


class TestTrailingInt:
    def test_suffixes(self):
        assert _trailing_int("GATK12") == 12
        assert _trailing_int("GATK1") == 1
        assert _trailing_int("NoDigits") == 0
        assert _trailing_int("A1B2") == 2


class TestSaveLoad:
    def test_fits_survive_roundtrip(self, tmp_path):
        kb = PersistentKnowledgeBase()
        kb.bootstrap_from_model(
            build_gatk_model(), input_sizes_gb=(1, 5, 9), thread_counts=(1, 4)
        )
        path = tmp_path / "kb.ttl"
        n = kb.save(path)
        assert n == len(kb.ontology.store)

        kb2 = PersistentKnowledgeBase.load(path)
        original = kb.fitted_stage_models("gatk")
        restored = kb2.fitted_stage_models("gatk")
        for a, b in zip(original, restored):
            assert b.a == pytest.approx(a.a)
            assert b.b == pytest.approx(a.b)
            assert b.c == pytest.approx(a.c)

    def test_instance_count_preserved(self, tmp_path):
        kb = PersistentKnowledgeBase()
        for i in range(5):
            kb.record_observation(observation(time=float(i + 1)))
        path = tmp_path / "kb.ttl"
        kb.save(path)
        kb2 = PersistentKnowledgeBase.load(path)
        assert kb2.instance_count("gatk") == 5

    def test_naming_counter_continues(self, tmp_path):
        kb = PersistentKnowledgeBase()
        kb.record_observation(observation())
        kb.record_observation(observation())
        path = tmp_path / "kb.ttl"
        kb.save(path)
        kb2 = PersistentKnowledgeBase.load(path)
        assert kb2.record_observation(observation()) == "GATK3"

    def test_sparql_works_after_load(self, tmp_path):
        kb = PersistentKnowledgeBase()
        kb.record_observation(observation(size=10.0, time=180.0))
        path = tmp_path / "kb.ttl"
        kb.save(path)
        kb2 = PersistentKnowledgeBase.load(path)
        rows = kb2.ranked_instances("gatk")
        assert rows[0]["size"] == 10.0

    def test_growth_across_generations(self, tmp_path):
        """Save -> load -> learn more -> save -> load: the paper's
        ever-expanding KB."""
        path = tmp_path / "kb.ttl"
        kb = PersistentKnowledgeBase()
        kb.record_observation(observation(size=2.0, time=4.0))
        kb.save(path)

        kb = PersistentKnowledgeBase.load(path)
        kb.record_observation(observation(size=4.0, time=8.0))
        kb.record_observation(observation(size=8.0, time=16.0))
        kb.save(path)

        kb = PersistentKnowledgeBase.load(path)
        assert kb.instance_count("gatk") == 3
        fit = kb.profile("gatk").stage(0).linear_fit
        assert fit.slope == pytest.approx(2.0)

    def test_hand_authored_individuals_tolerated(self, tmp_path):
        """Individuals without stage/threads (the paper's own listings)
        load without creating bogus profile points."""
        from repro.ontology.scan_ontology import add_application_instance

        kb = PersistentKnowledgeBase()
        add_application_instance(
            kb.ontology, "GATK9", app_name="gatk", input_file_size=10,
            e_time=180, cpu=8, ram=4,  # no stage/threads
        )
        path = tmp_path / "kb.ttl"
        kb.save(path)
        kb2 = PersistentKnowledgeBase.load(path)
        assert kb2.instance_count("gatk") == 1
        assert not kb2.has_profile("gatk")
        # Counter respects the hand-chosen suffix.
        assert kb2.record_observation(observation()) == "GATK10"

    def test_name_collision_loads_without_a_merged_profile_point(self, tmp_path):
        """A recorded run that landed on a hand-authored name carries two
        values per field; it loads, yields no profile point, and still
        advances the naming counter."""
        from repro.ontology.scan_ontology import add_application_instance

        kb = PersistentKnowledgeBase()
        add_application_instance(
            kb.ontology, "GATK2", app_name="gatk", input_file_size=1,
            e_time=9, cpu=2, ram=1,
        )
        kb.record_observation(observation(time=1.0))
        assert kb.record_observation(observation(time=2.0)) == "GATK2"
        path = tmp_path / "kb.ttl"
        kb.save(path)
        kb2 = PersistentKnowledgeBase.load(path)
        assert len(kb2.profile("gatk")) == 1
        assert kb2.record_observation(observation()) == "GATK3"
