"""Tests for the SCAN knowledge base."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.errors import KnowledgeBaseError
from repro.desim.rng import RandomStreams
from repro.knowledge.kb import SCANKnowledgeBase, ranked_instances_query
from repro.knowledge.profiles import ProfileObservation
from repro.ontology.scan_ontology import SCAN, add_application_instance
from repro.ontology.sparql import SparqlError, execute_query


@pytest.fixture
def kb():
    return SCANKnowledgeBase()


def observation(stage=0, size=5.0, threads=1, time=10.0, app="gatk"):
    return ProfileObservation(
        app=app, stage=stage, input_gb=size, threads=threads,
        execution_time=time, cpu=8, ram_gb=4.0,
    )


class TestRecording:
    def test_individuals_named_like_paper(self, kb):
        names = [kb.record_observation(observation()) for _ in range(3)]
        assert names == ["GATK1", "GATK2", "GATK3"]

    def test_independent_counters_per_app(self, kb):
        kb.record_observation(observation(app="gatk"))
        name = kb.record_observation(observation(app="bwa"))
        assert name == "BWA1"

    def test_observation_lands_in_ontology(self, kb):
        kb.record_observation(observation(size=10.0, time=180.0))
        ind = kb.ontology.domain.get_individual("GATK1")
        assert ind is not None
        assert ind.get("inputFileSize") == 10.0
        assert ind.get("eTime") == 180.0

    def test_observation_lands_in_profile(self, kb):
        kb.record_observation(observation())
        assert kb.has_profile("gatk")
        assert len(kb.profile("gatk")) == 1

    def test_bulk_record(self, kb):
        names = kb.bulk_record([observation(), observation()])
        assert len(names) == 2

    def test_instance_count(self, kb):
        kb.record_observation(observation(app="gatk"))
        kb.record_observation(observation(app="bwa"))
        assert kb.instance_count() == 2
        assert kb.instance_count("gatk") == 1


class TestBootstrap:
    def test_bootstrap_recovers_table2(self, kb, gatk_model):
        n = kb.bootstrap_from_model(gatk_model)
        assert n == 7 * 9 * 5
        fitted = kb.fitted_stage_models("gatk")
        assert len(fitted) == 7
        for original, fit in zip(gatk_model.stages, fitted):
            assert fit.a == pytest.approx(original.a, abs=0.02)
            assert fit.c == pytest.approx(original.c, abs=0.05)

    def test_noisy_bootstrap_close(self, kb, gatk_model):
        rng = RandomStreams(5).stream("profiling")
        kb.bootstrap_from_model(gatk_model, noise_fraction=0.05, rng=rng)
        fitted = kb.fitted_stage_models("gatk")
        for original, fit in zip(gatk_model.stages, fitted):
            assert fit.a == pytest.approx(original.a, rel=0.2, abs=0.05)

    def test_noise_requires_rng(self, kb, gatk_model):
        with pytest.raises(ValueError):
            kb.bootstrap_from_model(gatk_model, noise_fraction=0.1)

    def test_no_profile_raises(self, kb):
        with pytest.raises(KnowledgeBaseError):
            kb.fitted_stage_models("gatk")


class TestQueries:
    def test_ranked_instances_order(self, kb):
        for size, etime in [(10, 180), (5, 200), (20, 280), (4, 80)]:
            kb.record_observation(observation(size=size, time=etime))
        rows = kb.ranked_instances("gatk")
        assert [r["etime"] for r in rows] == [80.0, 180.0, 200.0, 280.0]

    def test_ranked_instances_size_filter(self, kb):
        for size in (1, 5, 10, 20):
            kb.record_observation(observation(size=size))
        rows = kb.ranked_instances("gatk", min_size_gb=4, max_size_gb=12)
        assert sorted(r["size"] for r in rows) == [5.0, 10.0]

    def test_ranked_instances_limit(self, kb):
        for i in range(5):
            kb.record_observation(observation(time=float(i)))
        assert len(kb.ranked_instances("gatk", limit=2)) == 2

    def test_app_filter_excludes_other_apps(self, kb):
        kb.record_observation(observation(app="gatk"))
        kb.record_observation(observation(app="bwa"))
        assert len(kb.ranked_instances("gatk")) == 1

    def test_resource_requirements(self, kb):
        kb.record_observation(observation())
        reqs = kb.resource_requirements("gatk")
        assert reqs["cpu"] == 8.0
        assert reqs["ram_gb"] == 4.0

    def test_resource_requirements_missing_app(self, kb):
        with pytest.raises(KnowledgeBaseError):
            kb.resource_requirements("nope")

    def test_raw_sparql_query(self, kb):
        kb.record_observation(observation(size=10.0))
        rows = kb.query(
            """
            PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
            SELECT ?s WHERE { ?i scan:inputFileSize ?s }
            """
        )
        assert rows == [{"s": 10.0}]


def sparql_ranking(kb, app="gatk", lo=0.0, hi=float("inf"), limit=None):
    """The ranking straight from SPARQL, bypassing views and caches."""
    text = ranked_instances_query(app, lo, hi, limit)
    return execute_query(kb.ontology.store, text, cache=False)


_TIE_SCRIPT = """
from repro.knowledge.kb import SCANKnowledgeBase
from repro.knowledge.profiles import ProfileObservation
kb = SCANKnowledgeBase()
for _ in range(6):
    kb.record_observation(ProfileObservation(
        app="gatk", stage=0, input_gb=5.0, threads=1, execution_time=10.0))
print(",".join(r["instance"].local_name for r in kb.ranked_instances("gatk", limit=3)))
"""


class TestRankedView:
    def test_tie_order_is_independent_of_hash_seed(self):
        """Tied rows rank by instance IRI, not by the interpreter's hash salt."""
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", _TIE_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(proc.stdout.strip())
        assert outputs == {"GATK1,GATK2,GATK3"}

    def test_view_answers_without_sparql_until_a_foreign_write(self, kb, monkeypatch):
        texts = []
        real_query = kb.query
        monkeypatch.setattr(
            kb, "query", lambda text: texts.append(text) or real_query(text)
        )
        kb.record_observation(observation())
        kb.ranked_instances("gatk")
        assert len(texts) == 1

        for i in range(500):
            kb.record_observation(
                observation(size=float(i % 9 + 1), time=float(i % 37))
            )
            kb.ranked_instances("gatk", limit=50)
        assert len(texts) == 1
        assert kb.ranked_instances("gatk") == sparql_ranking(kb)

        add_application_instance(
            kb.ontology, "HANDMADE1", app_name="gatk",
            input_file_size=0.5, e_time=0.0, cpu=4, ram=2.0,
        )
        first = kb.ranked_instances("gatk", limit=5)
        kb.ranked_instances("gatk", min_size_gb=3.0)
        assert len(texts) == 2
        assert first[0]["instance"] == SCAN["HANDMADE1"]
        assert first == sparql_ranking(kb, limit=5)

    def test_foreign_write_before_a_recorded_one_is_not_lost(self, kb):
        kb.record_observation(observation(time=3.0))
        kb.ranked_instances("gatk")
        add_application_instance(
            kb.ontology, "HANDMADE1", app_name="gatk",
            input_file_size=1.0, e_time=9.0, cpu=2, ram=1.0,
        )
        kb.record_observation(observation(time=1.0))
        rows = kb.ranked_instances("gatk")
        assert [r["instance"].local_name for r in rows] == ["GATK2", "GATK1", "HANDMADE1"]

    def test_name_collision_rebuilds_from_sparql(self, kb):
        kb.record_observation(observation(time=3.0))
        kb.ranked_instances("gatk")
        add_application_instance(
            kb.ontology, "GATK2", app_name="gatk",
            input_file_size=1.0, e_time=9.0, cpu=2, ram=1.0,
        )
        kb.ranked_instances("gatk")
        kb.record_observation(observation(time=1.0))  # lands on GATK2 too
        rows = kb.ranked_instances("gatk")
        assert rows == sparql_ranking(kb)
        # two values for each of size, etime, cpu and ram: 2**4 rows
        assert sum(r["instance"] == SCAN["GATK2"] for r in rows) == 16

    def test_removed_triple_drops_the_instance(self, kb):
        for time in (1.0, 2.0, 3.0):
            kb.record_observation(observation(time=time))
        kb.ranked_instances("gatk")
        kb.ontology.store.remove(SCAN["GATK2"], SCAN["eTime"], 2.0)
        rows = kb.ranked_instances("gatk")
        assert [r["instance"].local_name for r in rows] == ["GATK1", "GATK3"]

    def test_nan_execution_time_matches_sparql(self, kb):
        """NaN keys have no place in the order; the view defers to SPARQL."""
        nan = float("nan")
        kb.record_observation(observation(time=2.5))
        kb.ranked_instances("gatk")
        for time in (nan, 2.0, 4.0, 4.0, nan, 2.0, 3.0, 2.0):
            kb.record_observation(observation(time=time))
            assert kb.ranked_instances("gatk") == sparql_ranking(kb)

    def test_inserted_row_carries_the_stored_values(self, kb):
        kb.ranked_instances("gatk")
        kb.record_observation(ProfileObservation(
            app="gatk", stage=0, input_gb=3, threads=1, execution_time=7,
            cpu=True, ram_gb=2,
        ))
        rows = kb.ranked_instances("gatk")
        assert repr(rows) == repr(sparql_ranking(kb))
        assert [type(rows[0][k]) for k in ("size", "etime", "cpu", "ram")] == [
            float, float, int, float,
        ]

    def test_rows_are_copies(self, kb):
        kb.record_observation(observation())
        kb.ranked_instances("gatk")[0]["size"] = -1.0
        assert kb.ranked_instances("gatk")[0]["size"] == 5.0

    def test_negative_limit_rejected_like_the_query(self, kb):
        kb.record_observation(observation())
        with pytest.raises(SparqlError):
            kb.ranked_instances("gatk", limit=-1)
        with pytest.raises(SparqlError):
            sparql_ranking(kb, limit=-1)
