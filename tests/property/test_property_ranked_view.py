"""Property test: the knowledge base's ranked view is the SPARQL ranking.

``SCANKnowledgeBase.ranked_instances`` answers from a per-app view that it
extends in place as observations are recorded and rebuilds by SPARQL after
any other write.  Whatever the interleaving of recorded observations,
hand-added individuals, removed triples and Turtle round trips, every
ranking must equal the uncached SPARQL query exactly: same rows, same
values, same order.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knowledge.kb import PersistentKnowledgeBase, ranked_instances_query
from repro.knowledge.profiles import ProfileObservation
from repro.ontology.scan_ontology import SCAN, add_application_instance
from repro.ontology.sparql import execute_query
from repro.ontology.triples import RDF

APPS = ("gatk", "bwa")
# Few distinct values, so (etime, size) ties are common; ints check that
# the view's rows carry the stored (float) values.
_sizes = st.sampled_from([1, 2.0, 5.0])
_etimes = st.sampled_from([10, 20.0, 30.0])

_record = st.tuples(
    st.just("record"), st.sampled_from(APPS), _sizes, _etimes,
    st.sampled_from([4, 8]),
)
# Hand-made individuals reuse the GATK<n>/BWA<n> names, so some collide
# with names record_observation hands out later.
_hand = st.tuples(
    st.just("hand"), st.sampled_from(APPS), _sizes, _etimes,
    st.integers(min_value=1, max_value=8),
)
_remove = st.tuples(
    st.just("remove"),
    st.integers(min_value=0, max_value=50),
    st.sampled_from(["type", "appName", "inputFileSize", "eTime", "CPU"]),
)
_reload = st.tuples(st.just("reload"))

_query = st.tuples(
    st.sampled_from(APPS),
    st.sampled_from([0.0, 1.5, 2.0]),
    st.sampled_from([float("inf"), 2.0, 5.0]),
    st.sampled_from([None, 0, 1, 3, 50]),
)

# A step may skip its query, so several writes can land between rankings.
_steps = st.lists(
    st.tuples(st.one_of(_record, _hand, _remove, _reload), st.none() | _query),
    min_size=1,
    max_size=25,
)


def _apply(kb, op, workdir):
    """Run one operation; returns the (possibly reloaded) knowledge base."""
    kind = op[0]
    store = kb.ontology.store
    if kind == "record":
        _, app, size, etime, cpu = op
        kb.record_observation(ProfileObservation(
            app=app, stage=0, input_gb=size, threads=1,
            execution_time=etime, cpu=cpu,
        ))
    elif kind == "hand":
        _, app, size, etime, n = op
        add_application_instance(
            kb.ontology, f"{app.upper()}{n}", app_name=app,
            input_file_size=size, e_time=etime, cpu=2, ram=1.0,
        )
    elif kind == "remove":
        _, index, prop = op
        subjects = sorted(store.subjects(RDF.type, SCAN["Application"]))
        if subjects:
            subject = subjects[index % len(subjects)]
            predicate = RDF.type if prop == "type" else SCAN[prop]
            for triple in list(store.match(subject, predicate, None)):
                if prop != "type" or triple.object == SCAN["Application"]:
                    store.remove(*triple)
    else:
        path = Path(workdir) / "kb.ttl"
        kb.save(path)
        kb = PersistentKnowledgeBase.load(path)
    return kb


@given(steps=_steps)
@settings(max_examples=100, deadline=None)
def test_ranked_view_equals_uncached_sparql(steps):
    kb = PersistentKnowledgeBase()
    with tempfile.TemporaryDirectory() as workdir:
        for op, query in steps:
            kb = _apply(kb, op, workdir)
            if query is None:
                continue
            app, lo, hi, limit = query
            text = ranked_instances_query(app, lo, hi, limit)
            expected = execute_query(kb.ontology.store, text, cache=False)
            # repr, not ==: 1 == 1.0, but a row must carry the same values.
            assert repr(kb.ranked_instances(app, lo, hi, limit)) == repr(expected)
