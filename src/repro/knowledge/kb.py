"""The SCAN knowledge base: semantic store + quantitative profiles.

Observations enter twice, deliberately:

1. As **ontology individuals** (``GATK1``, ``GATK2``, ... typed
   ``scan:Application`` with ``inputFileSize``/``steps``/``RAM``/``eTime``/
   ``CPU`` datatype properties), exactly as the paper's OWL listings show.
   These are what SPARQL queries rank.
2. As **profile observations** feeding the regression fits
   (:mod:`repro.knowledge.profiles`), which is what the scheduler's
   estimator and the shard advisor consume numerically.

The Data Broker's ranking is a SPARQL query (:func:`ranked_instances_query`).
Its unfiltered rows are kept per application as a *ranked view*, built by
that query and guarded by the store's mutation epoch: an observation the
KB records itself is inserted in place, and any other write to the store
drops the views so the next ranking re-runs the query.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Any, Iterable, Optional

from repro.apps.base import ApplicationModel, StageModel
from repro.core.errors import KnowledgeBaseError
from repro.knowledge.profiles import ApplicationProfile, ProfileObservation
from repro.ontology.scan_ontology import (
    SCAN,
    ScanOntology,
    add_application_instance,
    build_scan_ontology,
)
from repro.ontology.sparql import SparqlError, _sort_key, execute_query

__all__ = ["SCANKnowledgeBase", "PersistentKnowledgeBase", "ranked_instances_query"]

_RANKED_SPARQL = """
        PREFIX scan: <{base}>
        SELECT ?instance ?size ?etime ?cpu ?ram
        WHERE {{
            ?instance rdf:type scan:Application .
            ?instance scan:appName "{app}" .
            ?instance scan:inputFileSize ?size .
            ?instance scan:eTime ?etime .
            OPTIONAL {{ ?instance scan:CPU ?cpu . }}
            OPTIONAL {{ ?instance scan:RAM ?ram . }}
            {filter_clause}
        }}
        ORDER BY ASC(?etime) ASC(?size) ASC(?instance)
        {limit_clause}
        """


def ranked_instances_query(
    app: str,
    min_size_gb: float = 0.0,
    max_size_gb: float = float("inf"),
    limit: Optional[int] = None,
) -> str:
    """The SPARQL text whose rows ``ranked_instances`` returns."""
    upper = 1e18 if max_size_gb == float("inf") else max_size_gb
    return _RANKED_SPARQL.format(
        base=SCAN.base,
        app=app,
        filter_clause=f"FILTER (?size >= {min_size_gb} && ?size <= {upper})",
        limit_clause=f"LIMIT {limit}" if limit is not None else "",
    )


def _rank_key(row: dict[str, Any]) -> tuple:
    """The query's ORDER BY key for one result row."""
    return tuple(_sort_key(row[var]) for var in ("etime", "size", "instance"))


def _orderable(key: tuple) -> bool:
    """False when a NaN makes the key's place in the order undefined."""
    return all(part[1] == part[1] for part in key)


class _RankedView:
    """One application's unfiltered ranking rows, in ORDER BY order."""

    __slots__ = ("rows", "keys", "orderable")

    def __init__(self, rows: list[dict[str, Any]]) -> None:
        self.rows = rows
        self.keys = [_rank_key(row) for row in rows]
        self.orderable = all(map(_orderable, self.keys))

    def insert(self, row: dict[str, Any]) -> bool:
        """Insert *row* at its ranked place; False if it has none."""
        key = _rank_key(row)
        if not (self.orderable and _orderable(key)):
            return False
        at = bisect_right(self.keys, key)
        self.keys.insert(at, key)
        self.rows.insert(at, row)
        return True


class SCANKnowledgeBase:
    """Ontology-backed store of application knowledge.

    Parameters
    ----------
    ontology:
        An existing :class:`ScanOntology`; a fresh one is built if omitted.
    """

    def __init__(self, ontology: Optional[ScanOntology] = None) -> None:
        self.ontology = ontology if ontology is not None else build_scan_ontology()
        self._profiles: dict[str, ApplicationProfile] = {}
        self._instance_counter: dict[str, itertools.count] = {}
        # Ranked views per app, all current as of store epoch _views_epoch.
        self._views: dict[str, _RankedView] = {}
        self._views_epoch = -1

    # -- observation ingestion ---------------------------------------------
    def record_observation(self, obs: ProfileObservation) -> str:
        """Store one profiled/logged run; returns the new individual's name.

        Individuals are named ``<APP><n>`` (GATK1, GATK2, ...) matching the
        paper's knowledge-base expansion listings.
        """
        profile = self.profile(obs.app)
        profile.add(obs)

        counter = self._instance_counter.setdefault(
            obs.app, itertools.count(1)
        )
        name = f"{obs.app.upper()}{next(counter)}"
        # The values as stored, so the view row equals the query's row.
        size, etime = float(obs.input_gb), float(obs.execution_time)
        cpu, ram = int(obs.cpu), float(obs.ram_gb)
        epoch = self.ontology.store.epoch
        ind = add_application_instance(
            self.ontology,
            name,
            app_name=obs.app,
            input_file_size=size,
            e_time=etime,
            cpu=cpu,
            ram=ram,
            steps=1,
            threads=obs.threads,
            stage=obs.stage,
        )
        row = {
            "instance": ind.iri, "size": size, "etime": etime, "cpu": cpu, "ram": ram,
        }
        self._mirror_instance(obs.app, row, epoch)
        return name

    def _mirror_instance(
        self, app: str, row: dict[str, Any], epoch_before: int
    ) -> None:
        """Extend the ranked views by a recorded instance's row, or drop them.

        The views stay valid only if the write added exactly this new
        subject's triples to a store they were current for: the epoch then
        moved by the subject's triple count (a name collision leaves the
        subject with more).  Any other write drops them for a SPARQL
        rebuild.
        """
        store = self.ontology.store
        if not (
            self._views_epoch == epoch_before
            and store.epoch - epoch_before == store.subject_size(row["instance"])
        ):
            self._views.clear()
            return
        self._views_epoch = store.epoch
        view = self._views.get(app)
        if view is not None and not view.insert(row):
            self._views.clear()

    def bulk_record(self, observations: Iterable[ProfileObservation]) -> list[str]:
        """Record many observations; returns their names."""
        return [self.record_observation(o) for o in observations]

    def profile(self, app: str) -> ApplicationProfile:
        """The (mutable) quantitative profile for *app*."""
        profile = self._profiles.get(app)
        if profile is None:
            profile = ApplicationProfile(app)
            self._profiles[app] = profile
        return profile

    def has_profile(self, app: str) -> bool:
        """Whether any observations exist for *app*."""
        return app in self._profiles and len(self._profiles[app]) > 0

    # -- profiling bootstrap -------------------------------------------------
    def bootstrap_from_model(
        self,
        model: ApplicationModel,
        input_sizes_gb: Iterable[float] = (1, 2, 3, 4, 5, 6, 7, 8, 9),
        thread_counts: Iterable[int] = (1, 2, 4, 8, 16),
        noise_fraction: float = 0.0,
        rng: Any = None,
    ) -> int:
        """Seed the KB by 'profiling' an analytical model offline.

        This reproduces the paper's initial KB creation: runs of 1-9 GB
        inputs across thread counts, with optional multiplicative noise so
        the regression has realistic work to do.  Returns the number of
        observations recorded.
        """
        if noise_fraction < 0:
            raise ValueError("noise_fraction must be >= 0")
        if noise_fraction > 0 and rng is None:
            raise ValueError("noisy profiling requires an rng")
        n = 0
        for stage in model.stages:
            for size in input_sizes_gb:
                for threads in thread_counts:
                    time = stage.threaded_time(threads, float(size))
                    if noise_fraction > 0:
                        time *= 1.0 + noise_fraction * float(rng.normal())
                        time = max(time, 1e-6)
                    self.record_observation(
                        ProfileObservation(
                            app=model.name,
                            stage=stage.index,
                            input_gb=float(size),
                            threads=int(threads),
                            execution_time=time,
                            ram_gb=stage.ram_gb,
                        )
                    )
                    n += 1
        return n

    def fitted_stage_models(self, app: str, ram_gb: float = 4.0) -> list[StageModel]:
        """Stage models recovered from the recorded profile data."""
        profile = self.profile(app)
        if not profile.stage_indices:
            raise KnowledgeBaseError(f"no profile data for application {app!r}")
        return [
            profile.stage(i).to_stage_model(ram_gb=ram_gb)
            for i in profile.stage_indices
        ]

    # -- semantic queries ------------------------------------------------------
    def query(self, sparql: str) -> list[dict[str, Any]]:
        """Run a SPARQL-subset query against the semantic store."""
        return execute_query(self.ontology.store, sparql)

    def ranked_instances(
        self,
        app: str,
        min_size_gb: float = 0.0,
        max_size_gb: float = float("inf"),
        limit: Optional[int] = None,
    ) -> list[dict[str, Any]]:
        """Application instances ranked by execution time then input size.

        This is the paper's Data Broker query: "The selected GATK instances
        are ranked according to the values of their execution time and the
        size of input files."  Ties break on the instance IRI.

        The rows are those of :func:`ranked_instances_query`, served from
        the app's ranked view (see the module docstring) and copied out.
        """
        if limit is not None and limit < 0:
            raise SparqlError("LIMIT must be >= 0")
        lower = float(min_size_gb)
        upper = 1e18 if max_size_gb == float("inf") else float(max_size_gb)
        out: list[dict[str, Any]] = []
        if limit == 0:
            return out
        for row in self._ranked_view(app).rows:
            if lower <= row["size"] <= upper:
                out.append(dict(row))
                if len(out) == limit:
                    break
        return out

    def _ranked_view(self, app: str) -> _RankedView:
        """The app's ranked view, (re)built by SPARQL when stale or absent."""
        epoch = self.ontology.store.epoch
        if self._views_epoch != epoch:
            self._views.clear()
            self._views_epoch = epoch
        view = self._views.get(app)
        if view is None:
            rows = self.query(
                _RANKED_SPARQL.format(
                    base=SCAN.base, app=app, filter_clause="", limit_clause=""
                )
            )
            view = self._views[app] = _RankedView(rows)
        return view

    def resource_requirements(self, app: str) -> dict[str, float]:
        """Aggregate CPU/RAM requirements seen for *app* (max over runs)."""
        rows = self.ranked_instances(app)
        if not rows:
            raise KnowledgeBaseError(f"no instances recorded for {app!r}")
        return {
            "cpu": max(float(r.get("cpu", 1)) for r in rows),
            "ram_gb": max(float(r.get("ram", 1.0)) for r in rows),
        }

    def instance_count(self, app: Optional[str] = None) -> int:
        """Number of Application individuals (optionally for one app)."""
        return len(self.ontology.application_instances(app))


#: The datatype properties one profile observation is rebuilt from.
_PROFILE_FIELDS = ("stage", "threads", "inputFileSize", "eTime", "CPU", "RAM")


def _trailing_int(name: str) -> int:
    """The numeric suffix of an individual name like 'GATK12' (0 if none)."""
    digits = ""
    for char in reversed(name):
        if char.isdigit():
            digits = char + digits
        else:
            break
    return int(digits) if digits else 0


class PersistentKnowledgeBase(SCANKnowledgeBase):
    """A knowledge base that round-trips through Turtle on disk.

    The paper's KB is durable -- "the knowledge base will be expanded by
    using information from logs of each task running on the SCAN platform"
    across runs.  ``save()`` writes the semantic store as Turtle;
    ``load()`` rebuilds a KB from it, reconstructing the quantitative
    profiles and the GATK1/GATK2/... naming counters from the stored
    Application individuals.
    """

    def save(self, path) -> int:
        """Write the semantic store to *path* (Turtle); returns triples."""
        from pathlib import Path

        from repro.ontology.serializer import to_turtle

        text = to_turtle(self.ontology.store)
        Path(path).write_text(text, encoding="utf-8")
        return len(self.ontology.store)

    @classmethod
    def load(cls, path) -> "PersistentKnowledgeBase":
        """Rebuild a knowledge base from a Turtle file."""
        from pathlib import Path

        from repro.ontology.serializer import parse_turtle

        kb = cls()
        parse_turtle(Path(path).read_text(encoding="utf-8"), kb.ontology.store)
        kb._rebuild_profiles()
        return kb

    def _rebuild_profiles(self) -> None:
        """Reconstruct profiles/counters from stored Application individuals."""
        max_suffix: dict[str, int] = {}
        for ind in self.ontology.application_instances():
            apps = ind.get_all("appName")
            if len(apps) != 1:
                continue
            app = apps[0]
            max_suffix[app] = max(
                max_suffix.get(app, 0), _trailing_int(ind.local_name)
            )
            if any(len(ind.get_all(prop)) > 1 for prop in _PROFILE_FIELDS):
                continue  # two runs merged under one name: no single observation
            stage = ind.get("stage")
            threads = ind.get("threads")
            size = ind.get("inputFileSize")
            etime = ind.get("eTime")
            if None in (stage, threads, size, etime):
                continue  # hand-authored individual without profile fields
            self.profile(app).add(
                ProfileObservation(
                    app=str(app),
                    stage=int(stage),
                    input_gb=float(size),
                    threads=int(threads),
                    execution_time=float(etime),
                    cpu=int(ind.get("CPU", threads)),
                    ram_gb=float(ind.get("RAM", 4.0)),
                )
            )
        for app, suffix in max_suffix.items():
            self._instance_counter[app] = itertools.count(suffix + 1)
