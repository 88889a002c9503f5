"""RDF terms and an indexed in-memory triple store.

Terms
-----
- :class:`IRI` -- an absolute IRI (plain string subclass).
- :class:`Literal` -- a typed literal value (int, float, str, bool).
- :class:`BlankNode` -- an anonymous node with a store-local label.

Store
-----
:class:`TripleStore` keeps three hash indexes (SPO, POS, OSP) so that every
single-wildcard match pattern is answered from the index that binds the most
terms, mirroring how Jena's memory graphs work.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Union

__all__ = [
    "IRI",
    "Literal",
    "BlankNode",
    "Term",
    "Triple",
    "TripleStore",
    "Namespace",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
]


class IRI(str):
    """An IRI term.  Subclasses ``str`` so it hashes/compares naturally."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"IRI({str.__repr__(self)})"

    @property
    def local_name(self) -> str:
        """The fragment (after '#') or last path segment of the IRI."""
        if "#" in self:
            return self.rsplit("#", 1)[1]
        return self.rstrip("/").rsplit("/", 1)[-1]


class Literal:
    """A typed RDF literal.

    The value is a native Python ``int``, ``float``, ``bool`` or ``str``;
    the XSD datatype is derived from the Python type unless given.
    """

    __slots__ = ("value", "datatype")

    _XSD = "http://www.w3.org/2001/XMLSchema#"

    def __init__(self, value: Any, datatype: Optional[str] = None) -> None:
        if isinstance(value, Literal):
            value = value.value
        if not isinstance(value, (int, float, bool, str)):
            raise TypeError(f"unsupported literal value type: {type(value).__name__}")
        self.value = value
        if datatype is None:
            if isinstance(value, bool):
                datatype = self._XSD + "boolean"
            elif isinstance(value, int):
                datatype = self._XSD + "integer"
            elif isinstance(value, float):
                datatype = self._XSD + "double"
            else:
                datatype = self._XSD + "string"
        self.datatype = datatype

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Literal):
            return self.value == other.value and self.datatype == other.datatype
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.datatype))

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)

    def as_number(self) -> float:
        """The literal as a float; raises for non-numeric literals."""
        if isinstance(self.value, bool):
            return float(self.value)
        if isinstance(self.value, (int, float)):
            return float(self.value)
        try:
            return float(self.value)
        except ValueError:
            raise TypeError(f"literal {self.value!r} is not numeric") from None


class BlankNode:
    """An anonymous RDF node."""

    __slots__ = ("label",)
    _counter = itertools.count()

    def __init__(self, label: Optional[str] = None) -> None:
        self.label = label if label is not None else f"b{next(self._counter)}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BlankNode):
            return self.label == other.label
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("_bnode_", self.label))

    def __repr__(self) -> str:
        return f"BlankNode(_:{self.label})"


Term = Union[IRI, Literal, BlankNode]


class Triple(NamedTuple):
    """A single (subject, predicate, object) statement."""

    subject: Term
    predicate: IRI
    object: Term


class Namespace:
    """IRI factory: ``ns.term`` and ``ns['term']`` build prefixed IRIs."""

    def __init__(self, base: str) -> None:
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def __getattr__(self, name: str) -> IRI:
        if name.startswith("_"):
            raise AttributeError(name)
        return IRI(self._base + name)

    def __getitem__(self, name: str) -> IRI:
        return IRI(self._base + name)

    def __contains__(self, iri: str) -> bool:
        return isinstance(iri, str) and iri.startswith(self._base)

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")


def _as_term(value: Any) -> Term:
    """Coerce a Python value into an RDF term."""
    if isinstance(value, (IRI, Literal, BlankNode)):
        return value
    if isinstance(value, str):
        # Bare strings become literals; IRIs must be explicit.
        return Literal(value)
    if isinstance(value, (int, float, bool)):
        return Literal(value)
    raise TypeError(f"cannot coerce {value!r} into an RDF term")


class TripleStore:
    """An indexed, in-memory set of triples with wildcard matching.

    ``match(s, p, o)`` treats ``None`` as a wildcard and streams matching
    triples from the most selective index.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._spo: dict[Term, dict[IRI, set[Term]]] = {}
        self._pos: dict[IRI, dict[Term, set[Term]]] = {}
        self._osp: dict[Term, dict[Term, set[IRI]]] = {}
        self._size = 0
        self._epoch = 0
        self._prefixes: dict[str, str] = {
            "rdf": RDF.base,
            "rdfs": RDFS.base,
            "owl": OWL.base,
            "xsd": XSD.base,
        }

    @property
    def epoch(self) -> int:
        """Mutation counter: bumped on every effective add/remove.

        Cache layers (the SPARQL result cache in
        :mod:`repro.ontology.sparql`) key on this to invalidate whenever
        the triple set changes; no-op inserts/removes do not bump it.
        """
        return self._epoch

    # -- prefixes -----------------------------------------------------------
    def bind_prefix(self, prefix: str, base: str) -> None:
        """Register *prefix* for serialization and query expansion."""
        self._prefixes[prefix] = base

    @property
    def prefixes(self) -> dict[str, str]:
        return dict(self._prefixes)

    def expand(self, qname: str) -> IRI:
        """Expand ``prefix:local`` into a full IRI."""
        if ":" not in qname:
            raise ValueError(f"{qname!r} is not a prefixed name")
        prefix, local = qname.split(":", 1)
        try:
            return IRI(self._prefixes[prefix] + local)
        except KeyError:
            raise KeyError(f"unknown prefix {prefix!r}") from None

    def shrink(self, iri: str) -> str:
        """Compact an IRI into ``prefix:local`` form when a prefix matches."""
        for prefix, base in sorted(
            self._prefixes.items(), key=lambda kv: -len(kv[1])
        ):
            if iri.startswith(base):
                return f"{prefix}:{iri[len(base):]}"
        return iri

    # -- mutation -----------------------------------------------------------
    def add(self, subject: Any, predicate: Any, obj: Any) -> Triple:
        """Insert one triple; returns it.  Duplicate inserts are no-ops."""
        s = _as_subject(subject)
        p = _as_predicate(predicate)
        o = _as_term(obj)
        objs = self._spo.setdefault(s, {}).setdefault(p, set())
        if o not in objs:
            objs.add(o)
            self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
            self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
            self._size += 1
            self._epoch += 1
        return Triple(s, p, o)

    def add_all(self, triples: Iterable[tuple[Any, Any, Any]]) -> None:
        """Insert many (s, p, o) tuples."""
        for s, p, o in triples:
            self.add(s, p, o)

    def remove(self, subject: Any, predicate: Any, obj: Any) -> bool:
        """Remove one triple; True if it was present."""
        s = _as_subject(subject)
        p = _as_predicate(predicate)
        o = _as_term(obj)
        try:
            self._spo[s][p].remove(o)
        except KeyError:
            return False
        self._pos[p][o].discard(s)
        self._osp[o][s].discard(p)
        self._size -= 1
        self._epoch += 1
        return True

    def remove_matching(
        self,
        subject: Optional[Any] = None,
        predicate: Optional[Any] = None,
        obj: Optional[Any] = None,
    ) -> int:
        """Remove all triples matching the wildcard pattern; returns count."""
        victims = list(self.match(subject, predicate, obj))
        for t in victims:
            self.remove(t.subject, t.predicate, t.object)
        return len(victims)

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def subject_size(self, subject: Any) -> int:
        """Number of triples whose subject is *subject* (0 if none)."""
        by_pred = self._spo.get(_as_subject(subject), {})
        return sum(len(objs) for objs in by_pred.values())

    def __contains__(self, spo: tuple[Any, Any, Any]) -> bool:
        s, p, o = spo
        return any(True for _ in self.match(s, p, o))

    def __iter__(self) -> Iterator[Triple]:
        return self.match(None, None, None)

    def match(
        self,
        subject: Optional[Any] = None,
        predicate: Optional[Any] = None,
        obj: Optional[Any] = None,
    ) -> Iterator[Triple]:
        """Stream triples matching the pattern (None = wildcard)."""
        s = _as_subject(subject) if subject is not None else None
        p = _as_predicate(predicate) if predicate is not None else None
        o = _as_term(obj) if obj is not None else None

        if s is not None:
            by_pred = self._spo.get(s)
            if not by_pred:
                return
            if p is not None:
                objs = by_pred.get(p)
                if not objs:
                    return
                if o is not None:
                    if o in objs:
                        yield Triple(s, p, o)
                else:
                    for obj_ in list(objs):
                        yield Triple(s, p, obj_)
            else:
                for p_, objs in list(by_pred.items()):
                    if o is not None:
                        if o in objs:
                            yield Triple(s, p_, o)
                    else:
                        for obj_ in list(objs):
                            yield Triple(s, p_, obj_)
        elif p is not None:
            by_obj = self._pos.get(p)
            if not by_obj:
                return
            if o is not None:
                for s_ in list(by_obj.get(o, ())):
                    yield Triple(s_, p, o)
            else:
                for o_, subjects in list(by_obj.items()):
                    for s_ in list(subjects):
                        yield Triple(s_, p, o_)
        elif o is not None:
            by_subj = self._osp.get(o)
            if not by_subj:
                return
            for s_, preds in list(by_subj.items()):
                for p_ in list(preds):
                    yield Triple(s_, p_, o)
        else:
            for s_, by_pred in list(self._spo.items()):
                for p_, objs in list(by_pred.items()):
                    for o_ in list(objs):
                        yield Triple(s_, p_, o_)

    def objects(self, subject: Any, predicate: Any) -> list[Term]:
        """All objects of (subject, predicate, ?)."""
        return [t.object for t in self.match(subject, predicate, None)]

    def subjects(self, predicate: Any, obj: Any) -> list[Term]:
        """All subjects of (?, predicate, object)."""
        return [t.subject for t in self.match(None, predicate, obj)]

    def value(self, subject: Any, predicate: Any, default: Any = None) -> Any:
        """The single object of (subject, predicate, ?), or *default*.

        Raises if more than one object exists -- callers that expect a
        functional property should hear about violations.
        """
        objs = self.objects(subject, predicate)
        if not objs:
            return default
        if len(objs) > 1:
            raise ValueError(
                f"{subject} has {len(objs)} values for {predicate}; expected one"
            )
        return objs[0]

    def copy(self) -> "TripleStore":
        """An independent deep copy (triples and prefixes)."""
        out = TripleStore(self.name)
        out._prefixes = dict(self._prefixes)
        for t in self:
            out.add(*t)
        return out


def _as_subject(value: Any) -> Term:
    if isinstance(value, (IRI, BlankNode)):
        return value
    if isinstance(value, str):
        return IRI(value)
    raise TypeError(f"invalid subject term: {value!r}")


def _as_predicate(value: Any) -> IRI:
    if isinstance(value, IRI):
        return value
    if isinstance(value, str):
        return IRI(value)
    raise TypeError(f"invalid predicate term: {value!r}")
