"""The read-path index over mined patterns: match and predict queries.

Mining ends with a pattern file; serving starts here. A
:class:`PatternIndex` compiles the mined pattern set into a prefix trie
whose edges are labeled with *events* (itemsets) and answers the two
questions a downstream consumer asks about a customer's history:

* :meth:`PatternIndex.match` — which mined patterns are contained in
  this sequence? Containment is the paper's subsequence relation: the
  pattern's events must embed in strictly increasing positions, each
  pattern event a *subset* of the customer event it maps to (never a
  substring/adjacency relation).
* :meth:`PatternIndex.predict_next` — given the history so far, what
  event do the mined patterns say comes next? Every trie edge leaving a
  matched pattern prefix is a candidate; candidates are ranked by the
  best support in the subtree behind the edge.

Both run as one left-to-right sweep over the query. The trie is walked
NFA-style: a node is *active* when the pattern prefix it spells is
contained in the query consumed so far. The root (empty prefix) is
always active, activated nodes stay active (subsequence semantics — a
later query event may always be skipped), and each query event
activates the children whose edge label is a subset of it. Out-edges
are keyed by their label's smallest item, so per event an active node
costs one lookup per event item and one subset test per edge found,
not a test per out-edge: on a 2-CPU container an 8-event query over
2,901 patterns (826 root edges) matches in about 0.02 ms and predicts
in 0.03 ms. Exactness: the active set after each query prefix is
precisely the set of pattern prefixes it contains (greedy subset
matching loses nothing because activation is monotone), so ``match``
agrees with a brute-force ``sequence_contains`` post-filter — a
property the test suite fuzzes.

The index is immutable once built; the serving tier swaps whole
instances (see :mod:`repro.serving.server`) rather than mutating one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.sequence import Itemset, make_itemset, parse_sequence
from repro.io.patterns import read_patterns
from repro.miner import Pattern

__all__ = [
    "PatternIndex",
    "Prediction",
    "QueryEvents",
    "canonical_query",
    "parse_query",
    "pattern_payload",
    "prediction_payload",
]

#: A query — a customer's event history — in canonical form: a tuple of
#: frozenset events. May be empty (a brand-new customer).
QueryEvents = tuple[frozenset[int], ...]


def canonical_query(events: Iterable[Iterable[int]]) -> QueryEvents:
    """Canonicalize raw query events (any iterables of ints) for matching.

    Each event is validated like a transaction itemset (non-empty, int
    items); the query as a whole may be empty.
    """
    return tuple(frozenset(make_itemset(event)) for event in events)


def parse_query(text: str) -> QueryEvents:
    """Parse a query in the paper's notation, allowing the empty ``<>``.

    Patterns are never empty, but a *query* legitimately is (a customer
    with no history yet — every prediction then ranks pattern openings),
    so this accepts what :func:`~repro.core.sequence.parse_sequence`
    rejects.
    """
    stripped = text.strip()
    if stripped == "<>":
        return ()
    return canonical_query(parse_sequence(stripped).events)


@dataclass(frozen=True, slots=True)
class Prediction:
    """One ranked next-event candidate.

    ``count``/``support`` are those of the best-supported mined pattern
    that explains the candidate: a pattern with a prefix contained in
    the query whose next event is ``event``.
    """

    event: Itemset
    count: int
    support: float


def pattern_payload(pattern: Pattern) -> dict[str, object]:
    """The JSON-ready form of one matched pattern.

    Shared by the HTTP server and the CLI's in-process ``query`` so
    both surfaces answer byte-identically.
    """
    return {
        "pattern": str(pattern.sequence),
        "events": [list(event) for event in pattern.sequence.events],
        "count": pattern.count,
        "support": pattern.support,
    }


def prediction_payload(prediction: Prediction) -> dict[str, object]:
    """The JSON-ready form of one ranked prediction."""
    return {
        "event": list(prediction.event),
        "count": prediction.count,
        "support": prediction.support,
    }


class _Node:
    """One trie node: the pattern prefix spelled by the path to it."""

    __slots__ = ("children", "edges", "label_set", "pattern", "best_count", "best_support")

    def __init__(self, label_set: frozenset[int] = frozenset()) -> None:
        #: Out-edges by label; once built, by descending best count, then label.
        self.children: dict[Itemset, _Node] = _NO_CHILDREN
        #: The same children by their label's smallest item.
        self.edges: dict[int, list[_Node]] = _NO_EDGES
        #: The label of the edge into this node, frozen for subset tests.
        self.label_set = label_set
        self.pattern: Pattern | None = None
        #: Best (count, support) over every pattern in this subtree,
        #: the terminal of this node included. Computed once at build.
        self.best_count = 0
        self.best_support = 0.0


#: Every leaf's containers; a node gets its own before its first edge.
_NO_CHILDREN: dict[Itemset, _Node] = {}
_NO_EDGES: dict[int, list[_Node]] = {}


class PatternIndex:
    """An immutable prefix-trie index over one mined pattern set."""

    __slots__ = ("_root", "_num_patterns", "_num_nodes", "_max_pattern_length")

    def __init__(self, patterns: Iterable[Pattern]) -> None:
        self._root = _Node()
        self._num_patterns = 0
        self._num_nodes = 1
        self._max_pattern_length = 0
        for pattern in sorted(patterns, key=lambda p: p.sequence.sort_key()):
            self._insert(pattern)
        self._finalize(self._root)

    @classmethod
    def from_file(cls, path: str | Path) -> "PatternIndex":
        """Build an index from a ``seqmine mine --output`` pattern file.

        Strict read: the file must carry the versioned header and an
        intact footer (:mod:`repro.io.patterns`) — an index must never
        be built from a truncated pattern set.
        """
        return cls(read_patterns(path, strict=True))

    def _insert(self, pattern: Pattern) -> None:
        node = self._root
        for event in pattern.sequence.events:
            child = node.children.get(event)
            if child is None:
                child = _Node(frozenset(event))
                if not node.children:
                    node.children = {}
                node.children[event] = child
                self._num_nodes += 1
            node = child
        if node.pattern is not None:
            raise ValueError(
                f"duplicate pattern {pattern.sequence}: an index is built "
                f"from one mined set, which never repeats a sequence"
            )
        node.pattern = pattern
        self._num_patterns += 1
        self._max_pattern_length = max(
            self._max_pattern_length, pattern.sequence.length
        )

    def _finalize(self, node: _Node) -> tuple[int, float]:
        """Post-order pass filling subtree-best supports and edge maps."""
        best_count = node.pattern.count if node.pattern is not None else 0
        best_support = node.pattern.support if node.pattern is not None else 0.0
        ranked: list[tuple[int, Itemset, _Node]] = []
        for label, child in node.children.items():
            child_count, child_support = self._finalize(child)
            if child_count > best_count:
                best_count, best_support = child_count, child_support
            ranked.append((-child_count, label, child))
        node.best_count, node.best_support = best_count, best_support
        if ranked:
            ranked.sort()  # labels are unique, so no two children compare
            node.children = {label: child for _, label, child in ranked}
            node.edges = {}
            for _, label, child in ranked:
                node.edges.setdefault(label[0], []).append(child)
        return best_count, best_support

    @property
    def num_patterns(self) -> int:
        return self._num_patterns

    @property
    def num_nodes(self) -> int:
        """Trie size, shared prefixes counted once (root included)."""
        return self._num_nodes

    @property
    def max_pattern_length(self) -> int:
        return self._max_pattern_length

    def _active_nodes(self, events: QueryEvents) -> list[_Node]:
        """The NFA frontier after consuming ``events``.

        A node is in the returned list iff its pattern prefix is contained
        (subsequence + itemset-subset) in ``events``. Activations are
        appended *after* each event's scan, so a prefix never consumes two
        of its events from one query event, and a node (one parent,
        monotone activation) is activated at most once per query. Per
        event, each active node with children costs one ``edges`` lookup
        per event item and one subset test per edge found; an edge whose
        smallest label item the event lacks is never touched.
        """
        active: list[_Node] = [self._root]
        open_nodes = [node for node in active if node.edges]
        seen: set[_Node] = set()
        for event in events:
            additions: list[_Node] = []
            for node in open_nodes:
                for item in event:
                    for child in node.edges.get(item, ()):
                        if child not in seen and child.label_set <= event:
                            additions.append(child)
                            seen.add(child)
            active.extend(additions)
            open_nodes.extend(child for child in additions if child.edges)
        return active

    def match(self, query: Iterable[Iterable[int]]) -> list[Pattern]:
        """Every mined pattern contained in ``query``, in canonical order.

        Byte-for-byte equivalent to filtering the pattern set with
        :func:`repro.core.sequence.sequence_contains` — the property the
        serving test suite fuzzes — but computed in one sweep.
        """
        active = self._active_nodes(canonical_query(query))
        matched = [node.pattern for node in active if node.pattern is not None]
        matched.sort(key=lambda p: p.sequence.sort_key())
        return matched

    def predict_next(
        self, query: Iterable[Iterable[int]], k: int = 5
    ) -> list[Prediction]:
        """The ``k`` best next-event candidates after ``query``.

        A candidate is the label of any trie edge leaving an active
        node: some mined pattern has a prefix contained in the query and
        names that event next. Its score is the best pattern support in
        the subtree behind the edge (the strongest pattern the
        prediction can appeal to); candidates are ranked by descending
        count, ties broken by the event's canonical order so responses
        are deterministic.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        events = canonical_query(query)
        # Children are in rank order, so the merge is too: a label's first
        # edge is its best, and an equal count goes to the node activated
        # first (the merge is stable across its inputs).
        ranked = heapq.merge(
            *(node.children.items() for node in self._active_nodes(events)),
            key=lambda edge: (-edge[1].best_count, edge[0]),
        )
        best: dict[Itemset, _Node] = {}
        for label, child in ranked:
            if len(best) == k:
                break
            best.setdefault(label, child)
        return [
            Prediction(label, child.best_count, child.best_support)
            for label, child in best.items()
        ]

    def patterns(self) -> Iterator[Pattern]:
        """Every indexed pattern, in trie (prefix) order."""

        def walk(node: _Node) -> Iterator[Pattern]:
            if node.pattern is not None:
                yield node.pattern
            for label in sorted(node.children):
                yield from walk(node.children[label])

        yield from walk(self._root)
