"""The SUBDUE beam-search driver.

:class:`SubdueMiner` reproduces the behaviour of SUBDUE 5.1 as used in
Section 5.1 of the paper:

* candidate substructures start as single vertices and grow one edge at a
  time (:mod:`repro.mining.subdue.expansion`);
* at each step only the ``beam_width`` best-valued candidates are kept;
* candidates are valued with the MDL or Size principle
  (:mod:`repro.mining.subdue.evaluation`); only substructures with at
  least ``min_instances`` non-overlapping instances are considered, since
  the paper's runs disallow overlap;
* the search stops after ``limit`` candidates have been evaluated or when
  no candidate can be expanded further, and the ``max_best`` best
  substructures are reported.

SUBDUE's hierarchical mode (compress the host by the best substructure and
search again) is not offered: none of the paper's experiments runs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.subdue.evaluation import EvaluationPrinciple, evaluate
from repro.mining.subdue.expansion import expand_substructure, initial_substructures
from repro.mining.subdue.substructure import Candidate, IntegerHost, Substructure, select_non_overlapping
from repro.obs.tracer import get_tracer
from repro.runtime.collector import rare_full_collections


@dataclass
class SubdueResult:
    """Output of one SUBDUE run: the best substructures plus run metadata."""

    best: list[Substructure] = field(default_factory=list)
    evaluated: int = 0
    elapsed_seconds: float = 0.0
    principle: EvaluationPrinciple = EvaluationPrinciple.MDL

    def __len__(self) -> int:
        return len(self.best)

    def __iter__(self):
        return iter(self.best)

    def top(self) -> Substructure | None:
        """The single best substructure, or ``None`` if nothing was found."""
        return self.best[0] if self.best else None


@dataclass
class SubdueMiner:
    """Beam-search substructure discovery over a single labeled graph.

    Parameters mirror the SUBDUE command line options used in the paper:
    ``beam_width`` (beam size), ``max_best`` (number of substructures to
    report), ``max_substructure_edges`` (size limit), ``limit`` (number of
    candidate substructures considered before stopping), ``principle``
    (MDL or Size, as a member or its value: ``"mdl"`` or ``"size"``), and
    ``min_instances`` (minimum number of non-overlapping instances for a
    candidate to be worth reporting — a pattern seen once compresses
    nothing).  ``beam_width``, ``max_best`` and ``min_instances`` must be
    at least 1; ``limit``, ``max_instances`` and
    ``max_substructure_edges`` must be ``None`` (no cap) or at least 1.
    Other values, and any other principle, raise :class:`ValueError`.
    """

    beam_width: int = 4
    max_best: int = 3
    max_substructure_edges: int | None = 6
    limit: int | None = 1_000
    principle: EvaluationPrinciple = EvaluationPrinciple.MDL
    min_instances: int = 2
    max_instances: int | None = 2_000
    engine: MatchEngine | None = None

    def __post_init__(self) -> None:
        # Out-of-range values would not fail on their own: a negative beam
        # slices from the end, a zero limit still evaluates one candidate,
        # zero caps silently report nothing, and an unknown principle
        # fails only once a candidate is evaluated.
        for name in ("beam_width", "max_best", "min_instances"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name in ("limit", "max_instances", "max_substructure_edges"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be None or at least 1, got {value}")
        try:
            self.principle = EvaluationPrinciple(self.principle)
        except ValueError:
            choices = ", ".join(repr(member.value) for member in EvaluationPrinciple)
            raise ValueError(f"principle must be one of {choices}, got {self.principle!r}") from None

    def mine(self, host: LabeledGraph) -> SubdueResult:
        """Discover the best substructures of *host*.

        The search runs on the :class:`IntegerHost` of *host*, built once:
        vertex ids become ranks, the caller's ids sorted by ``str`` (ties
        kept in host order), and instances become edge and vertex bitsets.
        Every ordered choice of the search (instance order, pattern vertex
        order, expansion order) compares ranks and comes out as the
        caller's ``str`` order would, and any vertex ids work, orderable or
        not.  Only the reported best substructures are turned back into
        the caller's ids: their patterns, instances and non-overlapping
        selections, the selections unchanged.

        The run is one ``subdue.mine`` span.  While it runs, the
        collector's gen-2 threshold is raised by
        :data:`~repro.runtime.collector.FULL_COLLECTION_FACTOR` and
        restored on exit (see
        :func:`~repro.runtime.collector.rare_full_collections`).
        """
        with rare_full_collections(), get_tracer().span(
            "subdue.mine", vertices=host.n_vertices, edges=host.n_edges
        ) as span:
            start = time.perf_counter()
            integer_host = IntegerHost(host)
            best, evaluated = self._search(integer_host)
            span.set(evaluated=evaluated)
            return SubdueResult(
                best=[candidate.report(integer_host) for candidate in best],
                evaluated=evaluated,
                elapsed_seconds=time.perf_counter() - start,
                principle=self.principle,
            )

    def _search(self, host: IntegerHost) -> tuple[list[Candidate], int]:
        """The beam search over *host*: the best candidates, and how many
        candidates were evaluated."""
        engine = self.engine if self.engine is not None else MatchEngine()
        frontier = initial_substructures(host)
        best: list[Candidate] = []
        evaluated = 0

        while frontier:
            expanded: list[Candidate] = []
            for parent in frontier:
                if (
                    self.max_substructure_edges is not None
                    and parent.pattern.n_edges >= self.max_substructure_edges
                ):
                    continue
                expanded.extend(expand_substructure(host, parent, engine=engine))
            if not expanded:
                break

            scored: list[Candidate] = []
            for candidate in expanded:
                if self.max_instances is not None and len(candidate.instances) > self.max_instances:
                    # Cap the instance list so expansion cost stays bounded on
                    # dense hubs (SUBDUE applies a similar instance limit).
                    candidate.instances = candidate.instances[: self.max_instances]
                candidate.selection = select_non_overlapping(candidate.instances)
                if len(candidate.selection) < self.min_instances:
                    continue
                candidate.value = evaluate(host, candidate, self.principle)
                evaluated += 1
                scored.append(candidate)
                if self.limit is not None and evaluated >= self.limit:
                    break

            best.extend(scored)
            best = self._keep_best(best, self.max_best)
            if self.limit is not None and evaluated >= self.limit:
                break
            frontier = self._keep_best(scored, self.beam_width)

        return self._keep_best(best, self.max_best), evaluated

    @staticmethod
    def _keep_best(candidates: list[Candidate], count: int) -> list[Candidate]:
        """The *count* highest-valued candidates, one per pattern class.

        Classes are told apart by :attr:`Candidate.key`, which grouping
        computed when it opened the class.  Value ties are broken by that
        key so the beam (and the reported best list) is identical whatever
        order candidates were discovered in.
        """
        unique: dict[tuple[str, str], Candidate] = {}
        for candidate in candidates:
            existing = unique.get(candidate.key)
            if existing is None or candidate.value > existing.value:
                unique[candidate.key] = candidate
        ordered = sorted(unique.values(), key=lambda candidate: (-candidate.value, candidate.key))
        return ordered[:count]
