"""Span tracer installed around npcbary's public entry points from outside the
library.

``Tracer.install`` replaces, for the duration of a traced phase:

* ``dist`` and ``geodesic_point`` on every concrete ``Space`` subclass;
* ``empirical_barycenter``, ``inductive_barycenter``, ``weighted_barycenter``,
  ``frechet_variance`` and ``population_barycenter`` as bound in
  ``npcbary.experiments`` (the names the harness looks up at call time);
* ``run_concentration`` and ``npc_property_suite`` in ``npcbary.experiments``
  and ``npcbary.cli``, and ``npcbary.cli.main``.

Each call becomes one span: a name id, its parent span id, and start and end
in nanoseconds.  Spans are kept in flat typed arrays (22 bytes a span, since a
traced coverage round makes about a million of them), written out at the end
with ``save`` and reduced to self times with ``self_times``.  ``uninstall``
puts every original function back, so untraced runs execute no wrapper.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from npcbary import cli, experiments
from npcbary.spaces import Euclidean, Hyperbolic, MetricTree, SpdAffine, Sphere

SPACE_CLASSES = (Euclidean, Hyperbolic, SpdAffine, MetricTree, Sphere)

ROUND = "round"
EMPIRICAL = "barycenter.empirical"
INDUCTIVE = "barycenter.inductive"
WEIGHTED = "barycenter.weighted"
POPULATION = "experiments.population_barycenter"
FRECHET_VARIANCE = "experiments.frechet_variance"
RUN_CONCENTRATION = "experiments.run_concentration"
PROPERTY_SUITE = "experiments.npc_property_suite"
CLI_MAIN = "cli.main"


def space_key(space) -> str:
    """Layer key of a space instance: its kind, with the matrix size for SPD."""
    if isinstance(space, SpdAffine):
        return f"spd_affine_p{space.p}"
    return space.kind


def payload_key(p):
    """Hashable value of a payload, equal exactly when the payloads are."""
    return p.tobytes() if isinstance(p, np.ndarray) else p


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("i")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        # span id -> what the reduction needs beyond timing (step counts,
        # solver inputs, preset labels); kept only for the few upper spans
        self.notes: dict[int, tuple] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name_of, note=None):
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack, notes = self._stack, self.notes
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(name_of(args))
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if note is not None:
                notes[sid] = note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one round."""
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self.name_id(name))
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.end[sid] = time.perf_counter_ns()

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for cls in SPACE_CLASSES:
            for method, op in (("dist", "dist"), ("geodesic_point", "geodesic")):
                self._patch(cls, method, self._wrap(
                    vars(cls)[method], self._space_name_of(cls, op)))

        def fixed(name):
            nid = self.name_id(name)
            return lambda args: nid

        entry_points = [
            (experiments, "empirical_barycenter", EMPIRICAL,
             lambda a, out: (out.iterations, a[1])),
            (experiments, "inductive_barycenter", INDUCTIVE,
             lambda a, out: (len(a[1]) - 1,)),
            (experiments, "weighted_barycenter", WEIGHTED, None),
            (experiments, "frechet_variance", FRECHET_VARIANCE, None),
            (experiments, "population_barycenter", POPULATION, None),
        ]
        for module in (experiments, cli):
            entry_points += [
                (module, "run_concentration", RUN_CONCENTRATION,
                 lambda a, out: (a[0].label, a[0].trials)),
                (module, "npc_property_suite", PROPERTY_SUITE,
                 lambda a, out: (space_key(a[0]),)),
            ]
        entry_points.append((cli, "main", CLI_MAIN, None))
        for owner, attr, name, note in entry_points:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), fixed(name), note))

    def _space_name_of(self, cls, op: str):
        if cls is not SpdAffine:
            nid = self.name_id(f"spaces.{cls.kind}.{op}")
            return lambda args: nid
        by_p: dict[int, int] = {}

        def name_of(args):
            p = args[0].p
            nid = by_p.get(p)
            if nid is None:
                nid = by_p[p] = self.name_id(f"spaces.spd_affine_p{p}.{op}")
            return nid

        return name_of

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def arrays(self):
        """(parent, name id, duration ns) as numpy arrays."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        return parent, name, dur

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        parent, _, dur = self.arrays()
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - covered

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
