"""Per-layer timing from outside the program.

The traced run replaces the public entry points of each ``repro`` layer,
at the attribute its callers look up, with a thin timing wrapper.  Nothing
inside ``src/`` is instrumented, so the benchmark can time any commit of
the program as it stands.  A target that no longer exists (a later change
deleted or renamed it) makes its layer *absent*: it is reported, it reads
0, and the run goes on.

Self time comes from a stack of child durations: each active wrapped call
keeps the total duration of the wrapped calls made beneath it, and its
self time is its own duration minus that total.  A layer's cumulative
time counts only its outermost active call, so a layer that re-enters
itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["LAYERS", "Layer", "Tracer", "Installation", "install"]


@dataclass(frozen=True)
class Layer:
    """One timed layer: a metric prefix and the entry points it wraps.

    Each target reads ``"module:attribute"`` or ``"module:Class.method"``.
    """

    name: str
    targets: tuple[str, ...]


#: The layers the traced run times, named after the ``repro`` module that
#: owns them.  Functions are wrapped where their callers import them from
#: (``repro.cli``, ``repro.experiments.pipeline``, ``repro.engine.engine``);
#: methods are wrapped on their class, which every caller shares.
LAYERS: tuple[Layer, ...] = (
    Layer("cli.main", ("repro.cli:main",)),
    Layer("datasets.load", ("repro.cli:load_epinions_community",)),
    Layer("community.from_records", ("repro.community:Community.from_records",)),
    Layer(
        "community.add",
        tuple(
            f"repro.community:Community.add_{kind}"
            for kind in ("user", "category", "object", "review", "rating", "trust")
        ),
    ),
    Layer("community.columns", ("repro.community:Community.columns",)),
    Layer("experiments.run_pipeline", ("repro.cli:run_pipeline",)),
    Layer("reputation.fit", ("repro.reputation:ExpertiseEstimator.fit",)),
    Layer("reputation.refresh", ("repro.reputation:IncrementalExpertise.refresh",)),
    Layer("affinity.fit", ("repro.affinity:AffinityEstimator.fit",)),
    Layer("trust.derive", ("repro.trust:TrustDeriver.derive",)),
    Layer("trust.derive_region", ("repro.trust:TrustDeriver.derive_region",)),
    Layer(
        "trust.relations",
        tuple(
            f"repro.experiments.pipeline:{name}"
            for name in (
                "direct_connection_matrix",
                "baseline_matrix",
                "ground_truth_matrix",
                "generousness",
            )
        ),
    ),
    Layer("trust.binarize", ("repro.experiments.pipeline:binarize_top_k",)),
    Layer("matrix.patched", ("repro.matrix:UserPairMatrix.patched",)),
    Layer("matrix.csr", ("repro.matrix:UserPairMatrix.csr",)),
    Layer("propagation.eigen_trust", ("repro.engine.engine:eigen_trust",)),
    Layer("engine.update", ("repro.engine:Engine.update",)),
)


class Tracer:
    """Accumulates cumulative time, self time and calls per layer."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep: tuple[str, ...] = (),
    ) -> None:
        self._clock = clock
        self._keep = frozenset(keep)
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        #: time spent in outermost wrapped calls (none active above them)
        self.top_level = 0.0
        #: last return value of each layer named in ``keep``
        self.last_result: dict[str, Any] = {}
        self._stack: list[list[Any]] = []  # [layer, child seconds] per active call
        self._depth: defaultdict[str, int] = defaultdict(int)

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as one call of ``layer`` and account for its time."""
        self._stack.append([layer, 0.0])
        self._depth[layer] += 1
        start = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self._clock() - start
            _, children = self._stack.pop()
            self._depth[layer] -= 1
            self.calls[layer] += 1
            self.self_time[layer] += elapsed - children
            if self._depth[layer] == 0:
                self.total[layer] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed
            else:
                self.top_level += elapsed
        if layer in self._keep:
            self.last_result[layer] = result
        return result


_INHERITED = object()  # marks a wrapper set over an attribute a base class owns


@dataclass
class Installation:
    """Wrappers in place; :meth:`restore` puts every original back."""

    absent: tuple[str, ...]
    _originals: list[tuple[Any, str, Any]]

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _resolve(target: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, raw value)`` for a target, ``None`` if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # the raw class attribute, so classmethods stay classmethods
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return owner, attr, klass.__dict__[attr]
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _wrap(tracer: Tracer, layer: str, raw: Any) -> Any:
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap(tracer, layer, raw.__func__))

    @functools.wraps(raw)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(layer, raw, *args, **kwargs)

    return wrapper


def install(tracer: Tracer, layers: tuple[Layer, ...] = LAYERS) -> Installation:
    """Wrap every present target of ``layers``; report the absent ones.

    A layer is absent when none of its targets exists; a target that is
    missing while others of its layer remain is reported as well.
    """
    originals: list[tuple[Any, str, Any]] = []
    absent: list[str] = []
    for layer in layers:
        missing = []
        for target in layer.targets:
            resolved = _resolve(target)
            if resolved is None:
                missing.append(target)
                continue
            owner, attr, raw = resolved
            originals.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, _wrap(tracer, layer.name, raw))
        if len(missing) == len(layer.targets):
            absent.append(layer.name)
        else:
            absent.extend(missing)
    return Installation(absent=tuple(absent), _originals=originals)
