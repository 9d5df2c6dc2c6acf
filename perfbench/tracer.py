"""In-memory spans around batchlat's public functions at module boundaries.

``Tracer.install()`` rebinds each traced function, in every batchlat module
that holds it, to a timing wrapper; ``uninstall()`` puts the originals back.
A span records name, start, end, parent span, thread id and the pass it
belongs to, plus the call's arguments and result so that counts (trials,
groups) can be derived where the work happened. Nothing under ``src/`` is
modified.

``PointClock`` is the only hook the untraced runs use: a two-timestamp
clock around ``batchlat.cli.monte_carlo``, because the latency of one sweep
grid point is not visible from outside ``run_sweep``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

# (home module, function): every function whose calls become spans. The
# span name is "<layer>.<function>", the layer being the home module.
TRACED = (
    ("sim", "monte_carlo"),
    ("sim", "coverage_empirical"),
    ("analytics", "coverage_probability"),
    ("analytics", "expected_time_cyclic"),
    ("analytics", "expected_time_balanced"),
    ("analytics", "expected_time_assignment"),
    ("analytics", "exact_expected_time_structure"),
    ("policies", "cyclic_layout"),
    ("policies", "shared_pair_layout"),
    ("policies", "replicated_nonoverlap_layout"),
    ("policies", "validate_policy"),
    ("cli", "run_sweep"),
    ("cli", "main"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    pass_index: int
    args: tuple
    result: object

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "pass": self.pass_index,
        }


def _modules(package) -> list:
    """The package and every loaded submodule of it."""
    prefix = package.__name__ + "."
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package.__name__ or name.startswith(prefix))
    ]


def _bindings(package, home: str, attr: str) -> list[tuple[object, str, object]]:
    """Every (module, name, function) in the package bound to home.attr."""
    target = getattr(sys.modules[f"{package.__name__}.{home}"], attr)
    return [
        (module, name, target)
        for module in _modules(package)
        for name, value in list(vars(module).items())
        if value is target
    ]


class Tracer:
    """Records spans while installed; not reentrant across installs."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[Span] = []
        self.pass_index = -1
        self._ids = itertools.count()
        self._local = threading.local()
        # Span of the run_sweep call on the main thread; pool-thread spans
        # that start with an empty stack are its children.
        self._sweep_span: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer._sweep_span
            sid = next(tracer._ids)
            stack.append(sid)
            is_sweep = span_name == "cli.run_sweep"
            if is_sweep:
                tracer._sweep_span = sid
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if is_sweep:
                    tracer._sweep_span = None
                tracer.spans.append(
                    Span(sid, span_name, start, end, parent, threading.get_ident(),
                         tracer.pass_index, args, result)
                )

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for home, attr in TRACED:
            bindings = _bindings(self.package, home, attr)
            wrapper = self._wrap(f"{home}.{attr}", bindings[0][2])
            for module, name, original in bindings:
                setattr(module, name, wrapper)
                self._saved.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def snapshot(package) -> dict[tuple[str, str], object]:
    """Every attribute of every loaded module of the package, by identity.

    Comparing a snapshot taken before tracing with one taken after shows
    whether uninstall put every binding back.
    """
    return {
        (module.__name__, name): value for module in _modules(package) for name, value in vars(module).items()
    }


def changed_attributes(before: dict, after: dict) -> list[str]:
    """Attributes whose binding differs between two snapshots."""
    keys = set(before) | set(after)
    return sorted(
        f"{mod}.{name}" for mod, name in keys if before.get((mod, name)) is not after.get((mod, name))
    )


class PointClock:
    """Start and end times of each ``cli.monte_carlo`` call while installed."""

    def __init__(self, cli_module) -> None:
        self.cli = cli_module
        self.times: list[tuple[float, float]] = []
        self._original = None

    def __enter__(self) -> "PointClock":
        original = self._original = self.cli.monte_carlo
        times = self.times

        def timed(cfg):
            start = perf_counter()
            try:
                return original(cfg)
            finally:
                times.append((start, perf_counter()))

        self.cli.monte_carlo = timed
        return self

    def __exit__(self, *exc) -> None:
        self.cli.monte_carlo = self._original
