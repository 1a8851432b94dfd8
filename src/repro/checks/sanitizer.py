"""Runtime determinism sanitizer: cross-validates the flow rules.

Static analysis (CDR009..CDR011) proves properties of *paths it can
see*; this module checks the same contracts against what actually
happens at runtime, by instrumenting the repo's own smoke benches:

- :class:`TrackedGenerator` — a ``numpy.random.Generator`` subclass
  that records every draw (count, thread, calling module) and its
  derivation lineage. :func:`patch_rng` swaps it into ``repro.rng``'s
  factory functions — and into every already-imported ``repro.*``
  module that bound them via ``from ..rng import spawn`` — so every
  generator the benches create is tracked without touching bench code.
  Hazards mirror CDR009: a parent that consumed draws before being
  spawned/forked, and a generator drawn from more than one thread.

- :func:`patch_lock_tracing` — wraps ``__setattr__`` on every class
  whose lock discipline the static pass inferred (see
  :func:`repro.checks.flow.infer_lock_discipline`), classifying each
  write to a disciplined attribute as guarded or unguarded using the
  lock's actual held state (``RLock._is_owned``). Static-clean must
  imply runtime-clean: an unguarded runtime write to an attribute the
  static pass declared fully guarded is a disagreement.

- :func:`run_sanitizer` — runs the static sweep and the serve / chaos
  / shard smoke benches under both instrumentations and emits an
  agreement report. CI fails on any disagreement, so the static
  verdicts can never silently drift away from runtime behavior.

The instrumentation is stream-preserving: ``TrackedGenerator`` wraps
the *same* ``BitGenerator`` instance the untracked generator would
own, so every bench produces bit-identical output with the sanitizer
on or off (the smoke benches assert their own determinism claims
internally, which would fail otherwise).
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import sys
import threading
from typing import Any, Callable, Iterator, Optional

import numpy as np

from .engine import LintConfig, iter_python_files, module_name_for
from .flow import DRAW_METHODS, infer_lock_discipline, ImportResolver

__all__ = [
    "TrackedGenerator",
    "SanitizerRegistry",
    "patch_rng",
    "patch_lock_tracing",
    "run_sanitizer",
    "render_report",
]


# ----------------------------------------------------------------------
# draw/lineage registry


class SanitizerRegistry:
    """Accumulates runtime observations from both instrumentations."""

    def __init__(self) -> None:
        self.generators_created = 0
        self.draws = 0
        #: (parent draw count, caller module) per hazardous spawn/fork.
        self.draw_before_spawn: list[dict[str, Any]] = []
        #: generators observed drawing from more than one thread.
        self.cross_thread: list[dict[str, Any]] = []
        #: "Class.attr" -> {"init": n, "guarded": n, "unguarded": n}.
        self.lock_writes: dict[str, dict[str, int]] = {}
        #: call sites of unguarded writes, for the report.
        self.unguarded_sites: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    # -- generator side -------------------------------------------------
    def note_created(self) -> None:
        with self._lock:
            self.generators_created += 1

    def note_draw(self, gen: "TrackedGenerator", method: str) -> None:
        ident = threading.get_ident()
        with self._lock:
            self.draws += 1
            gen._cedar_draws += 1
            gen._cedar_threads.add(ident)
            if len(gen._cedar_threads) > 1 and not gen._cedar_crossed:
                gen._cedar_crossed = True
                self.cross_thread.append(
                    {
                        "label": gen._cedar_label,
                        "method": method,
                        "threads": len(gen._cedar_threads),
                        "caller": _caller_module(),
                    }
                )

    def note_derive(self, parent: np.random.Generator, how: str) -> None:
        """A spawn/fork consumed ``parent``'s seed-sequence lineage."""
        if not isinstance(parent, TrackedGenerator):
            return
        if parent._cedar_draws > 0:
            with self._lock:
                self.draw_before_spawn.append(
                    {
                        "label": parent._cedar_label,
                        "how": how,
                        "draws_before": parent._cedar_draws,
                        "caller": _caller_module(),
                    }
                )

    # -- lock side ------------------------------------------------------
    def note_lock_write(
        self, qualname: str, attr: str, kind: str, caller: str
    ) -> None:
        key = f"{qualname}.{attr}"
        with self._lock:
            counts = self.lock_writes.setdefault(
                key, {"init": 0, "guarded": 0, "unguarded": 0}
            )
            counts[kind] += 1
            if kind == "unguarded":
                self.unguarded_sites.append(
                    {"attr": key, "caller": caller}
                )


def _caller_module(depth: int = 3) -> str:
    """Module name of the bench code that triggered an observation.

    Walks out of this module's own frames so the report points at the
    consumer (``repro.serve.loadgen``), not the instrumentation.
    """
    frame = sys._getframe(1)
    while frame is not None:
        name = frame.f_globals.get("__name__", "?")
        if name != __name__:
            return str(name)
        frame = frame.f_back
    return "?"


# ----------------------------------------------------------------------
# TrackedGenerator


class TrackedGenerator(np.random.Generator):
    """``numpy.random.Generator`` that reports draws to a registry.

    Wraps the *same* ``BitGenerator`` instance, so the stream is
    bit-identical to the untracked generator it replaces.
    """

    @classmethod
    def adopt(
        cls,
        gen: np.random.Generator,
        registry: SanitizerRegistry,
        label: str,
    ) -> "TrackedGenerator":
        if isinstance(gen, TrackedGenerator):
            return gen
        tracked = cls(gen.bit_generator)
        tracked._cedar_registry = registry
        tracked._cedar_label = label
        tracked._cedar_draws = 0
        tracked._cedar_threads = set()
        tracked._cedar_crossed = False
        registry.note_created()
        return tracked


def _make_draw_wrapper(name: str) -> Callable[..., Any]:
    base = getattr(np.random.Generator, name)

    def method(self: TrackedGenerator, *args: Any, **kwargs: Any) -> Any:
        self._cedar_registry.note_draw(self, name)
        return base(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name in sorted(DRAW_METHODS):
    if hasattr(np.random.Generator, _name):
        setattr(TrackedGenerator, _name, _make_draw_wrapper(_name))
del _name


# ----------------------------------------------------------------------
# rng patching


class patch_rng:
    """Context manager: route ``repro.rng`` factories through tracking.

    Rebinds ``resolve_rng`` / ``spawn`` / ``fork`` / ``stream`` both on
    :mod:`repro.rng` and in every imported ``repro.*`` module whose
    globals hold the original function objects (``from ..rng import
    spawn`` copies the binding, so patching the source module alone
    would miss most call sites). Restores everything on exit.
    """

    _NAMES = ("resolve_rng", "spawn", "fork", "stream")

    def __init__(self, registry: SanitizerRegistry):
        self.registry = registry
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "patch_rng":
        from repro import rng as rng_module

        registry = self.registry
        originals = {
            name: getattr(rng_module, name) for name in self._NAMES
        }

        def resolve_rng(seed: Any = None) -> np.random.Generator:
            gen = originals["resolve_rng"](seed)
            return TrackedGenerator.adopt(
                gen, registry, label=f"resolve_rng({_seed_label(seed)})"
            )

        def spawn(rng: np.random.Generator, n: int) -> list[Any]:
            registry.note_derive(rng, how="spawn")
            children = originals["spawn"](rng, n)
            return [
                TrackedGenerator.adopt(
                    child, registry, label=f"spawn[{i}]"
                )
                for i, child in enumerate(children)
            ]

        def fork(seed: Any = None, key: Optional[str] = None) -> Any:
            registry.note_derive(seed, how="fork")
            return TrackedGenerator.adopt(
                originals["fork"](seed, key),
                registry,
                label=f"fork({key!r})",
            )

        def stream(seed: Any = None) -> Iterator[Any]:
            for i, child in enumerate(originals["stream"](seed)):
                yield TrackedGenerator.adopt(
                    child, registry, label=f"stream[{i}]"
                )

        replacements = {
            "resolve_rng": resolve_rng,
            "spawn": spawn,
            "fork": fork,
            "stream": stream,
        }
        for module_name in sorted(sys.modules):
            if module_name != "repro" and not module_name.startswith(
                "repro."
            ):
                continue
            module = sys.modules[module_name]
            for name in self._NAMES:
                if getattr(module, name, None) is originals[name]:
                    self._saved.append((module, name, originals[name]))
                    setattr(module, name, replacements[name])
        return self

    def __exit__(self, *exc: Any) -> None:
        for module, name, original in self._saved:
            setattr(module, name, original)
        self._saved.clear()


def _seed_label(seed: Any) -> str:
    if seed is None or isinstance(seed, int):
        return repr(seed)
    return type(seed).__name__


# ----------------------------------------------------------------------
# lock tracing


class patch_lock_tracing:
    """Context manager: trace writes to statically-disciplined attrs.

    For each ``(class, attr, lock)`` triple inferred by the static
    pass, installs a ``__setattr__`` wrapper on the class that records
    whether the inferred lock was actually held at every write. Reads
    are not traced (``__getattribute__`` interception would distort
    the benches); an unguarded *write* is the observable half of every
    data race the static rule can flag.
    """

    def __init__(
        self,
        registry: SanitizerRegistry,
        disciplines: dict[str, dict[str, str]],
    ):
        #: ``module.Class`` -> {attr: lock_attr}
        self.registry = registry
        self.disciplines = disciplines
        self._patched: list[type] = []

    def __enter__(self) -> "patch_lock_tracing":
        for qualname, attrs in sorted(self.disciplines.items()):
            module_name, _, cls_name = qualname.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                cls = getattr(module, cls_name)
            except (ImportError, AttributeError):
                continue
            if "__setattr__" in cls.__dict__:
                continue  # would shadow a custom protocol; skip
            cls.__setattr__ = self._make_setattr(qualname, attrs)
            self._patched.append(cls)
        return self

    def __exit__(self, *exc: Any) -> None:
        for cls in self._patched:
            del cls.__setattr__
        self._patched.clear()

    def _make_setattr(
        self, qualname: str, attrs: dict[str, str]
    ) -> Callable[[Any, str, Any], None]:
        registry = self.registry

        def traced(obj: Any, name: str, value: Any) -> None:
            if name in attrs:
                lock = obj.__dict__.get(attrs[name])
                if lock is None:
                    kind = "init"  # construction, before the lock exists
                elif getattr(lock, "_is_owned", None) is None:
                    kind = "guarded"  # non-reentrant lock: not traceable
                elif lock._is_owned():
                    kind = "guarded"
                else:
                    kind = "unguarded"
                registry.note_lock_write(
                    qualname, name, kind, _caller_module()
                )
            object.__setattr__(obj, name, value)

        return traced


# ----------------------------------------------------------------------
# static side + agreement


def _static_verdicts(paths: list[str]) -> dict[str, Any]:
    """CDR009..CDR011 findings and inferred disciplines over ``paths``."""
    from .engine import lint_paths

    config = LintConfig(select=frozenset({"CDR009", "CDR010", "CDR011"}))
    findings = lint_paths(paths, config=config)
    by_rule: dict[str, int] = {"CDR009": 0, "CDR010": 0, "CDR011": 0}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1

    disciplines: dict[str, dict[str, Any]] = {}
    statically_violated: set[str] = set()
    for path in iter_python_files(paths, LintConfig()):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
        except (OSError, SyntaxError):
            continue
        module = module_name_for(path)
        resolver = ImportResolver(tree, module)
        for discipline in infer_lock_discipline(tree, module, resolver):
            if not discipline.guarded_attrs:
                continue
            disciplines[discipline.qualname] = {
                attr: {
                    "lock": lock,
                    "guarded": guarded,
                    "total": total,
                }
                for attr, (lock, guarded, total) in sorted(
                    discipline.guarded_attrs.items()
                )
            }
            for _, attr, _, _, _, _ in discipline.violations:
                statically_violated.add(f"{discipline.qualname}.{attr}")
    return {
        "findings": by_rule,
        "disciplines": disciplines,
        "statically_violated": sorted(statically_violated),
    }


def run_sanitizer(
    paths: Optional[list[str]] = None,
    benches: Optional[dict[str, Callable[[], Any]]] = None,
) -> dict[str, Any]:
    """Static sweep + instrumented smoke benches -> agreement report.

    ``benches`` overrides the driven workloads (tests use tiny ones);
    the default is the three CI smoke benches, which exercise the
    serve, chaos, and shard paths end to end.
    """
    paths = paths or ["src"]
    static = _static_verdicts(paths)
    registry = SanitizerRegistry()
    lock_plan = {
        qualname: {
            attr: info["lock"] for attr, info in attrs.items()
        }
        for qualname, attrs in static["disciplines"].items()
    }
    if benches is None:
        benches = _default_benches()
    bench_status: dict[str, str] = {}
    with patch_rng(registry), patch_lock_tracing(registry, lock_plan):
        for name, bench in benches.items():
            bench()
            bench_status[name] = "ok"

    disagreements: list[dict[str, str]] = []
    if static["findings"]["CDR009"] == 0:
        for event in registry.draw_before_spawn:
            disagreements.append(
                {
                    "kind": "seed_lineage",
                    "detail": (
                        f"static CDR009 is clean but {event['label']} "
                        f"was {event['how']}ed after "
                        f"{event['draws_before']} draw(s) "
                        f"(caller {event['caller']})"
                    ),
                }
            )
        for event in registry.cross_thread:
            disagreements.append(
                {
                    "kind": "seed_lineage",
                    "detail": (
                        f"static CDR009 is clean but {event['label']} "
                        f"drew from {event['threads']} threads "
                        f"(caller {event['caller']})"
                    ),
                }
            )
    violated = set(static["statically_violated"])
    for key, counts in sorted(registry.lock_writes.items()):
        if counts["unguarded"] and key not in violated:
            disagreements.append(
                {
                    "kind": "lock_discipline",
                    "detail": (
                        f"static CDR010 declares {key} fully guarded "
                        f"but {counts['unguarded']} unguarded runtime "
                        f"write(s) were observed"
                    ),
                }
            )
    return {
        "paths": list(paths),
        "static": static,
        "runtime": {
            "benches": bench_status,
            "generators_created": registry.generators_created,
            "draws": registry.draws,
            "draw_before_spawn": registry.draw_before_spawn,
            "cross_thread_draws": registry.cross_thread,
            "lock_writes": registry.lock_writes,
            "unguarded_sites": registry.unguarded_sites,
        },
        "disagreements": disagreements,
        "agreed": not disagreements,
    }


def _default_benches() -> dict[str, Callable[[], Any]]:
    from repro.benches import BENCHES

    return {
        label: functools.partial(BENCHES[name].run, **BENCHES[name].smoke)
        for label, name in (
            ("serve", "serve"),
            ("chaos", "chaos"),
            ("shard", "shards"),
        )
    }


def render_report(report: dict[str, Any]) -> str:
    """Human-readable summary (the JSON artifact holds the detail)."""
    lines = [
        f"sanitizer: {'agree' if report['agreed'] else 'DISAGREE'} "
        f"({report['runtime']['generators_created']} generator(s), "
        f"{report['runtime']['draws']} draw(s), "
        f"{len(report['runtime']['lock_writes'])} traced attr(s))",
    ]
    for key, counts in sorted(report["runtime"]["lock_writes"].items()):
        lines.append(
            f"  {key}: guarded={counts['guarded']} "
            f"unguarded={counts['unguarded']} init={counts['init']}"
        )
    for item in report["disagreements"]:
        lines.append(f"  DISAGREE [{item['kind']}] {item['detail']}")
    return "\n".join(lines)


def write_report(report: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
