"""The observer table and the shadowing contract every observer shares.

Five observers can watch a :class:`~repro.noc.multinoc.MultiNocFabric`
— the phase profiler, the fault engine, the invariant checker,
telemetry and attribution — each through per-instance method shadows,
so a fabric without them runs plain class bytecode
(``docs/architecture.md``).  :class:`ShadowingObserver` owns the
bookkeeping; :data:`OBSERVERS` is the one place the attach order,
environment switches, CLI flags and artifact directories are written.
Classes are named by dotted path, so an unobserved fabric imports no
observer module.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.util import env

if TYPE_CHECKING:
    from repro.noc.multinoc import MultiNocFabric

__all__ = ["OBSERVERS", "ObserverRow", "ShadowingObserver", "attach_observers"]


class ShadowingObserver:
    """Per-instance method shadowing with a LIFO-checked detach."""

    def __init__(self, fabric: "MultiNocFabric") -> None:
        self.fabric = fabric
        self.attached = False
        # (object, attribute, had_instance_attr, saved_value, replacement)
        # records for detach; restored in reverse attach order.
        self._saved: list[tuple[Any, str, bool, Any, Any]] = []

    @classmethod
    def from_env(cls, fabric: "MultiNocFabric") -> Any:
        """Build the observer the ``REPRO_*`` environment describes."""
        return cls(fabric)

    def _shadow(self, obj: Any, name: str, replacement: Any) -> None:
        had = name in obj.__dict__
        self._saved.append(
            (obj, name, had, obj.__dict__.get(name), replacement)
        )
        setattr(obj, name, replacement)

    def detach(self) -> None:
        """Remove every shadow, restoring the pre-attach attributes.

        Raises ``RuntimeError``, changing nothing, while an observer
        attached later still wraps one of the shadowed attributes.
        """
        if not self.attached:
            return
        for obj, name, _had, _value, replacement in self._saved:
            if obj.__dict__.get(name) is not replacement:
                raise RuntimeError(
                    f"cannot detach {type(self).__name__}: "
                    f"{type(obj).__name__}.{name} is wrapped by an "
                    "observer attached after it; detach that one first"
                )
        for obj, name, had, value, _replacement in reversed(self._saved):
            if had:
                setattr(obj, name, value)
            else:
                delattr(obj, name)
        self._saved.clear()
        self.attached = False


def _resolve(path: str) -> Any:
    """The object a ``"module:name"`` path names (imports the module)."""
    module, _, name = path.partition(":")
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class ObserverRow:
    """One observer layer: where it lives and how it is switched on."""

    attr: str  # fabric attribute holding the attached instance or None
    flag: str  # experiments CLI flag --<flag> (and --<flag>-out)
    env: str  # environment switch, read with env.flag
    cls: str  # "module:Class" of the ShadowingObserver subclass
    validator: str | None = None  # "module:function" for SPEC values
    dir_env: str | None = None  # artifact-directory variable

    def load(self) -> Any:
        """The observer class (imports its module)."""
        return _resolve(self.cls)

    def validate(self, spec: str) -> None:
        """Raise ``ValueError`` when ``spec`` is not a valid value."""
        if self.validator is not None:
            _resolve(self.validator)(spec)

    def artifact_dir(self) -> str:
        """``dir_env``, else the ``DEFAULT_DIR`` of the class's module."""
        module = import_module(self.cls.partition(":")[0])
        return env.text(self.dir_env or "", module.DEFAULT_DIR)


#: Every observer layer, in attach order: perf first (it shadows only
#: ``report`` and samples the rest); faults inside the checker and
#: telemetry so they see post-fault truth; explain outermost so it can
#: merge its phase spans into the telemetry trace.
OBSERVERS: tuple[ObserverRow, ...] = (
    ObserverRow(
        "perf",
        "perf",
        "REPRO_PERF",
        "repro.perf.profiler:PhaseProfiler",
        dir_env="REPRO_PERF_DIR",
    ),
    ObserverRow(
        "faults",
        "faults",
        "REPRO_FAULTS",
        "repro.faults.engine:FaultEngine",
        validator="repro.faults.spec:parse_fault_spec",
    ),
    ObserverRow(
        "invariant_checker",
        "check",
        "REPRO_CHECK",
        "repro.analysis.invariants:InvariantChecker",
    ),
    ObserverRow(
        "telemetry",
        "telemetry",
        "REPRO_TELEMETRY",
        "repro.telemetry.hub:TelemetryHub",
        dir_env="REPRO_TELEMETRY_DIR",
    ),
    ObserverRow(
        "explain",
        "explain",
        "REPRO_EXPLAIN",
        "repro.explain.hub:ExplainHub",
        validator="repro.explain.hub:parse_explain_spec",
        dir_env="REPRO_EXPLAIN_DIR",
    ),
)


def attach_observers(fabric: "MultiNocFabric") -> None:
    """Attach every observer whose switch is on, in table order.

    Each attribute is assigned as soon as its observer attaches, since
    later observers read earlier ones (explain merges into telemetry).
    """
    for row in OBSERVERS:
        setattr(fabric, row.attr, None)
    for row in OBSERVERS:
        if env.flag(row.env):
            setattr(fabric, row.attr, row.load().from_env(fabric).attach())
