"""In-memory span recording around the program's public functions.

The benchmark never edits ``src/``: :class:`Patches` replaces public
functions and methods of :mod:`repro` with recording wrappers, in every
loaded ``repro`` module that holds a reference to them, and
:meth:`Patches.uninstall` puts the originals back. A span is ``(name, start,
end, parent, on_main_thread)`` with :func:`time.perf_counter` times, a
monotonic clock shared by every process on the host, so client and
server spans can be laid side by side. Spans stay in memory until the
process writes them out (:meth:`Recorder.dump`).

A call into a layer that is already open on the same thread (an
``io`` converter calling another converter, ``simulate_transient``
called by ``simulate_transient_batch``) is not recorded again, so
``.calls`` counts entries into a layer and ``.ms`` its busy time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable

#: (qualified owner, attribute, layer) for the load process of
#: ``design-sweep``: the experiment layer and the kernels under it.
KERNEL_TARGETS = (
    ("repro.engine.batch", "fn_batch", "engine.fn_batch"),
    ("repro.device.transient", "simulate_transient", "device.transient"),
    ("repro.device.transient", "simulate_transient_batch", "device.transient"),
    ("repro.device.retention:RetentionModel", "simulate", "device.retention"),
    (
        "repro.tunneling.tsu_esaki:TsuEsakiModel",
        "current_density_batch",
        "tunneling.tsu_esaki",
    ),
    (
        "repro.electrostatics.band_diagram",
        "build_band_diagram",
        "electrostatics.band_diagram",
    ),
    ("repro.memory.ispp", "program_page_batch", "memory.program_page"),
    ("repro.reliability.endurance:EnduranceModel", "simulate", "reliability.endurance"),
)

#: Layers wrapped inside the server process (``serve_traced.py``).
SERVER_TARGETS = (
    ("repro.api.executor", "run_plan_parallel", "executor.run_plan_parallel"),
    ("repro.service.jobs", "compute_scenario_results", "jobs.compute"),
    ("repro.service.store:ResultStore", "put", "store.put"),
    ("repro.service.store:ResultStore", "get_record", "store.get_record"),
    ("repro.service.store:ResultStore", "__contains__", "store.contains"),
    ("repro.api.hashing", "scenario_hash", "hashing.scenario_hash"),
    ("repro.api.hashing", "plan_hash", "hashing.plan_hash"),
    ("repro.service.journal:JobJournal", "append", "journal.append"),
    ("repro.service.journal:JobJournal", "compact", "journal.compact"),
    ("repro.service.journal:JobJournal", "acquire_lease", "journal.lease"),
    ("repro.service.journal:JobJournal", "renew_lease", "journal.lease"),
)

#: Client-side layers of the service workloads' load process.
CLIENT_TARGETS = (
    ("repro.service.client:SimulationServiceClient", "submit", "client.requests"),
    ("repro.service.client:SimulationServiceClient", "job", "client.requests"),
    ("repro.service.client:SimulationServiceClient", "result", "client.requests"),
)


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: "list[tuple[str, float, float, int, bool]]" = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def _stack(self) -> "list[tuple[str, int]]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs) -> Any:
        """Run ``fn`` inside a span named ``name`` (outermost entry only)."""
        stack = self._stack()
        if any(open_name == name for open_name, _ in stack):
            return fn(*args, **kwargs)
        parent = stack[-1][1] if stack else -1
        with self._lock:  # the server records from two threads
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, False))
        stack.append((name, index))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            on_main = threading.get_ident() == self._main
            self.spans[index] = (name, start, end, parent, on_main)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (a wait, not a call)."""
        on_main = threading.get_ident() == self._main
        self.spans.append((name, start, end, -1, on_main))

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON (at process exit)."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def _resolve(target: str):
    """``"module"`` or ``"module:Class"`` to the object holding the attribute."""
    module_name, _, class_name = target.partition(":")
    owner = sys.modules.get(module_name) or __import__(
        module_name, fromlist=["_"]
    )
    return getattr(owner, class_name) if class_name else owner


class Patches:
    """Wrappers installed over ``repro``'s public functions, reversibly."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: "list[tuple[Any, str, Any]]" = []

    def swap(self, holder: Any, attr: str, value: Any) -> None:
        """Set ``holder.attr`` to ``value``, remembering the original."""
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def wrap(
        self,
        target: str,
        attr: str,
        name: "str | Callable[..., str]",
        after: "Callable[[Any], None] | None" = None,
    ) -> None:
        """Wrap ``target.attr``, and every module global bound to it.

        ``name`` may be a function of the call's arguments (one layer
        name per experiment id); ``after`` sees each return value.
        """
        holder = _resolve(target)
        original = getattr(holder, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            layer = name(*args, **kwargs) if callable(name) else name
            result = recorder.call(layer, original, args, kwargs)
            if after is not None:
                after(result)
            return result

        self.swap(holder, attr, wrapper)
        if isinstance(holder, type):
            return
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not holder:
                if getattr(module, attr, None) is original:
                    self.swap(module, attr, wrapper)

    def wrap_io(self) -> None:
        """Every ``repro.io`` converter: ``*_to_dict`` / ``*_from_dict``."""
        import repro.io

        for attr in sorted(vars(repro.io)):
            if attr.endswith("_to_dict"):
                self.wrap("repro.io", attr, "io.encode")
            elif attr.endswith("_from_dict"):
                self.wrap("repro.io", attr, "io.decode")

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)


def install_kernels(patches: Patches) -> None:
    """Experiment and kernel layers of an in-process plan run."""
    from repro.experiments.registry import available_experiments, resolve_experiment

    for experiment_id in available_experiments():
        resolve_experiment(experiment_id)  # import every experiment module
    patches.wrap(
        "repro.api.plan",
        "run_scenario",
        lambda session, scenario: f"experiments.{scenario.experiment_id}",
    )
    for target, attr, layer in KERNEL_TARGETS:
        patches.wrap(target, attr, layer)


def install_server(patches: Patches) -> None:
    """Service layers: executor, jobs, store, hashing, journal, io."""
    import repro.service.cli  # noqa: F401  (imports every service module)

    recorder = patches.recorder
    last_submit: "list[float | None]" = [None]

    def count_shards(result) -> None:
        recorder.counts["executor.shards"] += result.worker_count

    def compute_name(*_args, **_kwargs) -> str:
        # One closed-loop client: the job computing now is the last one
        # submitted, so its queue wait ends here.
        submitted, last_submit[0] = last_submit[0], None
        if submitted is not None:
            recorder.add_span("jobs.queue_wait", submitted, time.perf_counter())
        return "jobs.compute"

    for target, attr, layer in SERVER_TARGETS:
        if layer == "executor.run_plan_parallel":
            patches.wrap(target, attr, layer, after=count_shards)
        elif layer == "jobs.compute":
            patches.wrap(target, attr, compute_name)
        else:
            patches.wrap(target, attr, layer)
    manager = _resolve("repro.service.jobs:JobManager")
    submit = manager.submit

    @functools.wraps(submit)
    def stamped_submit(*args, **kwargs):
        last_submit[0] = time.perf_counter()
        return submit(*args, **kwargs)

    patches.swap(manager, "submit", stamped_submit)
    patches.wrap_io()


def install_client(patches: Patches) -> None:
    """Client requests and client-side io converters."""
    import repro.service.client  # noqa: F401

    for target, attr, layer in CLIENT_TARGETS:
        patches.wrap(target, attr, layer)
    patches.wrap_io()


class CountingSleep:
    """The ``sleep=`` handed to the traced client: counts its poll sleeps."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def __call__(self, seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        self.recorder.add_span("client.sleep", start, time.perf_counter())
