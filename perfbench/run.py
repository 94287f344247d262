"""End-to-end benchmark of the simulator: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 20 --trace 0

Workloads:

* ``design-sweep`` -- serial seeded plans, each on a fresh
  :class:`~repro.api.SimulationSession`, plus one known-fault call per
  plan;
* ``service-cold`` -- the same kind of client loop against
  ``repro-service serve`` with every scenario new to the store;
* ``service-warm`` -- resubmissions of plans whose results were all
  stored during set-up.

Load comes from this one process, a closed-loop caller with one
connection at a time. A run attempts whole plans until ``--seconds``
have passed and at least :data:`MIN_PLANS` plans ran, checks every result
(see ``checks.py``), prints a run report, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` plans alternate between untraced and traced, and the
metrics are the per-layer ones taken from the traced plans, plus the
tracing overhead (traced minus untraced).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("design-sweep", "service-cold", "service-warm")
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Plans a run attempts at least: ten beyond the 90th percentile.
MIN_PLANS = 100
#: A run stops taking new plans after this long, whatever its plan count.
HARD_STOP_S = 100.0

#: Experiment ids the plans use: one ``experiments.<id>`` layer each.
EXPERIMENT_IDS = (
    "fig2", "fig4", "fig5", "erase-transient", "fig6", "fig7", "fig8", "fig9",
    "abl-wkb", "abl-temp", "rel-silc", "device-summary",
    "mem-array", "mem-mlc", "mem-ftl", "rel-endurance",
)
#: Layers reported as ``<layer>.calls`` [count] and ``<layer>.ms`` [ms].
TIMED_LAYERS = tuple(f"experiments.{i}" for i in EXPERIMENT_IDS) + (
    "engine.fn_batch",
    "device.transient",
    "device.retention",
    "tunneling.tsu_esaki",
    "electrostatics.band_diagram",
    "memory.program_page",
    "reliability.endurance",
    "executor.run_plan_parallel",
    "jobs.compute",
    "jobs.queue_wait",
    "store.put",
    "store.get_record",
    "store.contains",
    "hashing.scenario_hash",
    "hashing.plan_hash",
    "journal.append",
    "journal.compact",
    "journal.lease",
    "io.encode",
    "io.decode",
    "client.requests",
)
#: Single-valued per-layer metrics and their units.
OTHER_LAYER_METRICS = (
    ("engine.cache.hits", "count"),
    ("engine.cache.misses", "count"),
    ("engine.cache.hit_ratio", "ratio"),
    ("executor.shards", "count"),
    ("jobs.store_hit_ratio", "ratio"),
    ("client.sleeps", "count"),
    ("client.sleep.ms", "ms"),
    ("http.residual.ms", "ms"),
    ("trace.overhead.scenarios_per_s", "1/s"),
    ("trace.overhead.plan_p50_ms", "ms"),
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "plan_p50_ms": "ms",
    "plan_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_names() -> "list[tuple[str, str]]":
    """Every per-layer metric the traced run prints, with its unit."""
    names = []
    for layer in TIMED_LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.ms", "ms")]
    return names + list(OTHER_LAYER_METRICS)


# ----- run report ----------------------------------------------------------


def host_facts() -> str:
    """nproc, load, interpreter and numeric-library builds."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"host: nproc={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
        f"loadavg={load} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas_build}"
    )


def host_speed_probe() -> str:
    """A fixed workload independent of ``repro``, timed as a reference."""
    import numpy

    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    python_ms = (time.perf_counter() - start) * 1e3
    matrix = numpy.random.default_rng(0).random((256, 256))
    start = time.perf_counter()
    for _ in range(20):
        matrix = matrix @ matrix
        matrix /= numpy.abs(matrix).max()
    numpy_ms = (time.perf_counter() - start) * 1e3
    return f"probe: python_loop_ms={python_ms:.1f} numpy_matmul_ms={numpy_ms:.1f}"


# ----- measurement helpers ------------------------------------------------


class Tally:
    """Latencies and operation counts of one run, split traced/untraced."""

    def __init__(self) -> None:
        self.latency_s = {False: [], True: []}
        self.delivered = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self.known_faults = 0

    def plan(self, traced: bool, latency_s: float) -> None:
        """One finished plan's time."""
        self.latency_s[traced].append(latency_s)

    def fail(self, reason: str, count: int = 1) -> None:
        """``count`` operations failed a check (a real fault)."""
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(reason)

    def timing(self, traced: bool) -> "dict[str, float]":
        """Throughput and latency percentiles of one half of the run."""
        latencies = self.latency_s[traced]
        ms = [x * 1e3 for x in latencies]
        return {
            "scenarios_per_s": self.delivered[traced] / sum(latencies),
            "plan_p50_ms": statistics.median(ms),
            "plan_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        }


def keep_going(args, start: float, plans: int) -> bool:
    """Whole rounds until both the time and the plan count are reached."""
    from plans import ROUNDS

    elapsed = time.perf_counter() - start
    if elapsed > HARD_STOP_S:
        return False
    whole_round = plans % ROUNDS[args.workload] == 0
    return elapsed < args.seconds or plans < MIN_PLANS or not whole_round


def import_seconds() -> float:
    """Import ``repro`` and open a first session in a fresh interpreter."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        "from repro.api import SimulationSession\n"
        "from repro.experiments.registry import available_experiments, resolve_experiment\n"
        "for e in available_experiments(): resolve_experiment(e)\n"
        "SimulationSession(seed=0)\n"
        "print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def check_results(tally: Tally, traced: bool, plan, results, reference=None) -> None:
    """Check one plan's results; each passing one counts as delivered.

    ``reference`` holds the :func:`checks.fingerprint` of every result
    of the same plan run serially in-process; served results must
    match it bit for bit.
    """
    from checks import fingerprint, scenario_error

    for position, (scenario, outcome) in enumerate(zip(plan.expanded(), results)):
        error = scenario_error(scenario, outcome.result)
        if error is None and reference is not None:
            if fingerprint(outcome.result) != reference[position]:
                error = "differs from the serial in-process run"
        if error:
            tally.fail(f"{plan.name} {scenario.name}: {error}")
        else:
            tally.delivered[traced] += 1


def serial_fingerprints(seed: int, plan) -> list:
    """Fingerprints of ``plan`` run in-process on a session seeded like the server."""
    from checks import fingerprint
    from repro.api import SimulationSession

    outcome = SimulationSession(seed=seed).run_plan(plan)
    return [fingerprint(r.result) for r in outcome.scenario_results]


# ----- workloads ----------------------------------------------------------


def design_sweep(args, tracer) -> "tuple[Tally, dict]":
    """Serial seeded plans on fresh sessions, in this process."""
    from plans import design_plan, known_fault_scenario
    from repro.api import SimulationSession

    setup_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    tally = Tally()
    cache = {"hits": 0, "misses": 0}
    start = time.perf_counter()
    index = 0
    while keep_going(args, start, index):
        plan = design_plan(args.seed, index)
        index += 1
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.spans.install_kernels(tracer.patches)
        began = time.perf_counter()
        session = SimulationSession(seed=args.seed)
        outcome = session.run_plan(plan)
        latency = time.perf_counter() - began
        if traced:
            tracer.patches.uninstall()
            cache["hits"] += outcome.cache_stats.hits
            cache["misses"] += outcome.cache_stats.misses
        tally.attempted += len(outcome.scenario_results) + 1
        try:
            session.run_scenario(known_fault_scenario(index - 1))
        except Exception:  # the named fault: counted, not a wrong result
            tally.failed += 1
            tally.known_faults += 1
        tally.plan(traced, latency)
        check_results(tally, traced, plan, outcome.scenario_results)
    extra = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache": cache,
    }
    return tally, extra


def service_loop(args, workdir, tracer, store, plan_at, check) -> "tuple[Tally, dict]":
    """Closed loop of ``client.run_plan`` against the measured server.

    ``plan_at(index)`` gives the plan; ``check(tally, traced, plan,
    results, record)`` checks what came back. When tracing, odd plans
    go to a traced twin server started on a copy of the store.
    """
    from repro.service.client import ServiceError, SimulationServiceClient
    from server import Server

    traced_server = None
    if tracer is not None:
        twin = workdir / "store-traced"
        if store.exists():
            shutil.copytree(store, twin)
        traced_server = Server(SRC, twin, args.seed, spans_path=workdir / "spans.json")
    launches = []
    try:
        for attempt in range(SETUP_REPEATS):
            server = Server(SRC, store, args.seed)
            launches.append(server.startup_s)
            if attempt < SETUP_REPEATS - 1:
                server.stop()
    except BaseException:
        if traced_server is not None:
            traced_server.stop()
        raise
    clients = {False: SimulationServiceClient(server.url)}
    if traced_server is not None:
        clients[True] = SimulationServiceClient(
            traced_server.url, sleep=tracer.spans.CountingSleep(tracer.recorder)
        )
    tally = Tally()
    store_hit_ratios = []
    start = time.perf_counter()
    index = 0
    try:
        while keep_going(args, start, index):
            plan = plan_at(index)
            index += 1
            traced = tracer is not None and index % 2 == 0
            size = len(plan.expanded())
            tally.attempted += size
            if traced:
                tracer.spans.install_client(tracer.patches)
            began = time.perf_counter()
            try:
                results, record = clients[traced].run_plan(plan)
            except ServiceError as exc:
                tally.fail(f"{plan.name}: {exc}", size)
                continue
            finally:
                latency = time.perf_counter() - began
                if traced:
                    tracer.patches.uninstall()
            tally.plan(traced, latency)
            if traced:
                store_hit_ratios.append(record.store_hits / size)
            check(tally, traced, plan, results, record)
        peak = server.peak_rss_mb()
    finally:
        server.stop()
        if traced_server is not None:
            traced_server.stop()
            tracer.load_server_spans(traced_server.spans_path)
    extra = {
        "setup_s": statistics.median(launches),
        "peak_rss_mb": peak,
        "store_hit_ratio": statistics.fmean(store_hit_ratios) if store_hit_ratios else 0.0,
    }
    return tally, extra


def counts_error(record, computed: int, store_hits: int) -> "str | None":
    """A job whose result sources are not what the workload implies."""
    if record.computed == computed and record.store_hits == store_hits:
        return None
    return (
        f"computed={record.computed} store_hits={record.store_hits}, "
        f"expected {computed} and {store_hits}"
    )


def service_cold(args, workdir, tracer) -> "tuple[Tally, dict]":
    """Every scenario new: pool start-up, compute, store writes."""
    from plans import ColdPlans

    served = []

    def check(tally, traced, plan, results, record):
        error = counts_error(record, len(results), 0)
        if error:
            tally.fail(f"{plan.name}: {error}", len(results))
        else:
            served.append((traced, plan, results))

    tally, extra = service_loop(
        args, workdir, tracer, workdir / "store", ColdPlans(args.seed).plan, check
    )
    # Outside the timed window: compare with the same plans run serially.
    for traced, plan, results in served:
        reference = serial_fingerprints(args.seed, plan)
        check_results(tally, traced, plan, results, reference)
    return tally, extra


def service_warm(args, workdir, tracer) -> "tuple[Tally, dict]":
    """Every result already stored: hashing, store reads, codec, HTTP."""
    from plans import warm_plan, warm_pool
    from repro.service.client import SimulationServiceClient
    from server import Server

    pool = warm_pool(args.seed)
    store = workdir / "store"
    filler = Server(SRC, store, args.seed)
    try:
        began = time.perf_counter()
        client = SimulationServiceClient(filler.url)
        for plan in pool:
            client.run_plan(plan)
        fill_s = time.perf_counter() - began
    finally:
        filler.stop()
    references = {plan.name: serial_fingerprints(args.seed, plan) for plan in pool}

    def check(tally, traced, plan, results, record):
        error = counts_error(record, 0, len(results))
        if error:
            tally.fail(f"{plan.name}: {error}", len(results))
        else:
            check_results(tally, traced, plan, results, references[plan.name])

    tally, extra = service_loop(
        args, workdir, tracer, store, lambda index: warm_plan(args.seed, pool, index), check
    )
    extra["setup_s"] += fill_s
    return tally, extra


# ----- tracing --------------------------------------------------------------


class Tracer:
    """Span wrappers toggled per traced plan, and the per-layer summary."""

    def __init__(self) -> None:
        import spans

        self.spans = spans
        self.recorder = spans.Recorder()
        self.patches = spans.Patches(self.recorder)
        self.server_spans: "list" = []

    def load_server_spans(self, path: Path) -> None:
        """Read what the traced server wrote at exit."""
        with open(path) as handle:
            data = json.load(handle)
        self.server_spans = [tuple(s) for s in data["spans"]]
        self.recorder.counts.update(data["counts"])

    def metrics(self, tally: Tally, extra: dict) -> "dict[str, float]":
        """Per-layer metrics per traced plan, plus the tracing overhead."""
        plans = len(tally.latency_s[True])
        every = self.recorder.spans + self.server_spans
        calls: "dict[str, int]" = {}
        busy: "dict[str, float]" = {}
        for name, start, end, _parent, _main in every:
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start) * 1e3
        values = {}
        for layer in TIMED_LAYERS:
            values[f"{layer}.calls"] = calls.get(layer, 0) / plans
            values[f"{layer}.ms"] = busy.get(layer, 0.0) / plans
        cache = extra.get("cache", {"hits": 0, "misses": 0})
        lookups = cache["hits"] + cache["misses"]
        values["engine.cache.hits"] = cache["hits"] / plans
        values["engine.cache.misses"] = cache["misses"] / plans
        values["engine.cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
        values["executor.shards"] = self.recorder.counts.get("executor.shards", 0) / plans
        values["jobs.store_hit_ratio"] = extra.get("store_hit_ratio", 0.0)
        values["client.sleeps"] = calls.get("client.sleep", 0) / plans
        values["client.sleep.ms"] = busy.get("client.sleep", 0.0) / plans
        values["http.residual.ms"] = self._residual_ms() / plans
        untraced, traced = tally.timing(False), tally.timing(True)
        values["trace.overhead.scenarios_per_s"] = (
            traced["scenarios_per_s"] - untraced["scenarios_per_s"]
        )
        values["trace.overhead.plan_p50_ms"] = traced["plan_p50_ms"] - untraced["plan_p50_ms"]
        return values

    def _residual_ms(self) -> float:
        """Client request time not covered by server event-loop spans."""
        requests = [(s, e) for n, s, e, _p, _m in self.recorder.spans if n == "client.requests"]
        served = sorted(
            (s, e)
            for n, s, e, parent, on_main in self.server_spans
            if parent == -1 and on_main and n != "jobs.queue_wait"
        )
        residual = 0.0
        for req_start, req_end in requests:
            covered = sum(
                max(0.0, min(e, req_end) - max(s, req_start)) for s, e in served
                if s < req_end and e > req_start
            )
            residual += (req_end - req_start) - covered
        return residual * 1e3


# ----- entry point ------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    """Command-line options."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one workload; print the report and the result line."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its servers (the ``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        print(f"seed: {args.seed}")
        print(host_facts())
        print(host_speed_probe())
        if args.workload == "design-sweep":
            tally, extra = design_sweep(args, tracer)
        elif args.workload == "service-cold":
            tally, extra = service_cold(args, workdir, tracer)
        else:
            tally, extra = service_warm(args, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    plans = sum(len(v) for v in tally.latency_s.values())
    print(
        f"workload {args.workload}: plans={plans} attempted={tally.attempted} "
        f"failed={tally.failed} (known fault: {tally.known_faults})"
    )
    for error in tally.errors:
        print(f"check failed: {error}")
    if args.trace:
        values = tracer.metrics(tally, extra)
        units = dict(per_layer_names())
    else:
        values = {**tally.timing(False), "setup_s": extra["setup_s"], "peak_rss_mb": extra["peak_rss_mb"]}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
