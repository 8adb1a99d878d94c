"""Typed run options: the one home of every run knob.

A :class:`~repro.config.ScenarioConfig` says which dataset a run
produces; a :class:`RunOptions` says how the run produces it, and no
run knob lives anywhere else.  Four small frozen dataclasses group the
knobs by concern:

* :class:`ExecutionOptions` — sharding/parallelism (workers, backend,
  shard size, adaptive plan, profile cache);
* :class:`ResilienceOptions` — fault plan, retry budget, failure policy;
* :class:`DurabilityOptions` — checkpoint directory, resume;
* :class:`ObservabilityOptions` — the metrics document, ``--metrics-out``.

A :class:`RunOptions` bundles the four and is what ``Study`` and
:class:`~repro.crawler.Crawler` accept (``options=RunOptions(...)``),
and what every shard task carries to its worker.  Every field that has
a command-line spelling declares it *in its own field metadata* (via
:func:`opt`), and :func:`add_option_arguments` /
:func:`options_from_namespace` derive the argparse argument groups and
the namespace→options conversion from that single table — the CLI and
the API cannot disagree, because there is only one declaration.

Every field has a concrete default, the value a run uses when the
option is not given.  No option can change a byte of the dataset (the
runtime determinism contract), so none is part of its identity.
Validation happens in each group's ``__post_init__`` and raises
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

from .errors import ConfigError
from .runtime.faults import FaultPlan

#: Backend names :class:`ExecutionOptions` accepts.  ``auto`` resolves
#: to ``serial`` for one worker and ``process`` otherwise.
EXECUTION_BACKENDS = ("auto", "serial", "process")


def opt(
    default=None,
    flag: Optional[str] = None,
    *,
    kind: str = "value",
    type=str,
    metavar: Optional[str] = None,
    choices: Optional[Tuple[str, ...]] = None,
    help: str = "",
):
    """A dataclass field carrying its own CLI spelling.

    Args:
        default: Field default, the value used when the option is not
            given.
        flag: Command-line flag, e.g. ``"--workers"``; omit for
            API-only fields.
        kind: ``"value"`` (flag takes an argument), ``"store_true"``
            (bare flag sets the field True), or ``"negate"`` (bare flag
            sets the field **False** — for ``--no-X`` spellings of
            default-on behaviour).
        type: Argument type for ``"value"`` flags.
        metavar: Argument placeholder in ``--help``.
        choices: Allowed values, enforced by argparse.
        help: ``--help`` text.
    """
    metadata = {}
    if flag is not None:
        metadata["cli"] = {
            "flag": flag,
            "kind": kind,
            "type": type,
            "metavar": metavar,
            "choices": choices,
            "help": help,
        }
    return dataclasses.field(default=default, metadata=metadata)


def _flag_dest(flag: str) -> str:
    """argparse's dest for a flag (``--no-profile-cache`` → ``no_profile_cache``)."""
    return flag.lstrip("-").replace("-", "_")


@dataclasses.dataclass(frozen=True)
class ExecutionOptions:
    """How the crawl executes: sharding, parallelism, profile caches.

    None of these can change a byte of the dataset (the runtime
    determinism contract); they only change how fast it appears.  The
    two profile-store paths are API-only: the orchestrator fills them
    for beat crawls, whose ticks share built profiles through the
    cross-run :class:`~repro.crawler.profilestore.ProfileStore`.
    """

    workers: int = opt(
        1,
        "--workers",
        type=int,
        metavar="N",
        help="shard the crawl across N workers (results are identical "
        "to a serial run)",
    )
    backend: str = opt(
        "auto",
        "--backend",
        choices=EXECUTION_BACKENDS,
        help="execution backend for sharded crawls (auto = process "
        "when workers > 1)",
    )
    shard_size: int = opt(
        0,
        "--shard-size",
        type=int,
        metavar="CELLS",
        help="max weeks*domains cells per shard (0 = one shard per worker)",
    )
    profile_cache: bool = opt(
        True,
        "--no-profile-cache",
        kind="negate",
        help="disable the incremental profile cache (results are "
        "identical; only slower)",
    )
    plan_from: Optional[str] = opt(
        None,
        "--plan-from",
        metavar="METRICS",
        help="balance shards by cost, not cell count: read per-shard "
        "cost facts from a previous run's canonical metrics document "
        "(--metrics-out FILE) and place the domain cut points so every "
        "shard carries near-equal estimated work",
    )
    #: Predecessor profile-store generation directories to consult on
    #: in-run cache misses, most recent first.
    profile_store_read: Tuple[str, ...] = ()
    #: This run's own generation directory for the profiles no
    #: predecessor had (``None`` disables writes).
    profile_store_write: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.backend not in EXECUTION_BACKENDS:
            raise ConfigError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of {', '.join(EXECUTION_BACKENDS)}"
            )
        if self.shard_size < 0:
            raise ConfigError("shard_size must be >= 0 (0 = auto)")
        if self.plan_from is not None:
            object.__setattr__(self, "plan_from", str(self.plan_from))

    @property
    def resolved_backend(self) -> str:
        """The concrete backend ``auto`` stands for."""
        if self.backend != "auto":
            return self.backend
        return "serial" if self.workers == 1 else "process"


@dataclasses.dataclass(frozen=True)
class ResilienceOptions:
    """What happens when shards fail: chaos, retries, failure policy."""

    fault_plan: Optional[Union[FaultPlan, str]] = opt(
        None,
        "--fault-plan",
        metavar="SPEC",
        help="inject deterministic chaos, e.g. "
        "'seed=7,crash=0.3,timeout=0.1,weeks=0-5,surge5xx=0.5'; "
        "the same (seed, plan) reproduces the identical degraded run",
    )
    max_shard_retries: int = opt(
        2,
        "--max-shard-retries",
        type=int,
        metavar="N",
        help="re-dispatch attempts per failed shard before it is "
        "dropped (default: 2; backoff is simulated, never slept)",
    )
    on_shard_failure: str = opt(
        "raise",
        "--on-shard-failure",
        choices=("raise", "degrade"),
        help="after retries are exhausted: 'raise' aborts the run, "
        "'degrade' drops the shard with accounting (injected faults "
        "always degrade)",
    )

    def __post_init__(self) -> None:
        if isinstance(self.fault_plan, str):
            # Accept the CLI spec string directly; parse errors surface
            # as the same ConfigError the CLI already reports.
            object.__setattr__(
                self, "fault_plan", FaultPlan.from_spec(self.fault_plan)
            )
        if self.max_shard_retries < 0:
            raise ConfigError("max_shard_retries must be >= 0")
        if self.on_shard_failure not in ("raise", "degrade"):
            raise ConfigError(
                f"on_shard_failure must be 'raise' or 'degrade', "
                f"got {self.on_shard_failure!r}"
            )


@dataclasses.dataclass(frozen=True)
class DurabilityOptions:
    """Whether the run survives its own death: ledger + resume."""

    checkpoint_dir: Optional[str] = opt(
        None,
        "--checkpoint-dir",
        metavar="DIR",
        help="keep a durable run ledger (manifest + per-shard "
        "write-ahead journal) in DIR so a killed run can be resumed",
    )
    resume: bool = opt(
        False,
        "--resume",
        kind="store_true",
        help="resume the run recorded in --checkpoint-dir: replay "
        "journaled shards and execute only the missing ones "
        "(byte-identical to an uninterrupted run)",
    )

    def __post_init__(self) -> None:
        if self.checkpoint_dir is not None:
            object.__setattr__(self, "checkpoint_dir", str(self.checkpoint_dir))
        if self.resume and not self.checkpoint_dir:
            raise ConfigError(
                "resume=True requires checkpoint_dir (--checkpoint-dir)"
            )


@dataclasses.dataclass(frozen=True)
class ObservabilityOptions:
    """Where the run's metrics go (see :mod:`repro.obs`).

    Every run records its telemetry at one level; this only says
    whether the canonical document is also written to a file.
    """

    metrics_out: Optional[str] = opt(
        None,
        "--metrics-out",
        metavar="FILE",
        help="write the canonical metrics document to FILE: "
        "deterministic JSON, byte-identical across backends and "
        "kill/resume (validate with 'python -m repro.obs.check')",
    )

    def __post_init__(self) -> None:
        if self.metrics_out is not None:
            object.__setattr__(self, "metrics_out", str(self.metrics_out))


#: The one table everything derives from: (RunOptions attribute, option
#: class, --help group title, --help group description).
OPTION_GROUPS: Tuple[Tuple[str, type, str, str], ...] = (
    (
        "execution",
        ExecutionOptions,
        "execution options",
        "sharding and parallelism; never changes the dataset",
    ),
    (
        "resilience",
        ResilienceOptions,
        "resilience options",
        "fault injection and shard-failure handling",
    ),
    (
        "durability",
        DurabilityOptions,
        "durability options",
        "run ledger and crash recovery",
    ),
    (
        "observability",
        ObservabilityOptions,
        "observability options",
        "deterministic run metrics (repro.obs)",
    ),
)


@dataclasses.dataclass(frozen=True)
class RunOptions:
    """Everything a :class:`~repro.Study` run can be configured with."""

    execution: ExecutionOptions = dataclasses.field(
        default_factory=ExecutionOptions
    )
    resilience: ResilienceOptions = dataclasses.field(
        default_factory=ResilienceOptions
    )
    durability: DurabilityOptions = dataclasses.field(
        default_factory=DurabilityOptions
    )
    observability: ObservabilityOptions = dataclasses.field(
        default_factory=ObservabilityOptions
    )


# ----------------------------------------------------------------------
# Serving options (repro serve / python -m repro.serve)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ServeOptions:
    """How the query service runs: store, binding, cache, aggregates.

    Knobs here can change which *bytes are recomputed when* (TTL,
    capacity) but never which bytes are served: responses are a pure
    function of the loaded dataset.
    """

    store: Optional[str] = opt(
        None,
        "--store",
        metavar="FILE",
        help="persisted binary store to serve (format v2, from "
        "'repro run --save-store')",
    )
    crawl_metrics: Optional[str] = opt(
        None,
        "--crawl-metrics",
        metavar="FILE",
        help="also expose the run's canonical metrics document "
        "(--metrics-out FILE) verbatim at /crawl-metrics",
    )
    host: str = opt(
        "127.0.0.1",
        "--host",
        metavar="ADDR",
        help="bind address (default: 127.0.0.1)",
    )
    port: int = opt(
        8737,
        "--port",
        type=int,
        metavar="PORT",
        help="bind port; 0 picks an ephemeral port (default: 8737)",
    )
    cache_ttl: float = opt(
        60.0,
        "--cache-ttl",
        type=float,
        metavar="SECONDS",
        help="response-cache TTL in seconds; 0 disables caching "
        "(served bytes are identical either way)",
    )
    cache_entries: int = opt(
        1024,
        "--cache-entries",
        type=int,
        metavar="N",
        help="response-cache capacity, FIFO-evicted; 0 = unbounded",
    )
    top_versions: int = opt(
        5,
        "--top-versions",
        type=int,
        metavar="K",
        help="versions per library in trend responses (?top=K overrides "
        "per request, 1..50)",
    )

    def __post_init__(self) -> None:
        if self.store is not None:
            object.__setattr__(self, "store", str(self.store))
        if self.crawl_metrics is not None:
            object.__setattr__(self, "crawl_metrics", str(self.crawl_metrics))
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in 0..65535, got {self.port}")
        if self.cache_ttl < 0:
            raise ConfigError("cache_ttl must be >= 0 seconds (0 disables)")
        if self.cache_entries < 0:
            raise ConfigError("cache_entries must be >= 0 (0 = unbounded)")
        if not 1 <= self.top_versions <= 50:
            raise ConfigError(
                f"top_versions must be in 1..50, got {self.top_versions}"
            )


#: --help group header for the serve flag surface.
SERVE_OPTION_GROUP = (
    "serving options",
    "query service over a persisted store (repro.serve)",
)


# ----------------------------------------------------------------------
# Orchestrator options (repro orchestrate)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class OrchestratorOptions:
    """How a fleet runs: queue directory, DAG shape, retry/degrade policy.

    Maps one-to-one onto :meth:`~repro.orchestrator.FleetPlan.build`
    plus the queue directory; the orchestrator's determinism contract
    (same plan + same queue dir → same terminal records and artifact
    bytes, interrupted or not) holds for every combination that
    validates here.
    """

    queue_dir: Optional[str] = opt(
        None,
        "--queue-dir",
        metavar="DIR",
        help="durable queue directory (created on first run; a resumed "
        "fleet must use the same plan flags)",
    )
    population: int = opt(
        40,
        "--population",
        type=int,
        metavar="N",
        help="domains per crawl job (default: 40)",
    )
    seed: int = opt(
        7,
        "--seed",
        type=int,
        metavar="SEED",
        help="scenario seed shared by every job (default: 7)",
    )
    ticks: int = opt(
        3,
        "--ticks",
        type=int,
        metavar="N",
        help="recurring beats: each tick crawls the weeks after the last "
        "tick's and chains analyses -> report -> serve-refresh (default: 3)",
    )
    weeks_per_tick: int = opt(
        2,
        "--weeks-per-tick",
        type=int,
        metavar="N",
        help="how many weeks each tick extends the crawl window by "
        "(default: 2)",
    )
    degrade_policy: str = opt(
        "skip",
        "--degrade-policy",
        choices=("skip", "block", "run-stale"),
        help="what dead-lettered jobs do to their hard dependents: "
        "'skip' / 'block' terminate them, 'run-stale' reruns them "
        "against the freshest earlier tick's artifacts",
    )
    max_job_retries: int = opt(
        2,
        "--max-job-retries",
        type=int,
        metavar="N",
        help="retries per failed job before it dead-letters "
        "(default: 2; backoff on the fleet clock, never slept)",
    )
    lease_seconds: float = opt(
        60.0,
        "--lease-seconds",
        type=float,
        metavar="SECONDS",
        help="job lease duration on the fleet clock (default: 60)",
    )
    backend: Optional[str] = opt(
        None,
        "--backend",
        choices=EXECUTION_BACKENDS,
        help="execution backend for the crawl jobs",
    )
    workers: Optional[int] = opt(
        None,
        "--workers",
        type=int,
        metavar="N",
        help="shard each crawl job across N workers",
    )
    fault_plan: Optional[str] = opt(
        None,
        "--fault-plan",
        metavar="SPEC",
        help="deterministic fleet chaos, e.g. "
        "'seed=3,jobcrash=0.3,leasestorm=0.5,queuetear=0.5' "
        "(shard-level keys like crash= apply inside the crawl jobs)",
    )

    def __post_init__(self) -> None:
        if self.queue_dir is not None:
            object.__setattr__(self, "queue_dir", str(self.queue_dir))
        # The plan fields are validated by FleetPlan itself; to_plan()
        # surfaces those ConfigErrors with identical wording.

    def to_plan(self):
        """The validated :class:`~repro.orchestrator.FleetPlan`."""
        from .orchestrator import FleetPlan

        fault_spec = self.fault_plan or ""
        if fault_spec:
            # Parse eagerly so a malformed spec fails here, with the
            # token-naming ConfigError, before any directory is touched.
            FaultPlan.from_spec(fault_spec)
        return FleetPlan.build(
            population=self.population,
            seed=self.seed,
            ticks=self.ticks,
            weeks_per_tick=self.weeks_per_tick,
            degrade_policy=self.degrade_policy,
            max_job_retries=self.max_job_retries,
            lease_seconds=self.lease_seconds,
            backend=self.backend,
            workers=self.workers,
            fault_spec=fault_spec,
        )


#: --help group header for the orchestrate flag surface.
ORCHESTRATE_OPTION_GROUP = (
    "orchestrator options",
    "durable multi-run fleet (repro.orchestrator)",
)


# ----------------------------------------------------------------------
# Sweep options (repro sweep)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepOptions:
    """How a scenario sweep runs: grid, window, and fleet policy.

    Maps onto :meth:`~repro.orchestrator.FleetPlan.build_sweep`: the
    grid expands to one crawl+analyses chain per point and a single
    fold job, all under the orchestrator's durability contract — the
    folded ``fleet-sweep.json`` is byte-identical across backends and
    kill/resume.
    """

    queue_dir: Optional[str] = opt(
        None,
        "--queue-dir",
        metavar="DIR",
        help="durable queue directory (created on first run; a resumed "
        "sweep must use the same grid and scenario flags)",
    )
    grid: str = opt(
        "baseline;bundled-deps:share=0.15|0.3;cve-range-drift:rate=0.3",
        "--grid",
        metavar="SPEC",
        help="sweep grid: ';'-separated pack segments, each 'pack' or "
        "'pack:name=v1|v2,...' ('|' lists values; a segment expands to "
        "the cartesian product of its parameters)",
    )
    population: int = opt(
        40,
        "--population",
        type=int,
        metavar="N",
        help="domains per grid point (default: 40)",
    )
    seed: int = opt(
        7,
        "--seed",
        type=int,
        metavar="SEED",
        help="scenario seed shared by every grid point (default: 7)",
    )
    weeks: int = opt(
        4,
        "--weeks",
        type=int,
        metavar="N",
        help="calendar weeks every point crawls (default: 4; unlike "
        "'orchestrate', the window is fixed — the scenario varies)",
    )
    degrade_policy: str = opt(
        "skip",
        "--degrade-policy",
        choices=("skip", "block", "run-stale"),
        help="what dead-lettered jobs do to their hard dependents; the "
        "fold always runs over whatever points completed",
    )
    max_job_retries: int = opt(
        2,
        "--max-job-retries",
        type=int,
        metavar="N",
        help="retries per failed job before it dead-letters (default: 2)",
    )
    lease_seconds: float = opt(
        60.0,
        "--lease-seconds",
        type=float,
        metavar="SECONDS",
        help="job lease duration on the fleet clock (default: 60)",
    )
    backend: Optional[str] = opt(
        None,
        "--backend",
        choices=EXECUTION_BACKENDS,
        help="execution backend for the per-point crawl jobs",
    )
    workers: Optional[int] = opt(
        None,
        "--workers",
        type=int,
        metavar="N",
        help="shard each point's crawl across N workers",
    )
    fault_plan: Optional[str] = opt(
        None,
        "--fault-plan",
        metavar="SPEC",
        help="deterministic fleet chaos (same spelling as orchestrate); "
        "the folded sweep document converges regardless",
    )

    def __post_init__(self) -> None:
        if self.queue_dir is not None:
            object.__setattr__(self, "queue_dir", str(self.queue_dir))
        if self.weeks < 1:
            raise ConfigError(f"weeks must be >= 1, got {self.weeks}")

    def to_spec(self):
        """The validated :class:`~repro.sweep.SweepSpec` for the grid."""
        from .sweep import SweepSpec

        return SweepSpec.parse(self.grid)

    def to_plan(self):
        """The validated sweep :class:`~repro.orchestrator.FleetPlan`."""
        from .orchestrator import FleetPlan

        fault_spec = self.fault_plan or ""
        if fault_spec:
            FaultPlan.from_spec(fault_spec)
        return FleetPlan.build_sweep(
            self.to_spec().points,
            population=self.population,
            seed=self.seed,
            weeks=self.weeks,
            degrade_policy=self.degrade_policy,
            max_job_retries=self.max_job_retries,
            lease_seconds=self.lease_seconds,
            backend=self.backend,
            workers=self.workers,
            fault_spec=fault_spec,
        )


#: --help group header for the sweep flag surface.
SWEEP_OPTION_GROUP = (
    "sweep options",
    "orchestrated scenario-pack sweep (repro.sweep)",
)


# ----------------------------------------------------------------------
# CLI derivation: argparse groups from the same field metadata
# ----------------------------------------------------------------------
def _add_group_fields(group, option_cls) -> None:
    """Add one option class's flags to an argparse group."""
    for field in dataclasses.fields(option_cls):
        spec = field.metadata.get("cli")
        if spec is None:
            continue
        if spec["kind"] == "value":
            kwargs = {"default": None, "help": spec["help"]}
            if spec["type"] is not str:
                kwargs["type"] = spec["type"]
            if spec["metavar"]:
                kwargs["metavar"] = spec["metavar"]
            if spec["choices"]:
                kwargs["choices"] = list(spec["choices"])
            group.add_argument(spec["flag"], **kwargs)
        else:  # store_true / negate: a bare flag
            group.add_argument(
                spec["flag"], action="store_true", help=spec["help"]
            )


def _group_values_from_namespace(option_cls, namespace) -> dict:
    """Given-flag values for one option class (absent flags omitted)."""
    values = {}
    for field in dataclasses.fields(option_cls):
        spec = field.metadata.get("cli")
        if spec is None:
            continue
        raw = getattr(namespace, _flag_dest(spec["flag"]), None)
        if spec["kind"] == "negate":
            if raw:  # --no-X given: turn the behaviour off
                values[field.name] = False
        elif spec["kind"] == "store_true":
            if raw:
                values[field.name] = True
        elif raw is not None:
            values[field.name] = raw
    return values


def add_option_arguments(parser) -> None:
    """Add every run-option flag to ``parser``, grouped for ``--help``.

    Derived field-by-field from :data:`OPTION_GROUPS`, so a new option
    only ever gets declared once.
    """
    for _, option_cls, title, description in OPTION_GROUPS:
        group = parser.add_argument_group(title, description)
        _add_group_fields(group, option_cls)


def options_from_namespace(namespace) -> RunOptions:
    """Build validated :class:`RunOptions` from parsed CLI arguments.

    Raises:
        ConfigError: Any group's validation failed (bad backend name,
            negative retries, resume without checkpoint dir, malformed
            fault-plan spec...).
    """
    groups = {}
    for attr, option_cls, _, _ in OPTION_GROUPS:
        groups[attr] = option_cls(
            **_group_values_from_namespace(option_cls, namespace)
        )
    return RunOptions(**groups)


def add_orchestrate_arguments(parser) -> None:
    """Add the :class:`OrchestratorOptions` flags to ``parser``."""
    title, description = ORCHESTRATE_OPTION_GROUP
    group = parser.add_argument_group(title, description)
    _add_group_fields(group, OrchestratorOptions)


def orchestrate_options_from_namespace(namespace) -> OrchestratorOptions:
    """Build validated :class:`OrchestratorOptions` from parsed arguments.

    Raises:
        ConfigError: A fleet knob is out of range (bad tick counts,
            unknown degrade policy, malformed fault-plan spec...).
    """
    return OrchestratorOptions(
        **_group_values_from_namespace(OrchestratorOptions, namespace)
    )


def add_sweep_arguments(parser) -> None:
    """Add the :class:`SweepOptions` flags to ``parser``."""
    title, description = SWEEP_OPTION_GROUP
    group = parser.add_argument_group(title, description)
    _add_group_fields(group, SweepOptions)


def sweep_options_from_namespace(namespace) -> SweepOptions:
    """Build validated :class:`SweepOptions` from parsed arguments.

    Raises:
        ConfigError: A sweep knob is out of range or the grid spec is
            malformed (unknown pack, undeclared parameter, bad value).
    """
    return SweepOptions(
        **_group_values_from_namespace(SweepOptions, namespace)
    )


def add_serve_arguments(parser) -> None:
    """Add the :class:`ServeOptions` flags to ``parser``."""
    title, description = SERVE_OPTION_GROUP
    group = parser.add_argument_group(title, description)
    _add_group_fields(group, ServeOptions)


def serve_options_from_namespace(namespace) -> ServeOptions:
    """Build validated :class:`ServeOptions` from parsed CLI arguments.

    Raises:
        ConfigError: A serve knob is out of range (bad port, negative
            TTL or capacity, top_versions outside 1..50).
    """
    return ServeOptions(
        **_group_values_from_namespace(ServeOptions, namespace)
    )


__all__ = [
    "DurabilityOptions",
    "ExecutionOptions",
    "ObservabilityOptions",
    "OPTION_GROUPS",
    "ORCHESTRATE_OPTION_GROUP",
    "OrchestratorOptions",
    "ResilienceOptions",
    "RunOptions",
    "SERVE_OPTION_GROUP",
    "SWEEP_OPTION_GROUP",
    "ServeOptions",
    "SweepOptions",
    "add_option_arguments",
    "add_orchestrate_arguments",
    "add_serve_arguments",
    "add_sweep_arguments",
    "opt",
    "options_from_namespace",
    "orchestrate_options_from_namespace",
    "serve_options_from_namespace",
    "sweep_options_from_namespace",
]
