"""Deterministic chaos: seeded fault plans for the shard pipeline.

The paper's four-year crawl survived DNS outages, timeouts, flaky 5xxs,
and partial weekly snapshots.  A :class:`FaultPlan` reproduces that
hostile environment *deterministically*: every injected fault is a pure
function of the plan's seed and a backend-independent coordinate, so two
runs with the same ``(scenario seed, plan)`` experience byte-identical
failure histories — on any backend, at any worker count.

Four fault families are supported:

* **Worker crashes** — a shard attempt raises
  :class:`~repro.errors.InjectedWorkerCrash` at the shard boundary,
  before any network activity.  Decided by
  ``draw(seed, shard key, attempt)``, so the same shard crashes (or
  doesn't) no matter which process picks it up, and a retry is a fresh
  draw.
* **Shard timeouts** — identical mechanics,
  :class:`~repro.errors.InjectedShardTimeout`; kept as a separate
  channel so crash and timeout schedules are independent.
* **Transport surges** — elevated connect-failure / timeout / 5xx rates
  on chosen week ordinals, layered onto the virtual network's
  :class:`~repro.netsim.network.FailureModel` (see its ``surge``
  attribute).  Surge outcomes remain pure functions of
  (network seed, host, clock, request ordinal, rates), so they are as
  deterministic as the base failure schedule — the crawl *degrades*, it
  never diverges.

* **Orchestrator faults** — fleet-level chaos for
  :mod:`repro.orchestrator`: *runner crashes* (a job attempt dies at
  the job boundary and is retried with backoff), *lease-expiry storms*
  (a freshly granted lease is lost before the job runs, forcing a
  re-lease of the same attempt), and *queue-write tears* (a job-record
  state transition hits disk torn, exercising the queue's checksum
  recovery).  All three are pure functions of ``(plan seed, job id,
  attempt)``, so every chaos schedule converges to the same final
  stores and canonical metrics (enforced by ``tests/test_orchestrator``).

Injection points are shard boundaries, network draws, and job-record
transitions — all backend-independent by construction — which is what
lets the invariant harness (``tests/test_invariants.py``) assert exact
equality between runs rather than mere statistical similarity.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Tuple

from ..errors import ConfigError
from ..netsim.network import HostCondition

#: Fault kinds returned by :meth:`FaultPlan.shard_fault`.
CRASH = "crash"
TIMEOUT = "timeout"

#: Fault kinds returned by :meth:`FaultPlan.job_fault`.
JOB_CRASH = "job-crash"

#: Cap on consecutive injected lease expiries per (job, attempt) — a
#: storm delays a job, it never starves one forever.
MAX_INJECTED_EXPIRIES = 3


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable schedule of injected faults.

    Attributes:
        seed: Root seed for every fault draw (independent of the
            scenario seed — the same chaos can replay over different
            datasets and vice versa).
        crash_rate: Probability a shard *attempt* crashes at its
            boundary.
        timeout_rate: Probability a shard attempt times out at its
            boundary (drawn after the crash channel).
        surge_weeks: Week ordinals under a transport surge.
        surge_connect_failure_rate: Extra per-request connect-failure
            probability during surge weeks (added to each host's base
            rate, capped at 1.0).
        surge_timeout_rate: Extra per-request timeout probability during
            surge weeks.
        surge_server_error_rate: Extra per-request 5xx probability
            during surge weeks.
        job_crash_rate: Probability an orchestrator *job attempt*
            crashes at the job boundary, before any shard runs.
        lease_expiry_rate: Per-draw probability a freshly granted job
            lease is lost before the job executes (drawn repeatedly,
            capped at :data:`MAX_INJECTED_EXPIRIES` per attempt).
        queue_tear_rate: Probability a job-record state transition is
            written torn (truncated mid-body), forcing the queue's
            checksum recovery path.
    """

    seed: int = 0
    crash_rate: float = 0.0
    timeout_rate: float = 0.0
    surge_weeks: Tuple[int, ...] = ()
    surge_connect_failure_rate: float = 0.0
    surge_timeout_rate: float = 0.0
    surge_server_error_rate: float = 0.0
    job_crash_rate: float = 0.0
    lease_expiry_rate: float = 0.0
    queue_tear_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "crash_rate",
            "timeout_rate",
            "surge_connect_failure_rate",
            "surge_timeout_rate",
            "surge_server_error_rate",
            "job_crash_rate",
            "lease_expiry_rate",
            "queue_tear_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value}")
        if any(w < 0 for w in self.surge_weeks):
            raise ConfigError("surge_weeks must be non-negative week ordinals")

    # ------------------------------------------------------------------
    def _draw(self, key: str, attempt: int, channel: str) -> float:
        material = f"{self.seed}|{key}|{attempt}|{channel}".encode()
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def shard_fault(self, shard_key: str, attempt: int) -> Optional[str]:
        """The planned fault for one shard attempt, if any.

        Returns ``"crash"``, ``"timeout"``, or ``None``.  Pure in
        ``(plan, shard_key, attempt)`` — the dispatch order, backend,
        and worker count can never change the answer.
        """
        if self.crash_rate and (
            self._draw(shard_key, attempt, "crash") < self.crash_rate
        ):
            return CRASH
        if self.timeout_rate and (
            self._draw(shard_key, attempt, "timeout") < self.timeout_rate
        ):
            return TIMEOUT
        return None

    def surge_conditions(self) -> Dict[int, HostCondition]:
        """The ``clock -> extra rates`` map the network's failure model consumes."""
        if not self.surge_weeks:
            return {}
        extra = HostCondition(
            connect_failure_rate=self.surge_connect_failure_rate,
            timeout_rate=self.surge_timeout_rate,
            server_error_rate=self.surge_server_error_rate,
            latency=0.0,
        )
        return {ordinal: extra for ordinal in self.surge_weeks}

    @property
    def injects_shard_faults(self) -> bool:
        return bool(self.crash_rate or self.timeout_rate)

    @property
    def injects_job_faults(self) -> bool:
        """Whether any orchestrator-level fault channel is armed."""
        return bool(
            self.job_crash_rate or self.lease_expiry_rate or self.queue_tear_rate
        )

    # ------------------------------------------------------------------
    # Orchestrator-level draws (repro.orchestrator)
    # ------------------------------------------------------------------
    def job_fault(self, job_id: str, attempt: int) -> Optional[str]:
        """The planned fault for one job attempt, if any.

        Returns ``"job-crash"`` or ``None``.  Pure in ``(plan, job_id,
        attempt)`` — scheduling order and process restarts can never
        change the answer, which is what lets a killed-and-resumed
        fleet converge to the uninterrupted fleet's retry history.
        """
        if self.job_crash_rate and (
            self._draw(f"job:{job_id}", attempt, "job-crash")
            < self.job_crash_rate
        ):
            return JOB_CRASH
        return None

    def planned_lease_expiries(self, job_id: str, attempt: int) -> int:
        """How many injected lease expiries this job attempt must serve.

        Consecutive draws below ``lease_expiry_rate`` count, capped at
        :data:`MAX_INJECTED_EXPIRIES`; the queue persists how many it
        has served in the job record, so the storm replays identically
        across kill/resume.
        """
        if not self.lease_expiry_rate:
            return 0
        count = 0
        while count < MAX_INJECTED_EXPIRIES and (
            self._draw(f"job:{job_id}", attempt, f"lease-expiry:{count}")
            < self.lease_expiry_rate
        ):
            count += 1
        return count

    def tears_write(self, job_id: str, state: str, attempt: int) -> bool:
        """Whether the first write of this job-state transition tears.

        Recovery rewrites are always clean (the queue marks them), so a
        planned tear fires exactly once per ``(job, state, attempt)``
        triple and the recovery sequence is deterministic.
        """
        if not self.queue_tear_rate:
            return False
        return (
            self._draw(f"job:{job_id}|state:{state}", attempt, "queue-tear")
            < self.queue_tear_rate
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.crash_rate:
            parts.append(f"crash={self.crash_rate:g}")
        if self.timeout_rate:
            parts.append(f"timeout={self.timeout_rate:g}")
        if self.surge_weeks:
            lo, hi = min(self.surge_weeks), max(self.surge_weeks)
            span = str(lo) if lo == hi else f"{lo}-{hi}"
            parts.append(f"weeks={span}")
            if self.surge_connect_failure_rate:
                parts.append(f"surgeconnect={self.surge_connect_failure_rate:g}")
            if self.surge_timeout_rate:
                parts.append(f"surgetimeout={self.surge_timeout_rate:g}")
            if self.surge_server_error_rate:
                parts.append(f"surge5xx={self.surge_server_error_rate:g}")
        if self.job_crash_rate:
            parts.append(f"jobcrash={self.job_crash_rate:g}")
        if self.lease_expiry_rate:
            parts.append(f"leasestorm={self.lease_expiry_rate:g}")
        if self.queue_tear_rate:
            parts.append(f"queuetear={self.queue_tear_rate:g}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        Format: comma-separated ``key=value`` pairs, e.g.::

            seed=7,crash=0.25,timeout=0.1,weeks=0-5,surge5xx=0.6

        Keys: ``seed``, ``crash``, ``timeout``, ``weeks`` (one ordinal or
        an inclusive ``lo-hi`` range), ``surgeconnect``, ``surgetimeout``,
        ``surge5xx``, ``jobcrash``, ``leasestorm``, ``queuetear``.

        Every parse failure is a typed
        :class:`~repro.errors.ConfigError` naming the offending token —
        malformed tokens, unknown or duplicate keys, non-numeric or
        out-of-range values, and empty/negative week ranges all refuse
        with a one-line diagnosis; a bare ``ValueError`` never escapes.
        """
        fields = {
            "seed": 0,
            "crash_rate": 0.0,
            "timeout_rate": 0.0,
            "surge_weeks": (),
            "surge_connect_failure_rate": 0.0,
            "surge_timeout_rate": 0.0,
            "surge_server_error_rate": 0.0,
            "job_crash_rate": 0.0,
            "lease_expiry_rate": 0.0,
            "queue_tear_rate": 0.0,
        }
        rate_aliases = {
            "crash": "crash_rate",
            "timeout": "timeout_rate",
            "surgeconnect": "surge_connect_failure_rate",
            "surgetimeout": "surge_timeout_rate",
            "surge5xx": "surge_server_error_rate",
            "jobcrash": "job_crash_rate",
            "leasestorm": "lease_expiry_rate",
            "queuetear": "queue_tear_rate",
        }
        known = ", ".join(sorted({"seed", "weeks", *rate_aliases}))
        seen = set()
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise ConfigError(
                    f"bad fault-plan token {token!r}; expected key=value "
                    f"with key one of: {known}"
                )
            key, _, raw = token.partition("=")
            key = key.strip().lower()
            raw = raw.strip()
            if key in seen:
                raise ConfigError(
                    f"duplicate fault-plan key in token {token!r}; "
                    f"{key!r} was already given"
                )
            seen.add(key)
            if key == "weeks":
                fields["surge_weeks"] = cls._parse_week_range(token, raw)
            elif key == "seed":
                try:
                    fields["seed"] = int(raw)
                except ValueError:
                    raise ConfigError(
                        f"bad fault-plan token {token!r}: seed must be an "
                        f"integer, got {raw!r}"
                    ) from None
            elif key in rate_aliases:
                try:
                    rate = float(raw)
                except ValueError:
                    raise ConfigError(
                        f"bad fault-plan value {raw!r} in token {token!r}: "
                        f"{key} must be a number"
                    ) from None
                if not 0.0 <= rate <= 1.0:
                    raise ConfigError(
                        f"bad fault-plan token {token!r}: {key} must be a "
                        f"probability in 0..1, got {raw!r}"
                    )
                fields[rate_aliases[key]] = rate
            else:
                raise ConfigError(
                    f"unknown fault-plan key {key!r} in token {token!r}; "
                    f"known fault kinds (sorted): {known}"
                )
        return cls(**fields)  # type: ignore[arg-type]

    @staticmethod
    def _parse_week_range(token: str, raw: str) -> Tuple[int, ...]:
        """Parse ``weeks=N`` or ``weeks=LO-HI`` with typed diagnostics."""
        try:
            if "-" in raw:
                lo_s, _, hi_s = raw.partition("-")
                lo, hi = int(lo_s), int(hi_s)
            else:
                lo = hi = int(raw)
        except ValueError:
            raise ConfigError(
                f"bad fault-plan value {raw!r} in token {token!r}: weeks "
                f"must be one ordinal or an inclusive LO-HI range"
            ) from None
        if lo < 0:
            raise ConfigError(
                f"bad fault-plan value {raw!r} in token {token!r}: week "
                f"ordinals must be >= 0"
            )
        if hi < lo:
            raise ConfigError(
                f"bad fault-plan value {raw!r} in token {token!r}: empty "
                f"week range ({lo}-{hi})"
            )
        return tuple(range(lo, hi + 1))
