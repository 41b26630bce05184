"""Admission control: per-tenant quotas and global backpressure.

The daemon never buffers without bound.  Up to three gates run, in
order, on every submit:

1. **token bucket** per tenant (opt-in: ``tenant_rate`` set) —
   sustained submit rate with a burst allowance; the rejection's
   ``retry_after`` is exactly the time until the next token accrues;
2. **in-flight cap** per tenant — jobs admitted but not yet answered;
3. **global queue bound** — pending-not-yet-launched jobs across all
   tenants.

Gates 2 and 3 are what bound the daemon's memory and they always apply.
The rate gate has no default: any finite rate is a constant the next
speed-up of the serving path overtakes, at which point it caps the
daemon below what it can serve.  All three reject with a typed,
retryable error instead of queueing — an overloaded daemon degrades to
fast "come back in N ms" answers, not to unbounded memory growth and
collapsing latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class AdmissionLimits:
    """Quota knobs (one set shared by every tenant, plus global bounds)."""

    # Token bucket: sustained submits/second and burst capacity.  None
    # (the default) = no rate limit; 0 or less = the tenant is banned.
    tenant_rate: float | None = None
    tenant_burst: int = 100
    # Jobs a tenant may have admitted-but-unanswered at once.
    tenant_max_inflight: int = 16
    # Pending (admitted, not yet launched) jobs across all tenants.
    max_queue: int = 256


@dataclass
class TokenBucket:
    """Classic token bucket on the monotonic clock."""

    rate: float
    burst: int
    tokens: float = field(default=-1.0)
    updated: float = field(default=-1.0)

    def _refill(self, now: float) -> None:
        if self.updated < 0:
            self.tokens = float(self.burst)
        else:
            self.tokens = min(
                float(self.burst),
                self.tokens + (now - self.updated) * self.rate,
            )
        self.updated = now

    def take(self, now: float | None = None) -> float | None:
        """Consume one token; returns None on success or the seconds
        until a token will be available."""
        now = time.monotonic() if now is None else now
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        if self.rate <= 0:
            return 60.0  # rate 0: effectively banned; back off hard
        return (1.0 - self.tokens) / self.rate


@dataclass
class TenantState:
    """Live accounting for one tenant."""

    name: str
    bucket: TokenBucket | None
    inflight: int = 0
    submitted: int = 0
    completed: int = 0
    rejected: int = 0

    def to_dict(self) -> dict:
        return {
            "inflight": self.inflight,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
        }


class Rejection(Exception):
    """Admission denied — carries the typed wire error."""

    def __init__(
        self, error_type: str, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.message = message
        self.retry_after = retry_after


class AdmissionController:
    """Applies :class:`AdmissionLimits` across all tenants."""

    def __init__(self, limits: AdmissionLimits | None = None) -> None:
        self.limits = limits or AdmissionLimits()
        self.tenants: dict[str, TenantState] = {}
        self.rejected_rate = 0
        self.rejected_inflight = 0
        self.rejected_queue = 0

    def tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            rate = self.limits.tenant_rate
            bucket = (
                None if rate is None
                else TokenBucket(rate, self.limits.tenant_burst)
            )
            state = TenantState(name, bucket)
            self.tenants[name] = state
        return state

    def admit(self, tenant_name: str, queue_depth: int) -> TenantState:
        """Pass every gate or raise :class:`Rejection`.

        On success the tenant's in-flight count is already incremented —
        the caller must pair every admit with exactly one
        :meth:`release`.
        """
        state = self.tenant(tenant_name)
        state.submitted += 1
        wait = state.bucket.take() if state.bucket is not None else None
        if wait is not None:
            state.rejected += 1
            self.rejected_rate += 1
            raise Rejection(
                "quota_exceeded",
                f"tenant {tenant_name!r} over submit rate "
                f"({self.limits.tenant_rate:g}/s, "
                f"burst {self.limits.tenant_burst})",
                retry_after=wait,
            )
        if state.inflight >= self.limits.tenant_max_inflight:
            state.rejected += 1
            self.rejected_inflight += 1
            raise Rejection(
                "quota_exceeded",
                f"tenant {tenant_name!r} at max in-flight "
                f"({self.limits.tenant_max_inflight})",
                # In-flight caps clear when a job finishes; there is no
                # exact ETA, so advise a short poll.
                retry_after=0.25,
            )
        if queue_depth >= self.limits.max_queue:
            state.rejected += 1
            self.rejected_queue += 1
            raise Rejection(
                "queue_full",
                f"admission queue at capacity ({self.limits.max_queue})",
                retry_after=0.5,
            )
        state.inflight += 1
        return state

    def release(self, tenant_name: str, completed: bool = True) -> None:
        state = self.tenant(tenant_name)
        state.inflight = max(0, state.inflight - 1)
        if completed:
            state.completed += 1

    def to_dict(self) -> dict:
        return {
            "limits": {
                "tenant_rate": self.limits.tenant_rate,
                "tenant_burst": self.limits.tenant_burst,
                "tenant_max_inflight": self.limits.tenant_max_inflight,
                "max_queue": self.limits.max_queue,
            },
            "rejected": {
                "rate": self.rejected_rate,
                "inflight": self.rejected_inflight,
                "queue": self.rejected_queue,
            },
            "tenants": {
                name: state.to_dict()
                for name, state in sorted(self.tenants.items())
            },
        }
