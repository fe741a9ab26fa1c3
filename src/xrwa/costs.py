"""Calibrated per-operation cost model for on-chain operations.

Costs are abstract units, not measured gas. The table is free to choose any
strictly positive weights as long as two calibration identities hold:

- one full hash-timelock interaction (lock + unlock on both chains) totals
  exactly 465,426 units;
- one full channel lifecycle (open + lock + unlock on both chains) totals
  exactly 917,253 units.

Each channel-phase op executes once per chain at the same weight, so the odd
channel total forces 0.5-unit granularity; halves are exact in binary
floating point, and sums at this magnitude stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import CostTableError

__all__ = [
    "HTLC_INTERACTION_TOTAL",
    "CHANNEL_LIFECYCLE_TOTAL",
    "DEFAULT_WEIGHTS",
    "CostTable",
    "format_units",
]

HTLC_INTERACTION_TOTAL = 465_426
CHANNEL_LIFECYCLE_TOTAL = 917_253

# Weights that must satisfy the calibration identities. The split across
# open/lock/unlock is ~40/35/25 and is itself arbitrary; only totals bind.
CALIBRATED_KINDS = (
    "htlc_lock",
    "htlc_unlock",
    "htlc_refund",
    "chan_open",
    "chan_lock",
    "chan_unlock",
    "chan_refund",
    "chan_close",
    "anchor",
    "acceptance",
)

DEFAULT_WEIGHTS: dict[str, float] = {
    "htlc_lock": 139_628,
    "htlc_unlock": 93_085,
    "htlc_refund": 93_085,
    "chan_open": 183_450.5,
    "chan_lock": 160_519.5,
    "chan_unlock": 114_656.5,
    "chan_refund": 114_656.5,
    "chan_close": 60_000,
    "anchor": 50_000,
    "acceptance": 80_000,
    # uncalibrated bookkeeping weights for the remaining simulated ops
    "transfer": 21_000,
    "relay_header": 15_000,
    "relay_reject": 15_000,
    "did_create": 100_000,
    "did_update": 45_000,
    "did_deactivate": 30_000,
    "revoke": 30_000,
    "reinstate": 30_000,
    "burn": 20_000,
    "mint": 0,
}


def format_units(value: float) -> str:
    """Render cost units compactly: integers without a trailing .0."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class CostTable:
    """Per-op-kind cost weights, validated against the calibration identities."""

    weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def __post_init__(self) -> None:
        merged = dict(DEFAULT_WEIGHTS)
        merged.update(self.weights)
        object.__setattr__(self, "weights", merged)
        self.validate()

    def validate(self) -> None:
        for kind in CALIBRATED_KINDS:
            w = self.weights.get(kind)
            if w is None or w <= 0:
                raise CostTableError(f"weight for {kind!r} must be strictly positive")
        htlc = 2 * (self.weights["htlc_lock"] + self.weights["htlc_unlock"])
        if htlc != HTLC_INTERACTION_TOTAL:
            raise CostTableError(
                f"HTLC calibration broken: lock+unlock on both chains = "
                f"{format_units(htlc)}, expected {HTLC_INTERACTION_TOTAL}"
            )
        chan = 2 * (
            self.weights["chan_open"]
            + self.weights["chan_lock"]
            + self.weights["chan_unlock"]
        )
        if chan != CHANNEL_LIFECYCLE_TOTAL:
            raise CostTableError(
                f"channel calibration broken: open+lock+unlock on both chains = "
                f"{format_units(chan)}, expected {CHANNEL_LIFECYCLE_TOTAL}"
            )

    def weight(self, kind: str) -> float:
        try:
            return self.weights[kind]
        except KeyError:
            raise CostTableError(f"no cost weight for op kind {kind!r}") from None
