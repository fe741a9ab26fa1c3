"""Calibrated per-operation cost model for on-chain operations.

Costs are abstract units, not measured gas. The weights are one constant
table; the settlement weights are strictly positive and satisfy two
calibration identities, which the test suite checks:

- one full hash-timelock interaction (lock + unlock on both chains) totals
  exactly 465,426 units;
- one full channel lifecycle (open + lock + unlock on both chains) totals
  exactly 917,253 units.

Each channel-phase op executes once per chain at the same weight, so the odd
channel total forces 0.5-unit granularity; halves are exact in binary
floating point, and sums at this magnitude stay exact.
"""

from __future__ import annotations

from .errors import CostTableError

__all__ = [
    "DEFAULT_WEIGHTS",
    "weight",
    "format_units",
]

# Settlement and anchoring weights first. The split across open/lock/unlock
# is ~40/35/25 and is itself arbitrary; only the calibration totals bind.
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


def weight(kind: str) -> float:
    """Cost units of one op of `kind`."""
    try:
        return DEFAULT_WEIGHTS[kind]
    except KeyError:
        raise CostTableError(f"no cost weight for op kind {kind!r}") from None
