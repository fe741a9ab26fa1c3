"""Exception hierarchy shared by every module in the package."""


class XrwaError(Exception):
    """Base class for all errors raised by this package."""


class SeedError(XrwaError):
    """Key seed is missing or has the wrong length."""


class EmptyTreeError(XrwaError):
    """A Merkle tree was requested over zero leaves."""


# --- ledger ---------------------------------------------------------------

class UnknownChain(XrwaError):
    pass


class BadSignature(XrwaError):
    pass


class InsufficientBalance(XrwaError):
    pass


class EmptyPool(XrwaError):
    """seal_block called while the pending pool is empty."""


class ReplayedTransaction(XrwaError):
    """A chain already accepted a transaction with this (sender, nonce) pair."""


# --- identity -------------------------------------------------------------

class DuplicateController(XrwaError):
    pass


class NotFound(XrwaError):
    pass


class Deactivated(XrwaError):
    pass


class AlreadyDeactivated(XrwaError):
    pass


class VersionSkew(XrwaError):
    """Update carried a version that is not exactly current + 1."""


# --- credential -----------------------------------------------------------

class MissingField(XrwaError):
    pass


class IssuerDeactivated(XrwaError):
    pass


class StatusListFull(XrwaError):
    pass


class UnknownSelector(XrwaError):
    pass


class Expired(XrwaError):
    pass


class NotOwner(XrwaError):
    pass


# --- cross-chain authentication --------------------------------------------

class InvalidPresentation(XrwaError):
    pass


class TxNotInBlock(XrwaError):
    pass


class SpvFailed(XrwaError):
    pass


class CommitmentMismatch(XrwaError):
    pass


class Revoked(XrwaError):
    pass


class JurisdictionBlocked(XrwaError):
    pass


class AnchorNotFromIssuer(XrwaError):
    """The transaction carrying a commitment is not an anchor sent by the
    current controller key of the presentation's issuer."""


# --- settlement -----------------------------------------------------------

class PastTimeout(XrwaError):
    pass


class WrongPreimage(XrwaError):
    pass


class NotYetExpired(XrwaError):
    pass


class StaleSeq(XrwaError):
    pass


class ConservationViolation(XrwaError):
    pass


class WrongPhase(XrwaError):
    pass


class NotLocked(WrongPhase):
    """A claim or refund on a lock that is not Locked."""


class BadTimeouts(XrwaError):
    pass


class ReusedHashLock(XrwaError):
    """chan_lock named a hash condition an earlier round of the channel used."""


class UnauthenticatedAsset(XrwaError):
    pass


class CostTableError(XrwaError):
    """An op kind has no weight in the cost table."""


# --- cli ------------------------------------------------------------------

class ConfigError(XrwaError):
    pass


class InvariantViolation(XrwaError):
    """A cross-cutting world invariant was found broken at audit time."""
