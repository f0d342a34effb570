"""Exception types raised across the package.

Every contract violation maps to a named exception so callers can tell
input mistakes apart from numerical failures.
"""


class SkelclError(Exception):
    """Base class for all package errors."""


class InvalidArgument(SkelclError, ValueError):
    """A function argument lies outside what the function accepts."""


# --- tensor / autograd ---------------------------------------------------


class EmptyMask(SkelclError):
    """A masked softmax was requested with no positive entries."""


class DetachedLoss(SkelclError):
    """backward() was called on a tensor that was not recorded on a tape."""


class NonDeterministic(SkelclError):
    """Two evaluations of a supposedly deterministic function disagreed."""


class NonFiniteValue(SkelclError):
    """An operation produced NaN or Inf; `op` names the tape op, if one did."""

    def __init__(self, message: str, op: str | None = None):
        super().__init__(message)
        self.op = op


class ZeroNorm(NonFiniteValue):
    """A row with (near-)zero L2 norm was passed to a normalizer, whose
    quotient would not be finite."""


class ShapeMismatch(SkelclError):
    """Operand shapes are incompatible with the requested operation."""


# --- skeleton data -------------------------------------------------------


class TooShort(SkelclError):
    """Sequence has fewer frames than the operation requires."""


class UnknownStream(SkelclError):
    """A stream id outside {joint, bone, motion} was requested."""


class SeparabilityFailure(SkelclError):
    """Synthetic dataset failed its built-in separability check."""


class BadMagic(SkelclError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(SkelclError):
    """File ended before the header-declared payload was read."""


# --- contrastive machinery ------------------------------------------------


class EmptyQueue(SkelclError):
    """A contrastive loss needs at least one stored negative."""


class BatchTooLarge(SkelclError):
    """Attempted to push more embeddings than the queue capacity."""


class QueueTooSmall(SkelclError):
    """Neighbor mining asked for more entries than the queue holds."""


# --- training / evaluation -------------------------------------------------


class NonFiniteLoss(SkelclError):
    """A pretraining step produced NaN or Inf, or a zero-norm row.

    `op` names the op that did (a tape op, "l2_normalize" for a zero or
    non-finite embedding norm, or "sgd_step" for an update that left a
    parameter non-finite), `epoch`, `step` and `stage` the step, and
    `stream` the stream whose encoder pass or update failed (None when
    the loss did).
    """

    def __init__(self, message: str, op: str | None, epoch: int, step: int, stage: str,
                 stream: str | None):
        super().__init__(message)
        self.op = op
        self.epoch = epoch
        self.step = step
        self.stage = stage
        self.stream = stream


class StreamMissing(SkelclError):
    """Checkpoint does not contain the requested stream."""


class EmptyTrainSplit(SkelclError):
    """An evaluation protocol got an empty training split."""


class EmptyValSplit(SkelclError):
    """An evaluation protocol got an empty validation split."""


class UnlabeledClip(SkelclError):
    """A supervised protocol got a clip whose label is null."""


class InvalidLabel(SkelclError):
    """A class label is not a nonnegative integer, or not below the class count."""


class LengthMismatch(SkelclError):
    """Per-stream score vectors disagree in length."""


class EncoderModified(SkelclError):
    """A frozen-encoder protocol changed the encoder's parameter bytes."""


# --- config / persistence --------------------------------------------------


class UnknownKey(SkelclError):
    """Config contains a key outside the documented set."""


class ConfigTypeError(SkelclError):
    """Config value has the wrong type for its key."""


class ConfigValueError(SkelclError, ValueError):
    """Config value lies outside the range its key allows."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


class UnreadableFile(SkelclError):
    """An input file is missing or cannot be read."""


class VersionMismatch(SkelclError):
    """Checkpoint was written by an incompatible format version."""


class HashMismatch(SkelclError):
    """Checkpoint config hash does not match its embedded config."""


class CorruptFile(SkelclError):
    """File contents are malformed (past any header checks) or do not fit
    the config the file carries."""
