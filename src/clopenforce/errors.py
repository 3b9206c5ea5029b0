"""Named failure kinds shared across modules.

`ValueError` is reserved for misuse (bad arguments, violated preconditions);
subclasses of `ConstructionError` signal that a construction or property
check failed on legal input.  The CLI maps the former to exit status 2 and
the latter to exit status 1.
"""


class ConstructionError(Exception):
    kind = "construction-error"


class LemmaViolated(ConstructionError):
    """Exhaustive search found no witness the halving lemma promises."""

    kind = "lemma-violated"


class DepthExhausted(ConstructionError):
    """The requested enumeration needs resolution beyond the global depth."""

    kind = "depth-exhausted"


class GranularityTooCoarse(ConstructionError):
    """Chain splitting too coarse for the requested measure budget."""

    kind = "granularity-too-coarse"


class InsufficientK(ConstructionError):
    """Weight family's k is below the schedule's final threshold."""

    kind = "insufficient-k"


class PruneFailed(ConstructionError):
    """Density pruning removed every node; no mass is invented."""

    kind = "prune-failed"


class SelectionExhausted(ConstructionError):
    """Sparse selection kept fewer points than requested."""

    kind = "exhausted"


class SearchExhausted(ConstructionError):
    """Deterministic parameter search ended without a witness."""

    kind = "not-found"
