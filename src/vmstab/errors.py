"""Error types raised by the stability pipeline.

Each error carries enough context (measured values, thresholds) to be
actionable from a batch run log.
"""


class VmstabError(Exception):
    """Base class for all package errors."""


class ConfigError(VmstabError):
    """Bad or inconsistent run configuration (unknown key, bad value)."""


class PipelineError(VmstabError):
    """A downstream stage failed for a non-config reason."""


class QuadratureTailError(VmstabError):
    """Velocity-domain truncation error estimate exceeds the tolerance."""

    def __init__(self, estimate: float, tol: float):
        self.estimate = estimate
        self.tol = tol
        super().__init__(
            f"velocity quadrature tail estimate {estimate:.3e} exceeds tolerance {tol:.3e}"
        )


class DriftExceeded(VmstabError):
    """Invariant drift along an integrated trajectory exceeded its budget."""

    def __init__(self, measured: float, budget: float):
        self.measured = measured
        self.budget = budget
        super().__init__(
            f"invariant drift {measured:.3e} exceeds budget {budget:.3e}"
        )


class AsymmetryTooLarge(VmstabError):
    """Assembled operator block violates the symmetry budget."""

    def __init__(self, name: str, residual: float, budget: float):
        self.name = name
        self.residual = residual
        self.budget = budget
        super().__init__(
            f"block {name}: asymmetry residual {residual:.3e} exceeds {budget:.3e}"
        )


class DegenerateCutoff(VmstabError):
    """Spectral truncation index falls inside a near-degenerate cluster."""

    def __init__(self, name: str, n: int, gap: float, threshold: float):
        self.name = name
        self.n = n
        self.gap = gap
        self.threshold = threshold
        super().__init__(
            f"{name}: eigenvalue gap {gap:.3e} at cutoff n={n} below threshold {threshold:.3e}"
        )


class KernelOverlap(VmstabError):
    """Coupling block does not annihilate the kernel of the operator being
    inverted, so the reduced operator is ill-defined."""

    def __init__(self, overlap: float, threshold: float):
        self.overlap = overlap
        self.threshold = threshold
        super().__init__(
            f"kernel overlap {overlap:.3e} exceeds threshold {threshold:.3e}"
        )


class SmallTAnchorFailed(VmstabError):
    """Negative-eigenvalue count at the small-T anchor is not n+1."""

    def __init__(self, T: float, n: int, count: int):
        self.T = T
        self.n = n
        self.count = count
        super().__init__(
            f"negative count {count} at T={T:.3e} differs from n+1={n + 1}"
        )


class NoCrossing(VmstabError):
    """Negative-eigenvalue counts agree at both bracket ends."""

    def __init__(self, bracket: tuple, count: int):
        self.bracket = bracket
        self.count = count
        super().__init__(
            f"counts equal ({count}) at both ends of bracket {bracket}; nothing to locate"
        )


class BranchAmbiguity(VmstabError):
    """Two eigenvalue branches cross zero closer than the resolution limit."""

    def __init__(self, T0: float, separation: float):
        self.T0 = T0
        self.separation = separation
        super().__init__(
            f"two branches cross near T={T0:.6g} within {separation:.3e}; "
            "refine the bracket or perturb the configuration"
        )


class TruncationError(VmstabError):
    """Line-domain truncation leaves too much weight mass outside."""

    def __init__(self, tail_fraction: float, tol: float):
        self.tail_fraction = tail_fraction
        self.tol = tol
        super().__init__(
            f"weight mass fraction {tail_fraction:.3e} beyond the truncated "
            f"domain exceeds {tol:.3e}"
        )
