"""Exception hierarchy shared by all dbmatch modules."""


class DbMatchError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DbMatchError, ValueError):
    """An input violates a contract (bad pmf, bad shape, bad range)."""


class IndependentDatabases(DbMatchError):
    """The source and its noisy view are statistically independent.

    Every symbol remapping yields a zero agreement gap, the matching
    capacity is zero, and the detection/matching pipeline cannot proceed.
    """


class DegenerateGap(DbMatchError):
    """p0 == p1 (or q0 == q1): no threshold separates the two hypotheses."""


class RunMismatch(DbMatchError):
    """Detected run count is inconsistent with the column budget (k_tilde > n)."""


class ArityMismatch(DbMatchError):
    """Run lengths / deletion set / pattern counts do not add up."""


class MemoryCapExceeded(DbMatchError):
    """Requested matrix is larger than the configured entry budget."""
