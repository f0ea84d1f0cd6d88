"""The exception type shared across the package."""


class ConfigurationError(ValueError):
    """A malformed, inconsistent or infeasible instance or configuration.

    Raised for instance for a function that is non-finite inside its box,
    an asymmetric or misshapen matrix, an empty or unbounded box, a
    projection radius below the admissible threshold, a Slater vector
    that is not strictly feasible, or a graph sampler that cannot produce
    a connected graph.
    """
