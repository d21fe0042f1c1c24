"""Exception types shared across the package."""


class MultirateError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(MultirateError):
    """A requested combination of options is inconsistent or unsupported."""


class EvaluationError(MultirateError):
    """A potential or gradient evaluation returned a non-finite value.

    Carries the micro-node index at which the evaluation failed so the
    offending part of a compound step can be located.
    """

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class DivergenceError(MultirateError):
    """Newton iteration failed to reach the requested tolerance.

    Carries the last residual norm, the iterations and Newton matrix builds
    of the step, and the last contraction ratio ||F_new|| / ||F_old|| (NaN
    before the first iteration).
    """

    def __init__(self, message, residual_norm=None, iterations=None, matrix_builds=None,
                 contraction=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.matrix_builds = matrix_builds
        self.contraction = contraction


class IntegrationError(MultirateError):
    """A step of a trajectory integration failed.

    The partial trajectory computed so far is attached for diagnosis.
    """

    def __init__(self, message, partial_trajectory=None, step_index=None, cause=None):
        super().__init__(message)
        self.partial_trajectory = partial_trajectory
        self.step_index = step_index
        self.cause = cause


class AbortedStepError(MultirateError):
    """A Newton iterate became non-finite; the step was abandoned."""


class AlignmentError(MultirateError):
    """A required node time is missing from a reference trajectory."""
