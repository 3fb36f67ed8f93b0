"""Exception hierarchy for the HAL-runtime reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures without masking programming
errors in their own code.
"""

from __future__ import annotations

import signal


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """The discrete-event engine was driven into an invalid state."""


class CausalityError(SimulationError):
    """An event was scheduled in the simulated past."""


class TopologyError(ReproError):
    """An invalid node id or partition shape was used."""


class NetworkError(ReproError):
    """The interconnect model rejected a transmission."""


class NodeFailure(ReproError):
    """A worker process of a distributed backend died.

    ``node`` is the dead worker's node id and ``exitcode`` its exit
    status as :attr:`multiprocessing.Process.exitcode` reports it: a
    negative value ``-N`` means the process was killed by signal ``N``
    (the message names the signal), ``None`` that it had not been
    reaped yet.
    """

    def __init__(
        self, node: int, exitcode: "int | None", *, detail: str = ""
    ) -> None:
        if exitcode is None:
            how = "lost its control pipe"
        elif exitcode < 0:
            try:
                sig = signal.Signals(-exitcode).name
            except ValueError:
                sig = f"signal {-exitcode}"
            how = f"was killed by {sig}"
        else:
            how = f"exited with code {exitcode}"
        message = f"worker process for node {node} {how}"
        super().__init__(f"{message}: {detail}" if detail else message)
        self.node = node
        self.exitcode = exitcode


class HandlerError(ReproError):
    """An active-message handler was missing or misused."""


class NameServiceError(ReproError):
    """The distributed name server was driven into an invalid state."""


class UnknownActorError(NameServiceError):
    """A mail address does not (and can never) resolve to an actor."""


class MigrationError(ReproError):
    """An actor migration request could not be honoured."""


class DeliveryError(ReproError):
    """A message could not be delivered to its target actor."""


class SchedulingError(ReproError):
    """The dispatcher or an inline-invocation plan was misused."""


class ConstraintError(ReproError):
    """A local synchronization constraint was declared incorrectly."""


class ContinuationError(ReproError):
    """A join continuation was used after firing or with bad slots."""


class BehaviorError(ReproError):
    """A behaviour definition is malformed (bad method, bad become)."""


class CompileError(ReproError):
    """The HAL compiler could not analyse or lower a behaviour.

    Carries the position of the offending construct when known:
    ``behavior`` and ``method`` name the method, ``lineno`` is the
    absolute line in the defining source file (so editors and CI logs
    can point straight at it).
    """

    def __init__(
        self,
        message: str,
        *,
        behavior: "str | None" = None,
        method: "str | None" = None,
        lineno: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.behavior = behavior
        self.method = method
        self.lineno = lineno


class TypeInferenceError(CompileError):
    """Constraint-based type inference found an inconsistency."""


class GroupError(ReproError):
    """An actor-group (``grpnew``) operation failed."""


class LoadError(ReproError):
    """The program load module rejected an executable."""


class FlowControlError(ReproError):
    """The bulk-transfer flow-control protocol was violated."""


class ReliabilityError(ReproError):
    """The reliable-delivery sublayer exhausted its retry budget."""


class InvariantViolation(ReproError):
    """A post-run invariant check failed (see :mod:`repro.sim.invariants`)."""
