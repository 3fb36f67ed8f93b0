"""repro — a reproduction of Kim & Agha (SC '95).

"Efficient Support of Location Transparency in Concurrent
Object-Oriented Programming Languages": the HAL actor-language runtime
system — distributed name server with locality descriptors, alias-based
remote-creation latency hiding, migration with FIR forwarding, join
continuations, compiler-controlled intra-node scheduling, spanning-tree
broadcast with collective scheduling, minimal flow control, and
receiver-initiated dynamic load balancing — on a deterministic
discrete-event simulation of a CM-5-class multicomputer.

Quickstart::

    from repro import HalRuntime, RuntimeConfig, behavior, method

    @behavior
    class Greeter:
        def __init__(self):
            self.greeted = 0

        @method
        def greet(self, ctx, name):
            self.greeted += 1
            return f"hello, {name}"

    rt = HalRuntime(RuntimeConfig(num_nodes=4))
    ref = rt.spawn(Greeter, at=2)
    print(rt.call(ref, "greet", "world"))
"""

from repro.actors.behavior import behavior, method
from repro.actors.constraints import disable_when
from repro.config import (
    LoadBalanceParams,
    NetworkParams,
    RuntimeConfig,
    SchedulerParams,
)
from repro.config import ReliabilityParams
from repro.errors import (
    InvariantViolation,
    NodeFailure,
    ReliabilityError,
    ReproError,
)
from repro.platform import BACKENDS, make_machine
from repro.runtime.costmodel import CostModel
from repro.runtime.groups import GroupRef
from repro.runtime.names import ActorRef, MailAddress
from repro.runtime.program import HalProgram
from repro.runtime.system import HalRuntime
from repro.sim.faults import FaultInjector, FaultPlan, FaultRule, NodeFault
from repro.sim.invariants import check_invariants

__version__ = "1.0.0"

__all__ = [
    "HalRuntime",
    "RuntimeConfig",
    "NetworkParams",
    "SchedulerParams",
    "LoadBalanceParams",
    "ReliabilityParams",
    "CostModel",
    "HalProgram",
    "behavior",
    "method",
    "disable_when",
    "ActorRef",
    "MailAddress",
    "GroupRef",
    "ReproError",
    "ReliabilityError",
    "NodeFailure",
    "InvariantViolation",
    "FaultPlan",
    "FaultRule",
    "NodeFault",
    "FaultInjector",
    "check_invariants",
    "BACKENDS",
    "make_machine",
    "__version__",
]
