"""The one declaration of what each vectorised kernel runs and how it is built.

Every protocol with a NumPy realisation (:mod:`repro.simulator.vectorized`)
has exactly one :class:`KernelDeclaration` in :data:`KERNELS`.  Nothing else
states a kernel's modes, parameters or flags: the capability layer
(:mod:`repro.api.plan`), the kernel factory
(:meth:`repro.api.backends.VectorizedBackend.build_kernel`) and the driver
(:class:`repro.api.kernel_run.KernelRun`) all read it, so adding a kernel is
one entry here.  A kernel states its gossip once — its begin/end hooks, its
merge rule and what a push carries — and the shared base derives both the
lockstep round and the event calendar's protocol from it
(:class:`repro.simulator.vectorized._VectorizedKernel`, DESIGN.md §7 and §14),
so the event calendar (``calendar``) costs no kernel code.  Nor does the
network, which no flag names: the base loses the messages a kernel counts, and
a latency network runs on the calendar, so every kernel realises every one of
:data:`KERNEL_NETWORKS` — but Full-Transfer (``fan_out``), whose round has no
per-tick form, is realised only over an instant network.

:meth:`KernelDeclaration.build` takes the protocol parameters from the
*resolved agent protocol instance* (``spec.build_protocol()``, every default
applied), never from a literal, so a kernel default cannot drift from the
agent protocol's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping

from repro.simulator.vectorized import (
    VectorizedCountSketchReset,
    VectorizedExtrema,
    VectorizedPushSumRevert,
    VectorizedSketchCount,
)

__all__ = [
    "KERNELS",
    "KERNEL_ENVIRONMENTS",
    "KERNEL_FAILURE_MODELS",
    "KERNEL_NETWORKS",
    "KernelDeclaration",
]

#: Environments every topology-capable kernel can sample peers in: uniform
#: gossip, the static graphs :mod:`repro.simulator.sparse` realises, and
#: contact traces compiled into a per-round time-varying CSR (neighbourhood
#: environments built from raw adjacency maps stay agent-only).
KERNEL_ENVIRONMENTS = (
    "uniform",
    "ring",
    "grid",
    "random-geometric",
    "erdos-renyi",
    "spatial-grid",
    "trace",
)

#: Failure models every kernel applies (``fail_random_fraction``,
#: ``fail_extreme_fraction``, ``fail``).
KERNEL_FAILURE_MODELS = ("uncorrelated", "correlated", "explicit")

#: Networks every kernel realises, on both engines (see the module docstring).
KERNEL_NETWORKS = ("perfect", "bernoulli-loss", "latency")


@dataclass(frozen=True)
class KernelDeclaration:
    """What one protocol's kernel realises, and how to configure it.

    Attributes
    ----------
    kernel:
        The kernel class.
    modes:
        Spec gossip mode → the kernel constructor keywords realising it;
        the keys are the modes the kernel supports (the first one is the
        mode the capability matrix probes).
    params:
        Accepted ``protocol_params``: each is an attribute of the resolved
        agent protocol instance *and* a kernel constructor keyword.
    value_carrying:
        One value per host: what correlated failures order hosts by and
        value-change events rewrite (counting kernels carry none).
    fan_out:
        A round is a whole-population fan-out of several parcels per host
        (Full-Transfer): it samples no topology and has no per-tick form,
        so it runs only under uniform gossip over an instant network.
    calendar:
        Runs on the bucketed event calendar (DESIGN.md §14) through the
        ``step_subset`` / ``deliver`` / ``mass_view`` its kernel derives from
        its one merge rule.  Off for Full-Transfer (a whole-round fan-out) and
        the kernels with a begin hook, which the calendar runs a bucket at a
        time (DESIGN.md §14 "Begin hooks act a bucket at a time").
    """

    kernel: type
    modes: Mapping[str, Mapping[str, object]]
    params: FrozenSet[str]
    value_carrying: bool
    fan_out: bool = False
    calendar: bool = True

    def build(self, agent, population, mode: str, **wiring):
        """The configured kernel for the resolved agent protocol ``agent``.

        ``population`` is the host values when ``value_carrying``, else the
        host count; ``wiring`` is ``loss``/``topology``/``seed``/``probe``.
        """
        params = {name: getattr(agent, name) for name in self.params}
        return self.kernel(population, **params, **self.modes[mode], **wiring)


_PUSH_SUM_MODES = {"exchange": {"mode": "pushpull"}, "push": {"mode": "push"}}
_SKETCH_MODES = {"exchange": {"pull": True}, "push": {"pull": False}}

KERNELS: Dict[str, KernelDeclaration] = {
    "push-sum-revert": KernelDeclaration(
        kernel=VectorizedPushSumRevert,
        modes=_PUSH_SUM_MODES,
        params=frozenset({"reversion", "adaptive"}),
        value_carrying=True,
    ),
    # Static Push-Sum is Push-Sum-Revert at the kernel's default λ = 0.
    "push-sum": KernelDeclaration(
        kernel=VectorizedPushSumRevert,
        modes=_PUSH_SUM_MODES,
        params=frozenset(),
        value_carrying=True,
    ),
    "push-sum-revert-full-transfer": KernelDeclaration(
        kernel=VectorizedPushSumRevert,
        modes={"push": {"mode": "full-transfer"}},
        params=frozenset({"reversion", "parcels", "history"}),
        value_carrying=True,
        fan_out=True,
        calendar=False,
    ),
    "count-sketch-reset": KernelDeclaration(
        kernel=VectorizedCountSketchReset,
        modes=_SKETCH_MODES,
        params=frozenset({"bins", "bits", "cutoff", "identifiers_per_host"}),
        value_carrying=False,
        calendar=False,  # a begin hook (ageing)
    ),
    "sketch-count": KernelDeclaration(
        kernel=VectorizedSketchCount,
        modes=_SKETCH_MODES,
        params=frozenset({"bins", "bits", "identifiers_per_host"}),
        value_carrying=False,
    ),
    # One kernel class, two protocols: without ``cutoff`` the best value is
    # never forgotten (gossip); with the agent's integer age it resets.
    "extrema-gossip": KernelDeclaration(
        kernel=VectorizedExtrema,
        modes={"exchange": {}},
        params=frozenset({"maximum"}),
        value_carrying=True,
        calendar=False,  # a begin hook (the age that breaks ties)
    ),
    "extrema-reset": KernelDeclaration(
        kernel=VectorizedExtrema,
        modes={"exchange": {}},
        params=frozenset({"maximum", "cutoff"}),
        value_carrying=True,
        calendar=False,  # a begin hook (ageing and expiry)
    ),
}
