"""Multi-slot inventory: expand each vendor into k per-slot vendors.

The Multi-Slot Tag Assignment formulation (Ali et al., arXiv:2409.09623)
generalizes the MCKP substrate to vendors offering ``k`` display slots.
Rather than teaching every kernel about slots, we *expand the catalogue*:
each base vendor becomes ``k`` ordinary :class:`~repro.core.entities.
Vendor` slot-vendors sharing its location, radius, and tags, with the
budget split evenly across slots.  Eq. 4/5 kernels, the columnar engine,
and GREEDY/LP/RECON/O-AFA then solve over slot-vendors without any
kernel changes -- a slot-vendor *is* a vendor.  The :class:`SlotMap`
records the id mapping so results can be folded back per base vendor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.entities import Vendor
from repro.core.problem import MUAAProblem

from repro.scenario.base import Scenario, ScenarioRun

__all__ = [
    "SlotMap",
    "MultiSlotScenario",
    "expand_vendor_slots",
    "expand_problem",
]


@dataclass(frozen=True)
class SlotMap:
    """Bookkeeping for a slot-expanded vendor catalogue.

    Attributes:
        k: Slots per base vendor.
        base_of: slot-vendor id -> base vendor id.
        slot_of: slot-vendor id -> slot index in ``range(k)``.
    """

    k: int
    base_of: Dict[int, int]
    slot_of: Dict[int, int]

    @property
    def n_base(self) -> int:
        """Number of base vendors the expansion covers."""
        return len(set(self.base_of.values()))

    def slots_of_base(self, base_id: int) -> Tuple[int, ...]:
        """Slot-vendor ids of one base vendor, in slot order."""
        hits = [
            (self.slot_of[sid], sid)
            for sid, bid in self.base_of.items()
            if bid == base_id
        ]
        return tuple(sid for _, sid in sorted(hits))

    def fold_spend(self, spend_by_vendor: Dict[int, float]) -> Dict[int, float]:
        """Aggregate per-slot-vendor spend back onto base vendor ids."""
        folded: Dict[int, float] = {}
        for sid, amount in spend_by_vendor.items():
            base = self.base_of.get(sid, sid)
            folded[base] = folded.get(base, 0.0) + amount
        return folded


def expand_vendor_slots(vendors, k: int):
    """Expand each vendor into ``k`` slot-vendors with fresh ids.

    Slot-vendors get sequential ids (``base_row * k + slot``, remapped
    onto a fresh contiguous range so ids stay dense regardless of the
    input id space), the base vendor's location/radius/tags, and
    ``budget / k`` each -- total spend capacity is conserved exactly up
    to float division.

    Returns:
        ``(slot_vendors, slot_map)``.
    """
    if k < 1:
        raise ValueError(f"slot count must be >= 1, got {k}")
    slot_vendors = []
    base_of: Dict[int, int] = {}
    slot_of: Dict[int, int] = {}
    next_id = 0
    for vendor in vendors:
        share = vendor.budget / k
        for slot in range(k):
            slot_vendors.append(
                Vendor(
                    vendor_id=next_id,
                    location=vendor.location,
                    radius=vendor.radius,
                    budget=share,
                    tags=vendor.tags,
                )
            )
            base_of[next_id] = vendor.vendor_id
            slot_of[next_id] = slot
            next_id += 1
    return slot_vendors, SlotMap(k=k, base_of=base_of, slot_of=slot_of)


def expand_problem(problem: MUAAProblem, k: int) -> MUAAProblem:
    """A new problem over the slot-expanded vendor catalogue.

    Customers, ad types, utility model, and every configuration knob
    (pair validator, engine policy, parallel config, dtype policy)
    carry over unchanged; only the vendor list is expanded and the
    resulting problem carries the :class:`SlotMap` for fold-back.
    ``k == 1`` still re-ids vendors onto a dense range, so callers
    wanting the identity should use :class:`~repro.scenario.base.
    SingleSlotStatic` instead.
    """
    slot_vendors, slot_map = expand_vendor_slots(problem.vendors, k)
    return MUAAProblem(
        customers=problem.customers,
        vendors=slot_vendors,
        ad_types=problem.ad_types,
        utility_model=problem.utility_model,
        pair_validator=problem.pair_validator,
        use_engine=problem._use_engine,
        parallel=problem.parallel_config,
        dtype=problem.dtype_policy,
        slot_map=slot_map,
    )


class MultiSlotScenario(Scenario):
    """Each vendor offers ``k`` ad slots (slot-expanded catalogue)."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError(
                f"multi-slot scenarios need k >= 2 (got {k}); "
                "k=1 is SingleSlotStatic"
            )
        self.k = k
        self.name = f"multi-slot-{k}"
        self.description = (
            f"Each vendor split into {k} per-slot vendors (budget/{k} "
            "each); kernels and solvers run unchanged over slot-vendors."
        )

    def realize(self, problem: MUAAProblem, seed: int) -> ScenarioRun:
        return ScenarioRun(
            problem=expand_problem(problem, self.k),
            moves=None,
            scenario=self.name,
        )
