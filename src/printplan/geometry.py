"""Part orientation geometry.

A part is an axis-aligned box (width w, length l, height h) that can be
placed on the build plate in one of three ways:

* flat: it rests on its w x l face, so the build height is h;
* length-up: it is tipped so the length points up, occupying a w x h
  footprint with build height l;
* width-up: it is tipped so the width points up, occupying an h x l
  footprint with build height w.

Rotations within the plate plane do not change footprint area or build
height, so these three orientations are the only ones that matter for
area and height budgeting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .instance import MachineSpec, Part


class OrientationKind(str, Enum):
    """Which part dimension points up on the build plate."""

    FLAT = "flat"
    LENGTH_UP = "length_up"
    WIDTH_UP = "width_up"


@dataclass(frozen=True)
class Orientation:
    """One way of standing a part on the plate.

    height_mm is the build height in that pose and base_area_mm2 the
    plate area its footprint occupies.
    """

    kind: OrientationKind
    height_mm: float
    base_area_mm2: float


def volume_mm3(part: Part) -> float:
    """Volume of the part's bounding box in cubic millimetres."""
    return part.width_mm * part.length_mm * part.height_mm


def orientations(part: Part) -> tuple[Orientation, Orientation, Orientation]:
    """All three axis-aligned orientations of a part.

    Returned in a fixed order (flat, length-up, width-up) so callers can
    rely on stable indexing.
    """
    w, l, h = part.width_mm, part.length_mm, part.height_mm
    return (
        Orientation(OrientationKind.FLAT, h, l * w),
        Orientation(OrientationKind.LENGTH_UP, l, w * h),
        Orientation(OrientationKind.WIDTH_UP, w, h * l),
    )


def feasible_orientations(part: Part, machine: MachineSpec) -> tuple[Orientation, ...]:
    """Orientations whose build height and footprint fit the machine.

    The height must not exceed the machine's build height and the
    footprint area must not exceed the plate area.  An empty tuple means
    the part cannot be printed on that machine at all.
    """
    return tuple(
        o
        for o in orientations(part)
        if o.height_mm <= machine.height_mm and o.base_area_mm2 <= machine.base_area_mm2
    )


def min_base_area(part: Part) -> float:
    """Smallest achievable footprint; equals volume over the largest dimension."""
    return min(o.base_area_mm2 for o in orientations(part))


def max_base_area(part: Part) -> float:
    """Largest achievable footprint; equals volume over the smallest dimension."""
    return max(o.base_area_mm2 for o in orientations(part))


def total_min_footprint(parts: Iterable[Part]) -> float:
    return sum(min_base_area(p) for p in parts)
