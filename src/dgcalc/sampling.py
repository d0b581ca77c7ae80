"""Seeded random elements and derivations for the identity suites."""

from __future__ import annotations

import random

from .derivations import Derivation, DgBundle
from .graded import Element, Model
from .symmetries import SymElement, form_parts, symmetry


def random_element(model: Model, degree: int, rng: random.Random, density: float = 0.6) -> Element:
    """A random rational combination of the degree basis, with numerators in
    -3..3 over 1 or 2; may be zero."""
    nums = {}
    for m in model.basis(degree):
        if rng.random() < density:
            # the draws of randint(-3, 3) and 2 // randint(1, 2), at less cost
            num = rng.choice(range(-3, 4))
            if num:
                nums[m] = num * rng.choice((2, 1))
    return Element._of(model, nums, 2)


def random_derivation(model: Model, degree: int, rng: random.Random, density: float = 0.5) -> Derivation:
    """Random derivation of the given degree; values on a sparse set of generators."""
    values = {}
    for g in model.generators:
        if rng.random() < density:
            v = random_element(model, g.degree + degree, rng)
            if not v.is_zero():
                values[g.name] = v
    return Derivation(model, degree, values)


def random_contraction(model: Model, rng: random.Random) -> Derivation:
    """Degree -1 derivation supported on degree-1 generators with rational values.

    Members of such families pairwise anticommute to zero, like contractions
    against commuting coordinate fields, which the structured bracket tables
    take for granted.
    """
    values = {}
    for g in model.generators:
        if g.degree == 1 and rng.random() < 0.7:
            c = rng.randint(-2, 2)
            if c:
                values[g.name] = model.scalar(c)
    return Derivation(model, -1, values)


def random_symmetry(bundle: DgBundle, degree: int, rng: random.Random) -> SymElement:
    """A random contraction in degree -1, then one value per form part of
    symmetries.SHAPES: an integer in -2..2 for a degree-0 part."""
    parts = {"iota": random_contraction(bundle.base, rng)} if degree == -1 else {}
    for name, deg in form_parts(bundle, degree):
        parts[name] = rng.randint(-2, 2) if deg == 0 else random_element(bundle.base, deg, rng)
    return symmetry(bundle, degree, **parts)
