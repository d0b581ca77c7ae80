"""Stock CDGA models used across tests and the README examples.

Manifolds enter only through finitely generated positively graded models:
tori are exterior algebras with zero differential, and spheres and a
nilmanifold get their minimal models.
"""

from __future__ import annotations

from .graded import Model


def point() -> Model:
    return Model([], formal_dimension=0, name="point")


def torus(n: int, prefix: str = "th") -> Model:
    """Exterior algebra on n degree-1 generators, zero differential."""
    return Model(
        [(f"{prefix}{i}", 1) for i in range(1, n + 1)],
        formal_dimension=n,
        name=f"T{n}",
    )


def sphere2() -> Model:
    """Minimal model of the 2-sphere: a (deg 2), b (deg 3), db = a^2."""
    return Model(
        [("a", 2), ("b", 3)],
        formal_dimension=2,
        differential=lambda m: {"b": m.gen("a") * m.gen("a")},
        name="S2",
    )


def sphere3() -> Model:
    """Minimal model of the 3-sphere: one closed degree-3 generator."""
    return Model([("c", 3)], formal_dimension=3, name="S3")


def nilmanifold() -> Model:
    """Five-dimensional nilmanifold model: x1..x4 closed, dz = x1*x2.

    Small enough to enumerate, rich enough to separate the three structural
    equations of a two-step bundle: z*x3 is a non-closed 2-form, z*x3*x4 a
    non-closed 3-form with d(z*x3*x4) equal to the volume monomial, and
    closed F = x1*x2 + x3*x4 has F*F nonzero yet exact.
    """
    return Model(
        [("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1), ("z", 1)],
        formal_dimension=5,
        differential=lambda m: {"z": m.gen("x1") * m.gen("x2")},
        name="nil5",
    )
