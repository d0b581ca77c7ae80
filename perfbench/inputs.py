"""Seeded `.dgm` model text for the benchmark workloads.

Every model is a function of (family, size, variant); a workload seed only
chooses variants and their order.  Keeping the variant space finite means the
expected report of every input the benchmark can ever run is recorded in
`golden.json` (see `record.py`).

All generated models load with full validation:

- Nilmanifold models: x1..xn closed, each d z_j a small-integer sum of
  products x_a x_b.  d d = 0 holds because the x are closed, and the exterior
  algebra has nothing above degree n + m, so the formal-dimension audit passes.
- Two-step pairs over a nilmanifold base with one z: F = d z, Fbar a closed
  2-form, H = -(z Fbar).  Then dH = -F Fbar, which is Maurer-Cartan.
- Self-dual pairs: F = Fbar = d z + w with w a single product x_a x_b, so
  w^2 = 0 and F^2 = d(z (F + w)); H = -(z (F + w)).
"""

from __future__ import annotations

import itertools
import random

COEFFS = (-2, -1, 1, 2)


def _term(coeff: int, factors: str, first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    mag = abs(coeff)
    body = factors if mag == 1 else f"{mag} {factors}"
    if first:
        return f"{sign}{body}"
    return f" {sign} {body}"


def poly(terms) -> str:
    """Format [(coeff, 'x1 x2'), ...] without a leading unary plus."""
    return "".join(_term(c, f, i == 0) for i, (c, f) in enumerate(terms))


def _rng(*key) -> random.Random:
    return random.Random("/".join(str(k) for k in key))


def _random_form(rng, names, arity, count):
    combos = list(itertools.combinations(names, arity))
    picks = sorted(rng.sample(combos, count))
    return [(rng.choice(COEFFS), " ".join(p)) for p in picks]


def _header(name, n, m, fd=None):
    lines = [f"model {name}", f"dim {fd if fd is not None else n + m}"]
    lines += [f"gen x{i} : 1" for i in range(1, n + 1)]
    lines += [f"gen z{j} : 1" for j in range(1, m + 1)]
    return lines


def _xs(n):
    return [f"x{i}" for i in range(1, n + 1)]


def nilmanifold(n: int, m: int, variant: int) -> str:
    """2-step nilmanifold model with a closed degree-3 twist `let h`."""
    lines = _header(f"nil{n}_{m}_v{variant}", n, m)
    rng = _rng("nil", n, m, variant)
    for j in range(1, m + 1):
        lines.append(f"d z{j} = {poly(_random_form(rng, _xs(n), 2, rng.randint(2, 3)))}")
    rng = _rng("twist", n, m, variant)
    lines.append(f"let h = {poly(_random_form(rng, _xs(n), 3, rng.randint(1, 2)))}")
    return "\n".join(lines) + "\n"


def torus(n: int) -> str:
    lines = [f"model t{n}", f"dim {n}"] + [f"gen x{i} : 1" for i in range(1, n + 1)]
    lines.append("let h = x1 x2 x3")
    return "\n".join(lines) + "\n"


def pair(n: int, variant: int, selfdual: bool = False) -> str:
    """Two-step pair over an (n+1)-dimensional nilmanifold base, MC by construction."""
    kind = "sd" if selfdual else "pair"
    rng = _rng(kind, n, variant)
    dz = _random_form(rng, _xs(n), 2, rng.randint(2, 3))
    lines = _header(f"{kind}{n}_v{variant}", n, 0, fd=n + 1) + ["gen z : 1"]
    lines.append(f"d z = {poly(dz)}")
    lines += ["fiber q : 1", "fiber t : 2"]
    if selfdual:
        w = (1, " ".join(rng.sample(_xs(n), 2)))
        f = poly(dz + [w])
        lines += [f"F = {f}", f"Fbar = {f}", f"H = -(z ({poly(dz + [(2, w[1])])}))"]
    else:
        fbar = poly(_random_form(rng, _xs(n), 2, rng.randint(1, 3)))
        lines += [f"F = {poly(dz)}", f"Fbar = {fbar}", f"H = -(z ({fbar}))"]
    return "\n".join(lines) + "\n"
