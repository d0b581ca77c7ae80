"""Command line surface: validation, cohomology, duality checks, identity suites.

Every command prints a deterministic text report to stdout and optionally
writes line-oriented key=value records with --report.  Exit codes: 0 when all
requested checks pass, 1 when a check fails, 2 for usage or model errors.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import List, Optional

from .cohomology import (
    betti,
    degree_cap,
    periodicity_check,
    twisted_betti,
)
from .derivations import (
    Derivation,
    commutator,
    maurer_cartan_check,
)
from .graded import format_element
from .parser import ModelFileError, load_path
from .sampling import random_contraction, random_derivation, random_element
from .symmetries import (
    SymmetryError,
    bn_bracket,
    bn_element,
    bn_one_form_action,
    bn_pairing,
    bn_two_form_action,
    derived_bracket,
    derived_jacobi_residue,
    derived_leibniz_residue,
    e6_element,
    e6_pairing,
    e6_six_form_action,
    e6_three_form_action,
    form_parts,
    is_selfdual_fixed,
    is_symmetry,
    selfdual_fixed_part,
    selfdual_phi,
    sym0_action_residue,
    sym0_dimensions,
    symmetry,
)
from .tduality import (
    TDualityError,
    dualize,
    les_check,
    ses_verify,
    tduality_chain_map,
    tduality_iso_check,
)

FROZEN_CHAIN_SIGN = 1


class Report:
    """Ordered key=value records mirrored next to the human-readable text."""

    def __init__(self):
        self.records: List[str] = []

    def add(self, key, value):
        if isinstance(value, bool):
            value = "pass" if value else "fail"
        self.records.append(f"{key}={value}")

    def write(self, path: Optional[str]):
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(self.records) + "\n")


def _need_bundle(mf, shape=None):
    """The model's bundle; it must exist and, if shape is given, have that shape."""
    wanted = {
        None: "a bundle",
        "two_step": "a two-step bundle (fibers q:1, t:2)",
        "flux": "a flux bundle (fibers q:3, t:6)",
    }[shape]
    if mf.bundle is None or shape not in (None, mf.bundle.shape):
        raise ModelFileError("shape", 0, 1, f"this command needs {wanted}")
    return mf.bundle


def cmd_validate(mf, args, report):
    model = mf.model
    report.add("generators", len(model.generators))
    report.add("formal_dimension", model.formal_dimension)
    print(f"model {mf.name or '?'}: {len(model.generators)} generators, "
          f"formal dimension {model.formal_dimension}")
    for g in model.generators:
        d_val = model.differential.get(g.name, model.zero())
        print(f"  gen {g.name} : {g.degree}   d -> {format_element(d_val)}")
    if mf.bundle is not None:
        report.add("shape", mf.bundle.shape)
        report.add("maurer_cartan", True)
        forms = ", ".join(f"{k} = {format_element(v)}" for k, v in sorted(mf.bundle.structural.items()))
        print(f"bundle {mf.bundle.shape}: {forms}")
        print("maurer-cartan: pass")
    print("validation: ok")
    return True


def cmd_betti(mf, args, report):
    space = mf.bundle if mf.bundle is not None else mf.model
    lo, hi = args.lo, args.hi if args.hi is not None else degree_cap(space)
    table = betti(space, lo, hi)
    print(f"betti numbers of {mf.name or '?'} for degrees {lo}..{hi}")
    for k, dim in table.items():
        print(f"  H^{k} = {dim}")
        report.add(f"betti.{k}", dim)
    return True


def cmd_twisted(mf, args, report):
    structural = mf.bundle.structural if mf.bundle is not None else {}
    if args.form:
        if args.form not in mf.elements:
            raise ModelFileError("shape", 0, 1, f"no let-bound element named {args.form!r}")
        twist = mf.elements[args.form]
    elif "H" in structural:
        twist = structural["H"]
    elif "Theta" in structural:
        twist = structural["Theta"]
    else:
        twist = mf.model.zero()
    ev, od = twisted_betti(mf.model, twist, cap=args.cap)
    report.add("twisted.ev", ev)
    report.add("twisted.od", od)
    print(f"twisted cohomology of {mf.name or '?'} by {format_element(twist)}")
    print(f"  even: {ev}")
    print(f"  odd:  {od}")
    return True


def cmd_mc_check(mf, args, report):
    if mf.bundle is None:
        print("no bundle declared; base differential already validated")
        return True
    result = maurer_cartan_check(mf.bundle.q)
    if result:
        print("maurer-cartan: pass")
        return True
    print(f"maurer-cartan: fail on generator {result.witness}")
    print(f"  residue = {format_element(result.residue)}")
    report.add("witness", result.witness)
    report.add("residue", format_element(result.residue))
    return False


def cmd_tdualize(mf, args, report):
    pair = dualize(_need_bundle(mf, "two_step"))
    print(f"dual of {mf.name or '?'}:")
    for key in ("F", "Fbar", "H"):
        text = format_element(pair.pbar.structural[key])
        print(f"  {key} = {text}")
        report.add(f"dual.{key}", text)
    print("correspondence gauge equivalence: pass")
    return True


def cmd_tmap_verify(mf, args, report):
    bundle = _need_bundle(mf, "two_step")
    pair = dualize(bundle)
    cap = args.cap if args.cap is not None else degree_cap(bundle)
    sign = tduality_chain_map(pair).verify(cap)
    report.add("cap", cap)
    report.add("sign", sign)
    print(f"comparison map intertwines through degree {cap}: sign {sign:+d}")
    return sign == FROZEN_CHAIN_SIGN


def cmd_ses_verify(mf, args, report):
    bundle = _need_bundle(mf, "two_step")
    pair = dualize(bundle)
    cap = args.cap if args.cap is not None else degree_cap(bundle)
    ok, rows = ses_verify(pair, cap)
    source_betti = betti(pair.p, 0, cap)
    target_betti = betti(pair.pbar, 0, cap)
    print(f"short exact sequence check through degree {cap}")
    print("  k   dim C^k(P)  ker T  base  im T  dim C^(k-1)(dual)  H^k(P)  H^(k-1)(dual)  ok")
    for row in rows:
        k = row.degree
        h_target = target_betti[k - 1] if k >= 1 else 0
        print(
            f"  {k:<3} {row.dim_p:<11} {row.dim_kernel:<6} {row.dim_base:<5} "
            f"{row.rank_t:<5} {row.dim_target:<18} {source_betti[k]:<7} {h_target:<14} "
            f"{'pass' if row.ok else 'fail'}"
        )
        report.add(f"ses.{k}", row.ok)
        report.add(f"betti.source.{k}", source_betti[k])
        report.add(f"betti.target.{k}", h_target)
    les_ok, _ = les_check(pair, 0, max(2, bundle.formal_dimension))
    print(f"long exact sequence ranks: {'pass' if les_ok else 'fail'}")
    report.add("les", les_ok)
    return ok and les_ok


def cmd_iso_check(mf, args, report):
    bundle = _need_bundle(mf, "two_step")
    pair = dualize(bundle)
    k = args.k if args.k is not None else bundle.formal_dimension
    ok, info = tduality_iso_check(pair, k)
    report.add("k", k)
    for key, value in sorted(info.items()):
        report.add(key, value)
    print(
        f"H^{k + 1}(P) vs H^{k}(dual): dims {info['dim_source']}/{info['dim_target']}, "
        f"induced rank {info['induced_rank']}: {'pass' if ok else 'fail'}"
    )
    periodic = k + 1 <= bundle.formal_dimension or periodicity_check(pair.p, k + 1, 1)
    report.add("periodicity", periodic)
    return ok


def cmd_sym(mf, args, report):
    structured, kernel = sym0_dimensions(_need_bundle(mf))
    report.add("sym0.structured", structured)
    report.add("sym0.kernel", kernel)
    print(f"degree-0 symmetries of {mf.name or '?'}:")
    print(f"  structured family solutions: {structured}")
    print(f"  full kernel of [Q, .]:       {kernel}")
    if structured != kernel:
        print("  note: extra degree-0 fields outside the structured family")
    for name, el in sorted(mf.symmetries.items()):
        if el.degree == 0:
            member = is_symmetry(el)
            print(f"  sym {name}: degree 0 membership {'pass' if member else 'fail'}")
            report.add(f"member.{name}", member)
    return True


def cmd_derived_bracket(mf, args, report):
    for name in (args.a, args.b):
        if name not in mf.symmetries:
            raise ModelFileError("shape", 0, 1, f"no sym element named {name!r}")
    a, b = mf.symmetries[args.a], mf.symmetries[args.b]
    out = derived_bracket(a, b)
    report.add("a", args.a)
    report.add("b", args.b)
    report.add("degree", out.degree)
    print(f"derived bracket |{args.a}, {args.b}| (degree {out.degree}):")
    for key in sorted(out.parts):
        value = out.parts[key]
        if isinstance(value, Derivation):
            body = ", ".join(
                f"{g} -> {format_element(v)}" for g, v in sorted(value.values.items())
            )
            text = body or "0"
        else:
            text = format_element(value)
        print(f"  {key} = {text}")
        report.add(f"part.{key}", text)
    return True


def _closed_basis_forms(model, degree, limit=4):
    out = []
    for mono in model.basis(degree):
        el = model.monomial_element(mono)
        if model.d(el).is_zero():
            out.append(el)
        if len(out) == limit:
            break
    return out


def _vanishes(residue):
    """Check body for an identity: raise SymmetryError unless the residue is zero."""
    if not residue.is_zero():
        raise SymmetryError(f"nonzero residue {residue!r}")


def _run_laws(title, laws, report):
    """Run (law names, trial count, trial) rows in order and report each law.

    trial(i) draws the inputs of trial i and returns one check per law name;
    a check raises SymmetryError when its law fails.  A failed law is not
    checked again, but its later trials still draw their inputs, so the draw
    order does not depend on which laws fail.  A row whose trial count can be
    0 carries a fourth item, the reason; with no trials its laws are reported
    as skipped, not as passing, and leave the result alone.
    """
    print(title)
    ok = True
    for names, count, trial, *why in laws:
        if not count:
            for name in names:
                print(f"  {name}: skipped ({why[0]})")
                report.add(f"law.{name}", "skip")
            continue
        failures = {}
        for i in range(count):
            for name, check in zip(names, trial(i)):
                if name in failures:
                    continue
                try:
                    check()
                except SymmetryError as err:
                    failures[name] = f"trial {i}: {err}"
        for name in names:
            report.add(f"law.{name}", name not in failures)
            if name in failures:
                print(f"  {name}: fail ({failures[name]})")
                report.add(f"witness.{name}", failures[name])
            else:
                print(f"  {name}: pass")
        ok = ok and not failures
    return ok


def cmd_bn_check(mf, args, report):
    bundle = _need_bundle(mf, "two_step")
    if bundle.structural["F"] != bundle.structural["Fbar"]:
        raise ModelFileError("shape", 0, 1, "bn-check needs a self-dual bundle (F = Fbar)")
    rng = random.Random(args.seed)
    base = bundle.base
    ones = _closed_basis_forms(base, 1)
    twos = _closed_basis_forms(base, 2)

    def triple():
        return bn_element(
            bundle,
            iota=random_contraction(base, rng),
            f=rng.randint(-2, 2),
            c=random_element(base, 1, rng),
        )

    def displays(_):
        a, b = triple(), triple()

        def bracket():
            if not is_selfdual_fixed(bn_bracket(a, b)):
                raise SymmetryError("bracket left the fixed family")

        return bracket, lambda: bn_pairing(a, b)

    def involution(_):
        x = _random_minus_one(bundle, rng)

        def check():
            if selfdual_phi(selfdual_phi(x)) != x:
                raise SymmetryError("automorphism is not an involution")
            if not is_selfdual_fixed(selfdual_fixed_part(x)):
                raise SymmetryError("projection failed")

        return (check,)

    def actions(_):
        t = triple()

        def check():
            for one in ones:
                bn_one_form_action(bundle, one, t)
            for two in twos:
                bn_two_form_action(bundle, two, t)

        return (check,)

    report.add("seed", args.seed)
    return _run_laws(
        f"B-structure checks on {mf.name or '?'} ({args.trials} trials, seed {args.seed})",
        [
            (("bracket-display", "pairing-display"), args.trials, displays),
            (("involution",), args.trials, involution),
            (
                ("action-displays",),
                max(1, args.trials // 4) if ones or twos else 0,
                actions,
                "no closed 1- or 2-form on the base",
            ),
        ],
        report,
    )


def cmd_e6_check(mf, args, report):
    bundle = _need_bundle(mf, "flux")
    rng = random.Random(args.seed)
    base = bundle.base
    threes = _closed_basis_forms(base, 3)
    sixes = _closed_basis_forms(base, 6)

    def displays(_):
        a, b = _random_minus_one(bundle, rng), _random_minus_one(bundle, rng)
        return lambda: derived_bracket(a, b), lambda: e6_pairing(a, b)

    def actions(_):
        t = _random_minus_one(bundle, rng)

        def check():
            for el in threes:
                e6_three_form_action(bundle, el, t)
            for el in sixes:
                e6_six_form_action(bundle, el, t)

        return (check,)

    report.add("seed", args.seed)
    return _run_laws(
        f"flux-structure checks on {mf.name or '?'} ({args.trials} trials, seed {args.seed})",
        [
            (("bracket-display", "pairing-display"), args.trials, displays),
            (
                ("action-displays",),
                max(1, args.trials // 4) if threes or sixes else 0,
                actions,
                "no closed 3- or 6-form on the base",
            ),
        ],
        report,
    )


def _random_minus_one(bundle, rng):
    """A random degree -1 structured symmetry of a two-step or flux bundle."""
    base = bundle.base
    if bundle.shape == "flux":
        return e6_element(
            bundle,
            iota=random_contraction(base, rng),
            s2=random_element(base, 2, rng),
            s5=random_element(base, 5, rng),
        )
    return symmetry(
        bundle,
        -1,
        iota=random_contraction(base, rng),
        f=rng.randint(-2, 2),
        c=random_element(base, 1, rng),
        fbar=rng.randint(-2, 2),
    )


def _structured_samples(bundle, rng):
    base = bundle.base
    if bundle.shape == "two_step":
        return [_random_minus_one(bundle, rng), symmetry(bundle, -2, h=rng.randint(-2, 2))]
    if bundle.shape == "flux":
        return [
            _random_minus_one(bundle, rng),
            symmetry(
                bundle,
                -2,
                eta1=random_element(base, 1, rng),
                c4=random_element(base, 4, rng),
            ),
        ]
    n = bundle.total.generator_named(bundle.fiber_names[0]).degree
    out = [
        symmetry(
            bundle, -1, iota=random_contraction(base, rng), a=random_element(base, n - 1, rng)
        )
    ]
    for k in range(2, n + 1):
        out.append(symmetry(bundle, -k, eta=random_element(base, n - k, rng)))
    return out


def _symmetry_actors(bundle, limit=3):
    """Degree-0 structured members found among closed basis forms."""
    actors = []
    for key, degree in form_parts(bundle, 0):
        for el in _closed_basis_forms(bundle.base, degree, limit=6):
            candidate = symmetry(bundle, 0, **{key: el})
            if is_symmetry(candidate):
                actors.append(candidate)
            if len(actors) >= limit:
                return actors
    return actors


def cmd_identities(mf, args, report):
    bundle = _need_bundle(mf)
    rng = random.Random(args.seed)
    total = bundle.total
    actors = _symmetry_actors(bundle)
    per_actor = max(1, args.trials // 4)

    def jacobi(_):
        degs = [rng.choice([-2, -1, 0, 1]) for _ in range(3)]
        a, b, c = (random_derivation(total, dg, rng) for dg in degs)
        sign = -1 if (degs[0] % 2 and degs[1] % 2) else 1

        def check():
            lhs = commutator(a, commutator(b, c))
            rhs = commutator(commutator(a, b), c) + sign * commutator(b, commutator(a, c))
            _vanishes(lhs - rhs)

        return (check,)

    def leibniz(_):
        deg = rng.choice([-1, 0, 1])
        d = random_derivation(total, deg, rng)
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        x = random_element(total, da, rng)
        y = random_element(total, db, rng)
        sign = -1 if (deg % 2 and da % 2) else 1
        return (lambda: _vanishes(d(x * y) - (d(x) * y + sign * (x * d(y)))),)

    def derived(_):
        picks = _structured_samples(bundle, rng)
        a, b, c = (rng.choice(picks).realized for _ in range(3))
        return (
            lambda: _vanishes(derived_leibniz_residue(bundle, a, b)),
            lambda: _vanishes(derived_jacobi_residue(bundle, a, b, c)),
        )

    def action(i):
        picks = _structured_samples(bundle, rng)
        b, c = (rng.choice(picks).realized for _ in range(2))
        actor = actors[i // per_actor].realized
        return (lambda: _vanishes(sym0_action_residue(bundle, actor, b, c)),)

    report.add("seed", args.seed)
    report.add("trials", args.trials)
    return _run_laws(
        f"identity suite on {mf.name or '?'} ({args.trials} trials, seed {args.seed})",
        [
            (("jacobi",), args.trials, jacobi),
            (("leibniz",), args.trials, leibniz),
            (("derived-leibniz", "derived-jacobi"), args.trials, derived),
            (("sym0-action",), len(actors) * per_actor, action, "no degree-0 actor"),
        ],
        report,
    )


def _trial_count(text):
    """Type of --trials: a law checked on no trial would pass vacuously."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"needs at least one trial, got {count}")
    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="dgcalc",
        description="exact calculus on shifted-line bundles over CDGA models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("file", help="path to a .dgm model file")
        p.add_argument("--report", help="write key=value records to this path")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn, validate=True)
        return p

    def suite(trials):
        return {"--seed": dict(type=int, default=0), "--trials": dict(type=_trial_count, default=trials)}

    add("validate", cmd_validate)
    add(
        "betti",
        cmd_betti,
        **{"--lo": dict(type=int, default=0), "--hi": dict(type=int, default=None)},
    )
    add(
        "twisted",
        cmd_twisted,
        **{"--form": dict(default=None), "--cap": dict(type=int, default=None)},
    )
    # mc-check reports a Maurer-Cartan failure instead of rejecting the file
    add("mc-check", cmd_mc_check).set_defaults(validate=False)
    add("tdualize", cmd_tdualize)
    add("tmap-verify", cmd_tmap_verify, **{"--cap": dict(type=int, default=None)})
    add("ses-verify", cmd_ses_verify, **{"--cap": dict(type=int, default=None)})
    add("iso-check", cmd_iso_check, **{"--k": dict(type=int, default=None)})
    add("sym", cmd_sym)
    add(
        "derived-bracket",
        cmd_derived_bracket,
        **{"--a": dict(required=True), "--b": dict(required=True)},
    )
    add("bn-check", cmd_bn_check, **suite(25))
    add("e6-check", cmd_e6_check, **suite(10))
    add("identities", cmd_identities, **suite(25))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Load the file, run the command and write its records; returns the exit code.

    A command is fn(model_file, args, report) -> bool, true when its checks pass.
    """
    from .cohomology import CohomologyError
    from .derivations import BundleError, DerivationError
    from .graded import GradedError

    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report()
    try:
        mf = load_path(args.file, validate=args.validate)
        report.add("command", args.command)
        report.add("model", mf.name or "?")
        ok = args.fn(mf, args, report)
        report.add("status", ok)
        report.write(args.report)
    except (
        ModelFileError,
        TDualityError,
        SymmetryError,
        CohomologyError,
        BundleError,
        DerivationError,
        GradedError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
