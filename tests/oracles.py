"""Independent oracles for the exact linear algebra, the monomial core, the
commutator of derivations and the vector-field bracket, the bases and their
sizes, the ranks of the long exact sequence, twisted cohomology, the
T-duality map, the chain-map sign check, the structured symmetries and their
realized derivations, the bracket of d with one probe derivation per
unknown, the bracket-law residues with every bracket taken anew, the split
of an element by powers of one generator, the rescaling and pushforward
maps whose chain identities the tests check, a sampler of inhomogeneous
elements, the `randint` draws of the element sampler, the failing field of
models/mc_fail.dgm written out by hand, and a model of S4 x T3 for the flux
tests; tests only.  The oracles compute on exponent tuples and meet the
library's packed monomials only through `pack` and `unpack`."""

from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from math import gcd, lcm
from operator import add, mul

from dgcalc.derivations import (
    Derivation,
    DerivationError,
    DgBundle,
    commutator,
    exp_apply,
    model_differential,
)
from dgcalc.graded import Element, Model, monomial_degree, pack, unpack
from dgcalc.sampling import random_element
from dgcalc.symmetries import (
    LOWER,
    SHAPES,
    SymElement,
    _value_index,
    form_parts,
    lie_derivative,
    symmetry,
)
from dgcalc.tduality import ChainMap, TDualityError, correspondence


def coordinates(el, basis):
    """Dense coordinate vector of el in the given basis."""
    index = {m: i for i, m in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for m, c in el.terms.items():
        out[index[m]] = c
    return out


def dense_kernel(rows, ncols):
    """Right kernel of dense rational rows by Gauss-Jordan elimination over
    Fraction, to the reduced row echelon form: one dense vector per free
    column, in ascending order, 1 there and minus the reduced rows' entries
    at it on the pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [x - row[c] * y for x, y in zip(row, m[r])]
        pivots.append(c)
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][free]
        out.append(v)
    return out


def primitive(vector):
    """A dense rational vector as the primitive integer vector of the same
    direction and sign."""
    den = lcm(*[Fraction(x).denominator for x in vector])
    ints = [int(x * den) for x in vector]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints


def _integer_rows(rows):
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def bareiss_rank(rows):
    """Rank over Q by dense fraction-free (Bareiss) elimination."""
    m = _integer_rows(rows)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def merge_sign(model, left, right):
    """Normal form of (left monomial)*(right monomial): (sign, exponents) or None if zero.

    Moves each odd factor of `right` left past the odd factors of `left` after it,
    re-summing that tail for every factor: O(n^2), but free of bit tricks.
    """
    sign = 1
    odd = [g.is_odd for g in model.generators]
    for j, (a, b) in enumerate(zip(left, right)):
        if odd[j]:
            if a + b > 1:
                return None
            if b and sum(compress(left[j + 1 :], odd[j + 1 :])) % 2:
                sign = -sign
    return sign, tuple(map(add, left, right))


def apply_derivation(model, values, degree, a):
    """D(a) by the graded Leibniz rule as products of elements: for each factor
    x_i of each monomial, (-1)^{|D|(|x_1| + ... + |x_{i-1}|)} front * D(x_i) * rest."""
    n = len(model.generators)
    out = model.zero()
    for packed, coeff in a.terms.items():
        m = unpack(packed, n)
        prefix_parity = 0
        for i, e in enumerate(m):
            if e and model.generators[i].name in values:
                front = m[:i] + (0,) * (n - i)
                rest = (0,) * i + (e - 1,) + m[i + 1 :]
                sign = -1 if degree % 2 and prefix_parity % 2 else 1
                out = out + (
                    model.monomial_element(pack(front), sign * coeff * e)
                    * values[model.generators[i].name]
                    * model.monomial_element(pack(rest))
                )
            prefix_parity += e * model.generators[i].degree
    return out


def literal_commutator(d1, d2):
    """[D1, D2] = D1 D2 - (-1)^{|D1||D2|} D2 D1 generator by generator: both
    sides applied to each generator's values separately, then subtracted."""
    if d1.model is not d2.model:
        raise DerivationError("ambient mismatch")
    model = d1.model
    sign = -1 if (d1.degree % 2 and d2.degree % 2) else 1
    values = {}
    for g in model.generators:
        first, second = d1(d2.value(g.name)), d2(d1.value(g.name))
        values[g.name] = first - second if sign == 1 else first + second
    return Derivation(model, d1.degree + d2.degree, values)


def vector_bracket(model, iota_x, iota_y):
    """iota of the bracket field: [[d, iota_X], iota_Y]."""
    return commutator(lie_derivative(model, iota_x), iota_y)


def dimension_series(model, top):
    """Coefficients of the Hilbert series prod (1+x^d) * prod 1/(1-x^d) up to x^top.

    Independent counting oracle for Model.basis.
    """
    coeffs = [Fraction(0)] * (top + 1)
    coeffs[0] = Fraction(1)
    for g in model.generators:
        if g.is_odd:
            for n in range(top, g.degree - 1, -1):
                coeffs[n] += coeffs[n - g.degree]
        else:
            for n in range(g.degree, top + 1):
                coeffs[n] += coeffs[n - g.degree]
    return [int(c) for c in coeffs]


def brute_basis(model, k):
    """Every exponent tuple of degree k, odd exponents at most 1, sorted: the
    whole box of exponents filtered, an independent oracle for Model.basis."""
    ranges = [range(2 if g.is_odd else k // g.degree + 1) for g in model.generators]
    return sorted(m for m in product(*ranges) if sum(map(mul, m, model.degrees)) == k)


def randint_random_element(model, degree, rng, density=0.6):
    """`sampling.random_element` drawn with randint: each numerator by
    randint(-3, 3), and over 1 or 2 by 2 // randint(1, 2)."""
    nums = {}
    for m in model.basis(degree):
        if rng.random() < density:
            num = rng.randint(-3, 3)
            if num:
                nums[m] = num * (2 // rng.randint(1, 2))
    return Element._of(model, nums, 2)


def random_inhomogeneous(model, degrees, rng):
    """The sum of one `random_element` of each listed degree."""
    out = model.zero()
    for d in degrees:
        out = out + random_element(model, d, rng)
    return out


def _differential(space):
    return space.q if isinstance(space, DgBundle) else model_differential(space)


def _total(space):
    return space.total if isinstance(space, DgBundle) else space


def dense_matrix(columns):
    """The rows of the matrix with these dense columns."""
    return [list(row) for row in zip(*columns)]


def cocycle_vectors(space, degree):
    """Kernel basis of the outgoing differential, from its dense matrix: d of
    each monomial applied through the derivation and expanded by `coordinates`."""
    model, q = _total(space), _differential(space)
    basis, target = model.basis(degree), model.basis(degree + 1)
    columns = [coordinates(q(model.monomial_element(m)), target) for m in basis]
    return dense_kernel(dense_matrix(columns), len(basis)), basis


def boundary_vectors(space, degree):
    """d of each monomial one degree down, each applied through the derivation
    and expanded in the degree basis."""
    if degree == 0:
        return []
    model, q = _total(space), _differential(space)
    target = model.basis(degree)
    return [coordinates(q(model.monomial_element(m)), target) for m in model.basis(degree - 1)]


def induced_rank(image_vectors, boundaries):
    """Dimension of the span of the images modulo boundaries, by dense Bareiss ranks."""
    return bareiss_rank(image_vectors + boundaries) - bareiss_rank(boundaries)


def _elements(model, vectors, basis):
    return [Element(model, {m: c for m, c in zip(basis, v) if c}) for v in vectors]


def les_node_ranks(pair, k):
    """(i_*, T_*, beta_*) at degree k, every slice rebuilt and every rank dense."""
    zb, base_basis = cocycle_vectors(pair.base, k)
    upstairs = pair.p.total.basis(k)
    included = [
        coordinates(pair.p.include_base(el), upstairs)
        for el in _elements(pair.base, zb, base_basis)
    ]
    rank_i = induced_rank(included, boundary_vectors(pair.p, k))
    if k < 1:
        return rank_i, 0, 0
    zp, p_basis = cocycle_vectors(pair.p, k)
    target = pair.pbar.total.basis(k - 1)
    mapped = [coordinates(pair.tmap(el), target) for el in _elements(pair.p.total, zp, p_basis)]
    rank_t = induced_rank(mapped, boundary_vectors(pair.pbar, k - 1))
    zpb, pbar_basis = cocycle_vectors(pair.pbar, k - 1)
    base_up = pair.base.basis(k + 1)
    connected = [
        coordinates(pair.connecting(el), base_up)
        for el in _elements(pair.pbar.total, zpb, pbar_basis)
    ]
    rank_beta = induced_rank(connected, boundary_vectors(pair.base, k + 1))
    return rank_i, rank_t, rank_beta


def _parity_basis(model, parity, cap):
    out = []
    for degree in range(parity, cap + 1, 2):
        out.extend((degree, m) for m in model.basis(degree))
    return out


def _twisted_columns(model, h, source, target, cap):
    """Dense columns of d + h on parity slices, discarding components above cap."""
    index = {m: i for i, (_, m) in enumerate(target)}
    columns = []
    for _, m in source:
        x = model.monomial_element(m)
        column = [Fraction(0)] * len(target)
        for mm, c in (model.d(x) + h * x).terms.items():
            if monomial_degree(model, mm) <= cap:
                column[index[mm]] = c
        columns.append(column)
    return columns


def twisted_dims_reference(model, h, cap):
    """(even, odd) twisted dimensions at one cap, each window rebuilt densely.

    A class at the cap counts when it lifts to a cocycle of the window four
    degrees wider; the ranks are dense Bareiss ranks.
    """
    wide = cap + 4
    out = []
    for parity in (0, 1):
        src_wide = _parity_basis(model, parity, wide)
        tgt_wide = _parity_basis(model, 1 - parity, wide)
        wide_columns = _twisted_columns(model, h, src_wide, tgt_wide, wide)
        cocycles = dense_kernel(dense_matrix(wide_columns), len(src_wide))
        keep = [i for i, (deg, _) in enumerate(src_wide) if deg <= cap]
        projected = [[v[i] for i in keep] for v in cocycles]
        src_cap = _parity_basis(model, 1 - parity, cap)
        tgt_cap = _parity_basis(model, parity, cap)
        boundary = _twisted_columns(model, h, src_cap, tgt_cap, cap)
        out.append(bareiss_rank(projected + boundary) - bareiss_rank(boundary))
    return out[0], out[1]


def fiber_coefficients(bundle, el, fiber):
    """Decompose el = sum_k c_k * fiber^k with the fiber power on the right.

    Returns {k: c_k} as elements of the total model with the fiber removed;
    for an odd fiber the sign of moving it past the odd generators after it
    in each monomial is folded into the coefficient.
    """
    total = bundle.total
    if el.model is not total:
        raise ValueError("expected an element of the total model")
    idx = total.index[fiber]
    odd = [g.is_odd for g in total.generators]
    out = {}
    for packed, c in el.terms.items():
        m = unpack(packed, len(odd))
        k = m[idx]
        if odd[idx] and k and sum(1 for j in range(idx + 1, len(m)) if m[j] and odd[j]) % 2:
            c = -c
        out.setdefault(k, {})[pack(m[:idx] + (0,) + m[idx + 1 :])] = c
    return {k: Element(total, t) for k, t in sorted(out.items())}


def rescale_to_twisted(bundle, el):
    """Send w * t^k to k! * w; intertwines d + H dt with d + H wedge for k >= 1."""
    if bundle.shape != "line":
        raise ValueError("rescaling applies to single-fiber bundles")
    fiber = bundle.fiber_names[0]
    if bundle.total.generator_named(fiber).is_odd:
        raise ValueError("rescaling needs an even fiber")
    out = bundle.base.zero()
    fact = [Fraction(1)]
    for k, coeff in fiber_coefficients(bundle, el, fiber).items():
        while len(fact) <= k:
            fact.append(fact[-1] * len(fact))
        out = out + bundle.restrict_to_base(coeff) * fact[k]
    return out


def twist_operator(model, h):
    """The parity differential d + h wedge acting on base elements."""

    def op(el):
        return model.d(el) + h * el

    return op


def transport(el, target):
    """Move an element between models by generator name.

    The shared generators must appear in the same relative order on both
    sides, so no Koszul sign can arise.
    """
    source = el.model
    mapping = [target.index.get(g.name) for g in source.generators]
    shared = [t for t in mapping if t is not None]
    if any(b >= a for a, b in zip(shared[1:], shared)):
        raise ValueError("generator order differs between models")
    terms = {}
    for packed, c in el.terms.items():
        exps = [0] * len(target.generators)
        for i, e in enumerate(unpack(packed, len(source.generators))):
            if not e:
                continue
            if mapping[i] is None:
                raise ValueError(f"element uses generator {source.generators[i].name!r} missing from target")
            exps[mapping[i]] = e
        terms[pack(exps)] = c
    return Element(target, terms)


@lru_cache(maxsize=1)
def _correspondence(pair):
    """`tduality.correspondence`, built once per pair for the loops over its monomials."""
    return correspondence(pair)


def literal_tmap(pair, el):
    """T built as the paper builds it: pull back to the correspondence, apply the
    gauge exponential of qbar*q d/dt, then integrate along q."""
    corr, gauge = _correspondence(pair)
    gauged = exp_apply(gauge, transport(el, corr.total))
    linear = fiber_coefficients(corr, gauged, pair.p.q_name).get(1)
    if linear is None:
        return pair.pbar.total.zero()
    return transport(linear, pair.pbar.total)


def apply_rule(chain_map, el):
    """A chain map's monomial rule applied term by term to an Element."""
    out = {}
    for m, c in el.terms.items():
        image = chain_map.rule(m)
        if image:
            e, n = image
            out[e] = out.get(e, 0) + c * n
    return Element(_total(chain_map.target), out)


def literal_chain_signs(chain_map, cap):
    """The signs s with rule(Q x) = s * Q(rule x), checked one monomial at a
    time on Elements through `Model.d`: the surviving set through the cap, or
    the first degree where no sign survives."""
    return literal_chain_signs_by_cap(chain_map, cap)[cap]


def literal_chain_signs_by_cap(chain_map, cap):
    """[literal_chain_signs(chain_map, c) for c in 0..cap], from one pass: the
    surviving set after each degree, then the degree where none survives."""
    source, target = _total(chain_map.source), _total(chain_map.target)
    candidates = {1, -1}
    found = []
    for k in range(cap + 1):
        for m in source.basis(k):
            x = source.monomial_element(m)
            lhs = apply_rule(chain_map, source.d(x))
            rhs = target.d(apply_rule(chain_map, x))
            if lhs != rhs:
                candidates.discard(1)
            if lhs != -rhs:
                candidates.discard(-1)
            if not candidates:
                return found + [k] * (cap + 1 - k)
        found.append(set(candidates))
    return found


def pushforward(bundle: DgBundle, el: Element) -> Element:
    """Integration along an odd line fiber: w q -> w, fiberless terms -> 0."""
    if bundle.shape != "line":
        raise TDualityError("pushforward expects a single-fiber bundle")
    fiber = bundle.fiber_names[0]
    if not bundle.total.generator_named(fiber).is_odd:
        raise TDualityError("pushforward integrates an odd fiber")
    coeffs = fiber_coefficients(bundle, el, fiber)
    linear = coeffs.get(1)
    if linear is None:
        return bundle.base.zero()
    return bundle.restrict_to_base(linear)


def pushforward_chain_map(bundle):
    """p_* for an odd line bundle as a monomial rule, w q -> w with the fiber
    stored last, wrapped with its intertwining check."""
    fiber_degree = bundle.total.generator_named(bundle.fiber_names[0]).degree
    n = len(bundle.total.generators)

    def rule(m):
        exps = unpack(m, n)
        return (pack(exps[:-1]), 1) if exps[-1] else None

    return ChainMap(bundle, bundle.base, -fiber_degree, rule)


def literal_symmetry(bundle, degree, **parts):
    """The realized derivation of a structured symmetry, built on Elements of
    the total model and checked by the validating constructor: the vector
    part's values padded by `include_base`, q sent to its q-slot part, and t
    to its t-slot part plus the product q * (q.t-slot part), or on the flux
    shape q * (q-slot part) * coupling.  Takes the parts `symmetry` takes."""
    base, total, include = bundle.base, bundle.total, bundle.include_base
    rows = SHAPES[bundle.shape]
    q_slot, t_slot, qt_slot = rows.get(degree, rows[LOWER])
    q, t = bundle.fiber_names[0], bundle.fiber_names[-1]

    def part(name):
        value = parts.get(name)
        if value is None:
            return total.zero()
        return include(value if isinstance(value, Element) else base.scalar(value))

    values = {}
    if degree in (0, -1):
        vector = parts.get("iota") or Derivation.zero(base, -1)
        if degree == 0:
            vector = parts.get("lie") or commutator(model_differential(base), vector)
        values = {g: include(v) for g, v in vector.values.items()}
    if q_slot:
        values[q] = part(q_slot)
    value = part(t_slot)
    if isinstance(qt_slot, str):
        value = value + total.gen(q) * part(qt_slot)
    elif qt_slot:
        value = value + total.gen(q) * part(q_slot) * qt_slot
    values[t] = value
    return Derivation(total, degree, values)


def literal_derived(q, x, y):
    """|x, y| = (-1)^{||x||} [[Q, x], y], ||x|| = degree + 1, taken anew."""
    sign = -1 if (x.degree + 1) % 2 else 1
    return commutator(commutator(q, x), y) * sign


def literal_leibniz_residue(bundle, a, b):
    """delta|a,b| - |delta a, b| - (-1)^{||a||} |a, delta b|, every bracket taken anew."""
    q = bundle.q
    sign = -1 if (a.degree + 1) % 2 else 1
    lhs = commutator(q, literal_derived(q, a, b))
    rhs = literal_derived(q, commutator(q, a), b) + sign * literal_derived(q, a, commutator(q, b))
    return lhs - rhs


def literal_jacobi_residue(bundle, a, b, c):
    """|a,|b,c|| - ||a,b|,c| - (-1)^{||a|| ||b||} |b,|a,c||, every bracket taken anew."""
    q = bundle.q
    sign = -1 if ((a.degree + 1) * (b.degree + 1)) % 2 else 1
    lhs = literal_derived(q, a, literal_derived(q, b, c))
    rhs = literal_derived(q, literal_derived(q, a, b), c) + sign * literal_derived(
        q, b, literal_derived(q, a, c)
    )
    return lhs - rhs


def literal_action_residue(bundle, actor, b, c):
    """[a, |b,c|] - |[a,b], c| - |b, [a,c]|, every bracket taken anew."""
    q = bundle.q
    lhs = commutator(actor, literal_derived(q, b, c))
    rhs = literal_derived(q, commutator(actor, b), c) + literal_derived(q, b, commutator(actor, c))
    return lhs - rhs


def literal_commutator_jacobi_residue(a, b, c):
    """[a,[b,c]] - [[a,b],c] - (-1)^{|a||b|} [b,[a,c]], by `literal_commutator`."""
    sign = -1 if (a.degree * b.degree) % 2 else 1
    lhs = literal_commutator(a, literal_commutator(b, c))
    rhs = literal_commutator(literal_commutator(a, b), c) + sign * literal_commutator(
        b, literal_commutator(a, c)
    )
    return lhs - rhs


def _structured_parameters(bundle):
    """One-hot structured degree-0 elements spanning the ansatz, each built by
    `symmetry`, so a contraction's base action comes from `commutator`."""
    base = bundle.base
    params = []
    for g in base.generators:
        for m in base.basis(g.degree - 1):
            iota = Derivation(base, -1, {g.name: base.monomial_element(m)})
            params.append(symmetry(bundle, 0, iota=iota))
    for key, deg in form_parts(bundle, 0):
        for m in base.basis(deg):
            params.append(symmetry(bundle, 0, **{key: base.monomial_element(m)}))
    return params


def structured_kernel_dim(bundle):
    """Dimension of the degree-0 structured solutions, realized one by one.

    Solves [Q, sum c_i p_i] = 0 over the one-hot parameters p_i for a kernel
    basis, sums each solution's realized derivations as coordinate vectors and
    takes the rank of those sums.
    """
    params = _structured_parameters(bundle)
    if not params:
        return 0
    total = bundle.total
    residue_bases = {g.name: total.basis(g.degree + 1) for g in total.generators}
    value_bases = {g.name: total.basis(g.degree) for g in total.generators}
    constraint_rows = []
    realization_rows = []
    for p in params:
        bracket = commutator(bundle.q, p.realized)
        res = []
        val = []
        for g in total.generators:
            res.extend(coordinates(bracket.value(g.name), residue_bases[g.name]))
            val.extend(coordinates(p.realized.value(g.name), value_bases[g.name]))
        constraint_rows.append(res)
        realization_rows.append(val)
    ncols = len(constraint_rows[0])
    constraint = [[row[i] for row in constraint_rows] for i in range(ncols)]
    realized = []
    for sol in dense_kernel(constraint, len(params)):
        vec = [Fraction(0)] * len(realization_rows[0])
        for c, row in zip(sol, realization_rows):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        realized.append(vec)
    return bareiss_rank(realized)


def sym0_kernel_dim(bundle):
    """Dimension of the kernel of [Q, .] on degree-0 derivations, one checked
    probe per unknown (a generator sent to one monomial of its degree), each
    bracket expanded densely, ranked by Bareiss."""
    total = bundle.total
    residue_bases = {g.name: total.basis(g.degree + 1) for g in total.generators}
    columns = []
    for g in total.generators:
        for m in total.basis(g.degree):
            probe = Derivation(total, 0, {g.name: total.monomial_element(m)})
            bracket = commutator(bundle.q, probe)
            column = []
            for h in total.generators:
                column.extend(coordinates(bracket.value(h.name), residue_bases[h.name]))
            columns.append(column)
    return len(columns) - bareiss_rank(columns)


def mc_fail_field() -> Derivation:
    """The degree-1 field models/mc_fail.dgm declares, Q = d + F dq + (H + q Fbar) dt
    with d(b) = a^2, F = Fbar = a and H = 0, on the bare algebra of its
    generators.  No bundle carries it: Q(Q(t)) = Q(q a) = a^2."""
    total = Model([("a", 2), ("b", 3), ("q", 1), ("t", 2)], 2, name="mc_fail")
    a, q = total.gen("a"), total.gen("q")
    return Derivation(total, 1, {"b": a**2, "q": a, "t": q * a})


def sphere4_times_torus3():
    """Model of S4 x T3: hosts the degree-4/degree-7 flux data.

    Generators x1,x2,x3 (deg 1, closed), a (deg 4), b (deg 7) with db = a^2.
    """
    return Model(
        [("x1", 1), ("x2", 1), ("x3", 1), ("a", 4), ("b", 7)],
        formal_dimension=7,
        differential=lambda m: {"b": m.gen("a") * m.gen("a")},
        name="S4xT3",
    )


def _value_column(table, index):
    """The values a value table gives every generator as one sparse column,
    numbered by index, one {monomial: row} per generator: the table's
    integer numerators, so the values scaled by its denominator."""
    return {index[i][m]: n for i, terms in table.numerators().items() for m, n in terms.items()}


def literal_bracket_columns(space, shift=0):
    """The matrix of X -> [Q, X] on derivations of degree shift, one probe
    per unknown: the field sending generator g to one monomial m, for each
    (g, m) of `_value_index(model, shift)`, bracketed with Q by `commutator`
    and laid out over `_value_index(model, shift + 1)` as true rationals.
    Q is a bundle's field on its total model, or a model's own d."""
    if isinstance(space, DgBundle):
        model, q = space.total, space.q
    else:
        model, q = space, model_differential(space)
    residues = _value_index(model, shift + 1)
    columns = []
    for g in model.generators:
        for m in model.basis(g.degree + shift):
            probe = Derivation(model, shift, {g.name: model.monomial_element(m)})
            bracket = commutator(q, probe)
            den = bracket.table.den
            columns.append(
                {r: Fraction(n, den) for r, n in _value_column(bracket.table, residues).items()}
            )
    return columns


def courant_reference_bracket(bundle: DgBundle, a: SymElement, b: SymElement) -> SymElement:
    """The twisted Courant-Dorfman bracket computed on the circle-bundle model.

    Works entirely on the single-odd-fiber bundle E (base extended by q
    alone), treating C + q fbar as an invariant form on E and (X, f) as the
    invariant field iota_X + f d/dq; the two-step bundle never enters the
    computation, which makes this an independent oracle for the embedding.
    """
    base = bundle.base
    e_bundle = DgBundle.line(base, bundle.structural["F"], bundle.q_name, 1)
    etotal = e_bundle.total

    def invariant_field(s: SymElement) -> Derivation:
        iota = s.part("iota")
        values = {}
        for g in base.generators:
            v = iota.value(g.name)
            if not v.is_zero():
                values[g.name] = e_bundle.include_base(v)
        fv = s.part("f")
        if not fv.is_zero():
            values[bundle.q_name] = e_bundle.include_base(fv)
        return Derivation(etotal, -1, values)

    def invariant_form(s: SymElement) -> Element:
        return e_bundle.include_base(s.part("c")) + etotal.gen(
            bundle.q_name
        ) * e_bundle.include_base(s.part("fbar"))

    a_field, b_field = invariant_field(a), invariant_field(b)
    eta = e_bundle.include_base(bundle.structural["H"]) + etotal.gen(
        bundle.q_name
    ) * e_bundle.include_base(bundle.structural["Fbar"])
    # vector-plus-function slot: the derived bracket on the circle model
    vf = commutator(commutator(e_bundle.q, a_field), b_field)
    # form slot: L^E_a(w_b) - b(Q_E w_a) - b(a(eta))
    lie_a = commutator(e_bundle.q, a_field)
    form = (
        lie_a(invariant_form(b))
        - b_field(e_bundle.q(invariant_form(a)))
        - b_field(a_field(eta))
    )
    iota_values = {}
    for g in base.generators:
        v = vf.value(g.name)
        if not v.is_zero():
            iota_values[g.name] = e_bundle.restrict_to_base(v)
    coeffs = fiber_coefficients(e_bundle, form, bundle.q_name)
    return symmetry(
        bundle,
        -1,
        iota=Derivation(base, -1, iota_values),
        f=e_bundle.restrict_to_base(vf.value(bundle.q_name)),
        c=e_bundle.restrict_to_base(coeffs.get(0, etotal.zero())),
        fbar=e_bundle.restrict_to_base(coeffs.get(1, etotal.zero())),
    )
