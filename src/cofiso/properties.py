"""Registered property suites over exhaustive bounded enumerations.

Each suite replays one algebraic fact against every instance the bounds
allow and reports pass/fail with counterexamples.  verify() is the
single entry point; the bounds pick the enumeration budget and params
carries the noise bound for the suites that need one.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from typing import Callable, Optional

from .bicyclic import BicyclicNF, embed, normalize_word, parse_word, recognize, reduce_word, word_iso
from .core import (
    ALPHA,
    BETA,
    IDENTITY,
    InvalidShift,
    NoiseParams,
    NotIdempotent,
    PartialIso,
    _Value,
    boundary_set,
    d_witness,
    green_d,
    green_h,
    green_j,
    green_l,
    green_r,
    group_congruence_witness,
    group_congruent,
    in_offset_class,
    in_offset_class_range,
    leq,
    noise_bounded,
    subsets,
    tail_chain,
)
from .extension import (
    Group,
    NotInUpSet,
    ext_inv,
    ext_leq,
    ext_mul,
    ext_pi,
    translate_left,
    translate_right,
    up_set_truncated,
)
from .oracle import EnumBounds, compose_via_window, enumerate_elements
from .topology import (
    NbhdSpec,
    TailSeqSpec,
    converges,
    empirical_converges,
    nbhd_member,
    nbhd_upset_agreement,
    upset_pool,
)


class UnknownProperty(ValueError):
    """No suite registered under the requested identifier."""


class Report(_Value):
    __slots__ = ("property_id", "description", "passed", "instances", "counterexamples", "failures")

    def __init__(
        self,
        property_id: str,
        description: str,
        passed: bool,
        instances: int,
        counterexamples: tuple = (),
        failures: int = 0,  # every failed check; counterexamples keeps the first few
    ) -> None:
        super().__init__(property_id, description, passed, instances, counterexamples, failures)


_CAP = 5


class _Tally:
    """Counts checked instances and keeps the first few failures."""

    def __init__(self) -> None:
        self.instances = 0
        self.failures = 0
        self.bad: list = []

    def check(self, ok, *info) -> bool:
        self.instances += 1
        if not ok:
            self.failures += 1
            if len(self.bad) < _CAP:
                self.bad.append(tuple(repr(x) for x in info))
        return bool(ok)


_REGISTRY: dict[str, tuple[str, Callable]] = {}
# property id -> (arity, pool, sets, default j): see suite_size
_SIZES: dict[str, tuple[int, Callable, int, Optional[int]]] = {}


def _enumerated(bounds: EnumBounds) -> tuple[int, int]:
    """enumerate_elements(bounds) tries 2s+1 shifts on each subset of {1..n}."""
    return 2 * bounds.s + 1, 0


def register(
    property_id: str,
    description: str,
    arity: int,
    pool: Callable = _enumerated,
    sets: int = 0,
    j: Optional[int] = None,
):
    """Register a suite that nests ``arity`` loops over the elements
    ``pool(bounds)`` counts and ``sets`` loops over the offset sets of
    its level, as in suite_size.  A suite that reads a level gets
    NoiseParams(j) when verify() is given no params."""
    def deco(fn):
        _REGISTRY[property_id] = (description, fn)
        _SIZES[property_id] = (arity, pool, sets, j)
        return fn
    return deco


def known_properties() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _shape(property_id: str) -> tuple[int, Callable, int, Optional[int]]:
    # a suite put in the registry by hand counts as one enumeration pass
    return _SIZES.get(property_id, (1, _enumerated, 0, None))


def suite_level(property_id: str) -> Optional[int]:
    """The level a suite runs at when given no params; None for a suite
    that reads no params."""
    return _shape(property_id)[3]


def suite_size(property_id: str, bounds: EnumBounds, j: Optional[int] = None) -> tuple[int, int, int, int]:
    """(shifts, extra, arity, set_bits): the suite walks at most
    shifts * 2^n + extra elements, in loops nested arity deep, once for
    each of 2^set_bits tuples of offset sets at level j (the suite's own
    level when j is None), so it costs about 2^set_bits times the
    arity-th power of that count.  Read off the bounds without
    enumerating."""
    _require_known(property_id)
    arity, pool, sets, default_j = _shape(property_id)
    level = default_j if j is None else j
    # level j has the 2^(j-1) offset sets inside {2..j}
    set_bits = sets * max(level - 1, 0) if sets else 0
    return (*pool(bounds), arity, set_bits)


def _require_known(property_id: str) -> None:
    if property_id not in _REGISTRY:
        raise UnknownProperty(
            f"{property_id!r} is not registered; known: {', '.join(known_properties())}"
        )


def verify(property_id: str, bounds: EnumBounds, params: Optional[NoiseParams] = None) -> Report:
    _require_known(property_id)
    description, fn = _REGISTRY[property_id]
    default_j = _shape(property_id)[3]
    if params is None and default_j is not None:
        params = NoiseParams(default_j)
    tally = _Tally()
    fn(tally, bounds, params)
    return Report(
        property_id,
        description,
        tally.failures == 0,
        tally.instances,
        tuple(tally.bad),
        tally.failures,
    )


def _all_params(j: int) -> list[NoiseParams]:
    """Noise bound j with each offset set inside {2..j}."""
    return [NoiseParams(j, c) for c in subsets(range(2, j + 1))]


# -- element algebra ------------------------------------------------------


def _check_assoc(t, univ, mul):
    """One check of (x*y)*z == x*(y*z) for each triple of univ.

    Each value is numbered the first time it appears, so a triple
    compares two numbers read from tables: the pair products, then every
    distinct pair product times each z and each x times it.
    """
    ids: dict = {}
    prod = [[ids.setdefault(mul(x, y), len(ids)) for y in univ] for x in univ]
    values = list(ids)  # the distinct pair products, in number order
    right = [[ids.setdefault(mul(v, z), len(ids)) for z in univ] for v in values]
    left = [[ids.setdefault(mul(x, v), len(ids)) for v in values] for x in univ]
    for x, x_prod, x_left in zip(univ, prod, left):
        for y, xy, y_prod in zip(univ, x_prod, prod):
            xy_right = right[xy]
            for z, xy_z, yz in zip(univ, xy_right, y_prod):
                t.check(xy_z == x_left[yz], x, y, z)


@register("assoc", "composition is associative on every enumerated triple", arity=3)
def _assoc(t, bounds, params):
    _check_assoc(t, list(enumerate_elements(bounds)), operator.mul)


@register("inverse_axioms", "x*x~*x == x, x~*x*x~ == x~, and partial identities commute", arity=2)
def _inverse_axioms(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    for g in elems:
        gi = g.inverse()
        t.check(g * gi * g == g, g)
        t.check(gi * g * gi == gi, g)
        t.check(gi.inverse() == g, g)
    idems = [g for g in elems if g.is_idempotent]
    for e in idems:
        for f in idems:
            t.check(e * f == f * e, e, f)


@register("oracle_equiv", "algebraic composition matches the pointwise window oracle on all pairs", arity=2)
def _oracle_equiv(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    for a in elems:
        for b in elems:
            t.check(compose_via_window(a, b) == a * b, a, b)


@register("idempotent_iff", "idempotency, being square-fixed, and having shift 0 coincide", arity=1)
def _idempotent_iff(t, bounds, params):
    for g in enumerate_elements(bounds):
        square_fixed = g * g == g
        t.check(g.is_idempotent == square_fixed, g)
        t.check(square_fixed == (g.shift == 0), g)
        if g.is_idempotent:
            t.check(g.inverse() == g, g)


@register("green_relations", "the five Green predicates match their idempotent and witness forms", arity=2)
def _green_relations(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    span = bounds.n + bounds.s + 1
    for a in elems:
        dom_id_a = a * a.inverse()
        ran_id_a = a.inverse() * a
        # the elements that share a's domain, one per admissible shift
        sharing = []
        for shift in range(-span, span + 1):
            try:
                sharing.append(PartialIso(a.excluded, shift))
            except InvalidShift:
                pass
        for b in elems:
            is_l = green_l(a, b)
            is_r = green_r(a, b)
            t.check(is_l == (dom_id_a == b * b.inverse()), a, b)
            t.check(is_r == (ran_id_a == b.inverse() * b), a, b)
            t.check(green_h(a, b) == (is_l and is_r), a, b)
            t.check(green_h(a, b) == (a == b), a, b)
            # some element shares a's domain and b's range iff the
            # domains are translates of one another
            linked = green_d(a, b)
            exists = any(green_r(c, b) for c in sharing)
            t.check(linked == exists, a, b)
            if linked:
                w = d_witness(a, b)
                t.check(
                    w is not None
                    and w.excluded == a.excluded
                    and w.inverse().excluded == b.excluded
                    and w.noise == a.noise,
                    a, b, w,
                )
            # a two-sided witness pair carrying a onto b always exists
            t.check(green_j(a, b), a, b)
            lift = a.tail_start - b.dom_min
            x = PartialIso(b.excluded, lift)
            y = PartialIso(range(1, a.ran_tail_start), b.shift - lift - a.shift)
            t.check(x * a * y == b, a, b, x, y)


@register(
    "natural_order",
    "the four formulations of the natural order coincide and order the monoid",
    arity=3,
)
def _natural_order(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    for a in elems:
        t.check(leq(a, a), a)
        ran_id_a = a.inverse() * a
        for b in elems:
            by_def = leq(a, b)
            dom_incl = a.shift == b.shift and set(b.excluded) <= set(a.excluded)
            ran_incl = a.shift == b.shift and set(b.inverse().excluded) <= set(a.inverse().excluded)
            by_restriction = a == b * ran_id_a
            t.check(by_def == dom_incl, a, b)
            t.check(by_def == ran_incl, a, b)
            t.check(by_def == by_restriction, a, b)
            if by_def and leq(b, a):
                t.check(a == b, a, b)
            if by_def:
                t.check(leq(a.inverse(), b.inverse()), a, b)
                for c in elems:
                    t.check(leq(a * c, b * c) and leq(c * a, c * b), a, b, c)


@register("congruence", "shift equality is the least group congruence, with explicit witnesses", arity=2)
def _congruence(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    for a in elems:
        for b in elems:
            related = group_congruent(a, b)
            t.check(related == (a.pi == b.pi), a, b)
            w = group_congruence_witness(a, b)
            if related:
                t.check(w is not None and w.is_idempotent and w * a == w * b, a, b, w)
            else:
                probe = PartialIso(range(1, max(a.tail_start, b.tail_start)), 0)
                t.check(w is None and probe * a != probe * b, a, b)
            t.check((a * b).pi == a.pi + b.pi, a, b)
    idems = [g for g in elems if g.is_idempotent]
    for e in idems:
        for f in idems:
            t.check(group_congruent(e, f), e, f)


@register("retraction", "tail restriction is an idempotent homomorphism onto the noise-free part", arity=2)
def _retraction(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    for g in elems:
        r = g.tail()
        t.check(r.noise == 0, g)
        t.check(r == PartialIso(range(1, g.tail_start), g.shift), g)
        t.check(r.tail() == r, g)
        if g.noise == 0:
            t.check(r == g, g)
        t.check(r.inverse() == g.inverse().tail(), g)
        ri = r.inverse()
        t.check(g * ri == r * ri, g)
        t.check(ri * g == ri * r, g)
    for a in elems:
        ta = a.tail()
        for b in elems:
            t.check((a * b).tail() == ta * b.tail(), a, b)


# -- noise and offset classes ---------------------------------------------


@register(
    "offset_classes",
    "domain- and range-side offset conditions agree; extremes collapse",
    arity=1,
    sets=2,
    j=3,
)
def _offset_classes(t, bounds, params):
    j = params.j
    elems = list(enumerate_elements(bounds))
    all_p = _all_params(j)
    for p in all_p:
        for g in elems:
            t.check(in_offset_class(g, p) == in_offset_class_range(g, p), g, p.offsets)
    empty = NoiseParams(j)
    full = NoiseParams.full(j)
    for g in elems:
        t.check(in_offset_class(g, empty) == (g.noise == 0), g)
        t.check(in_offset_class(g, full) == noise_bounded(g, j), g)
    for p1 in all_p:
        for p2 in all_p:
            m1, m2 = p1.offsets, p2.offsets
            if m1 < m2:
                for g in elems:
                    t.check(not in_offset_class(g, p1) or in_offset_class(g, p2), g, m1, m2)
                m = min(m2 - m1)
                w = PartialIso(range(2, m + 1), 0)
                t.check(in_offset_class(w, p2) and not in_offset_class(w, p1), w, m1, m2)


@register("class_closure", "every offset class is closed under products and inverses", arity=2, sets=1, j=3)
def _class_closure(t, bounds, params):
    j = params.j
    elems = list(enumerate_elements(bounds))
    for p in _all_params(j):
        t.check(in_offset_class(IDENTITY, p), p.offsets)
        members = [g for g in elems if in_offset_class(g, p)]
        for g in members:
            t.check(in_offset_class(g.inverse(), p), g, p.offsets)
        for a in members:
            for b in members:
                t.check(in_offset_class(a * b, p), a, b, p.offsets)


@register("noise_one_absent", "no element has noise exactly 1", arity=1)
def _noise_one_absent(t, bounds, params):
    seen = set()
    for g in enumerate_elements(bounds):
        t.check(g.noise != 1, g)
        seen.add(g.noise)
    t.check(0 in seen, sorted(seen))
    if bounds.n >= 2:
        t.check(2 in seen, sorted(seen))


@register("series_strict", "the noise filtration is strict at every level from 2 up", arity=1)
def _series_strict(t, bounds, params):
    for j in range(2, 6):
        w = PartialIso(range(2, j + 1), 0)
        t.check(w.noise == j, w, j)
        t.check(noise_bounded(w, j) and not noise_bounded(w, j - 1), w, j)
    for g in enumerate_elements(bounds):
        for j in range(2, 6):
            t.check(not noise_bounded(g, j - 1) or noise_bounded(g, j), g, j)


# -- absorption, collapsing chains, the boundary --------------------------


@register("absorption", "the basepoint identity is absorbed exactly off the point 1, on both sides", arity=1)
def _absorption(t, bounds, params):
    ba = BETA * ALPHA
    t.check(ba == PartialIso((1,), 0), ba)
    for g in enumerate_elements(bounds):
        t.check((ba * g == g) == (not g.defined_at(1)), g)
        t.check((g * ba == g) == (not g.hits(1)), g)


@register("tail_chain", "the collapsing chain turns any partial identity into a plain tail identity", arity=1)
def _tail_chain(t, bounds, params):
    # the chain at depth d flattens the idempotents of the noise-d monoid;
    # above that noise the head can outrun the d-step sweep
    for depth in (2, 3, 4):
        for e in enumerate_elements(EnumBounds(bounds.n, bounds.s, depth)):
            if not e.is_idempotent:
                continue
            t.check(tail_chain(e, depth) == PartialIso(range(1, e.tail_start + depth), 0), e, depth)
    shifted = [g for g in enumerate_elements(bounds) if g.shift != 0]
    if shifted:
        try:
            tail_chain(shifted[0], 2)
            t.check(False, shifted[0])
        except NotIdempotent:
            t.check(True, shifted[0])


@register("conjugation", "shift conjugation moves a partial identity's head up and keeps its noise", arity=1)
def _conjugation(t, bounds, params):
    for e in enumerate_elements(bounds):
        if not e.is_idempotent:
            continue
        for k in range(1, 5):
            c = BETA ** k * e * ALPHA ** k
            expected = PartialIso(tuple(range(1, k + 1)) + tuple(x + k for x in e.excluded), 0)
            t.check(c == expected, e, k)
            t.check(c * c == c, e, k)
            t.check(c.tail_start == e.tail_start + k, e, k)
            t.check(c.dom_min == e.dom_min + k, e, k)
            t.check(c.noise == e.noise, e, k)


@register("boundary", "the two-sided non-absorbed set matches its brute-force computation", arity=1, j=3)
def _boundary(t, bounds, params):
    j = params.j
    t.check(bounds.n >= j, bounds.n, j)  # the sweep must reach every candidate point
    ba = BETA * ALPHA
    listed = boundary_set(j)
    t.check(len(listed) == 2 ** (j - 1), j, len(listed))
    brute = [
        g
        for g in enumerate_elements(EnumBounds(bounds.n, bounds.s, j))
        if ba * g != g and g * ba != g
    ]
    t.check(len(brute) == len(set(brute)), j)
    t.check(set(brute) == set(listed), j, sorted(set(brute) ^ set(listed)))


# -- the adjoined integer ideal -------------------------------------------


def _ext_universe(bounds, params):
    isos = list(enumerate_elements(EnumBounds(bounds.n, bounds.s, params.j)))
    reach = bounds.s + 1
    return isos + [Group(k) for k in range(-reach, reach + 1)]


def _ext_pool(bounds):
    # the enumeration plus the 2s+3 integers of _ext_universe
    return 2 * bounds.s + 1, 2 * bounds.s + 3


def _zero_upset(bounds):
    # up_set_truncated(Group(0), ...) lists it and each shift-0 map over {1..n}
    return 1, 1


@register(
    "ext_assoc",
    "the extended product is associative across maps and adjoined integers",
    arity=3,
    pool=_ext_pool,
    j=2,
)
def _ext_assoc(t, bounds, params):
    _check_assoc(t, _ext_universe(bounds, params), ext_mul)


@register(
    "ext_ideal",
    "adjoined integers absorb every product and the shift total is additive",
    arity=2,
    pool=_ext_pool,
    j=2,
)
def _ext_ideal(t, bounds, params):
    univ = _ext_universe(bounds, params)
    for x in univ:
        for y in univ:
            prod = ext_mul(x, y)
            if isinstance(x, Group) or isinstance(y, Group):
                t.check(isinstance(prod, Group), x, y)
            t.check(ext_pi(prod) == ext_pi(x) + ext_pi(y), x, y)


@register(
    "ext_order",
    "the extended order is a partial order obeying the level rules",
    arity=3,
    pool=_ext_pool,
    j=2,
)
def _ext_order(t, bounds, params):
    univ = _ext_universe(bounds, params)
    for x in univ:
        t.check(ext_leq(x, x), x)
        for y in univ:
            le = ext_leq(x, y)
            if le and ext_leq(y, x):
                t.check(x == y, x, y)
            if isinstance(x, PartialIso) and isinstance(y, PartialIso):
                t.check(le == leq(x, y), x, y)
            if isinstance(x, Group) and isinstance(y, PartialIso):
                t.check(le == (y.pi == x.k), x, y)
                t.check(not ext_leq(y, x), x, y)
            if isinstance(x, Group) and isinstance(y, Group) and x != y:
                t.check(not le, x, y)
            if le:
                for z in univ:
                    if ext_leq(y, z):
                        t.check(ext_leq(x, z), x, y, z)


@register("ext_commute", "adjoined integers commute with every element", arity=1, pool=_ext_pool, j=2)
def _ext_commute(t, bounds, params):
    univ = _ext_universe(bounds, params)
    for x in univ:
        for k in range(-2, 3):
            t.check(ext_mul(Group(k), x) == ext_mul(x, Group(k)), x, k)


@register(
    "ext_surjective",
    "pushing all maps down to the zero level fills the reachable levels",
    arity=1,
    pool=_ext_pool,
    j=2,
)
def _ext_surjective(t, bounds, params):
    univ = _ext_universe(bounds, params)
    isos = [g for g in univ if isinstance(g, PartialIso)]
    image = {ext_mul(Group(0), g) for g in isos}
    expected = {Group(k) for k in range(-bounds.s, bounds.s + 1)}
    t.check(image == expected, sorted(image), sorted(expected))


@register(
    "ext_translation",
    "level translations are injective, level-true, and undone by the opposite shift",
    arity=1,
    pool=_zero_upset,
    j=2,
)
def _ext_translation(t, bounds, params):
    p = NoiseParams(params.j)
    base = up_set_truncated(Group(0), p, bounds.n)
    for k in range(1, 4):
        seen_right, seen_left = set(), set()
        for x in base.elements:
            tr = translate_right(x, k)
            t.check(ext_leq(Group(k), tr), x, k, tr)
            t.check(ext_mul(tr, BETA ** k) == x, x, k, tr)
            seen_right.add(tr)
            tl = translate_left(x, k)
            t.check(ext_leq(Group(-k), tl), x, k, tl)
            t.check(ext_mul(ALPHA ** k, tl) == x, x, k, tl)
            seen_left.add(tl)
        t.check(len(seen_right) == len(base.elements), k)
        t.check(len(seen_left) == len(base.elements), k)
    try:
        translate_right(ALPHA, 1)
        t.check(False, ALPHA)
    except NotInUpSet:
        t.check(True, ALPHA)


# -- neighborhood filters -------------------------------------------------


def _topo_pool(bounds, params):
    isos = list(enumerate_elements(EnumBounds(bounds.n, max(bounds.s, 3))))
    return params.j, isos + [Group(k) for k in range(-3, 4)]


def _nbhd_pool(bounds):
    # _topo_pool: shifts up to max(s, 3) either way, plus seven integers
    return 2 * max(bounds.s, 3) + 1, 7


def _level_pool(bounds):
    # upset_pool(k, n): shifts k - 1, k and k + 1
    return 3, 0


def _no_pool(bounds):
    # a fixed input: the bounds enumerate nothing
    return 0, 0


@register(
    "nbhd_nesting",
    "neighborhoods shrink as the base index grows",
    arity=1,
    pool=_nbhd_pool,
    sets=1,
    j=2,
)
def _nbhd_nesting(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    for p in _all_params(j):
        for k in range(-2, 3):
            for i in range(1, 7):
                inner = NbhdSpec(k, i + 1, p)
                outer = NbhdSpec(k, i, p)
                for x in pool:
                    t.check(not nbhd_member(x, inner) or nbhd_member(x, outer), x, k, i, p.offsets)


@register(
    "nbhd_inversion",
    "members invert into the mirrored neighborhood at the shifted index",
    arity=1,
    pool=_nbhd_pool,
    sets=1,
    j=2,
)
def _nbhd_inversion(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    pairs = [(x, ext_inv(x)) for x in pool]
    for p in _all_params(j):
        for k in range(-2, 3):
            for i in range(1, 7):
                spec = NbhdSpec(k, i, p)
                mirror = NbhdSpec(-k, max(1, i + k), p)
                for x, x_inv in pairs:
                    t.check(
                        nbhd_member(x, spec) == nbhd_member(x_inv, mirror),
                        x, k, i, p.offsets,
                    )


def _members_by_level(pool, i, p):
    by_k = defaultdict(list)
    for x in pool:
        if isinstance(x, Group):
            by_k[x.k].append(x)
        elif x.tail_start >= i and in_offset_class(x, p):
            by_k[x.shift].append(x)
    return by_k


@register(
    "nbhd_translation",
    "translation carries neighborhoods into the predicted ones, once past the head",
    arity=1,
    pool=_nbhd_pool,
    sets=1,
    j=2,
)
def _nbhd_translation(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    movers = list(enumerate_elements(EnumBounds(2, 2)))
    for p in _all_params(j):
        # movers with the same reach share a base index: split once per i
        levels: dict = {}
        for gam in movers:
            head = gam.tail_start - 1
            reach = max(head, head + gam.shift)
            for i in range(reach + j + 1, reach + j + 3):
                if i not in levels:
                    levels[i] = _members_by_level(pool, i, p)
                by_k = levels[i]
                for k in range(-2, 3):
                    left_target = NbhdSpec(gam.pi + k, max(1, i - gam.pi), p)
                    right_target = NbhdSpec(k + gam.pi, i, p)
                    check_right = i > reach + j + max(0, -k)
                    for x in by_k.get(k, []):
                        t.check(
                            nbhd_member(ext_mul(gam, x), left_target),
                            gam, x, k, i, p.offsets,
                        )
                        if check_right:
                            t.check(
                                nbhd_member(ext_mul(x, gam), right_target),
                                gam, x, k, i, p.offsets,
                            )


@register(
    "nbhd_product",
    "products of same-index members land in the summed-level neighborhood",
    arity=2,
    pool=_nbhd_pool,
    sets=1,
    j=2,
)
def _nbhd_product(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    for p in _all_params(j):
        for i in range(j + 1, j + 3):
            by_k = _members_by_level(pool, i, p)
            for k1 in range(-2, 3):
                for k2 in range(-2, 3):
                    target = NbhdSpec(k1 + k2, i, p)
                    for x in by_k.get(k1, []):
                        for y in by_k.get(k2, []):
                            t.check(nbhd_member(ext_mul(x, y), target), x, y, k1, k2, i, p.offsets)


@register(
    "nbhd_hausdorff",
    "neighborhoods of different levels never meet",
    arity=1,
    pool=_nbhd_pool,
    sets=1,
    j=2,
)
def _nbhd_hausdorff(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    for p in _all_params(j):
        for k1 in range(-2, 3):
            for k2 in range(k1 + 1, 3):
                for i in (1, 3, 5):
                    s1, s2 = NbhdSpec(k1, i, p), NbhdSpec(k2, i, p)
                    for x in pool:
                        t.check(not (nbhd_member(x, s1) and nbhd_member(x, s2)), x, k1, k2, i)


@register(
    "nbhd_monotone",
    "a larger offset set only enlarges each neighborhood",
    arity=1,
    pool=_nbhd_pool,
    sets=2,
    j=2,
)
def _nbhd_monotone(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    all_p = _all_params(j)
    for p1 in all_p:
        for p2 in all_p:
            m1, m2 = p1.offsets, p2.offsets
            if not m1 < m2:
                continue
            for k in (-1, 0, 2):
                for i in (1, 4):
                    small = NbhdSpec(k, i, p1)
                    large = NbhdSpec(k, i, p2)
                    for x in pool:
                        t.check(not nbhd_member(x, small) or nbhd_member(x, large), x, m1, m2, k, i)


@register(
    "upset_char",
    "the index cutoff equals exclusion from the cutoff witness's up-set",
    arity=1,
    pool=_level_pool,
    sets=1,
    j=2,
)
def _upset_char(t, bounds, params):
    j = params.j
    # one shift pool per level, shared by every (i, offset set)
    pools = {k: upset_pool(k, bounds.n) for k in range(-2, 3)}
    for p in _all_params(j):
        for k, pool in pools.items():
            for i in range(2, 9):
                t.check(nbhd_upset_agreement(k, i, p, pool=pool), k, i, p.offsets)


@register(
    "convergence_probe",
    "closed-form convergence verdicts match the direct neighborhood probe",
    arity=1,
    pool=_no_pool,
    sets=2,
    j=3,
)
def _convergence_probe(t, bounds, params):
    all_p = _all_params(params.j)
    for kept in all_p:
        for shift in range(-2, 3):
            spec = TailSeqSpec(kept.offsets, shift)
            for p in all_p:
                for k in range(-2, 3):
                    t.check(
                        converges(spec, k, p) == empirical_converges(spec, k, p),
                        spec, k, p.offsets,
                    )


# -- bicyclic normal forms ------------------------------------------------


@register("bicyclic_hom", "normal-form products match map composition through the embedding", arity=1)
def _bicyclic_hom(t, bounds, params):
    nfs = [BicyclicNF(k, l) for k in range(7) for l in range(7)]
    for u in nfs:
        t.check(recognize(embed(u)) == u, u)
        for v in nfs:
            t.check(embed(u * v) == embed(u) * embed(v), u, v)
    for g in enumerate_elements(bounds):
        nf = recognize(g)
        t.check((nf is None) == (g.noise != 0), g)
        if nf is not None:
            t.check(embed(nf) == g, g, nf)


@register(
    "word_soundness",
    "random words normalize to the same element along every reduction route",
    arity=1,
    pool=_no_pool,
)
def _word_soundness(t, bounds, params):
    rng = random.Random(90125)
    t.check(normalize_word(parse_word("ab")) == BicyclicNF(0, 0), "ab")
    for _ in range(1000):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 20)))
        nf = normalize_word(word)
        t.check(word_iso(word) == embed(nf), "".join(word), nf)
        first = reduce_word(word)
        last = reduce_word(word, rightmost=True)
        t.check(first == last, "".join(word), first, last)
        t.check(first == "b" * nf.k + "a" * nf.l, "".join(word), first, nf)
