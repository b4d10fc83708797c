"""Registered property suites over exhaustive bounded enumerations.

Each suite replays one algebraic fact against every instance the bounds
allow and reports pass/fail with counterexamples.  verify() is the
single entry point; the bounds pick the enumeration budget and params
carries the noise bound for the suites that need one.

Every call is bounded.  verify() refuses a pool of more than the listing
budget (core._BUDGET) elements before it is built, as the offset-set
lists refuse a level past it.  Each suite then plans its work in units
(one predicate, product or comparison, weighted where one check hides
a loop) from the lengths of what it has built, before each costly
stage; the call is refused with OverBudget once the plans pass _WORK.
"""

from __future__ import annotations

import heapq
import operator
import random
from collections import defaultdict
from typing import Callable, Optional

from . import core
from .bicyclic import BicyclicNF, embed, normalize_word, parse_word, recognize, reduce_word, word_iso
from .core import (
    ALPHA,
    BETA,
    IDENTITY,
    InvalidShift,
    NoiseParams,
    NotIdempotent,
    OverBudget,
    PartialIso,
    _check_walk,
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
# the most units of work one call may plan
_WORK = 1 << 24


class _Tally:
    """Counts checked instances, keeps the first few failures and adds up
    the work the suite plans."""

    def __init__(self, property_id: str = "") -> None:
        self.property_id = property_id
        self.planned = 0
        self.instances = 0
        self.failures = 0
        self.bad: list = []

    def plan(self, units: int) -> None:
        """Announce units of work before doing them; refused once the
        call's plans pass _WORK, so no work past the budget is done."""
        self.planned += units
        if self.planned > _WORK:
            raise OverBudget(
                f"verify {self.property_id} plans {self.planned} units, above the budget of {_WORK}"
            )

    def check(self, ok, *info) -> None:
        self.instances += 1
        if not ok:
            self.failures += 1
            if len(self.bad) < _CAP:
                self.bad.append(tuple(repr(x) for x in info))

    def check_all(self, oks: list, info: Callable) -> None:
        """One check per entry of oks, as a row of check calls would make;
        info(n) gives the n-th entry's counterexample and is called only
        when that entry failed."""
        self.instances += len(oks)
        if all(oks):
            return
        for n, ok in enumerate(oks):
            if not ok:
                self.failures += 1
                if len(self.bad) < _CAP:
                    self.bad.append(tuple(repr(x) for x in info(n)))


_REGISTRY: dict[str, tuple[str, Callable]] = {}
# property id -> (pool, default j): see suite_size and suite_level
_SIZES: dict[str, tuple[Callable, Optional[int]]] = {}


def _enumerated(bounds: EnumBounds) -> tuple[int, int]:
    """enumerate_elements(bounds) tries 2s+1 shifts on each subset of {1..n}."""
    return 2 * bounds.s + 1, 0


def register(property_id: str, description: str, pool: Callable = _enumerated, j: Optional[int] = None):
    """Register a suite whose largest element pool ``pool(bounds)``
    counts, as in suite_size.  A suite that reads a level gets
    NoiseParams(j) when verify() is given no params."""
    def deco(fn):
        _REGISTRY[property_id] = (description, fn)
        _SIZES[property_id] = (pool, j)
        return fn
    return deco


def known_properties() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _shape(property_id: str) -> tuple[Callable, Optional[int]]:
    # a suite put in the registry by hand counts as one enumeration pass
    return _SIZES.get(property_id, (_enumerated, None))


def suite_level(property_id: str) -> Optional[int]:
    """The level a suite runs at when given no params; None for a suite
    that reads no params."""
    return _shape(property_id)[1]


def suite_size(property_id: str, bounds: EnumBounds) -> tuple[int, int]:
    """(shifts, extra): the suite's largest pool holds at most
    shifts * 2^n + extra elements.  Read off the bounds without
    enumerating."""
    _require_known(property_id)
    return _shape(property_id)[0](bounds)


def _require_known(property_id: str) -> None:
    if property_id not in _REGISTRY:
        raise UnknownProperty(
            f"{property_id!r} is not registered; known: {', '.join(known_properties())}"
        )


def verify(property_id: str, bounds: EnumBounds, params: Optional[NoiseParams] = None) -> Report:
    shifts, extra = suite_size(property_id, bounds)
    budget = core._BUDGET
    if shifts > budget:
        # named by its size: 2S+1 may have more digits than str() writes
        raise OverBudget(
            f"verify tries at least 2^{shifts.bit_length() - 1} shifts, above the budget of {budget}"
        )
    # shifts*2^n + extra elements, decided without building 2^n
    if shifts and (bounds.n >= budget.bit_length() or (shifts << bounds.n) + extra > budget):
        count = f"{shifts}*2^{bounds.n}" + (f"+{extra}" if extra else "")
        raise OverBudget(f"verify enumerates {count} elements, above the budget of {budget}")
    description, fn = _REGISTRY[property_id]
    level = suite_level(property_id)
    if params is None and level is not None:
        params = NoiseParams(level)
    tally = _Tally(property_id)
    fn(tally, bounds, params)
    return Report(
        property_id,
        description,
        tally.failures == 0,
        tally.instances,
        tuple(tally.bad),
        tally.failures,
    )


def _nested_pairs(t, all_p: list[NoiseParams]) -> list[tuple[NoiseParams, NoiseParams]]:
    """The pairs (p1, p2) of all_p whose offset sets are strictly nested,
    after planning one comparison per pair."""
    t.plan(len(all_p) ** 2)
    return [(p1, p2) for p1 in all_p for p2 in all_p if p1.offsets < p2.offsets]


def _all_params(j: int) -> list[NoiseParams]:
    """Noise bound j with each offset set inside {2..j}, refused past the
    listing budget before any is built."""
    _check_walk(j - 1, "verify lists", "offset sets")
    return [NoiseParams(j, c) for c in subsets(range(2, j + 1))]


# -- element algebra ------------------------------------------------------


def _numbered_products(univ, mul):
    """(ids, table): ids numbers each distinct product the first time it
    appears, and table[a][b] is the number of mul(univ[a], univ[b]).

    The table holds numbers, not products, so a suite that reads a pair
    many times computes and keeps each distinct product once.
    """
    ids: dict = {}
    table = [[ids.setdefault(mul(x, y), len(ids)) for y in univ] for x in univ]
    return ids, table


def _check_assoc(t, univ, mul):
    """One check of (x*y)*z == x*(y*z) for each triple of univ.

    A triple compares two numbers read from tables: the pair products,
    then every distinct pair product times each z and each x times it.
    """
    t.plan(len(univ) ** 3)
    ids, prod = _numbered_products(univ, mul)
    values = list(ids)  # the distinct pair products, in number order
    right = [[ids.setdefault(mul(v, z), len(ids)) for z in univ] for v in values]
    left = [[ids.setdefault(mul(x, v), len(ids)) for v in values] for x in univ]
    for x, x_prod, x_left in zip(univ, prod, left):
        for y, xy, y_prod in zip(univ, x_prod, prod):
            # one row: (x*y)*z against x*(y*z) for every z
            t.check_all(
                list(map(operator.eq, right[xy], map(x_left.__getitem__, y_prod))),
                lambda n: (x, y, univ[n]),
            )


@register("assoc", "composition is associative on every enumerated triple")
def _assoc(t, bounds, params):
    _check_assoc(t, list(enumerate_elements(bounds)), operator.mul)


@register("inverse_axioms", "x*x~*x == x, x~*x*x~ == x~, and partial identities commute")
def _inverse_axioms(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    idems = [g for g in elems if g.is_idempotent]
    t.plan(10 * len(elems) + 3 * len(idems) ** 2)
    for g in elems:
        gi = g.inverse()
        t.check(g * gi * g == g, g)
        t.check(gi * g * gi == gi, g)
        t.check(gi.inverse() == g, g)
    for e in idems:
        for f in idems:
            t.check(e * f == f * e, e, f)


@register("oracle_equiv", "algebraic composition matches the pointwise window oracle on all pairs")
def _oracle_equiv(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    # a window composition walks up to n + 2s + 2 points
    t.plan(len(elems) ** 2 * (bounds.n + 2 * bounds.s + 4))
    for a in elems:
        for b in elems:
            t.check(compose_via_window(a, b) == a * b, a, b)


@register("idempotent_iff", "idempotency, being square-fixed, and having shift 0 coincide")
def _idempotent_iff(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    t.plan(6 * len(elems))
    for g in elems:
        square_fixed = g * g == g
        t.check(g.is_idempotent == square_fixed, g)
        t.check(square_fixed == (g.shift == 0), g)
        if g.is_idempotent:
            t.check(g.inverse() == g, g)


@register("green_relations", "the five Green predicates match their idempotent and witness forms")
def _green_relations(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    span = bounds.n + bounds.s + 1
    # each pair searches the 2*span+1 maps sharing a's domain
    t.plan(len(elems) * (2 * span + 4) + len(elems) ** 2 * (2 * span + 18))
    inverses = [g.inverse() for g in elems]
    # each element's domain and range identities
    dom_ids = [g * gi for g, gi in zip(elems, inverses)]
    ran_ids = [gi * g for g, gi in zip(elems, inverses)]
    for a, dom_id_a, ran_id_a in zip(elems, dom_ids, ran_ids):
        # the elements that share a's domain, one per admissible shift
        sharing = []
        for shift in range(-span, span + 1):
            try:
                sharing.append(PartialIso(a.excluded, shift))
            except InvalidShift:
                pass
        for b, dom_id_b, ran_id_b in zip(elems, dom_ids, ran_ids):
            is_l = green_l(a, b)
            is_r = green_r(a, b)
            t.check(is_l == (dom_id_a == dom_id_b), a, b)
            t.check(is_r == (ran_id_a == ran_id_b), a, b)
            is_h = green_h(a, b)
            t.check(is_h == (is_l and is_r), a, b)
            t.check(is_h == (a == b), a, b)
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


@register("natural_order", "the four formulations of the natural order coincide and order the monoid")
def _natural_order(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    t.plan(11 * len(elems) ** 2)
    ids, table = _numbered_products(elems, operator.mul)
    values = list(ids)
    for ai, (a, a_row) in enumerate(zip(elems, table)):
        t.check(leq(a, a), a)
        ran_id_a = a.inverse() * a
        for bi, (b, b_row) in enumerate(zip(elems, table)):
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
                t.plan(2 * len(elems))
                # a*c and b*c from rows a and b, c*a and c*b from row c
                t.check_all(
                    [
                        leq(values[ac], values[bc]) and leq(values[c_row[ai]], values[c_row[bi]])
                        for ac, bc, c_row in zip(a_row, b_row, table)
                    ],
                    lambda n: (a, b, elems[n]),
                )


@register("congruence", "shift equality is the least group congruence, with explicit witnesses")
def _congruence(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    idems = [g for g in elems if g.is_idempotent]
    t.plan(8 * len(elems) ** 2 + len(idems) ** 2)
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
    for e in idems:
        for f in idems:
            t.check(group_congruent(e, f), e, f)


@register("retraction", "tail restriction is an idempotent homomorphism onto the noise-free part")
def _retraction(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    t.plan(12 * len(elems) + 5 * len(elems) ** 2)
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


@register("offset_classes", "domain- and range-side offset conditions agree; extremes collapse", j=3)
def _offset_classes(t, bounds, params):
    j = params.j
    elems = list(enumerate_elements(bounds))
    all_p = _all_params(j)
    nested = _nested_pairs(t, all_p)
    t.plan(2 * len(all_p) * len(elems) + 2 * len(elems) + len(nested) * (2 * len(elems) + 2))
    for p in all_p:
        for g in elems:
            t.check(in_offset_class(g, p) == in_offset_class_range(g, p), g, p.offsets)
    empty = NoiseParams(j)
    full = NoiseParams.full(j)
    for g in elems:
        t.check(in_offset_class(g, empty) == (g.noise == 0), g)
        t.check(in_offset_class(g, full) == noise_bounded(g, j), g)
    for p1, p2 in nested:
        m1, m2 = p1.offsets, p2.offsets
        for g in elems:
            t.check(not in_offset_class(g, p1) or in_offset_class(g, p2), g, m1, m2)
        m = min(m2 - m1)
        w = PartialIso(range(2, m + 1), 0)
        t.check(in_offset_class(w, p2) and not in_offset_class(w, p1), w, m1, m2)


@register("class_closure", "every offset class is closed under products and inverses", j=3)
def _class_closure(t, bounds, params):
    j = params.j
    elems = list(enumerate_elements(bounds))
    all_p = _all_params(j)
    t.plan(len(all_p) * len(elems))
    classes = [[g for g in elems if in_offset_class(g, p)] for p in all_p]
    # one table over every class's members, read by their numbers
    univ = list(dict.fromkeys(g for members in classes for g in members))
    t.plan(len(univ) ** 2 + sum((len(members) + 1) ** 2 for members in classes))
    number = {g: n for n, g in enumerate(univ)}
    ids, table = _numbered_products(univ, operator.mul)
    values = list(ids)
    for p, members in zip(all_p, classes):
        t.check(in_offset_class(IDENTITY, p), p.offsets)
        for g in members:
            t.check(in_offset_class(g.inverse(), p), g, p.offsets)
        cols = [number[b] for b in members]
        for a in members:
            row = table[number[a]]
            t.check_all(
                [in_offset_class(values[row[c]], p) for c in cols],
                lambda n: (a, members[n], p.offsets),
            )


@register("noise_one_absent", "no element has noise exactly 1")
def _noise_one_absent(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    t.plan(len(elems) + 2)
    seen = set()
    for g in elems:
        t.check(g.noise != 1, g)
        seen.add(g.noise)
    t.check(0 in seen, sorted(seen))
    if bounds.n >= 2:
        t.check(2 in seen, sorted(seen))


@register("series_strict", "the noise filtration is strict at every level from 2 up")
def _series_strict(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    t.plan(8 * len(elems) + 8)
    for j in range(2, 6):
        w = PartialIso(range(2, j + 1), 0)
        t.check(w.noise == j, w, j)
        t.check(noise_bounded(w, j) and not noise_bounded(w, j - 1), w, j)
    for g in elems:
        for j in range(2, 6):
            t.check(not noise_bounded(g, j - 1) or noise_bounded(g, j), g, j)


# -- absorption, collapsing chains, the boundary --------------------------


@register("absorption", "the basepoint identity is absorbed exactly off the point 1, on both sides")
def _absorption(t, bounds, params):
    elems = list(enumerate_elements(bounds))
    t.plan(6 * len(elems) + 2)
    ba = BETA * ALPHA
    t.check(ba == PartialIso((1,), 0), ba)
    for g in elems:
        t.check((ba * g == g) == (not g.defined_at(1)), g)
        t.check((g * ba == g) == (not g.hits(1)), g)


@register("tail_chain", "the collapsing chain turns any partial identity into a plain tail identity")
def _tail_chain(t, bounds, params):
    # the chain at depth d flattens the idempotents of the noise-d monoid;
    # above that noise the head can outrun the d-step sweep
    for depth in (2, 3, 4):
        idems = [e for e in enumerate_elements(EnumBounds(bounds.n, bounds.s, depth)) if e.is_idempotent]
        t.plan(len(idems) * (2 * depth + 2))
        for e in idems:
            t.check(tail_chain(e, depth) == PartialIso(range(1, e.tail_start + depth), 0), e, depth)
    shifted = next((g for g in enumerate_elements(bounds) if g.shift != 0), None)
    if shifted is not None:
        t.plan(1)
        try:
            tail_chain(shifted, 2)
            t.check(False, shifted)
        except NotIdempotent:
            t.check(True, shifted)


@register("conjugation", "shift conjugation moves a partial identity's head up and keeps its noise")
def _conjugation(t, bounds, params):
    idems = [e for e in enumerate_elements(bounds) if e.is_idempotent]
    t.plan(4 * 12 * len(idems))
    for e in idems:
        for k in range(1, 5):
            c = BETA ** k * e * ALPHA ** k
            expected = PartialIso(tuple(range(1, k + 1)) + tuple(x + k for x in e.excluded), 0)
            t.check(c == expected, e, k)
            t.check(c * c == c, e, k)
            t.check(c.tail_start == e.tail_start + k, e, k)
            t.check(c.dom_min == e.dom_min + k, e, k)
            t.check(c.noise == e.noise, e, k)


@register("boundary", "the two-sided non-absorbed set matches its brute-force computation", j=3)
def _boundary(t, bounds, params):
    j = params.j
    t.check(bounds.n >= j, bounds.n, j)  # the sweep must reach every candidate point
    ba = BETA * ALPHA
    _check_walk(j - 1, "verify lists", "offset sets")
    listed = boundary_set(j)
    t.check(len(listed) == 2 ** (j - 1), j, len(listed))
    candidates = list(enumerate_elements(EnumBounds(bounds.n, bounds.s, j)))
    t.plan(4 * len(candidates) + 2 * len(listed))
    brute = [g for g in candidates if ba * g != g and g * ba != g]
    found, wanted = set(brute), set(listed)
    t.check(len(brute) == len(found), j)
    # a failure names the sizes and the first few maps of the difference,
    # which can hold all 2^(j-1) listed maps
    first = heapq.nsmallest(_CAP, found ^ wanted)
    t.check(not first, j, len(found), len(wanted), first)


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
    pool=_ext_pool,
    j=2,
)
def _ext_assoc(t, bounds, params):
    _check_assoc(t, _ext_universe(bounds, params), ext_mul)


@register(
    "ext_ideal",
    "adjoined integers absorb every product and the shift total is additive",
    pool=_ext_pool,
    j=2,
)
def _ext_ideal(t, bounds, params):
    univ = _ext_universe(bounds, params)
    t.plan(4 * len(univ) ** 2)
    for x in univ:
        for y in univ:
            prod = ext_mul(x, y)
            if isinstance(x, Group) or isinstance(y, Group):
                t.check(isinstance(prod, Group), x, y)
            t.check(ext_pi(prod) == ext_pi(x) + ext_pi(y), x, y)


@register("ext_order", "the extended order is a partial order obeying the level rules", pool=_ext_pool, j=2)
def _ext_order(t, bounds, params):
    univ = _ext_universe(bounds, params)
    t.plan(len(univ) + 6 * len(univ) ** 2)
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
                t.plan(2 * len(univ))
                for z in univ:
                    if ext_leq(y, z):
                        t.check(ext_leq(x, z), x, y, z)


@register("ext_commute", "adjoined integers commute with every element", pool=_ext_pool, j=2)
def _ext_commute(t, bounds, params):
    univ = _ext_universe(bounds, params)
    t.plan(5 * 3 * len(univ))
    for x in univ:
        for k in range(-2, 3):
            t.check(ext_mul(Group(k), x) == ext_mul(x, Group(k)), x, k)


@register(
    "ext_surjective",
    "pushing all maps down to the zero level fills the reachable levels",
    pool=_ext_pool,
    j=2,
)
def _ext_surjective(t, bounds, params):
    univ = _ext_universe(bounds, params)
    t.plan(2 * len(univ) + 1)
    isos = [g for g in univ if isinstance(g, PartialIso)]
    image = {ext_mul(Group(0), g) for g in isos}
    expected = {Group(k) for k in range(-bounds.s, bounds.s + 1)}
    t.check(image == expected, sorted(image), sorted(expected))


@register(
    "ext_translation",
    "level translations are injective, level-true, and undone by the opposite shift",
    pool=_zero_upset,
    j=2,
)
def _ext_translation(t, bounds, params):
    p = NoiseParams(params.j)
    base = up_set_truncated(Group(0), p, bounds.n)
    t.plan(3 * (10 * len(base.elements) + 2) + 2)
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


@register("nbhd_nesting", "neighborhoods shrink as the base index grows", pool=_nbhd_pool, j=2)
def _nbhd_nesting(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    all_p = _all_params(j)
    # two memberships for each x at each (offset set, k, i)
    t.plan(len(all_p) * 5 * 6 * 2 * len(pool))
    for p in all_p:
        for k in range(-2, 3):
            for i in range(1, 7):
                inner = NbhdSpec(k, i + 1, p)
                outer = NbhdSpec(k, i, p)
                t.check_all(
                    [not nbhd_member(x, inner) or nbhd_member(x, outer) for x in pool],
                    lambda n: (pool[n], k, i, p.offsets),
                )


@register(
    "nbhd_inversion",
    "members invert into the mirrored neighborhood at the shifted index",
    pool=_nbhd_pool,
    j=2,
)
def _nbhd_inversion(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    all_p = _all_params(j)
    t.plan(len(pool) + len(all_p) * 5 * 6 * 2 * len(pool))
    pairs = [(x, ext_inv(x)) for x in pool]
    for p in all_p:
        for k in range(-2, 3):
            for i in range(1, 7):
                spec = NbhdSpec(k, i, p)
                mirror = NbhdSpec(-k, max(1, i + k), p)
                t.check_all(
                    [nbhd_member(x, spec) == nbhd_member(x_inv, mirror) for x, x_inv in pairs],
                    lambda n: (pool[n], k, i, p.offsets),
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
    pool=_nbhd_pool,
    j=2,
)
def _nbhd_translation(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    all_p = _all_params(j)
    # (mover, reach, base index): each mover at two indices past its reach
    steps = []
    for gam in enumerate_elements(EnumBounds(2, 2)):
        head = gam.tail_start - 1
        reach = max(head, head + gam.shift)
        steps.extend((gam, reach, i) for i in range(reach + j + 1, reach + j + 3))
    # movers with the same reach share a base index: split once per i
    indices = {i for _, _, i in steps}
    # the splits, and two targets for each step and level, each about
    # five units to build
    t.plan(len(all_p) * (len(indices) * len(pool) + 5 * 10 * len(steps)))
    for p in all_p:
        levels = {i: _members_by_level(pool, i, p) for i in indices}
        # a product, a membership and a tally for each side of each member
        t.plan(sum(6 * len(levels[i].get(k, ())) for _, _, i in steps for k in range(-2, 3)))
        for gam, reach, i in steps:
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
    pool=_nbhd_pool,
    j=2,
)
def _nbhd_product(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    levels = range(-2, 3)
    all_p = _all_params(j)
    t.plan(len(all_p) * 2 * len(pool))
    splits = [(p, i, _members_by_level(pool, i, p)) for p in all_p for i in range(j + 1, j + 3)]
    # every pair of members at the checked levels is checked in some split
    univ = list(
        dict.fromkeys(x for _, _, by_k in splits for k in levels for x in by_k.get(k, []))
    )
    sizes = [sum(len(by_k.get(k, ())) for k in levels) for _, _, by_k in splits]
    # each split builds 25 targets, about five units each, and tallies a
    # row of memberships for each member and level
    t.plan(len(univ) ** 2 + sum(size ** 2 + 15 * size + 125 for size in sizes))
    number = {x: n for n, x in enumerate(univ)}
    ids, table = _numbered_products(univ, ext_mul)
    values = list(ids)
    for p, i, by_k in splits:
        for k1 in levels:
            for k2 in levels:
                target = NbhdSpec(k1 + k2, i, p)
                ys = by_k.get(k2, [])
                cols = [number[y] for y in ys]
                for x in by_k.get(k1, []):
                    row = table[number[x]]
                    t.check_all(
                        [nbhd_member(values[row[c]], target) for c in cols],
                        lambda n: (x, ys[n], k1, k2, i, p.offsets),
                    )


@register("nbhd_hausdorff", "neighborhoods of different levels never meet", pool=_nbhd_pool, j=2)
def _nbhd_hausdorff(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    all_p = _all_params(j)
    # two memberships for each x at each (offset set, k1 < k2, i)
    t.plan(len(all_p) * 10 * 3 * 2 * len(pool))
    for p in all_p:
        for k1 in range(-2, 3):
            for k2 in range(k1 + 1, 3):
                for i in (1, 3, 5):
                    s1, s2 = NbhdSpec(k1, i, p), NbhdSpec(k2, i, p)
                    t.check_all(
                        [not (nbhd_member(x, s1) and nbhd_member(x, s2)) for x in pool],
                        lambda n: (pool[n], k1, k2, i),
                    )


@register("nbhd_monotone", "a larger offset set only enlarges each neighborhood", pool=_nbhd_pool, j=2)
def _nbhd_monotone(t, bounds, params):
    j, pool = _topo_pool(bounds, params)
    nested = _nested_pairs(t, _all_params(j))
    t.plan(len(nested) * 3 * 2 * 2 * len(pool))
    for p1, p2 in nested:
        m1, m2 = p1.offsets, p2.offsets
        for k in (-1, 0, 2):
            for i in (1, 4):
                small = NbhdSpec(k, i, p1)
                large = NbhdSpec(k, i, p2)
                t.check_all(
                    [not nbhd_member(x, small) or nbhd_member(x, large) for x in pool],
                    lambda n: (pool[n], m1, m2, k, i),
                )


@register(
    "upset_char",
    "the index cutoff equals exclusion from the cutoff witness's up-set",
    pool=_level_pool,
    j=2,
)
def _upset_char(t, bounds, params):
    j = params.j
    # one shift pool per level, shared by every (i, offset set)
    pools = {k: upset_pool(k, bounds.n) for k in range(-2, 3)}
    all_p = _all_params(j)
    # each agreement check runs three predicates on each map of its pool
    t.plan(len(all_p) * 7 * sum(3 * len(pool) + 3 for pool in pools.values()))
    for p in all_p:
        for k, pool in pools.items():
            for i in range(2, 9):
                t.check(nbhd_upset_agreement(k, i, p, pool=pool), k, i, p.offsets)


@register(
    "convergence_probe",
    "closed-form convergence verdicts match the direct neighborhood probe",
    pool=_no_pool,
    j=3,
)
def _convergence_probe(t, bounds, params):
    all_p = _all_params(params.j)
    # each probe builds and tests the ten elements of its closing stretch
    t.plan(len(all_p) ** 2 * 5 * 5 * (3 * 10 + 2))
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


@register("bicyclic_hom", "normal-form products match map composition through the embedding")
def _bicyclic_hom(t, bounds, params):
    nfs = [BicyclicNF(k, l) for k in range(7) for l in range(7)]
    elems = list(enumerate_elements(bounds))
    t.plan(3 * len(nfs) + 5 * len(nfs) ** 2 + 4 * len(elems))
    for u in nfs:
        t.check(recognize(embed(u)) == u, u)
        for v in nfs:
            t.check(embed(u * v) == embed(u) * embed(v), u, v)
    for g in elems:
        nf = recognize(g)
        t.check((nf is None) == (g.noise != 0), g)
        if nf is not None:
            t.check(embed(nf) == g, g, nf)


@register(
    "word_soundness",
    "random words normalize to the same element along every reduction route",
    pool=_no_pool,
)
def _word_soundness(t, bounds, params):
    # each word of up to 20 letters is composed and rewritten letter by letter
    t.plan(1 + 1000 * (3 * 20 + 3))
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
