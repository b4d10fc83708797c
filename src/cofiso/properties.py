"""Registered property suites over exhaustive bounded enumerations.

Each suite replays one algebraic fact against every instance the bounds
allow and reports pass/fail with counterexamples.  verify() is the
single entry point; the bounds pick the enumeration budget and each
suite is handed the noise level j it reads: params.j or its registered one.

Every call is bounded.  Each pool refuses itself before it is built
once it would hold more than the listing budget (core._check_budget)
elements, as the offset-set lists refuse a level past it.  Each suite
then plans its work in units (one predicate, product or comparison,
weighted where one check hides a loop) from the lengths of what it has
built, or from the bounds alone, before each costly stage; the call is
refused with OverBudget once the plans pass _WORK.  A call that runs
reports the units it planned as Report.planned.
"""

from __future__ import annotations

import heapq
import operator
import random
from collections import Counter
from typing import Callable, Optional

from . import bicyclic
from .bicyclic import BicyclicNF, embed, normalize_word, parse_word, recognize, reduce_word, word_iso
from .core import (
    ALPHA,
    BETA,
    IDENTITY,
    NoiseParams,
    NotIdempotent,
    OverBudget,
    PartialIso,
    _anatomy,
    _check_budget,
    _check_walk,
    _mask,
    _ones,
    _product,
    _Value,
    boundary_set,
    d_witness,
    elements,
    from_anatomy,
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
from .oracle import EnumBounds, _compose_views, _view, enumerate_elements
from .topology import (
    TailSeqSpec,
    _MemberIndex,
    _Memo,
    converges,
    empirical_converges,
    nbhd_upset_agreement,
    upset_pool,
)


class UnknownProperty(ValueError):
    """No suite registered under the requested identifier."""


class Report(_Value):
    __slots__ = ("property_id", "description", "passed", "instances", "counterexamples", "failures", "planned")

    def __init__(
        self,
        property_id: str,
        description: str,
        passed: bool,
        instances: int,
        counterexamples: tuple = (),
        failures: int = 0,  # every failed check; counterexamples keeps the first few
        planned: int = 0,  # the units of work the call planned
    ) -> None:
        super().__init__(property_id, description, passed, instances, counterexamples, failures, planned)


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

    def check_mask(self, count: int, bad: int, info: Callable) -> None:
        """count checks, as a row of check calls would make them, of which
        bit n of bad marks the failed n-th; info(n) gives the n-th
        counterexample and is called only for the lowest failures, in
        order, while fewer than _CAP are kept."""
        self.instances += count
        if bad:
            self.failures += bad.bit_count()
            for n in _ones(bad)[: _CAP - len(self.bad)]:
                self.bad.append(tuple(repr(x) for x in info(n)))


# property id -> (description, the level its suite runs at when given
# no params, the suite)
_REGISTRY: dict[str, tuple[str, Optional[int], Callable]] = {}


def register(property_id: str, description: str, j: Optional[int] = None):
    """Register a suite, called as fn(tally, bounds, j); verify() passes
    this j when given no params.  Each pool a suite builds refuses itself,
    through _listed, _check_pool or the walk that lists it, before it is built."""
    def deco(fn):
        _REGISTRY[property_id] = (description, j, fn)
        return fn
    return deco


def known_properties() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def verify(property_id: str, bounds: EnumBounds, params: Optional[NoiseParams] = None) -> Report:
    """Run a suite; of params only params.j is read, and None means the suite's registered level."""
    if property_id not in _REGISTRY:
        raise UnknownProperty(
            f"{property_id!r} is not registered; known: {', '.join(known_properties())}"
        )
    description, level, fn = _REGISTRY[property_id]
    tally = _Tally(property_id)
    fn(tally, bounds, level if params is None else params.j)
    return Report(
        property_id,
        description,
        tally.failures == 0,
        tally.instances,
        tuple(tally.bad),
        tally.failures,
        tally.planned,
    )


def _check_pool(shifts: int, n: int, groups: range = range(0)) -> None:
    """Refuse a pool of shifts * 2^n maps and a Group for each k in groups
    past the listing budget."""
    # named by its size: 2S+1 may have more digits than str() writes
    _check_budget(lambda: f"verify tries at least 2^{shifts.bit_length() - 1} shifts", shifts)
    # counted only here: a suite's groups are about as many as its
    # shifts, and len() refuses a range past sys.maxsize
    extra = len(groups)
    _check_budget(
        lambda: f"verify enumerates {shifts}*2^{n}{f'+{extra}' if extra else ''} elements", shifts, n, extra
    )


def _listed(bounds: EnumBounds, groups: range = range(0)) -> list:
    """enumerate_elements(bounds) as a list, then Group(k) for each k in
    groups; refused first if the whole list could pass the budget: it
    tries 2s+1 shifts on each subset of {1..n}."""
    _check_pool(2 * bounds.s + 1, bounds.n, groups)
    return [*enumerate_elements(bounds), *map(Group, groups)]


def _nested_pairs(t, all_p: list[NoiseParams]) -> list[tuple[NoiseParams, NoiseParams]]:
    """The pairs (p1, p2) of all_p whose offset sets are strictly nested,
    after planning one comparison per pair."""
    t.plan(len(all_p) ** 2)
    return [(p1, p2) for p1 in all_p for p2 in all_p if p1.offsets < p2.offsets]


def _all_params(j: int) -> list[NoiseParams]:
    """Noise bound j with each offset set inside {2..j}, refused past the
    listing budget before any is built."""
    _check_walk(j - 1, "verify lists", "offset sets")
    return [NoiseParams(j, g.excluded) for g in elements(range(2, j + 1), (0,))]


# -- element algebra ------------------------------------------------------


def _numbered_products(univ, mul):
    """(ids, table, values): ids numbers each distinct key the first time
    it appears, table[a][b] is the number of mul(univ[a], univ[b]) and
    values[n] is the product numbered n.

    mul may return a map's anatomy (dom_min, gaps, shift), as _product
    does, in place of the map: the pairs are then numbered by anatomy
    and each distinct product is built once, as from_anatomy(*key).  Any
    other key is its own value.  The table holds numbers, not products,
    so a suite that reads a pair many times computes and keeps each
    distinct product once.
    """
    ids: dict = {}
    table = [[ids.setdefault(mul(x, y), len(ids)) for y in univ] for x in univ]
    return ids, table, _built(ids)


def _built(keys) -> list:
    """The product each key stands for: an anatomy (dom_min, gaps, shift)
    is built as its map, any other key is its own value."""
    return [from_anatomy(*key) if key.__class__ is tuple else key for key in keys]


def _ext_product(x, y):
    """ext_mul, with a product of two maps given as its anatomy."""
    if x.__class__ is PartialIso and y.__class__ is PartialIso:
        return _product(x, y)
    return ext_mul(x, y)


def _misses(cols, *sides) -> int:
    """The failures of a row that checks each column on every side in
    turn, as _Tally.check_mask reads them: bit n * len(sides) + s is set
    when, on the s-th side (row, inside), the product numbered
    row[cols[n]] is not in inside.  A row that misses nothing is settled
    by one subset test a side."""
    for row, inside in sides:
        if not inside.issuperset(map(row.__getitem__, cols)):
            return _mask([row[c] not in inside for c in cols for row, inside in sides])
    return 0


def _check_row(t, got: list, want: list, info: Callable) -> None:
    """One check of got[n] == want[n] for each n, tallied as one row: a
    row that passes is settled by one list comparison."""
    t.check_mask(len(got), 0 if got == want else _mask(list(map(operator.ne, got, want))), info)


def _check_assoc(t, univ, mul):
    """One check of (x*y)*z == x*(y*z) for each triple of univ.

    A triple compares two numbers read from tables: the pair products,
    then every distinct pair product times each z and each x times it.
    A row of z is settled by one list comparison; only a row that fails
    is compared entry by entry.
    """
    t.plan(len(univ) ** 3)
    ids, prod, values = _numbered_products(univ, mul)
    right = [[ids.setdefault(mul(v, z), len(ids)) for z in univ] for v in values]
    left = [[ids.setdefault(mul(x, v), len(ids)) for v in values] for x in univ]
    for x, x_prod, x_left in zip(univ, prod, left):
        for y, xy, y_prod in zip(univ, x_prod, prod):
            # one row: (x*y)*z against x*(y*z) for every z
            _check_row(t, right[xy], list(map(x_left.__getitem__, y_prod)), lambda n: (x, y, univ[n]))


@register("assoc", "composition is associative on every enumerated triple")
def _assoc(t, bounds, j):
    _check_assoc(t, _listed(bounds), _product)


@register("inverse_axioms", "x*x~*x == x, x~*x*x~ == x~, and partial identities commute")
def _inverse_axioms(t, bounds, j):
    elems = _listed(bounds)
    idems = [g for g in elems if g.is_idempotent]
    t.plan(10 * len(elems) + 3 * len(idems) ** 2)
    for g in elems:
        gi = g.inverse()
        t.check(_product(g * gi, g) == _anatomy(g), g)
        t.check(_product(gi * g, gi) == _anatomy(gi), g)
        t.check(gi.inverse() == g, g)
    for e in idems:
        for f in idems:
            t.check(_product(e, f) == _product(f, e), e, f)


@register("oracle_equiv", "algebraic composition matches the pointwise window oracle on all pairs")
def _oracle_equiv(t, bounds, j):
    elems = _listed(bounds)
    # a window composition walks up to n + 2s + 2 points
    t.plan(len(elems) ** 2 * (bounds.n + 2 * bounds.s + 4))
    # what the window reads of each element is built once; rows stream
    views = [_view(g) for g in elems]
    for a, va in zip(elems, views):
        for b, vb in zip(elems, views):
            t.check(_compose_views(va, vb) == a * b, a, b)


@register("idempotent_iff", "idempotency, being square-fixed, and having shift 0 coincide")
def _idempotent_iff(t, bounds, j):
    elems = _listed(bounds)
    t.plan(6 * len(elems))
    for g in elems:
        square_fixed = _product(g, g) == _anatomy(g)
        t.check(g.is_idempotent == square_fixed, g)
        t.check(square_fixed == (g.shift == 0), g)
        if g.is_idempotent:
            t.check(g.inverse() == g, g)


@register("green_relations", "the five Green predicates match their idempotent and witness forms")
def _green_relations(t, bounds, j):
    elems = _listed(bounds)
    span = bounds.n + bounds.s + 1
    # an upper bound: it weighs every pair with a search over the 2*span+1
    # maps sharing a's domain, which runs once per domain
    t.plan(len(elems) * (2 * span + 4) + len(elems) ** 2 * (2 * span + 18))
    inverses = [g.inverse() for g in elems]
    # each element's domain and range identities, as anatomies
    dom_ids = [_product(g, gi) for g, gi in zip(elems, inverses)]
    ran_ids = [_product(gi, g) for g, gi in zip(elems, inverses)]
    # rows over the b's, one for each value a contributes: the two-sided
    # witness x reads b and a.tail_start, y reads a.ran_tail_start and
    # b.ran_min, and the D search reads b and a's domain alone
    x_rows = _Memo(lambda start: [from_anatomy(b.dom_min, b.gaps, start - b.dom_min) for b in elems])
    y_rows = _Memo(lambda ran: [from_anatomy(ran, 0, b.ran_min - ran) for b in elems])

    def search(domain):
        # some element sharing a's domain, one per admissible shift, is
        # R-related to b
        u, gaps = domain
        sharing = [from_anatomy(u, gaps, s) for s in range(max(-span, 1 - u), span + 1)]
        return [any(green_r(c, b) for c in sharing) for b in elems]

    d_rows = _Memo(search)
    for a, dom_id_a, ran_id_a in zip(elems, dom_ids, ran_ids):
        rows = zip(
            elems, dom_ids, ran_ids, x_rows[a.tail_start], y_rows[a.ran_tail_start], d_rows[a.dom_min, a.gaps]
        )
        for b, dom_id_b, ran_id_b, x, y, exists in rows:
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
            t.check(_product(x * a, y) == _anatomy(b), a, b, x, y)


@register("natural_order", "the four formulations of the natural order coincide and order the monoid")
def _natural_order(t, bounds, j):
    elems = _listed(bounds)
    # the table and ten checks a pair, planned before the table is built
    t.plan(11 * len(elems) ** 2)
    # le[a][b] is leq(elems[a], elems[b]); each related pair checks a
    # row of compatibilities, all planned before the first check
    le = [[leq(a, b) for b in elems] for a in elems]
    t.plan(2 * len(elems) * sum(map(sum, le)))
    _, table, values = _numbered_products(elems, _product)
    inverses = [g.inverse() for g in elems]
    for ai, (a, a_inv, a_row, a_le) in enumerate(zip(elems, inverses, table, le)):
        t.check(a_le[ai], a)
        ran_id_a, a_anatomy = a_inv * a, _anatomy(a)
        for bi, (b, b_inv, b_row, b_le) in enumerate(zip(elems, inverses, table, le)):
            by_def = a_le[bi]
            dom_incl = a.shift == b.shift and set(b.excluded) <= set(a.excluded)
            ran_incl = a.shift == b.shift and set(b_inv.excluded) <= set(a_inv.excluded)
            by_restriction = a_anatomy == _product(b, ran_id_a)
            t.check(by_def == dom_incl, a, b)
            t.check(by_def == ran_incl, a, b)
            t.check(by_def == by_restriction, a, b)
            if by_def and b_le[ai]:
                t.check(a == b, a, b)
            if by_def:
                t.check(leq(a_inv, b_inv), a, b)
                # a*c and b*c from rows a and b, c*a and c*b from row c
                t.check_mask(
                    len(elems),
                    _mask([
                        not (leq(values[ac], values[bc]) and leq(values[c_row[ai]], values[c_row[bi]]))
                        for ac, bc, c_row in zip(a_row, b_row, table)
                    ]),
                    lambda n: (a, b, elems[n]),
                )


@register("congruence", "shift equality is the least group congruence, with explicit witnesses")
def _congruence(t, bounds, j):
    elems = _listed(bounds)
    idems = [g for g in elems if g.is_idempotent]
    t.plan(8 * len(elems) ** 2 + len(idems) ** 2)
    # the identity of [1, n) for each tail start n, which tells apart the
    # pairs of different shifts
    probes = {n: PartialIso(range(1, n), 0) for n in {g.tail_start for g in elems}}
    for a in elems:
        for b in elems:
            related = group_congruent(a, b)
            t.check(related == (a.pi == b.pi), a, b)
            w = group_congruence_witness(a, b)
            if related:
                t.check(w is not None and w.is_idempotent and _product(w, a) == _product(w, b), a, b, w)
            else:
                probe = probes[max(a.tail_start, b.tail_start)]
                t.check(w is None and _product(probe, a) != _product(probe, b), a, b)
            t.check(_product(a, b)[2] == a.pi + b.pi, a, b)
    for e in idems:
        for f in idems:
            t.check(group_congruent(e, f), e, f)


@register("retraction", "tail restriction is an idempotent homomorphism onto the noise-free part")
def _retraction(t, bounds, j):
    elems = _listed(bounds)
    t.plan(12 * len(elems) + 5 * len(elems) ** 2)
    tails = [g.tail() for g in elems]
    for g, r in zip(elems, tails):
        t.check(r.noise == 0, g)
        t.check(r == PartialIso(range(1, g.tail_start), g.shift), g)
        t.check(r.tail() == r, g)
        if g.noise == 0:
            t.check(r == g, g)
        t.check(r.inverse() == g.inverse().tail(), g)
        ri = r.inverse()
        t.check(_product(g, ri) == _product(r, ri), g)
        t.check(_product(ri, g) == _product(ri, r), g)
    # the tail of each distinct product, taken once
    _, table, values = _numbered_products(elems, _product)
    product_tails = [_anatomy(v.tail()) for v in values]
    for a, ta, row in zip(elems, tails, table):
        got = [product_tails[n] for n in row]
        _check_row(t, got, [_product(ta, tb) for tb in tails], lambda n: (a, elems[n]))


# -- noise and offset classes ---------------------------------------------


@register("offset_classes", "domain- and range-side offset conditions agree; extremes collapse", j=3)
def _offset_classes(t, bounds, j):
    elems = _listed(bounds)
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
def _class_closure(t, bounds, j):
    elems = _listed(bounds)
    all_p = _all_params(j)
    t.plan(len(all_p) * len(elems))
    # each class as the positions of its members in elems
    classes = [[n for n, g in enumerate(elems) if in_offset_class(g, p)] for p in all_p]
    # one table over every class's members: row_of[n] is the row of elems[n]
    row_of = {n: r for r, n in enumerate(dict.fromkeys(n for members in classes for n in members))}
    t.plan(len(row_of) ** 2 + sum((len(members) + 1) ** 2 for members in classes))
    _, table, values = _numbered_products([elems[n] for n in row_of], _product)
    for p, members in zip(all_p, classes):
        t.check(in_offset_class(IDENTITY, p), p.offsets)
        for g in map(elems.__getitem__, members):
            t.check(in_offset_class(g.inverse(), p), g, p.offsets)
        # the numbers of the products inside the class, one membership
        # test per distinct product
        inside = {n for n, v in enumerate(values) if in_offset_class(v, p)}
        cols = [row_of[n] for n in members]
        for a, r in zip(map(elems.__getitem__, members), cols):
            t.check_mask(len(cols), _misses(cols, (table[r], inside)), lambda n: (a, elems[members[n]], p.offsets))


@register("noise_one_absent", "no element has noise exactly 1")
def _noise_one_absent(t, bounds, j):
    elems = _listed(bounds)
    t.plan(len(elems) + 2)
    seen = set()
    for g in elems:
        t.check(g.noise != 1, g)
        seen.add(g.noise)
    t.check(0 in seen, sorted(seen))
    if bounds.n >= 2:
        t.check(2 in seen, sorted(seen))


@register("series_strict", "the noise filtration is strict at every level from 2 up")
def _series_strict(t, bounds, j):
    elems = _listed(bounds)
    t.plan(8 * len(elems) + 8)
    for level in range(2, 6):
        w = PartialIso(range(2, level + 1), 0)
        t.check(w.noise == level, w, level)
        t.check(noise_bounded(w, level) and not noise_bounded(w, level - 1), w, level)
    for g in elems:
        for level in range(2, 6):
            t.check(not noise_bounded(g, level - 1) or noise_bounded(g, level), g, level)


# -- absorption, collapsing chains, the boundary --------------------------


@register("absorption", "the basepoint identity is absorbed exactly off the point 1, on both sides")
def _absorption(t, bounds, j):
    elems = _listed(bounds)
    t.plan(6 * len(elems) + 2)
    ba = BETA * ALPHA
    t.check(ba == PartialIso((1,), 0), ba)
    for g in elems:
        g_anatomy = _anatomy(g)
        t.check((_product(ba, g) == g_anatomy) == (not g.defined_at(1)), g)
        t.check((_product(g, ba) == g_anatomy) == (not g.hits(1)), g)


@register("tail_chain", "the collapsing chain turns any partial identity into a plain tail identity")
def _tail_chain(t, bounds, j):
    # the chain at depth d flattens the idempotents of the noise-d monoid;
    # above that noise the head can outrun the d-step sweep.  Each depth
    # sets its own noise cap, so the pool is listed without bounds.j
    elems = _listed(EnumBounds(bounds.n, bounds.s))
    for depth in (2, 3, 4):
        idems = [e for e in elems if e.is_idempotent and e.noise <= depth]
        t.plan(len(idems) * (2 * depth + 2))
        for e in idems:
            t.check(tail_chain(e, depth) == PartialIso(range(1, e.tail_start + depth), 0), e, depth)
    shifted = next((g for g in elems if g.shift != 0), None)
    if shifted is not None:
        t.plan(1)
        try:
            tail_chain(shifted, 2)
            t.check(False, shifted)
        except NotIdempotent:
            t.check(True, shifted)


@register("conjugation", "shift conjugation moves a partial identity's head up and keeps its noise")
def _conjugation(t, bounds, j):
    idems = [e for e in _listed(bounds) if e.is_idempotent]
    t.plan(4 * 12 * len(idems))
    for e in idems:
        for k in range(1, 5):
            c = BETA ** k * e * ALPHA ** k
            expected = PartialIso(tuple(range(1, k + 1)) + tuple(x + k for x in e.excluded), 0)
            t.check(c == expected, e, k)
            t.check(_product(c, c) == _anatomy(c), e, k)
            t.check(c.tail_start == e.tail_start + k, e, k)
            t.check(c.dom_min == e.dom_min + k, e, k)
            t.check(c.noise == e.noise, e, k)


@register("boundary", "the two-sided non-absorbed set matches its brute-force computation", j=3)
def _boundary(t, bounds, j):
    t.check(bounds.n >= j, bounds.n, j)  # the sweep must reach every candidate point
    ba = BETA * ALPHA
    # the pool is refused ahead of the 2^(j-1) listed maps
    candidates = _listed(EnumBounds(bounds.n, bounds.s, j))
    listed = boundary_set(j)
    t.check(len(listed) == 2 ** (j - 1), j, len(listed))
    t.plan(4 * len(candidates) + 2 * len(listed))
    brute = [g for g in candidates if _product(ba, g) != _anatomy(g) and _product(g, ba) != _anatomy(g)]
    found, wanted = set(brute), set(listed)
    t.check(len(brute) == len(found), j)
    # a failure names the sizes and the first few maps of the difference,
    # which can hold all 2^(j-1) listed maps
    first = heapq.nsmallest(_CAP, found ^ wanted)
    t.check(not first, j, len(found), len(wanted), first)


# -- the adjoined integer ideal -------------------------------------------


def _ext_universe(bounds, j):
    reach = bounds.s + 1
    return _listed(EnumBounds(bounds.n, bounds.s, j), range(-reach, reach + 1))


@register("ext_assoc", "the extended product is associative across maps and adjoined integers", j=2)
def _ext_assoc(t, bounds, j):
    _check_assoc(t, _ext_universe(bounds, j), _ext_product)


@register("ext_ideal", "adjoined integers absorb every product and the shift total is additive", j=2)
def _ext_ideal(t, bounds, j):
    univ = _ext_universe(bounds, j)
    t.plan(4 * len(univ) ** 2)
    _, table, values = _numbered_products(univ, _ext_product)
    # each distinct product's level and shift total, read once
    grouped = [isinstance(v, Group) for v in values]
    pis = [ext_pi(v) for v in values]
    for x, row in zip(univ, table):
        x_pi = ext_pi(x)
        for y, n in zip(univ, row):
            if isinstance(x, Group) or isinstance(y, Group):
                t.check(grouped[n], x, y)
            t.check(pis[n] == x_pi + ext_pi(y), x, y)


@register("ext_order", "the extended order is a partial order obeying the level rules", j=2)
def _ext_order(t, bounds, j):
    univ = _ext_universe(bounds, j)
    # the table and the fixed checks, planned before the table is built
    t.plan(len(univ) + 6 * len(univ) ** 2)
    # ext_le[x][y] is ext_leq(univ[x], univ[y]); each related pair checks
    # transitivity over a row, all planned before the first check
    ext_le = [[ext_leq(x, y) for y in univ] for x in univ]
    t.plan(2 * len(univ) * sum(map(sum, ext_le)))
    for xi, (x, x_le) in enumerate(zip(univ, ext_le)):
        t.check(x_le[xi], x)
        for y, le, y_le in zip(univ, x_le, ext_le):
            if le and y_le[xi]:
                t.check(x == y, x, y)
            if isinstance(x, PartialIso) and isinstance(y, PartialIso):
                t.check(le == leq(x, y), x, y)
            if isinstance(x, Group) and isinstance(y, PartialIso):
                t.check(le == (y.pi == x.k), x, y)
                t.check(not y_le[xi], x, y)
            if isinstance(x, Group) and isinstance(y, Group) and x != y:
                t.check(not le, x, y)
            if le:
                for z, yz, xz in zip(univ, y_le, x_le):
                    if yz:
                        t.check(xz, x, y, z)


@register("ext_commute", "adjoined integers commute with every element", j=2)
def _ext_commute(t, bounds, j):
    univ = _ext_universe(bounds, j)
    t.plan(5 * 3 * len(univ))
    for x in univ:
        for k in range(-2, 3):
            t.check(ext_mul(Group(k), x) == ext_mul(x, Group(k)), x, k)


@register("ext_surjective", "pushing all maps down to the zero level fills the reachable levels", j=2)
def _ext_surjective(t, bounds, j):
    univ = _ext_universe(bounds, j)
    t.plan(2 * len(univ) + 1)
    isos = [g for g in univ if isinstance(g, PartialIso)]
    image = {ext_mul(Group(0), g) for g in isos}
    expected = {Group(k) for k in range(-bounds.s, bounds.s + 1)}
    t.check(image == expected, sorted(image), sorted(expected))


@register(
    "ext_translation",
    "level translations are injective, level-true, and undone by the opposite shift",
    j=2,
)
def _ext_translation(t, bounds, j):
    # the up-set walk over {1..n} refuses itself before it lists
    base = up_set_truncated(Group(0), NoiseParams(j), bounds.n)
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


def _topo_pool(bounds):
    return _listed(EnumBounds(bounds.n, max(bounds.s, 3)), range(-3, 4))


@register("nbhd_nesting", "neighborhoods shrink as the base index grows", j=2)
def _nbhd_nesting(t, bounds, j):
    pool = _topo_pool(bounds)
    all_p = _all_params(j)
    # two memberships for each x at each (offset set, k, i)
    t.plan(len(all_p) * 5 * 6 * 2 * len(pool))
    index = _MemberIndex(pool)
    for p in all_p:
        for k in range(-2, 3):
            for i in range(1, 7):
                inner, outer = index.mask(k, i + 1, p), index.mask(k, i, p)
                t.check_mask(len(pool), inner & ~outer, lambda n: (pool[n], k, i, p.offsets))


@register("nbhd_inversion", "members invert into the mirrored neighborhood at the shifted index", j=2)
def _nbhd_inversion(t, bounds, j):
    pool = _topo_pool(bounds)
    all_p = _all_params(j)
    t.plan(len(pool) + len(all_p) * 5 * 6 * 2 * len(pool))
    # bit n of the second index answers for the inverse of pool[n]
    index, inverses = _MemberIndex(pool), _MemberIndex([ext_inv(x) for x in pool])
    for p in all_p:
        for k in range(-2, 3):
            for i in range(1, 7):
                t.check_mask(
                    len(pool),
                    index.mask(k, i, p) ^ inverses.mask(-k, max(1, i + k), p),
                    lambda n: (pool[n], k, i, p.offsets),
                )


@register(
    "nbhd_translation",
    "translation carries neighborhoods into the predicted ones, once past the head",
    j=2,
)
def _nbhd_translation(t, bounds, j):
    pool = _topo_pool(bounds)
    all_p = _all_params(j)
    movers = list(enumerate_elements(EnumBounds(2, 2)))
    # (mover, reach, base index): each mover at two indices past its reach
    steps = []
    for gam in movers:
        head = gam.tail_start - 1
        reach = max(head, head + gam.shift)
        steps.extend((gam, reach, i) for i in range(reach + j + 1, reach + j + 3))
    # movers with the same reach share a base index: split once per i
    per_index = Counter(i for _, _, i in steps)
    # the splits, and two targets for each step and level, each weighed
    # at five units
    t.plan(len(all_p) * (len(per_index) * len(pool) + 5 * 10 * len(steps)))
    index = _MemberIndex(pool)
    # each split's members as their positions in the pool
    splits = [
        (p, {(i, k): index.numbers(k, i, p) for i in per_index for k in range(-2, 3)})
        for p in all_p
    ]
    # a product, a membership and a tally for each side of each member,
    # planned for every split before the first check
    t.plan(sum(6 * per_index[i] * len(xs) for _, split in splits for (i, _), xs in split.items()))
    # each mover times every member of some split, on either side, as
    # numbers of the distinct products: row_of[n] is the column of pool[n]
    positions = list(dict.fromkeys(n for _, split in splits for xs in split.values() for n in xs))
    row_of = {n: r for r, n in enumerate(positions)}
    ids: dict = {}
    left = {gam: [ids.setdefault(_ext_product(gam, pool[n]), len(ids)) for n in positions] for gam in movers}
    right = {gam: [ids.setdefault(_ext_product(pool[n], gam), len(ids)) for n in positions] for gam in movers}
    products = _MemberIndex(_built(ids))
    for p, split in splits:
        # the numbers of the products in each target neighborhood
        inside = _Memo(lambda key: set(products.numbers(*key, p)))
        cols = {key: [row_of[n] for n in xs] for key, xs in split.items()}
        for gam, reach, i in steps:
            for k in range(-2, 3):
                xs = split[i, k]
                if xs:
                    # bit 2n checks the n-th member's left product in its
                    # target (level, index), bit 2n + 1 its right one, where checked
                    sides = [(left[gam], (gam.pi + k, max(1, i - gam.pi)))]
                    if i > reach + j + max(0, -k):
                        sides.append((right[gam], (k + gam.pi, i)))
                    t.check_mask(
                        len(sides) * len(xs),
                        _misses(cols[i, k], *[(row, inside[key]) for row, key in sides]),
                        lambda n: (gam, pool[xs[n // len(sides)]], k, i, p.offsets),
                    )


@register("nbhd_product", "products of same-index members land in the summed-level neighborhood", j=2)
def _nbhd_product(t, bounds, j):
    pool = _topo_pool(bounds)
    levels = range(-2, 3)
    all_p = _all_params(j)
    t.plan(len(all_p) * 2 * len(pool))
    index = _MemberIndex(pool)
    # each level's members as their positions in the pool
    splits = [
        (p, i, {k: index.numbers(k, i, p) for k in levels})
        for p in all_p
        for i in range(j + 1, j + 3)
    ]
    # every pair of members at the checked levels is checked in some split
    positions = list(dict.fromkeys(n for _, _, by_k in splits for ns in by_k.values() for n in ns))
    sizes = [sum(map(len, by_k.values())) for _, _, by_k in splits]
    # each split reads 25 level pairs, about five units each, and tallies
    # a row of memberships for each member and level
    t.plan(len(positions) ** 2 + sum(size ** 2 + 15 * size + 125 for size in sizes))
    # row_of[n] is the table row of pool[n]
    row_of = {n: r for r, n in enumerate(positions)}
    _, table, values = _numbered_products([pool[n] for n in positions], _ext_product)
    products = _MemberIndex(values)
    for p, i, by_k in splits:
        # per summed level, the numbers of the products in its neighborhood
        inside = {k: set(products.numbers(k, i, p)) for k in {k1 + k2 for k1 in levels for k2 in levels}}
        rows = {k: [row_of[n] for n in ns] for k, ns in by_k.items()}
        for k1 in levels:
            for k2 in levels:
                target = inside[k1 + k2]
                ys, cols = by_k[k2], rows[k2]
                for x, r in zip(by_k[k1], rows[k1]):
                    t.check_mask(
                        len(cols),
                        _misses(cols, (table[r], target)),
                        lambda n: (pool[x], pool[ys[n]], k1, k2, i, p.offsets),
                    )


@register("nbhd_hausdorff", "neighborhoods of different levels never meet", j=2)
def _nbhd_hausdorff(t, bounds, j):
    pool = _topo_pool(bounds)
    all_p = _all_params(j)
    # two memberships for each x at each (offset set, k1 < k2, i)
    t.plan(len(all_p) * 10 * 3 * 2 * len(pool))
    index = _MemberIndex(pool)
    for p in all_p:
        for k1 in range(-2, 3):
            for k2 in range(k1 + 1, 3):
                for i in (1, 3, 5):
                    s1, s2 = index.mask(k1, i, p), index.mask(k2, i, p)
                    t.check_mask(len(pool), s1 & s2, lambda n: (pool[n], k1, k2, i, p.offsets))


@register("nbhd_monotone", "a larger offset set only enlarges each neighborhood", j=2)
def _nbhd_monotone(t, bounds, j):
    pool = _topo_pool(bounds)
    nested = _nested_pairs(t, _all_params(j))
    t.plan(len(nested) * 3 * 2 * 2 * len(pool))
    index = _MemberIndex(pool)
    for p1, p2 in nested:
        m1, m2 = p1.offsets, p2.offsets
        for k in (-1, 0, 2):
            for i in (1, 4):
                small, large = index.mask(k, i, p1), index.mask(k, i, p2)
                t.check_mask(len(pool), small & ~large, lambda n: (pool[n], m1, m2, k, i))


@register("upset_char", "the index cutoff equals exclusion from the cutoff witness's up-set", j=2)
def _upset_char(t, bounds, j):
    # upset_pool(k, n): shifts k - 1, k and k + 1
    _check_pool(3, bounds.n)
    _check_walk(j - 1, "verify lists", "offset sets")
    # planned from the bounds, before any pool or offset set is built: at
    # most 2^(j-1) offset sets, each checked at 7 indices on 5 pools of at
    # most 3 * 2^n maps, three predicates a map
    t.plan(2 ** max(j - 1, 0) * 7 * 5 * (3 * 3 * 2**bounds.n + 3))
    # one shift pool per level, shared by every (i, offset set)
    pools = {k: upset_pool(k, bounds.n) for k in range(-2, 3)}
    all_p = _all_params(j)
    for p in all_p:
        for k, pool in pools.items():
            for i in range(2, 9):
                t.check(nbhd_upset_agreement(k, i, p, pool), k, i, p.offsets)


@register("convergence_probe", "closed-form convergence verdicts match the direct neighborhood probe", j=3)
def _convergence_probe(t, bounds, j):
    all_p = _all_params(j)
    # each probe builds and tests at most the ten elements of its closing
    # stretch; the plan weighs all ten
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
def _bicyclic_hom(t, bounds, j):
    nfs = [BicyclicNF(k, l) for k in range(7) for l in range(7)]
    elems = _listed(bounds)
    t.plan(3 * len(nfs) + 5 * len(nfs) ** 2 + 4 * len(elems))
    embeds = [embed(u) for u in nfs]
    # each distinct normal-form product embedded once, as its anatomy
    _, table, values = _numbered_products(nfs, operator.mul)
    embedded = [_anatomy(embed(w)) for w in values]
    for u, eu, row in zip(nfs, embeds, table):
        t.check(recognize(eu) == u, u)
        _check_row(t, [embedded[n] for n in row], [_product(eu, ev) for ev in embeds], lambda n: (u, nfs[n]))
    for g in elems:
        nf = recognize(g)
        t.check((nf is None) == (g.noise != 0), g)
        if nf is not None:
            t.check(embed(nf) == g, g, nf)


@register("word_soundness", "random words normalize to the same element along every reduction route")
def _word_soundness(t, bounds, j):
    # each word of up to 20 letters is composed and rewritten letter by letter
    t.plan(1 + 1000 * (3 * 20 + 3))
    rng = random.Random(90125)
    t.check(normalize_word(parse_word("ab")) == BicyclicNF(0, 0), "ab")
    # each distinct head of up to 8 letters (at most 511) is folded once on
    # both sides, the rest letter by letter: every word's own folds' products
    heads = {}
    for _ in range(1000):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 20)))
        head = word[:8]
        if head not in heads:
            heads[head] = normalize_word(head), word_iso(head)
        nf, iso = heads[head]
        for letter in word[8:]:
            nf, iso = nf * bicyclic._LETTER_NF[letter], iso * bicyclic._LETTER_ISO[letter]
        t.check(iso == embed(nf), "".join(word), nf)
        first = reduce_word(word)
        last = reduce_word(word, rightmost=True)
        t.check(first == last, "".join(word), first, last)
        t.check(first == "b" * nf.k + "a" * nf.l, "".join(word), first, nf)
