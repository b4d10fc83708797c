"""deep_elements: few, large elements built from long expressions.

Each case is an expression of 2 to 5 factors drawn from a^n, b^n,
e[i] and iso([...],s) literals whose short head sits far out.  One
operation parses and evaluates the expression, then profiles the value
with tail, inverse, head_offsets, in_offset_class, recognize, green_d
and one product with its inverse.

The gate recomputes every output along a route that calls neither
compose nor __pow__: closed forms for the factors (a^n = iso([],n),
b^n = iso([1..n],-n)) and a pointwise composition over Python sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Largest power exponent and largest puncture index or literal prefix.
# __pow__ composes n times, so b^n costs time quadratic in n (b^2000
# alone takes ~0.2 s); the caps keep one operation well under a second.
MAX_POWER = 1200
MAX_INDEX = 1500
# Cases are stratified so that every seed gives the same mix of sizes and
# kinds: every factor of case k has size fraction in [k, k+1) / POOL_SIZE
# of its cap; the case has FACTOR_COUNTS[k % 4] factors, exactly one of
# them b^n, the others cycling through a^n,
# e[i] and literals.  The seed picks the exact sizes, the factor order, the
# literals' heads and shifts, the separators and the noise parameters.
POOL_SIZE = 256
FACTOR_COUNTS = (2, 3, 4, 5)
OTHER_KINDS = ("a", "e", "iso")


@dataclass(frozen=True)
class Case:
    factors: tuple  # (kind, argument) pairs
    separators: tuple  # joins factor i to factor i+1: "*", " " or ""
    j: int
    offsets: frozenset

    def text(self) -> str:
        """The expression.  Built on demand, as literals run to thousands
        of characters."""
        parts = [_render(*self.factors[0])]
        for sep, factor in zip(self.separators, self.factors[1:]):
            parts += [sep, _render(*factor)]
        return "".join(parts)


def _literal(arg) -> list[int]:
    prefix, head, _ = arg
    return [*range(1, prefix + 1), *head]


def _render(kind: str, arg) -> str:
    if kind in ("a", "b"):
        return f"{kind}^{arg}"
    if kind == "e":
        return f"e[{arg}]"
    return f"iso([{','.join(map(str, _literal(arg)))}],{arg[2]})"


def _factor(rng: random.Random, stratum: int, kind: str) -> tuple[str, object]:
    cap = MAX_POWER if kind in ("a", "b") else MAX_INDEX
    size = max(1, round(cap * (stratum + rng.random()) / POOL_SIZE))
    if kind != "iso":
        return kind, size
    # {1..size} plus a short head above the domain minimum size+1
    head = tuple(sorted(rng.sample(range(size + 2, size + 9), rng.randint(0, 3))))
    return kind, (size, head, rng.randint(-min(size, 40), 40))


def generate(seed: int) -> list[Case]:
    """The seeded pool of cases, in a seeded order."""
    rng = random.Random(seed)
    cases = []
    for k in range(POOL_SIZE):
        count = FACTOR_COUNTS[k % len(FACTOR_COUNTS)]
        kinds = ["b"] + [OTHER_KINDS[(k + t) % len(OTHER_KINDS)] for t in range(count - 1)]
        rng.shuffle(kinds)
        factors = tuple(_factor(rng, k, kind) for kind in kinds)
        separators = tuple(rng.choice(("*", " ", "")) for _ in range(count - 1))
        j = rng.choice((3, 6, 12))
        offsets = rng.choice(
            (frozenset(), frozenset(range(2, j + 1)), frozenset(range(2, j + 1)) - {rng.randint(2, j)})
        )
        cases.append(Case(factors, separators, j, offsets))
    rng.shuffle(cases)
    return cases


def run_case(api, case: Case, text: str) -> tuple:
    """One operation: parse, evaluate and profile ``text``, the case's
    expression."""
    value = api.expr.evaluate(api.expr.parse(text))
    params = api.core.NoiseParams(case.j, case.offsets)
    tail = value.tail()
    inv = value.inverse()
    return (
        value,
        tail,
        inv,
        api.core.head_offsets(value),
        api.core.in_offset_class(value, params),
        api.bicyclic.recognize(value),
        api.core.green_d(value, inv),
        api.core.green_d(value, tail),
        value * inv,
    )


# -- the independent route: (frozenset of excluded points, shift) -------------


def _closed_form(kind: str, arg) -> tuple[frozenset, int]:
    if kind == "a":
        return frozenset(), arg
    if kind == "b":
        return frozenset(range(1, arg + 1)), -arg
    if kind == "e":
        return frozenset({arg}), 0
    return frozenset(_literal(arg)), arg[2]


def _then(f: tuple[frozenset, int], g: tuple[frozenset, int]) -> tuple[frozenset, int]:
    """Apply f, then g, point by point over a window past every hole."""
    (fx, fs), (gx, gs) = f, g
    window = max(fx, default=0) + max(gx, default=0) + abs(fs) + 1
    holes = frozenset(x for x in range(1, window + 1) if x in fx or x + fs in gx)
    return holes, fs + gs


def _inverse(f: tuple[frozenset, int]) -> tuple[frozenset, int]:
    """Undefined exactly off the image of f, point by point."""
    fx, fs = f
    window = max(fx, default=0) + abs(fs) + 1
    holes = frozenset(y for y in range(1, window + 1) if y - fs < 1 or y - fs in fx)
    return holes, -fs


def _dom_min(holes: frozenset) -> int:
    u = 1
    while u in holes:
        u += 1
    return u


def _gaps(holes: frozenset) -> tuple:
    u = _dom_min(holes)
    return tuple(sorted(e - u for e in holes if e > u))


def _canon(pair: tuple[frozenset, int]) -> tuple[tuple, int]:
    holes, shift = pair
    return tuple(sorted(holes)), shift


def expected(case: Case) -> tuple:
    """Every output of run_case, recomputed on sets."""
    value = _closed_form(*case.factors[0])
    for factor in case.factors[1:]:
        value = _then(value, _closed_form(*factor))
    holes, shift = value
    ts = max(holes, default=0) + 1
    tail = (frozenset(range(1, ts)), shift)
    inv = _inverse(value)
    head = tuple(ts - x for x in range(1, ts + 1) if x not in holes)
    noise = ts - _dom_min(holes)
    in_class = noise <= case.j and all(o == 0 or o in case.offsets for o in head)
    nf = (ts - 1, ts - 1 + shift) if noise == 0 else None
    return (
        _canon(value),
        _canon(tail),
        _canon(inv),
        head,
        in_class,
        nf,
        _gaps(holes) == _gaps(inv[0]),
        _gaps(holes) == _gaps(tail[0]),
        _canon(_then(value, inv)),
    )


def _elem(g) -> tuple[tuple, int]:
    return tuple(g.excluded), g.shift


def gate(case: Case, out: tuple) -> bool:
    """True when every output of run_case matches the independent route."""
    value, tail, inv, head, in_class, nf, d_inv, d_tail, prod = out
    got = (
        _elem(value),
        _elem(tail),
        _elem(inv),
        tuple(head),
        in_class,
        None if nf is None else (nf.k, nf.l),
        d_inv,
        d_tail,
        _elem(prod),
    )
    return got == expected(case)
