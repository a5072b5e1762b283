"""Fraction reference for the orthant and association scans.

These are the scans as they were before the checkers moved to integer
weights over a common denominator: they add and multiply exact Fractions and
read the marginals with ``marginal``. The differential tests compare the
integer checkers against them, verdict, witness and stats alike.

``enumerate_upper_index_sets`` is the include/exclude upper-set enumerator as
it was before the package's walk carried a bitset of forced-out points: it
rescans each point's dominators and sorts every set it yields. The tests that
need upper sets independent of the package's walk read them from here.
"""

from dataclasses import replace
from fractions import Fraction
from typing import Iterator, Sequence

from negdep.checks import (
    AssociationWitness,
    CheckStats,
    OrthantWitness,
    Verdict,
    _block_pairs,
)
from negdep.distributions import Vector
from negdep.errors import EnumerationCapExceeded, default_caps
from negdep.rationals import NEG_INF
from negdep.uppersets import componentwise_leq, from_members

ZERO = Fraction(0)
ONE = Fraction(1)


def enumerate_upper_index_sets(points: Sequence[Vector],
                               cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield each upper set as a tuple of indices into ``points``.

    The empty set comes first and the full set last. ``cap`` bounds the number
    of sets yielded (EnumerationCapExceeded past it); the worst case is
    exponential in the largest antichain.
    """
    order = sorted(range(len(points)), key=lambda i: points[i], reverse=True)
    n = len(order)
    # dominators[k]: positions before k whose point componentwise-dominates
    # point k; including k requires all of them already included.
    dominators: list[list[int]] = []
    for k in range(n):
        pk = points[order[k]]
        dominators.append(
            [i for i in range(k) if componentwise_leq(pk, points[order[i]])]
        )

    included = [False] * n
    phase = [0] * n
    count = 0
    k = 0
    while k >= 0:
        if k == n:
            count += 1
            if cap is not None and count > cap:
                raise EnumerationCapExceeded(
                    f"more than {cap} upper sets; raise the cap to enumerate them all"
                )
            yield tuple(sorted(order[i] for i in range(n) if included[i]))
            k -= 1
            continue
        ph = phase[k]
        if ph == 0:          # try: point k excluded
            phase[k] = 1
            included[k] = False
            k += 1
            if k < n:
                phase[k] = 0
        elif ph == 1:        # try: point k included, if its dominators all are
            phase[k] = 2
            if all(included[i] for i in dominators[k]):
                included[k] = True
                k += 1
                if k < n:
                    phase[k] = 0
        else:                # exhausted both choices
            included[k] = False
            k -= 1


def orthant_scan(d, side):
    axes = d.support_grid()
    pos = [{v: k for k, v in enumerate(ax)} for ax in axes]
    n = d.dim
    upper = side == "upper"
    ext_sizes = [len(ax) + (1 if upper else 0) for ax in axes]

    strides = [0] * n
    acc = 1
    for a in range(n - 1, -1, -1):
        strides[a] = acc
        acc *= ext_sizes[a]
    cells = [ZERO] * acc
    for x, p in d.atoms:
        k = sum(pos[a][x[a]] * strides[a] for a in range(n))
        cells[k] += p

    if upper:
        for a in range(n):
            step = strides[a]
            for base in range(acc - 1, -1, -1):
                if (base // step) % ext_sizes[a] + 1 < ext_sizes[a]:
                    cells[base] += cells[base + step]
    else:
        for a in range(n):
            step = strides[a]
            for base in range(acc):
                if (base // step) % ext_sizes[a] > 0:
                    cells[base] += cells[base - step]

    marg = []
    for a in range(n):
        m = d.marginal([a + 1]).as_dict()
        line = [m.get((v,), ZERO) for v in axes[a]]
        if upper:
            for k in range(len(line) - 2, -1, -1):
                line[k] += line[k + 1]
            line.append(ZERO)
        else:
            for k in range(1, len(line)):
                line[k] += line[k - 1]
        marg.append(line)

    corners = 0
    witness = None

    def corner_label(position):
        if upper:
            return tuple(NEG_INF if k == 0 else axes[a][k - 1]
                         for a, k in enumerate(position))
        return tuple(axes[a][k] for a, k in enumerate(position))

    def scan(a, base, prod, position):
        nonlocal corners, witness
        if a == n:
            corners += 1
            joint = cells[base]
            if joint > prod:
                witness = OrthantWitness(side, corner_label(position), joint, prod)
            return
        for k in range(ext_sizes[a]):
            scan(a + 1, base + k * strides[a], prod * marg[a][k], position + [k])
            if witness is not None:
                return

    scan(0, 0, ONE, [])
    name = "nlod" if side == "lower" else "nuod"
    return Verdict(name, witness is None, witness, CheckStats(conditioning_pairs=corners))


def association_cell(d, a1, a2, caps):
    cols1 = [j - 1 for j in a1]
    cols2 = [j - 1 for j in a2]
    joint = {}
    for x, p in d.atoms:
        key = (tuple(x[c] for c in cols1), tuple(x[c] for c in cols2))
        joint[key] = joint.get(key, ZERO) + p
    support1 = sorted({a for a, _ in joint})
    support2 = sorted({b for _, b in joint})
    p1 = {a: ZERO for a in support1}
    p2 = {b: ZERO for b in support2}
    for (a, b), p in joint.items():
        p1[a] += p
        p2[b] += p

    upper2 = list(enumerate_upper_index_sets(support2, cap=caps.max_upper_sets))
    examined = 0
    stats_upper = len(upper2)
    for idx1 in enumerate_upper_index_sets(support1, cap=caps.max_upper_sets):
        stats_upper += 1
        in1 = [support1[i] for i in idx1]
        mass1 = sum((p1[a] for a in in1), ZERO)
        row = {b: ZERO for b in support2}
        for a in in1:
            for b in support2:
                q = joint.get((a, b))
                if q:
                    row[b] += q
        for idx2 in upper2:
            examined += 1
            mass12 = sum((row[support2[i]] for i in idx2), ZERO)
            mass2 = sum((p2[support2[i]] for i in idx2), ZERO)
            if mass12 > mass1 * mass2:
                witness = AssociationWitness(
                    a1, a2,
                    from_members([support1[i] for i in idx1]),
                    from_members([support2[i] for i in idx2]),
                    mass12, mass1, mass2,
                )
                return witness, CheckStats(
                    cells=1, conditioning_pairs=examined, upper_sets=stats_upper
                )
    return None, CheckStats(cells=1, conditioning_pairs=examined, upper_sets=stats_upper)


def check_nlod(d):
    return orthant_scan(d, "lower")


def check_nuod(d):
    return orthant_scan(d, "upper")


def check_nod(d):
    lower = check_nlod(d)
    if not lower.holds:
        return replace(lower, prop="nod")
    upper = check_nuod(d)
    return Verdict("nod", upper.holds, upper.witness, lower.stats.plus(upper.stats))


def check_na(d, max_block=None, caps=None):
    caps = caps or default_caps()
    total = CheckStats()
    witness = None
    for a1, a2 in _block_pairs(d.dim, max_block):
        witness, stats = association_cell(d, a1, a2, caps)
        total = total.plus(stats)
        if witness is not None:
            break
    restricted = max_block is not None and max_block < d.dim - 1
    return Verdict("na", witness is None, witness, total,
                   definitive=witness is not None or not restricted)
