"""The chain converse over every uncoded placement, as a linear program,
equals the lower envelope of the ``beta`` family's chain bounds.

An uncoded placement caches, for each file n, some pieces on each set of
users.  Write ``x[n][t]`` for the share of file n that sits on sets of t
users, each share spread over the ``C(K, t)`` sets of that size.  Each
file's shares sum to 1, and a user holds ``sum_n sum_t x[n][t] * t / K``
file units, at most M.

Averaging argument.  For a demand and any order f_1..f_D of its distinct
files, each asked by some user u_i, the chain bound (``chain_bound``, after
Yu, Maddah-Ali and Avestimehr, arXiv 1609.07817) says the broadcast
carries every piece of f_i that none of u_1..u_i holds.  Requests are
i.i.d., so every relabelling of the users gives a demand of the same
probability.  Averaged over these relabellings, the pieces of f_i that i
given users all lack make up ``sum_t x[f_i][t] * C(K - i, t) / C(K, t)``,
whatever the placement, so the averaged bound is linear in the shares.
The chain bound holds for every order on every demand, so an order may be
chosen per demand; every demand with the same set of distinct files has
the same averaged form, so one order per set suffices, and the largest
over the set's orders is a valid bound.  The expected rate of any uncoded
placement, under any delivery, is then at least the LP optimum of
``sum_S P(S) * max_order sum_i sum_t x[f_i][t] * C(K - i, t) / C(K, t)``
over the sets S of distinct requested files.

With one file per group, a ``beta`` point is the x that puts each file at
its level, and the objective there is its expected chain bound.  Memory
sharing between two such points is a feasible x, and the objective is
convex, so the LP is at most the ``beta`` envelope; these tests check that
it is equal on a grid of M.  scipy is in the test extra only; the package
does not import it.
"""

import itertools
from collections import defaultdict
from fractions import Fraction
from math import comb, prod

import pytest
from scipy.optimize import linprog

from codedcache import beta_points, chain_bound, lower_envelope


def _set_law(users, popularity):
    """P(S) for every set S of distinct requested files, over all N**K
    request vectors."""
    law = defaultdict(Fraction)
    for request in itertools.product(range(len(popularity)), repeat=users):
        law[frozenset(request)] += prod(popularity[f] for f in request)
    return {tuple(sorted(s)): p for s, p in law.items() if p}


def _uncoded_converse(users, popularity, memory):
    """The LP optimum: variables ``x[n][t]`` for every file n and level
    t = 0..K, then one epigraph variable per set of distinct files."""
    files, levels = len(popularity), users + 1
    law = _set_law(users, popularity)
    width = files * levels + len(law)

    def x(n, t):
        return n * levels + t

    cost = [0.0] * width
    rows, bounds = [], []
    for k, (distinct, p) in enumerate(law.items()):
        z = files * levels + k
        cost[z] = float(p)
        for order in itertools.permutations(distinct):
            row = [0.0] * width
            for i, f in enumerate(order, start=1):
                for t in range(levels):
                    row[x(f, t)] = comb(users - i, t) / comb(users, t)
            row[z] = -1.0
            rows.append(row)
            bounds.append(0.0)
    rows.append([t / users for _ in range(files) for t in range(levels)] + [0.0] * len(law))
    bounds.append(float(memory))
    shares = [[0.0] * width for _ in range(files)]
    for n in range(files):
        for t in range(levels):
            shares[n][x(n, t)] = 1.0
    result = linprog(
        cost, A_ub=rows, b_ub=bounds, A_eq=shares, b_eq=[1.0] * files, bounds=(0, None)
    )
    assert result.status == 0, result.message
    return result.fun


CASES = [
    (users, popularity)
    for popularity in ((Fraction(3, 4), Fraction(1, 4)), (Fraction(9, 10), Fraction(1, 10)))
    for users in (3, 4, 5)
] + [(users, (Fraction(6, 11), Fraction(3, 11), Fraction(2, 11))) for users in (3, 4)]


@pytest.mark.parametrize("users, popularity", CASES)
def test_uncoded_converse_equals_the_beta_bound_envelope(users, popularity):
    files = len(popularity)
    envelope = lower_envelope(beta_points(users, [1] * files, popularity, chain_bound))
    for step in range(4 * users * files + 1):
        memory = Fraction(step, 4 * users)
        got = _uncoded_converse(users, popularity, memory)
        assert abs(got - float(envelope.value(memory))) <= 1e-9, (memory, got)
