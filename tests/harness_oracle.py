"""Reference route for the harness's randomized semigroup scan.

The library draws each pool index as ``randrange`` does, straight from
``getrandbits``.  It decomposes each drawn sum of two pool mu once (or
finds it over the cap once), looks a pair's multiplicity up in that
decomposition on the pair's first draw, and counts a pair drawn again from
its stored multiplicity.  The scan here draws through ``randrange`` and
decomposes the sum of every draw afresh, so the tests compare the two
sections whole.
"""

import random

from heckebranch.characters import branch_decompose
from heckebranch.errors import FeasibilityError
from heckebranch.harness import FAIL, PASS
from heckebranch.rootdata import vec_add


def semigroup_section(datum, levi, mus, seed, samples):
    pool = []
    for mu in mus:
        for lam in sorted(branch_decompose(datum, levi, mu)):
            pool.append((mu, lam))
    rng = random.Random(seed)
    checked = 0
    skipped = 0
    failures = []
    attempts = 0
    while pool and checked < samples and attempts < 20 * samples:
        attempts += 1
        mu1, lam1 = pool[rng.randrange(len(pool))]
        mu2, lam2 = pool[rng.randrange(len(pool))]
        try:
            r12 = branch_decompose(datum, levi, vec_add(mu1, mu2)).get(
                vec_add(lam1, lam2), 0)
        except FeasibilityError:
            skipped += 1
            continue
        if r12 == 0:
            failures.append({"mu1": list(mu1), "lambda1": list(lam1),
                             "mu2": list(mu2), "lambda2": list(lam2)})
        checked += 1
    return {
        "pool_size": len(pool),
        "pairs_checked": checked,
        "pairs_skipped": skipped,
        "failures": failures,
        "verdict": PASS if not failures else FAIL,
    }
