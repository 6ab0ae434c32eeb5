"""Sweep orchestration: enumerate (mu, lambda, nu) instances for a Cartan type
and Levi subset, run the selected identity and property checks on each, scan
for saturation behaviour, and assemble a machine-readable report.

``_CHECKS`` lists every check in report order, with its kind (per mu, per
instance, or a section) and the values it reads: r, c, m, n, the crystal at
mu, the constant-term expansions at mu ("ct").  A cap hit on a value skips,
through ``_skip``, exactly the checks that read it, each with a note naming
the cap.  ``nonvanishing`` reads r at (k mu, k lam) on its own: a cap hit
there skips it unless it has failed already.  Sections keep their own skips.

Reports are deterministic for a fixed configuration: instance order follows
the enumeration order, randomized sections draw from a seeded generator, and
timing lives in dedicated ``*_ms`` fields so two runs differ at most there.
One task makes the records of a (mu, lambda) at both its offsets nu.  It
computes a value only for a selected check that reads it, and what reads no
nu once, in the first offset's ``time_ms``; a record's ``values`` entry is
null where no selected check reads it.  With ``jobs`` > 1 the sweep forks
its workers after enumeration, so they start from the parent's warm caches,
and the parent works as one of them.  Records are placed by task index, so
results are independent of the worker count.  Workers send them back as
``marshal`` data: records and sections are plain JSON values.

Arguments are validated at the public boundary.  Records hold enumerated
dominant tuples, so they call the kernels directly, one seam per value that
tests replace to fake a cap hit or count builds: ``_restrict`` (r),
``_ct_coefficient`` (c), ``_fiber`` (n), ``_structure_constant`` (m),
``_crystal`` and, for the constant-term expansions, ``satake_expand``.  A
task fetches the fiber and the crystal once for both offsets, and sorts each
flat Hecke value once.  ``multiplicity_identity`` reads ``_tensor`` besides,
for the Klimyk route to n on ``nu x mu``, and ``product_identity`` reads
``_orbit_size``.  The sections call the public functions.
"""

from __future__ import annotations

import itertools
import marshal
import os
import random
import time
from functools import cache, partial
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence

from .characters import (
    _restrict,
    _tensor,
    branch_decompose,
    branch_multiplicity,
    dominant_support,
    weight_table,
)
from .errors import ConfigurationError, FeasibilityError
from .hecke import (
    LaurentPoly,
    _add_product,
    _check_ct_support,
    _ct_coefficient,
    _orbit_size,
    _poly_json,
    _structure_constant,
    constant_term_coefficient,
    satake_expand,
)
from .littelmann import (
    _branch_paths,
    _crystal,
    _dominant_after,
    _fiber,
    _folds_connected,
    _tensor_paths,
)
from .parabolic import offset_pair
from .rootdata import (
    Coweight,
    RootDatum,
    dual_star,
    k_phi,
    levi_view,
    pairing,
    root_datum,
    vec_add,
    vec_scale,
    vec_sub,
    weyl_dim,
)


_Check = NamedTuple("_Check", [("kind", str), ("reads", tuple)])
_CHECKS = MappingProxyType({
    "crystal": _Check("mu", ("crystal",)),
    "product_identity": _Check("instance", ("c", "m")),
    "multiplicity_identity": _Check("instance", ("r", "n", "crystal")),
    "nonvanishing": _Check("instance", ("r", "c")),
    "degrees": _Check("instance", ("r", "c", "m", "n")),
    "semigroup": _Check("section", ()),
    "saturation": _Check("section", ()),
    "hecke_paths": _Check("mu", ("crystal",)),
    "ct_transitivity": _Check("mu", ("ct",)),
})
CHECK_NAMES = tuple(_CHECKS)

Q_EVAL_POINTS = (2, 3, 4, 5, 7)     # where ``degrees`` evaluates m at q
SATURATION_N_MAX = 3                # the saturation scan's largest stretch

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


class SweepConfig(NamedTuple):
    cartan_type: str
    levi: tuple[int, ...]
    max_height: int
    checks: tuple[str, ...]
    jobs: int = 1
    seed: int = 20260816
    semigroup_samples: int = 120

    def validate(self) -> None:
        if self.max_height < 0:
            raise ConfigurationError("max_height must be nonnegative")
        if len(set(self.levi)) != len(self.levi):
            raise ConfigurationError("Levi subset has repeated indices")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise ConfigurationError(
                f"unknown checks {unknown}; known: {list(CHECK_NAMES)}")
        if self.jobs < 1:
            raise ConfigurationError("jobs must be at least 1")
        if self.semigroup_samples < 1:
            raise ConfigurationError("semigroup_samples must be at least 1")


def dominant_coweights_up_to(datum: RootDatum, max_height) -> list[Coweight]:
    """All dominant coweights whose pairing with the half-sum of positive
    roots is at most the bound, ordered by (height, lex)."""
    two_rho = datum.full.two_rho
    bound = 2 * max_height
    out = [mu for mu in itertools.product(*(range(bound // h + 1) for h in two_rho))
           if pairing(two_rho, mu) <= bound]
    return sorted(out, key=lambda m: (pairing(two_rho, m), m))


def _levi_dominant_weights(datum: RootDatum, levi, max_height) -> dict:
    """Each dominant mu within the height bound, in enumeration order, with
    the sorted Levi-dominant weights of its module.  These carry the hull and
    coroot-lattice congruence conditions automatically."""
    full = datum.full
    # the weight set needs no multiplicities, so no module cap applies
    return {mu: sorted(w for kappa in dominant_support(full, mu)
                       for w in full.orbit(kappa) if levi.is_dominant(w))
            for mu in dominant_coweights_up_to(datum, max_height)}


def _instances(datum: RootDatum, levi, lams_by_mu: dict):
    """(mu, lambda, offsets) for each mu and lambda of ``lams_by_mu``, the
    offsets nu those of ``offset_pair``: the minimal one first and the
    larger one when it is distinct."""
    for mu, lams in lams_by_mu.items():
        nu0, nu1 = offset_pair(datum, levi, mu)
        nus = (nu0,) if nu1 == nu0 else (nu0, nu1)
        yield from ((mu, lam, nus) for lam in lams)


def enumerate_instances(config: SweepConfig) -> list[tuple[Coweight, Coweight, Coweight]]:
    """The sweep's (mu, lambda, nu) triples: dominant mu within the height
    bound; Levi-dominant weights lambda of the module at mu; the minimal
    offset nu and, when distinct, one strictly larger offset."""
    config.validate()
    if not config.checks:
        return []
    datum = root_datum(config.cartan_type)
    levi = levi_view(datum, config.levi)
    return [(mu, lam, nu) for mu, lam, nus in _instances(
        datum, levi, _levi_dominant_weights(datum, levi, config.max_height))
        for nu in nus]


def _verdict_all(flags: Sequence[bool]) -> str:
    return PASS if all(flags) else FAIL


@cache
def _reads(checks: tuple, value: str) -> bool:
    return any(value in _CHECKS[c].reads for c in checks)


def _skip(checks: tuple, value: str, err: FeasibilityError, verdicts: dict,
          notes: list) -> tuple:
    """Record the checks that read ``value`` as SKIPPED for the cap hit
    ``err`` and return the checks left to run."""
    skipped = [c for c in checks if value in _CHECKS[c].reads]
    for name in skipped:
        verdicts[name] = SKIPPED
        notes.append(f"{name}: {err}")
    return tuple(c for c in checks if c not in skipped)


def _instance_records(datum: RootDatum, levi, mu: Coweight, lam: Coweight,
                      nus, checks) -> list[dict]:
    """The records of (mu, lam, nu) at the offsets ``nus``, in order: each
    value only where one of ``checks`` reads it, and what reads no nu once,
    at the first offset that needs it."""
    start = time.perf_counter()
    head, head_notes = {}, []   # verdicts and notes of cap hits before nu
    mustar = dual_star(datum, mu)
    two_rho = datum.full.two_rho

    r = c = c_json = None
    if _reads(checks, "r"):
        try:
            r = _restrict(datum.full, levi, mu).get(lam, 0)
        except FeasibilityError as e:
            checks = _skip(checks, "r", e, head, head_notes)

    if _reads(checks, "c"):
        try:
            c = _ct_coefficient(datum, datum.full, levi, mu, lam)
        except FeasibilityError as e:
            checks = _skip(checks, "c", e, head, head_notes)
        else:
            if c:
                _check_ct_support(datum, mu, lam)
            c_items = sorted(c.items())
            c_json = _poly_json(c_items)
            # f = v^f_shift c, the left side before the orbit size
            levi_lam = pairing(levi.two_rho, lam)
            f_shift = pairing(two_rho, lam) - levi_lam
            if "degrees" in checks:
                # c's top v-exponent is at most <2rho, mu> - <2rho_M, lam>
                bound = pairing(two_rho, mu) - levi_lam
                top, lead = c_items[-1] if c_items else (None, 0)
                f_ok = all((e + f_shift) % 2 == 0 for e, _ in c_items) and (
                    top == bound and lead == r if r != 0
                    else not c_items or top < bound)

    if _reads(checks, "crystal"):
        try:    # both path sets filter the crystal's fiber at lam
            crystal = _crystal(datum, mu)
            r_paths = _branch_paths(crystal, levi, lam)
        except FeasibilityError as e:
            checks = _skip(checks, "crystal", e, head, head_notes)

    if _reads(checks, "n"):
        # n of nu in (nu + lam) x mu*, by Littelmann's rule: the paths of the
        # crystal at mu* that end at -lam and stay dominant translated by
        # nu + lam.  That crystal has the dimension of r's table at mu, so
        # it is under the cap wherever r is
        try:
            grid, dual_fiber = _fiber(datum, mustar, vec_scale(-1, lam))
        except FeasibilityError as e:
            checks = _skip(checks, "n", e, head, head_notes)
    lhs = nonvanishing = None

    records = []
    for nu in nus:
        values: dict = {"r": r, "n": None, "m": None, "c": c_json}
        verdicts, notes = dict(head), list(head_notes)
        todo = checks
        m_negative = False
        alpha = vec_add(nu, lam)

        if _reads(todo, "m"):
            try:
                m = _structure_constant(datum, alpha, mustar, nu)
            except FeasibilityError as e:
                todo = _skip(todo, "m", e, verdicts, notes)
            else:
                m_items = sorted(m.items())
                values["m"] = _poly_json(m_items)
                m_negative = any(x < 0 for _, x in m_items)

        if _reads(todo, "n"):
            values["n"] = len(_dominant_after(dual_fiber,
                                              vec_scale(grid, alpha)))
        n2 = values["n"]

        if "multiplicity_identity" in todo:
            # positions in the crystal's fiber at lam: equal exactly when
            # the Fraction path sets are.  The crystal at mu is under the
            # cap, so nu x mu, which raises only when both factors are over
            # it, does not
            n_paths = _tensor_paths(crystal, nu, alpha)
            n1 = _tensor(datum, nu, mu).get(alpha, 0)
            verdicts["multiplicity_identity"] = _verdict_all([
                len(r_paths) == r, len(n_paths) == n1, n1 == n2, r == n2,
                r_paths == n_paths])

        if "product_identity" in todo:
            if lhs is None:
                lhs = {e: x for e, x in _add_product(
                    {}, c, _orbit_size(levi, lam), f_shift).items() if x}
            verdicts["product_identity"] = _verdict_all([lhs == m])

        if "degrees" in todo:
            # the top v-exponent of m, doubled: 2 <rho, alpha + mu* - nu>
            even = all(e % 2 == 0 for e, _ in m_items)
            flags = [even, f_ok]
            m_bound = pairing(two_rho, vec_sub(vec_add(alpha, mustar), nu))
            top, lead = m_items[-1] if m_items else (None, 0)
            if n2 != 0:
                flags += [top == m_bound, lead == n2]
            elif m_items:
                flags.append(top < m_bound)
            low = min(0, m_items[0][0] // 2) if m_items else 0
            terms = [(e // 2 - low, x) for e, x in m_items]
            for q in Q_EVAL_POINTS:
                # m(q) = num / q^(-low), a nonnegative integer or not
                num = 0
                for k, x in terms:
                    num += x * q ** k
                flags.append(even and num >= 0 and num % q ** -low == 0)
            verdicts["degrees"] = _verdict_all(flags)

        if "nonvanishing" in todo:
            if nonvanishing is None:
                nonvanishing = _nonvanishing(datum, levi, mu, lam, r, c)
            verdicts["nonvanishing"], note = nonvanishing
            notes += note

        now = time.perf_counter()
        records.append({"mu": list(mu), "lambda": list(lam), "nu": list(nu),
                        "values": values, "checks": verdicts, "notes": notes,
                        "m_has_negative_coefficient": m_negative,
                        "time_ms": (now - start) * 1000.0})
        start = now
    return records


def _nonvanishing(datum: RootDatum, levi, mu: Coweight, lam: Coweight, r,
                  c) -> tuple[str, list]:
    """The nonvanishing verdict at (mu, lam) and its notes: r != 0 forces
    c != 0, and c != 0 forces r != 0 at (k mu, k lam).  A cap hit on the
    stretched r leaves a failure found before it a FAIL."""
    flags = [bool(c)] if r != 0 else []
    if c:
        k = k_phi(datum)
        try:
            flags.append(_restrict(datum.full, levi, vec_scale(k, mu)).get(
                vec_scale(k, lam), 0) != 0)
        except FeasibilityError as e:
            return SKIPPED if all(flags) else FAIL, [f"nonvanishing: {e}"]
    return _verdict_all(flags), []


def _mu_record(datum: RootDatum, levi, mu: Coweight, checks) -> dict:
    start = time.perf_counter()
    verdicts, notes = {}, []
    crystal_size = None
    if _reads(checks, "crystal"):
        try:
            crystal = _crystal(datum, mu)
        except FeasibilityError as e:
            checks = _skip(checks, "crystal", e, verdicts, notes)

    if "crystal" in checks:
        # the crystal and the weight table run under one cap, so a crystal
        # that was built has its table
        hist = {w: len(f) for w, f in crystal.fibers.items()}
        crystal_size = sum(hist.values())
        verdicts["crystal"] = _verdict_all([
            crystal_size == weyl_dim(datum.full, mu),
            hist == weight_table(datum.full, mu)])

    if "hecke_paths" in checks:
        # a one-segment path has no interior breakpoint to fold at
        verdicts["hecke_paths"] = _verdict_all(
            [_folds_connected(datum, ipath, points, crystal.grid)
             for fiber in crystal.fibers.values()
             for ipath, points, _ in fiber if len(ipath) > 1])

    if _reads(checks, "ct"):
        torus = levi_view(datum, ())
        try:
            direct = satake_expand(datum, datum.full, torus, mu)
            through = satake_expand(datum, datum.full, levi, mu)
            composed: dict = {}
            for lam, outer in through.items():
                for tau, inner in satake_expand(datum, levi, torus, lam).items():
                    composed[tau] = (composed.get(tau, LaurentPoly.zero())
                                     + outer * inner)
        except FeasibilityError as e:
            checks = _skip(checks, "ct", e, verdicts, notes)

    if "ct_transitivity" in checks:
        verdicts["ct_transitivity"] = _verdict_all([
            {t: p for t, p in composed.items() if p} == direct])

    return {"mu": list(mu), "checks": verdicts, "crystal_size": crystal_size,
            "notes": notes, "time_ms": (time.perf_counter() - start) * 1000.0}


def _semigroup_section(datum: RootDatum, levi, mus, seed: int,
                       samples: int) -> dict:
    pool = []
    over_cap = []
    for mu in mus:
        try:
            lams = sorted(branch_decompose(datum, levi, mu))
        except FeasibilityError:
            over_cap.append({"mu": list(mu), "reason": "module over the cap"})
            continue
        for lam in lams:
            pool.append((mu, lam))
    n = len(pool)
    k = n.bit_length()
    getrandbits = random.Random(seed).getrandbits
    checked = 0
    skipped = 0
    failures = []
    attempts = 0
    # the restriction at each drawn sum of two pool mu, and the multiplicity
    # at each drawn pair of pool indices i, j (keyed i * n + j), both None
    # over the cap: a sum is decomposed once, and a pair drawn again counts
    # again from one lookup
    sums: dict = {}
    seen: dict = {}
    while pool and checked < samples and attempts < 20 * samples:
        attempts += 1
        # two rng.randrange(n), drawn as Random._randbelow_with_getrandbits
        # does without its per-call argument handling
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        pair = i * n + j
        r12 = seen.get(pair, -1)
        if r12 == -1:
            (mu1, lam1), (mu2, lam2) = pool[i], pool[j]
            mu = vec_add(mu1, mu2)
            if mu not in sums:
                try:
                    sums[mu] = branch_decompose(datum, levi, mu)
                except FeasibilityError:
                    sums[mu] = None
            br = sums[mu]
            r12 = seen[pair] = (None if br is None
                                else br.get(vec_add(lam1, lam2), 0))
        if r12 is None:
            skipped += 1
            continue
        if r12 == 0:
            (mu1, lam1), (mu2, lam2) = pool[i], pool[j]
            failures.append({"mu1": list(mu1), "lambda1": list(lam1),
                             "mu2": list(mu2), "lambda2": list(lam2)})
        checked += 1
    section = {
        "pool_size": len(pool),
        "pairs_checked": checked,
        "pairs_skipped": skipped,
        "failures": failures,
        "verdict": PASS if not failures else FAIL,
    }
    if over_cap:
        section["mus_over_cap"] = over_cap
    return section


def _saturation_section(datum: RootDatum, levi, lams_by_mu: dict) -> dict:
    k = k_phi(datum)
    zero_pairs = []
    skips = []
    for mu, lams in lams_by_mu.items():
        try:
            br = branch_decompose(datum, levi, mu)
        except FeasibilityError:
            skips += [{"mu": list(mu), "lambda": list(lam), "n": 1,
                       "reason": "module over the cap"} for lam in lams]
            continue
        zero_pairs += [(mu, lam) for lam in lams if br.get(lam, 0) == 0]

    def scaled_branch(factor: int, mu, lam) -> Optional[int]:
        try:
            return branch_multiplicity(datum, levi, vec_scale(factor, mu),
                                       vec_scale(factor, lam))
        except FeasibilityError:
            return None

    hits = []
    failures = []
    for mu, lam in zero_pairs:
        witness = None
        for n in range(2, SATURATION_N_MAX + 1):
            rn = scaled_branch(n, mu, lam)
            if rn is None:
                skips.append({"mu": list(mu), "lambda": list(lam), "n": n,
                              "reason": "scaled instance over the cap"})
                break
            if rn != 0:
                witness = (n, rn)
                break
        if witness is None:
            continue
        hit = {"mu": list(mu), "lambda": list(lam),
               "witness_n": witness[0], "witness_r": witness[1]}
        try:
            ck = constant_term_coefficient(datum, levi, vec_scale(k, mu),
                                           vec_scale(k, lam))
            hit["c_at_k"] = bool(ck)
            if not ck:
                failures.append({"mu": list(mu), "lambda": list(lam),
                                 "reason": "saturation witness but zero "
                                           "constant term at factor k"})
        except FeasibilityError:
            hit["c_at_k"] = SKIPPED
            skips.append({"mu": list(mu), "lambda": list(lam), "n": k,
                          "reason": "k-scaled constant term over the cap"})
        rk2 = scaled_branch(k * k, mu, lam)
        if rk2 is None:
            hit["r_at_k_squared"] = SKIPPED
            skips.append({"mu": list(mu), "lambda": list(lam), "n": k * k,
                          "reason": "k^2-scaled instance over the cap"})
        else:
            hit["r_at_k_squared"] = rk2
            if rk2 == 0:
                failures.append({"mu": list(mu), "lambda": list(lam),
                                 "reason": "saturation witness but zero "
                                           "branching at factor k^2"})
        if datum.letter in ("B", "C", "G"):
            # the scan starts at n = 2 and passed it only where r was 0
            hit["factor_two_r"] = witness[1] if witness[0] == 2 else 0
        hits.append(hit)
    return {
        "zero_pairs_scanned": len(zero_pairs),
        "n_max": SATURATION_N_MAX,
        "hits": hits,
        "skipped": skips,
        "failures": failures,
        "verdict": PASS if not failures else FAIL,
    }


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, since a cpuset-limited container has fewer cores than
    the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claims(fd: int):
    """The unit indices read off the claim pipe, one 4-byte token at a time,
    until it runs dry."""
    while len(token := os.read(fd, 4)) == 4:
        yield int.from_bytes(token, "little")


def _child_exit(tasks: list, units: list, claims: int, out: int) -> None:
    """A forked worker's whole life: claim units until the pipe runs dry,
    write ``(None, [(task index, result), ...])`` or ``(pickled exception,
    None)`` into ``out`` as ``marshal`` data, and leave without returning to
    the caller.  Results are plain JSON values, which ``marshal`` carries;
    ``pickle`` is imported only for an exception."""
    status = 1
    try:
        try:
            done = [(i, tasks[i]()) for unit in _claims(claims)
                    for i in units[unit]]
            payload = marshal.dumps((None, done))
        except Exception as exc:
            import pickle
            import traceback
            # what ``add_note`` does; Python 3.10 has no ``add_note``
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             "raised in a sweep worker:\n"
                             + "".join(traceback.format_exception(exc))]
            payload = marshal.dumps(
                (pickle.dumps(exc, pickle.HIGHEST_PROTOCOL), None))
        with os.fdopen(out, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _run_forked(tasks: list, units: list, workers: int) -> list:
    """Run the zero-argument ``tasks`` in ``workers`` processes, this one
    included, and return their results in task order.

    ``units`` lists the task indices that run together, in the order they
    should start.  The unit indices go into one pipe as 4-byte tokens before
    the children fork, and every worker claims its next unit by reading one
    token until the pipe runs dry.  A task that raises in a child raises
    here once every child is reaped; one that raises here kills and reaps
    the children first.  The caller must not run threads: a forked child
    holds only the thread that forked it.
    """
    results: list = [None] * len(tasks)
    claims, feed = os.pipe()
    os.set_blocking(feed, False)
    # a pipe holds 64 KiB on Linux, 16,384 tokens; the units it cannot hold
    # (and a token cut short) are this process's after the pipe runs dry
    held = os.write(feed, b"".join(
        u.to_bytes(4, "little") for u in range(len(units)))) // 4
    os.close(feed)
    children: dict = {}   # pid -> read end of the child's result pipe
    try:
        for _ in range(workers - 1):
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_exit(tasks, units, claims, out_w)
            os.close(out_w)
            children[pid] = out_r
        for unit in itertools.chain(_claims(claims), range(held, len(units))):
            for i in units[unit]:
                results[i] = tasks[i]()
        payloads = []
        for out_r in children.values():
            with os.fdopen(out_r, "rb", closefd=False) as fh:
                payloads.append(fh.read())
    except BaseException:
        import signal
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        for pid, out_r in children.items():
            os.close(out_r)
            os.waitpid(pid, 0)
    for payload in payloads:
        if not payload:
            raise RuntimeError("a sweep worker exited without its results")
        exc, done = marshal.loads(payload)
        if exc is not None:
            import pickle
            raise pickle.loads(exc)
        for i, result in done:
            results[i] = result
    return results


def run_sweep(config: SweepConfig) -> dict:
    """Execute every selected check over the enumerated instances and return
    the report as a JSON-serializable dict."""
    config.validate()
    start = time.perf_counter()
    datum = root_datum(config.cartan_type)
    levi = levi_view(datum, config.levi)
    checks = tuple(c for c in CHECK_NAMES if c in config.checks)

    lams_by_mu = (_levi_dominant_weights(datum, levi, config.max_height)
                  if checks else {})
    mus = list(lams_by_mu)
    # offset_pair bumps every coordinate off the Levi, so each lambda has two
    # offsets unless the Levi is the whole system
    offsets = 1 if len(levi.indices) == datum.rank else 2
    instance_count = offsets * sum(map(len, lams_by_mu.values()))

    mu_checks = tuple(c for c in checks if _CHECKS[c].kind == "mu")
    inst_checks = tuple(c for c in checks if _CHECKS[c].kind == "instance")

    tasks: list = []
    by_mu: dict = {mu: [] for mu in mus}
    if mu_checks:
        for mu in mus:
            by_mu[mu].append(len(tasks))
            tasks.append(partial(_mu_record, datum, levi, mu, mu_checks))
    if inst_checks:
        # only the instance checks read the offsets
        for mu, lam, nus in _instances(datum, levi, lams_by_mu):
            by_mu[mu].append(len(tasks))
            tasks.append(partial(_instance_records, datum, levi, mu, lam, nus,
                                 inst_checks))
    records = len(tasks)
    sections = {}
    if "semigroup" in checks and mus:
        sections["semigroup"] = partial(_semigroup_section, datum, levi, mus,
                                        config.seed, config.semigroup_samples)
    if "saturation" in checks and mus:
        sections["saturation"] = partial(_saturation_section, datum, levi,
                                         lams_by_mu)
    tasks += sections.values()
    mu_units = [by_mu[mu] for mu in reversed(mus) if by_mu[mu]]

    # more workers than units or cores only adds start-up and contention
    workers = min(config.jobs, len(sections) + len(mu_units), _usable_cores())
    if workers > 1 and hasattr(os, "fork"):
        # a unit is one section, or one mu with its tasks; the largest come
        # first: the sections, then mu from the highest down.  A mu with more
        # than 1/(2 workers) of the tasks is cut into chunks of that many, or
        # it outlasts the rest of the sweep (B4 Levi {1} h6: one mu has 16 of
        # the 23 (mu, lambda) tasks)
        size = -(-len(tasks) // (2 * workers))
        units = [[i] for i in range(records, len(tasks))]
        units += [ids[k:k + size] for ids in mu_units
                  for k in range(0, len(ids), size)]
        results = _run_forked(tasks, units, workers)
    else:
        results = [task() for task in tasks]

    n_mu = len(mus) if mu_checks else 0
    per_mu = results[:n_mu]
    inst_records = list(itertools.chain.from_iterable(results[n_mu:records]))
    done = dict(zip(sections, results[records:]))

    counts = {PASS: 0, FAIL: 0, SKIPPED: 0}
    counterexamples = []
    for where, recs in (("mu", per_mu), ("instance", inst_records)):
        for rec in recs:
            for name, verdict in rec["checks"].items():
                counts[verdict] += 1
                if verdict == FAIL:
                    counterexamples.append({"where": where, "check": name, **{
                        k: rec[k] for k in ("mu", "lambda", "nu") if k in rec}})
    for name, section in done.items():
        counts[section["verdict"]] += 1
        if section["verdict"] == FAIL:
            counterexamples.append({"where": name, "check": name})

    return {
        "schema": 1,
        "config": {
            "cartan_type": config.cartan_type,
            "levi": list(config.levi),
            "max_height": config.max_height,
            "checks": list(checks),
            "q_eval_points": list(Q_EVAL_POINTS),
            "seed": config.seed,
            "saturation_n_max": SATURATION_N_MAX,
            "semigroup_samples": config.semigroup_samples,
        },
        "instance_count": instance_count,
        "per_mu": per_mu,
        "instances": inst_records,
        "semigroup": done.get("semigroup"),
        "saturation": done.get("saturation"),
        "summary": {
            "pass": counts[PASS],
            "fail": counts[FAIL],
            "skipped": counts[SKIPPED],
            "counterexamples": counterexamples,
            "m_nonneg_violations": sum(
                rec["m_has_negative_coefficient"] for rec in inst_records),
        },
        "total_time_ms": (time.perf_counter() - start) * 1000.0,
    }
