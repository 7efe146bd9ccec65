"""The one check of each claim: :func:`theorem1` (maximum size 2g+b-1),
:func:`theorem2` (every admissible size; :func:`euler` adds sum = 2g-2+b),
:func:`theorem3` (omega_max <= 2g-s+1, attained) and :func:`ops` (the
operation laws).  ``fillgraph verify`` prints a suite's
:meth:`SuiteResult.text`; the acceptance tests assert it has no failures.
"""

from __future__ import annotations

from collections import namedtuple

from . import analysis, oracle, synthesis
from .ops import JOIN_OTHER, JOIN_SAME_SAME, PLUMB_ALL_DIFF, PLUMB_OTHER

# the default grid; a larger one needs --unsafe-large
GMAX = 5
BMAX = 4
# theorem3 builds its bound and tight fillings for g up to this
THEOREM3_GMAX = 6


class SuiteResult(namedtuple("SuiteResult", ("name", "lines", "failures"))):
    __slots__ = ()

    @classmethod
    def of(cls, name, checks):
        """The result of ``checks``, a list of (line, failures) pairs."""
        return cls(name, tuple(line for line, _ in checks),
                   sum(failed for _, failed in checks))

    def text(self):
        verdict = f"{self.failures} FAILURES" if self.failures else "ALL PASS"
        return "".join(f"{line}\n" for line in self.lines
                       + (f"verify {self.name}: {verdict}",))


def _attempt(head, check, *args):
    """(``head: verdict``, failures), where ``check(*args)`` returns
    (verdict, ok); an exception it raises is the verdict ``FAIL (exc)``."""
    try:
        verdict, ok = check(*args)
    except Exception as exc:
        verdict, ok = f"FAIL ({exc})", False
    return f"{head}: {verdict}", int(not ok)


def theorem1(gmax=GMAX, bmax=BMAX):
    def built(g, b):
        synthesis.max_filling(g, b)  # checks its target and filling
        return "pass", True

    checks = [_attempt(f"theorem1 g={g} b={b} size={2 * g + b - 1}",
                       built, g, b)
              for g in range(2, gmax + 1) for b in range(1, bmax + 1)]
    # census side: no filling exceeds the bound where exhaustion is possible
    for (g, b) in ((2, 1), (2, 2)):
        rows = oracle.census_filter(2 * g - 2 + b, genus=g, b=b, filling=True)
        smax = max((r.standard_cycle_count for r in rows), default=0)
        ok = smax == 2 * g + b - 1 and not [
            r for r in rows if r.standard_cycle_count >= 2 * g + b]
        checks.append((f"theorem1 census (g={g},b={b}): max size {smax} "
                       f"{'pass' if ok else 'FAIL'}", int(not ok)))
    return SuiteResult.of("theorem1", checks)


def theorem2(gmax=GMAX, bmax=BMAX, euler=False):
    def built(g, b, s):
        graph, _ = synthesis.filling(g, b, s).replay()
        if euler and not analysis.check_euler_identity(graph).passed:
            return "FAIL euler", False
        return "pass", True

    checks = [_attempt(f"theorem2 g={g} b={b} s={s}", built, g, b, s)
              for g in range(2, gmax + 1) for b in range(1, bmax + 1)
              for s in range(synthesis.lower_bound(g, b),
                             synthesis.upper_bound(g, b) + 1)]
    try:
        synthesis.filling(2, 1, 2)
        checks.append(("theorem2 (2,1,2): FAIL (expected impossible)", 1))
    except synthesis.ImpossibleSignatureError:
        checks.append(("theorem2 (2,1,2): impossible as required, pass", 0))
    return SuiteResult.of("euler" if euler else "theorem2", checks)


def euler(gmax=GMAX, bmax=BMAX):
    """:func:`theorem2`, checking the Euler identity on every graph."""
    return theorem2(gmax, bmax, euler=True)


def _within(g, s, bound):
    graph, _ = synthesis.filling(g, 1, s).replay()
    wmax = analysis.intersection_graph(graph).omega_max()
    ok = wmax <= bound
    return f"omega_max={wmax} <= {bound}: {'pass' if ok else 'FAIL'}", ok


def _attained(g, s, bound):
    # the plan's expect_omega makes replay check the equality
    synthesis.tight_omega_filling(g, s).replay()
    return f"omega_max={bound} attained, pass", True


def theorem3(gmax=GMAX):
    checks = []
    for V in range(1, oracle.EXHAUSTIVE_CEILING + 1):
        bad = sum(row.omega_max > 2 * row.genus - row.standard_cycle_count + 1
                  for row in oracle.census(V)
                  if row.filling and row.boundary_count == 1)
        checks.append((f"theorem3 census V={V}: "
                       f"{f'FAIL ({bad} rows)' if bad else 'pass'}", bad))
    for g in range(2, gmax + 1):
        for s in range(synthesis.lower_bound(g, 1), 2 * g + 1):
            bound = 2 * g - s + 1
            checks.append(_attempt(f"theorem3 bound g={g} s={s}",
                                   _within, g, s, bound))
            checks.append(_attempt(f"theorem3 tight g={g} s={s}",
                                   _attained, g, s, bound))
    return SuiteResult.of("theorem3", checks)


def ops():
    # read from the module at call time, so a test can substitute audits
    audits = oracle.verify_formula_by_recompute()
    checks = []
    for op in ("join", "consum", "plumb"):
        a = audits[op]
        cases = ", ".join(f"{k}:{v}" for k, v in sorted(a.case_counts.items()))
        ok = a.mismatches == 0
        if op == "join":
            ok = ok and set(a.case_counts) == {JOIN_SAME_SAME, JOIN_OTHER} \
                and a.corollary_violations == 0
        if op == "plumb":
            ok = ok and set(a.case_counts) == {PLUMB_ALL_DIFF, PLUMB_OTHER}
        if op == "consum":
            ok = ok and len(a.case_counts) == 4 \
                and all(v > 0 for v in a.case_counts.values()) \
                and a.printed_reliable_misses == 0 and a.printed_matched > 0 \
                and a.s_law_checked > 0 and a.s_law_misses == 0
        checks.append((f"ops {op}: trials={a.trials} mismatches="
                       f"{a.mismatches} branches[{cases}] "
                       f"{'pass' if ok else 'FAIL'}", int(not ok)))
        if op == "join":
            checks.append((f"ops join: new-boundary-length>2 violations="
                           f"{a.corollary_violations}", 0))
        if op == "consum":
            checks.append((
                f"ops consum: printed-table checked={a.printed_checked} "
                f"matched={a.printed_matched} "
                f"reliable-misses={a.printed_reliable_misses} "
                f"known-underdetermined-misses={a.unreliable_miss_cases}", 0))
    return SuiteResult.of("ops", checks)


# suite name -> (suite, the verify options it reads; the others exit 2)
SUITES = {
    "theorem1": (theorem1, ("gmax", "bmax", "unsafe_large")),
    "theorem2": (theorem2, ("gmax", "bmax", "unsafe_large")),
    "theorem3": (theorem3, ("gmax", "unsafe_large")),
    "ops": (ops, ()),
    "euler": (euler, ("gmax", "bmax", "unsafe_large")),
}
