"""The benchmark's workloads: fixed, ordered case lists of verifier calls.

Each case is one library call that a CLI verb makes.  A sweep workload runs
``verify.sweep`` once per partition (``spechtbranch sweep --lambda``), in the
order a full sweep visits them, so one case is one verb a user waits on and
the module caches are shared across cases exactly as in a full sweep.  The
workload seed is passed to the verifiers as their ``seed``; the package sees
nothing else of the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


def partitions(n: int, largest: int | None = None):
    """Partitions of n as tuples of weakly decreasing parts."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def sweep_order(n_max: int, keep=lambda lam: True):
    """Partitions of 2..n_max that pass keep, in the order verify.sweep
    visits them."""
    return [lam for n in range(2, n_max + 1) for lam in sorted(partitions(n))
            if keep(lam)]


@dataclass(frozen=True)
class Case:
    """One verifier call: ``kind`` names the library entry point."""

    kind: str
    lam: tuple = ()
    fields: tuple = ()

    @property
    def label(self) -> str:
        parts = ",".join(map(str, self.lam))
        fields = ",".join(map(str, self.fields))
        if self.kind == "sweep":
            return f"sweep ({parts}) fields {fields}"
        return f"branching ({parts}) GF({fields}) induce"

    def run(self, verify, seed: int) -> list:
        """Call the package; returns the verification reports made."""
        if self.kind == "sweep":
            result = verify.sweep(sum(self.lam), list(self.fields), seed=seed,
                                  only=[self.lam])
            return result["reports"]
        return [verify.verify_branching(self.lam, self.fields[0], "induce",
                                        seed=seed)]


def _sweep(n_max: int, fields, keep=lambda lam: True):
    return tuple(Case("sweep", lam, tuple(fields)) for lam in sweep_order(n_max, keep))


# Why these cases (layer shares from a traced run are in BENCHMARK.json):
# - q-sweep: every shape to n = 4 and two conjugate shapes of 5, over Q; the
#   Fraction path, where block_split and exact elimination dominate and endo
#   is never called.
# - modp-sweep: every shape to n = 5 over GF(3) and GF(5), except (1^5):
#   many small cases on the sparse tabloid-vector path.  The one-column shape
#   is left out because its poly-transfer cost swings fourfold with the seed
#   (a random degree times 5! tabloids), which would make the spread between
#   runs a property of the seed rather than of the code.
# Two workloads that were tried are left out, because their times spread too
# far between runs for the benchmark's bounds even after speed rescaling:
# - odd-induce (S^(3,2,2) induced at GF(3) and GF(5), led by endo.hom_space):
#   numpy-bound, and its repetitions spread 0.11-0.12 after rescaling.
# - char2-exceptions (run_char2_counterexamples, led by the build_induction
#   rank scan): one 15 s call, so a run holds one or two repetitions, and for
#   minutes at a time it ran 40% slower without the speed probe slowing.
# endo.hom_space and build_induction are still traced on modp-sweep.
WORKLOADS = {
    "q-sweep": _sweep(5, (0,), lambda lam: sum(lam) <= 4
                      or lam in ((4, 1), (2, 1, 1, 1))),
    "modp-sweep": _sweep(5, (3, 5), lambda lam: lam != (1,) * 5),
}
