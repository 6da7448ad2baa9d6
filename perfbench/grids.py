"""Workload grids of the sparsecoarsen benchmark.

Pure data: importing this module imports nothing from the package, so
run.py can name and validate workloads before it starts timing set-up.
"""

from dataclasses import dataclass

# The lambda-sweep default grid {0, 0.5, ..., 4}; lambda-sweep adds the mirrors 8 - lambda.
SWEEP_LAMBDAS = tuple(0.5 * i for i in range(9))


@dataclass(frozen=True)
class Workload:
    name: str
    # "sweep": one lambda-sweep through cli.main;
    # "region": linearized_minimize + global_verify per point, called directly.
    kind: str
    ms: tuple
    p: int = 1
    q: int = 1
    region_lambdas: tuple = ()  # lambdas of a "region" workload

    def cli_args(self):
        """lambda-sweep arguments without --out, on the CLI's default lambda grid."""
        args = ["lambda-sweep"]
        if (self.p, self.q) != (1, 1):
            args += ["--p", str(self.p), "--q", str(self.q)]
        if self.ms != tuple(range(1, 8)):
            args += ["--m", ",".join(str(m) for m in self.ms)]
        return args + ["--jobs", "1"]

    def points(self):
        """(lambda, m) of every linearized_minimize call one pass makes, in call order."""
        if self.kind == "region":
            return [(lam, m) for lam in self.region_lambdas for m in self.ms]
        mirrors = sorted({8.0 - lam for lam in SWEEP_LAMBDAS} - set(SWEEP_LAMBDAS))
        # lambda-sweep solves its sorted base grid first, then the missing mirrors.
        return [(lam, m) for lams in (SWEEP_LAMBDAS, mirrors) for lam in lams for m in self.ms]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_scalar", "sweep", ms=tuple(range(1, 8))),
        Workload("supernode_sweep", "sweep", ms=(1, 2, 3, 4), p=2, q=1),
        Workload("large_region", "region", ms=(8, 9, 10), region_lambdas=(0.0, 3.5)),
    )
}
