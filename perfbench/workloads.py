"""The four workloads: seeded operation lists, the operations, their oracles.

Every workload builds a fixed list of operations from its seed. The seed
moves only parameters that leave an operation's cost alone (arc placement,
energies, profile coefficients, k, the order of the list); the sizes that
set the cost sit at fixed levels, so every seed gets the same spread of
sizes and the same number of operations per class. That keeps the median and the tail
percentile inside one operation class from seed to seed (see README.md).

Each workload exposes:

  ops          the operation list, each with a class label
  warmup()     one untimed operation of a seed-independent case
  begin_pass() untimed reset before each pass over the list
  call(op)     the operation itself, the only timed part
  check(op, out) -> None or a failure message (the oracle)
  digest(op, out) -> bytes compared when an operation is re-run
  finish()     oracles that need the whole run -> (failures, details)

Operations reach qcilab through module attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Op:
    index: int
    cls: str
    params: dict = field(default_factory=dict)


class Workload:
    """Defaults for the hooks a workload may leave out."""

    ops: list[Op]

    def begin_pass(self):
        pass

    def finish(self):
        return [], {}


def _levels(n: int, lo: float, hi: float) -> list[float]:
    """Midpoints of n equal strata of [lo, hi]: the same cost spread for every seed."""
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def _profiles(geometry, rng) -> dict:
    """The sphere and one seeded `polynomial-perturbed` profile."""
    while True:
        coefficients = [1.0, float(rng.uniform(0.1, 0.3)), float(rng.uniform(-0.1, 0.1))]
        try:
            perturbed = geometry.make_profile("polynomial-perturbed", coefficients)
        except geometry.ProfileError:
            continue
        return {"sphere": geometry.make_profile("sphere", []), "perturbed": perturbed}


def _offbump_range(rng, t0: float) -> tuple[float, float]:
    """A t-range clear of the bump at t0, on a seeded side."""
    gap, length = rng.uniform(0.15, 0.35), rng.uniform(0.3, 0.5)
    if rng.random() < 0.5:
        a = t0 + gap
        return float(a), float(min(a + length, 0.85))
    b = t0 - gap
    return float(max(b - length, -0.85)), float(b)


def _shuffled(rng, ops: list[Op]) -> list[Op]:
    order = rng.permutation(len(ops))
    out = [ops[i] for i in order]
    for i, op in enumerate(out):
        op.index = i
    return out


# ============================================================================
# verdicts: the classical side, in process
# ============================================================================

# criterion 1 of the acceptance gate, on the sphere
CRITERION_1 = {
    "equator": dict(arc=("latitude", (0.0, math.pi / 3)), E1=1.0, E2=0.0, expect="not-admissible"),
    "off-bump": dict(arc=("longitude", (0.3, 0.8), 0.0), E1=1.0, E2=0.5, expect="admissible"),
    "straddling": dict(arc=("longitude", (-0.2, 0.4), 0.0), E1=1.0, E2=0.5, expect="not-admissible"),
}


class Verdicts(Workload):
    """One `check_admissible` per operation.

    64 builtin-symbol operations at square grids 128..506 (step 6) and 16
    operations passing BUILTIN_P1_TEXT/BUILTIN_P2_TEXT at 68..128 (step 4).
    DSL operations cost 3x the dearest builtin one, so with 80 operations
    the median is builtin rank 40 of 64 and the tail (10 beyond) is DSL
    rank 6 of 16: both sit inside a class, never on its edge.
    """

    N_BUILTIN = 64
    N_DSL = 16

    def __init__(self, seed: int, workdir: str):
        from qcilab import admissibility, geometry, symbol_dsl

        self.adm, self.geo, self.dsl = admissibility, geometry, symbol_dsl
        rng = np.random.default_rng(seed)
        self.profiles = _profiles(geometry, rng)

        ops = []
        kinds = ("offbump", "equator")
        for i in range(self.N_BUILTIN):
            grid = 128 + 6 * i
            if i in (0, 21, 42):  # criterion 1 at three grid sizes
                label = ("equator", "off-bump", "straddling")[i // 21]
                ops.append(Op(0, "builtin", dict(CRITERION_1[label], profile="sphere",
                                                 grid=grid, dsl=False, crit1=label)))
                continue
            prof = ("sphere", "perturbed")[(i // 2) % 2]
            ops.append(Op(0, "builtin", self._case(rng, kinds[i % 2], prof, grid, False)))
        for j in range(self.N_DSL):
            grid = 68 + 4 * j
            if j == self.N_DSL - 1:
                ops.append(Op(0, "dsl", dict(CRITERION_1["off-bump"], profile="sphere",
                                             grid=grid, dsl=True, crit1="off-bump")))
                continue
            prof = ("sphere", "perturbed")[(j // 2) % 2]
            ops.append(Op(0, "dsl", self._case(rng, kinds[j % 2], prof, grid, True)))
        self.ops = _shuffled(rng, ops)
        self.dsl_results = {}

    def _case(self, rng, kind, prof, grid, dsl):
        E1 = float(rng.uniform(0.8, 1.25))
        if kind == "equator":
            alpha = float(rng.uniform(0.0, 2.0 * math.pi))
            arc = ("latitude", (alpha, alpha + float(rng.uniform(0.5, 2.0))))
            E2 = float(rng.uniform(-0.3, 0.3) * math.sqrt(E1))
            expect = "not-admissible"
        else:
            arc = ("longitude", _offbump_range(rng, self.profiles[prof].t0),
                   float(rng.uniform(0.0, 2.0 * math.pi)))
            E2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.5) * math.sqrt(E1))
            expect = "admissible"
        return dict(profile=prof, arc=arc, E1=E1, E2=E2, grid=grid, dsl=dsl,
                    expect=expect, crit1=None)

    def _verdict(self, p: dict, dsl: bool):
        prof = self.profiles[p["profile"]]
        arc = p["arc"]
        if arc[0] == "latitude":
            geod = self.geo.latitude_arc(prof, arc[1])
        else:
            geod = self.geo.longitude_arc(prof, arc[1], arc[2])
        if dsl:
            mmap = self.dsl.moment_map_from_config(prof, self.dsl.BUILTIN_P1_TEXT, self.dsl.BUILTIN_P2_TEXT)
        else:
            mmap = self.dsl.builtin_moment_map(prof)
        energies = self.adm.EnergyPair(p["E1"], p["E2"])
        return self.adm.check_admissible(mmap, geod, energies, (p["grid"], p["grid"]))

    def warmup(self):
        self._verdict(dict(CRITERION_1["off-bump"], profile="sphere", grid=128), False)

    def call(self, op: Op):
        return self._verdict(op.params, op.params["dsl"])

    def check(self, op: Op, rep):
        p = op.params
        if p["dsl"]:
            self.dsl_results[op.index] = rep
        if rep.verdict != p["expect"]:
            return f"verdict {rep.verdict}, expected {p['expect']}"
        if p["crit1"] == "equator" and not rep.min_derivative <= 1e-8:
            return f"equator min_derivative {rep.min_derivative} > 1e-8"
        if p["crit1"] == "off-bump" and not p["dsl"] and not rep.min_derivative >= 0.1:
            return f"off-bump min_derivative {rep.min_derivative} < 0.1"
        return None

    def digest(self, op: Op, rep) -> bytes:
        return json.dumps(rep.as_json(), sort_keys=True).encode()

    def finish(self):
        """Builtin and DSL verdicts must agree on each DSL operation's case.

        The relative gap in min_derivative between the two is reported, not
        failed: it is the known fiber-parameterization defect.
        """
        failures, gap = [], 0.0
        for index, dsl in sorted(self.dsl_results.items()):
            ref = self._verdict(self.ops[index].params, False)
            if dsl.verdict != ref.verdict:
                failures.append(f"op {index}: DSL verdict {dsl.verdict} vs builtin {ref.verdict}")
            if ref.min_derivative:
                gap = max(gap, abs(ref.min_derivative - dsl.min_derivative) / abs(ref.min_derivative))
        return failures, {"admissibility.dsl_gap_rel": gap}


# ============================================================================
# decay-laws: the wave side, in process
# ============================================================================


class DecayLaws(Workload):
    """One experiment plus a save_report/load_report round trip per operation.

    Classes (60 operations): tesseral forbidden side 14, allowed side 10,
    transition peak 14, single-mode integrate 14, zonal 8. The largest
    frequency of each operation sits at fixed levels over a fixed range and
    the other sizes that set the cost (arc length, l - k, delta0) barely
    move with the seed, so every seed gets the same spread of costs. The classes
    overlap in cost and form one smooth distribution without a gap at the
    median or the tail.
    """

    def __init__(self, seed: int, workdir: str):
        from qcilab import geometry, lineintegral, specfun, sweep

        self.geo, self.quad, self.spec, self.sweep = geometry, lineintegral, specfun, sweep
        self.dir = os.path.join(workdir, "reports")
        self.sphere = geometry.make_profile("sphere", [])
        rng = np.random.default_rng(seed)

        def geometric(kmax, n=4):
            return [int(round(kmax / 2 ** (n - 1 - i))) for i in range(n)]

        ops = []
        for side, n in (("forbidden", 14), ("allowed", 10)):
            for kmax in _levels(n, 400, 1600):
                ops.append(Op(0, f"tesseral-{side}", dict(
                    ks=geometric(kmax), delta0=float(rng.uniform(0.28, 0.32)), side=side)))
        for kmax in _levels(14, 800, 3200):
            ops.append(Op(0, "transition", dict(ks=geometric(kmax), width=float(rng.uniform(0.5, 2.0)))))
        for l in _levels(14, 200, 1600):
            l = int(l)
            a = float(rng.uniform(0.05, 0.3))
            ops.append(Op(0, "integrate", dict(
                l=l, k=int(l * rng.uniform(0.48, 0.52)), t_range=(a, a + 0.4),
                phi0=float(rng.uniform(0.0, 2.0 * math.pi)))))
        for _ in range(8):
            lo = 2 * int(rng.integers(50, 150))
            hi = 2 * int(rng.integers(600, 1000))
            alpha = float(rng.uniform(0.0, math.pi))
            ops.append(Op(0, "zonal", dict(
                ks=[int(k) for k in 2 * np.round(np.linspace(lo, hi, 10) / 2)],
                phi_range=(alpha, alpha + float(rng.uniform(0.5, 2.0))))))
        self.ops = _shuffled(rng, ops)

    def _run(self, cls: str, p: dict):
        sweep = self.sweep
        if cls.startswith("tesseral"):
            return sweep.run_tesseral_sweep(p["ks"], delta0=p["delta0"], side=p["side"]), None
        if cls == "transition":
            return sweep.run_transition_peak_sweep(p["ks"], width_scale=p["width"]), None
        if cls == "zonal":
            return sweep.run_zonal_sweep(p["ks"], self.geo.latitude_arc(self.sphere, p["phi_range"])), None
        # one mode over one arc, as `qcilab integrate` does it
        l, k = p["l"], p["k"]
        idx = self.spec.HarmonicIndex(l=l, k=k)
        geod = self.geo.longitude_arc(self.sphere, p["t_range"], p["phi0"])
        spec = self.quad.QuadratureSpec()

        def u(t, phi):
            return self.spec.assoc_legendre_norm(l, k, t) * np.exp(1j * k * np.asarray(phi))

        value, estimate = self.quad.integrate_adaptive(u, geod, spec, idx.h)
        row = sweep.SweepRow(k=k, l=l, h=idx.h, abs_I=abs(value), re_I=value.real, im_I=value.imag)
        return sweep.SweepReport("custom", (row,), None, None, None, quadrature=spec), estimate

    def warmup(self):
        self.begin_pass()
        self.call(Op(-1, "tesseral-forbidden", dict(ks=[50, 100, 200, 400], delta0=0.3, side="forbidden")))

    def begin_pass(self):
        # fresh files each pass: on ext4 a rename over an existing file forces
        # its data out (auto_da_alloc), a stall the first pass would not see
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def _path(self, op: Op) -> str:
        return os.path.join(self.dir, f"op{op.index}.csv")

    def call(self, op: Op):
        report, estimate = self._run(op.cls, op.params)
        path = self._path(op)
        self.sweep.save_report(report, path)
        return report, self.sweep.load_report(path), estimate

    def check(self, op: Op, out):
        report, loaded, estimate = out
        if loaded != report:
            return "reloaded report differs from the saved one"
        s, r2 = report.slope, report.r_squared
        if op.cls == "tesseral-forbidden" and not (0.35 <= s <= 0.65 and r2 >= 0.9):
            return f"forbidden-side slope {s} (R2 {r2}) outside [0.35, 0.65] / R2 >= 0.9"
        if op.cls == "transition" and not -0.25 <= s <= -0.08:
            return f"transition slope {s} outside [-0.25, -0.08]"
        if op.cls == "zonal" and not abs(s) <= 0.05:
            return f"zonal |slope| {abs(s)} > 0.05"
        if op.cls == "integrate" and not estimate <= 1e-8 * report.rows[0].abs_I:
            return f"error estimate {estimate} > 1e-8 |I| = {1e-8 * report.rows[0].abs_I}"
        if not all(np.isfinite(r.abs_I) for r in report.rows):
            return "non-finite row"
        return None

    def digest(self, op: Op, out) -> bytes:
        root = os.path.splitext(self._path(op))[0]
        with open(root + ".csv", "rb") as fh, open(root + ".json", "rb") as side:
            return fh.read() + side.read()


# ============================================================================
# eigen-cache: the eigensolver and its disk cache, in process
# ============================================================================


class EigenCache(Workload):
    """One `solve_modes_cached` per operation, from an empty cache each pass.

    12 keys (profile, k, N); each is requested as a miss, then twice as a
    hit, and 4 keys are then asked for more modes than their slot holds (a
    miss that rewrites the slot) and hit once more: 16 misses, 28 hits.
    Work per request, N x count / 4096, sits at 12 even levels over [30, 75]. A hit
    costs about a quarter of a miss, so the median is hit rank 22 of 28 and
    the tail (10 beyond) is miss rank 6 of 16.

    k stays in [20, 100]: at N = 4096 the solver meets the 1e-6 sphere
    eigenvalue oracle there for every mode requested, while for k <= 12 the
    error of modes past index ~35 grows beyond it (README.md, "Findings").
    """

    N_KEYS = 12

    def __init__(self, seed: int, workdir: str):
        from qcilab import eigensolve, geometry

        self.eig = eigensolve
        self.cache = os.path.join(workdir, "cache")
        self.warm_cache = os.path.join(workdir, "warmup-cache")
        rng = np.random.default_rng(seed)
        self.profiles = _profiles(geometry, rng)

        # cost is fixed by a key's rank r: work at the middle of stratum r,
        # N cycling through the sizes, every third key upgraded
        sizes = (4096, 8192, 16384)
        ks = rng.choice(np.arange(20, 101), size=self.N_KEYS, replace=False)
        queues = []
        for r in range(self.N_KEYS):
            N = sizes[r % 3]
            work = 30 + 45 * (r + 0.5) / self.N_KEYS
            count = int(round(work * 4096 / N))
            base = dict(profile=("sphere", "perturbed")[(r // 3) % 2], k=int(ks[r]), N=N, key=r)
            seq = [Op(0, "miss", dict(base, count=count, hit=False))]
            for share in (1.0, 0.6):
                seq.append(Op(0, "hit", dict(base, count=int(round(share * count)), hit=True)))
            if r % 3 == 1:
                more = int(math.ceil(count * 1.3))
                seq.append(Op(0, "miss", dict(base, count=more, hit=False)))
                seq.append(Op(0, "hit", dict(base, count=int(round(1.15 * count)), hit=True)))
            queues.append(seq)
        # interleave the keys in a seeded order, keeping each key's own order
        ops = []
        while any(queues):
            live = [q for q in queues if q]
            ops.append(live[int(rng.integers(len(live)))].pop(0))
        for i, op in enumerate(ops):
            op.index = i
        self.ops = ops
        self.written: dict[int, list[bytes]] = {}

    def warmup(self):
        self.eig.solve_modes_cached(self.profiles["sphere"], 20, 10, 4096, self.warm_cache)
        shutil.rmtree(self.warm_cache, ignore_errors=True)

    def begin_pass(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        os.makedirs(self.cache)
        self.written.clear()

    def call(self, op: Op):
        p = op.params
        return self.eig.solve_modes_cached(self.profiles[p["profile"]], p["k"], p["count"], p["N"], self.cache)

    @staticmethod
    def _mode_digests(modes) -> list[bytes]:
        return [
            hashlib.blake2b(np.float64(m.eigenvalue).tobytes() + m.radial_values.tobytes()).digest()
            for m in modes
        ]

    def check(self, op: Op, out):
        modes, hit = out
        p = op.params
        if hit != p["hit"]:
            return f"cache {'hit' if hit else 'miss'}, expected {'hit' if p['hit'] else 'miss'}"
        if len(modes) != p["count"]:
            return f"{len(modes)} modes, asked for {p['count']}"
        digests = self._mode_digests(modes)
        if hit:
            if digests != self.written[p["key"]][: p["count"]]:
                return "hit returned values other than those its miss wrote"
        else:
            self.written[p["key"]] = digests
        if p["profile"] == "sphere":
            for i, m in enumerate(modes):
                l = p["k"] + i
                if abs(m.eigenvalue - l * (l + 1)) > 1e-6 * l * (l + 1):
                    return f"sphere eigenvalue {m.eigenvalue} vs l(l+1) = {l * (l + 1)}"
        return None

    def digest(self, op: Op, out) -> bytes:
        return b"".join(self._mode_digests(out[0]))

    def finish(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        return [], {}


# ============================================================================
# cli-batch: one `qcilab` process per operation
# ============================================================================

_FLOAT = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)"


def cli_configs(seed: int) -> list[tuple[str, str, dict, int]]:
    """(class, subcommand, config, expected exit code) for the cli-batch list.

    48 operations: admissible 18 (verdicts giving exit 0 and 3, two empty
    bands giving 4), integrate 8, sweep 8 (two with a two-row fit giving 5),
    plotdata 6, eigen 6 (all cache hits), and 2 configs that break the
    schema (exit 2). Compute is at most tens of ms against ~0.4 s of
    interpreter start and import, so every class costs about the same.
    """
    rng = np.random.default_rng(seed)
    sphere = {"kind": "sphere"}
    out = []
    for i in range(18):
        E1 = float(rng.uniform(0.8, 1.25))
        grid = {"grid": [128, 128]}
        if i < 2:
            cfg = {"profile": sphere, "geodesic": {"kind": "longitude", "t_range": [0.3, 0.8]},
                   "energies": {"E1": E1, "E2": 5.0}, "admissibility": grid}
            out.append(("admissible", "admissible", cfg, 4))
        elif i % 2:
            alpha = float(rng.uniform(0.0, 2.0 * math.pi))
            cfg = {"profile": sphere,
                   "geodesic": {"kind": "equator-latitude", "phi_range": [alpha, alpha + float(rng.uniform(0.5, 2.0))]},
                   "energies": {"E1": E1, "E2": float(rng.uniform(-0.3, 0.3))}, "admissibility": grid}
            out.append(("admissible", "admissible", cfg, 3))
        else:
            a, b = _offbump_range(rng, 0.0)
            cfg = {"profile": sphere,
                   "geodesic": {"kind": "longitude", "t_range": [a, b], "phi0": float(rng.uniform(0.0, 6.0))},
                   "energies": {"E1": E1, "E2": float(rng.uniform(0.3, 0.5))}, "admissibility": grid}
            out.append(("admissible", "admissible", cfg, 0))
    for _ in range(8):
        l = int(rng.integers(100, 400))
        a = float(rng.uniform(0.05, 0.3))
        cfg = {"profile": sphere, "geodesic": {"kind": "longitude", "t_range": [a, a + float(rng.uniform(0.3, 0.5))]},
               "integrate": {"l": l, "k": int(l * rng.uniform(0.3, 0.7))}}
        out.append(("integrate", "integrate", cfg, 0))
    for i in range(8):
        kmax = int(rng.integers(150, 250))
        ks = [kmax // 4, kmax // 2, kmax]
        if i < 2:
            cfg = {"sweep": {"experiment": "transition-peak", "k_list": ks[1:]}}
            out.append(("sweep", "sweep", cfg, 5))
            continue
        experiment = ("tesseral-caustic", "transition-peak", "zonal-equator")[i % 3]
        if experiment == "zonal-equator":
            ks = [2 * (k // 2) for k in ks]
        out.append(("sweep", "sweep", {"sweep": {"experiment": experiment, "k_list": ks}}, 0))
    for _ in range(6):
        out.append(("plotdata", "plotdata", {}, 0))
    for _ in range(6):
        count = int(rng.integers(5, 21))
        out.append(("eigen", "eigen", {"profile": sphere, "eigen": dict(CLI_EIGEN_KEY, count=count)}, 0))
    for _ in range(2):
        cfg = {"profile": sphere, "geodesic": {"kind": "longitude", "t_range": [0.3, 0.8]},
               "energies": {"E1": 1.0, "E2": 0.5}, "admissibility": {"grid": [128, 128], "grdi": 1}}
        out.append(("bad-config", "admissible", cfg, 2))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


# criterion 1's admissible case, the seed-independent warm-up operation
CRITERION_1_CLI = {"profile": {"kind": "sphere"},
                   "geodesic": {"kind": "longitude", "t_range": [0.3, 0.8], "phi0": 0.0},
                   "energies": {"E1": 1.0, "E2": 0.5}}

# the report `plotdata` operations read, written during setup
CLI_REPORT_KS = [50, 100, 200, 400]

# the cache slot `eigen` operations hit; warmed with this count during setup
CLI_EIGEN_KEY = {"k": 10, "N": 4096}
CLI_EIGEN_WARM = 20


class CliBatch(Workload):
    """One `python -m qcilab.cli <subcommand>` child per operation."""

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        self.setup_dir = os.path.join(workdir, "setup")
        self.out = os.path.join(workdir, "out")
        self.report = os.path.join(self.setup_dir, "tesseral-caustic.csv")
        os.makedirs(self.setup_dir, exist_ok=True)
        self.ops = []
        for i, (cls, sub, cfg, code) in enumerate(cli_configs(seed)):
            if sub == "sweep":
                cfg = dict(cfg, output={"basename": f"op{i}"})
            path = os.path.join(workdir, f"op{i}.json")
            self._write(path, cfg)
            if sub == "plotdata":
                argv = ["plotdata", self.report]
            elif sub == "eigen":
                argv = ["eigen", "--config", path, "--out", self.setup_dir]
            else:
                argv = [sub, "--config", path, "--out", self.out]
            self.ops.append(Op(i, cls, dict(argv=argv, expect=code, count=cfg.get("eigen", {}).get("count"))))
        self.max_rss_kb = 0
        self.child_cpu_s: list[float] = []
        # the report `plotdata` reads and the cache slot `eigen` hits
        self._write(os.path.join(workdir, "setup-sweep.json"),
                    {"sweep": {"experiment": "tesseral-caustic", "k_list": CLI_REPORT_KS}})
        self._write(os.path.join(workdir, "setup-eigen.json"),
                    {"profile": {"kind": "sphere"}, "eigen": dict(CLI_EIGEN_KEY, count=CLI_EIGEN_WARM)})
        for argv in (["sweep", "--config", os.path.join(workdir, "setup-sweep.json"), "--out", self.setup_dir],
                     ["eigen", "--config", os.path.join(workdir, "setup-eigen.json"), "--out", self.setup_dir]):
            code = self.spawn(argv)[0]
            if code != 0:
                raise RuntimeError(f"setup `qcilab {argv[0]}` exited {code}")

    @staticmethod
    def _write(path, cfg):
        with open(path, "w") as fh:
            json.dump(cfg, fh)

    def spawn(self, argv):
        """Run one child; returns (exit code, stdout, stderr, cpu seconds)."""
        out_path, err_path = os.path.join(self.dir, "stdout"), os.path.join(self.dir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "qcilab.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.dir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            return proc.returncode, out.read(), err.read(), usage.ru_utime + usage.ru_stime

    def warmup(self):
        cfg = dict(CRITERION_1_CLI, admissibility={"grid": [128, 128]})
        path = os.path.join(self.dir, "warmup.json")
        self._write(path, cfg)
        self.spawn(["admissible", "--config", path])

    def begin_pass(self):
        # as in DecayLaws: sweeps write new files in every pass
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def call(self, op: Op):
        out = self.spawn(op.params["argv"])
        self.child_cpu_s.append(out[3])
        return out

    def check(self, op: Op, out):
        code, stdout, stderr, _ = out
        return check_cli_output(op, code, stdout.decode(), stderr.decode())

    def digest(self, op: Op, out) -> bytes:
        return bytes([out[0] & 0xFF]) + out[1]


def check_cli_output(op: Op, code: int, stdout: str, stderr: str):
    """Exit code per the 0/2/3/4/5 contract, and output that parses."""
    expect = op.params["expect"]
    if code != expect:
        return f"exit {code}, expected {expect}; stderr {stderr.strip()[-200:]!r}"
    if code in (2, 5):
        lines = stderr.strip().splitlines()
        return None if len(lines) == 1 and lines[0].startswith("error: ") else f"stderr {stderr!r}"
    sub = op.params["argv"][0]
    try:
        if sub == "admissible":
            verdict = json.loads(stdout)["verdict"]
            want = {0: "admissible", 3: "not-admissible", 4: "empty-band"}[code]
            if verdict != want:
                return f"verdict {verdict} with exit {code}"
        elif sub == "integrate":
            m = re.fullmatch(rf"re=({_FLOAT}) im=({_FLOAT}) abs=({_FLOAT}) err_est=({_FLOAT})\n", stdout)
            if m is None or not float(m.group(4)) <= 1e-8 * float(m.group(3)):
                return f"integrate output {stdout!r}"
        elif sub == "sweep":
            if re.fullmatch(rf"slope=({_FLOAT}) R2=({_FLOAT})\n", stdout) is None:
                return f"sweep output {stdout!r}"
        elif sub == "plotdata":
            rows = [line.split() for line in stdout.splitlines() if not line.startswith("#")]
            if len(rows) != len(CLI_REPORT_KS) or any(len(r) != 2 or not all(map(math.isfinite, map(float, r))) for r in rows):
                return f"plotdata output {stdout!r}"
        elif sub == "eigen":
            lines = stdout.splitlines()
            if lines[0] != "l_index lambda h" or len(lines) != op.params["count"] + 1:
                return f"eigen output {stdout[:200]!r}"
            k = CLI_EIGEN_KEY["k"]
            for i, line in enumerate(lines[1:]):
                idx, lam, _ = line.split()
                l = k + i
                if int(idx) != i or abs(float(lam) - l * (l + 1)) > 1e-6 * l * (l + 1):
                    return f"eigen row {line!r}"
    except (ValueError, KeyError, IndexError) as exc:
        return f"{sub} output does not parse: {exc}"
    return None


def make(name: str, seed: int, workdir: str):
    return {"verdicts": Verdicts, "decay-laws": DecayLaws, "eigen-cache": EigenCache,
            "cli-batch": CliBatch}[name](seed, workdir)


WORKLOADS = ("verdicts", "decay-laws", "eigen-cache", "cli-batch")
