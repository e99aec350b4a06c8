"""The four benchmark workloads: scenario generators, CLI calls and checks.

Each workload writes its scenario files from the seed, names the
``maxplus`` CLI calls that make one pass, lists the artifacts a pass
writes, and checks one pass's outputs against closed-form references.
Nothing here imports ``maxplus``: the references are written out
independently so that they stay oracles for the program.

``small=True`` shrinks every workload for the harness smoke test; the
benchmark itself always runs the full sizes.
"""

import json
import math
import re
from dataclasses import dataclass

import numpy as np

# Merton market of criterion 8 and of scenarios/merton_tailrate.json
R, ALPHA, SIGMA = 0.05, 0.10, 0.20
EXCESS = ALPHA - R


@dataclass
class CheckResult:
    errors: list    # empty when the pass is correct
    ref_err: float  # deviation from the closed-form reference (see README)
    pinned_frac: float = None  # pinned Y-nodes / |Y| (ldp workloads only)
    uncovered_frac: float = None  # uncovered target nodes / target nodes


def grid_coords(lo, hi, n):
    """Node coordinates as the scenario format defines them: lo + i * h."""
    h = (hi - lo) / (n - 1)
    return lo + np.arange(n, dtype=np.float64) * h


def _num(v):
    if v == "+inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def _nums(items):
    return np.array([_num(v) for v in items], dtype=np.float64)


def _line(lo, hi, n):
    return {"dim": 1, "lo": lo, "hi": hi, "n": n}


def _convex_noisy(rng, coords, noise):
    """A random convex quadratic plus seeded noise, sampled at coords.

    ``coords`` has one column per dimension (or is 1-D).  The noise makes
    the inputs generic floats: a noise-free quadratic would hide the
    exact-equality covering defect described in README.md.
    """
    c = np.atleast_2d(coords.T).T
    curv = rng.uniform(0.5, 1.5, c.shape[1])
    shift = rng.uniform(-0.5, 0.5, c.shape[1])
    vals = ((c - shift) ** 2 * curv).sum(axis=1) / 2.0
    return vals + noise * rng.standard_normal(vals.shape[0])


def _write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


class Workload:
    name = ""
    seeded = False
    artifacts = ()

    def write_inputs(self, in_dir, seed, small=False):
        """Write the scenario files; return the CLI calls of one pass.

        Each call is a (subcommand, scenario file name) pair.
        """
        raise NotImplementedError

    def check(self, out_dir, stdout):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# gauss-ldp
# ---------------------------------------------------------------------------

class GaussLdp(Workload):
    name = "gauss-ldp"
    artifacts = ("gauss_ldp.json", "gauss_ldp.csv")

    def write_inputs(self, in_dir, seed, small=False):
        self.n = 101 if small else 1601
        _write_json(in_dir / "gauss_ldp.json", {
            "kind": "ldp",
            "x_grid": _line(-2.0, 2.0, self.n),
            "y_grid": _line(-2.0, 2.0, self.n),
            "kernel": {"type": "bilinear"},
            "sequence": {"type": "gaussian_mean", "n_list": [64, 128, 256, 512]},
            "mode": "limit-asserted",
            "out_json": "gauss_ldp.json",
            "out_csv": "gauss_ldp.csv",
        })
        return [("ldp", "gauss_ldp.json")]

    def check(self, out_dir, stdout):
        out = json.loads((out_dir / "gauss_ldp.json").read_text())
        errors = []
        if out["verdict"] != "FULL_LDP":
            errors.append(f"verdict {out['verdict']}, expected FULL_LDP")
        x = grid_coords(-2.0, 2.0, self.n)
        g = _nums(out["log_moment"]["values"])
        if not np.array_equal(g, 0.5 * x * x):
            errors.append("log-moment differs from x^2/2")
        rate = _nums(out["rate_lower"]["values"])
        pinned = np.asarray(out["pinned"], dtype=np.int64)
        ref_err = (
            float(np.abs(rate[pinned] - 0.5 * x[pinned] ** 2).max())
            if pinned.size else math.inf
        )
        return CheckResult(errors, ref_err, pinned_frac=pinned.size / self.n)


# ---------------------------------------------------------------------------
# merton-family
# ---------------------------------------------------------------------------

def growth_value(x):
    """Closed-form growth value x (r + excess^2 / (2 sigma^2 (1 - x))), 0 <= x < 1."""
    return x * (R + EXCESS**2 / (2.0 * SIGMA**2 * (1.0 - x)))


class MertonFamily(Workload):
    name = "merton-family"
    artifacts = ("merton_family.json", "merton_family.csv")

    def write_inputs(self, in_dir, seed, small=False):
        self.nx = 25 if small else 121
        self.ny = 21 if small else 101
        self.xi_max = 40.0
        self.xi_step = 1.0 if small else 0.2
        _write_json(in_dir / "merton_family.json", {
            "kind": "ldp",
            "x_grid": _line(0.0, 1.2, self.nx),
            "y_grid": _line(0.0, 2.0, self.ny),
            "kernel": {"type": "bilinear"},
            "sequence": {
                "type": "merton",
                "params": {"r": R, "alpha": ALPHA, "sigma": SIGMA},
                "horizons": [400, 800, 1600, 3200],
                "xi_min": 0.0, "xi_max": self.xi_max, "xi_step": self.xi_step,
                "truncate_at": 0.0,
            },
            "closed_below": True,
            "x_closed_below": True,
            "sup_edge_to_inf": True,
            "out_json": "merton_family.json",
            "out_csv": "merton_family.csv",
        })
        return [("ldp", "merton_family.json")]

    def check(self, out_dir, stdout):
        out = json.loads((out_dir / "merton_family.json").read_text())
        errors = []
        if out["verdict"] != "BOUNDS_ONLY":
            errors.append(f"verdict {out['verdict']}, expected BOUNDS_ONLY")
        x = grid_coords(0.0, 1.2, self.nx)
        g = _nums(out["log_moment"]["values"])
        # the sup over the family is finite where the optimal fraction
        # excess / (sigma^2 (1 - x)) lies inside the family's xi range;
        # sup_edge_to_inf reports a sup at the range's edge as +inf
        inside = (x >= 0.0) & (x < 1.0)
        xi_opt = np.where(inside, EXCESS / (SIGMA**2 * (1.0 - np.where(inside, x, 0.0))), 0.0)
        finite_ref = inside & (xi_opt < self.xi_max)
        if not np.array_equal(np.isfinite(g), finite_ref):
            errors.append("finite/+inf pattern of g differs from the closed form")
        if np.isneginf(g).any():
            errors.append("g takes -inf")
        both = finite_ref & np.isfinite(g)
        ref_err = float(np.abs(g[both] - growth_value(x[both])).max()) if both.any() else math.inf
        pinned = out["pinned"]
        return CheckResult(errors, ref_err, pinned_frac=len(pinned) / self.ny)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

class Transforms(Workload):
    name = "transforms"
    seeded = True
    artifacts = ("covering.json", "conj1d_fast.json", "conj1d_dense.json", "conj2d.json")

    def write_inputs(self, in_dir, seed, small=False):
        rng = np.random.default_rng([seed, 1])
        n_tab = 64 if small else 512
        n_1d = 256 if small else 8192
        n_2d = 12 if small else 96
        self.n_tab = n_tab

        # banded table b = x*y on |x - y| <= 1, -inf outside; g = B f
        xt = grid_coords(-2.0, 2.0, n_tab)
        table = np.multiply.outer(xt, xt)
        table[np.abs(np.subtract.outer(xt, xt)) > 1.0] = -np.inf
        f = _convex_noisy(rng, xt, 1e-3)
        g = (table + (-f)[None, :]).max(axis=1)
        rows = [[v if np.isfinite(v) else "-inf" for v in row.tolist()] for row in table]
        _write_json(in_dir / "covering.json", {
            "kind": "covering",
            "x_grid": _line(-2.0, 2.0, n_tab),
            "y_grid": _line(-2.0, 2.0, n_tab),
            "kernel": {"type": "table", "rows": rows},
            "g": {"grid": _line(-2.0, 2.0, n_tab), "values": g.tolist()},
            "out": "covering.json",
        })

        # 1-D bilinear conjugate, once fast and once dense
        y1 = grid_coords(-2.0, 2.0, n_1d)
        self.f1 = _convex_noisy(rng, y1, 1e-3)
        self.y1 = y1
        self.x1 = grid_coords(-3.0, 3.0, n_1d)
        for name, fast in (("conj1d_fast.json", True), ("conj1d_dense.json", False)):
            _write_json(in_dir / name, {
                "kind": "conjugate",
                "x_grid": _line(-3.0, 3.0, n_1d),
                "y_grid": _line(-2.0, 2.0, n_1d),
                "kernel": {"type": "bilinear"},
                "f": {"grid": _line(-2.0, 2.0, n_1d), "values": self.f1.tolist()},
                "fast": fast,
                "out": name,
            })

        # 2-D bilinear conjugate
        a = grid_coords(-1.0, 1.0, n_2d)
        g0, g1 = np.meshgrid(a, a, indexing="ij")
        y2 = np.stack([g0.ravel(), g1.ravel()], axis=1)
        self.f2 = _convex_noisy(rng, y2, 1e-3)
        self.y2 = y2
        box = {"dim": 2, "lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [n_2d, n_2d]}
        _write_json(in_dir / "conj2d.json", {
            "kind": "conjugate",
            "x_grid": box,
            "y_grid": box,
            "kernel": {"type": "bilinear"},
            "f": {"grid": box, "values": self.f2.tolist()},
            "out": "conj2d.json",
        })
        pick = np.random.default_rng([seed, 2])
        self.sample_1d = pick.choice(n_1d, 32, replace=False)
        self.sample_2d = pick.choice(n_2d * n_2d, 32, replace=False)
        return [
            ("covering", "covering.json"),
            ("conjugate", "conj1d_fast.json"),
            ("conjugate", "conj1d_dense.json"),
            ("conjugate", "conj2d.json"),
        ]

    def check(self, out_dir, stdout):
        errors = []
        raw_fast = (out_dir / "conj1d_fast.json").read_bytes()
        raw_dense = (out_dir / "conj1d_dense.json").read_bytes()
        if raw_fast != raw_dense:
            errors.append("fast and dense 1-D conjugates are not byte-identical")
        fast = _nums(json.loads(raw_fast)["values"])
        dense = _nums(json.loads(raw_dense)["values"])
        gap = float(np.abs(fast - dense).max())

        # sampled dense oracle for both conjugates, same float expression
        idx = self.sample_1d
        ref1 = (np.multiply.outer(self.x1[idx], self.y1) + (-self.f1)[None, :]).max(axis=1)
        if not np.array_equal(dense[idx], ref1):
            errors.append("1-D conjugate differs from the dense oracle")
        c2 = _nums(json.loads((out_dir / "conj2d.json").read_text())["values"])
        x2 = self.y2[self.sample_2d]
        ref2 = (
            np.multiply.outer(x2[:, 0], self.y2[:, 0])
            + np.multiply.outer(x2[:, 1], self.y2[:, 1])
            + (-self.f2)[None, :]
        ).max(axis=1)
        if not np.array_equal(c2[self.sample_2d], ref2):
            errors.append("2-D conjugate differs from the dense oracle")

        # no verdict is asserted on the covering: see README, "Known defect"
        cov = json.loads((out_dir / "covering.json").read_text())
        eq_residual = _num(cov["certificate"]["eq_residual"])
        if not eq_residual <= 1e-9:
            errors.append(f"pre-image candidate residual {eq_residual!r} exceeds 1e-9")
        uncovered = len(cov["uncovered_nodes"]) / self.n_tab
        return CheckResult(errors, max(gap, eq_residual), uncovered_frac=uncovered)


# ---------------------------------------------------------------------------
# merton-tailrate
# ---------------------------------------------------------------------------

def growth_conjugate(y):
    """Closed-form rate (sqrt(y - r) - excess / (sqrt(2) sigma))^2 above the threshold."""
    threshold = R + EXCESS**2 / (2.0 * SIGMA**2)
    if y < threshold:
        return 0.0
    return (math.sqrt(y - R) - EXCESS / (math.sqrt(2.0) * SIGMA)) ** 2


_TARGET_RE = re.compile(r"target=(\S+) oracle_rate=(\S+)")


class MertonTailrate(Workload):
    name = "merton-tailrate"
    seeded = True
    artifacts = ("merton_tailrate.csv",)
    c = 0.12

    def write_inputs(self, in_dir, seed, small=False):
        # a copy of scenarios/merton_tailrate.json with the benchmark's seed
        _write_json(in_dir / "merton_tailrate.json", {
            "kind": "merton",
            "r": R, "alpha": ALPHA, "sigma": SIGMA, "w0": 1.0,
            "c": self.c,
            "T": [25, 50] if small else [25, 50, 100, 200],
            "paths": 2000 if small else 100000,
            "seed": int(seed),
            "xi_min": 0.05, "xi_max": 6.0, "xi_step": 0.05,
            "out": "merton_tailrate.csv",
        })
        return [("merton", "merton_tailrate.json")]

    def check(self, out_dir, stdout):
        errors = []
        gstar = growth_conjugate(self.c)
        m = _TARGET_RE.search(stdout)
        if m is None:
            errors.append("no target/oracle_rate line on stdout")
        else:
            target, oracle = float(m.group(1)), float(m.group(2))
            if abs(target + gstar) > 1e-5:
                errors.append(f"target {target!r} != -g*(c) = {-gstar!r}")
            if abs(oracle - gstar) > 1e-5:
                errors.append(f"oracle_rate {oracle!r} != g*(c) = {gstar!r}")
        lines = (out_dir / "merton_tailrate.csv").read_text().splitlines()
        conclusive = outside = 0
        for line in lines[1:]:
            _, _, exact, mc, se, _, _ = line.split(",")
            if mc:
                conclusive += 1
                outside += abs(float(mc) - float(exact)) > 3.0 * float(se)
        if conclusive == 0:
            errors.append("no conclusive Monte Carlo cell")
        return CheckResult(errors, outside / conclusive if conclusive else math.inf)


WORKLOADS = {w.name: w for w in (GaussLdp, MertonFamily, Transforms, MertonTailrate)}
