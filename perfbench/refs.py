"""High-precision flow references for the benchmark.

Every reference is exp(t M) of the homogeneous matrix M = [[C, B], [0, 0]],
computed by ``mpmath.expm`` at 50 significant digits from the exact binary
values of t, C and B.  The package never computes them.  They are cached in
``references.json`` next to this file, because one n = 20 exponential takes
most of a second; remake the cache with

    python3 perfbench/refs.py

The inputs themselves (the orbit fields and the flow-ensemble pool) are
drawn here from a fixed generator seed and stored in the cache, so a run
reads exactly the fields its references were made for.  A run's own seed
only chooses start points, which are applied to the cached matrices at
50 digits by ``apply`` / ``propagate`` outside every timed region.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

PATH = Path(__file__).with_name("references.json")
DPS = 50
STORED_DIGITS = 22
POOL_SEED = 20060201

# Orbit-grid fields: one per flow form, sampled on t_k = k h.  h is a power
# of two, so every grid time and every sample time is exact in binary and
# the CLI's np.linspace grid reproduces it bit for bit.
ORBIT_SPECS = (
    # name, form it exercises, n, steps, h, sample_every
    ("planar", "augmented-exponential", 2, 2000, 2.0**-8, 50),
    ("rotation-6", "exponential", 6, 10000, 2.0**-9, 250),
    ("shifted-20", "shifted-exponential", 20, 2000, 2.0**-8, 50),
    ("translation-20", "translation", 20, 10000, 2.0**-6, 250),
)

# Flow-ensemble pool: field kinds cycled over n = 1..20, three passes.
POOL_KINDS = ("full-rank", "rank-deficient-in-range", "rank-deficient-off-range",
              "linear", "constant")
POOL_PASSES = 3

# Fixed operations that fail at the time the benchmark was written.
FAULT_FLOWS = {
    "tiny-scale-classified-constant": ([[1e-15]], [1e-15], 1e15, [0.0]),
    "near-singular-shifted-form": ([[1.0, 0.0], [0.0, 1e-9]], [1.0, 1.0], 1.0, [0.0, 0.0]),
}


def homogeneous_exp(c, b, t) -> mpmath.matrix:
    """exp(t [[C, B], [0, 0]]) at DPS digits from the exact float inputs."""
    with mpmath.workdps(DPS):
        c = np.asarray(c, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
        n = b.size
        tm = mpmath.mpf(float(t))
        m = mpmath.zeros(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                m[i, j] = tm * mpmath.mpf(float(c[i, j]))
            m[i, n] = tm * mpmath.mpf(float(b[i]))
        return mpmath.expm(m)


def _encode(e: mpmath.matrix) -> list[list[str]]:
    return [[mpmath.nstr(e[i, j], STORED_DIGITS) for j in range(e.cols)]
            for i in range(e.rows)]


def decode(rows) -> mpmath.matrix:
    with mpmath.workdps(DPS):
        return mpmath.matrix([[mpmath.mpf(v) for v in row] for row in rows])


def apply(e: mpmath.matrix, x) -> tuple[np.ndarray, float]:
    """First n entries of E (x, 1), rounded once to float, and the 2-norm of
    |E| |(x, 1)| over those rows: the size of the terms the value sums, the
    scale against which its rounding error is measured."""
    with mpmath.workdps(DPS):
        v = mpmath.matrix([mpmath.mpf(float(xi)) for xi in x] + [mpmath.mpf(1)])
        out = e * v
        value = np.array([float(out[i]) for i in range(out.rows - 1)])
    magnitude = np.abs(np.array(e.tolist(), dtype=float)[:-1]) @ np.abs(np.append(x, 1.0))
    return value, float(np.linalg.norm(magnitude))


def propagate(e: mpmath.matrix, x, count: int) -> np.ndarray:
    """Rows k = 0..count-1 hold the first n entries of E^k (x, 1)."""
    with mpmath.workdps(DPS):
        v = mpmath.matrix([mpmath.mpf(float(xi)) for xi in x] + [mpmath.mpf(1)])
        rows = []
        for _ in range(count):
            rows.append([float(v[i]) for i in range(v.rows - 1)])
            v = e * v
        return np.array(rows)


def load() -> dict:
    with open(PATH) as handle:
        return json.load(handle)


def _dyadic(rng, shape) -> np.ndarray:
    """Multiples of 1/8 in [-1, 1]: products and short sums stay exact."""
    return rng.integers(-8, 9, size=shape) / 8.0


def _orbit_field(rng, name: str, n: int):
    if name == "planar":
        # The paper's worked example X = d/du + 2u d/dv.
        return np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 0.0])
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    if name == "rotation-6":
        return 0.5 * (a - a.T) - 0.05 * np.eye(n), np.zeros(n)
    if name == "shifted-20":
        return 0.3 * a - 0.2 * np.eye(n), rng.uniform(-1.0, 1.0, size=n)
    return np.zeros((n, n)), rng.uniform(-1.0, 1.0, size=n)


def _pool_field(rng, kind: str, n: int):
    """One ensemble field.  Rank-deficient matrices are exact products of
    dyadic factors, so the rank deficiency and the range membership of B
    hold in binary, not just up to rounding."""
    if kind in ("rank-deficient-in-range", "rank-deficient-off-range") and n == 1:
        kind = "full-rank"
    if kind == "full-rank":
        return rng.uniform(-1.0, 1.0, size=(n, n)) / np.sqrt(n), rng.uniform(-1.0, 1.0, size=n)
    if kind == "linear":
        return rng.uniform(-1.0, 1.0, size=(n, n)) / np.sqrt(n), np.zeros(n)
    if kind == "constant":
        return np.zeros((n, n)), rng.uniform(-1.0, 1.0, size=n)
    r = max(1, n - 1 - int(rng.integers(0, max(1, n // 2))))
    left = _dyadic(rng, (n, r))
    right = _dyadic(rng, (r, n))
    scale = 2.0 ** -round(np.log2(max(1.0, np.sqrt(r * n) / 3.0)))
    c = (left @ right) * scale
    b = left @ _dyadic(rng, r)
    if kind == "rank-deficient-off-range":
        b = b + rng.uniform(-1.0, 1.0, size=n)
    return c, b


def make() -> dict:
    rng = np.random.default_rng(POOL_SEED)
    orbits = []
    for name, form, n, steps, h, every in ORBIT_SPECS:
        c, b = _orbit_field(rng, name, n)
        orbits.append({
            "name": name, "form": form, "C": c.tolist(), "B": b.tolist(),
            "steps": steps, "h": h, "sample_every": every,
            "E_sample": _encode(homogeneous_exp(c, b, every * h)),
        })
    pool = []
    for p in range(POOL_PASSES):
        for n in range(1, 21):
            kind = POOL_KINDS[(n + p) % len(POOL_KINDS)]
            c, b = _pool_field(rng, kind, n)
            t = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
            pool.append({"kind": kind, "C": c.tolist(), "B": b.tolist(), "t": t,
                         "E": _encode(homogeneous_exp(c, b, t))})
    faults = {
        name: {"C": c, "B": b, "t": t, "x": x, "E": _encode(homogeneous_exp(c, b, t))}
        for name, (c, b, t, x) in FAULT_FLOWS.items()
    }
    return {"dps": DPS, "stored_digits": STORED_DIGITS, "pool_seed": POOL_SEED,
            "orbit": orbits, "pool": pool, "faults": faults}


if __name__ == "__main__":
    data = make()
    with open(PATH, "w") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {PATH.name}: {len(data['orbit'])} orbit fields, "
          f"{len(data['pool'])} pool fields, {len(data['faults'])} fault references")
