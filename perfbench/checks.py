"""Correctness checks on the files one CLI call wrote.

Two kinds of check, both independent of the program's code:

* Golden: the sha256 of every output file, recorded per workload and seed in
  ``golden.json`` before any performance change. A perf change must keep
  the bytes, so any difference is a failed run.
* Content: CSV shape and header, the exact time column, finite values, and,
  on a prefix of the run, the states, energies and error norm recomputed by
  a plain-float RK4 and energy written here from the model equations. This
  covers seeds that have no recorded golden.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import DT, Workload, initial_states

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Canonical parameters of the neuron model (README, model docs).
CANONICAL = dict(
    a=1.0, b=3.0, c=1.0, d=0.99, xi=1.0, e=1.01, f=5.0128, g=0.0278, m=0.00215,
    s=3.966, h=1.605, n=0.0009, k=0.9573, r=3.0, l=1.619, p=-1.0,
)
I_PRE, I_POST, K_PAIR, K_LIST = 3.024, 0.85, 5.0, (0.0, 0.5, 1.0, 1.5, 2.0)
#: Steps re-integrated by the reference; all before adaptation (t = 100).
PREFIX_STEPS = 600
REL = 1e-9

HEADERS = {
    "pair": "t,x1,y1,z1,w1,x2,y2,z2,w2,I2,e_norm,H1,Hdot1,H2,Hdot2,avgH2_w10,avgHdot2_w5",
    "isolated": "t,x,y,z,w,H,Hdot",
    "sweep": "K,preH,preHdot,postH,postHdot,preSync,postSync",
}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hashes(workload: Workload, directory: Path) -> dict[str, str | None]:
    """sha256 of each expected output; None for a missing file."""
    return {
        name: sha256(directory / name) if (directory / name).is_file() else None
        for name in workload.outputs
    }


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def golden_problems(found: dict[str, str | None], expected: dict[str, str] | None) -> list[str]:
    """Differences between the hashes found and the recorded golden ones."""
    problems = [f"{name}: missing" for name, digest in found.items() if digest is None]
    if expected is not None:
        problems += [
            f"{name}: sha256 {found.get(name)} != golden {digest}"
            for name, digest in sorted(expected.items())
            if found.get(name) is not None and found.get(name) != digest
        ]
    return problems


# -- independent reference ------------------------------------------------


def _params(**override) -> dict:
    return {**CANONICAL, **override}


def _field(s, P, I):
    x, y, z, w = s
    return (
        P["a"] * y + P["b"] * x * x - P["c"] * x ** 3 - P["d"] * z + P["xi"] * I,
        P["e"] - P["f"] * x * x - y - P["g"] * w,
        P["m"] * (-z + P["s"] * (x + P["h"])),
        P["n"] * (-P["k"] * w + P["r"] * (y + P["l"])),
    )


def _energy(s, P, I):
    """(H, Hdot) with Hdot = grad H . dissipative field."""
    x, y, z, w = s
    a, d, g, p = P["a"], P["d"], P["g"], P["p"]
    C = P["m"] * P["s"] * d - g * P["n"] * P["r"]
    dams = d / (a * P["m"] * P["s"])
    H = (p / a) * ((2 / 3) * P["f"] * x ** 3 + (C / a) * x * x + a * y * y
                   + dams * C * z * z - 2 * d * y * z + 2 * g * x * w)
    grad = (P["f"] * x * x + (C / a) * x + g * w, a * y - d * z, dams * C * z - d * y, g * x)
    fd = (P["b"] * x * x - P["c"] * x ** 3 + P["xi"] * I, P["e"] - y,
          P["m"] * P["s"] * P["h"] - P["m"] * z, P["n"] * P["r"] * P["l"] - P["n"] * P["k"] * w)
    return H, (2 * p / a) * sum(gi * fi for gi, fi in zip(grad, fd))


def _rk4(f, s, dt):
    k1 = f(s)
    k2 = f([v + 0.5 * dt * k for v, k in zip(s, k1)])
    k3 = f([v + 0.5 * dt * k for v, k in zip(s, k2)])
    k4 = f([v + dt * k for v, k in zip(s, k3)])
    return [v + (dt / 6) * (a + 2 * (b + c) + d) for v, a, b, c, d in zip(s, k1, k2, k3, k4)]


def _reference_rows(workload: Workload, seed: int):
    """Expected (step, values) rows on the prefix, in CSV column order."""
    pre0, post0 = initial_states(seed)
    P1 = _params()
    if workload.command == "isolated":
        state = list(pre0)
        for i in range(PREFIX_STEPS + 1):
            if i % workload.record_every == 0:
                yield i, [*state, *_energy(state, P1, I_PRE)]
            state = _rk4(lambda s: _field(s, P1, I_PRE), state, DT)
        return
    P2 = _params(**{k[5:]: float(v) for k, v in workload.config if k.startswith("post.")})
    target = dict(workload.config).get("adapt_target", "I")
    q = I_POST if target == "I" else P2[target]

    def pair_field(s):
        d1 = _field(s[:4], P1, I_PRE)
        d2 = _field(s[4:], P2, I_POST)
        return (*d1, d2[0] + K_PAIR * (s[0] - s[4]), *d2[1:])

    state = [*pre0, *post0]
    for i in range(PREFIX_STEPS + 1):
        if i % workload.record_every == 0:
            pre, post = state[:4], state[4:]
            e_norm = math.sqrt(sum((b - a) ** 2 for a, b in zip(pre, post)))
            yield i, [*pre, *post, q, e_norm, *_energy(pre, P1, I_PRE), *_energy(post, P2, I_POST)]
        state = _rk4(pair_field, state, DT)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def _finite(cell: str) -> bool:
    """A finite number; False for ``nan``, ``inf`` and markers such as
    ``ERR:divergence`` that the sweep writes for a diverged K."""
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


# -- content checks ---------------------------------------------------------


def content_problems(workload: Workload, seed: int, directory: Path) -> list[str]:
    """Shape, time grid, finiteness and the reference prefix of every output."""
    problems = []
    for name in workload.outputs:
        path = directory / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif name.endswith(".svg"):
            text = path.read_text(encoding="utf-8")
            if not (text.startswith("<svg") or text.startswith("<?xml")) or not text.rstrip().endswith("</svg>"):
                problems.append(f"{name}: not a complete SVG document")
        else:
            problems += [f"{name}: {p}" for p in _csv_problems(workload, seed, path)]
    return problems


def _csv_problems(workload: Workload, seed: int, path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        return ["does not end with a newline"]
    header, rows = lines[0], [line.split(",") for line in lines[1:-1]]
    if header != HEADERS[workload.command]:
        return [f"header {header!r}"]
    width = header.count(",") + 1
    if any(len(row) != width for row in rows):
        return [f"a row does not have {width} fields"]
    if workload.command == "sweep":
        return _sweep_problems(rows)

    n_steps = round(workload.t_end / DT)
    expected_rows = n_steps // workload.record_every + 1
    if len(rows) != expected_rows:
        return [f"{len(rows)} rows, expected {expected_rows}"]
    for j, row in enumerate(rows):
        if row[0] != repr(j * workload.record_every * DT):
            return [f"row {j}: t = {row[0]}"]
    numeric = 15 if workload.command == "pair" else width
    for j, row in enumerate(rows):
        if not all(_finite(v) for v in row[:numeric]):
            return [f"row {j}: non-finite value"]
    problems = []
    if workload.command == "pair":
        problems += _average_problems(rows, workload.record_every * DT)
    for i, expected in _reference_rows(workload, seed):
        got = [float(v) for v in rows[i // workload.record_every][1:1 + len(expected)]]
        if not all(_close(g, e) for g, e in zip(got, expected)):
            problems.append(f"t={i * DT:g}: {got} differ from reference {expected}")
            break
    return problems


def _average_problems(rows: list[list[str]], spacing: float) -> list[str]:
    """Trailing averages: empty until the window fills, then the window mean."""
    problems = []
    for column, source, window in ((15, 13, 10.0), (16, 14, 5.0)):
        k = math.ceil(window / spacing - 1e-9)
        cells = [row[column] for row in rows]
        if any(cells[: k - 1]) or not all(cells[k - 1:]):
            problems.append(f"column {column}: empty cells do not match a {window:g} window")
            continue
        if len(cells) < k:
            continue
        mean = math.fsum(float(row[source]) for row in rows[-k:]) / k
        if not _finite(cells[-1]) or not math.isclose(float(cells[-1]), mean, rel_tol=1e-7, abs_tol=1e-9):
            problems.append(f"column {column}: last average {cells[-1]} != {mean!r}")
    return problems


def _sweep_problems(rows: list[list[str]]) -> list[str]:
    for row in rows:
        if not all(_finite(v) for v in row):
            return [f"K={row[0]}: {row[1:]}"]
    if [float(row[0]) for row in rows] != list(K_LIST):
        return [f"K column {[row[0] for row in rows]}"]
    return []
