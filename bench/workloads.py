"""Seeded inputs, program calls and oracle checks of the four workloads.

Every workload is an endless stream of ``Op`` values made from the seed
alone.  An op's ``call`` is the only part the benchmark times; inputs are
built and reference answers computed before it, and ``check`` judges the
result after it, with the independent oracles of ``oracles.py``.  Library
functions are looked up on the package at call time, so the traced run
sees every call through its wrappers.

Op kinds come in fixed blocks that the seed shuffles, so every run has the
same mix of kinds and the seed varies the geometry only.  The timed streams
hold inputs of O(1) size near the origin, on which every op is expected to
pass.  ``stress_ops`` gives a fixed, seeded set of ``stressed`` inputs for
``solve`` and ``gasket``: translated, scaled or shrunk inputs that the
library should handle but, at the time this benchmark was written, does
not always (ROADMAP items 1 and 2).  They run untimed, apart from the
measured loop, and their fail ratio is reported on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

import oracles as orc
from oracles import Degenerate

WORKLOADS = ("solve", "verify", "cli_jobs", "gasket")

#: Per-op time limit of a gasket job: this much per expected circle, at least 1 s.
#: About four times the seed implementation's cost per circle on a 2-core x86-64 host.
GASKET_SECONDS_PER_CIRCLE = 4e-3
#: Circle counts of the ordinary gasket jobs, in the order they run; K is solved per
#: triple to give that count.  Three in five jobs hold 800 circles, so the median op
#: and the mean cost per op do not hinge on how many jobs fit in a run, while the
#: 500- and 1100-circle jobs take K towards both ends of its range.
GASKET_LADDER = (800, 500, 800, 1100, 800)
GASKET_K_RANGE = (100.0, 300.0)
#: Circle count of the shrunken gasket job.
GASKET_SCALED_COUNT = 300
#: Smallest |radius| of an angle-row root in the timed streams.  A circle much
#: smaller than its distance from the origin is stressed input: when this
#: benchmark was written, one of radius 1e-4 a few units out decoded as a point
#: (ROADMAP item 1).
ANGLE_MIN_ROOT_RADIUS = 0.05


class Verdict(NamedTuple):
    ok: bool
    error: float
    reason: str
    circles: int = 0  # circles a gasket job emitted


class Op(NamedTuple):
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    limit: Optional[float] = None  # seconds
    outfile: Optional[str] = None  # file the op writes besides stdout


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def _verdict(triple, circles: int = 0) -> Verdict:
    ok, error, reason = triple
    return Verdict(ok, error, reason, circles)


def run_cli(cli, argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# raw generators (oracle shapes, no library)


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _triple(rng: random.Random, lo=0.3, hi=3.0, spread=3.0) -> list:
    """Tangent triple whose outer completion is clearly not a line."""
    while True:
        radii = [_logu(rng, lo, hi) for _ in range(3)]
        b = [1.0 / r for r in radii]
        outer = sum(b) - 2.0 * math.sqrt(b[0] * b[1] + b[1] * b[2] + b[2] * b[0])
        if abs(outer) > 1e-2 * sum(b):
            center = (rng.uniform(-spread, spread), rng.uniform(-spread, spread))
            return orc.tangent_triple(radii, center, rng.uniform(0.0, 2.0 * math.pi))


def _disjoint_triple(rng: random.Random) -> tuple:
    """Three mutually external disjoint circles and their eight Apollonius circles."""
    while True:
        radii = [rng.uniform(0.5, 1.5) for _ in range(3)]
        pts = [np.array([rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)]) for _ in range(3)]
        if any(np.linalg.norm(pts[i] - pts[j]) < 1.3 * (radii[i] + radii[j])
               for i, j in ((0, 1), (0, 2), (1, 2))):
            continue
        knowns = [orc.sphere(p, r) for p, r in zip(pts, radii)]
        try:
            expected = orc.apollonius_expected(knowns)
        except Degenerate:
            continue
        if len(expected) == 8:
            return knowns, expected


def _angle_problem(rng: random.Random) -> tuple:
    """Three circles meeting a hidden circle at random angles, and the reference roots."""
    while True:
        hidden_c = np.array([rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)])
        r = _logu(rng, 0.5, 2.0)
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        knowns, targets = [], []
        for i in range(3):
            ri = r * _logu(rng, 0.5, 2.0)
            t = math.cos(math.radians(rng.uniform(20.0, 160.0)))
            d = math.sqrt(r * r + ri * ri + 2.0 * r * ri * t)
            th = theta0 + 2.0 * math.pi * i / 3.0 + rng.uniform(-0.5, 0.5)
            knowns.append(orc.sphere(hidden_c + d * np.array([math.cos(th), math.sin(th)]), ri))
            targets.append(t)
        try:
            expected = orc.complete(knowns, targets)
        except Degenerate:
            continue
        if len(expected) == 2 and min(abs(x[2]) for x in expected) >= ANGLE_MIN_ROOT_RADIUS:
            return knowns, targets, expected


def _rotation(rng: random.Random, n: int) -> np.ndarray:
    q, r = np.linalg.qr(np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]))
    return q * np.sign(np.diag(r))


def _tangent_quad_3d(rng: random.Random) -> tuple:
    """Four mutually tangent spheres in R^3 and their two tangent completions."""
    while True:
        radii = [_logu(rng, 0.5, 2.0) for _ in range(4)]
        flat = orc.tangent_triple(radii[:3])
        p = [s[1] for s in flat]
        dist = [radii[3] + ri for ri in radii[:3]]
        m = 2.0 * np.array([p[1] - p[0], p[2] - p[0]])
        rhs = np.array([p[i] @ p[i] - p[0] @ p[0] - dist[i] ** 2 + dist[0] ** 2 for i in (1, 2)])
        q = np.linalg.solve(m, rhs)
        z2 = dist[0] ** 2 - float((q - p[0]) @ (q - p[0]))
        if z2 <= 1e-3 * dist[0] ** 2:
            continue
        centers = [np.append(pi, 0.0) for pi in p] + [np.append(q, math.sqrt(z2))]
        rot = _rotation(rng, 3)
        shift = np.array([rng.uniform(-3.0, 3.0) for _ in range(3)])
        knowns = [orc.sphere(rot @ c + shift, r) for c, r in zip(centers, radii)]
        try:
            expected = orc.complete(knowns, [1.0] * 4)
        except Degenerate:
            continue
        if len(expected) == 2:
            return knowns, expected


def _stress(rng: random.Random, shapes_lists: list, translate: bool) -> list:
    """Translate by up to 1e3 or scale by 1e-2..1e2 every shape list alike."""
    n = shapes_lists[0][0][1].size
    if translate:
        direction = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        offset = _logu(rng, 1.0, 1e3) * direction / np.linalg.norm(direction)
        return [[orc.sphere(s[1] + offset, s[2]) for s in shapes] for shapes in shapes_lists]
    k = _logu(rng, 1e-2, 1e2)
    return [[orc.sphere(s[1] * k, s[2] * k) for s in shapes] for shapes in shapes_lists]


# ---------------------------------------------------------------------------
# library conversion


def _lib_spheres(pkg, shapes: list) -> list:
    return [pkg.Sphere(s[1], s[2]) for s in shapes]


def _shape(pkg, s) -> tuple:
    if isinstance(s, pkg.Sphere):
        return orc.sphere(s.center, s.radius)
    if isinstance(s, pkg.Hyperplane):
        return orc.plane(s.normal, s.offset)
    return ("point", np.asarray(s.location, dtype=float), 0.0)


def _json_shape(entry: dict) -> tuple:
    if "center" in entry:
        return orc.sphere(entry["center"], entry["radius"])
    if "normal" in entry:
        return orc.plane(entry["normal"], entry["offset"])
    return ("point", np.asarray(entry["point"], dtype=float), 0.0)


def _job_sphere(s: tuple) -> dict:
    return {"center": [float(x) for x in s[1]], "radius": float(s[2])}


# ---------------------------------------------------------------------------
# solve


SOLVE_BLOCK = ["soddy"] * 5 + ["orthocircle"] * 4 + ["angle_row"] * 5 + ["apollonius_all"] * 3 \
    + ["soddy_3d"] * 3
#: Blocks of stressed solve ops in the stress set of a run.
SOLVE_STRESS_BLOCKS = 10


def _solve_op(pkg, rng: random.Random, kind: str, stressed: bool) -> Op:
    translate = rng.random() < 0.5
    ones = [1.0, 1.0, 1.0]

    def maybe_stress(*lists):
        return _stress(rng, list(lists), translate) if stressed else list(lists)

    if kind in ("soddy", "orthocircle"):
        knowns = _triple(rng)
        knowns, expected = maybe_stress(knowns, orc.complete(knowns, ones))
        lib = _lib_spheres(pkg, knowns)
        if kind == "soddy":
            return Op(kind, lambda: pkg.soddy_circles(*lib), lambda res: _verdict(orc.check_soddy(
                [_shape(pkg, s) for s in res.solutions], knowns, expected)))
        return Op(kind, lambda: pkg.orthogonal_circle(*lib), lambda res: _verdict(
            orc.check_orthocircle([_shape(pkg, s) for s in res.solutions], knowns)))
    if kind == "angle_row":
        knowns, targets, expected = _angle_problem(rng)
        knowns, expected = maybe_stress(knowns, expected)
        lib = _lib_spheres(pkg, knowns)
        row = pkg.ConstraintRow(tuple(targets))
        return Op(kind, lambda: pkg.complete_configuration(lib, row), lambda res: _verdict(
            orc.check_solutions([_shape(pkg, s) for s in res.solutions], expected, knowns,
                                targets)))
    if kind == "apollonius_all":
        knowns, expected = _disjoint_triple(rng)
        knowns, expected = maybe_stress(knowns, expected)
        lib = _lib_spheres(pkg, knowns)
        return Op(kind, lambda: pkg.apollonius_all(*lib), lambda res: _verdict(
            orc.check_apollonius([(signs, [_shape(pkg, s) for s in r.solutions])
                                  for signs, r in res], knowns, expected)))
    knowns, expected = _tangent_quad_3d(rng)
    knowns, expected = maybe_stress(knowns, expected)
    lib = _lib_spheres(pkg, knowns)
    row = pkg.ConstraintRow.external(4)
    return Op(kind, lambda: pkg.complete_configuration(lib, row), lambda res: _verdict(
        orc.check_soddy([_shape(pkg, s) for s in res.solutions], knowns, expected)))


def solve_ops(pkg, seed: int, stressed: bool = False) -> Iterator[Op]:
    rng = random.Random(seed)
    while True:
        block = list(SOLVE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield _solve_op(pkg, rng, kind, stressed)


# ---------------------------------------------------------------------------
# verify

VERIFY_BLOCK = [("concrete", 2)] * 5 + [("concrete", 3)] * 4 + [("concrete", 5)] * 3 \
    + [("concrete", 8)] * 2 + [("perturbed", n) for n in (2, 3, 3, 5, 8)] + [("four_orthogonal", 2)]
#: Bound on max|A F A^T - G| for a concrete system; its entries are O(1).
MASTER_RESIDUAL_TOL = 1e-6


def _concrete_system(rng: random.Random, n: int) -> tuple:
    """n+2 spheres in R^n whose Gram has no eigenvalue near zero."""
    while True:
        spheres = [orc.sphere([rng.uniform(-3.0, 3.0) for _ in range(n)], rng.uniform(0.5, 2.0))
                   for _ in range(n + 2)]
        f = orc.raw_gram(spheres)
        try:
            return spheres, f, orc.reference_inertia(f, margin=1e-6)
        except Degenerate:
            continue


def _verify_concrete(pkg, lib):
    cfg = pkg.gram(lib)
    verdict = pkg.realizable(cfg.f)
    residual = None if cfg.inverse is None else pkg.master_residual(lib)
    return cfg, verdict, residual


def _check_concrete(res, f, inertia) -> Verdict:
    cfg, verdict, residual = res
    ok, err, why = orc.check_gram(cfg.f.array, f)
    if not ok:
        return Verdict(ok, err, why)
    if tuple(cfg.inertia) != inertia:
        return Verdict(False, math.inf, f"inertia {tuple(cfg.inertia)}, expected {inertia}")
    if verdict.value != orc.reference_verdict(inertia):
        return Verdict(False, math.inf, f"verdict {verdict.value}")
    if residual is None or residual > MASTER_RESIDUAL_TOL:
        return Verdict(False, math.inf, f"master residual {residual}")
    return Verdict(True, err, "")


def _hypothetical(pkg, m):
    return pkg.realizable(m), pkg.inertia(m)


def _check_hypothetical(res, inertia) -> Verdict:
    verdict, got = res
    if tuple(got) != inertia:
        return Verdict(False, math.inf, f"inertia {tuple(got)}, expected {inertia}")
    if verdict.value != orc.reference_verdict(inertia):
        return Verdict(False, math.inf, f"verdict {verdict.value}")
    return Verdict(True, 0.0, "")


def _verify_op(pkg, rng: random.Random, kind: str, n: int) -> Op:
    if kind == "concrete":
        spheres, f, inertia = _concrete_system(rng, n)
        lib = _lib_spheres(pkg, spheres)
        return Op(f"concrete_{n}d", lambda: _verify_concrete(pkg, lib),
                  lambda res: _check_concrete(res, f, inertia))
    if kind == "four_orthogonal":
        f = -np.eye(4)
    else:
        while True:
            _, base, _ = _concrete_system(rng, n)
            noise = np.triu(np.array([[rng.gauss(0.0, 1.0) for _ in range(n + 2)]
                                      for _ in range(n + 2)]), 1)
            f = base + _logu(rng, 1e-3, 3.0) * (noise + noise.T)
            try:
                orc.reference_inertia(f, margin=1e-6)
                break
            except Degenerate:
                continue
    inertia = orc.reference_inertia(f)
    m = pkg.SymMatrix(f)
    return Op(f"{kind}_{n + 2}x{n + 2}" if kind == "perturbed" else kind,
              lambda: _hypothetical(pkg, m), lambda res: _check_hypothetical(res, inertia))


def verify_ops(pkg, seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    while True:
        block = list(VERIFY_BLOCK)
        rng.shuffle(block)
        for kind, n in block:
            yield _verify_op(pkg, rng, kind, n)


# ---------------------------------------------------------------------------
# cli_jobs

CLI_KINDS = ("verify", "verify_rounded_3d", "verify_pairwise", "verify_orthogonal", "solve",
             "apollonius", "descartes", "orthocircle", "render", "bad_dimension",
             "not_tangent", "malformed")
CLI_POOL_PER_KIND = 24


def _load(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _expect_exit(res: CliResult, code: int) -> Optional[Verdict]:
    if res.code != code:
        return Verdict(False, math.inf, f"exit {res.code}, expected {code}: {res.err.strip()}")
    return None


def _check_cli_gram(res: CliResult, code: int, f: np.ndarray, inertia: tuple,
                    residual: bool) -> Verdict:
    bad = _expect_exit(res, code)
    if bad:
        return bad
    doc = _load(res.out)
    if not isinstance(doc, dict):
        return Verdict(False, math.inf, "stdout is not a JSON object")
    ok, err, why = orc.check_gram(doc.get("gram"), f)
    if not ok:
        return Verdict(ok, err, why)
    if tuple(doc.get("inertia", ())) != inertia:
        return Verdict(False, math.inf, f"inertia {doc.get('inertia')}")
    if doc.get("verdict") != orc.reference_verdict(inertia):
        return Verdict(False, math.inf, f"verdict {doc.get('verdict')}")
    mr = doc.get("master_residual")
    if residual and (mr is None or mr > MASTER_RESIDUAL_TOL):
        return Verdict(False, math.inf, f"master residual {mr}")
    if not residual and mr is not None:
        return Verdict(False, math.inf, "hypothetical table reported a master residual")
    return Verdict(True, err, "")


def _check_cli_solutions(res: CliResult, checker) -> Verdict:
    bad = _expect_exit(res, 0)
    if bad:
        return bad
    doc = _load(res.out)
    if not isinstance(doc, dict) or "solutions" not in doc:
        return Verdict(False, math.inf, "stdout holds no solutions")
    return _verdict(checker([_json_shape(e) for e in doc["solutions"]]))


def _check_cli_apollonius(res: CliResult, knowns, expected) -> Verdict:
    bad = _expect_exit(res, 0)
    if bad:
        return bad
    doc = _load(res.out)
    if not isinstance(doc, dict) or doc.get("distinct_count") != len(expected):
        return Verdict(False, math.inf, "distinct_count differs from the reference")
    patterns = [(p["signs"], [_json_shape(e) for e in p["solutions"]]) for p in doc["patterns"]]
    return _verdict(orc.check_apollonius(patterns, knowns, expected))


def _check_cli_render(res: CliResult, path: str, shapes: list) -> Verdict:
    bad = _expect_exit(res, 0)
    if bad:
        return bad
    try:
        with open(path, "r", encoding="utf-8") as fh:
            svg = fh.read()
        os.remove(path)  # so the next pass must write it again
    except OSError as exc:
        return Verdict(False, math.inf, f"no SVG written: {exc}")
    if not svg.startswith("<svg") or res.out:
        return Verdict(False, math.inf, "render output is not a bare SVG file")
    drawn = []
    for line in svg.splitlines():
        if line.startswith("<circle"):
            attrs = dict(re.findall(r'([\w-]+)="([^"]*)"', line))
            drawn.append(orc.sphere([float(attrs["cx"]), float(attrs["cy"])], float(attrs["r"])))
    if len(drawn) != len(shapes):
        return Verdict(False, math.inf, f"{len(drawn)} circles drawn, expected {len(shapes)}")
    worst = max(min(orc.shape_distance(d, y, oriented=False) for y in shapes) for d in drawn)
    if worst > orc.REL_TOL:
        return Verdict(False, worst, f"drawn circle off by {worst:.3g}")
    return Verdict(True, worst, "")


def _check_cli_error(res: CliResult, code: int) -> Verdict:
    bad = _expect_exit(res, code)
    if bad:
        return bad
    if res.out or not res.err.startswith("error:"):
        return Verdict(False, math.inf, "error job wrote stdout or no error message")
    return Verdict(True, 0.0, "")


def _write_job(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


def _cli_job(cli, rng: random.Random, kind: str, workdir: str, index: int) -> Op:
    path = os.path.join(workdir, f"job-{kind}-{index}.json")
    if kind in ("verify", "verify_rounded_3d"):
        n = 2 if kind == "verify" else 3
        spheres, f, inertia = _concrete_system(rng, n)
        _write_job(path, {"dimension": n, "spheres": [_job_sphere(s) for s in spheres]})
        argv = ["verify", path] + (["--json"] if kind == "verify" else [])
        check = lambda res: _check_cli_gram(res, 0, f, inertia, True)  # noqa: E731
    elif kind == "verify_pairwise":
        spheres, f, inertia = _concrete_system(rng, 2)
        pairs = [{"i": i, "j": j, "relation":
                  f"distance:{float(np.linalg.norm(spheres[i][1] - spheres[j][1]))!r}"}
                 for i in range(4) for j in range(i + 1, 4)]
        _write_job(path, {"spheres": [{"radius": s[2]} for s in spheres], "pairwise": pairs})
        argv = ["verify", path, "--json"]
        check = lambda res: _check_cli_gram(res, 0, f, inertia, False)  # noqa: E731
    elif kind == "verify_orthogonal":
        k = 4 + index % 2
        pairs = [{"i": i, "j": j, "relation": "orthogonal"} for i in range(k) for j in range(i + 1, k)]
        _write_job(path, {"spheres": [{"radius": 1.0}] * k, "pairwise": pairs})
        f = -np.eye(k)
        inertia = orc.reference_inertia(f)
        argv = ["verify", path, "--json"]
        check = lambda res: _check_cli_gram(res, 3, f, inertia, False)  # noqa: E731
    elif kind == "solve":
        knowns, targets, expected = _angle_problem(rng)
        degrees = [math.degrees(math.acos(t)) for t in targets]
        targets = [math.cos(math.radians(d)) for d in degrees]
        expected = orc.complete(knowns, targets)
        _write_job(path, {"spheres": [_job_sphere(s) for s in knowns],
                          "constraints": [f"angle:{d!r}" for d in degrees]})
        argv = ["solve", path, "--json"]
        check = lambda res: _check_cli_solutions(  # noqa: E731
            res, lambda got: orc.check_solutions(got, expected, knowns, targets))
    elif kind == "apollonius":
        knowns, expected = _disjoint_triple(rng)
        _write_job(path, {"spheres": [_job_sphere(s) for s in knowns]})
        argv = ["apollonius", path, "--signs", "all", "--json"]
        check = lambda res: _check_cli_apollonius(res, knowns, expected)  # noqa: E731
    elif kind in ("descartes", "orthocircle"):
        knowns = _triple(rng)
        _write_job(path, {"spheres": [_job_sphere(s) for s in knowns]})
        argv = [kind, path, "--json"]
        if kind == "descartes":
            expected = orc.complete(knowns, [1.0, 1.0, 1.0])
            check = lambda res: _check_cli_solutions(  # noqa: E731
                res, lambda got: orc.check_soddy(got, knowns, expected))
        else:
            check = lambda res: _check_cli_solutions(  # noqa: E731
                res, lambda got: orc.check_orthocircle(got, knowns))
    elif kind == "render":
        knowns = _triple(rng)
        solutions = orc.complete(knowns, [1.0, 1.0, 1.0])
        svg = os.path.join(workdir, f"render-{index}.svg")
        _write_job(path, {"spheres": [_job_sphere(s) for s in knowns],
                          "solutions": [_job_sphere(s) for s in solutions]})
        argv = ["render", path, "-o", svg]
        shapes = knowns + solutions
        return Op(kind, lambda: run_cli(cli, argv),
                  lambda res: _check_cli_render(res, svg, shapes), outfile=svg)
    elif kind == "bad_dimension":
        _write_job(path, {"dimension": 2, "spheres": [
            {"center": [rng.uniform(-3, 3) for _ in range(3)], "radius": 1.0}] * 3})
        argv = ["descartes", path]
        check = lambda res: _check_cli_error(res, 2)  # noqa: E731
    elif kind == "not_tangent":
        knowns = _triple(rng)
        moved = knowns[:2] + [orc.sphere(knowns[2][1], knowns[2][2] * 0.9)]
        _write_job(path, {"spheres": [_job_sphere(s) for s in moved]})
        argv = ["descartes", path]
        check = lambda res: _check_cli_error(res, 3)  # noqa: E731
    else:  # malformed
        _write_job(path, '{"spheres": [{"center": [0, 0], "radius": 1.0}')
        argv = ["verify", path]
        check = lambda res: _check_cli_error(res, 2)  # noqa: E731
    return Op(kind, lambda: run_cli(cli, argv), check)


def cli_ops(pkg, seed: int, workdir: str) -> Iterator[Op]:
    """A pool of job files written once, then visited in seeded order, one pass at a time."""
    rng = random.Random(seed)
    pool = [_cli_job(pkg.cli, rng, kind, workdir, i)
            for i in range(CLI_POOL_PER_KIND) for kind in CLI_KINDS]
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# gasket


def _gasket_cutoff(curvatures, count: int, k_range) -> float:
    """A cutoff K in k_range whose packing holds about `count` circles.

    K sits halfway between two consecutive packing curvatures, so no
    circle's curvature is within round-off of it.
    """
    lo, hi = k_range
    ks = orc.packing_curvatures(curvatures, hi)
    i = min(max(count, 1), len(ks) - 1)
    while i < len(ks) - 1 and (ks[i] - ks[i - 1] <= 1e-6 * ks[i] or ks[i - 1] < lo):
        i += 1
    return float(0.5 * (ks[i - 1] + ks[i]))


def _gasket_op(cli, seed_triple: list, cutoff: float, path: str, stressed: bool) -> Op:
    curv = [1.0 / s[2] for s in seed_triple]
    expected = orc.descartes_count(curv, cutoff)
    _write_job(path, {"spheres": [_job_sphere(s) for s in seed_triple]})
    argv = ["gasket", path, "--max-curvature", repr(cutoff), "--json"]

    def check(res: CliResult) -> Verdict:
        bad = _expect_exit(res, 0)
        if bad:
            return bad
        doc = _load(res.out)
        if not isinstance(doc, dict) or not isinstance(doc.get("circles"), list):
            return Verdict(False, math.inf, "stdout holds no circles")
        circles = [(c["center"], c["radius"], c["parents"]) for c in doc["circles"]]
        return _verdict(orc.check_gasket(circles, seed_triple, cutoff, expected), len(circles))

    limit = max(1.0, GASKET_SECONDS_PER_CIRCLE * expected)
    return Op("gasket_scaled" if stressed else "gasket", lambda: run_cli(cli, argv), check,
              limit=limit)


def gasket_scaled_op(pkg, seed: int, workdir: str) -> Op:
    """The shrunken job: a triple scaled to radii of 1e-3 to 1e-2."""
    rng = random.Random(seed)
    shrink = _logu(rng, 1e-3 / 0.6, 1e-2 / 1.2)
    small = [orc.sphere(s[1] * shrink, s[2] * shrink)
             for s in _triple(rng, 0.6, 1.2, spread=0.0)]
    b = [1.0 / s[2] for s in small]
    cutoff = _gasket_cutoff(b, GASKET_SCALED_COUNT, (max(b), 100.0 * max(b)))
    return _gasket_op(pkg.cli, small, cutoff, os.path.join(workdir, "gasket-scaled.json"), True)


def gasket_ops(pkg, seed: int, workdir: str) -> Iterator[Op]:
    """The ladder of ordinary jobs, over and over.

    The ladder fixes each job's circle count, so a job's cost does not
    depend on the shape of its random triple.
    """
    rng = random.Random(seed)
    pool = []
    for i, count in enumerate(GASKET_LADDER * 5):
        triple = _triple(rng, 0.6, 1.2, spread=0.0)
        cutoff = _gasket_cutoff([1.0 / s[2] for s in triple], count, GASKET_K_RANGE)
        pool.append(_gasket_op(pkg.cli, triple, cutoff,
                               os.path.join(workdir, f"gasket-{i}.json"), False))
    while True:
        yield from pool


# ---------------------------------------------------------------------------
# entry points


def ops(name: str, pkg, seed: int, workdir: str) -> Iterator[Op]:
    if name == "solve":
        return solve_ops(pkg, seed)
    if name == "verify":
        return verify_ops(pkg, seed)
    if name == "cli_jobs":
        return cli_ops(pkg, seed, workdir)
    return gasket_ops(pkg, seed, workdir)


def stress_ops(name: str, pkg, seed: int, workdir: str) -> list:
    """The fixed stressed set of a run: none for ``verify`` and ``cli_jobs``."""
    if name == "solve":
        stream = solve_ops(pkg, seed + 104729, stressed=True)
        return [next(stream) for _ in range(SOLVE_STRESS_BLOCKS * len(SOLVE_BLOCK))]
    if name == "gasket":
        return [gasket_scaled_op(pkg, seed, workdir)]
    return []


def warmup(name: str, pkg, seed: int, workdir: str) -> list:
    """Untimed ops that load every code path before measurement starts."""
    warm_dir = os.path.join(workdir, "warmup")
    os.makedirs(warm_dir, exist_ok=True)
    if name == "gasket":
        triple = orc.tangent_triple((1.0, 1.0, 1.0))
        return [_gasket_op(pkg.cli, triple, 20.0, os.path.join(warm_dir, "gasket.json"), False)]
    stream = ops(name, pkg, seed + 7919, warm_dir)
    return [next(stream) for _ in range(len(CLI_KINDS) if name == "cli_jobs" else 40)]


#: One first op per workload, for the fresh-interpreter set-up time; {job} is a
#: tangent-triple job file.
PROBES = {
    "solve": "from pedoe import Sphere, soddy_circles\n"
             "soddy_circles(Sphere([0, 0], 1), Sphere([2, 0], 1), Sphere([1, 3 ** 0.5], 1))\n",
    "verify": "from pedoe import Sphere, gram, realizable, master_residual\n"
              "s = [Sphere([0, 0], 1), Sphere([3, 0], 1), Sphere([0, 3], 1), Sphere([3, 3], 2)]\n"
              "realizable(gram(s).f)\nmaster_residual(s)\n",
    "cli_jobs": "pedoe.cli.run(['descartes', {job!r}])\n",
    "gasket": "pedoe.cli.run(['gasket', {job!r}, '--max-curvature', '20', '--json'])\n",
}


def probe_job(workdir: str) -> str:
    return _write_job(os.path.join(workdir, "probe.json"),
                      {"spheres": [_job_sphere(s) for s in orc.tangent_triple((1.0, 1.0, 1.0))]})
