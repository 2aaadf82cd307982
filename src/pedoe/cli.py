"""Command-line front end: JSON jobs in, JSON or SVG out.

One input schema serves every subcommand:

    {
      "dimension": 2,
      "spheres": [{"center": [x, y], "radius": r},
                  {"normal": [a, b], "offset": c},
                  {"radius": r}],
      "constraints": ["external", -1, "orthogonal", "angle:60", 1.5],
      "pairwise": [{"i": 0, "j": 1, "relation": "distance:4"}, ...],
      "gram": [[...], ...],
      "solutions": [...],
      "tolerance": 1e-9,
      "unknown_radius": 2.0,
      "output": "out.svg"
    }

Radii are signed (negative marks the complementary unbounded disk).
Spheres given as {"radius": r} have no position and only feed hypothetical
realizability checks through "pairwise".  "constraints" is the target row
for the unknown sphere in `solve`; "pairwise" or "gram" describe a
hypothetical configuration for `verify`; "solutions" is drawn dashed by
`render` and re-checked by `verify` (the round trip for `solve --json`
output).

Exit codes: 0 success, 1 no real solution, 2 input error, 3 degenerate or
singular or non-realizable configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .configuration import Realizability, _verdict, gram, master_residual
from .errors import (
    DependentKnownsError,
    InconsistentSystemError,
    NoRealSolutionError,
    NotTangentError,
    PedoeError,
    SingularMatrixError,
    UnsupportedRenderError,
)
from .geometry import GeneralizedSphere, Hyperplane, PointShape, Sphere
from .linalg import SymMatrix, inertia
from .packing import gasket
from .solver import (
    ConstraintRow,
    SolveResult,
    apollonius,
    apollonius_all,
    complete_configuration,
    orthogonal_circle,
    soddy_circles,
    target_from_distance,
)

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


# ---------------------------------------------------------------------------
# job parsing


def relation_value(spec, r_i: Optional[float] = None, r_j: Optional[float] = None) -> float:
    """Translate a relation spec (number or named string) to a product target.

    Named relations: external (+1), internal (-1), orthogonal (0),
    "angle:<degrees>" (cosine), "distance:<d>" (needs both radii).
    """
    if isinstance(spec, bool):
        raise ValueError(f"invalid relation {spec!r}")
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "external":
            return 1.0
        if text == "internal":
            return -1.0
        if text == "orthogonal":
            return 0.0
        if text.startswith("angle:"):
            return math.cos(math.radians(float(text.split(":", 1)[1])))
        if text.startswith("distance:"):
            if r_i is None or r_j is None:
                raise ValueError(
                    f"relation {spec!r} needs both radii; give the unknown's "
                    "radius via \"unknown_radius\" or use it in \"pairwise\""
                )
            return target_from_distance(float(text.split(":", 1)[1]), r_i, r_j)
    raise ValueError(f"unknown relation {spec!r}")


@dataclass
class JobSpec:
    """Parsed job document; see the module docstring for the schema."""

    dimension: int
    spheres: list  # GeneralizedSphere, or None for position-free entries
    radii: list  # signed radius per entry (None for hyperplanes)
    constraints: Optional[list]
    gram_matrix: Optional[np.ndarray]
    pairwise: Optional[list]
    solutions: list = field(default_factory=list)
    tolerance: float = 1e-9
    unknown_radius: Optional[float] = None
    output: Optional[str] = None

    @property
    def concrete_spheres(self) -> list:
        missing = [i for i, s in enumerate(self.spheres) if s is None]
        if missing:
            raise ValueError(f"sphere entries {missing} have no position (center/normal)")
        return list(self.spheres)


def _parse_shape(entry, dim: int):
    """One sphere entry -> (shape-or-None, signed-radius-or-None)."""
    if not isinstance(entry, dict):
        raise ValueError(f"sphere entry must be an object, got {entry!r}")
    if "center" in entry:
        center = [float(x) for x in entry["center"]]
        if len(center) != dim:
            raise ValueError(f"center {center} does not match dimension {dim}")
        radius = float(entry["radius"])
        return Sphere(center, radius), radius
    if "normal" in entry:
        normal = np.array([float(x) for x in entry["normal"]])
        if normal.size != dim:
            raise ValueError(f"normal {normal.tolist()} does not match dimension {dim}")
        scale = float(np.linalg.norm(normal))
        if scale == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        return Hyperplane(normal / scale, float(entry["offset"]) / scale), None
    if "radius" in entry:
        return None, float(entry["radius"])
    raise ValueError(f"sphere entry needs center+radius, normal+offset, or radius: {entry!r}")


def load_job(path: str, default_dim: int = 2, tolerance: float = 1e-9) -> JobSpec:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_job(doc, default_dim=default_dim, tolerance=tolerance)


def parse_job(doc, default_dim: int = 2, tolerance: float = 1e-9) -> JobSpec:
    if not isinstance(doc, dict):
        raise ValueError("job document must be a JSON object")
    dim = int(doc.get("dimension", default_dim))
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    spheres, radii = [], []
    for entry in doc.get("spheres", []):
        shape, radius = _parse_shape(entry, dim)
        spheres.append(shape)
        radii.append(radius)
    solutions = []
    for entry in doc.get("solutions", []):
        shape, _ = _parse_shape(entry, dim)
        if shape is None:
            raise ValueError("solution entries must carry a position")
        solutions.append(shape)
    gram_matrix = None
    if "gram" in doc:
        gram_matrix = np.array(doc["gram"], dtype=float)
        if gram_matrix.ndim != 2 or gram_matrix.shape[0] != gram_matrix.shape[1]:
            raise ValueError("gram must be a square matrix")
    pairwise = doc.get("pairwise")
    if pairwise is not None and not isinstance(pairwise, list):
        raise ValueError("pairwise must be a list of {i, j, relation} objects")
    unknown_radius = doc.get("unknown_radius")
    return JobSpec(
        dimension=dim,
        spheres=spheres,
        radii=radii,
        constraints=doc.get("constraints"),
        gram_matrix=gram_matrix,
        pairwise=pairwise,
        solutions=solutions,
        tolerance=float(doc.get("tolerance", tolerance)),
        unknown_radius=None if unknown_radius is None else float(unknown_radius),
        output=doc.get("output"),
    )


def _constraint_row(job: JobSpec) -> ConstraintRow:
    if not job.constraints:
        raise ValueError("this subcommand needs a \"constraints\" row")
    if len(job.constraints) != len(job.spheres):
        raise ValueError(
            f"{len(job.constraints)} constraints for {len(job.spheres)} spheres"
        )
    targets = [
        relation_value(spec, r_known, job.unknown_radius)
        for spec, r_known in zip(job.constraints, job.radii)
    ]
    return ConstraintRow(tuple(targets))


def _pairwise_gram(job: JobSpec) -> SymMatrix:
    k = len(job.spheres)
    if k < 2:
        raise ValueError("pairwise verification needs at least two sphere entries")
    f = -np.eye(k)
    seen = np.eye(k, dtype=bool)
    for entry in job.pairwise:
        i, j = int(entry["i"]), int(entry["j"])
        if not (0 <= i < k and 0 <= j < k) or i == j:
            raise ValueError(f"bad pair indices ({i}, {j})")
        value = relation_value(entry["relation"], job.radii[i], job.radii[j])
        f[i, j] = f[j, i] = value
        seen[i, j] = seen[j, i] = True
    if not seen.all():
        missing = [(int(i), int(j)) for i, j in zip(*np.where(~seen)) if i < j]
        raise ValueError(f"pairwise relations missing for pairs {missing}")
    return SymMatrix(f)


# ---------------------------------------------------------------------------
# output helpers


def _clean_float(x: float) -> float:
    return 0.0 if x == 0 else float(x)


def _round_floats(obj, digits: int = 9):
    if isinstance(obj, float):
        return _clean_float(float(f"{obj:.{digits}g}"))
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _emit(doc: dict, machine: bool) -> None:
    if not machine:
        doc = _round_floats(doc)
    print(json.dumps(doc, indent=2, sort_keys=True))


def _shape_json(s: GeneralizedSphere) -> dict:
    if isinstance(s, Sphere):
        return {
            "center": [_clean_float(x) for x in s.center.tolist()],
            "radius": _clean_float(s.radius),
            "curvature": _clean_float(s.curvature),
        }
    if isinstance(s, Hyperplane):
        return {
            "normal": [_clean_float(x) for x in s.normal.tolist()],
            "offset": _clean_float(s.offset),
        }
    return {"point": [_clean_float(x) for x in s.location.tolist()]}


def _result_json(result: SolveResult) -> dict:
    return {
        "solutions": [_shape_json(s) for s in result.solutions],
        "curvatures": [
            _clean_float(s.curvature) if isinstance(s, Sphere) else 0.0
            for s in result.solutions
        ],
        "residuals": [_clean_float(r) for r in result.residuals],
        "discriminant": _clean_float(result.discriminant),
        "coincident_with_knowns": [_shape_json(s) for s in result.coincident],
    }


# ---------------------------------------------------------------------------
# SVG rendering


def _fmt(x: float) -> str:
    return f"{_clean_float(x):.9g}"


def _clip_line(plane: Hyperplane, box: tuple[float, float, float, float]):
    """Intersect the line normal.x = offset with a rectangle; None if outside."""
    x0, y0, x1, y1 = box
    nx, ny = plane.normal
    p = np.array([plane.offset * nx, plane.offset * ny])
    d = np.array([-ny, nx])
    lo, hi = -np.inf, np.inf
    for axis, (mn, mx) in enumerate(((x0, x1), (y0, y1))):
        if abs(d[axis]) < 1e-15:
            if not (mn - 1e-12 <= p[axis] <= mx + 1e-12):
                return None
            continue
        t1 = (mn - p[axis]) / d[axis]
        t2 = (mx - p[axis]) / d[axis]
        lo = max(lo, min(t1, t2))
        hi = min(hi, max(t1, t2))
    if not lo < hi:
        return None
    return p + lo * d, p + hi * d


def render_svg(
    spheres: Sequence[GeneralizedSphere],
    solutions: Sequence[GeneralizedSphere] = (),
    width: int = 640,
) -> str:
    """Deterministic SVG 1.1 picture of circles and lines (planar only).

    Knowns are stroked solid, solutions dashed; negative-radius circles are
    drawn at |r|; lines are clipped to the view box.
    """
    for s in list(spheres) + list(solutions):
        if s.n != 2:
            raise UnsupportedRenderError(f"rendering is planar only, got dimension {s.n}")
    lo = np.array([np.inf, np.inf])
    hi = np.array([-np.inf, -np.inf])
    for s in list(spheres) + list(solutions):
        if isinstance(s, Sphere):
            r = abs(s.radius)
            lo = np.minimum(lo, s.center - r)
            hi = np.maximum(hi, s.center + r)
        elif isinstance(s, PointShape):
            lo = np.minimum(lo, s.location)
            hi = np.maximum(hi, s.location)
    if not np.all(np.isfinite(lo)):
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    span = np.maximum(hi - lo, 1e-6)
    pad = 0.05 * float(np.max(span))
    lo, hi = lo - pad, hi + pad
    w, h = hi - lo
    height = width * h / w
    box = (lo[0], lo[1], hi[0], hi[1])
    stroke = 0.005 * max(w, h)
    flip = lo[1] + hi[1]  # mirror the y axis inside the view box

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="{_fmt(lo[0])} {_fmt(lo[1])} {_fmt(w)} {_fmt(h)}">',
        f'<g fill="none" stroke-width="{_fmt(stroke)}" '
        f'transform="matrix(1 0 0 -1 0 {_fmt(flip)})">',
    ]

    def emit(shape: GeneralizedSphere, style: str):
        if isinstance(shape, Sphere):
            parts.append(
                f'<circle {style} cx="{_fmt(shape.center[0])}" '
                f'cy="{_fmt(shape.center[1])}" r="{_fmt(abs(shape.radius))}"/>'
            )
        elif isinstance(shape, Hyperplane):
            seg = _clip_line(shape, box)
            if seg is not None:
                (ax, ay), (bx, by) = seg
                parts.append(
                    f'<line {style} x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
                    f'x2="{_fmt(bx)}" y2="{_fmt(by)}"/>'
                )
        else:
            parts.append(
                f'<circle {style} cx="{_fmt(shape.location[0])}" '
                f'cy="{_fmt(shape.location[1])}" r="{_fmt(stroke)}"/>'
            )

    for s in spheres:
        emit(s, 'class="known" stroke="#1b2a41"')
    dash = f'stroke-dasharray="{_fmt(3 * stroke)} {_fmt(2 * stroke)}"'
    for s in solutions:
        emit(s, f'class="solution" stroke="#c0392b" {dash}')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _verify_doc(spheres: Optional[list], f: Optional[SymMatrix] = None) -> tuple[dict, int]:
    """Gram, inertia, verdict and master residual, with the exit code of the verdict.

    Concrete spheres reuse the inverse from gram() for the master residual;
    a hypothetical table f has no residual.
    """
    residual = None
    if spheres is None:
        ine = inertia(f)
    else:
        cfg = gram(spheres)
        f, ine = cfg.f, cfg.inertia
        if cfg.inverse is not None:
            residual = _clean_float(master_residual(spheres, cfg.inverse))
    verdict = _verdict(ine, f.dim)
    doc = {
        "gram": [[_clean_float(x) for x in row] for row in f.array.tolist()],
        "inertia": list(ine),
        "verdict": verdict.value,
        "master_residual": residual,
    }
    return doc, EXIT_OK if verdict is Realizability.REALIZABLE else EXIT_DEGENERATE


def cmd_verify(args) -> int:
    job = load_job(args.input, args.dim, args.tol)
    if job.gram_matrix is not None or job.pairwise is not None:
        f = SymMatrix(job.gram_matrix) if job.gram_matrix is not None else _pairwise_gram(job)
        doc, code = _verify_doc(None, f)
    elif job.solutions:
        spheres = job.concrete_spheres
        entries, codes = [], []
        for sol in job.solutions:
            entry, entry_code = _verify_doc(spheres + [sol])
            del entry["gram"]
            entries.append(dict(entry, solution=_shape_json(sol)))
            codes.append(entry_code)
        doc, code = {"completions": entries}, max(codes)
    else:
        doc, code = _verify_doc(job.concrete_spheres)
    _emit(doc, args.json)
    return code


def _emit_result(args, job: JobSpec, knowns: list, result: SolveResult, **extra) -> int:
    """Emit the knowns, any extra fields and one solver result; exit 1 when it is empty."""
    doc = {"dimension": job.dimension, "spheres": [_shape_json(s) for s in knowns], **extra}
    doc.update(_result_json(result))
    _emit(doc, args.json)
    return EXIT_OK if result.solutions else EXIT_NO_SOLUTION


def _three_circles(args, job: JobSpec) -> list:
    knowns = job.concrete_spheres
    if len(knowns) != 3 or any(not isinstance(s, Sphere) for s in knowns):
        raise ValueError(f"{args.command} needs exactly three circles")
    return knowns


def cmd_solve(args) -> int:
    job = load_job(args.input, args.dim, args.tol)
    knowns = job.concrete_spheres
    row = _constraint_row(job)
    result = complete_configuration(knowns, row, tol=job.tolerance)
    return _emit_result(args, job, knowns, result, constraints=list(row.targets))


def _parse_signs(text: str) -> tuple[int, int, int]:
    if len(text) != 3 or any(ch not in "+-" for ch in text):
        raise ValueError(f"--signs wants three of +/- or 'all', got {text!r}")
    return tuple(1 if ch == "+" else -1 for ch in text)


def cmd_apollonius(args) -> int:
    job = load_job(args.input, args.dim, args.tol)
    knowns = _three_circles(args, job)
    if args.signs == "all":
        patterns = apollonius_all(*knowns)
        doc = {
            "dimension": job.dimension,
            "spheres": [_shape_json(s) for s in knowns],
            "patterns": [
                dict(signs=list(signs), **_result_json(res)) for signs, res in patterns
            ],
            "distinct_count": sum(len(res.solutions) for _, res in patterns),
        }
        _emit(doc, args.json)
        return EXIT_OK if doc["distinct_count"] else EXIT_NO_SOLUTION
    signs = _parse_signs(args.signs)
    return _emit_result(args, job, knowns, apollonius(*knowns, signs), signs=list(signs))


def _triple_command(args, solver) -> int:
    job = load_job(args.input, args.dim, args.tol)
    knowns = _three_circles(args, job)
    return _emit_result(args, job, knowns, solver(*knowns))


def cmd_descartes(args) -> int:
    return _triple_command(args, soddy_circles)


def cmd_orthocircle(args) -> int:
    return _triple_command(args, orthogonal_circle)


def cmd_gasket(args) -> int:
    job = load_job(args.input, args.dim, args.tol)
    g = gasket(job.concrete_spheres[:3], args.max_curvature)
    if g.truncated:
        print(f"warning: gasket truncated at {len(g.radii)} circles", file=sys.stderr)
    doc = {
        "max_curvature": float(args.max_curvature),
        "count": len(g.radii),
        "truncated": g.truncated,
        "circles": [
            {"center": [_clean_float(x) for x in c], "radius": _clean_float(r),
             "curvature": _clean_float(1.0 / r), "parents": None if p[0] < 0 else p}
            for c, r, p in zip(g.centers.tolist(), g.radii.tolist(), g.parents.tolist())
        ],
    }
    _emit(doc, args.json)
    return EXIT_OK


def cmd_render(args) -> int:
    job = load_job(args.input, args.dim, args.tol)
    out_path = args.output or job.output
    if not out_path:
        raise ValueError("render needs an output path (-o or \"output\" in the job)")
    svg = render_svg(job.concrete_spheres, job.solutions, width=args.width)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    common.add_argument("--dim", type=int, default=2, help="default ambient dimension")
    common.add_argument("--json", action="store_true", help="full-precision machine output")

    parser = argparse.ArgumentParser(
        prog="pedoe",
        description="Circle/sphere configuration toolkit: verify, solve, draw.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="gram matrix, inertia, realizability")
    p.add_argument("input")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", parents=[common], help="complete a configuration from a constraint row")
    p.add_argument("input")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("apollonius", parents=[common], help="circles tangent to three circles")
    p.add_argument("input")
    p.add_argument("--signs", default="all", help="'+-+' style pattern or 'all'")
    p.set_defaults(func=cmd_apollonius)

    p = sub.add_parser("descartes", parents=[common], help="both tangent completions of a tangent triple")
    p.add_argument("input")
    p.set_defaults(func=cmd_descartes)

    p = sub.add_parser("orthocircle", parents=[common], help="circle orthogonal to a tangent triple")
    p.add_argument("input")
    p.set_defaults(func=cmd_orthocircle)

    p = sub.add_parser("gasket", parents=[common], help="Apollonian packing of a tangent triple")
    p.add_argument("input")
    p.add_argument("--max-curvature", type=float, required=True)
    p.set_defaults(func=cmd_gasket)

    p = sub.add_parser("render", parents=[common], help="draw spheres and solutions as SVG")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--width", type=int, default=640)
    p.set_defaults(func=cmd_render)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except NoRealSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (
        SingularMatrixError,
        DependentKnownsError,
        NotTangentError,
        InconsistentSystemError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (
        PedoeError,
        ValueError,
        KeyError,
        TypeError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
