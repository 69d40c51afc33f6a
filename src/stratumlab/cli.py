"""Command line interface.

Subcommands
-----------
classify INPUT          rank stratum and orbit type of a state read from a
                        matrix file
chart CENTER POINT      conic chart of POINT around CENTER, with the
                        round-trip error
verify SUITE            run one randomized verification suite
demo NAME               write one of the small closed-form scans as CSV

Every option can also be set through an environment variable named
STRATUMLAB_<OPTION> (dashes become underscores, upper case); explicit flags
win over the environment, the environment wins over defaults.

Exit codes
----------
0  success
1  input/output or schema problem (unreadable file, malformed JSON, bad
   invocation such as an unknown option, an option value out of range or
   refused by the library)
2  the matrix failed validation (not Hermitian, wrong trace, not PSD, ...)
3  the computation refused to answer (ambiguous rank or clustering, point
   outside a chart's domain, eigenvalue on the contour, cone weight too
   large, dimension cap, an eigen- or singular-value solver that did not
   converge)
4  a verification suite ran to completion and failed

Every failure, usage errors included, prints one canonical-JSON error to
stderr. Reports are byte-deterministic for fixed inputs and seeds; timing
goes to stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import linalg
from .charts import MIN_NODES, chart_config_for, chart_forward, chart_inverse
from .errors import SchemaError, StratumLabError, ValidationError
from .fileio import RunConfig, canonical_json, read_matrix
from .orbits import isotropy_dim, orbit_dim, orbit_signature
from .states import (
    bloch_state,
    cone_algebra,
    cone_state,
    commutative_algebra,
    full_algebra,
    is_pure,
    maximally_mixed,
    simplex_state,
    validate_density,
)
from .strata import classify, stratum_dim_label
from .verify import SUITES

ENV_PREFIX = "STRATUMLAB_"

DOMAIN_EXIT = 3
SUITE_FAIL_EXIT = 4


class _Parser(argparse.ArgumentParser):
    """argparse prints usage and exits 2 on usage errors; this CLI reserves 2
    for validation failures, so a bad invocation raises SchemaError and
    exits 1 with one JSON error."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def _resolve(cli_value, option: str, cast, default, valid=None):
    """The option's value: flag, else environment, else default.

    valid is an optional (predicate, description) pair; a flag or
    environment value failing the predicate raises SchemaError.
    """
    env = ENV_PREFIX + option.upper().replace("-", "_")
    if cli_value is not None:
        value, source = cli_value, f"--{option}"
    else:
        raw = os.environ.get(env)
        if raw is None:
            return default
        try:
            value, source = cast(raw), env
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"environment variable {env}={raw!r} is not a valid {cast.__name__}"
            ) from exc
    if valid is not None and not valid[0](value):
        raise SchemaError(f"{source} must be {valid[1]}, got {value!r}")
    return value


_POSITIVE = (lambda x: math.isfinite(x) and x > 0, "a finite number > 0")


def _at_least(least: int):
    return (lambda x: x >= least, f"at least {least}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stratumlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol-rank", type=float, default=None,
                       help="eigenvalue threshold for rank decisions (default 1e-9)")
        p.add_argument("--cluster-tol", type=float, default=None,
                       help="eigenvalue clustering tolerance (default 1e-8)")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--out", type=str, default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--format", type=str, default=None, choices=["json", "csv"],
                       help="output format (json everywhere, csv for demos)")

    p = sub.add_parser("classify", help="rank stratum and orbit type of a state")
    p.add_argument("input", help="matrix file (JSON)")
    common(p)

    p = sub.add_parser("chart", help="conic chart around a center state")
    p.add_argument("center", help="matrix file of the chart center")
    p.add_argument("point", help="matrix file of the point to chart")
    p.add_argument("--epsilon", type=float, default=None,
                   help="spectral split threshold (default: gap / 4)")
    common(p)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=None,
                   help="trials per stratum pair (whitney; default 10)")
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (frontier/join/orbit-census/projector-equiv; "
                        "default: the suite's own)")
    p.add_argument("--max-dim", type=int, default=None,
                   help="largest ambient dimension for whitney (default: the suite's own)")
    p.add_argument("--nodes", type=int, default=None,
                   help="contour quadrature nodes (projector-equiv; default 64, at least 16)")
    common(p)

    p = sub.add_parser("demo", help="closed-form scans as CSV")
    p.add_argument("name", choices=sorted(_DEMOS))
    p.add_argument("--resolution", type=int, default=None,
                   help="grid points per axis (default 25)")
    common(p)

    return parser


def _run_config(args) -> RunConfig:
    return RunConfig(
        tol_rank=_resolve(getattr(args, "tol_rank", None), "tol-rank", float, 1e-9, _POSITIVE),
        cluster_tol=_resolve(
            getattr(args, "cluster_tol", None), "cluster-tol", float, 1e-8, _POSITIVE
        ),
        nodes=_resolve(getattr(args, "nodes", None), "nodes", int, 64, _at_least(MIN_NODES)),
        seed=_resolve(getattr(args, "seed", None), "seed", int, 0, _at_least(0)),
        trials=_resolve(getattr(args, "trials", None), "trials", int, 10, _at_least(1)),
        out=_resolve(getattr(args, "out", None), "out", str, None),
        format=_resolve(getattr(args, "format", None), "format", str, None),
    )


def _fix_format(cfg: RunConfig, wanted: str) -> RunConfig:
    if cfg.format not in (None, wanted):
        raise SchemaError(f"this command only writes {wanted}, not {cfg.format}")
    return dataclasses.replace(cfg, format=wanted)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _grid_payload(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def _signature_string(sig) -> str:
    return ";".join("+".join(str(m) for m in block) for block in sig.per_block)


def _cmd_classify(args, cfg: RunConfig) -> int:
    cfg = _fix_format(cfg, "json")
    matrix, alg = read_matrix(args.input)
    rho = validate_density(matrix, alg, tol=cfg.tol_rank)
    label = classify(rho, tol=cfg.tol_rank)
    sig = orbit_signature(rho, cluster_tol=cfg.cluster_tol)
    report = {
        "command": "classify",
        "config": cfg.as_dict(),
        "input": args.input,
        "alg": list(alg.block_sizes),
        "eigenvalues": [float(w) for w in rho.eigenvalues()],
        "rank_per_block": list(label.per_block),
        "total_rank": label.total,
        "stratum_dim": stratum_dim_label(label),
        "is_pure": is_pure(rho),
        "orbit_signature": [list(b) for b in sig.per_block],
        "isotropy_dim": isotropy_dim(sig),
        "orbit_dim": orbit_dim(rho, tol=cfg.tol_rank),
        "unitary_group_dim": alg.unitary_group_dim,
    }
    _emit(canonical_json(report), cfg.out)
    return 0


def _cmd_chart(args, cfg: RunConfig) -> int:
    cfg = _fix_format(cfg, "json")
    center_m, center_alg = read_matrix(args.center)
    point_m, point_alg = read_matrix(args.point)
    if center_alg != point_alg:
        raise SchemaError(
            f"center algebra {list(center_alg.block_sizes)} differs from "
            f"point algebra {list(point_alg.block_sizes)}"
        )
    f = validate_density(center_m, center_alg, tol=cfg.tol_rank)
    g = validate_density(point_m, point_alg, tol=cfg.tol_rank)
    epsilon = _resolve(args.epsilon, "epsilon", float, None, _POSITIVE)
    chart_cfg = chart_config_for(f, epsilon=epsilon, tol=cfg.tol_rank)
    p = chart_forward(f, g, chart_cfg)
    back = chart_inverse(p)
    report = {
        "command": "chart",
        "config": cfg.as_dict(),
        "center": args.center,
        "point": args.point,
        "alg": list(center_alg.block_sizes),
        "gap_a": chart_cfg.gap_a,
        "epsilon": chart_cfg.epsilon,
        "contour_radius": chart_cfg.contour_radius,
        "center_rank": p.frame_range.shape[1],
        "alpha": p.alpha,
        "kernel_projector": _grid_payload(p.frame_kernel @ p.frame_kernel.conj().T),
        "cone_part": _grid_payload(p.cone_part),
        "base_part": _grid_payload(p.base_part),
        "round_trip_error": linalg.hs_norm(back.matrix - g.matrix),
    }
    _emit(canonical_json(report), cfg.out)
    return 0


# verify: the RunConfig fields each suite takes besides the seed, and its own
# options as (keyword, option, check). An option left unset is not passed,
# so the suite's own default applies; a suite without a row takes the seed.
# A flag of _VERIFY_FLAGS that the suite's row lacks is a usage error (its
# environment variable is left alone, as it may be meant for another suite).
_VERIFY_FLAGS = ("trials", "samples", "max-dim", "nodes")
_SAMPLES = ("samples", "samples", _at_least(1))
_VERIFY_ARGS = {
    "whitney": (("trials",), (("max_dim", "max-dim", _at_least(2)),)),
    "frontier": ((), (_SAMPLES,)),
    "join": ((), (_SAMPLES,)),
    "orbit-census": (("cluster_tol",), (("draws", "samples", _at_least(1)),)),
    "projector-equiv": (("nodes",), (_SAMPLES,)),
}


def _cmd_verify(args, cfg: RunConfig) -> int:
    cfg = _fix_format(cfg, "json")
    fields, options = _VERIFY_ARGS.get(args.suite, ((), ()))
    taken = {*fields, *(option for _, option, _ in options)}
    for flag in _VERIFY_FLAGS:
        if flag not in taken and getattr(args, flag.replace("-", "_")) is not None:
            raise SchemaError(f"verify {args.suite} does not take --{flag}")
    kwargs = {name: getattr(cfg, name) for name in ("seed", *fields)}
    for keyword, option, valid in options:
        value = _resolve(getattr(args, option.replace("-", "_")), option, int, None, valid)
        if value is not None:
            kwargs[keyword] = value
    report = SUITES[args.suite](**kwargs)
    payload = {"command": "verify", "config": cfg.as_dict(), "report": report}
    _emit(canonical_json(payload), cfg.out)
    return 0 if report["passed"] else SUITE_FAIL_EXIT


def _fmt(x: float) -> str:
    return repr(float(x))


def _demo_bloch(resolution: int, cfg: RunConfig) -> str:
    axis = np.linspace(-1.0, 1.0, resolution)
    rows = ["x1,x2,x3,eig_low,eig_high,valid,rank,signature"]
    for x1 in axis:
        for x2 in axis:
            for x3 in axis:
                norm = float(np.sqrt(x1 * x1 + x2 * x2 + x3 * x3))
                low, high = (1.0 - norm) / 2.0, (1.0 + norm) / 2.0
                valid = norm <= 1.0 + 1e-12
                if valid:
                    rho = bloch_state((x1, x2, x3), tol=cfg.tol_rank)
                    rank = str(classify(rho, tol=cfg.tol_rank).total)
                    sig = _signature_string(orbit_signature(rho, cluster_tol=cfg.cluster_tol))
                else:
                    rank, sig = "", ""
                rows.append(
                    f"{_fmt(x1)},{_fmt(x2)},{_fmt(x3)},{_fmt(low)},{_fmt(high)},"
                    f"{int(valid)},{rank},{sig}"
                )
    return "\n".join(rows) + "\n"


def _demo_cone(resolution: int, cfg: RunConfig) -> str:
    t_axis = np.linspace(0.0, 1.0, resolution)
    x_axis = np.linspace(-1.0, 1.0, resolution)
    mixed = maximally_mixed(cone_algebra()).matrix
    rows = [
        "t,x1,x2,x3,eig_top,eig_plus,eig_minus,valid,"
        "rank_block1,rank_block2,total_rank,signature,maximally_mixed"
    ]
    for t in t_axis:
        for x1 in x_axis:
            for x3 in x_axis:
                norm = float(np.hypot(x1, x3))
                top = 1.0 - t
                plus, minus = (t + norm) / 2.0, (t - norm) / 2.0
                valid = norm <= t + 1e-12
                if valid:
                    rho = cone_state(t, (x1, 0.0, x3), tol=cfg.tol_rank)
                    label = classify(rho, tol=cfg.tol_rank)
                    r1, r2 = label.per_block
                    total = str(label.total)
                    sig = _signature_string(orbit_signature(rho, cluster_tol=cfg.cluster_tol))
                    is_mixed = int(linalg.hs_norm(rho.matrix - mixed) <= 1e-12)
                    block_cols = f"{r1},{r2},{total},{sig},{is_mixed}"
                else:
                    block_cols = ",,,,"
                rows.append(
                    f"{_fmt(t)},{_fmt(x1)},{_fmt(0.0)},{_fmt(x3)},"
                    f"{_fmt(top)},{_fmt(plus)},{_fmt(minus)},{int(valid)},{block_cols}"
                )
    return "\n".join(rows) + "\n"


def _demo_simplex(resolution: int, cfg: RunConfig) -> str:
    n = resolution - 1
    rows = ["p1,p2,p3,p4,rank_per_block,total_rank,stratum_dim"]
    alg = commutative_algebra(4)
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                d = n - a - b - c
                p = (a / n, b / n, c / n, d / n)
                rho = simplex_state(p, tol=cfg.tol_rank)
                if rho.alg != alg:
                    raise AssertionError("simplex demo built a state on the wrong algebra")
                label = classify(rho, tol=cfg.tol_rank)
                ranks = ";".join(str(r) for r in label.per_block)
                rows.append(
                    f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])},{_fmt(p[3])},"
                    f"{ranks},{label.total},{stratum_dim_label(label)}"
                )
    return "\n".join(rows) + "\n"


_DEMOS = {"bloch": _demo_bloch, "cone": _demo_cone, "simplex": _demo_simplex}


def _cmd_demo(args, cfg: RunConfig) -> int:
    cfg = _fix_format(cfg, "csv")
    resolution = _resolve(args.resolution, "resolution", int, 25, _at_least(2))
    _emit(_DEMOS[args.name](resolution, cfg), cfg.out)
    return 0


_COMMANDS = {"classify": _cmd_classify, "chart": _cmd_chart, "verify": _cmd_verify,
             "demo": _cmd_demo}


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args, _run_config(args))
    except (SchemaError, OSError) as exc:
        return _fail(exc, 1)
    except ValidationError as exc:
        return _fail(exc, 2)
    except (StratumLabError, np.linalg.LinAlgError) as exc:
        # everything left is a refusal to answer: ambiguity, domain, caps,
        # a solver that did not converge
        return _fail(exc, DOMAIN_EXIT)
    except ValueError as exc:
        # an argument the library refused (LinAlgError, a ValueError too, is
        # handled above): a bad invocation
        return _fail(exc, 1)
    finally:
        elapsed = time.perf_counter() - started
        sys.stderr.write(f"# elapsed {elapsed:.3f}s\n")
    return code


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(
        canonical_json({"error": type(exc).__name__, "message": str(exc), "exit_code": code})
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
