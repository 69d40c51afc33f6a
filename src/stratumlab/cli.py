"""Command line interface.

Subcommands
-----------
classify INPUT          rank stratum and orbit type of a state read from a
                        matrix file
chart CENTER POINT      conic chart of POINT around CENTER, with the
                        round-trip error
verify SUITE            run one randomized verification suite
demo NAME               write one of the small closed-form scans as CSV

Each command takes the options of its row in _TAKES, and --out. An option's
value is its flag, else STRATUMLAB_<OPTION> (dashes become underscores, upper
case), else its default, and is range-checked before any file is read. A flag
the command does not take is a usage error, and its environment variable is
never read. A report's "config" echoes exactly the options its command takes.

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
import inspect
import math
import os
import sys
import time

import numpy as np

from . import linalg
from .charts import MIN_NODES, chart_config_for, chart_forward, chart_inverse
from .errors import SchemaError, StratumLabError, ValidationError
from .fileio import canonical_json, grid_payload, read_matrix
from .orbits import DEFAULT_CLUSTER_TOL, isotropy_dim, orbit_dim, orbit_signature
from .states import (
    DEFAULT_TOL,
    bloch_state,
    cone_algebra,
    cone_state,
    is_pure,
    maximally_mixed,
    simplex_state,
    validate_density,
)
from .strata import classify, stratum_dim_label

ENV_PREFIX = "STRATUMLAB_"

DOMAIN_EXIT = 3
SUITE_FAIL_EXIT = 4


class _Parser(argparse.ArgumentParser):
    """argparse prints usage and exits 2 on usage errors; this CLI reserves 2
    for validation failures, so a bad invocation raises SchemaError and
    exits 1 with one JSON error."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


_POSITIVE = (lambda x: math.isfinite(x) and x > 0, "a finite number > 0")


def _at_least(least: int):
    return (lambda x: x >= least, f"at least {least}")


# option: (type, range check, default, help); a suite's keyword default wins
_OPTIONS = {
    "tol-rank": (float, _POSITIVE, DEFAULT_TOL, "eigenvalue threshold for rank decisions"),
    "cluster-tol": (float, _POSITIVE, DEFAULT_CLUSTER_TOL, "eigenvalue clustering tolerance"),
    "epsilon": (float, _POSITIVE, None, "spectral split threshold (unset: gap / 4)"),
    "resolution": (int, _at_least(2), 25, "grid points per axis"),
    "seed": (int, _at_least(0), None, "master seed"),
    "trials": (int, _at_least(1), None, "trials per stratum pair"),
    "samples": (int, _at_least(1), None, "sample count"),
    "max-dim": (int, _at_least(2), None, "largest ambient dimension"),
    "nodes": (int, _at_least(MIN_NODES), None, "contour quadrature nodes"),
    "out": (str, None, None, "write the report here instead of stdout"),
}

# the options each command takes besides --out; a suite without a row: seed
_TAKES = {
    "classify": ("tol-rank", "cluster-tol"),
    "chart": ("tol-rank", "epsilon"),
    "verify whitney": ("seed", "trials", "max-dim"),
    "verify frontier": ("seed", "samples"),
    "verify join": ("seed", "samples"),
    "verify orbit-census": ("seed", "samples", "cluster-tol"),
    "verify projector-equiv": ("seed", "samples", "nodes"),
    "demo bloch": ("tol-rank", "cluster-tol", "resolution"),
    "demo cone": ("tol-rank", "cluster-tol", "resolution"),
    "demo simplex": ("tol-rank", "resolution"),
}
# a suite's keyword for an option, where it is not the option's own name
_KEYWORDS = {"verify orbit-census": {"samples": "draws"}}


def _keyword(command: str, option: str) -> str:
    return _KEYWORDS.get(command, {}).get(option, option.replace("-", "_"))


def _suites() -> dict:
    """verify.SUITES, imported only by a verify command: classify, chart and
    demo never load the suites, nor whitney, sampler or joins through them."""
    from .verify import SUITES

    return SUITES


def _defaults(command: str) -> dict:
    """{option: default} of every option the command takes, --out included."""
    defaults = {o: _OPTIONS[o][2] for o in _TAKES.get(command, ("seed",))}
    if command.startswith("verify "):
        params = inspect.signature(_suites()[command.removeprefix("verify ")]).parameters
        defaults = {o: getattr(params.get(_keyword(command, o)), "default", None) for o in defaults}
    return {**defaults, "out": None}


def _build_parser(argv: list) -> _Parser:
    """The parser of argv; the suite leaves are built only for a verify argv."""
    parser = _Parser(prog="stratumlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = {}
    p = leaves["classify"] = sub.add_parser("classify", help="rank stratum and orbit type")
    p.add_argument("input", help="matrix file (JSON)")
    p = leaves["chart"] = sub.add_parser("chart", help="conic chart around a center state")
    p.add_argument("center", help="matrix file of the chart center")
    p.add_argument("point", help="matrix file of the point to chart")
    for command, dest, names, text in (
        ("verify", "suite", _suites() if argv[:1] == ["verify"] else (),
         "run a randomized verification suite"),
        ("demo", "name", _DEMOS, "closed-form scans as CSV"),
    ):
        group = sub.add_parser(command, help=text).add_subparsers(dest=dest, required=True)
        for name in sorted(names):
            leaves[f"{command} {name}"] = group.add_parser(name)
    for command, p in leaves.items():
        defaults = _defaults(command)
        for option, default in defaults.items():
            cast, _, _, text = _OPTIONS[option]
            if default is not None:
                text += f" (default {default})"
            p.add_argument(f"--{option}", type=cast, help=text)
        p.set_defaults(options=defaults)
    return parser


def _given(args) -> dict:
    """{option: value} of the options set by flag or environment, range-checked."""
    given = {}
    for option in args.options:
        cast, valid, _, _ = _OPTIONS[option]
        value, source = getattr(args, option.replace("-", "_")), f"--{option}"
        env = ENV_PREFIX + option.upper().replace("-", "_")
        if value is None and env in os.environ:
            source, raw = env, os.environ[env]
            try:
                value = cast(raw)
            except ValueError as exc:
                raise SchemaError(f"{env}={raw!r} is not a valid {cast.__name__}") from exc
        if value is None:
            continue
        if valid is not None and not valid[0](value):
            raise SchemaError(f"{source} must be {valid[1]}, got {value!r}")
        given[option] = value
    return given


def _signature_string(sig) -> str:
    return ";".join("+".join(str(m) for m in block) for block in sig.per_block)


def _cmd_classify(args, config: dict, given: dict) -> tuple[str, int]:
    matrix, alg = read_matrix(args.input)
    rho = validate_density(matrix, alg, tol=config["tol_rank"])
    label = classify(rho)
    sig = orbit_signature(rho, cluster_tol=config["cluster_tol"])
    report = {
        "command": "classify",
        "config": config,
        "input": args.input,
        "alg": list(alg.block_sizes),
        "eigenvalues": [float(w) for w in rho.eigenvalues()],
        "rank_per_block": list(label.per_block),
        "total_rank": label.total,
        "stratum_dim": stratum_dim_label(label),
        "is_pure": is_pure(rho),
        "orbit_signature": [list(b) for b in sig.per_block],
        "isotropy_dim": isotropy_dim(sig),
        "orbit_dim": orbit_dim(rho),
        "unitary_group_dim": alg.unitary_group_dim,
    }
    return canonical_json(report), 0


def _cmd_chart(args, config: dict, given: dict) -> tuple[str, int]:
    center_m, center_alg = read_matrix(args.center)
    point_m, point_alg = read_matrix(args.point)
    if center_alg != point_alg:
        raise SchemaError(
            f"center algebra {list(center_alg.block_sizes)} differs from "
            f"point algebra {list(point_alg.block_sizes)}"
        )
    f = validate_density(center_m, center_alg, tol=config["tol_rank"])
    g = validate_density(point_m, point_alg, tol=config["tol_rank"])
    chart_cfg = chart_config_for(f, epsilon=config["epsilon"])
    p = chart_forward(f, g, chart_cfg)
    back = chart_inverse(p)
    report = {
        "command": "chart",
        "config": config,
        "center": args.center,
        "point": args.point,
        "alg": list(center_alg.block_sizes),
        "gap_a": chart_cfg.gap_a,
        "epsilon": chart_cfg.epsilon,
        "contour_radius": chart_cfg.contour_radius,
        "center_rank": p.frame_range.shape[1],
        "alpha": p.alpha,
        "kernel_projector": grid_payload(p.frame_kernel @ p.frame_kernel.conj().T),
        "cone_part": grid_payload(p.cone_part),
        "base_part": grid_payload(p.base_part),
        "round_trip_error": linalg.hs_norm(back.matrix - g.matrix),
    }
    return canonical_json(report), 0


def _cmd_verify(args, config: dict, given: dict) -> tuple[str, int]:
    command = f"verify {args.suite}"
    kwargs = {_keyword(command, o): v for o, v in given.items() if o != "out"}
    report = _suites()[args.suite](**kwargs)
    payload = {"command": "verify", "config": config, "report": report}
    return canonical_json(payload), 0 if report["passed"] else SUITE_FAIL_EXIT


def _fmt(x: float) -> str:
    return repr(float(x))


def _demo_bloch(resolution: int, tol_rank: float, cluster_tol: float) -> str:
    axis = np.linspace(-1.0, 1.0, resolution)
    rows = ["x1,x2,x3,eig_low,eig_high,valid,rank,signature"]
    for x1 in axis:
        for x2 in axis:
            for x3 in axis:
                norm = float(np.sqrt(x1 * x1 + x2 * x2 + x3 * x3))
                low, high = (1.0 - norm) / 2.0, (1.0 + norm) / 2.0
                valid = norm <= 1.0 + 1e-12
                if valid:
                    rho = bloch_state((x1, x2, x3), tol=tol_rank)
                    rank = str(classify(rho).total)
                    sig = _signature_string(orbit_signature(rho, cluster_tol=cluster_tol))
                else:
                    rank, sig = "", ""
                rows.append(
                    f"{_fmt(x1)},{_fmt(x2)},{_fmt(x3)},{_fmt(low)},{_fmt(high)},"
                    f"{int(valid)},{rank},{sig}"
                )
    return "\n".join(rows) + "\n"


def _demo_cone(resolution: int, tol_rank: float, cluster_tol: float) -> str:
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
                    rho = cone_state(t, (x1, 0.0, x3), tol=tol_rank)
                    label = classify(rho)
                    r1, r2 = label.per_block
                    total = str(label.total)
                    sig = _signature_string(orbit_signature(rho, cluster_tol=cluster_tol))
                    is_mixed = int(linalg.hs_norm(rho.matrix - mixed) <= 1e-12)
                    block_cols = f"{r1},{r2},{total},{sig},{is_mixed}"
                else:
                    block_cols = ",,,,"
                rows.append(
                    f"{_fmt(t)},{_fmt(x1)},{_fmt(0.0)},{_fmt(x3)},"
                    f"{_fmt(top)},{_fmt(plus)},{_fmt(minus)},{int(valid)},{block_cols}"
                )
    return "\n".join(rows) + "\n"


def _demo_simplex(resolution: int, tol_rank: float) -> str:
    n = resolution - 1
    rows = ["p1,p2,p3,p4,rank_per_block,total_rank,stratum_dim"]
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                d = n - a - b - c
                p = (a / n, b / n, c / n, d / n)
                rho = simplex_state(p, tol=tol_rank)
                label = classify(rho)
                ranks = ";".join(str(r) for r in label.per_block)
                rows.append(
                    f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])},{_fmt(p[3])},"
                    f"{ranks},{label.total},{stratum_dim_label(label)}"
                )
    return "\n".join(rows) + "\n"


_DEMOS = {"bloch": _demo_bloch, "cone": _demo_cone, "simplex": _demo_simplex}


def _cmd_demo(args, config: dict, given: dict) -> tuple[str, int]:
    return _DEMOS[args.name](**{k: v for k, v in config.items() if k != "out"}), 0


_COMMANDS = {"classify": _cmd_classify, "chart": _cmd_chart, "verify": _cmd_verify,
             "demo": _cmd_demo}


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv).parse_args(argv)
        given = _given(args)
        config = {o.replace("-", "_"): given.get(o, d) for o, d in args.options.items()}
        text, code = _COMMANDS[args.command](args, config, given)
        if config["out"] is None:
            sys.stdout.write(text)
        else:
            with open(config["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
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
