"""Batch command-line interface.

    skt <check|simulate|adjoint|verify|report> --config <path>
        [--campaign <name>] [--out <dir>]

Exit codes: 0 ok, 2 configuration error (``--campaign`` with any command
but ``verify`` is one, and so is a stored forward run that ``adjoint``
finds made from another forward problem than its config's, or missing a
snapshot of a step its config stores or holding one it does not, or a grid
or step count too large to allocate), 3 numerical
failure, 4 invariant violation (verify only).  Errors go to stderr with
the machine-parsable prefix ``SKT-ERR:<code>:``.  A campaign that fails
numerically prints the gate lines it reached before it exits 3 with a
message that names the gate that failed.
"""

from __future__ import annotations

import argparse
import enum
import sys
from pathlib import Path

from sktsim.algebra import check_conditions, max_alpha
from sktsim.campaigns import CAMPAIGNS, run_campaign
from sktsim.config import RunConfig, parse_config
from sktsim.forward import NumericalFailure, run_forward
# Out of order on purpose: campaigns and config load sktsim.adjoint already, and
# naming it first reorders the package's imports, which costs ~0.4 MB of peak RSS.
from sktsim.adjoint import run_adjoint
from sktsim.output import (
    load_forward_trajectory,
    render_report,
    write_adjoint_outputs,
    write_forward_outputs,
)

__all__ = ["ExitStatus", "main"]


class ExitStatus(enum.IntEnum):
    OK = 0
    CONFIG_ERROR = 2
    NUMERICAL_FAILURE = 3
    INVARIANT_VIOLATION = 4


def _fail(code: ExitStatus, message: str) -> int:
    print(f"SKT-ERR:{int(code)}: {message}", file=sys.stderr)
    return int(code)


def cmd_check(cfg: RunConfig) -> int:
    report = check_conditions(cfg.coefficients)
    print(f"holds_1_5c = {str(report.holds_1_5c).lower()}")
    print(f"holds_coef_cond = {str(report.holds_coef_cond).lower()}")
    print(f"margin_1_5c = {report.margin_1_5c:.17g}")
    print(f"margin_coef_cond_a = {report.margins_coef_cond[0]:.17g}")
    print(f"margin_coef_cond_b = {report.margins_coef_cond[1]:.17g}")
    print(f"d0 = {cfg.coefficients.d0:.17g}")
    if report.holds_coef_cond:
        print(f"max_alpha = {max_alpha(cfg.coefficients):.17g}")
    else:
        print("max_alpha = unavailable (coefficient condition fails)")
    return int(ExitStatus.OK)


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    trajectory = run_forward(cfg.forward_problem())
    write_forward_outputs(out_dir, trajectory, cfg)
    print(f"simulated {trajectory.time_grid.steps} steps "
          f"({len(trajectory.stored_steps)} snapshots) into {out_dir}")
    return int(ExitStatus.OK)


def cmd_adjoint(cfg: RunConfig, out_dir: Path) -> int:
    trajectory = load_forward_trajectory(out_dir, cfg)
    if trajectory is None:
        trajectory = run_forward(cfg.forward_problem())
        write_forward_outputs(out_dir, trajectory, cfg)
        print(f"no stored trajectory under {out_dir}; ran the forward solve first")
    phi_traj, report = run_adjoint(cfg.coefficients, cfg.bc, trajectory, cfg.eps, cfg.rhs,
                                   cfg.terminal, stride=cfg.stride)
    write_adjoint_outputs(out_dir, phi_traj, report)
    print(f"adjoint march complete: sup H1 {report.sup_h1:.6g}, "
          f"kappa_sup {report.kappa_sup:.6g} (report in {out_dir})")
    return int(ExitStatus.OK)


def cmd_verify(cfg: RunConfig, out_dir: Path, campaign: str | None) -> int:
    if campaign is None:
        return _fail(ExitStatus.CONFIG_ERROR,
                     f"verify requires --campaign (one of {sorted(CAMPAIGNS)})")
    try:
        results = run_campaign(campaign, cfg, out_dir)
    except NumericalFailure as exc:
        for result in exc.results:
            print(result.line())
        return _fail(ExitStatus.NUMERICAL_FAILURE,
                     f"campaign '{campaign}' stopped after {len(exc.results)} checks, "
                     f"in gate '{exc.gate}': {exc}")
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        print(f"campaign '{campaign}': all {len(results)} checks passed")
        return int(ExitStatus.OK)
    failed = sum(1 for r in results if not r.passed)
    print(f"SKT-ERR:4: campaign '{campaign}': {failed} of {len(results)} checks failed",
          file=sys.stderr)
    return int(ExitStatus.INVARIANT_VIOLATION)


def cmd_report(out_dir: Path) -> int:
    written = render_report(out_dir, out_dir / "report")
    print(f"rendered {len(written)} files into {out_dir / 'report'}")
    return int(ExitStatus.OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skt",
        description="Cross-diffusion simulator and estimate-verification harness")
    parser.add_argument("command",
                        choices=("check", "simulate", "adjoint", "verify", "report"))
    parser.add_argument("--config", required=True, help="path to a key = value run config")
    parser.add_argument("--campaign", choices=sorted(CAMPAIGNS),
                        help="verification campaign name (verify only)")
    parser.add_argument("--out", help="output directory (default: output.dir from the config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.campaign is not None and args.command != "verify":
        return _fail(ExitStatus.CONFIG_ERROR,
                     f"--campaign applies to verify only, not {args.command}")
    try:
        cfg = parse_config(args.config)
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "adjoint":
            return cmd_adjoint(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.campaign)
        return cmd_report(out_dir)
    except NumericalFailure as exc:
        return _fail(ExitStatus.NUMERICAL_FAILURE, str(exc))
    except MemoryError as exc:
        # Raised at once by an allocation larger than the machine can map.
        return _fail(ExitStatus.CONFIG_ERROR,
                     f"{args.config}: the grid (dim, grid.n) or the step count "
                     f"(time.t_final / time.dt) is too large to allocate"
                     + (f": {exc}" if str(exc) else ""))
    except (OSError, ValueError) as exc:
        return _fail(ExitStatus.CONFIG_ERROR, str(exc))


if __name__ == "__main__":
    sys.exit(main())
