"""Batch command-line front end.

Four subcommands: ``analyze`` (per-state security report as JSON),
``frontier`` (security-boundary curves as CSV), ``simulate`` (seeded
Monte-Carlo of the measurement + distillation protocol, JSON), and
``oracle-check`` (grid-oracle agreement suite).

Values may come from flags, from a ``key=value`` config file (``--config``),
or from the defaults that ``--help`` shows, in that precedence order.  Config keys
are exact flag names (``_`` may stand for ``-``); entries are parsed as
``--key=value`` flags placed ahead of the command line, so they get the same
type and choice checks and the real flags win.  Exit codes: 0 success, 1 usage
or parse error, 2 domain error (unphysical parameters), 3 internal numerical
failure.
"""

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import matkit, oracle, protocol, security
from .errors import GaussKeyError, InvalidInput
from .gaussian import (
    GaussianState,
    SymmetricStateParams,
    condition_on_x,
    pure_overlap,
    purify,
    symmetric_embed,
)

_EXIT_USAGE = 1
_EXIT_DOMAIN = 2
_EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this project reserves 2 for
    # domain errors, so route usage problems through exit code 1 instead
    def error(self, message):
        raise _UsageError(message)


def _fmt(x):
    """A float rounded to 12 significant digits for stable golden outputs."""
    return float(f"{x:.12g}")


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _dump_json(obj, out_path):
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _read_config(path, flags):
    """The ``key=value`` lines of a config file as ``--key=value`` tokens;
    each key, with ``_`` read as ``-``, must name one of ``flags`` exactly.
    A line whose first non-blank character is ``#`` is a comment; a ``#``
    anywhere else is part of the line, so a value keeps it as a flag would."""
    tokens = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise _UsageError(f"{path}:{lineno}: key 'config' is not allowed in a config file")
        if flag not in flags:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        tokens.append(f"{flag}={val}")
    return tokens


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            # the option string, not the dest: --lambda stores to lam
            flag = next(o for o, a in _parser().commands[args.command].flags.items() if a.dest == name)
            raise _UsageError(f"missing required value {flag}")


def _params(args):
    """The state named by ``--lambda/--cx/--cp``; an unphysical one raises
    ``InvalidInput`` (exit 2)."""
    _require(args, ("lam", "cx", "cp"))
    return SymmetricStateParams(args.lam, args.cx, args.cp)


def _add_param_flags(sp):
    sp.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="local quadrature variance of both modes")
    sp.add_argument("--cx", type=float, default=None, help="X-X correlation")
    sp.add_argument("--cp", type=float, default=None, help="P-P anticorrelation magnitude")


def _add_common(sp):
    sp.add_argument("--out", default=None, help="write output to this file instead of stdout")
    sp.add_argument("--config", default=None, help="key=value config file")


def build_parser():
    parser = _Parser(prog="gausskey",
                     description="Secret-key distillation analysis for symmetric "
                                 "two-mode Gaussian states")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser, for _parse

    sp = sub.add_parser("analyze", help="security report for one parameter point")
    _add_param_flags(sp)
    sp.add_argument("--x0-max", dest="x0_max", type=float, default=security.X0_MAX,
                    help="upper end of the threshold search range (default %(default)s)")
    _add_common(sp)

    sp = sub.add_parser("frontier", help="security frontier over the cx=cp=c slice")
    sp.add_argument("--c-min", dest="c_min", type=float, default=0.1,
                    help="smallest correlation c (default %(default)s)")
    sp.add_argument("--c-max", dest="c_max", type=float, default=3.0,
                    help="largest correlation c (default %(default)s)")
    sp.add_argument("--steps", type=int, default=30, help="grid points (default %(default)s)")
    sp.add_argument("--attack", default=security.INDIVIDUAL, choices=security.ATTACK_KINDS,
                    help="attack model (default %(default)s)")
    sp.add_argument("--format", choices=("json", "csv"), default="csv",
                    help="output format (default %(default)s)")
    _add_common(sp)

    sp = sub.add_parser("simulate", help="Monte-Carlo of sifting + advantage distillation")
    _add_param_flags(sp)
    sp.add_argument("--x0", type=float, default=None, help="postselection threshold")
    sp.add_argument("--window", type=float, default=0.01,
                    help="acceptance half-width around x0 (default %(default)s)")
    sp.add_argument("--pairs", type=int, default=1_000_000,
                    help="measured pairs (default %(default)s)")
    sp.add_argument("--block-n", dest="block_n", type=int, default=2,
                    help="advantage-distillation block size (default %(default)s)")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker threads, at most the CPU count; output does not depend on this "
                         "(default %(default)s)")
    sp.add_argument("--seed", type=int, default=12345, help="RNG seed (default %(default)s)")
    _add_common(sp)

    sp = sub.add_parser("oracle-check", help="grid-oracle agreement suite")
    sp.add_argument("--level", choices=("quick", "full"), default="quick",
                    help="quick skips the 4-mode sector checks (default %(default)s)")
    _add_common(sp)
    for sp in parser.commands.values():
        # exact long option -> its Action, for _parse's plain pass; --help stays argparse's
        sp.flags = {option: action for action in sp._actions for option in action.option_strings
                    if option.startswith("--") and option != "--help"}
    return parser


@functools.cache
def _parser():
    """The parser :func:`main` reuses, built on first use: parsing leaves
    nothing on it, each call returns a fresh namespace."""
    return build_parser()


def _plain_pass(flags, argv):
    """The namespace argparse would give an ``argv`` of ``--flag value`` and
    ``--flag=value`` pairs, each flag an exact key of ``flags`` and each value
    free of a leading ``-`` and accepted by its type and choices; ``None`` for
    any other ``argv``, whose help, abbreviations, errors and leading dashes
    only argparse handles."""
    values = {action.dest: action.default for action in flags.values()}
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "-")  # a flag without a value declines below
        action = flags.get(flag)
        if action is None or value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def _parse(argv):
    """``_parser().parse_args(argv)``: a leading subcommand name hands the
    rest to :func:`_plain_pass`.  Whatever that declines (help,
    abbreviations, errors), and an argv that names no subcommand, goes
    through the top-level parser, which hands it to the subparser; that
    path is cold."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _plain_pass(command.flags, argv[1:])
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def cmd_analyze(args):
    params = _params(args)
    report = security.build_report(params, x0_max=args.x0_max)
    _dump_json(
        {
            "lambda": _fmt(params.lam),
            "c_x": _fmt(params.cx),
            "c_p": _fmt(params.cp),
            "physical": True,
            "nppt": report.nppt,
            "eps_ab_at_best_x0": _fmt(report.eps_ab),
            "eve_overlap": _fmt(report.eve_overlap),
            "individual_secure": report.individual_secure,
            "coherent_ad_secure": report.coherent_ad_secure,
            "rate_lb": _fmt(report.rate_lb),
            "best_x0": _fmt(report.best_x0),
        },
        args.out,
    )
    return 0


_FRONTIER_COLUMNS = ("c", "lambda_star", "lambda_solid", "lambda_dashed")


def cmd_frontier(args):
    if not 2 <= args.steps <= 1_000_000:
        raise _UsageError("--steps must be between 2 and 1000000")
    if not args.c_min < args.c_max:
        raise _UsageError("--c-min must be below --c-max")
    # np.linspace warns on an infinite bound or width; the grid rule is security_frontier's
    if not np.isfinite(args.c_max - args.c_min):
        raise InvalidInput("--c-min, --c-max and their difference must be finite")
    grid = np.linspace(args.c_min, args.c_max, args.steps)
    if np.any(np.diff(grid) <= 0):
        raise _UsageError(
            f"the --c-min..--c-max range holds fewer than --steps={args.steps} distinct values"
        )
    rows = [
        (c, lam, *security.frontier_rails(c))
        for c, lam in security.security_frontier(grid, args.attack)
    ]
    if args.format == "json":
        _dump_json([dict(zip(_FRONTIER_COLUMNS, map(_fmt, row))) for row in rows], args.out)
    else:
        lines = [",".join(_FRONTIER_COLUMNS)] + [",".join(f"{v:.12g}" for v in row) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args):
    _require(args, ("lam", "cx", "cp", "x0"))
    if args.workers < 1:
        raise _UsageError("--workers must be at least 1")
    params = _params(args)
    # held back until the run has succeeded, so an error stays one line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = protocol.ProtocolConfig(x0=args.x0, window=args.window, n_pairs=args.pairs,
                                      block_n=args.block_n, seed=args.seed)
    base = matkit.Rng(cfg.seed)
    bits = protocol.simulate_sifting(params, cfg, base.substream(0), workers=args.workers)
    accepted = len(bits.alice)
    eps_th = protocol.error_probability(params, cfg.x0)
    if accepted < cfg.block_n:
        few = f"only {accepted} pairs accepted, fewer than --block-n {cfg.block_n}"
        print(f"{few if accepted else 'no pairs accepted'}; enlarge --pairs or --window", file=sys.stderr)
        return _EXIT_NUMERICAL
    eps_emp = float(np.mean(bits.alice != bits.bob))
    outcome = protocol.simulate_advantage_distillation(bits, cfg.block_n, base.substream(1))
    kept = len(outcome.kept_bits_alice)
    eps_n_th = protocol.ad_error(eps_th, cfg.block_n)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    _dump_json(
        {
            "accepted": accepted,
            "acceptance_rate": _fmt(bits.acceptance_rate),
            "eps_empirical": _fmt(eps_emp),
            "eps_theory": _fmt(eps_th),
            "blocks": outcome.blocks_consumed,
            "blocks_kept": kept,
            "eps_n_empirical": _fmt(outcome.empirical_error),
            "eps_n_theory": _fmt(eps_n_th),
            "stderr_estimates": {
                "eps": _fmt(float(np.sqrt(eps_th * (1 - eps_th) / accepted))),
                "eps_n": _fmt(float(np.sqrt(eps_n_th * (1 - eps_n_th) / kept)) if kept else 0.0),
            },
        },
        args.out,
    )
    return 0


def _oracle_checks(level):
    """Yield (name, observed, expected, tol) agreement checks."""
    ax = oracle.GridAxis(-8.0, 8.0, 201)
    vac = oracle.wavefunction_from_pure(np.eye(2), np.zeros(2), ax)
    ref = np.pi**-0.25 * np.exp(-(ax.nodes**2) / 2.0)
    yield ("vacuum wavefunction", float(np.abs(vac.amplitudes - ref).max()), 0.0, 1e-12)

    d1, d2 = np.array([2.0, 0.0]), np.array([0.0, 2.0])
    disp = oracle.wavefunction_from_pure(np.eye(2), d1, ax)
    ov = oracle.grid_overlap(vac, disp)
    yield ("displaced overlap magnitude", abs(ov) ** 2, float(np.exp(-2.0)), 1e-5)

    # complex-valued check pins the overlap phase convention
    wb = oracle.wavefunction_from_pure(np.eye(2), d2, ax)
    got = oracle.grid_overlap(disp, wb)
    want = pure_overlap(np.eye(2), d1, d2)
    yield ("overlap phase convention", abs(got - want), 0.0, 1e-6)

    sq = oracle.wavefunction_from_pure(np.diag([2.0, 0.5]), np.zeros(2), ax)
    cm_est, _ = oracle.grid_moments(sq)
    yield ("squeezed X variance", cm_est[0, 0] / 2.0, 1.0, 1e-4)

    pur = purify(GaussianState(np.diag([2.0, 2.0]), np.zeros(2)))
    psi2 = oracle.wavefunction_from_pure(pur.cm, pur.dv, ax)
    cond_grid = oracle.grid_condition_on_x(psi2, [0], [0.8])
    cmc, _ = oracle.grid_moments(cond_grid)
    cond = condition_on_x(pur, (0,), np.array([0.8]))
    yield ("thermal-purification conditioning", float(np.abs(cmc - cond.state.cm).max()), 0.0, 1e-3)

    coarse = oracle.GridAxis(-8.0, 8.0, 101)
    ov_coarse = oracle.grid_overlap(
        oracle.wavefunction_from_pure(np.eye(2), np.zeros(2), coarse),
        oracle.wavefunction_from_pure(np.eye(2), d1, coarse),
    )
    yield ("grid refinement stability", abs(abs(ov_coarse) ** 2 - abs(ov) ** 2), 0.0, 4e-5)

    if level != "full":
        return

    params = SymmetricStateParams(1.5, 1.0, 1.0)
    pur4 = purify(symmetric_embed(params))
    big = oracle.GridAxis(-20.0 / 3.0, 20.0 / 3.0, 41)  # spacing 1/3 keeps x0=1 on-grid
    weights, states = oracle.grid_sector_states(pur4.cm, pur4.dv, big, 1.0)
    e_pp, e_mm = states[:2]
    got4 = abs(oracle.grid_overlap(e_pp, e_mm)) ** 2
    ens = security.eve_ensemble(params, 1.0)
    yield ("4-mode adversary overlap", got4, abs(ens.gram[0, 1]) ** 2, 1e-3)

    cm_grid, dv_grid = oracle.grid_moments(e_pp)
    cond4 = ens.states["++"].state
    yield ("4-mode conditional CM", float(np.abs(cm_grid - cond4.cm).max()), 0.0, 2e-3)
    yield ("4-mode conditional DV", float(np.abs(dv_grid - cond4.dv).max()), 0.0, 2e-3)

    spec = oracle.grid_reduced_spectrum(weights, states)
    eff = security.effective_state(params, 1.0)
    w, _ = matkit.eigh(eff.rho)
    yield ("reduced-state spectrum", float(np.abs(np.sort(spec) - np.sort(w.real)).max()), 0.0, 1e-3)
    s_grid = matkit.entropy_bits(np.clip(np.asarray(spec, float), 0.0, None))
    s_exact = matkit.entropy_bits(np.clip(w.real, 0.0, None))
    yield ("reduced-state entropy", abs(s_grid - s_exact), 0.0, 5e-3)


def cmd_oracle_check(args):
    failures = 0
    lines = []
    for name, observed, expected, tol in _oracle_checks(args.level):
        ok = abs(observed - expected) <= tol
        failures += 0 if ok else 1
        status = "ok" if ok else "FAIL"
        lines.append(
            f"{status:4s} {name}: observed={observed:.6g} expected={expected:.6g} tol={tol:g}"
        )
    summary = "PASS" if failures == 0 else f"FAIL ({failures} checks)"
    _emit("\n".join(lines) + f"\n{summary}\n", args.out)
    return 0 if failures == 0 else _EXIT_NUMERICAL


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args.config:
            # the command comes first: the top-level parser has no options
            flags = _parser().commands[args.command].flags
            args = _parse(argv[:1] + _read_config(args.config, flags) + argv[1:])
        handler = {
            "analyze": cmd_analyze,
            "frontier": cmd_frontier,
            "simulate": cmd_simulate,
            "oracle-check": cmd_oracle_check,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except InvalidInput as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except GaussKeyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
