"""Command-line entry point.

Subcommands: dist (distribution comparison), moments (surjection averages),
galois (conjugate-prime invariance demo), audit (balance report only), and
predict (theory values only). Exit codes: 0 success, 2 config error,
3 balance violation in strict mode, 4 indeterminate-rate failure, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BalanceError, ConfigError, DiagnosticsError, ParameterError
from .experiments import (
    balance_echo,
    emit_report,
    load_config,
    open_output,
    parse_formats,
    parse_seed,
    run_distribution_experiment,
    run_galois_demo,
    run_moment_experiment,
)
from .modules import enumerate_types, module_size, partitions_in_box
from .sampler import balance_report
from .theory import partial_sum, predicted_probability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BALANCE = 3
EXIT_DIAGNOSTICS = 4
EXIT_IO = 5

# types `predict` lists at most: the box of types within caps (4, 4) has 70
# types per prime, 70^r at r primes; 4900 types took 0.8 s on a 2-core sandbox
PREDICT_TYPES = 10_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coklab",
        description="Monte Carlo laboratory for cokernel distributions of random "
                    "matrices over Z, Z[i], and F_p[x].")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("dist", "compare observed cokernel-type frequencies with the limiting law"),
        ("moments", "estimate surjection-count averages against |N|^-u"),
        ("galois", "conjugate-prime invariance demo over Z[i]"),
        ("audit", "print the balance report for the configured distribution"),
        ("predict", "print limiting probabilities for types within the caps"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="worker processes")
        p.add_argument("--out", default=None, help="output path stem for reports")
        p.add_argument("--format", default=None,
                       help="comma-separated subset of csv,json,svg")
        p.add_argument("--no-strict-balance", action="store_true",
                       help="run even when some audited epsilon is zero")
    return parser


def _apply_overrides(cfg, args):
    """cfg with the command-line overrides. The seed and strict_balance
    overrides also go into ``raw``, the config echoed in the JSON report, so
    the echo states the run's settings; --out and --format choose where
    reports go and which files, not what they hold, and leave it as read."""
    from dataclasses import replace
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    if args.seed is not None:
        seed = parse_seed(args.seed)
        cfg = replace(cfg, seed=seed, raw={**cfg.raw, "seed": seed})
    if args.out is not None:
        cfg = replace(cfg, out_path=args.out)
    if args.format is not None:
        formats = parse_formats(f.strip() for f in args.format.split(",") if f.strip())
        cfg = replace(cfg, formats=formats)
    if args.no_strict_balance:
        cfg = replace(cfg, strict_balance=False, raw={**cfg.raw, "strict_balance": False})
    return cfg


def _print_distribution(summary):
    print(f"domain {summary.domain}, primes {list(summary.primes)}, u={summary.u}, "
          f"seed={summary.seed}, {summary.trials} trials per n")
    for s in summary.per_n:
        print(f"\nn = {s.n}   TV distance {s.tv_distance:.5f}   "
              f"chi2 {s.chi2:.2f} (df {s.chi2_df})   indeterminate {s.indeterminate_count}")
        print(f"{'type':<24}{'count':>8}{'freq':>10}{'stderr':>10}{'predicted':>12}")
        for b in s.buckets:
            print(f"{b.type_string:<24}{b.count:>8}{b.frequency:>10.5f}"
                  f"{b.stderr:>10.5f}{b.prediction:>12}")
    print(f"\nwall {summary.wall_seconds:.2f}s "
          f"({summary.trials_per_second:.0f} trials/s)", file=sys.stderr)


def _print_moments(summary):
    print(f"domain {summary.domain}, primes {list(summary.primes)}, u={summary.u}, "
          f"seed={summary.seed}")
    print(f"{'n':>5} {'target':<18}{'estimate':>12}{'stderr':>10}{'predicted':>12}")
    for r in summary.rows:
        print(f"{r.n:>5} {r.target:<18}{r.estimate:>12.5f}{r.stderr:>10.5f}{r.prediction:>12}")


def _print_galois(summary):
    print(f"Z[i] conjugate primes ({summary.prime}) and ({summary.conjugate}), "
          f"n={summary.n}, {summary.trials} trials, seed={summary.seed}")
    print(f"conjugate partitions equal in fraction {summary.equal_fraction:.6f} of trials")
    if summary.asymmetric_rows:
        print("asymmetric types observed:")
        for t, c, f in summary.asymmetric_rows:
            print(f"  {t:<28} count {c:>6}  frequency {f:.6f}")
    else:
        print("no asymmetric types observed")


def _cmd_audit(cfg):
    report = balance_report(cfg.distribution, cfg.domain, cfg.primes)
    print(f"balance audit modulo {report.modulus}:")
    print(f"{'ideal':<12}{'p':>4}{'dim':>5}  {'worst hyperplane':<20}{'mass':>10}{'epsilon':>10}")
    for e in report.entries:
        print(f"{e.label:<12}{e.p:>4}{e.dim:>5}  {e.worst_hyperplane:<20}"
              f"{str(e.worst_mass):>10}{str(e.epsilon):>10}")
    print(f"overall epsilon: {report.overall}")
    if cfg.out_path:
        data = {
            "modulus": report.modulus,
            "entries": list(balance_echo(report)),
            "overall": str(report.overall),
        }
        with open_output(cfg.out_path + ".json") as fh:
            json.dump(data, fh, sort_keys=True, indent=2, ensure_ascii=False)
            fh.write("\n")
    if cfg.strict_balance:
        report.require_balanced()
    return EXIT_OK


def _cmd_predict(cfg):
    E, m = min(cfg.cap_exponent, 4), min(cfg.cap_parts, 4)
    types = len(partitions_in_box(E, m)) ** len(cfg.primes)
    if types > PREDICT_TYPES:
        raise ConfigError(f"predict would list {types} types within caps ({E}, {m}) at "
                          f"{len(cfg.primes)} primes, over its budget of {PREDICT_TYPES}")
    box = partial_sum(cfg.primes, cfg.u, cfg.cap_exponent, cfg.cap_parts)
    print(f"primes {[pr.descriptor for pr in cfg.primes]}, u={cfg.u}, "
          f"caps ({cfg.cap_exponent}, {cfg.cap_parts})")
    print(f"{'type':<24}{'|N|':>8}{'probability':>16}{'trunc bound':>14}")
    rows = []
    for N in enumerate_types(cfg.primes, E, m):
        pred = predicted_probability(N, cfg.primes, cfg.u)
        rows.append((module_size(N), str(N), pred))
    for size, name, pred in sorted(rows, key=lambda r: (r[0], r[1])):
        print(f"{name:<24}{size:>8}{pred.value:>16.10f}{float(pred.truncation_bound):>14.1e}")
    print(f"partial sum over the full caps: {box.value:.10f} "
          f"(truncation bound {float(box.truncation_bound):.1e})")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
    except (ConfigError, ParameterError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "audit":
            return _cmd_audit(cfg)
        if args.command == "predict":
            return _cmd_predict(cfg)
        if args.command == "dist":
            summary = run_distribution_experiment(cfg, threads=args.threads)
            _print_distribution(summary)
        elif args.command == "moments":
            summary = run_moment_experiment(cfg, threads=args.threads)
            _print_moments(summary)
        else:
            summary = run_galois_demo(cfg, threads=args.threads)
            _print_galois(summary)
        if cfg.out_path:
            written = emit_report(summary, cfg.formats, cfg.out_path)
            for path in written:
                print(f"wrote {path}", file=sys.stderr)
        return EXIT_OK
    except BalanceError as e:
        print(f"balance violation: {e}", file=sys.stderr)
        return EXIT_BALANCE
    except DiagnosticsError as e:
        print(f"diagnostics failure: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except (ConfigError, ParameterError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
