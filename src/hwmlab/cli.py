"""Command-line front end.

Exit codes: 0 success / all-pass, 1 invariant failure, 2 usage or config
error.  Every subcommand takes the same flags; CLI flags override the
config file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .config import ConfigError, DEFAULT_TEXT, load_config, parse_config
from . import experiments


def _common(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="Flat key=value config file.")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default=None,
                      help="Output directory (default from config).")(fn)
    fn = click.option("--seed", type=int, default=None, help="Override the config seed.")(fn)
    fn = click.option("--quiet", is_flag=True, default=False, help="Suppress progress lines.")(fn)
    return fn


def _load(config_path, experiment, seed, out_dir):
    overrides = {"experiment": experiment}
    if seed is not None:
        overrides["seed"] = seed
    if out_dir is not None:
        overrides["out"] = str(out_dir)
    try:
        if config_path is None:
            return parse_config("", overrides=overrides)
        return load_config(config_path, overrides=overrides)
    except FileNotFoundError as exc:
        raise click.UsageError(f"config file not found: {exc}")
    except ConfigError as exc:
        raise click.UsageError(str(exc))


def _dispatch(runner, config_path, experiment, seed, out_dir, quiet):
    cfg = _load(config_path, experiment, seed, out_dir)
    try:
        code = runner(cfg, Path(cfg.out), quiet=quiet)
    except (ValueError, FileNotFoundError) as exc:
        # bad datum parameters (cutoff too small, infeasible embedding, ...)
        raise click.UsageError(str(exc))
    except RuntimeError as exc:
        click.echo(f"invariant failure: {exc}", err=True)
        sys.exit(1)
    sys.exit(code)


@click.group()
@click.version_option()
def main():
    """Laboratory runs for the half-wave maps flow and its operator data."""


@main.command()
@_common
def evolve(config_path, out_dir, seed, quiet):
    """Evolve a rational datum; write trajectory CSV and loop snapshots."""
    _dispatch(experiments.run_evolve, config_path, "evolve", seed, out_dir, quiet)


@main.command()
@_common
def spectrum(config_path, out_dir, seed, quiet):
    """Toeplitz spectral report and Hankel rank sweep as JSON."""
    _dispatch(experiments.run_spectrum, config_path, "spectrum", seed, out_dir, quiet)


@main.command()
@_common
def stability(config_path, out_dir, seed, quiet):
    """Strong-stability verdicts for the flow model of the configured datum."""
    _dispatch(experiments.run_stability, config_path, "stability", seed, out_dir, quiet)


@main.command()
@_common
def zdbo(config_path, out_dir, seed, quiet):
    """Zero-dispersion norm-loss curve across cutoffs; onset localization."""
    _dispatch(experiments.run_zdbo, config_path, "zdbo", seed, out_dir, quiet)


@main.command()
@_common
def validate(config_path, out_dir, seed, quiet):
    """Check the configured datum's invariants along its flow; nonzero exit on any failure."""
    _dispatch(experiments.run_validate, config_path, "validate", seed, out_dir, quiet)


@main.command()
@_common
def bench(config_path, out_dir, seed, quiet):
    """Timing table: plan build vs per-time solve vs RK4 stepping."""
    _dispatch(experiments.run_bench, config_path, "bench", seed, out_dir, quiet)


@main.command("init-config")
@click.argument("path", type=click.Path())
def init_config(path):
    """Write a template config file."""
    experiments.write_text_atomic(Path(path), DEFAULT_TEXT)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
