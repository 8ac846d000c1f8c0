"""Command-line front end.

Exit codes: 0 success / all-pass, 1 invariant or numerical failure (a
failed eigensolve), 2 usage or config error.  Every subcommand takes the
same flags; CLI flags override the config file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from .config import EXPERIMENTS, ConfigError, DEFAULT_TEXT, load_config, parse_config
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
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    except ConfigError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option()
def main():
    """Laboratory runs for the half-wave maps flow and its operator data."""


def _register(name):
    """Add subcommand ``name``: it runs ``experiments.run_<name>``, looked up
    on each call, and its help is that runner's docstring."""

    @main.command(name, help=getattr(experiments, f"run_{name}").__doc__)
    @_common
    def command(config_path, out_dir, seed, quiet):
        cfg = _load(config_path, name, seed, out_dir)
        out = Path(cfg.out)
        # checked, not made: a run refused later (say, for its datum) leaves no directory behind
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise click.UsageError(f"cannot create output directory {out}: {existing} is not a directory")
        try:
            code = getattr(experiments, f"run_{name}")(cfg, out, quiet=quiet)
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            # before ValueError: LinAlgError subclasses it, and is not a usage error
            kind = "numerical" if isinstance(exc, np.linalg.LinAlgError) else "invariant"
            click.echo(f"{kind} failure: {exc}", err=True)
            sys.exit(1)
        except ValueError as exc:
            # bad datum parameters (cutoff too small, infeasible embedding, unreadable loop file, ...)
            raise click.UsageError(str(exc))
        sys.exit(code)


for _name in EXPERIMENTS:
    _register(_name)


@main.command("init-config")
@click.argument("path", type=click.Path())
def init_config(path):
    """Write a template config file."""
    try:
        experiments.write_text_atomic(Path(path), DEFAULT_TEXT)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
