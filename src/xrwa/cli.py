"""Command-line scenario runner and benchmark harness.

Exit codes: 0 on success, 2 for configuration problems (a malformed bundle
among them), 3 when a world invariant is found broken or a proof is rejected.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import click

from . import xauth
from .credential import canonical_serialize
from .errors import ConfigError, InvariantViolation, XrwaError
from .experiments import EXPERIMENTS, MetricsReport, ScenarioConfig, run as run_experiment
from .fixtures import FIXTURE_TYPES, issue_fixture_set
from .primitives import read_field

EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _emit(report: MetricsReport, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    else:
        text = report.rows_csv()
    if out:
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"wrote {fmt} report to {out}")
    else:
        click.echo(text, nl=False)


def _guarded(fn):
    try:
        return fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except InvariantViolation as exc:
        click.echo(f"invariant violation: {exc}", err=True)
        sys.exit(EXIT_INVARIANT)
    except XrwaError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


def _run(out: str | None, fmt: str, config) -> None:
    _guarded(lambda: _emit(run_experiment(config()), out, fmt))


def _bench(out: str | None, fmt: str, seed: int, experiment: str, **options) -> None:
    """Run `experiment` with the options the user passed. One left out is
    None and is not passed on, so its value is the default in the
    experiment's signature."""
    params = {k: v for k, v in options.items() if v is not None}
    _run(out, fmt, lambda: ScenarioConfig(seed=seed, experiment=experiment, params=params))


def _int_list(ctx, param, text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise click.BadParameter(f"not a comma-separated list of integers: {text!r}") from None


def param_option(flag: str, experiment: str, name: str, help: str = "", **kwargs):
    """An option for one experiment param. It defaults to None, so a value
    the user leaves out is not passed on; the default shown in the help is
    read from the experiment's signature."""
    default = inspect.signature(EXPERIMENTS[experiment]).parameters[name].default
    shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
    return click.option(flag, name, help=f"{help}  [default: {shown}]".strip(), **kwargs)


out_option = click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout.")
format_option = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
seed_option = click.option("--seed", type=int, default=ScenarioConfig.seed, show_default=True)


@click.group()
def main() -> None:
    """Cross-chain asset toolkit: scenario replay and benchmarks."""


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=False), default=None, help="JSON scenario config.")
@seed_option
@out_option
@format_option
def run_cmd(config_path: str | None, seed: int, out: str | None, fmt: str) -> None:
    """Run a configured experiment (default: the end-to-end trade)."""
    _run(out, fmt, lambda: ScenarioConfig.from_file(config_path) if config_path else ScenarioConfig(seed=seed))


@main.command("bench-vc")
@param_option("--creds", "vc_bench", "n_creds", type=int, help="Credentials per iteration.")
@param_option("--iterations", "vc_bench", "iterations", type=int)
@seed_option
@out_option
@format_option
def bench_vc_cmd(n_creds: int | None, iterations: int | None, seed: int, out: str | None, fmt: str) -> None:
    """Benchmark credential issuance and verification latency."""
    _bench(out, fmt, seed, "vc_bench", n_creds=n_creds, iterations=iterations)


@main.command("bench-spv")
@param_option("--sizes", "spv_bench", "sizes", callback=_int_list, help="Comma-separated leaf counts.")
@param_option("--reps", "spv_bench", "reps", type=int)
@seed_option
@out_option
@format_option
def bench_spv_cmd(sizes: list[int] | None, reps: int | None, seed: int, out: str | None, fmt: str) -> None:
    """Benchmark inclusion-proof verification across block sizes."""
    _bench(out, fmt, seed, "spv_bench", sizes=sizes, reps=reps)


@main.command("cost-compare")
@param_option("--n", "cost_compare", "n", callback=_int_list, help="Comma-separated interaction counts.")
@seed_option
@out_option
@format_option
def cost_compare_cmd(n: list[int] | None, seed: int, out: str | None, fmt: str) -> None:
    """Compare per-route settlement cost totals from simulated op counts."""
    _bench(out, fmt, seed, "cost_compare", n=n)


@main.command("fixtures")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="fixtures", show_default=True)
def fixtures_cmd(out_dir: str) -> None:
    """Emit the seven golden credential documents."""

    def body():
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        for name, cred in issue_fixture_set().items():
            path = target / f"{name.lower()}.json"
            path.write_bytes(canonical_serialize(cred) + b"\n")
            click.echo(f"wrote {path}")
        click.echo(f"{len(FIXTURE_TYPES)} fixtures written to {target}")

    _guarded(body)


@main.command("verify-proof")
@click.option("--bundle", type=click.Path(exists=False), required=True, help="Report or bundle JSON with proof, tx and headers.")
def verify_proof_cmd(bundle: str) -> None:
    """Offline inclusion-proof check against a relayed header file."""

    def body():
        try:
            data = json.loads(Path(bundle).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read bundle {bundle}: {exc}") from None
        derived = data.get("derived") if isinstance(data, dict) else None
        artifacts = derived.get("artifacts", data) if isinstance(derived, dict) else data
        ok = xauth.offline_verify(
            read_field(artifacts, "proof", dict),
            read_field(artifacts, "tx", dict),
            read_field(artifacts, "headers", list),
        )
        click.echo("proof verifies" if ok else "proof REJECTED")
        if not ok:
            sys.exit(EXIT_INVARIANT)

    _guarded(body)


if __name__ == "__main__":
    main()
