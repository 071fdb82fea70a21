"""Command-line front end: build, verify, ball, table, solve, export.

Exit codes: 0 on success, 1 on a domain error, 2 on a usage error.
One rule gives the 1: any ``ValueError`` or ``OSError`` a command
raises (bad parameters for a family, malformed or unreadable input, a
region cap exceeded) exits 1 with its message; ``verify`` also exits 1
when a condition fails.  Click reports usage errors with exit 2.
"""

from __future__ import annotations

import sys

import click

from . import formulas, solver, verification
from .constructions import (
    FAMILY_CODES,
    build_family,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
)
from .lattice_core import LatticeParity


class _RangeType(click.ParamType):
    """Inclusive integer range: "A..B", or a single "N" for N..N."""

    name = "range"

    def convert(self, value, param, ctx):
        if isinstance(value, range):
            return value
        text = str(value)
        lo, sep, hi = text.partition("..")
        try:
            a = int(lo)
            b = int(hi) if sep else a
        except ValueError:
            self.fail(f"{text!r} is not N or A..B", param, ctx)
        if b < a:
            self.fail(f"range {text!r} is empty (bounds reversed)", param, ctx)
        return range(a, b + 1)


RANGE = _RangeType()

_PARITY = click.Choice(["even", "odd"])


class _Group(click.Group):
    """Command group that turns a command's ValueError or OSError into exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from None


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


@click.group(cls=_Group)
def main():
    """Bounded-degree, bounded-diameter mesh subgraphs: build and study."""


@main.command()
@click.option("--family", required=True,
              type=click.Choice(FAMILY_CODES))
@click.option("--k", required=True, type=int)
@click.option("--p", type=int, default=None,
              help="Radius parameter; omit for the edge family.")
@click.option("--parity", type=_PARITY, default=None,
              help="Lattice parity; default the family's lattice (even for the cycle).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the graph JSON here instead of standard output.")
def build(family, k, p, parity, out):
    """Build one family member and emit its canonical graph JSON."""
    par = LatticeParity(parity) if parity is not None else None
    text = graph_to_json(build_family(family, k, p, par))
    if out is None:
        click.echo(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


@main.command()
@click.option("--in", "path", required=True, type=click.Path(dir_okay=False))
def verify(path):
    """Check a stored graph against its family's defining conditions."""
    report = verification.check_conditions(_read_graph(path))
    for line in verification.report_lines(report):
        click.echo(line)
    if not report.passed:
        sys.exit(1)


@main.command()
@click.option("--parity", required=True, type=_PARITY)
@click.option("--k", required=True, type=int)
@click.option("--p", required=True, type=int)
@click.option("--enumerate", "check", is_flag=True,
              help="Cross-check the closed form against full enumeration.")
def ball(parity, k, p, check):
    """Count lattice points in the taxicab ball, optionally by enumeration."""
    spec = formulas.BallSpec(LatticeParity(parity), k, p)
    count = formulas.ball_count(spec)
    click.echo(str(count))
    if check:
        points = formulas.ball_enumerate(spec)
        match = "true" if len(points) == count else "false"
        click.echo(f"oracle-match={match}")


@main.command()
@click.option("--parity", required=True, type=_PARITY)
@click.option("--k", "k_range", required=True, type=RANGE, help="Dimensions, N or A..B.")
@click.option("--p", "p_range", required=True, type=RANGE, help="Radii, N or A..B.")
@click.option("--delta", required=True, type=int)
@click.option("--format", "fmt", type=click.Choice(["csv", "pretty"]), default="csv")
def table(parity, k_range, p_range, delta, fmt):
    """Bound-comparison table over a (k, p) grid at one degree cap."""
    rows = verification.sweep_table(LatticeParity(parity), k_range, delta, p_range)
    if fmt == "csv":
        click.echo(verification.rows_to_csv(rows), nl=False)
    else:
        click.echo(verification.rows_to_pretty(rows), nl=False)


@main.command()
@click.option("--k", required=True, type=int)
@click.option("--delta", required=True, type=int)
@click.option("--diameter", required=True, type=int)
@click.option("--mode", type=click.Choice(solver.MODES), default="exact")
@click.option("--max-nodes", type=int, default=None)
@click.option("--max-seconds", type=float, default=None)
@click.option("--region-cap", type=int, default=solver.DEFAULT_REGION_CAP,
              show_default=True, help="Largest candidate ball searched.")
def solve(**options):
    """Solve one instance exactly and print the result with its witness."""
    res = solver.solve_exact(solver.SolveRequest(**options))
    click.echo(f"optimum={res.optimum}")
    click.echo(f"optimal={'true' if res.optimal else 'false'}")
    click.echo(f"explored={res.explored}")
    for note in res.notes:
        click.echo(f"note={note}")
    click.echo(f"result={solver.result_to_json(res)}")


@main.command()
@click.option("--in", "path", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", required=True, type=click.Choice(["dot", "json"]))
def export(path, fmt):
    """Re-emit a stored graph as canonical JSON or Graphviz DOT."""
    cg = _read_graph(path)
    if fmt == "json":
        click.echo(graph_to_json(cg))
    else:
        click.echo(graph_to_dot(cg), nl=False)


if __name__ == "__main__":
    main()
