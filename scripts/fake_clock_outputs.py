#!/usr/bin/env python3
"""Write every experiment's outputs under a deterministic clock, for diffing.

Runs `typeforge run --r 2 --nrep 3 --raw` for all 11 experiments with their
default grids under `bench_layers.FakeClock`, writing the 33 files (bench
CSV, verdict CSV and raw JSON of each) into OUT.  For each experiment it
prints how many `bench._measure` calls it made and how many cases they
measured, and writes the same lines to OUT/measure_calls.txt.

It then writes OUT/codec/<experiment>.txt for each experiment: for every
layout the experiment builds at its smallest published size and smallest
A, the layout's `spec_dumps` and `datatype_dumps`, and what `typeforge
normalize` and `typeforge flatten` print (exit code, stdout and stderr)
for the spec JSON and for the tree JSON.

Two trees produce the same output when `diff -r` of their OUT directories
is empty.  To compare two trees, run one copy of this script against each
tree's library:

    PYTHONPATH=<tree>/src python scripts/fake_clock_outputs.py OUT
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile

from bench_layers import FakeClock

import typeforge
from typeforge import bench, cli, experiments, layouts
from typeforge.layouts import spec_dumps
from typeforge.typecore import datatype_dumps


@contextlib.contextmanager
def _wrapped(module, name: str, wrap):
    """Replace `module.name` by `wrap(real)` in every typeforge module that
    holds a reference to it, for the duration of the block."""
    real = getattr(module, name)
    holders = [m for key, m in sys.modules.items()
               if key.startswith(typeforge.__name__) and getattr(m, name, None) is real]
    for module in holders:
        setattr(module, name, wrap(real))
    try:
        yield
    finally:
        for module in holders:
            setattr(module, name, real)


def _counting(counts: list):
    """A wrapper of `bench._measure` that adds one call and its cases to
    `counts`."""
    def wrap(real):
        def counting(groups, *args):
            counts[0] += 1
            counts[1] += sum(len(group) for group in groups)
            return real(groups, *args)
        return counting
    return wrap


def _built_layouts(experiment: str) -> list:
    """Every layout `experiment` builds at its smallest published size and
    smallest A, in build order, each once."""
    published = experiments._EXPERIMENTS[experiment]
    plan = experiments.make_plan(experiment, A_values=(min(published.A_values),),
                                 sizes=(min(published.sizes),))
    built = {}

    def wrap(real):
        def recording(spec):
            layout = real(spec)
            built.setdefault(spec_dumps(spec), layout)
            return layout
        return recording

    with _wrapped(layouts, "build", wrap):
        for a, n, tag in experiments._grid(plan):
            for _ in published.point(plan, a, n, tag):
                pass
    return list(built.values())


def _cli(command: str, path: str) -> str:
    """Exit code and output of `typeforge <command> --spec <path>`, with the
    path, which differs from run to run, left out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--spec", path])
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}".replace(path, "<spec>")


def _codec_dump(experiment: str, tmp: str) -> str:
    lines = []
    for i, layout in enumerate(_built_layouts(experiment)):
        spec_text, tree_text = spec_dumps(layout.spec), datatype_dumps(layout.datatype)
        lines += [f"spec {spec_text}", f"tree {tree_text}"]
        for what, text in (("spec", spec_text), ("tree", tree_text)):
            path = os.path.join(tmp, f"{i}.{what}.json")
            with open(path, "w") as fh:
                fh.write(text)
            for command in ("normalize", "flatten"):
                lines.append(f"{command} {what}: {_cli(command, path)}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="directory for the 33 files, measure_calls.txt and codec/")
    args = ap.parse_args(argv)

    counts = [0, 0]
    lines = []
    with _wrapped(bench, "_measure", _counting(counts)):
        for experiment in experiments.EXPERIMENT_IDS:
            counts[:] = [0, 0]
            code = cli.main(["run", "--experiment", experiment, "--r", "2", "--nrep", "3",
                             "--raw", "--out", args.out], clock=FakeClock())
            lines.append(f"{experiment}: exit {code}, {counts[0]} calls, {counts[1]} cases")
            print(lines[-1], flush=True)
    with open(os.path.join(args.out, "measure_calls.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    codec_dir = os.path.join(args.out, "codec")
    os.makedirs(codec_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for experiment in experiments.EXPERIMENT_IDS:
            with open(os.path.join(codec_dir, f"{experiment}.txt"), "w") as fh:
                fh.write(_codec_dump(experiment, tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
