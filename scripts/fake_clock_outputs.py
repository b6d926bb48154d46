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

Last it writes OUT/codec/catalog.txt: for each spec of a fixed grid (every
catalog id and an unknown one; variants 1, 2, explicit and an unknown
one; A of 0 to 3; n that divides, that does not, and 0; each stride
override and S1/S2; contig_subtype over each basic subtype and bad ones;
tiled_het with and without kinds), what `derive_params`, `unit_elems`,
`build` and `build_alternatives` return, or the BadParams they raise.

Two trees produce the same output when `diff -r` of their OUT directories
is empty.  To compare two trees, run one copy of this script against each
tree's library:

    PYTHONPATH=<tree>/src python scripts/fake_clock_outputs.py OUT
"""

import argparse
import contextlib
import io
import itertools
import os
import sys
import tempfile

from bench_layers import FakeClock

import typeforge
from typeforge import bench, cli, experiments, layouts
from typeforge.layouts import BadParams, LayoutSpec, spec_dumps
from typeforge.typecore import BaseKind, datatype_dumps


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


def _catalog_specs():
    """The fixed grid of specs the catalog dump covers."""
    overrides = [{}, *({name: 7} for name in ("B", "A1", "A2", "B1", "B2")),
                 {"B": 9, "A1": 1, "A2": 3, "B1": 5, "B2": 6}, {"S1": 2, "S2": 3}, {"S1": 0}]
    extras = {
        layouts.CONTIG_SUBTYPE: [{"subtype": s} for s in (*layouts.BASIC_IDS, "rowcol_struct", None)],
        layouts.TILED_HET: [{"kinds": (BaseKind.CHAR, BaseKind.INT, BaseKind.DOUBLE,
                                       BaseKind.SHORT)}, {}],
    }
    for layout_id in (*layouts.ALL_IDS, "mosaic"):
        for variant, a, n, override, extra in itertools.product(
                (1, 2, layouts.VARIANT_EXPLICIT, 7), (0, 1, 2, 3), (0, 7, 60), overrides,
                extras.get(layout_id, [{}])):
            yield LayoutSpec(id=layout_id, n=n, A=a, variant=variant, **override, **extra)


def _built_line(layout) -> str:
    return (f"{layout.spec.id} count={layout.count} elem_size={layout.elem_size} "
            f"extent={layout.total_extent_elems} {datatype_dumps(layout.datatype)}")


def _catalog_dump() -> str:
    calls = (
        ("derive_params", lambda spec: [repr(layouts.derive_params(spec))]),
        ("unit_elems", lambda spec: [str(layouts.unit_elems(spec))]),
        ("build", lambda spec: [_built_line(layouts.build(spec))]),
        ("build_alternatives", lambda spec: map(_built_line, layouts.build_alternatives(spec))),
    )
    lines = []
    for spec in _catalog_specs():
        lines.append(f"spec {spec_dumps(spec)}")
        for name, call in calls:
            try:
                lines += [f"{name} {text}" for text in call(spec)]
            except BadParams as exc:
                lines.append(f"{name} BadParams: {exc}")
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
    with open(os.path.join(codec_dir, "catalog.txt"), "w") as fh:
        fh.write(_catalog_dump())
    return 0


if __name__ == "__main__":
    sys.exit(main())
