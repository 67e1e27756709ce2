"""The benchmark's tracer (bench/spans.py) against the package.

The tracer wraps sigspace module attributes by name, private kernels
included, from outside the package.  Renaming one of them, or routing a
command around it, would silently empty a per-layer metric; this test
installs the tracer, runs a density and an mc command through it, checks
that every traced layer recorded a span, and uninstalls it again.  A
second run deforms a small grid through the tracer: its point counters
rely on deform_metric_field returning a grid whose untouched points are
the input's own objects.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np

from sigspace import SymmetricForm, cli, geometry, lazy_smoothstep, make_ball_grid, measure

# private names the tracer wraps, and the span each one records
TRACED_PRIVATE = {
    (measure, "_signature_mask"): "measure.signature_filter",
    (measure, "_density_batch"): "measure.density_batch",
    (measure, "_chunk_sums"): "measure.chunk",
    (geometry, "_metric_from_inverse"): "geometry.metric_from_inverse",
    (cli, "_emit"): "cli.emit",
    (cli, "_load_json"): "cli.load",
}


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it(tmp_path):
    originals = {key: getattr(*key) for key in TRACED_PRIVATE}
    original_json = cli.json
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"entries": [[2.0, 0.5], [0.5, -1.0]]}))
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "box": {"signature": [1, 1], "lower": [1.5, 0.0, -1.5], "upper": [2.5, 1.0, -0.5]},
        "integrand": {"type": "one"},
    }))
    tracer = _load_spans().Tracer()
    try:
        tracer.install()  # inside the try: a failed install still restores what it replaced
        for key in TRACED_PRIVATE:
            assert getattr(*key) is not originals[key], key[1]
        assert cli.main(["density", "--in", str(form), "--out", str(tmp_path / "density_report.json")]) == 0
        assert cli.main(["mc", "--config", str(config), "--seed", "3", "--samples", "2000",
                         "--out", str(tmp_path / "mc_report.json")]) == 0
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans.values()}
    assert set(TRACED_PRIVATE.values()) <= recorded
    for key, original in originals.items():
        assert getattr(*key) is original, key[1]
    assert cli.json is original_json


def test_tracer_counts_the_deformed_points(tmp_path, capsys):
    grid = make_ball_grid(SymmetricForm(np.eye(2)), spacing=0.25)
    grid_path, target = tmp_path / "grid.json", tmp_path / "target.json"
    grid_path.write_text(json.dumps(grid.to_dict()))
    target.write_text(json.dumps({"entries": [[4.0, 0.0], [0.0, 1.0]]}))
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert cli.main(["deform", "--grid", str(grid_path), "--center", "0", "--target", str(target),
                         "--out", str(tmp_path / "deformed.json")]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["pass"] is True
    recorded = {span[0] for span in tracer.spans.values()}
    assert {"field.deform_metric_field", "field.MetricFieldGrid", "group.gl_plus_path"} <= recorded
    moved, untouched = tracer.counters["field.points_moved"], tracer.counters["field.points_untouched"]
    assert moved > 0
    assert moved + untouched == len(grid.points)
    # a point counts as untouched only while it is the input's own object
    assert moved == sum(lazy_smoothstep(pt.r_squared) != 1.0 for pt in grid.points)
