import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from striplab import (BandCutoff, exact_restriction_spectrum, laurent_roots,
                      qer_matrix_element, sample_random_wave, torus_geodesic)
from striplab.cli import main as cli_main
from striplab.errors import ConfigInvalid
from striplab.experiments import (SCHEMA, _csv, _read_csv, config_hash,
                                  emit_plots, run_experiment,
                                  validate_config, write_results)
from striplab.svgplot import HEIGHT, MARGIN, WIDTH, Figure

SMALL_BAND = {"experiment": "band-mass", "lambdas": [40, 60],
              "seeds": [0, 1], "surface": {"kind": "RandomWaveTorus",
                                           "delta": 1.0},
              "tolerances": {"band_abs": 0.3, "top_band_min": 0.0}}


def test_validate_config_field_paths(tmp_path):
    growth = {"experiment": "growth", "lambdas": [10]}
    sine = dict(growth, surface={"kind": "Sine"})
    box = {"experiment": "equidistribution", "lambdas": [10]}
    window = {"experiment": "nonperiodic-window", "lambdas": [60]}
    cases = [({}, "experiment"),
             ({"experiment": "bogus"}, "experiment"),
             ({"experiment": "growth", "lambdas": []}, "lambdas"),
             ({"experiment": "growth", "lambdas": [3, 2]}, "lambdas"),
             ({"experiment": "growth", "lambdas": ["a", "b"]}, "lambdas"),
             ({"experiment": "growth", "lambdas": [10],
               "geodesic": {"q": [2, 4]}}, "geodesic.q"),
             (dict(growth, geodesic={"q": ["x", 1]}), "geodesic.q"),
             ({"experiment": "growth", "lambdas": [10],
               "strip": {"tau_max": -1}}, "strip.tau_max"),
             (dict(growth, strip={"tau_max": True}), "strip.tau_max"),
             (dict(growth, seeds=["a"]), "seeds"),
             (dict(growth, surface="Sine"), "surface"),
             # no runner reads a factor: the key itself is unknown
             ({"experiment": "growth", "lambdas": [10],
               "factor": {"kind": "CauchyPole", "p": 0.1},
               "strip": {"tau_max": 0.3}}, "factor"),
             (dict(growth, surface={"kind": "FlatTorus"}), "surface.kind"),
             (dict(growth, surface={"kind": "PerturbedTorus"}),
              "surface.kind"),
             (dict(growth, tolerancse={"saturation": 1.0}), "tolerancse"),
             (dict(SMALL_BAND, tolerances={"band_ab": 0.3}),
              "tolerances.band_ab"),
             (dict(sine, lambdas=[10.5]), "lambdas"),
             (dict(sine, surface={"kind": "Sine", "delta": 1.0}),
              "surface.delta"),
             (dict(sine, geodesic={"q": [1, 0]}), "geodesic"),
             ({"experiment": "geometry", "lambdas": [10]}, "lambdas"),
             ({"experiment": "geometry", "surface": {}}, "surface"),
             ({"experiment": "geometry", "geodesic": {}}, "geodesic"),
             ({"experiment": "geometry", "seeds": [0, 1]}, "seeds"),
             ({"experiment": "nonperiodic-window", "lambdas": [60, 80]},
              "lambdas"),
             (dict(box, strip={"box": [0.0, 6.0, -0.1, 0.2]}), "strip.box"),
             (dict(box, strip={"tau_max": 0.2, "box": [0.0, 6.0, -0.3, 0.3]}),
              "strip.box"),
             # zeros are reported in one period [0, 2 pi |q|] of t
             (dict(box, strip={"box": [-1.0, 1.0, -0.2, 0.2]}), "strip.box"),
             (dict(box, strip={"box": [5.0, 8.0, -0.2, 0.2]}), "strip.box"),
             (dict(box, surface={"kind": "Sine"},
                   strip={"box": [0.0, 7.0, -0.2, 0.2]}), "strip.box"),
             # a window of no grid step, or one spanning the whole grid
             (dict(window, window_width=100.0), "window_width"),
             (dict(window, window_width=1e-4), "window_width"),
             # on q=(1,0) the symbol and its shift leave [0, 2 pi]
             ({"experiment": "wigner", "lambdas": [20, 40]}, "symbol_width")]
    path = tmp_path / "cfg.json"
    for cfg, fieldpath in cases:
        with pytest.raises(ConfigInvalid) as err:
            validate_config(cfg)
        assert err.value.field == fieldpath, cfg
        path.write_text(json.dumps(cfg))
        assert cli_main(["validate", str(path)]) == 2, cfg
        assert cli_main(["run", str(path), "-o", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    # the period of q=(1,1) is 2 pi sqrt 2 > 8
    wide = [0.0, 8.0, -0.2, 0.2]
    assert validate_config(dict(box, geodesic={"q": [1, 1]},
                                strip={"box": wide}))["strip"]["box"] == wide


def test_strips_of_any_height_run():
    # restrictions are finite sums, entire in t + i tau: a strip past
    # height 1 is a valid input, judged by the law like any other
    equi = run_experiment({"experiment": "equidistribution", "lambdas": [10],
                           "strip": {"tau_max": 3.0}})
    spec = exact_restriction_spectrum(sample_random_wave(10, 1.0, 0),
                                      torus_geodesic((1, 0)))
    # |tau| <= 3 holds every zero of the Laurent polynomial, so the
    # pairing overshoots the law's 2
    assert round(equi.per_seed[0]["pairing"] * 10) == \
        spec.n_max - spec.n_min
    assert not equi.passed
    assert run_experiment({"experiment": "nonperiodic-window",
                           "lambdas": [60], "strip": {"tau_max": 1.5}}).passed
    assert run_experiment({"experiment": "wigner", "lambdas": [20, 40],
                           "geodesic": {"q": [1, 1]},
                           "tau_scale": 30.0}).passed


def test_cli_reports_a_height_past_float64(tmp_path, capsys):
    # tau = 800 / 100 makes e^{w n tau} leave float64: the config is
    # valid, and the run stops before it writes anything
    path = tmp_path / "wigner.json"
    path.write_text(json.dumps({"experiment": "wigner", "lambdas": [100, 200],
                                "geodesic": {"q": [1, 1]},
                                "tau_scale": 800.0}))
    assert cli_main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert cli_main(["run", str(path), "-o", str(tmp_path / "o")]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# one tiny config of each experiment, plus the Sine surface and a
# lambda list of an integer and a float, which metrics.csv writes as 20
# and 30.5
TINY = [{"experiment": "equidistribution", "lambdas": [20]},
        {"experiment": "growth", "lambdas": [20, 40]},
        {"experiment": "growth", "lambdas": [10, 20],
         "surface": {"kind": "Sine"}},
        {"experiment": "growth", "lambdas": [20, 30.5]},
        {"experiment": "band-mass", "lambdas": [20], "seeds": [0, 1]},
        {"experiment": "wigner", "lambdas": [20, 40],
         "geodesic": {"q": [1, 1]}},
        {"experiment": "qer", "lambdas": [20]},
        {"experiment": "qer", "lambdas": [20], "surface": {"kind": "Sine"}},
        {"experiment": "geometry", "samples": 10},
        {"experiment": "nonperiodic-window", "lambdas": [60],
         "seeds": [0, 1]}]


@pytest.mark.parametrize("cfg", TINY, ids=lambda c: c["experiment"])
def test_every_experiment_validates_and_runs(cfg, tmp_path):
    norm = validate_config(cfg)
    assert set(norm) == set(SCHEMA[cfg["experiment"]])
    rec = run_experiment(cfg)
    assert rec.experiment == cfg["experiment"] and rec.per_seed
    assert rec.inputs_hash == config_hash(cfg)
    write_results(rec, str(tmp_path))
    with open(tmp_path / "results.json") as fh:
        assert json.load(fh)["passed"] in (True, False)
    assert (tmp_path / "metrics.csv").read_bytes() == \
        _dictwriter_metrics(rec.per_seed)


def _dictwriter_metrics(rows):
    """metrics.csv as csv.DictWriter writes the rows, with LF line ends:
    the reference for write_results."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().replace("\r\n", "\n").encode()


def test_shipped_configs_validate():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "configs")
    names = sorted(os.listdir(root))
    assert names
    for name in names:
        with open(os.path.join(root, name)) as fh:
            validate_config(json.load(fh))


def test_narrow_symbols_and_wide_windows_run():
    # close to the edges that validation draws, the runners still run
    for cfg in ({"experiment": "wigner", "lambdas": [20],
                 "symbol_width": 0.3},
                {"experiment": "nonperiodic-window", "lambdas": [60],
                 "window_width": 7.0}):
        assert run_experiment(cfg).per_seed


def test_results_record_the_default_tolerances(tmp_path):
    cfg = {k: v for k, v in SMALL_BAND.items() if k != "tolerances"}
    for given in ({}, {"tolerances": {"band_abs": 0.3}}):
        write_results(run_experiment({**cfg, **given}), str(tmp_path))
        with open(tmp_path / "results.json") as fh:
            assert json.load(fh)["tolerances"] == {
                **SCHEMA["band-mass"]["tolerances"],
                **given.get("tolerances", {})}


def test_schema_holds_the_runners_defaults():
    # equidistribution and nonperiodic-window have always run at tau_max
    # 0.2, growth and geometry at 0.3; the box is the whole strip
    norms = {c["experiment"]: validate_config(c) for c in TINY}
    assert {name: n["strip"]["tau_max"] for name, n in norms.items()
            if "strip" in n} == {"equidistribution": 0.2, "growth": 0.3,
                                 "geometry": 0.3, "nonperiodic-window": 0.2}
    assert norms["equidistribution"]["strip"]["box"] == [0.0, 2 * np.pi,
                                                         -0.2, 0.2]


def test_default_box_spans_the_geodesic_period():
    # box None is the whole strip; the period of q=(1,1) is 2 pi sqrt 2
    cfg = {"experiment": "equidistribution", "lambdas": [20],
           "geodesic": {"q": [1, 1]}}
    state = torus_geodesic((1, 1))
    assert validate_config(cfg)["strip"]["box"] == [0.0, state.period,
                                                    -0.2, 0.2]
    row = run_experiment(cfg).per_seed[0]
    zs = laurent_roots(exact_restriction_spectrum(
        sample_random_wave(20, 1.0, 0), state), 0.2)
    assert zs.count((0.0, 2 * np.pi, -0.2, 0.2)) < zs.count()
    assert round(row["pairing"] * 20) == zs.count()


def test_qer_samples_along_the_configured_geodesic():
    cfg = {"experiment": "qer", "lambdas": [30], "seeds": [2],
           "geodesic": {"q": [1, 0], "x0": [0.3, 0.4]}, "band": [0.5, 1.0]}
    row = run_experiment(cfg).per_seed[0]
    mode = sample_random_wave(30, 1.0, 2)
    band = {x0: qer_matrix_element(
        exact_restriction_spectrum(mode, torus_geodesic((1, 0), x0)),
        BandCutoff(0.5, 1.0))[0] for x0 in ((0.3, 0.4), (0.0, 0.0))}
    assert row["band_value"] == band[(0.3, 0.4)]
    assert row["band_value"] != band[(0.0, 0.0)]


def test_qer_reads_every_frequency_of_the_band():
    # along q = (2, 1) the band reaches |q| lambda = 1342 > 1024
    cfg = {"experiment": "qer", "lambdas": [600], "seeds": [0, 1, 2, 3],
           "geodesic": {"q": [2, 1]}}
    rec = run_experiment(cfg)
    for row in rec.per_seed:
        spec = exact_restriction_spectrum(
            sample_random_wave(600, 1.0, row["seed"]), torus_geodesic((2, 1)))
        freq = np.abs(2 * np.pi * spec.freqs / spec.period)
        mask = (freq >= 0.5 * 600) & (freq <= 600)
        assert row["band_value"] == pytest.approx(
            np.sum(np.abs(spec.coeffs[mask]) ** 2), rel=1e-12)
    assert rec.passed


def test_config_hash_is_order_insensitive():
    a = {"experiment": "growth", "lambdas": [10], "seeds": [0]}
    b = {"seeds": [0], "lambdas": [10], "experiment": "growth"}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "seeds": [1]})


def test_run_writes_artifacts(tmp_path):
    rec = run_experiment(SMALL_BAND)
    outdir = write_results(rec, str(tmp_path / "out"))
    names = set(os.listdir(outdir))
    assert {"results.json", "metrics.csv", "manifest.json"} <= names
    with open(os.path.join(outdir, "results.json")) as fh:
        obj = json.load(fh)
    assert obj["experiment"] == "band-mass"
    assert "wall_time" not in obj
    with open(os.path.join(outdir, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["wall_time"] is not None
    assert man["seeds"] == [0, 1]


def test_results_identical_across_thread_counts(tmp_path):
    blobs = []
    for threads in ("1", "8"):
        os.environ["LAB_THREADS"] = threads
        try:
            rec = run_experiment(SMALL_BAND)
            out = write_results(rec, str(tmp_path / ("t" + threads)))
        finally:
            os.environ.pop("LAB_THREADS", None)
        with open(os.path.join(out, "results.json"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("cfg", [
    {"experiment": "growth", "lambdas": [30, 45, 60], "seeds": [0, 1, 2],
     "tolerances": {"saturation": 1.0}},
    {"experiment": "wigner", "lambdas": [20, 30, 40], "seeds": [0, 1, 2],
     "geodesic": {"q": [1, 1]}, "tolerances": {"final_gap": 1.0}}],
    ids=["growth", "wigner"])
def test_multi_lambda_artifacts_identical_across_thread_counts(cfg,
                                                              tmp_path):
    # lambda-major cells share each lambda's memoised lattice; more
    # threads than cores, switching often, interleave them without
    # changing a byte
    blobs = []
    interval = sys.getswitchinterval()
    for threads in ("1", "8"):
        os.environ["LAB_THREADS"] = threads
        sys.setswitchinterval(1e-6)
        try:
            out = write_results(run_experiment(cfg),
                                str(tmp_path / ("t" + threads)))
        finally:
            os.environ.pop("LAB_THREADS", None)
            sys.setswitchinterval(interval)
        names = sorted(set(os.listdir(out)) - {"manifest.json"})
        assert "results.json" in names and len(names) == 3
        blobs.append({n: (tmp_path / ("t" + threads) / n).read_bytes()
                      for n in names})
    assert blobs[0] == blobs[1]


def test_csv_columns_match_the_row_wise_repr(tmp_path):
    cols = ([0, -3, 2 ** 40, 7], [-0.0, 1e-300, 1e16, 0.1],
            [1.0 / 3.0, -2.5e-8, 5e-324, 123456789.0])
    ref = "a,b,c\n" + "".join(",".join(map(repr, row)) + "\n"
                              for row in zip(*cols))
    text = _csv("a,b,c", np.array(cols[0]), np.array(cols[1]), cols[2])
    assert text == ref
    assert _csv("a,b", [], []) == "a,b\n"
    path = tmp_path / "x.csv"
    path.write_text(text)
    rows = _read_csv(str(path))
    assert rows.shape == (4, 3)
    assert rows.tobytes() == np.array([list(map(float, r))
                                       for r in zip(*cols)]).tobytes()
    path.write_text("a,b\n")
    assert _read_csv(str(path)).shape == (0, 2)


def test_render_matches_per_point_marks():
    rng = np.random.default_rng(3)
    lx, ly = np.sort(rng.uniform(-3, 9, 50)), rng.normal(size=50)
    dx, dy = rng.uniform(-1, 1, 30), rng.uniform(-0.2, 0.2, 30)
    dx[0], dy[0] = -0.0, 0.0
    fig = Figure("t", "x", "y")
    fig.line(lx, ly, label="line")
    fig.scatter(list(dx), list(dy), label="dots")
    fig.hline(0.0)
    svg = fig.render()
    # the bounds and the pixel map of each point, one Python float at a time
    xs, ys = list(lx) + list(dx), list(ly) + list(dy) + [0.0]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    padx, pady = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady
    iw, ih = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN

    def px(x):
        return MARGIN + (float(x) - x0) / (x1 - x0) * iw

    def py(y):
        return HEIGHT - MARGIN - (float(y) - y0) / (y1 - y0) * ih

    pts = " ".join("%.1f,%.1f" % (px(x), py(y)) for x, y in zip(lx, ly))
    assert '<polyline points="%s" fill="none"' % pts in svg
    lines = svg.splitlines()
    first = lines.index('<circle cx="%.1f" cy="%.1f" r="2.2" fill="%s"/>'
                        % (px(dx[0]), py(dy[0]), "#d62728"))
    assert lines[first:first + 30] == [
        '<circle cx="%.1f" cy="%.1f" r="2.2" fill="#d62728"/>'
        % (px(x), py(y)) for x, y in zip(dx, dy)]


def test_cli_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_BAND))
    out = tmp_path / "results"
    assert cli_main(["validate", str(cfg_path)]) == 0
    assert cli_main(["run", str(cfg_path), "-o", str(out)]) == 0
    # growth curves are absent for band-mass; equidistribution CSVs drive
    # the zero scatter, so plot from a growth run instead
    growth_cfg = {"experiment": "growth", "lambdas": [30, 60], "seeds": [0],
                  "strip": {"tau_max": 0.3},
                  "tolerances": {"saturation": 1.0}}
    gpath = tmp_path / "growth.json"
    gpath.write_text(json.dumps(growth_cfg))
    gout = tmp_path / "growth-results"
    assert cli_main(["run", str(gpath), "-o", str(gout)]) == 0
    assert cli_main(["plot", str(gout)]) == 0
    assert (gout / "growth.svg").exists()
    svg = (gout / "growth.svg").read_text()
    assert svg.startswith("<svg") and "lambda=30" in svg


def test_cli_error_exit_codes(tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["validate", str(bad)]) == 2
    assert cli_main(["run", str(bad)]) == 2
    assert cli_main(["validate", str(tmp_path / "missing.json")]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"experiment": "nope"}))
    assert cli_main(["validate", str(invalid)]) == 2
    assert cli_main(["plot", str(tmp_path)]) == 2   # no CSVs: MissingData
    band = tmp_path / "band.json"
    band.write_text(json.dumps(SMALL_BAND))
    for threads in ("abc", "0", "-1", "1.5", ""):
        monkeypatch.setenv("LAB_THREADS", threads)
        assert cli_main(["run", str(band), "-o", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_cli_tolerance_failure_exits_one(tmp_path):
    cfg = dict(SMALL_BAND, tolerances={"band_abs": 1e-9,
                                       "top_band_min": 0.0})
    # sin(lambda t) has all its mass in the band: ratio 1, not 2/3
    sine_qer = {"experiment": "qer", "lambdas": [20],
                "surface": {"kind": "Sine"}}
    path = tmp_path / "strict.json"
    for c in (cfg, sine_qer):
        path.write_text(json.dumps(c))
        assert cli_main(["run", str(path), "-o", str(tmp_path / "o")]) == 1
    with open(tmp_path / "o" / "results.json") as fh:
        assert json.load(fh)["aggregate"]["mean_ratio"] == 1.0


def test_console_script_installed():
    # the child imports striplab from where this process does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "striplab.cli"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2


def test_traced_benchmark_run_reports_its_metrics(tmp_path):
    # perfbench's traced mode wraps the public functions and reads their
    # arguments and results (the ZeroSet's (complex, int) pairs among
    # them): an API change that breaks it must fail here
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench")
    cfg = {"experiment": "equidistribution", "lambdas": [20],
           "seeds": [0, 1]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = ("import json, sys, time\n"
            "sys.path.insert(0, %r)\n"
            "import tracing\n"
            "from striplab import cli\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            "start = time.perf_counter()\n"
            "cli.main(['run', 'cfg.json', '-o', 'out'])\n"
            "print(json.dumps(tracing.layer_metrics(\n"
            "    tracer, time.perf_counter() - start)))\n" % perfbench)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["zeros.laurent_roots.calls"][0] > 0


@pytest.mark.parametrize("script", ["geometry_checks.py",
                                    "growth_saturation.py",
                                    "wigner_invariance.py",
                                    "zero_condensation.py"])
def test_demo_runs(script, tmp_path):
    demos = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "demos")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, os.path.join(demos, script)],
                          cwd=tmp_path, capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


def test_plots_of_no_data_and_of_one_point(tmp_path):
    (tmp_path / "zeros.csv").write_text("t,tau,multiplicity\n")
    [path] = emit_plots(str(tmp_path))
    with open(path) as fh:
        assert ">no data</text>" in fh.read()
    # a single point spans nothing: the bounds widen it to a unit box
    fig = Figure("t", "x", "y")
    fig.scatter([1.0], [2.0])
    svg = fig.render()
    coords = re.findall(r'\b(?:c?[xy]|[xy][12])="([^"]*)"', svg)
    assert len(coords) > 10
    assert all(math.isfinite(float(c)) for c in coords)
    assert '<circle cx="320.0" cy="220.0"' in svg


def test_emit_plots_requires_data(tmp_path):
    from striplab.errors import MissingData
    with pytest.raises(MissingData):
        emit_plots(str(tmp_path))
