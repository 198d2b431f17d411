import json
import os
import subprocess
import sys

import numpy as np
import pytest

from striplab import (BandCutoff, exact_restriction_spectrum,
                      qer_matrix_element, sample_random_wave, torus_geodesic)
from striplab.cli import main as cli_main
from striplab.errors import ConfigInvalid
from striplab.experiments import (SCHEMA, config_hash, emit_plots,
                                  run_experiment, validate_config,
                                  write_results)

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
             # a window of no grid step, or one spanning the whole grid
             (dict(window, window_width=100.0), "window_width"),
             (dict(window, window_width=1e-4), "window_width"),
             # on q=(1,0) the symbol and its shift leave [0, 2 pi]
             ({"experiment": "wigner", "lambdas": [20, 40]}, "symbol_width"),
             # strips past the spectra's tau_max (1.0)
             (dict(box, strip={"tau_max": 3.0}), "strip.tau_max"),
             (dict(window, strip={"tau_max": 1.5}), "strip.tau_max"),
             ({"experiment": "wigner", "lambdas": [20, 40],
               "geodesic": {"q": [1, 1]}, "tau_scale": 30.0}, "tau_scale")]
    path = tmp_path / "cfg.json"
    for cfg, fieldpath in cases:
        with pytest.raises(ConfigInvalid) as err:
            validate_config(cfg)
        assert err.value.field == fieldpath, cfg
        path.write_text(json.dumps(cfg))
        assert cli_main(["validate", str(path)]) == 2, cfg
        assert cli_main(["run", str(path), "-o", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


# one tiny config of each experiment, plus the Sine surface
TINY = [{"experiment": "equidistribution", "lambdas": [20]},
        {"experiment": "growth", "lambdas": [20, 40]},
        {"experiment": "growth", "lambdas": [10, 20],
         "surface": {"kind": "Sine"}},
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


@pytest.mark.parametrize("script", ["geometry_checks.py",
                                    "growth_saturation.py",
                                    "wigner_invariance.py",
                                    "zero_condensation.py"])
def test_demo_runs(script, tmp_path):
    demos = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "demos")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, os.path.join(demos, script)],
                          cwd=tmp_path, capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


def test_emit_plots_requires_data(tmp_path):
    from striplab.errors import MissingData
    with pytest.raises(MissingData):
        emit_plots(str(tmp_path))
