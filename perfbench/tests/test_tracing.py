import chebcast.forecasters
import tracing
from experiment import Experiment
from test_checks import MIXTURE


def test_self_time_is_duration_minus_children():
    data = {"names": ["run.spectrum", "forecasters.fit", "ridge.solve", "forecasters.forecast"],
            "starts": [0, 10, 20, 70], "ends": [100, 60, 50, 80], "parents": [-1, 0, 1, 0],
            "groups": ["run.spectrum"] * 4, "attrs": {"2": {"rows": 5}}}
    table = tracing.SpanTable(data)
    assert list(table.dur) == [100, 50, 30, 10]
    assert list(table.self_dur) == [40, 20, 30, 10]
    assert table.per_group("ridge.solve", "run.spectrum", attr="rows") == 5
    assert table.per_group("forecasters.fit", "run.spectrum") == 1


def test_installed_wraps_restores_and_reports_missing():
    original = chebcast.forecasters.solve_ridge
    tracer = tracing.Tracer()
    exp = Experiment(MIXTURE, seed=1)
    targets = tracing.INPROC_TARGETS + (("chebcast.forecasters", "no_such_function", "x.y", None),)
    with tracing.installed(tracer, targets) as missing:
        assert chebcast.forecasters.solve_ridge is not original
        with tracer.span("run.spectrum"):
            exp.run("spectrum", exp.latents[0])
    assert chebcast.forecasters.solve_ridge is original
    assert missing == ["chebcast.forecasters.no_such_function"]

    metrics = tracing.inproc_metrics(tracing.SpanTable(tracer.to_dict()))
    assert metrics["forecasters.fit_calls"] == exp.nfe
    assert metrics["sandbox.denoise_calls"] == exp.nfe
    assert metrics["ridge.rows_fitted"] == sum(range(1, exp.nfe + 1))
    assert metrics["ridge.bytes_fitted"] == 8 * exp.spec.dim * sum(range(1, exp.nfe + 1))


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       757 |     261131 |         scipy.linalg\n"
              "import time:       475 |     365618 | chebcast\n")
    assert tracing.parse_importtime(stderr) == {"scipy.linalg": 261.131, "chebcast": 365.618}
