import json

from stableheat import calibration
from stableheat.montecarlo import MCEstimate

KEYS = {"kind", "d", "alpha", "domain", "value", "stderr", "n", "seed", "h", "fit_window",
        "wall_time", "recorded_at"}


def test_each_entry_is_one_sorted_json_line_appended_in_a_new_directory(tmp_path):
    path = tmp_path / "new" / "dir" / "calibration.jsonl"
    first = MCEstimate(1.16, 0.004, 100_000, 3, 1.0 / 32, 2.5)
    second = MCEstimate(0.75, 0.01, 20_000, 4, 0.0, 1.5)
    e1 = calibration.append_entry(path, "lambda1", 1, 1.0, {"type": "ball", "radius": 1.0},
                                  first, (1.0, 3.0))
    e2 = calibration.append_entry(path, "beta", 2, 1.5, {"type": "cone", "angle": 1.0},
                                  second, (4.0, 64.0))
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(e, sort_keys=True) for e in (e1, e2)]
    for line, est in zip(lines, (first, second)):
        entry = json.loads(line)
        assert set(entry) == KEYS
        assert entry["h"] == est.step
        assert (entry["value"], entry["stderr"], entry["n"], entry["seed"], entry["wall_time"]) \
            == (est.mean, est.stderr, est.n, est.seed, est.wall_time)
    assert json.loads(lines[0])["fit_window"] == [1.0, 3.0]
    assert json.loads(lines[1])["kind"] == "beta"
