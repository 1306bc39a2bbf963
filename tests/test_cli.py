import argparse
import json
import math
import subprocess
import sys
import time
import tracemalloc

import pytest

from normdisc import cli
from normdisc.cli import EXIT_OK, EXIT_TARGET, EXIT_USAGE, config_sha, main, parse_config, parse_seeds
from normdisc.spaces import MAX_RULE_NODES, FrequencySet


@pytest.fixture
def no_system(monkeypatch):
    """Fail the test if the command builds a system: bad input must exit before that."""

    def refuse(*args, **kwargs):
        raise AssertionError("a system was built for invalid input")

    monkeypatch.setattr(cli, "real_trig_system", refuse)


def strip_runtime(text):
    # drop the runtime_ms column (last), keep header comment line intact
    out = []
    for line in text.strip().split("\n"):
        if line.startswith("#"):
            out.append(line)
        else:
            out.append(",".join(line.split(",")[:-1]))
    return out


def test_parse_seeds():
    assert parse_seeds("0..3") == [0, 1, 2, 3]
    assert parse_seeds("1,5,7") == [1, 5, 7]
    assert parse_seeds("4") == [4]


def test_freqset_json_roundtrip(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["freqset", "--space", "cross:2:1", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "size=7" in text
    Q = FrequencySet.from_json(out.read_text())
    assert len(Q) == 7


def test_discretize_grid_is_exact(capsys):
    assert main(["discretize", "--space", "box:2", "--method", "grid"]) == EXIT_OK
    text = capsys.readouterr().out
    eps = float([l for l in text.split("\n") if l.startswith("eps=")][0].split()[0].split("=")[1])
    assert eps < 1e-12


@pytest.fixture
def certificate_calls(monkeypatch):
    """Count l2_certificate calls made from the cli and from inside l2disc."""
    from normdisc import l2disc

    calls = []
    certificate = l2disc.l2_certificate

    def counted(*args):
        calls.append(args)
        return certificate(*args)

    monkeypatch.setattr(l2disc, "l2_certificate", counted)
    monkeypatch.setattr(cli, "l2_certificate", counted)
    return calls


@pytest.mark.parametrize("method", cli.METHODS)
def test_each_job_certifies_its_pointset_once(method, certificate_calls):
    cli.run_job(("cross:2:2", 40, method, 0, False, "quick", 4.0, 4))
    assert len(certificate_calls) == 1
    m = ["--m", "40"] if method in ("random", "greedy") else []
    assert main(["discretize", "--space", "cross:2:2", "--method", method] + m) == EXIT_OK
    assert len(certificate_calls) == 2


def test_discretize_target_unmet(capsys):
    code = main(["discretize", "--space", "cross:2:1", "--m", "20", "--seed", "0",
                 "--eps-target", "1e-6"])
    assert code == EXIT_TARGET


def test_discretize_writes_pointset(tmp_path, capsys):
    out = tmp_path / "ps.json"
    assert main(["discretize", "--space", "cross:2:1", "--method", "greedy",
                 "--m", "40", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert len(data["points"]) == 40


def test_bad_space_spec(capsys):
    assert main(["freqset", "--space", "blah:3"]) == EXIT_USAGE
    assert main(["freqset", "--space", "box:abc"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["discretize", "--space", "cross:2:1", "--m", "0"],
    ["discretize", "--space", "cross:2:1", "--m", "-3"],
    ["experiment", "--config", "m=0"],
    ["experiment", "--config", "m=-3"],
])
def test_nonpositive_m_is_a_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["discretize", "--space", "cross:2:1", "--method", "bss", "--m", "5"],
    ["discretize", "--space", "cross:2:1", "--method", "grid", "--m", "5"],
    ["experiment", "--config", "seeds=3..1"],
    ["experiment", "--config", "effort=qiuck"],
    ["experiment", "--config", "effort=Quick"],
    ["experiment", "--config", "l1=ture"],
    ["experiment", "--config", "l1="],
])
def test_ignored_or_empty_input_is_a_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unknown_config_key(capsys):
    assert main(["experiment", "--config", "bogus=1"]) == EXIT_USAGE
    assert main(["experiment", "--config", "no_equals_sign"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "key=value" in err


def test_experiment_csv_shape_and_determinism(tmp_path, capsys):
    cfg = ["space=cross:2:1", "m=48", "methods=random", "seeds=0..1", "l1=true", "effort=quick"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", "--config", *cfg, "--out", str(a)]) == EXIT_OK
    assert main(["experiment", "--config", *cfg, "--out", str(b)]) == EXIT_OK
    la, lb = strip_runtime(a.read_text()), strip_runtime(b.read_text())
    assert la == lb
    assert la[0].startswith("# normdisc=0.1.0 config_sha256=")
    assert la[1] == "space,N,m,method,seed,eps,r_min,r_max"  # runtime_ms stripped
    assert len(la) == 2 + 2  # header comment + columns + one row per seed


def test_experiment_workers_match_serial(tmp_path):
    cfg = ["space=cross:2:1", "m=48", "methods=random,greedy", "seeds=0..1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", "--config", *cfg, "--out", str(a)]) == EXIT_OK
    assert main(["experiment", "--config", *cfg, "--out", str(b), "--workers", "2"]) == EXIT_OK
    assert strip_runtime(a.read_text()) == strip_runtime(b.read_text())


def test_experiment_starts_no_more_workers_than_jobs(tmp_path, monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = ["space=cross:2:1", "m=8", "methods=random", "seeds=0..1"]
    assert main(["experiment", "--config", *cfg, "--out", str(tmp_path / "w.csv"), "--workers", "64"]) == EXIT_OK
    assert started == [2]


def test_experiment_l1_failure_exits_1(tmp_path, capsys):
    # a single point cannot discretize a 7-dim space: r_min collapses to 0
    cfg = ["space=cross:2:1", "m=1", "methods=random", "seeds=0", "l1=true", "effort=quick"]
    assert main(["experiment", "--config", *cfg, "--out", str(tmp_path / "c.csv")]) == EXIT_TARGET
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("failed: space cross:2:1 method random seed 0: r outside [0.5, 1.5] (r_min ")


def test_experiment_eps_target(tmp_path, capsys):
    cfg = ["space=cross:2:1", "m=48", "methods=greedy", "seeds=0", "eps_target=0.5"]
    assert main(["experiment", "--config", *cfg, "--out", str(tmp_path / "d.csv")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    cfg = ["space=cross:2:1", "m=8", "methods=random,greedy", "seeds=0..1", "eps_target=1e-9"]
    assert main(["experiment", "--config", *cfg, "--out", str(tmp_path / "e.csv")]) == EXIT_TARGET
    rows = [line.split(",") for line in (tmp_path / "e.csv").read_text().splitlines()[2:]]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"failed: space cross:2:1 method {r[3]} seed {r[4]}: eps {r[5]} > target 1e-09" for r in rows]
    assert len(err) == 4


OVERSIZED_SETS = [  # exact grids under MAX_RULE_NODES, frequency sets over MAX_SPACE_ENTRIES
    ["freqset", "--space", "box:1000000"],  # 2,000,001 frequencies
    ["freqset", "--space", "cross:20:1"],  # 2^21 - 1 frequencies
    ["freqset", "--space", "cross:0:1000000"],  # one frequency of a million coordinates
]


@pytest.mark.parametrize("argv", [
    ["discretize", "--space", "cross:6:3"],  # exact grid 127^3 passes; its rule at oversample 4 is 508^3 = 131M nodes
    ["freqset", "--space", "cross:24:1"],  # 2^25 - 1 frequencies
    ["freqset", "--space", "cross:2:1000"],  # 3^1000 dyadic blocks
    ["freqset", "--space", "box:100000x100000"],
    ["discretize", "--space", "cross:2:1", "--oversample", "10000000"],  # 70M nodes
    *OVERSIZED_SETS,
])
def test_oversized_input_fails_before_allocating(argv, capsys):
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert time.perf_counter() - t0 < 1.0
    assert peak < 20e6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    cap = "MAX_SPACE_ENTRIES = 262,144" if argv in OVERSIZED_SETS else "MAX_RULE_NODES = 16,777,216"
    assert cap in captured.err


@pytest.mark.parametrize("argv,cap", [
    (["discretize", "--space", "cross:2:1", "--m", "1000000000000"], "MAX_RULE_NODES = 16,777,216"),
    (["discretize", "--space", "cross:2:1", "--method", "greedy", "--m", "100000000000"], "MAX_RULE_NODES = 16,777,216"),
    (["experiment", "--config", "m=16777217"], "MAX_RULE_NODES = 16,777,216"),
    (["experiment", "--config", "seeds=0..1000000000000"], "MAX_SEEDS = 65,536"),
    (["experiment", "--config", "seeds=0..65536"], "MAX_SEEDS = 65,536"),  # one seed past the cap
    (["experiment", "--config", f"seeds=0..{10**30}"], "MAX_SEEDS = 65,536"),  # beyond a C ssize_t
])
def test_oversized_count_fails_before_allocating(argv, cap, capsys, no_system):
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert time.perf_counter() - t0 < 1.0
    assert peak < 20e6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert cap in captured.err


def test_seed_range_at_the_cap_is_accepted():
    assert parse_seeds(f"0..{cli.MAX_SEEDS - 1}") == list(range(cli.MAX_SEEDS))


@pytest.mark.parametrize("spec", ["cross:0:1", "cross:3:1", "cross:4:2", "cross:3:3", "cross:1:5", "box:4", "box:3x0x2"])
def test_space_entries_count_the_built_set(spec, monkeypatch):
    Q = cli.parse_space(spec)
    monkeypatch.setattr(cli, "MAX_SPACE_ENTRIES", len(Q) * Q.dim)
    assert cli.parse_space(spec) == Q
    monkeypatch.setattr(cli, "MAX_SPACE_ENTRIES", len(Q) * Q.dim - 1)
    with pytest.raises(argparse.ArgumentTypeError, match="MAX_SPACE_ENTRIES"):
        cli.parse_space(spec)


def test_largest_spaces_in_use_pass_the_cap():
    # the largest rule a test builds (cross:6:2), and the largest the roadmap plans: cross:4:3 at the L1 reference's oversample 8
    for spec, oversample in (("cross:6:2", 4), ("cross:8:2", 4), ("cross:4:3", 8)):
        assert math.prod(oversample * (2 * int(v) + 1) for v in cli.parse_space(spec).max_abs) <= MAX_RULE_NODES


def test_config_sha_tracks_content(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["experiment", "--config", "space=cross:2:1", "m=12", "--out", str(a)])
    main(["experiment", "--config", "space=cross:2:1", "m=16", "--out", str(b)])
    sha_a = a.read_text().split("\n")[0].split("config_sha256=")[1]
    sha_b = b.read_text().split("\n")[0].split("config_sha256=")[1]
    assert sha_a != sha_b


def test_console_script_version():
    res = subprocess.run([sys.executable, "-m", "normdisc.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "normdisc 0.1.0" in res.stdout


def test_import_leaves_scipy_optimize_and_spatial_unloaded(tmp_path):
    # _hashlib (OpenSSL) serves only config_sha, the process pool only --workers > 1
    lazy = ("scipy.optimize", "scipy.spatial", "_hashlib", "concurrent.futures.process")
    code = f"import sys, normdisc.cli; print(sorted(m for m in {lazy!r} if m in sys.modules))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    # numpy is the only runtime dependency: an L1 attack (deep holes included) and a discretize load no scipy
    experiment = ["experiment", "--config", "space=cross:2:1", "m=48", "methods=random", "seeds=0", "l1=true",
                  "effort=quick", "--out", str(tmp_path / "e.csv")]
    discretize = ["discretize", "--space", "cross:2:1", "--out", str(tmp_path / "d.json")]
    code = ("import sys; from normdisc.cli import main; "
            f"codes = [main({experiment!r}), main({discretize!r})]; "
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == f"{[EXIT_OK, EXIT_OK]} []"


@pytest.mark.parametrize("argv", [
    ["discretize", "--space", "cross:2:1", "--method", "bss", "--bss-d", "inf"],
    ["discretize", "--space", "cross:2:1", "--method", "bss", "--bss-d", "1e400"],
    ["discretize", "--space", "cross:2:1", "--method", "bss", "--bss-d", "nan"],
    ["experiment", "--config", "methods=bss", "bss_d=inf"],
    ["experiment", "--config", "methods=bss", "bss_d=nan"],
])
def test_nonfinite_bss_d_is_a_usage_error(argv, capsys, no_system):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["experiment", "--config", "space=cross:5:2", "methods=random,nope", "seeds=0"],
    ["discretize", "--space", "cross:5:2", "--method", "bss", "--bss-d", "inf"],
    ["discretize", "--space", "cross:2:1", "--method", "bss", "--bss-d", "1"],
    ["experiment", "--config", "methods=random,bss", "bss_d=0.5", "seeds=0"],
    ["discretize", "--space", "cross:2:1", "--eps-target", "nan"],
    ["experiment", "--config", "eps_target=nan", "seeds=0"],
    ["experiment", "--config", "eps_target=inf", "seeds=0"],
    ["experiment", "--workers", "-2", "--config", "seeds=0"],
    ["experiment", "--workers", "0", "--config", "seeds=0"],
])
def test_invalid_config_exits_before_any_system_is_built(argv, capsys, no_system):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,setting", [
    (["experiment", "--config", "space=cross:2:1", "seeds=-1..1", "methods=greedy,random"], "seeds"),
    (["experiment", "--config", "space=cross:2:1", "seeds=0,-2", "methods=grid"], "seeds"),
    (["discretize", "--space", "cross:2:1", "--method", "random", "--seed", "-3"], "--seed"),
    (["discretize", "--space", "cross:2:1", "--method", "grid", "--seed", "-3"], "--seed"),
])
def test_negative_seed_is_refused_before_any_system_is_built(argv, setting, capsys, no_system):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {setting} must be non-negative") and captured.err.count("\n") == 1


@pytest.mark.parametrize("pairs,sha", [
    (["l1=yes", "effort=full"], "06b6b85813816968"),
    (["l1=TRUE", "effort=full"], "06b6b85813816968"),
    (["l1=1", "effort=quick"], "fcfcf6879beacddf"),
    (["l1=No"], "05770f014eb7cf56"),
    (["l1=0"], "05770f014eb7cf56"),
])
def test_valid_configs_keep_their_sha(pairs, sha):
    # CSV headers already written carry these digests, so spellings of a valid value must not move them
    assert config_sha(parse_config(pairs)) == sha
