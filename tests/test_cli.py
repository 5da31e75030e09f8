import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

import casebound.attributable_risk as attributable_risk
import casebound.cli as cli_mod
from casebound.cli import main
from casebound.fixtures import count_table
from casebound.model import ColumnSchema, Design, ObservedDataset, export_csv
from casebound.rng import RngSpec, bernoulli
from casebound.synthetic import sample_from_population
from casebound.fixtures import top_income_population


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def write_university_csv(path):
    data = count_table("university_private_school").to_dataset(Design.CASE_CONTROL)
    export_csv(data, path, ColumnSchema(y="vsu", t="private"))
    return str(path)


def write_case_population_csv(path, n=3000, seed=31):
    from casebound.oracle import random_population
    pop = random_population(RngSpec(seed).derive("cli-pop"), n_cells=2,
                            mtr=True, mts=True)
    data = sample_from_population(pop, Design.CASE_POPULATION, 0.3, n,
                                  RngSpec(seed).derive("cli-sample"))
    export_csv(data, path, ColumnSchema(y="y", t="t", x=("x1",)))
    return str(path)


def test_demo_fast_and_reports_all_tables(runner):
    start = time.perf_counter()
    result = runner.invoke(main, ["demo"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert elapsed < 1.0
    for needle in ("2.1852", "2.1874", "2.0927", "2.0950", "1.3823"):
        assert needle in result.output


def test_demo_json_schema(runner):
    result = runner.invoke(main, ["demo", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema_version"] == 1
    assert len(doc["odds_ratios"]) == 4


def test_rr_university_counts(runner, tmp_path):
    path = write_university_csv(tmp_path / "univ.csv")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "rr", "--input", path, "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "1.3823" in result.output  # exp-scale estimate
    assert "stratum y=0" in result.output and "stratum y=1" in result.output
    band = (out / "rr_band.csv").read_text().splitlines()
    assert band[0] == "p,point,lower,upper"
    assert len(band) == 102  # header + 101 grid rows


def test_rr_json_output(runner, tmp_path):
    path = write_university_csv(tmp_path / "univ.csv")
    result = runner.invoke(main, [
        "rr", "--input", path, "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema_version"] == 1
    assert doc["estimates"]["beta1"]["exp_value"] == pytest.approx(1.3823, abs=5e-4)


def test_rr_json_pins_table_log_odds_ratio_and_woolf_se(runner, tmp_path):
    # without covariates beta(0) = beta(1) is the table's log odds ratio and
    # its se Woolf's sqrt(1/n00 + 1/n01 + 1/n10 + 1/n11)
    table = count_table("university_private_school")
    path = write_university_csv(tmp_path / "univ.csv")
    result = runner.invoke(main, [
        "rr", "--input", path, "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private", "--format", "json"])
    assert result.exit_code == 0, result.output
    estimates = json.loads(result.output)["estimates"]
    log_or = math.log(table.n11 * table.n00 / (table.n01 * table.n10))
    woolf = math.sqrt(1 / table.n00 + 1 / table.n01 + 1 / table.n10 + 1 / table.n11)
    for y in (0, 1):
        assert estimates[f"beta{y}"]["value"] == pytest.approx(log_or, rel=0, abs=1e-12)
        assert estimates[f"beta{y}"]["se"] == pytest.approx(woolf, rel=1e-12, abs=0)


def test_rr_case_population_single_stratum(runner, tmp_path):
    path = write_case_population_csv(tmp_path / "cp.csv")
    result = runner.invoke(main, [
        "rr", "--input", path, "--design", "case-population",
        "--y-col", "y", "--t-col", "t", "--x-cols", "x1", "--h0", "0.3"])
    assert result.exit_code == 0, result.output
    assert "stratum y=0" in result.output
    assert "stratum y=1" not in result.output


def test_rr_alpha_out_of_range_exits_2(runner, tmp_path):
    path = write_university_csv(tmp_path / "univ.csv")
    result = runner.invoke(main, [
        "rr", "--input", path, "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private", "--alpha", "0.7"])
    assert result.exit_code == 2


def _assert_one_error_line(result):
    assert result.exit_code == 2, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output


@pytest.mark.parametrize("command", ["rr", "ar"])
@pytest.mark.parametrize("step", ["0", "nan", "-0.01", "inf"])
def test_bad_grid_step_exits_2(runner, tmp_path, command, step):
    path = write_university_csv(tmp_path / "univ.csv")
    result = runner.invoke(main, [
        command, "--input", path, "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private", "--grid-step", step])
    _assert_one_error_line(result)
    assert "grid step must be positive and finite" in result.output


@pytest.mark.parametrize("command", ["rr", "ar"])
def test_too_fine_grid_step_exits_2(runner, tmp_path, command, monkeypatch):
    # the grid is refused before any fit runs; every ar fit, the sample's
    # included, goes through attributable_risk.fit_logit_batch
    fits = []
    for module, name in ((cli_mod, "fit_nuisances"), (attributable_risk, "fit_logit_batch")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, **k: fits.append(1) or real(*a, **k))
    path = write_university_csv(tmp_path / "univ.csv")
    args = [command, "--input", path, "--design", "case-control",
            "--y-col", "vsu", "--t-col", "private"]
    result = runner.invoke(main, args + ["--grid-step", "1e-12"])
    _assert_one_error_line(result)
    assert "more than 10000 intervals" in result.output
    assert not fits
    # the control: the same counters see the fits on a valid grid
    result = runner.invoke(main, args + ["--grid-step", "0.1", "--B", "200"]
                           if command == "ar" else args + ["--grid-step", "0.1"])
    assert result.exit_code == 0, result.output
    assert fits


@pytest.mark.parametrize("basis", ["polyx", "spline2.5"])
def test_bad_basis_suffix_exits_2(runner, tmp_path, basis):
    path = write_case_population_csv(tmp_path / "cp.csv")
    result = runner.invoke(main, [
        "rr", "--input", path, "--design", "case-population",
        "--y-col", "y", "--t-col", "t", "--x-cols", "x1", "--basis", basis])
    _assert_one_error_line(result)
    assert "takes an integer suffix" in result.output


@pytest.mark.parametrize("command, option, basis", [
    ("rr", "--basis", "polyx"), ("rr", "--basis", "nonsense"),
    ("ar", "--retro-basis", "bogus"), ("rr", "--basis", "linear")])
def test_basis_parsed_without_covariates(runner, tmp_path, command, option, basis):
    # the university table has no covariate column: the one basis term is
    # repeated zero times, and must still be a valid term
    path = write_university_csv(tmp_path / "univ.csv")
    result = runner.invoke(main, [
        command, "--input", path, "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private", option, basis])
    if basis == "linear":
        assert result.exit_code == 0, result.output
    else:
        _assert_one_error_line(result)


def test_rr_missing_column_exits_2(runner, tmp_path):
    path = write_university_csv(tmp_path / "univ.csv")
    result = runner.invoke(main, [
        "rr", "--input", path, "--design", "case-control",
        "--y-col", "nope", "--t-col", "private"])
    assert result.exit_code == 2
    assert "error:" in result.output


@pytest.mark.parametrize("n_bad, listed", [(3, "[0, 1, 2])"),
                                           (12, "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]...)")])
def test_dropped_rows_note_ellipsis_only_past_ten(runner, tmp_path, n_bad, listed):
    path = tmp_path / "univ.csv"
    write_university_csv(path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + ["1,"] * n_bad + rows) + "\n")
    result = runner.invoke(main, [
        "rr", "--input", str(path), "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private"])
    assert result.exit_code == 0, result.output
    assert result.stderr == f"note: dropped {n_bad} incomplete rows (indices {listed}\n"


def test_duplicated_mapped_column_exits_2(runner, tmp_path):
    # a header naming x1 twice: neither copy may be read silently
    path = tmp_path / "dup.csv"
    write_case_population_csv(path, n=200)
    header, *rows = path.read_text().splitlines()
    assert header == "y,t,x1"
    path.write_text("\n".join(["y,t,x1,x1"] + [f"{row},0.5" for row in rows]) + "\n")
    result = runner.invoke(main, [
        "ar", "--input", str(path), "--design", "case-population",
        "--y-col", "y", "--t-col", "t", "--x-cols", "x1", "--h0", "0.3"])
    _assert_one_error_line(result)
    assert "column 'x1' appears more than once" in result.output


def test_trailing_blank_line_is_not_a_dropped_row(runner, tmp_path):
    path = tmp_path / "univ.csv"
    write_university_csv(path)
    path.write_text(path.read_text() + "\n")
    result = runner.invoke(main, [
        "rr", "--input", str(path), "--design", "case-control",
        "--y-col", "vsu", "--t-col", "private"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""


def test_rr_one_class_stratum_exits_2(runner, tmp_path):
    # no treated row among the controls: the stratum fit has one response class
    gen = RngSpec(32).derive("one-class")
    y = np.repeat([1, 0], 200)
    t = np.concatenate([bernoulli(gen, np.full(200, 0.5)), np.zeros(200, dtype=int)])
    data = ObservedDataset(y=y, t=t, x=gen.standard_normal((400, 1)),
                           design=Design.CASE_CONTROL)
    path = tmp_path / "one_class.csv"
    export_csv(data, path, ColumnSchema(y="y", t="t", x=("x1",)))
    result = runner.invoke(main, [
        "rr", "--input", str(path), "--design", "case-control",
        "--y-col", "y", "--t-col", "t", "--x-cols", "x1"])
    assert result.exit_code == 2
    assert "both response classes must be present" in result.output


def test_rr_reads_a_utf8_byte_order_mark(runner, tmp_path):
    plain = pathlib.Path(write_university_csv(tmp_path / "univ.csv"))
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    results = [runner.invoke(main, ["rr", "--input", str(path), "--design", "case-control",
                                    "--y-col", "vsu", "--t-col", "private"])
               for path in (plain, bom)]
    assert results[1].exit_code == 0, results[1].output
    assert results[1].output == results[0].output


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_rr_overflowing_limit_prints_inf_and_null(runner, tmp_path):
    # both stratum fits are separated but stop below the coefficient bound,
    # with se about 3e4, so the exp-scale upper limits overflow
    path = tmp_path / "four.csv"
    path.write_text("y,t,x1\n0,1,0.5\n1,0,1.5\n0,0,0.2\n1,1,0.9\n")
    args = ["rr", "--input", str(path), "--design", "case-control",
            "--y-col", "y", "--t-col", "t", "--x-cols", "x1"]
    table = runner.invoke(main, args)
    assert table.exit_code == 0, table.output
    assert table.stderr == "" and table.stdout.count("[1, inf]") == 2
    result = runner.invoke(main, args + ["--format", "json"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    doc = json.loads(result.stdout, parse_constant=_refuse_constant)
    assert [doc["estimates"][b]["ci_level"][1] for b in ("beta0", "beta1")] == [None, None]
    assert None in doc["band"]["upper"]


@pytest.mark.parametrize("command", ["rr", "ar"])
def test_rr_overflowing_information_exits_3(runner, tmp_path, command):
    # finite covariates whose squares overflow the stratum fits' X'WX; ar
    # refuses the sample's fit, its block of one, before any draw
    path = tmp_path / "huge.csv"
    path.write_text("y,t,x1\n1,0,1e200\n1,1,-2e200\n1,0,3e200\n1,1,-1e200\n"
                    "0,0,2e200\n0,1,-3e200\n0,1,1e200\n0,0,-2e200\n")
    with np.errstate(over="ignore"):
        result = runner.invoke(main, [
            command, "--input", str(path), "--design", "case-control",
            "--y-col", "y", "--t-col", "t", "--x-cols", "x1"])
    assert result.exit_code == 3, result.output
    assert result.output == "error: observed information is not finite\n"


def test_rr_overflow_prints_only_the_typed_error(tmp_path):
    # numpy's overflow warning from X'WX stays silent (here it would abort
    # the run as an error); the finiteness check reports the failure
    import casebound

    path = tmp_path / "huge.csv"
    path.write_text("y,t,x1\n1,0,1e200\n1,1,-2e200\n1,0,3e200\n1,1,-1e200\n"
                    "0,0,2e200\n0,1,-3e200\n0,1,1e200\n0,0,-2e200\n")
    src = os.path.dirname(os.path.dirname(casebound.__file__))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "casebound.cli", "rr", "--input", str(path),
         "--design", "case-control", "--y-col", "y", "--t-col", "t", "--x-cols", "x1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert result.stderr == "error: observed information is not finite\n"


def test_ar_case_population_grid(runner, tmp_path):
    path = write_case_population_csv(tmp_path / "cp.csv")
    out = tmp_path / "arout"
    result = runner.invoke(main, [
        "ar", "--input", path, "--design", "case-population",
        "--y-col", "y", "--t-col", "t", "--x-cols", "x1",
        "--pbar", "0.15", "--B", "200", "--seed", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    curve = (out / "ar_curve.csv").read_text().splitlines()
    assert curve[0] == "p,point,upper,mu_star,nu_star"
    assert len(curve) == 17  # header + 16 grid rows
    first = curve[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    diag = json.loads((out / "ar_diagnostics.json").read_text())
    assert diag["schema_version"] == 1
    assert diag["mode"] == "uniform-bc"


def test_ar_rejects_small_bootstrap(runner, tmp_path):
    path = write_case_population_csv(tmp_path / "cp.csv")
    result = runner.invoke(main, [
        "ar", "--input", path, "--design", "case-population",
        "--y-col", "y", "--t-col", "t", "--x-cols", "x1", "--B", "50"])
    assert result.exit_code == 2


def test_oracle_command(runner, tmp_path):
    result = runner.invoke(main, ["oracle", "--populations", "5", "--seed", "3"])
    assert result.exit_code == 0, result.output
    assert "[PASS]" in result.output
    assert "[FAIL]" not in result.output


def test_oracle_population_file(runner, tmp_path):
    from casebound.oracle import random_population, save_population
    pop = random_population(RngSpec(17).derive("cli-pop"), n_cells=2, mtr=True,
                            mts=True)
    path = tmp_path / "pop.csv"
    save_population(pop, path)
    result = runner.invoke(main, ["oracle", "--population", str(path)])
    assert result.exit_code == 0, result.output
    assert "[PASS]" in result.output


@pytest.mark.parametrize("text", ["", "cell,t,y0,y1,mass,x1\nA,0,0,0,0.5,1\n",
                                  "cell,t,y0,y1,mass,x1\n0,-1,0,0,1.0,1\n"],
                         ids=["empty", "non-integer-cell", "negative-arm"])
def test_oracle_bad_population_file_exits_2(runner, tmp_path, text):
    path = tmp_path / "pop.csv"
    path.write_text(text)
    result = runner.invoke(main, ["oracle", "--population", str(path)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: {path}")


@pytest.mark.parametrize("command", ["oracle", "mc", "ar"])
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_negative_seed_exits_2(runner, tmp_path, command, via_env):
    args = {"oracle": ["oracle", "--populations", "2"],
            "mc": ["mc", "--replications", "100"],
            "ar": ["ar", "--input", write_case_population_csv(tmp_path / "cp.csv"),
                   "--design", "case-population", "--y-col", "y", "--t-col", "t",
                   "--x-cols", "x1", "--B", "200"]}[command]
    env = {"CASEBOUND_SEED": "-1"} if via_env else {}
    result = runner.invoke(main, args if via_env else args + ["--seed", "-1"], env=env)
    assert result.exit_code == 2, result.output
    assert "seed must be a non-negative integer" in result.output


def test_mc_command_deterministic(runner):
    args = ["mc", "--replications", "100", "--seed", "21",
            "--estimators", "parametric"]
    r1 = runner.invoke(main, args)
    r2 = runner.invoke(main, args)
    assert r1.exit_code == 0, r1.output
    assert r1.output == r2.output
    assert "coverage" in r1.output


def test_mc_writes_summary(runner, tmp_path):
    out = tmp_path / "mc"
    result = runner.invoke(main, ["mc", "--replications", "100", "--seed", "22",
                                  "--estimators", "parametric",
                                  "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads((out / "mc_summary.json").read_text())
    assert doc["schema_version"] == 1
    assert len(doc["cells"]) == 2


def test_mc_without_estimators_exits_2_before_any_draw(runner, monkeypatch):
    import casebound.synthetic as synthetic
    draws = []
    monkeypatch.setattr(synthetic, "draw_mc_sample", lambda *args: draws.append(args))
    result = runner.invoke(main, ["mc", "--replications", "100", "--estimators", ","])
    assert result.exit_code == 2, result.output
    assert "name at least one estimator" in result.output and not draws


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy costs most of the CLI's start-up; the package runs on
    # numpy alone, so no scipy module at all (scipy.stats included) loads
    import casebound

    src = os.path.dirname(os.path.dirname(casebound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, casebound.cli; print({_SCIPY_MODULES})"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


_RUN_WITHOUT_SCIPY = """
import sys
import numpy as np
from click.testing import CliRunner
from casebound.cli import main
from casebound.model import ColumnSchema, Design, ObservedDataset, export_csv

rng = np.random.default_rng(5)
x = rng.standard_normal(400)
t = (rng.random(400) < 1 / (1 + np.exp(-0.8 * x))).astype(int)
y = (rng.random(400) < 0.4).astype(int)
export_csv(ObservedDataset(y=y, t=t, x=x, design=Design.CASE_POPULATION),
           sys.argv[1], ColumnSchema(y="y", t="t", x=("x1",)))
runner = CliRunner()
for args in (["oracle", "--populations", "3", "--seed", "1"],
             ["ar", "--input", sys.argv[1], "--design", "case-population",
              "--y-col", "y", "--t-col", "t", "--x-cols", "x1",
              "--retro-basis", "spline3", "--pbar", "0.15", "--B", "200"],
             ["mc", "--replications", "100", "--estimators", "parametric"]):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, (args, result.output)
print(""" + _SCIPY_MODULES + """)
"""


def test_cli_calls_leave_scipy_optimize_interpolate_and_stats_unloaded(tmp_path):
    # the spline basis and the special functions run on in-house ports and
    # the AR envelope is closed-form, so no lazy import of scipy can hide
    # inside a timed CLI call
    import casebound

    src = os.path.dirname(os.path.dirname(casebound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY,
                          str(tmp_path / "cp.csv")],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"



@pytest.mark.parametrize("count", ["0", "-2"])
def test_oracle_rejects_an_empty_suite(runner, count):
    result = runner.invoke(main, ["oracle", "--populations", count, "--strict"])
    assert result.exit_code == 2, result.output
    assert "[PASS]" not in result.output


def test_oracle_nan_error_fails_and_json_stays_valid(runner, monkeypatch):
    import casebound.checks
    monkeypatch.setattr(casebound.checks, "gamma", lambda law, cell, p: float("nan"))
    result = runner.invoke(main, ["oracle", "--populations", "2", "--strict",
                                  "--format", "json"])
    assert result.exit_code == 6, result.output

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    doc = json.loads(result.output, parse_constant=reject)
    by_name = {r["name"]: r for r in doc["results"]}
    odds = by_name["odds-ratio invariance: Gamma(x, 0) equals the prospective odds ratio"]
    assert odds["failures"] == odds["cases"] == 4
    assert odds["worst_error"] is None
