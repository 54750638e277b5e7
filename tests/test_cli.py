"""Command-line interface: exit codes, file outputs, reproducibility."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

import tcpfluid
from tcpfluid import cli
from tcpfluid.cli import _tcp_params, _window_law, build_parser, main
from tcpfluid.tcp_finite import (
    FiniteBufferParams,
    finite_window_pdf,
    solve_finite_distribution,
)
from tcpfluid.tcp_infinite import TcpParams, window_moment


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _data_rows(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def _numeric_columns(path) -> dict[str, np.ndarray]:
    """Every column of a CSV table that is not the strategy label, parsed
    with float()."""
    rows = list(csv.reader(_data_rows(path)))
    return {
        name: np.array([float(row[i]) for row in rows[1:]])
        for i, name in enumerate(rows[0])
        if name != "strategy"
    }


def _fresh_python(code: str) -> str:
    """stdout of `code` in a fresh interpreter, so modules other tests
    imported do not count."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tcpfluid.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout


def test_import_skips_scipy_stats_and_integrate():
    code = (
        "import sys, tcpfluid.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate', "
        "'concurrent.futures.process', 'multiprocessing', 'scipy.special', 'scipy') "
        "if m in sys.modules))"
    )
    out = _fresh_python(code)
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["netsim", "--nodes", "500", "--flows", "50"],
        ["tree", "--enumerate", "--tau", "5"],
    ],
    ids=["netsim", "tree-enumerate"],
)
def test_commands_without_special_functions_never_load_scipy(tmp_path, argv):
    code = (
        "import sys; from tcpfluid.cli import main; "
        f"rc = main({argv + ['--outdir', str(tmp_path)]!r}); "
        "print(rc, 'scipy.special' in sys.modules)"
    )
    out = _fresh_python(code)
    assert out.split()[-2:] == ["0", "False"]


_SMALL = ["--grid-points", "64"]


@pytest.mark.parametrize(
    "argv",
    [
        ["tcp-dist", "--p", "1e-3", *_SMALL],
        ["tcp-dist", "--p", "1e-3", "--variant", "frfr", *_SMALL],
        ["tcp-dist", "--p", "5e-3", "--buffer", "40", "--format", "json", *_SMALL],
        ["validate", "--p", "1e-2", "--events", "4000"],
        ["validate", "--p", "1e-2", "--events", "4000", "--variant", "wan", "--bdp", "10"],
        ["validate", "--p", "1e-2", "--events", "4000", "--buffer", "20"],
        ["tree", "--tau", "2000", "--realizations", "2", "--check", "ccdf",
         "--check-tolerance", "0.05", "--max-rows", "50"],
        ["tree", "--tau", "5", "--enumerate"],
        ["netsim", "--nodes", "300", "--flows", "30"],
    ],
    ids=[
        "tcp-dist", "tcp-dist-frfr", "tcp-dist-buffer", "validate", "validate-wan",
        "validate-buffer", "tree-check-ccdf", "tree-enumerate", "netsim",
    ],
)
def test_no_readme_command_loads_scipy(tmp_path, argv):
    # the special functions come from numpy and the standard library, so
    # not even the window laws and the histogram p-value import scipy
    code = (
        "import sys; from tcpfluid.cli import main; "
        f"rc = main({argv + ['--outdir', str(tmp_path)]!r}); "
        "print(rc, 'scipy' in sys.modules)"
    )
    out = _fresh_python(code)
    assert out.split()[-2:] == ["0", "False"]


def test_tcp_dist_infinite_outputs(tmp_path):
    out = tmp_path / "d"
    rc = main(["tcp-dist", "--p", "0.01", "--outdir", str(out)])
    assert rc == 0
    assert (out / "tcp_dist_pdf.csv").exists()
    summary = _read_json(out / "tcp_dist_summary.json")
    params = TcpParams(alpha=1.0, loss_rate=0.01, m=1.0, beta=0.5)
    assert summary["moments"]["mean_plain"] == pytest.approx(
        window_moment(params, 0.5), rel=1e-12
    )
    assert summary["A"] is None
    assert summary["meta"]["p"] == 0.01
    rows = _data_rows(out / "tcp_dist_pdf.csv")
    assert rows[0].strip() == "w,pdf,ccdf"
    assert len(rows) == 513


def test_tcp_dist_density_vanishes_at_zero_for_c_08(tmp_path):
    # twelve fixed residues left pdf(0) at 1.8e-5 here
    rc = main([
        "tcp-dist", "--p", "0.01", "--m", "0", "--beta", "0.8", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    cols = _numeric_columns(tmp_path / "tcp_dist_pdf.csv")
    assert cols["w"][0] == 0.0
    assert abs(cols["pdf"][0]) <= 1e-12


def test_tcp_dist_rejects_c_too_close_to_one(tmp_path, capsys):
    # c = 0.9: the alternating sums would keep fewer than 10 digits; twelve
    # fixed residues once wrote pdf(0) = 105744.9 here
    rc = main([
        "tcp-dist", "--p", "0.01", "--m", "0", "--beta", "0.9", "--outdir", str(tmp_path),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "tcp_dist_pdf.csv").exists()


def test_tcp_dist_finite_frfr_summary(tmp_path):
    out = tmp_path / "d"
    rc = main([
        "tcp-dist", "--p", "0.02", "--buffer", "40", "--variant", "frfr",
        "--outdir", str(out),
    ])
    assert rc == 0
    summary = _read_json(out / "tcp_dist_summary.json")
    fb = FiniteBufferParams(
        TcpParams(alpha=1.0, loss_rate=0.02, m=1.0, beta=0.5), buffer_size=40.0
    )
    sol = solve_finite_distribution(fb)
    assert summary["A"] == pytest.approx(sol.A, rel=1e-12)
    assert summary["point_mass"]["weight"] > 0.0
    assert summary["point_mass"]["at"] == pytest.approx(0.5 * fb.effective_limit)


@pytest.mark.parametrize("variant", ["plain", "frfr"])
def test_tcp_dist_finite_ccdf_stays_a_ccdf_on_coarse_grid(tmp_path, variant):
    # a cumulative trapezoid of the density once read -0.034 here
    rc = main([
        "tcp-dist", "--p", "0.01", "--buffer", "60", "--grid-points", "8",
        "--variant", variant, "--outdir", str(tmp_path),
    ])
    assert rc == 0
    ccdf = _numeric_columns(tmp_path / "tcp_dist_pdf.csv")["ccdf"]
    assert len(ccdf) == 8
    assert ccdf.min() >= 0.0 and ccdf.max() <= 1.0
    assert np.max(np.diff(ccdf)) <= 1e-12


def test_every_csv_table_parses_as_numbers(tmp_path):
    runs = {
        "d": ["tcp-dist", "--p", "0.01"],
        "t": ["tree", "--tau", "200", "--realizations", "2", "--check", "ccdf",
              "--check-tolerance", "1.0"],
        "n": ["netsim", "--nodes", "30", "--flows", "8", "--epochs", "100",
              "--strategy", "uniform"],
    }
    for sub, args in runs.items():
        assert main(args + ["--outdir", str(tmp_path / sub)]) == 0
    tables = sorted(tmp_path.glob("*/*.csv"))
    assert len(tables) == 6
    for path in tables:
        for name, column in _numeric_columns(path).items():
            assert column.size > 0 and np.all(np.isfinite(column)), (path.name, name)


def test_every_json_output_loads_with_equal_columns(tmp_path):
    # every subcommand that offers --format json
    runs = {
        "d": ["tcp-dist", "--p", "0.01"],
        "v": ["validate", "--p", "0.01", "--events", "2000"],
        "t": ["tree", "--tau", "6", "--realizations", "2"],
        "n": ["netsim", "--nodes", "30", "--flows", "8", "--epochs", "100",
              "--strategy", "uniform"],
    }
    for sub, args in runs.items():
        assert main(args + ["--format", "json", "--outdir", str(tmp_path / sub)]) == 0
    files = sorted(tmp_path.glob("*/*.json"))
    assert len(files) == 10
    tables = [doc for doc in map(_read_json, files) if "columns" in doc]
    assert len(tables) == 6
    for table in tables:
        columns = {k: v for k, v in table["columns"].items() if k != "strategy"}
        assert len({len(v) for v in table["columns"].values()}) == 1, table["meta"]
        for name, column in columns.items():
            values = np.array(column, dtype=float)
            assert values.size > 0 and np.all(np.isfinite(values)), name


def test_tcp_dist_missing_p_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["tcp-dist"])
    assert err.value.code == 2


def test_validate_pass(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["validate", "--p", "0.01", "--events", "8000", "--outdir", str(out)])
    assert rc == 0
    assert "validate: PASS" in capsys.readouterr().out
    report = _read_json(out / "validate_report.json")
    assert report["checks"]["chi2"] is True
    assert report["checks"]["ks"] is True
    # the default top edge keeps the whole law
    assert abs(report["diagnostics"]["mass_above_wmax"]) < 1e-12


def test_validate_beta_mismatch_fails(tmp_path):
    out = tmp_path / "v"
    rc = main([
        "validate", "--p", "0.01", "--events", "8000",
        "--analytic-beta", "0.8", "--outdir", str(out),
    ])
    assert rc == 3
    report = _read_json(out / "validate_report.json")
    assert not (report["checks"]["chi2"] and report["checks"]["ks"])


def test_validate_rerun_is_byte_identical(tmp_path):
    args = ["validate", "--p", "0.02", "--events", "2000", "--buffer", "30"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--outdir", str(a)]) == 0
    assert main(args + ["--outdir", str(b)]) == 0
    ra = (a / "validate_report.json").read_bytes()
    rb = (b / "validate_report.json").read_bytes()
    assert ra == rb


def test_validate_jobs_do_not_change_results(tmp_path):
    reports = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / jobs
        main(["validate", "--p", "0.02", "--events", "12000", "--jobs", jobs,
              "--outdir", str(out)])
        reports.append((out / "validate_report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


# SHA-256 of the validate_report.json of three small runs (default seed and
# bins), recorded before `window_sim.validate` took over the chunking
VALIDATE_SMALL_DIGESTS = {
    ("--p", "1e-2", "--events", "4000"):
        "3205769746443f84d7c45543f8ea5e94dc29e4102dc7fdf70c72514c03d220c0",
    ("--p", "1e-2", "--m", "0.5", "--buffer", "30", "--variant", "frfr", "--events", "4000"):
        "dd854fb9713790f27f4f90a9c2a2c93cca1c5c5921aefca9f9170c93198dcf44",
    ("--p", "1e-2", "--variant", "wan", "--bdp", "20", "--events", "4000"):
        "5b9d5250fcd953bd7abed2edd2356fa662fe98136399602e12c9508c756e2a0d",
}


@pytest.mark.parametrize("flags", list(VALIDATE_SMALL_DIGESTS))
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_validate_report_matches_its_recorded_digest(tmp_path, flags, jobs):
    assert main(["validate", *flags, "--jobs", jobs, "--outdir", str(tmp_path)]) == 0
    report = (tmp_path / "validate_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == VALIDATE_SMALL_DIGESTS[flags]


def test_wan_with_a_bdp_whose_volume_overflows_runs(tmp_path):
    # T^(m+1) = (1e70)^5 overflows; both commands once exited 1 with an
    # OverflowError traceback
    flags = ["--p", "1e-2", "--m", "4", "--bdp", "1e70", "--variant", "wan"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["tcp-dist", *flags, "--outdir", str(tmp_path)]) == 0
        assert main(["validate", *flags, "--events", "4000", "--outdir", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "tcp_dist_summary.json")
    report = _read_json(tmp_path / "validate_report.json")
    assert summary["moments"]["mean"] == pytest.approx(report["mean_window"], rel=0.05)


def test_wan_with_a_bdp_whose_volume_overflows_raises_no_runtime_warning(tmp_path):
    # the density's and the integral's w^(m+1) once warned "overflow in
    # power", and died of it under -W error
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tcpfluid.__file__)))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "tcpfluid.cli", "tcp-dist",
            "--p", "0.01", "--m", "4", "--variant", "wan", "--bdp", "1e70",
            "--outdir", str(tmp_path)]
    run = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert "Warning" not in run.stderr


def test_tcp_dist_finite_mean_at_tiny_p_is_the_sawtooth_limit(tmp_path):
    # the row integrals once underflowed: "mean": 0.0 and exit 0
    argv = ["tcp-dist", "--p", "1e-300", "--m", "0", "--buffer", "10", "--format", "json"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    B, c = 12.5354, 0.5
    sawtooth = 0.5 * B * (1 - c**2) / (1 - c)
    mean = _read_json(tmp_path / "tcp_dist_summary.json")["moments"]["mean"]
    assert mean == pytest.approx(sawtooth, rel=1e-12)


@pytest.mark.parametrize("command", ["tcp-dist", "validate"])
def test_finite_buffer_rejects_wan_variant(tmp_path, capsys, command):
    # no finite-buffer wan law exists; tcp-dist once wrote the plain table
    rc = main([command, "--p", "0.02", "--buffer", "40", "--variant", "wan",
               "--bdp", "10", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_validate_wan_simulates_the_plateaus_of_its_law(tmp_path):
    # the wan law has FR/FR plateaus; simulated without them this read p = 6.2e-7
    rc = main(["validate", "--p", "0.01", "--variant", "wan", "--bdp", "20",
               "--events", "8000", "--outdir", str(tmp_path)])
    assert rc == 0
    checks = _read_json(tmp_path / "validate_report.json")["checks"]
    assert checks["chi2"] is True
    assert checks["ks"] is True


def test_validate_frfr_atom_after_a_buffer_hit_sits_in_the_laws_bin(tmp_path):
    # at m = 0.5 the atom beta*B_eff lies on a bin edge, and recovering
    # W_before as (B_eff^(m+1))^(1/(m+1)) came out one ulp below B_eff, so
    # every simulated atom fell one bin low of the law's (chi2 1758, exit 3)
    rc = main(["validate", "--p", "0.01", "--m", "0.5", "--buffer", "30",
               "--variant", "frfr", "--outdir", str(tmp_path)])
    assert rc == 0


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--variant", "frfr"],
        ["--variant", "wan", "--bdp", "170.67"],
        ["--buffer", "20"],
        ["--buffer", "60"],
        ["--buffer", "20", "--variant", "frfr"],
        ["--buffer", "60", "--variant", "frfr"],
    ],
)
def test_every_window_law_has_one_interface(argv):
    args = build_parser().parse_args(["tcp-dist", "--p", "0.01", *argv])
    law = _window_law(args, _tcp_params(args))
    top = law.support_cutoff()
    assert abs(law.ccdf(0.0) - 1.0) <= 1e-15
    # the mean is the CCDF's area; split where the laws jump or kink
    if args.buffer is None:
        breaks = [args.bdp]
    else:
        edges = law.level_edges()
        breaks = [*edges, *(args.beta * edges)]
        w = np.linspace(0.0, top, 33)
        assert np.array_equal(finite_window_pdf(law, w), law.pdf(w))
    bounds = [0.0, *sorted(b for b in set(breaks) if 0.0 < b < top), top]
    area = sum(
        integrate.quad(law.ccdf, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(bounds, bounds[1:])
    )
    assert law.mean() == pytest.approx(area, rel=1e-12)
    has_atom = args.buffer is not None and args.variant == "frfr"
    assert (law.point_mass is not None) == has_atom


@pytest.mark.parametrize(
    "argv, table",
    [
        (["tcp-dist", "--p", "0.01", "--grid-points", "8"], "tcp_dist_pdf.csv"),
        (["validate", "--p", "0.02", "--events", "1000", "--bins", "20"],
         "validate_report.json"),
        (["tree", "--tau", "20"], "tree_marginal_n.csv"),
    ],
)
def test_header_echoes_every_flag(tmp_path, argv, table):
    flags = set(vars(build_parser().parse_args(argv))) - {
        "subcommand", "func", "outdir", "seed", "format", "jobs",
    }
    main(argv + ["--outdir", str(tmp_path)])
    path = tmp_path / table
    if path.suffix == ".json":
        meta = _read_json(path)["meta"]
    else:
        with open(path) as fh:
            meta = dict(line[2:].rstrip("\n").split("=", 1)
                        for line in fh if line.startswith("# "))
    assert set(meta) == flags | {"subcommand", "version", "seed", "format"}


def test_validate_too_few_events_rejected(tmp_path):
    rc = main(["validate", "--p", "0.01", "--events", "500",
               "--outdir", str(tmp_path)])
    assert rc == 2


def test_tree_enumerate_small(tmp_path, capsys):
    rc = main(["tree", "--tau", "6", "--enumerate", "--outdir", str(tmp_path)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    summary = _read_json(tmp_path / "tree_summary.json")
    assert summary["enumerate_max_abs_error"] < 1e-12


def test_tree_enumerate_refuses_large_tau(tmp_path, capsys):
    # enumerate_exact owns the limit; tau = 9 once slipped past a looser
    # CLI-side check and failed with a different message
    for tau in ("9", "20"):
        rc = main(["tree", "--tau", tau, "--enumerate", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "tau <= 8" in capsys.readouterr().err


def test_tree_rejects_empty_tables_and_negative_realizations(tmp_path, capsys):
    out = tmp_path / "out"
    for flags in (["--max-q-rows", "0", "--realizations", "2", "--check", "ccdf"],
                  ["--max-rows", "0"], ["--realizations", "-1"]):
        rc = main(["tree", "--tau", "50", *flags, "--outdir", str(out)])
        assert rc == 2, flags
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()


# --tau 0 and -4 once exited 0 with header-only tables and zero means, and
# at --tau 0 an --alpha of 5 passed too
@pytest.mark.parametrize("flags, named", [
    (["--tau", "0"], "tau"),
    (["--tau", "-4"], "tau"),
    (["--tau", "0", "--alpha", "5"], "alpha"),
    (["--tau", "50", "--alpha", "5"], "alpha"),
    (["--tau", "50", "--alpha", "-0.5"], "alpha"),
])
def test_tree_rejects_bad_tau_and_alpha(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    rc = main(["tree", *flags, "--outdir", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_tree_ccdf_check_against_simulation(tmp_path):
    rc = main([
        "tree", "--tau", "500", "--realizations", "8", "--check", "ccdf",
        "--check-tolerance", "0.02", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "tree_marginal_n.csv").exists()
    assert (tmp_path / "tree_marginal_q.csv").exists()


def test_tree_ccdf_check_defaults_to_20_realizations(tmp_path, monkeypatch):
    seeds, tree_counts = [], cli._tree_counts

    def counted(payload):
        seeds.append(payload[2])
        return tree_counts(payload)

    monkeypatch.setattr(cli, "_tree_counts", counted)
    rc = main(["tree", "--tau", "200", "--check", "ccdf", "--check-tolerance", "1",
               "--outdir", str(tmp_path)])
    assert rc == 0
    assert len(set(seeds)) == 20
    for name in ("tree_marginal_n.csv", "tree_marginal_q.csv"):
        with open(tmp_path / name) as fh:
            assert "# realizations=20\n" in fh.readlines(), name
    assert _read_json(tmp_path / "tree_summary.json")["meta"]["realizations"] == 20


def test_outdir_that_is_a_file_exits_2_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["tree", "--tau", "6", "--outdir", str(path)]) == 2
    err = capsys.readouterr().err
    assert "output directory not writable" in err
    assert "Traceback" not in err
    assert path.read_text() == ""


def test_tree_jobs_do_not_change_data_rows(tmp_path):
    base = ["tree", "--tau", "300", "--realizations", "6", "--seed", "9"]
    a, b = tmp_path / "j1", tmp_path / "j2"
    assert main(base + ["--jobs", "1", "--outdir", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--outdir", str(b)]) == 0
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_netsim_tiny_run_outputs(tmp_path):
    out = tmp_path / "n"
    rc = main([
        "netsim", "--nodes", "40", "--flows", "12", "--epochs", "300",
        "--strategy", "all", "--seed", "3", "--outdir", str(out),
    ])
    assert rc == 0
    summary = _read_json(out / "netsim_summary.json")
    assert set(summary["strategies"]) == {
        "uniform", "maximum", "minimum", "product", "mean_field",
    }
    for rec in summary["strategies"].values():
        assert rec["mean_q"] > 0.0
        assert rec["duration"] > 0.0
    assert "ordering_mean_field_minimum_product_maximum_uniform" in summary
    for name in summary["strategies"]:
        assert (out / f"netsim_flows_{name}.csv").exists()
    assert (out / "netsim_q_cdf.csv").exists()
    assert (out / "netsim_capacity_ccdf.csv").exists()

# SHA-256 of each file `netsim --nodes 300 --flows 30` writes (default seed
# and epochs), recorded when every strategy still grew its own tree; the
# summary's were re-recorded when it gained the median ordering and ratio.
NETSIM_SMALL_DIGESTS = {
    "csv": {
        "netsim_capacity_ccdf.csv": "bb1cb43e5168cb7c2033cd1f40faf2592763c01067379afa0f6d85009b1f5a92",
        "netsim_flows_maximum.csv": "4ba8d8d3c6bf6847ab38c771ae6c6873e0ac142355d6da7f27738f05bf6252a9",
        "netsim_flows_mean_field.csv": "8a3a98de77cb91fad0aa2caf1bd49af9bc09ffd5c9d4471e0512b02d0dcc1790",
        "netsim_flows_minimum.csv": "46dafc4bcc6716b5c4a811da19e320e56fd6fac74fcba78c77a03b9a478530d4",
        "netsim_flows_product.csv": "ad31a4ac8ec395277f2e3b45764ed01eb6e58db23cdf4e43ad97e054c22e910d",
        "netsim_flows_uniform.csv": "9134da88d5311ae34e014f3ae58172b880eae1eeda28ff8ccc36a727037e10ba",
        "netsim_q_cdf.csv": "1dcdd8e47ac3ec02149c3a904ca3c1d4ac4df686ca4acd81a6496c90badf1668",
        "netsim_summary.json": "bd9946fd8508eeb6d50f7a1723ed4da3dffb48ba89036717de0aa598d32ecd57",
    },
    "json": {
        "netsim_capacity_ccdf.json": "567836406dafa04208cfa64c3bdc2427db6f0afeb38471dc5a940ba3f884ae8a",
        "netsim_flows_maximum.json": "5629d77924565d642b8f758c01e58f79dda285c38fb697e1ae97788700d2c618",
        "netsim_flows_mean_field.json": "7a99360927f3f13b95e083ec2adcd48399a02294a68009ed52478000311eec1b",
        "netsim_flows_minimum.json": "82e2d71dfc23e465d2c24d0d03754af9c9244bbb20dbad424aa72ee4bccd5e8a",
        "netsim_flows_product.json": "e08b6ca0a92cff4fd3bec8f3d7c336c3c1e466bf8014418db5e38409546fbe9b",
        "netsim_flows_uniform.json": "3d67e2fffc6307faa7b0482e7677f774fcc747aebbdaac1d2559d0e842e46b93",
        "netsim_q_cdf.json": "c2c733cf4447682c7e69f458658c04d57be18221555a1623da3218054f3fc7d4",
        "netsim_summary.json": "4624ad16fcb5d19b18b71d69d85fa8555a74ff821b8da6b9a8fb9e160ecf4666",
    },
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_netsim_outputs_match_across_jobs_and_recorded_digests(tmp_path, fmt):
    digests = {}
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        rc = main(["netsim", "--nodes", "300", "--flows", "30", "--format", fmt,
                   "--jobs", jobs, "--outdir", str(out)])
        assert rc == 0
        digests[jobs] = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()
        }
    assert digests["1"] == digests["2"]
    assert digests["1"] == NETSIM_SMALL_DIGESTS[fmt]


def test_netsim_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"nodes": 30, "flows": 8, "epochs": 200,
                                "strategy": "uniform", "seed": 5}))
    out = tmp_path / "n"
    rc = main(["netsim", "--config", str(conf), "--flows", "10",
               "--outdir", str(out)])
    assert rc == 0
    meta = _read_json(out / "netsim_summary.json")["meta"]
    assert meta["flows"] == 10  # flag beats file
    assert meta["nodes"] == 30  # file beats built-in default
    assert meta["seed"] == 5


# each config value must have its flag's JSON type, and the top level must
# be an object; a bool is no number and only epochs may be null
@pytest.mark.parametrize(
    "conf, named",
    [
        ({"nodes": 30, "bogus": 1}, "bogus"),
        ({"flows": 10.5}, "flows"),
        ({"nodes": "300"}, "nodes"),
        ({"seed": None}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"epochs": 100.0}, "epochs"),
        ({"pi": "0.5"}, "pi"),
        ({"beta": True}, "beta"),
        ({"strategy": "fastest"}, "strategy"),
        ([{"nodes": 30}], "object"),
    ],
)
def test_netsim_unknown_config_key_rejected(tmp_path, capsys, conf, named):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / "out"
    rc = main(["netsim", "--config", str(path), "--outdir", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# no flows once escaped main as a StagnationError traceback (exit 1), and
# a negative count exited with numpy's "negative dimensions" message
@pytest.mark.parametrize("flows", ["0", "-3", "config 0"])
def test_netsim_rejects_fewer_than_one_flow(tmp_path, capsys, flows):
    out = tmp_path / "out"
    argv = ["netsim", "--nodes", "10", "--epochs", "10", "--strategy", "uniform"]
    if flows.startswith("config"):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"flows": int(flows.split()[1])}))
        argv += ["--config", str(conf)]
    else:
        argv += ["--flows", flows]
    rc = main(argv + ["--outdir", str(out)])
    assert rc == 2
    assert "--flows" in capsys.readouterr().err
    assert not out.exists()


def test_netsim_check_ordering_needs_all(tmp_path):
    out = tmp_path / "out"
    rc = main(["netsim", "--nodes", "30", "--flows", "8", "--epochs", "100",
               "--strategy", "uniform", "--check", "ordering",
               "--outdir", str(out)])
    assert rc == 2
    assert not out.exists()


_NETSIM = ["netsim", "--nodes", "10", "--flows", "3", "--strategy", "uniform"]


# each once exited 2 only after making an empty output directory, with the
# library's term ("capacities must be positive") or numpy's in place of the
# flag, and --grid-points 0 exited 0 with a header-only table; a tolerance
# or significance out of range ran the whole job, wrote its files and
# exited 3
@pytest.mark.parametrize("argv, conf, flag", [
    (_NETSIM + ["--epochs", "0"], None, "--epochs"),
    (_NETSIM + ["--mean-capacity", "0"], None, "--mean-capacity"),
    (_NETSIM + ["--pi", "0"], None, "--pi"),
    (_NETSIM + ["--pi", "1.5"], None, "--pi"),
    (_NETSIM + ["--beta", "1"], None, "--beta"),
    (_NETSIM + ["--beta", "0"], None, "--beta"),
    (_NETSIM + ["--alpha", "2"], None, "--alpha"),
    (_NETSIM + ["--alpha", "-0.5"], None, "--alpha"),
    (_NETSIM, {"epochs": 0}, "--epochs"),
    (_NETSIM, {"mean_capacity": -1.0}, "--mean-capacity"),
    (_NETSIM, {"pi": 0}, "--pi"),
    (_NETSIM, {"beta": 1.0}, "--beta"),
    (_NETSIM, {"alpha": 1.5}, "--alpha"),
    (["validate", "--p", "1e-2", "--bins", "1"], None, "--bins"),
    (["tcp-dist", "--p", "1e-2", "--grid-points", "-1"], None, "--grid-points"),
    (["tcp-dist", "--p", "1e-2", "--grid-points", "0"], None, "--grid-points"),
    (["tcp-dist", "--p", "1e-2", "--grid-points", "1"], None, "--grid-points"),
    (["tree", "--tau", "50", "--check", "ccdf", "--check-tolerance", "-1"], None,
     "--check-tolerance"),
    (["tree", "--tau", "50", "--check", "ccdf", "--check-tolerance", "nan"], None,
     "--check-tolerance"),
    (["validate", "--p", "1e-2", "--chi2-significance", "2"], None, "--chi2-significance"),
    (["validate", "--p", "1e-2", "--chi2-significance", "nan"], None, "--chi2-significance"),
    (["validate", "--p", "1e-2", "--ks-threshold", "-1"], None, "--ks-threshold"),
    (["validate", "--p", "1e-2", "--ks-threshold", "inf"], None, "--ks-threshold"),
    (["validate", "--p", "1e-2", "--buffer", "30", "--loss-ratio-tolerance", "-0.1"], None,
     "--loss-ratio-tolerance"),
    (["tcp-dist", "--p", "1e-2", "--jobs", "0"], None, "--jobs"),
    (["validate", "--p", "1e-2", "--jobs", "-3"], None, "--jobs"),
    (["tree", "--tau", "50", "--jobs", "0"], None, "--jobs"),
    (_NETSIM + ["--jobs", "-3"], None, "--jobs"),
    # the plain second moment overflows, in the closed form at m = 0 and in
    # the Gamma sum at m = 0.5; both once exited 1 with an OverflowError
    # traceback and left an empty output directory
    (["tcp-dist", "--p", "1e-200", "--m", "0"], None, "--p"),
    (["tcp-dist", "--p", "1e-300", "--m", "0.5"], None, "--p"),
    # an infinite mean capacity exited 0 with Infinity and NaN tokens in
    # netsim_summary.json, which is no JSON; a config's 1e400 is inf too
    (_NETSIM + ["--mean-capacity", "inf"], None, "--mean-capacity"),
    (_NETSIM, {"mean_capacity": 1e400}, "--mean-capacity"),
])
def test_bad_value_exits_2_naming_its_flag_before_the_outdir(tmp_path, capsys, argv, conf, flag):
    out = tmp_path / "out"
    if conf is not None:
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--outdir", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


# each once passed the parameter checks (NaN fails every comparison):
# tcp-dist wrote NaN tables and a summary with bare NaN or Infinity tokens,
# which is no JSON, and exited 0; validate ran the whole job and exited 3;
# a NaN m or buffer failed only deep in the solve, under another name
@pytest.mark.parametrize("argv, named", [
    (["tcp-dist", "--p", "nan"], "loss_rate"),
    (["tcp-dist", "--p", "inf"], "loss_rate"),
    (["tcp-dist", "--p", "1e-2", "--variant", "wan", "--bdp", "nan"], "link_delay"),
    (["tcp-dist", "--p", "1e-2", "--m", "nan"], "m must"),
    (["tcp-dist", "--p", "1e-2", "--buffer", "nan"], "buffer_size"),
    (["validate", "--p", "nan", "--events", "1000"], "loss_rate"),
    # B_eff^(m+1) overflows, so x does; both once exited 1 with an OverflowError
    (["tcp-dist", "--p", "1e-2", "--buffer", "1e200"], "buffer_size"),
    (["tcp-dist", "--p", "1e-2", "--m", "30", "--buffer", "1e11"], "buffer_size"),
    (["validate", "--p", "1e-2", "--buffer", "1e200"], "buffer_size"),
    (["validate", "--p", "1e-2", "--m", "30", "--buffer", "1e11"], "buffer_size"),
])
def test_non_finite_value_exits_2_before_the_outdir(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(argv + ["--outdir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# seeds of a 500-node run whose mean and median orderings disagree, and one
# where both hold
@pytest.mark.parametrize(
    "seed, mean_ordered, median_ordered", [(46, True, False), (49, False, True), (51, True, True)]
)
def test_netsim_check_ordering_gates_mean_and_median(tmp_path, seed, mean_ordered, median_ordered):
    rc = main(["netsim", "--nodes", "500", "--flows", "40", "--epochs", "4000",
               "--seed", str(seed), "--check", "ordering", "--outdir", str(tmp_path)])
    summary = _read_json(tmp_path / "netsim_summary.json")
    assert summary["ordering_mean_field_minimum_product_maximum_uniform"] is mean_ordered
    assert summary["ordering_median_mean_field_minimum_product_maximum_uniform"] is median_ordered
    runs = summary["strategies"]
    for stat in ("mean", "median"):
        want = runs["mean_field"][f"{stat}_q"] / runs["uniform"][f"{stat}_q"]
        assert summary[f"{stat}_q_ratio_mean_field_over_uniform"] == want
    assert rc == (0 if mean_ordered and median_ordered else 3)
