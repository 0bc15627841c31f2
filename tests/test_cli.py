import argparse
import ast
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionchain import (classical, cli, coupling, equilibrium, modes, quantum,
                      resonances)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _render(write, precision):
    """What an Artifact renderer writes, as one string."""
    buf = io.StringIO()
    write(buf, precision)
    return buf.getvalue()


def _set_keys(config, lines):
    """config with each `key = value` line of lines in place of config's
    own line for that key, or appended where config has none."""
    out = config.splitlines(keepends=True)
    for line in lines.splitlines():
        key = line.partition("=")[0].strip()
        at = [i for i, old in enumerate(out)
              if old.partition("=")[0].strip() == key]
        if at:
            out[at[0]] = line + "\n"
        else:
            out.append(line + "\n")
    return "".join(out)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


# --- stdout paths -------------------------------------------------------

def test_equilibrium_table(capsys):
    code, out, err = run_cli(capsys, "equilibrium", "--n", "2")
    assert code == 0 and err == ""
    assert "ion" in out and "u" in out
    assert "-0.629961" in out and " 0.629961" in out


def test_equilibrium_json_with_units(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--n", "3",
                           "--species", "Ca40", "--omega3", "1.0e6",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "equilibrium_n3"
    rows = doc["rows"]
    assert len(rows) == 3
    assert abs(rows[0]["u"] + 1.07722) < 1e-5
    assert rows[1]["z_m"] == 0.0
    # micron-scale spacing for a calcium chain at 1 MHz
    scale = rows[2]["z_m"] / rows[2]["u"]
    assert 1e-6 < scale < 1e-5


def test_equilibrium_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--n", "2",
                           "--precision", "12")
    assert code == 0
    assert "-0.629960524947" in out


def test_modes_row_values(capsys):
    code, out, _ = run_cli(capsys, "modes", "--n", "6",
                           "--alpha", "0.09151", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    row5 = rows[4]
    assert abs(float(row5["mu"]) - 13.5139) < 1e-3
    assert abs(float(row5["gamma"]) - 4.67083) < 1e-3
    # eigenvector columns are present and normalized (to print precision)
    vec = np.array([float(row5[f"b{i}"]) for i in range(1, 7)])
    assert abs(np.dot(vec, vec) - 1.0) < 1e-5


def test_tables_single_chain(capsys):
    code, out, _ = run_cli(capsys, "tables", "--n", "2", "--format", "csv")
    assert code == 0
    # three artifacts on stdout, separated by banner lines
    assert "== resonances_second_kind ==" in out
    assert "== resonances_first_kind ==" in out
    assert "== anisotropy_bounds ==" in out
    assert "2,2,2,2," in out          # the single degenerate entry
    assert "0.571429" in out          # both its alpha and the lower bound


def test_epsilon_closed_form(capsys):
    code, out, _ = run_cli(capsys, "epsilon", "--species", "Be9",
                           "--omega3", "5.0e6", "--format", "csv")
    assert code == 0
    row = parse_csv(out)[0]
    assert abs(float(row["epsilon"]) - 1.06e-3) / 1.06e-3 < 1e-2
    assert abs(float(row["eps_omega3_over_2pi_hz"]) - 5295.7) < 1.0


def test_epsilon_with_resonance_target(capsys):
    code, out, _ = run_cli(capsys, "epsilon", "--species", "Cd112",
                           "--omega3", "2.8e6", "--n", "6",
                           "--resonance", "6,5,5", "--format", "csv")
    assert code == 0
    row = parse_csv(out)[0]
    assert abs(float(row["alpha_res"]) - 0.0915097) < 1e-6
    assert abs(float(row["rate_over_eps_omega3"]) - 7.3551) < 1e-3
    assert float(row["Gamma_over_2pi_hz"]) > 1e3


def test_epsilon_rate_equals_the_simulate_coefficient_bit_for_bit(capsys):
    # epsilon and simulate read the one spectrum of the chain, so the rate
    # printed at full precision is the coefficient simulate propagates with
    checked = 0
    for n_ions in range(3, 11):
        chain = resonances._solve_chain(n_ions)
        for entry in chain.resonances.values():
            if entry.kind != resonances.SECOND_KIND or entry.m == entry.n:
                continue
            code, out, _ = run_cli(
                capsys, "epsilon", "--species", "Ca40", "--omega3", "2.0e6",
                "--n", str(n_ions), "--resonance",
                f"{entry.m},{entry.n},{entry.p}", "--precision", "17",
                "--format", "csv")
            assert code == 0
            basis = modes.mode_basis(chain.u, entry.alpha_res)
            want = quantum.rwa_coefficient(entry, basis.mu)
            assert float(parse_csv(out)[0]["rate_over_eps_omega3"]) == want
            checked += 1
    assert checked == 100


# --- failure modes ------------------------------------------------------

def test_bad_count_is_a_usage_error(capsys):
    assert cli.main(["equilibrium", "--n", "0"]) == 2


def test_help_returns_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ionchain")


@pytest.mark.parametrize("text", ["1..2", "1", "0..10"])
def test_tables_range_below_two_is_a_usage_error(capsys, text):
    assert cli.main(["tables", "--n", text]) == 2
    err = capsys.readouterr().err
    assert f"range {text!r} starts below 2" in err


def test_zigzag_alpha_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, "modes", "--n", "6", "--alpha", "0.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "zig-zag" in err


def test_unknown_species(capsys):
    code, _, err = run_cli(capsys, "equilibrium", "--n", "2",
                           "--species", "Xx99", "--omega3", "1e6")
    assert code == 1
    assert "unknown species" in err


def test_species_without_frequency(capsys):
    code, _, err = run_cli(capsys, "equilibrium", "--n", "2",
                           "--species", "Ca40")
    assert code == 1
    assert "--omega3" in err


@pytest.mark.parametrize("argv", [
    ["--omega3", "2e6"],
    ["--species", "", "--omega3", "2e6"],
    ["--species", ""],
])
def test_frequency_without_species(capsys, argv):
    code, out, err = run_cli(capsys, "equilibrium", "--n", "2", *argv)
    assert code == 1 and out == ""
    assert "--species or --mass-u is required" in err


def test_resonance_needs_chain_size(capsys):
    code, _, err = run_cli(capsys, "epsilon", "--species", "Ca40",
                           "--omega3", "2e6", "--resonance", "6,5,5")
    assert code == 1
    assert "--n is required" in err


def test_chain_size_needs_resonance(capsys):
    code, out, err = run_cli(capsys, "epsilon", "--species", "Ca40",
                             "--omega3", "2e6", "--n", "6")
    assert code == 1 and out == ""
    assert "--resonance is required with --n" in err


def test_unknown_resonance(capsys):
    code, _, err = run_cli(capsys, "epsilon", "--species", "Ca40",
                           "--omega3", "2e6", "--n", "6",
                           "--resonance", "9,9,9")
    assert code == 1
    assert "no second-kind resonance" in err


@pytest.mark.parametrize("n_ions", [*range(2, 11), 12, 16, 20])
def test_lookup_matches_a_catalog_scan(n_ions):
    catalog = resonances.build_catalog(n_ions, n_cap=n_ions)
    chain = resonances._solve_chain(n_ions, n_cap=n_ions)
    # the first second-kind entry of each ({m, n}, p), as a scan finds it
    scan = {}
    for e in catalog:
        if e.kind == resonances.SECOND_KIND:
            scan.setdefault((frozenset((e.m, e.n)), e.p), e)
    indices = range(1, n_ions + 2)
    for m in indices:
        for n in indices:
            for p in indices:
                want = scan.get((frozenset((m, n)), p))
                if want is not None:
                    assert cli._find_entry(chain, m, n, p) == want
                else:
                    message = (f"no second-kind resonance {{{m},{n}}} <- {p} "
                               f"in the N = {n_ions} catalog")
                    with pytest.raises(ValueError) as exc:
                        cli._find_entry(chain, m, n, p)
                    assert str(exc.value) == message


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 6\njust some words\n")
    code, _, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 1
    assert "expected 'key = value'" in err


def test_classical_config_needs_anisotropy(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\ndisplacement = z2:1e-3\n")
    code, _, err = run_cli(capsys, "classical", str(cfg))
    assert code == 1
    assert "either 'alpha' or 'resonance'" in err


@pytest.mark.parametrize("config, message", [
    ("n = 2\nalpha = 0.5\ndetune = 0.2\n",
     "'detune' needs a 'resonance' key"),
    ("n = 6\nresonance = 6,5,5\ndetune = 1\n",
     "'detune' must be below 1, got 1"),
    ("n = 3\nresonance = 3,2,3\ndetune = -0.2\n",
     "'detune' must be >= 0, got -0.2"),
    ("n = 3\nresonance = 3,2,3\ndetune = nan\n",
     "'detune' must be >= 0, got nan"),
])
def test_classical_detune_fails_before_integration(tmp_path, capsys,
                                                   monkeypatch, config,
                                                   message):
    _assert_fails_before_integration(tmp_path, capsys, monkeypatch, config,
                                     message)


@pytest.mark.parametrize("key", ["dt", "t_final"])
@pytest.mark.parametrize("value", ["0", "-1e-3", "nan"])
def test_classical_time_grid_fails_before_integration(tmp_path, capsys,
                                                      monkeypatch, key,
                                                      value):
    _assert_fails_before_integration(
        tmp_path, capsys, monkeypatch,
        f"n = 2\nalpha = 0.5\n{key} = {value}\n",
        f"config key '{key}' must be > 0, got {float(value):g}")


@pytest.mark.parametrize("config, message", [
    ("t_final = 1\nstride = 1000\n",
     "config keys 't_final', 'dt' and 'stride' give 2 samples; "
     "the spectra need at least 16"),
    ("t_final = 0.014\nstride = 1\n", "give 15 samples"),
    ("stride = 0\n", "config key 'stride' must be >= 1, got 0"),
])
def test_classical_short_run_fails_before_integration(tmp_path, capsys,
                                                      monkeypatch, config,
                                                      message):
    _assert_fails_before_integration(
        tmp_path, capsys, monkeypatch, "n = 2\nalpha = 0.5\n" + config,
        message)


def test_classical_overflowing_step_count_fails_before_solving(
        tmp_path, capsys, monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("solved a chain before the config was checked")

    monkeypatch.setattr(cli.resonances_mod, "_solve_chain", no_chain)
    _assert_fails_before_integration(
        tmp_path, capsys, monkeypatch,
        "n = 6\nresonance = 6,5,5\ndt = 1e-300\nt_final = 1e300\n",
        "t_final = 1e+300 and dt = 1e-300 give no finite number of steps")


def test_classical_unknown_config_key_fails_before_solving(
        tmp_path, capsys, monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("solved a chain before the config was checked")

    monkeypatch.setattr(cli.resonances_mod, "_solve_chain", no_chain)
    _assert_fails_before_integration(
        tmp_path, capsys, monkeypatch,
        "n = 6\nresonance = 6,5,5\ndetun = 0.2\n",
        "unknown config key 'detun'; known keys: n, dt, t_final, stride, "
        "displacement, velocity, detune, resonance, alpha")


def test_classical_run_of_sixteen_samples_has_spectra(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nalpha = 0.5\nt_final = 0.015\nstride = 1\n"
                   "displacement = z2:1e-3\n")
    code, out, err = run_cli(capsys, "classical", str(cfg), "--format", "csv")
    assert code == 0 and err == ""
    assert "\nz,2," in out.split("== classical_spectra ==")[1]


def _no_integration(*args, **kwargs):
    raise AssertionError("integrated before the config was checked")


def _assert_fails_before_integration(tmp_path, capsys, monkeypatch, config,
                                     message):
    # the loop `cmd_classical` integrates through
    monkeypatch.setattr(cli.classical_mod, "_sample_blocks", _no_integration)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "displacement = z2:1e-3\n")
    code, out, err = run_cli(capsys, "classical", str(cfg))
    assert code == 1 and out == ""
    assert message in err


def test_classical_integrates_through_the_sample_loop(tmp_path, monkeypatch):
    # what `_assert_fails_before_integration` patches is what a valid
    # config reaches, so its checks cannot pass for want of a call
    monkeypatch.setattr(cli.classical_mod, "_sample_blocks", _no_integration)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nalpha = 0.5\ndisplacement = z2:1e-3\n")
    with pytest.raises(AssertionError, match="integrated before"):
        cli.main(["classical", str(cfg)])


def test_bad_mode_amplitude(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nalpha = 0.5\ndisplacement = zz:0.1\n")
    code, _, err = run_cli(capsys, "classical", str(cfg))
    assert code == 1
    assert "bad mode amplitude" in err


@pytest.mark.parametrize("argv, text", [
    (["epsilon", "--species", "Ca40", "--omega3", "inf"], "inf"),
    (["epsilon", "--species", "Ca40", "--omega3=-inf"], "-inf"),
    (["epsilon", "--mass-u", "inf", "--omega3", "1e6"], "inf"),
    (["equilibrium", "--n", "3", "--species", "Ca40", "--omega3", "inf"],
     "inf"),
    (["equilibrium", "--n", "3", "--species", "Ca40", "--omega3", "nan"],
     "nan"),
    (["modes", "--n", "3", "--alpha", "1e400"], "1e400"),
])
def test_non_finite_flag_is_a_usage_error(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"not a finite number: {text!r}" in err


@pytest.mark.parametrize("value, message", [
    ("-2e6", "must be positive: -2e6"),
    ("-inf", "not a finite number: '-inf'"),
    ("-1E-3", "must be positive: -1E-3"),
])
@pytest.mark.parametrize("argv", [
    ["epsilon", "--species", "Ca40", "--omega3", "{}"],
    ["epsilon", "--mass-u", "{}", "--omega3", "1e6"],
    ["equilibrium", "--n", "3", "--species", "Ca40", "--omega3", "{}"],
    ["--precision", "3", "equilibrium", "--n", "3", "--mass-u", "{}",
     "--omega3", "1e6"],
])
def test_negative_exponent_value_reaches_the_type_check(capsys, argv, value,
                                                        message):
    # argparse reads "-2e6" or "-inf" after a flag as an option of its
    # own; the value must get the flag's type check, as "--flag=-2e6" does
    flag = argv[argv.index("{}") - 1]
    spaced = run_cli(capsys, *[value if a == "{}" else a for a in argv])
    joined = [a for a in argv if a != "{}"]
    joined[joined.index(flag)] = f"{flag}={value}"
    assert spaced == run_cli(capsys, *joined)
    code, out, err = spaced
    assert code == 2 and out == ""
    assert f"argument {flag}: {message}" in err


@pytest.mark.parametrize("argv", [
    ["epsilon", "--species", "Ca40", "--omega3"],
    ["epsilon", "--species", "Ca40", "--omega3", "--n", "3"],
    ["epsilon", "--species", "Ca40", "--omega3", "-x"],
])
def test_flag_without_a_value_still_misses_its_argument(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "argument --omega3: expected one argument" in err


@pytest.mark.parametrize("key", ["dt", "t_final", "detune", "alpha"])
@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
def test_classical_non_finite_config_fails_before_integration(
        tmp_path, capsys, monkeypatch, key, value):
    _assert_fails_before_integration(
        tmp_path, capsys, monkeypatch,
        _set_keys("n = 2\nalpha = 0.5\n", f"{key} = {value}"),
        f"config key '{key}' must be finite, got {value}")


@pytest.mark.parametrize("config, message", [
    (f"{key} = {value}\n", f"config key '{key}' must be finite, got {value}")
    for key in ("omega3", "duration", "alpha", "mass_u")
    for value in ("inf", "-inf", "1e400")
] + [
    (f"{key} = nan\n", f"config key '{key}' must be > 0, got nan")
    for key in ("omega3", "duration")
])
def test_simulate_non_finite_config_is_a_domain_error(tmp_path, capsys,
                                                      config, message):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(_set_keys(SIM_CONFIG, config))
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("value, message", [
    ("0", "config key 'mass_u' must be > 0, got 0"),
    ("-1", "config key 'mass_u' must be > 0, got -1"),
    ("nan", "config key 'mass_u' must be > 0, got nan"),
    ("inf", "config key 'mass_u' must be finite, got inf"),
])
def test_simulate_mass_fails_before_solving(tmp_path, capsys, monkeypatch,
                                            value, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a chain was solved")

    monkeypatch.setattr(resonances, "_solve_chain", no_solve)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG + f"mass_u = {value}\n")
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 1 and out == ""
    assert message in err


def test_simulate_unknown_config_key_fails_before_solving(tmp_path, capsys,
                                                         monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a chain was solved")

    monkeypatch.setattr(resonances, "_solve_chain", no_solve)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG + "cutof = 4\n")
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 1 and out == ""
    assert ("unknown config key 'cutof'; known keys: n, species, mass_u, "
            "omega3, resonance, cutoff, duration, samples, mode, alpha, "
            "initial") in err


@pytest.mark.parametrize("command", ["simulate", "classical"])
def test_repeated_config_key_fails_before_solving(tmp_path, capsys,
                                                  monkeypatch, command):
    def no_solve(*args, **kwargs):
        raise AssertionError("a chain was solved")

    monkeypatch.setattr(resonances, "_solve_chain", no_solve)
    monkeypatch.setattr(resonances, "_positions", no_solve)
    config = {"simulate": SIM_CONFIG,
              "classical": "n = 2\nalpha = 0.5\ndisplacement = z2:1e-3\n"}
    cfg = tmp_path / "run.cfg"
    # the second line of a key fails, whatever lies between the two
    text = config[command] + "# again\n\nn = 4\n"
    cfg.write_text(text)
    first = text.splitlines().index("n = 6" if command == "simulate"
                                    else "n = 2") + 1
    line = len(text.splitlines())
    code, out, err = run_cli(capsys, command, str(cfg))
    assert code == 1 and out == ""
    assert err == (f"error: {cfg}:{line}: config key 'n' repeated "
                   f"(first at line {first})\n")


def test_simulate_mass_overrides_the_species_mass(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    omega3 = 2.0 * np.pi * 2.0e6
    epsilons = []
    for extra, mass_kg in (("", equilibrium.species("Ca40").mass),
                           ("mass_u = 9\n", 9 * cli.ATOMIC_MASS)):
        cfg.write_text(SIM_CONFIG + extra)
        out_dir = tmp_path / f"out{len(epsilons)}"
        code, *_ = run_cli(capsys, "--output-dir", str(out_dir), "simulate",
                           str(cfg))
        assert code == 0
        manifest = json.loads(
            (out_dir / "simulate_rwa.txt.manifest.json").read_text())
        want = quantum.nonlinearity_epsilon(
            equilibrium.IonSpecies(name="Ca40", mass=mass_kg), omega3)
        assert manifest["parameters"]["epsilon"] == want
        epsilons.append(want)
    assert epsilons[0] != epsilons[1]


# --- table formatting ---------------------------------------------------

# The row-wise rendering the column-wise formatter replaced, with the cell
# rule of `cli._fmt` spelled out.

def _reference_cell(value, precision):
    if isinstance(value, (float, np.floating)):
        return f"{value:.{precision}g}"
    return str(value)


def _reference_text(headers, rows, notes, precision):
    cells = [[_reference_cell(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"# {note}" for note in notes]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _reference_csv(headers, rows, precision):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_reference_cell(v, precision) for v in row])
    return buf.getvalue()


def _reference_json(name, headers, rows, precision):
    records = []
    for row in rows:
        rec = {}
        for key, value in zip(headers, row):
            if isinstance(value, (float, np.floating)):
                rec[key] = float(_reference_cell(value, precision))
            elif isinstance(value, (int, np.integer)):
                rec[key] = int(value)
            else:
                rec[key] = value
        records.append(rec)
    return json.dumps({"name": name, "rows": records}, indent=2) + "\n"


def test_plain_int_columns_skip_the_cell_function():
    def cell(value, precision):
        raise AssertionError(f"{value!r} went through the cell function")

    rows = [(1, -2, 10**30), (3, 4, 0)]
    assert cli._format_columns(rows, 6, cell) == [
        ["1", "3"], ["-2", "4"], [str(10**30), "0"]]
    assert cli._format_columns(rows, 6, cell, float) == [
        [1, 3], [-2, 4], [10**30, 0]]


_CELL_KINDS = [
    st.text(max_size=6),
    st.integers(-10**20, 10**20),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
]


@st.composite
def _tables(draw):
    """headers, rows and notes; each column holds one cell kind or a mix."""
    n_cols = draw(st.integers(1, 5))
    kinds = [draw(st.sampled_from(_CELL_KINDS + [st.one_of(_CELL_KINDS)]))
             for _ in range(n_cols)]
    rows = [tuple(draw(kind) for kind in kinds)
            for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):   # the energy table passes lists
        rows = [list(row) for row in rows]
    headers = draw(st.lists(st.text(max_size=8), min_size=n_cols,
                            max_size=n_cols))
    notes = draw(st.lists(st.text(max_size=10), max_size=2))
    return headers, rows, notes


@settings(max_examples=300, deadline=None)
@given(table=_tables(), precision=st.sampled_from([1, 6, 17]))
@example(table=(["a", "b"], [], []), precision=6)
@example(table=(["t", "e"], [(0.0, float("inf")), (np.float64(-0.0),
                                                    float("nan"))],
                ["note"]), precision=17)
def test_column_formatter_matches_row_reference(table, precision):
    headers, rows, notes = table
    art = cli.Artifact("t", headers, rows, notes)
    assert _render(art.write_text, precision) == _reference_text(
        headers, rows, notes, precision)
    assert _render(art.write_csv, precision) == _reference_csv(
        headers, rows, precision)


@settings(max_examples=300, deadline=None)
@given(table=_tables(), precision=st.sampled_from([1, 6, 17]))
@example(table=(["name", "count", "value", "mixed"],
                [("a", 1, 0.1, 2), ("b", np.int64(-3), np.float64(1e-300),
                                    "x"),
                 ("c", 10**20, float("nan"), 0.25)], []), precision=17)
def test_json_columns_match_cell_reference(table, precision):
    headers, rows, _notes = table
    art = cli.Artifact("t", headers, rows)
    assert _render(art.write_json, precision) == _reference_json(
        "t", headers, rows, precision)


@pytest.mark.parametrize("name, headers, rows", [
    ("mixed", ["label", "n", "value"],
     [("a", 1, 0.1), ("b", -3, 2.5e-300), ("c", 10**20, -7.0)]),
    ("special", ["t", "e"],
     [(float("nan"), float("inf")), (-float("inf"), -0.0)]),
    ('qu"o\\te é', ['say "hi"', "µ %s", "tab\t", "say \"hi\""],
     [('"', "naïve \U0001d53c", "\n\x00", 1.0)]),
    ("empty", ["a", "b"], []),
])
def test_json_bytes_equal_indented_dumps(name, headers, rows):
    art = cli.Artifact(name, headers, rows)
    for precision in (1, 6, 17):
        assert _render(art.write_json, precision) == _reference_json(
            name, headers, rows, precision)


# --- row blocks -----------------------------------------------------------

# Tables whose cells sit on both sides of a block edge at blocks of 1, 2
# and 3 rows: newlines and "%" in string cells, non-finite floats, notes,
# no rows, and a float array.
_EDGE_TABLES = [
    (["label", "value", "n"],
     [("a\nb", 1.0, 1), ("%s%%", np.float64(2.5), -2), ("c\n", -0.0, 3),
      ("\n", 1e-300, 4), ("%", 12345.678, 5)],
     ["note %s", "µ\n"]),
    (["t", "e"],
     [(float("nan"), float("inf")), (-float("inf"), 0.5), (2.0, float("nan")),
      (-3.25, 1e300)], []),
    (["a", "b"], [], ["only notes"]),
    (["x", "y", "z"],
     np.array([[0.5, np.nan, -np.inf], [1e-17, 2.0 / 3.0, np.inf],
               [-0.0, 7.0, 1e300], [3.0, -1.5, 0.1]]), []),
]

_REFERENCES = {
    "table": lambda art, p: _reference_text(art.headers, art.rows, art.notes,
                                            p),
    "csv": lambda art, p: _reference_csv(art.headers, art.rows, p),
    "json": lambda art, p: _reference_json(art.name, art.headers, art.rows, p),
}


def _edge_artifacts():
    return [cli.Artifact(f"edge_{k}", headers, rows, notes)
            for k, (headers, rows, notes) in enumerate(_EDGE_TABLES)]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_row_blocks_render_edge_tables(monkeypatch, block):
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    for art in _edge_artifacts():
        for precision in (1, 6, 17):
            assert _render(art.write_text, precision) == _REFERENCES[
                "table"](art, precision)
            assert _render(art.write_csv, precision) == _REFERENCES["csv"](
                art, precision)
            assert _render(art.write_json, precision) == _REFERENCES["json"](
                art, precision)


@settings(max_examples=200, deadline=None)
@given(table=_tables(), precision=st.sampled_from([1, 6, 17]))
def test_row_blocks_match_the_references(table, precision):
    headers, rows, notes = table
    art = cli.Artifact("t", headers, rows, notes)
    for block in (1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_ROW_BLOCK", block)
            assert _render(art.write_text, precision) == _reference_text(
                headers, rows, notes, precision)
            assert _render(art.write_csv, precision) == _reference_csv(
                headers, rows, precision)
            assert _render(art.write_json, precision) == _reference_json(
                "t", headers, rows, precision)


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("fmt, ext", [("table", ".txt"), ("csv", ".csv"),
                                      ("json", ".json")])
def test_emit_writes_row_blocks_to_stdout_and_files(tmp_path, capsys,
                                                    monkeypatch, block, fmt,
                                                    ext):
    monkeypatch.setattr(cli, "_ROW_BLOCK", block)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    arts = _edge_artifacts()
    reference = _REFERENCES[fmt]
    args = argparse.Namespace(output_dir=None, format=fmt, precision=17)
    assert cli._emit(arts[:1], "edge", {"k": 1}, args) == 0
    assert capsys.readouterr().out == reference(arts[0], 17)
    assert cli._emit(arts, "edge", {"k": 1}, args) == 0
    assert capsys.readouterr().out == "".join(
        f"== {art.name} ==\n" + reference(art, 17) for art in arts)

    args.output_dir = str(tmp_path / "out")
    assert cli._emit(arts, "edge", {"k": 1}, args, diagnostics={"d": 0}) == 0
    paths = [os.path.join(args.output_dir, art.name + ext) for art in arts]
    assert capsys.readouterr().out == "".join(f"{p}\n" for p in paths)
    for art, path in zip(arts, paths):
        with open(path, newline="") as fh:
            assert fh.read() == reference(art, 17)
        with open(path + ".manifest.json") as fh:
            assert json.load(fh) == {
                "command": "edge", "parameters": {"k": 1},
                "constants_version": cli.CODATA_VERSION,
                "output_paths": paths, "wall_time_s": 0.0,
                "diagnostics": {"d": 0}}


# --- memory ---------------------------------------------------------------

class _Discard:
    """A sink that drops what is written to it."""

    def write(self, text):
        return len(text)


def _traced_peak_mb(call) -> float:
    """Peak traced allocation of call(), in MB above what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


def test_long_table_is_written_in_bounded_memory():
    # the classical energy table of the benchmark run: 5001 x 21 floats
    rows = np.random.default_rng(0).standard_normal((5001, 21))
    art = cli.Artifact("energies", [f"e{k}" for k in range(21)], rows)
    for fmt in ("table", "csv", "json"):
        args = argparse.Namespace(output_dir=None, format=fmt, precision=6)
        with redirect_stdout(_Discard()):
            peak = _traced_peak_mb(
                lambda: cli._emit([art], "energies", {}, args))
        # rendered whole, the text took 11.0 MB and the csv 7.9 MB; in row
        # blocks each takes under 2 MB
        assert peak < 3.0, (fmt, peak)


def test_classical_run_fits_its_trajectories(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    cfg = tmp_path / "run.cfg"
    # the benchmark run cut to 10 000 steps, still 5001 samples
    cfg.write_text(
        "n = 6\nresonance = 6,5,5\ndetune = 0.2\n"
        "displacement = z5:1e-2,x5:1e-6,x6:1.2e-6,y5:0.8e-6,y6:1e-6\n"
        "dt = 2e-3\nt_final = 20\nstride = 2\n")
    codes = []
    with redirect_stdout(_Discard()):
        peak = _traced_peak_mb(
            lambda: codes.append(cli.main(["classical", str(cfg)])))
    assert codes == [0]
    # three stored trajectories take 4.3 MB and the peak about 6.7 MB; the
    # whole-run energy pass and the table held as cells and text took it
    # to 17.5 MB
    assert peak < 10.0, peak


def test_detuned_members_keep_only_their_pair_energy(tmp_path, monkeypatch):
    # two more members may cost their pair-energy series, not a stored
    # trajectory each (samples x N x 6 x 8 bytes); the tables are built
    # but not written, so the peak is the integration's
    monkeypatch.setattr(cli, "_emit", lambda *args, **kwargs: 0)
    run = ("n = 6\nresonance = 6,5,5\n"
           "displacement = z5:1e-2,x5:1e-6,x6:1.2e-6,y5:0.8e-6,y6:1e-6\n"
           "dt = 2e-3\nt_final = 10\nstride = 2\n")
    single, batch = tmp_path / "single.cfg", tmp_path / "batch.cfg"
    single.write_text(run)
    batch.write_text(run + "detune = 0.2\n")
    peaks, codes = {}, []
    for cfg in (single, batch, single, batch):   # the first pair warms up
        peaks[cfg] = _traced_peak_mb(
            lambda: codes.append(cli.main(["classical", str(cfg)])))
    assert codes == [0] * 4
    member_mb = 2501 * 6 * 6 * 8 / 2**20
    assert peaks[batch] - peaks[single] < member_mb, (peaks, member_mb)


# --- file output, manifests, determinism --------------------------------

SIM_CONFIG = """\
# three-mode down-conversion check
n = 6
species = Ca40
omega3 = 2.0e6
resonance = 6,5,5
cutoff = 2
duration = 0.5
samples = 11
mode = both
"""


def test_simulate_writes_files_and_manifests(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "--format", "csv",
                           "--output-dir", str(out_dir),
                           "simulate", str(cfg))
    assert code == 0
    rwa = out_dir / "simulate_rwa.csv"
    full = out_dir / "simulate_full.csv"
    assert rwa.exists() and full.exists()
    assert str(rwa) in out and str(full) in out

    manifest = json.loads((out_dir / "simulate_rwa.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["parameters"]["n"] == 6
    assert manifest["parameters"]["resonance"] == [6, 5, 5]
    assert manifest["constants_version"]
    assert len(manifest["output_paths"]) == 2
    assert manifest["wall_time_s"] >= 0.0

    rows = parse_csv(rwa.read_text())
    assert len(rows) == 11
    first, last = rows[0], rows[-1]
    assert float(first["pop_axial"]) == 1.0
    assert float(first["entropy_x"]) == 0.0
    assert abs(float(last["norm"]) - 1.0) < 1e-9
    # pump depletion follows the closed form in down-conversion time units
    expected = np.cos(np.sqrt(2.0) * 0.5) ** 2
    assert abs(float(last["pop_axial"]) - expected) < 5e-6
    pops = [float(r["pop_axial"]) for r in rows]
    assert all(a > b for a, b in zip(pops, pops[1:]))


def test_simulate_output_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG.replace("mode = both", "mode = rwa"))
    blobs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, *_ = run_cli(capsys, "--format", "csv",
                           "--output-dir", str(out_dir),
                           "simulate", str(cfg))
        assert code == 0
        blobs.append((out_dir / "simulate_rwa.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_rows_equal_per_sample_evolution(tmp_path, capsys):
    _check_rows_against_dense_eigh(tmp_path, capsys, None)


def test_symmetry_breaking_start_equals_per_sample_evolution(tmp_path, capsys):
    _check_rows_against_dense_eigh(tmp_path, capsys, {("x", 5): 1})


def _reachable(pattern, seeds):
    """The states a chain of nonzero entries of pattern joins to seeds."""
    reached = np.zeros(len(pattern), dtype=bool)
    reached[seeds] = True
    while True:
        grown = reached | pattern[reached].any(axis=0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _check_rows_against_dense_eigh(tmp_path, capsys, initial):
    """simulate's rows from the pump (initial None) or initial, sample by
    sample against exp(-i H tau) start from an eigh of the dense matrix,
    with the entropy from an SVD of the dense amplitude tensor: a
    reference that shares no propagation or analysis code with `simulate`.

    The eigh is of the dense block of states the start reaches: over the
    whole matrix, eigenvalue rounding of its largest eigenvalues times
    tau ~ 1150 moves the full run's populations by about 3e-12.
    """
    cfg = tmp_path / "sim.cfg"
    text = SIM_CONFIG.replace("duration = 0.5", "duration = 6.0")
    if initial is not None:
        # breaks the x parity: the watched states lie outside the support
        text += "initial = x5:1\n"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    code, *_ = run_cli(capsys, "--format", "csv", "--precision", "17",
                       "--output-dir", str(out_dir), "simulate", str(cfg))
    assert code == 0

    entry = next(e for e in resonances.build_catalog(6)
                 if (e.m, e.n, e.p) == (6, 5, 5))
    u = equilibrium.solve_equilibrium(6)
    basis = modes.mode_basis(u, entry.alpha_res)
    tensors = coupling.coupling_tensors(u, basis)
    fock = quantum.FockBasis.uniform(quantum.resonance_mode_set(entry), 2)
    eps = quantum.nonlinearity_epsilon(equilibrium.species("Ca40"),
                                       2.0 * np.pi * 2.0e6)
    rate = abs(eps * quantum.rwa_coefficient(entry, basis.mu))
    hams = {"rwa": quantum.build_rwa_interaction(fock, basis, tensors, eps,
                                                 resonance=entry),
            "full": quantum.build_free_hamiltonian(fock, basis)
            + quantum.build_full_interaction(fock, basis, tensors, eps)}
    occs = quantum.down_conversion_states(fock, entry)
    watched = [fock.index_of(o) for o in occs]
    x_axes = [k for k, m in enumerate(fock.modes) if m[0] == "x"]
    cut = x_axes + [k for k in range(len(fock.modes)) if k not in x_axes]
    start = fock.number_state(initial or occs[0])
    d_tau = (6.0 / 10) / rate
    top = {}
    for label, h in hams.items():
        dense = h.matrix
        block = _reachable(dense != 0, np.flatnonzero(start))
        w, v = np.linalg.eigh(dense[np.ix_(block, block)])
        coeffs = v.conj().T @ start[block]
        rows = parse_csv((out_dir / f"simulate_{label}.csv").read_text())
        assert len(rows) == 11
        worst = 0.0
        for k, row in enumerate(rows):
            amps = np.zeros(fock.dimension, dtype=complex)
            # the phase w * tau with tau rounded first, as simulate's
            # sample times are: w * k rounded first moves it by 1e-12
            amps[block] = v @ (np.exp(-1j * w * (k * d_tau)) * coeffs)
            tensor = np.transpose(amps.reshape(fock.shape), cut)
            schmidt = np.linalg.svd(tensor.reshape(3 ** len(x_axes), -1),
                                    compute_uv=False)
            weights = schmidt[schmidt > 1e-150] ** 2
            expected = [abs(amps[i]) ** 2 for i in watched] + [
                np.linalg.norm(amps), -np.sum(weights * np.log(weights))]
            got = [float(row[c]) for c in ("pop_axial", "pop_y_pair",
                                           "pop_x_pair", "norm", "entropy_x")]
            worst = max(worst, np.max(np.abs(np.subtract(got, expected))))
            top[label] = max(top.get(label, 0.0), max(
                sum(abs(amps[i]) ** 2
                    for i in range(fock.dimension)
                    if fock.occupations(i)[mode] == 2)
                for mode in fock.modes))
        assert worst <= 1e-13, (label, worst)
        if initial is not None:
            assert all(float(row[c]) == 0.0 for row in rows
                       for c in ("pop_axial", "pop_y_pair", "pop_x_pair"))
    manifest = json.loads(
        (out_dir / "simulate_full.csv.manifest.json").read_text())
    leak = manifest["diagnostics"]["top_fock_population"]
    assert set(leak) == {"rwa", "full"}
    for label in leak:
        assert abs(leak[label] - top[label]) <= 1e-15
    if initial is None:
        # the rotating-wave run never leaves the three one- and two-phonon
        # states
        assert leak["rwa"] == 0.0 and 0.0 < leak["full"] < 1e-3


def test_simulate_reports_live_states(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG.replace("cutoff = 2", "cutoff = 3"))
    code, printed, _ = run_cli(capsys, "--format", "csv", "simulate", str(cfg))
    assert code == 0
    out_dir = tmp_path / "out"
    code, *_ = run_cli(capsys, "--format", "csv", "--output-dir",
                       str(out_dir), "simulate", str(cfg))
    assert code == 0
    manifest = json.loads(
        (out_dir / "simulate_rwa.csv.manifest.json").read_text())
    # the 3-state down-conversion block and one of 8 parity sectors of 1024
    assert manifest["diagnostics"]["live_states"] == {"full": 128, "rwa": 3}
    # the figure goes to the manifest only: stdout carries the tables alone
    assert printed == "".join(
        f"== {name} ==\n" + (out_dir / f"{name}.csv").read_text()
        for name in ("simulate_full", "simulate_rwa"))


def test_simulate_rejects_norm_drift(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    real = quantum._propagate

    def drifting(h, amps, taus):
        idx, out = real(h, amps, taus)
        return idx, 1.000001 * out

    monkeypatch.setattr(quantum, "_propagate", drifting)
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert code == 1 and out == ""
    assert "deviates from 1 beyond 1e-9" in err


def test_output_dir_environment_fallback(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    code, *_ = run_cli(capsys, "equilibrium", "--n", "2")
    assert code == 0
    assert (env_dir / "equilibrium_n2.txt").exists()
    # an explicit flag wins over the environment
    code, *_ = run_cli(capsys, "--output-dir", str(flag_dir),
                       "equilibrium", "--n", "2")
    assert code == 0
    assert (flag_dir / "equilibrium_n2.txt").exists()


def test_tables_json_files(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, *_ = run_cli(capsys, "--format", "json",
                       "--output-dir", str(out_dir),
                       "tables", "--n", "2..3")
    assert code == 0
    bounds = json.loads((out_dir / "anisotropy_bounds.json").read_text())
    by_n = {row["n_ions"]: row for row in bounds["rows"]}
    assert abs(by_n[2]["alpha_min"] - 4.0 / 7.0) < 1e-6
    assert by_n[2]["alpha_crit"] == 1.0
    assert abs(by_n[3]["alpha_min"] - 0.309168) < 1e-6
    assert abs(by_n[3]["alpha_crit"] - 0.416667) < 1e-6
    second = json.loads((out_dir / "resonances_second_kind.json").read_text())
    assert len(second["rows"]) == 1 + 2   # one entry for N=2, two for N=3


def test_classical_run_artifacts(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n = 2\nalpha = 0.5\ndisplacement = z2:1e-3\n"
        "dt = 2e-3\nt_final = 40\nstride = 10\n")
    out_dir = tmp_path / "out"
    code, *_ = run_cli(capsys, "--format", "csv",
                       "--output-dir", str(out_dir),
                       "classical", str(cfg))
    assert code == 0
    energies = parse_csv((out_dir / "classical_energies.csv").read_text())
    assert abs(float(energies[-1]["t"]) - 40.0) < 1e-9
    assert abs(float(energies[-1]["energy_drift"])) < 1e-5
    # only the seeded stretch mode shows up in the spectra
    spectra = parse_csv((out_dir / "classical_spectra.csv").read_text())
    assert len(spectra) == 1
    peak = spectra[0]
    assert peak["direction"] == "z" and peak["p"] == "2"
    assert abs(float(peak["omega_linear"]) - np.sqrt(3.0)) < 1e-5
    assert abs(float(peak["rel_diff"])) < 1e-2
    manifest = json.loads(
        (out_dir / "classical_energies.csv.manifest.json").read_text())
    assert manifest["parameters"]["windowed_energy_drift"] < 1e-6


def test_warm_runs_solve_no_axial_spectrum(tmp_path, capsys, monkeypatch):
    # the memoised chain holds the spectrum: a warm simulate and a warm
    # detuned classical run take every mode basis from it, without an eigh
    sim = tmp_path / "sim.cfg"
    sim.write_text(SIM_CONFIG)
    run = tmp_path / "run.cfg"
    run.write_text("n = 6\nresonance = 6,5,5\ndetune = 0.2\n"
                   "displacement = z5:0.01,x5:1e-6\n"
                   "dt = 2e-3\nt_final = 1\nstride = 1\n")
    argvs = [["simulate", str(sim)], ["classical", str(run)]]
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == 0
    calls = []
    real = modes._spectrum

    def spy(axial):
        calls.append(axial)
        return real(axial)

    monkeypatch.setattr(modes, "_spectrum", spy)
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out and err == ""
    assert calls == []


def test_classical_transfer_wiring(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n = 6\nresonance = 6,5,5\ndetune = 0.2\n"
        "displacement = z5:0.01,x5:1e-6,x6:1e-6,y5:1e-6,y6:1e-6\n"
        "dt = 2e-3\nt_final = 20\nstride = 20\n")
    out_dir = tmp_path / "out"
    code, *_ = run_cli(capsys, "--format", "csv", "--precision", "17",
                       "--output-dir", str(out_dir),
                       "classical", str(cfg))
    assert code == 0
    transfer = parse_csv((out_dir / "classical_transfer.csv").read_text())
    labels = [row["label"] for row in transfer]
    assert labels == ["resonant", "detuned_low", "detuned_high"]
    alphas = [float(row["alpha"]) for row in transfer]
    assert alphas[1] < alphas[0] < alphas[2]
    assert all(float(row["pair_energy_gain"]) >= 0.0 for row in transfer)

    # the batched runs give exactly what three runs of their own give
    u = equilibrium.solve_equilibrium(6)
    entry = next(e for e in resonances.build_catalog(6)
                 if (e.m, e.n, e.p) == (6, 5, 5))
    seeds = {("z", 5): 0.01}
    seeds.update({(d, p): 1e-6 for d in ("x", "y") for p in (5, 6)})
    gains = []
    for scale in (1.0, 0.8, 1.2):
        basis = modes.mode_basis(u, scale * entry.alpha_res)
        traj = classical.integrate(u, basis, displacements=seeds,
                                   dt=2e-3, t_final=20.0, stride=20)
        proj = classical.mode_projection(traj, basis, u)
        series = sum(proj.energies[d][:, p - 1]
                     for d in ("x", "y") for p in (5, 6))
        gains.append(float(np.max(series - series[0])))
    for row, scale, gain in zip(transfer, (1.0, 0.8, 1.2), gains):
        assert float(row["alpha"]) == scale * entry.alpha_res
        assert float(row["pair_energy_gain"]) == gain
        assert float(row["resonant_over_this"]) == gains[0] / gain


@pytest.fixture
def solves(monkeypatch):
    """The chain lengths `solve_equilibrium` is called with, from now on."""
    calls = []
    solve = equilibrium.solve_equilibrium

    def counting_solve(n_ions, *args, **kwargs):
        calls.append(n_ions)
        return solve(n_ions, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "solve_equilibrium", counting_solve)
    return calls


def test_each_command_solves_each_chain_once(tmp_path, capsys, solves):
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(SIM_CONFIG)
    classical_cfg = tmp_path / "classical.cfg"
    classical_cfg.write_text(
        "n = 6\nresonance = 6,5,5\ndetune = 0.2\n"
        "displacement = z5:0.01\ndt = 2e-3\nt_final = 1\nstride = 10\n")
    free_cfg = tmp_path / "free.cfg"
    free_cfg.write_text(
        "n = 6\nalpha = 0.05\ndisplacement = z5:0.01\n"
        "dt = 2e-3\nt_final = 1\nstride = 10\n")
    for argv, solved in (
            (["epsilon", "--species", "Ca40", "--omega3", "2e6", "--n", "9",
              "--resonance", "9,8,7"], [9]),
            (["tables", "--n", "2..10"], list(range(2, 11))),
            (["simulate", str(sim_cfg)], [6]),
            (["classical", str(classical_cfg)], [6]),
            (["equilibrium", "--n", "6"], [6]),
            (["modes", "--n", "6", "--alpha", "0.05"], [6]),
            (["classical", str(free_cfg)], [6]),
            (["equilibrium", "--n", "40"], [40])):
        resonances._memo_chain.cache_clear()
        resonances._positions.cache_clear()
        solves.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert solves == solved, argv[0]
        # the same command again in this process reuses the solved chains
        solves.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert solves == [], argv[0]


def test_tables_past_the_cap_fails_before_solving(capsys, solves):
    resonances._memo_chain.cache_clear()
    resonances._positions.cache_clear()
    code, out, err = run_cli(capsys, "tables", "--n", "2..11")
    assert code == 1 and out == ""
    assert err == "error: n_ions must be in 2..10, got 11\n"
    assert solves == []


def test_each_catalog_is_built_once_per_chain(tmp_path, capsys,
                                              monkeypatch):
    built = []
    catalog = resonances._catalog

    def counting_catalog(chain, *args, **kwargs):
        built.append(chain.n_ions)
        return catalog(chain, *args, **kwargs)

    monkeypatch.setattr(resonances, "_catalog", counting_catalog)
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(SIM_CONFIG)
    for _round in range(2):
        resonances._memo_chain.cache_clear()
        built.clear()
        assert run_cli(capsys, "tables", "--n", "2..10")[0] == 0
        for n_ions in range(3, 11):
            e = next(e for e in resonances.build_catalog(n_ions)
                     if e.kind == resonances.SECOND_KIND and e.m != e.n)
            for _ in range(2):
                code, _, err = run_cli(
                    capsys, "epsilon", "--species", "Ca40", "--omega3", "2e6",
                    "--n", str(n_ions), "--resonance", f"{e.m},{e.n},{e.p}")
                assert code == 0, err
        code, _, err = run_cli(capsys, "simulate", str(sim_cfg))
        assert code == 0, err
        # cleared memo: every chain builds its catalog again, and only once
        assert built == list(range(2, 11))

    entries = resonances.build_catalog(6)
    want = list(entries)
    pick = next(e for e in entries if e.kind == resonances.SECOND_KIND)
    entries.clear()
    assert resonances.build_catalog(6) == want
    assert resonances.build_catalog(6) is not resonances.build_catalog(6)
    chain = resonances._solve_chain(6)
    assert cli._find_entry(chain, pick.m, pick.n, pick.p) is pick
    assert built == list(range(2, 11))


PLAIN_TABLE = "ion  u        \n1    -0.629961\n2    0.629961 \n"


@pytest.mark.parametrize("options", [
    ["--precision", "17"],
    ["--format", "csv"],
    ["--output-dir", "OUT"],
])
@pytest.mark.parametrize("trailing", [False, True])
def test_parser_reuse_keeps_no_options(tmp_path, capsys, options, trailing):
    options = [str(tmp_path) if o == "OUT" else o for o in options]
    command = ["equilibrium", "--n", "2"]
    argv = command + options if trailing else options + command
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out != PLAIN_TABLE
    code, out, err = run_cli(capsys, *command)
    assert code == 0 and err == ""
    assert out == PLAIN_TABLE


@pytest.mark.parametrize("argv", [
    [],
    ["tables", "--n", "ten"],
    ["tables"],
    ["epsilon", "--species", "Ca40", "--omega3", "2e6", "--bogus"],
])
def test_parser_reuse_survives_usage_errors(capsys, argv):
    assert cli.main(argv) == 2
    assert "usage: ionchain" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "equilibrium", "--n", "2")
    assert code == 0 and err == ""
    assert out == PLAIN_TABLE


def test_changing_a_built_parser_leaves_main_alone(capsys):
    cli._main_parser.cache_clear()
    for _ in range(2):   # before and after main has built its own parser
        extended = cli.build_parser()
        extended.add_argument("--extra")
        assert extended.parse_args(["--extra=1", "equilibrium",
                                    "--n", "2"]).extra == "1"
        assert cli.main(["--extra=1", "equilibrium", "--n", "2"]) == 2
        assert "unrecognized arguments: --extra=1" in capsys.readouterr().err
        assert run_cli(capsys, "equilibrium", "--n", "2")[1] == PLAIN_TABLE


# --- config declarations -----------------------------------------------

# Per parse a config key can declare: a malformed text and the message it
# gives, and the message for a text of inf or -inf. A str key takes any
# text, so it has neither.
_MALFORMED = {
    int: ("x", "config key {key!r}: invalid literal for int() with base 10: "
               "'x'"),
    float: ("x", "config key {key!r}: could not convert string to float: "
                 "'x'"),
    cli._parse_resonance: ("1,2", "resonance must be 'm,n,p', got '1,2'"),
    cli._parse_mode_map: ("zz:1", "bad mode amplitude 'zz:1', expected "
                                  "like z5:0.01"),
    cli._parse_occupations: ("z5:0.5", "bad amplitude value in 'z5:0.5'"),
}
_INFINITE = {
    int: "config key {key!r}: invalid literal for int() with base 10: "
         "'{text}'",
    float: "config key {key!r} must be finite, got {text}",
    cli._parse_resonance: "resonance must be 'm,n,p', got '{text}'",
    cli._parse_mode_map: "bad mode amplitude '{text}', expected like z5:0.01",
    cli._parse_occupations: "bad mode amplitude '{text}', expected like "
                            "z5:0.01",
}
# per range rule, by what it says the value must be: out-of-range texts
# and the message each gives
_OUT_OF_RANGE = {
    "> 0, got {:g}": [("0", "config key {key!r} must be > 0, got 0"),
                      ("-1", "config key {key!r} must be > 0, got -1"),
                      ("nan", "config key {key!r} must be > 0, got nan")],
    ">= 0, got {:g}": [("-0.2", "config key {key!r} must be >= 0, got -0.2"),
                       ("nan", "config key {key!r} must be >= 0, got nan")],
    ">= 1, got {}": [("0", "config key {key!r} must be >= 1, got 0"),
                     ("-3", "config key {key!r} must be >= 1, got -3")],
    "at least 2": [("1", "config key {key!r} must be at least 2"),
                   ("-3", "config key {key!r} must be at least 2")],
}
# per mode-map parse: a repeated mode, and non-finite amplitudes
_MODE_FAULTS = {
    cli._parse_mode_map: [
        ("z2:1e-2,z2:2e-2", "mode z2 repeated in 'z2:1e-2,z2:2e-2'"),
        ("x1:1e-3, x01:0", "mode x1 repeated in 'x1:1e-3, x01:0'"),
    ] + [(f"z2:{text}", f"amplitude of mode z2 must be finite, got {text}")
         for text in ("nan", "inf", "-inf", "1e400")],
    cli._parse_occupations: [
        ("z5:1,z5:0", "mode z5 repeated in 'z5:1,z5:0'"),
    ],
}
_CONFIG_BASES = {"simulate": SIM_CONFIG,
                 "classical": "n = 2\nalpha = 0.5\ndisplacement = z2:1e-3\n"}


def _declared_key_faults():
    """(command, config, message) for each key each command declares: a
    malformed value, inf and -inf, where the key has a range rule, values
    outside it, and for a mode map its own faults."""
    cases = []
    for command, declaration in cli._CONFIGS.items():
        for key, (parse, _, rule) in declaration.items():
            if parse is str:
                continue
            text, message = _MALFORMED[parse]
            faults = [(text, message)] + [(text, _INFINITE[parse])
                                          for text in ("inf", "-inf")]
            if rule is not None:
                faults += _OUT_OF_RANGE[rule[1]]
            faults += _MODE_FAULTS.get(parse, [])
            for text, message in faults:
                cases.append(pytest.param(
                    command, _set_keys(_CONFIG_BASES[command],
                                       f"{key} = {text}"),
                    message.format(key=key, text=text),
                    id=f"{command}-{key}={text}"))
    return cases


@pytest.fixture
def no_chain(monkeypatch):
    """Fail any attempt to solve a chain."""
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was solved before the config was "
                             "checked")

    monkeypatch.setattr(resonances, "_solve_chain", no_chain)
    monkeypatch.setattr(resonances, "_positions", no_chain)


@pytest.mark.parametrize("command, config, message", _declared_key_faults())
def test_declared_key_faults_fail_before_any_chain(tmp_path, capsys, no_chain,
                                                   command, config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, out, err = run_cli(capsys, command, str(cfg))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("lines, message", [
    ("species = Xx", "unknown species 'Xx'; known: "),
    ("species =", "--species or --mass-u is required"),
    # a resonance the catalog lacks, and a chain size outside 2..10
    ("species = Xx\nresonance = 1,2,3", "unknown species 'Xx'; known: "),
    ("species = Xx\nn = 1", "unknown species 'Xx'; known: "),
], ids=["unknown", "empty", "unknown-and-resonance", "unknown-and-n"])
def test_species_fails_before_any_chain(tmp_path, capsys, no_chain, lines,
                                        message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_set_keys(SIM_CONFIG, lines))
    code, out, err = run_cli(capsys, "simulate", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


def test_every_declared_parse_but_str_has_faults():
    rows = [row for declaration in cli._CONFIGS.values()
            for row in declaration.values()]
    assert {parse for parse, _, _ in rows} - {str} == set(_MALFORMED)
    assert set(_MALFORMED) == set(_INFINITE)
    rules = {rule[1] for _, _, rule in rows if rule is not None}
    assert rules == set(_OUT_OF_RANGE)


# --- parsing through the dispatch table ----------------------------------

def _subcommands(parser):
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


# each subcommand's declared arguments, its trailing output flags first
_COMMANDS = {name: cli._OUTPUT_FLAGS + arguments
             for name, (_, _, arguments) in cli._COMMANDS.items()}
_OPTIONS = sorted({flag for arguments in _COMMANDS.values()
                   for flag, _ in arguments if flag[:1] == "-"})
# values each destination accepts, and words any argument may meet
_GOOD = {"n": ["2", "6", "2..10"], "alpha": ["0.05"], "omega3": ["2e6"],
         "mass_u": ["40"], "species": ["Ca40", ""], "resonance": ["6,5,5"],
         "format": ["table", "csv", "json"], "precision": ["1", "17"],
         "mode": ["rwa", "full", "both"], "output_dir": ["out"],
         "config": ["sim.cfg"]}
_HOSTILE = ["0", "ten", "1..2", "xml", "--prec", "--n=3", "--format=csv",
            "--", "-h", "--help", "-1", "-2e6", "", "inf", "nan", "1e400",
            "-", "bogus", "--bogus", "a b", *_OPTIONS, *_COMMANDS]


@st.composite
def _argvs(draw):
    """Command lines of one subcommand: its own options with good values,
    now and then a hostile word, a repeat or a missing argument."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    arguments = _COMMANDS[name]
    hostile = st.sampled_from(_HOSTILE)

    def tokens(argument):
        name_or_flag, _ = argument
        good = st.sampled_from(_GOOD[cli._dest(name_or_flag)])
        value = draw(st.one_of(good, hostile)
                     if draw(st.integers(0, 4)) == 0 else good)
        return [name_or_flag, value] if name_or_flag[:1] == "-" else [value]

    parts = [tokens(a) for a in arguments
             if (a[0][:1] != "-" or a[1].get("required"))
             and draw(st.integers(0, 9))]
    parts += [tokens(draw(st.sampled_from(arguments)))
              for _ in range(draw(st.integers(0, 4)))]
    parts += [[draw(hostile)] for _ in range(draw(st.integers(0, 1)))]
    order = draw(st.permutations(range(len(parts))))
    head = [] if draw(st.integers(0, 19)) == 0 else [name]
    return head + [t for k in order for t in parts[k]]


BENCH_LINES = [
    ["tables", "--n", "2..10"],
    ["epsilon", "--species", "Ca40", "--omega3", "2000000.0", "--n", "6",
     "--resonance", "6,5,5", "--precision", "17"],
    ["simulate", "sim.cfg", "--precision", "17"],
    ["classical", "classical.cfg"],
]


@settings(max_examples=500, deadline=None)
@given(argv=_argvs())
@example(argv=BENCH_LINES[1])
@example(argv=["epsilon", "--omega3", "2e6", "--omega3", "1e6", "--n", "6"])
@example(argv=["simulate", "sim.cfg", "--mode", "full", "--format", "json"])
@example(argv=["equilibrium", "--n", "2", "--species", ""])
@example(argv=["epsilon", "--omega3", "2e6", "--species", "-x"])
def test_dispatch_table_agrees_with_parse_args(argv):
    parser, table = cli._main_parser(), cli._dispatch_table()
    fast = cli._table_parse(table, argv)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            slow = vars(parser.parse_args(argv))
        except SystemExit:
            slow = None
    # a line argparse rejects is declined; an accepted one parses the same
    assert fast is None or vars(fast) == slow


def test_dispatch_table_models_every_subcommand_option():
    # the parser and the table are built from one declaration; read back
    # from the parser's own actions, each argument has the table's slot
    parser, table = cli._main_parser(), cli._dispatch_table()
    assert sorted(table) == sorted(_COMMANDS)
    for name, sub in _subcommands(parser).items():
        options, positionals, required, _ = table[name]
        stores = [a for a in sub._actions
                  if not isinstance(a, argparse._HelpAction)]
        for action in stores:
            assert type(action) is argparse._StoreAction
            assert action.nargs is None
        assert options == {
            o: (a.dest, a.type or str, a.choices)
            for a in stores for o in a.option_strings}
        assert list(positionals) == [
            (a.dest, a.type or str, a.choices)
            for a in stores if not a.option_strings]
        assert required == {a.dest for a in stores if a.required}


def test_bench_command_lines_skip_parse_args(tmp_path, capsys, monkeypatch):
    (tmp_path / "sim.cfg").write_text(SIM_CONFIG.replace("both", "rwa"))
    (tmp_path / "classical.cfg").write_text(
        "n = 2\nalpha = 0.5\nt_final = 1\ndisplacement = z2:1e-3\n")
    monkeypatch.chdir(tmp_path)

    def no_parse_args(*args, **kwargs):
        raise AssertionError("a bench command line reached parse_args")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", no_parse_args)
    for argv in BENCH_LINES:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out and err == "", argv


def test_clearing_the_parser_memo_rebuilds_the_table():
    parser, table = cli._main_parser(), cli._dispatch_table()
    assert cli._main_parser() is parser and cli._dispatch_table() is table
    cli._main_parser.cache_clear()
    cli._dispatch_table.cache_clear()
    rebuilt, new_table = cli._main_parser(), cli._dispatch_table()
    assert rebuilt is not parser and new_table is not table
    assert new_table == table
    assert new_table["tables"][0]["--n"] == ("n", cli._n_range, None)


def test_table_lines_build_no_parser(tmp_path, capsys, monkeypatch):
    # a line the table parses never builds the argparse parser; the first
    # declined line builds it once, and later ones reuse it
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._main_parser.cache_clear()
    try:
        for _ in range(2):
            code, out, err = run_cli(capsys, "equilibrium", "--n", "2")
            assert code == 0 and out == PLAIN_TABLE
        assert built == []
        for _ in range(2):
            code, out, err = run_cli(capsys, "equilibrium", "--n=2")
            assert code == 0 and out == PLAIN_TABLE
        assert built == [1]
    finally:
        cli._main_parser.cache_clear()


# argparse internals the CLI once read its own arguments back through
_PRIVATE_ARGPARSE = {"_actions", "_defaults", "_registry_get", "_get_value",
                     "_get_option_tuples", "_option_string_actions",
                     "_mutually_exclusive_groups"}


def test_cli_reads_no_private_argparse_name():
    path = Path(cli.__file__)
    reads = [
        f"{path.name}:{node.lineno}: {node.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and (
            node.attr in _PRIVATE_ARGPARSE
            or (node.attr[:1] == "_" and isinstance(node.value, ast.Name)
                and node.value.id == "argparse"))]
    assert reads == []


def test_cli_reads_no_private_quantum_name():
    # the quantum run goes through the public `quantum` API only
    path = Path(cli.__file__)
    reads = [
        f"{path.name}:{node.lineno}: {node.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id == "quantum_mod"]
    reads += [
        f"{path.name}:{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "quantum"
        for alias in node.names if alias.name.startswith("_")]
    assert reads == []


def test_cli_leaves_the_classical_block_loop_to_classical():
    # what a streamed run needs to equal a stored one is known in
    # `classical` only: the command calls its block reducer
    path = Path(cli.__file__)
    reads = {node.attr for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id == "classical_mod"}
    assert "_reduce_blocks" in reads
    assert not reads & {"_sample_blocks", "_reference_pairs",
                        "_assemble_initial", "_project", "_energy"}


def test_console_script_entry_point():
    proc = subprocess.run(["ionchain", "equilibrium", "--n", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "-1.07722" in proc.stdout


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ionchain", "equilibrium",
                           "--n", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "-1.07722" in proc.stdout


def test_module_entry_point_usage_error():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ionchain", "tables",
                           "--n", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "starts below 2" in proc.stderr
