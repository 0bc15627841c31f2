"""Command-line frontend for the chain pipeline.

Each subcommand wraps one computation stage and emits tables: to standard
output by default, to files (csv/json/plain text) when an output directory
is selected via --output-dir or the IONCHAIN_OUTPUT_DIR variable.  Every
written file gets a sibling manifest recording the command, parameters,
constants version and wall time.

Exit codes: 0 success, 1 domain error (zig-zag regime, unknown species,
bad config values), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import classical as classical_mod
from . import equilibrium as equilibrium_mod
from . import modes as modes_mod
from . import quantum as quantum_mod
from . import resonances as resonances_mod
from .constants import ATOMIC_MASS, CODATA_VERSION
from .errors import IonChainError

OUTPUT_DIR_ENV = "IONCHAIN_OUTPUT_DIR"

_MODE_AMP_RE = re.compile(r"([xyz])([0-9]+):(.+)")


# --- formatting and output plumbing --------------------------------------

def _fmt(value, precision: int) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.{precision}g}"
    return str(value)


# cell types that %-formatting renders exactly as `_fmt` does
_PLAIN_FLOATS = frozenset((float, np.float64))

# Rows per block that a renderer formats and writes at a time, so a long
# table (the classical energies) is never held as one list of cells or as
# one string.
_ROW_BLOCK = 256


def _json_cell(value, precision: int):
    """A cell as JSON holds it: floats rounded through `_fmt`, ints exact."""
    if isinstance(value, (float, np.floating)):
        return float(_fmt(value, precision))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _row_blocks(rows):
    """rows in blocks of `_ROW_BLOCK`; a block of an array as Python lists.

    Rows that fill at most one block come back as they are, uncopied.
    """
    if isinstance(rows, np.ndarray):
        return (rows[k:k + _ROW_BLOCK].tolist()
                for k in range(0, len(rows), _ROW_BLOCK))
    if len(rows) > _ROW_BLOCK:
        return (rows[k:k + _ROW_BLOCK]
                for k in range(0, len(rows), _ROW_BLOCK))
    return (rows,) if rows else ()


def _format_columns(rows: list, precision: int, cell=_fmt,
                    parse=None) -> list[list]:
    """The cells of `rows` as `cell` formats them, one list per column.

    A column of plain floats, the common case, is formatted by one
    C-level call per cell, as `_fmt` does, and then passed through
    `parse` if one is given; a column of plain ints stays ints where
    `parse` is given (JSON) and becomes `str`s otherwise, as `cell` makes
    it; any other column goes through `cell`.
    """
    spec = f"%.{precision}g".__mod__
    plain, ints = _PLAIN_FLOATS.issuperset, {int}.issuperset
    columns = []
    for column in zip(*rows):
        if plain(map(type, column)):
            cells = map(spec, column)
            columns.append(list(map(parse, cells) if parse else cells))
        elif ints(map(type, column)):
            columns.append(list(column) if parse else list(map(str, column)))
        else:
            columns.append(list(map(cell, column,
                                    itertools.repeat(precision))))
    return columns


def _compact(cells: list):
    """A formatted column as one newline-joined string, unless a cell
    holds a newline itself; `str.split("\\n")` gives the cells back."""
    joined = "\n".join(cells)
    return joined if joined.count("\n") == len(cells) - 1 else cells


class Artifact:
    """One named table destined for stdout or a file.

    rows is a sequence of rows, lists or tuples with one cell per header,
    or a 2-D array.  Each renderer formats and writes the rows in blocks
    of `_ROW_BLOCK` into a sink (anything with a `write` method), so the
    memory a long table takes to print is about one block of formatted
    cells, not a second copy of the table as cells, lines and text.  A
    block of an array becomes Python scalars only when its turn comes.
    Every cell is formatted once.  The plain-text layout pads each column
    to its widest cell, so its blocks are held until the last is
    formatted, each column of a finished block as one joined string until
    it is written; a table of one block is formatted and written as is.
    """

    def __init__(self, name: str, headers: list[str], rows,
                 notes: list[str] | None = None):
        self.name = name
        self.headers = headers
        self.rows = rows
        self.notes = notes or []

    def write_text(self, sink, precision: int) -> None:
        widths = [len(h) for h in self.headers]
        # finished blocks, compacted until written; the last block's columns
        held, columns = [], []
        for block in _row_blocks(self.rows):
            if columns:
                held.append(list(map(_compact, columns)))
            columns = _format_columns(block, precision)
            for i, cells in enumerate(columns):
                widths[i] = max(widths[i], max(map(len, cells)))
        # one left-justifying template pads a whole line in one call
        line = "  ".join(["%%-%ds" % w for w in widths])
        lines = [f"# {note}" for note in self.notes]
        lines.append(line % tuple(self.headers))
        while held:
            lines.extend(map(line.__mod__, zip(*[
                cells.split("\n") if isinstance(cells, str) else cells
                for cells in held.pop(0)])))
            sink.write("\n".join(lines) + "\n")
            lines = []
        lines.extend(map(line.__mod__, zip(*columns)))
        sink.write("\n".join(lines) + "\n")

    def write_csv(self, sink, precision: int) -> None:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(self.headers)
        for block in _row_blocks(self.rows):
            writer.writerows(zip(*_format_columns(block, precision)))

    def write_json(self, sink, precision: int) -> None:
        """The bytes of json.dumps({"name", "rows": records}, indent=2).

        With an indent, json falls back to its pure-Python encoder, so
        the cells are encoded without one, one C-level call per column
        of a block, and the fixed two-level layout is filled in by one
        record template. A record keeps each header's first position and
        its last cell, as dict(zip(headers, row)) does.
        """
        last = {header: i for i, header in enumerate(self.headers)}
        fields = ",\n".join("      %s: %%s" % json.dumps(h).replace("%", "%%")
                            for h in last)
        record = "    {\n%s\n    }" % fields if fields else "    {}"
        sink.write('{\n  "name": %s,\n  "rows": ' % json.dumps(self.name))
        separator = "[\n"
        for block in _row_blocks(self.rows):
            columns = _format_columns(block, precision, _json_cell, float)
            # an encoded scalar holds no raw newline, so one splits the cells
            cells = [json.dumps(columns[i], separators=("\n", ": "))[1:-1]
                     .split("\n") for i in last.values()]
            records = zip(*cells) if cells else [()] * len(block)
            sink.write(separator + ",\n".join(map(record.__mod__, records)))
            separator = ",\n"
        sink.write("[]\n}\n" if separator == "[\n" else "\n  ]\n}\n")


# each --format: its renderer and the extension of the files it writes
_FORMATS = {"table": (Artifact.write_text, ".txt"),
            "csv": (Artifact.write_csv, ".csv"),
            "json": (Artifact.write_json, ".json")}


def _emit(artifacts: list[Artifact], command: str, parameters: dict,
          args, diagnostics: dict | None = None) -> int:
    """Print or write all artifacts; manifests accompany written files.

    Each artifact is written block by block (see `Artifact`) straight
    into its sink, stdout or its open file, so no rendered table is ever
    held whole. diagnostics (run health figures) go into the manifests
    only.
    """
    started = getattr(args, "_t0", None)
    out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    write, ext = _FORMATS[args.format]
    if out_dir is None:
        for art in artifacts:
            if len(artifacts) > 1:
                print(f"== {art.name} ==")
            write(art, sys.stdout, args.precision)
        return 0
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for art in artifacts:
        path = os.path.join(out_dir, art.name + ext)
        with open(path, "w") as fh:
            write(art, fh, args.precision)
        paths.append(path)
    wall = 0.0 if started is None else time.perf_counter() - started
    manifest = {
        "command": command,
        "parameters": parameters,
        "constants_version": CODATA_VERSION,
        "output_paths": paths,
        "wall_time_s": round(wall, 3),
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    for path in paths:
        with open(path + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    for path in paths:
        print(path)
    return 0


# --- shared argument handling --------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _n_range(text: str) -> tuple[int, int]:
    """Parse '6' or '2..10' into an inclusive range of chain lengths >= 2."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
    else:
        lo_text = hi_text = text
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range: {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"bad range: {text!r}")
    if lo < 2:
        raise argparse.ArgumentTypeError(
            f"range {text!r} starts below 2; a resonance needs two ions")
    return lo, hi


def _resolve_ion(name: str | None, mass_u: float | None):
    if mass_u is not None:
        label = name or "custom"
        return equilibrium_mod.IonSpecies(name=label, mass=mass_u * ATOMIC_MASS)
    if not name:
        raise ValueError("--species or --mass-u is required")
    return equilibrium_mod.species(name)


def _parse_resonance(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"resonance must be 'm,n,p', got {text!r}")
    try:
        m, n, p = (int(s) for s in parts)
    except ValueError:
        raise ValueError(f"resonance must be three integers, got {text!r}")
    return m, n, p


def _find_entry(chain, m: int, n: int, p: int):
    """Second-kind entry of the chain's catalog with pair {m, n} and pump p."""
    entry = chain.resonances.get((p, min(m, n), max(m, n)))
    if entry is not None and entry.kind == resonances_mod.SECOND_KIND:
        return entry
    raise ValueError(
        f"no second-kind resonance {{{m},{n}}} <- {p} "
        f"in the N = {chain.n_ions} catalog")


def _parse_mode_map(text: str, value_type=float) -> tuple[str, dict]:
    """'z5:0.01,x6:1e-6' -> (the text, {("z",5): 0.01, ("x",6): 1e-6})."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        match = _MODE_AMP_RE.fullmatch(part)
        if match is None:
            raise ValueError(f"bad mode amplitude {part!r}, expected like z5:0.01")
        try:
            value = value_type(match.group(3))
        except ValueError:
            raise ValueError(f"bad amplitude value in {part!r}")
        out[(match.group(1), int(match.group(2)))] = value
    return text, out


def _parse_occupations(text: str) -> tuple[str, dict]:
    """'z5:1' -> (the text, {("z",5): 1}), phonon numbers per mode."""
    return _parse_mode_map(text, int)


# a range rule: (test, what the value must be); NaN fails every test
_POSITIVE = (lambda value: value > 0, "> 0, got {:g}")

# Each config-driven command's keys, declared once as key: (parse, default,
# rule) in the order `_parse_config` checks them. A default of ... marks a
# required key; None leaves the key to the command.
_CONFIGS = {
    "simulate": {
        "n": (int, 6, None),
        "species": (str, "Ca40", None),
        "mass_u": (float, None, _POSITIVE),  # None: the species mass
        "omega3": (float, 2.0e6, _POSITIVE),
        "resonance": (_parse_resonance, (6, 5, 5), None),
        "cutoff": (int, 2, None),
        "duration": (float, 2.0 * math.pi, _POSITIVE),
        "samples": (int, 201, (lambda value: value >= 2, "at least 2")),
        "mode": (str, "rwa", None),
        "alpha": (float, None, None),  # None: the entry's alpha_res
        "initial": (_parse_occupations, None, None),  # None: one pump phonon
    },
    "classical": {
        "n": (int, ..., None),
        "dt": (float, 1.0e-3, _POSITIVE),
        "t_final": (float, 100.0, _POSITIVE),
        "stride": (int, 10, (lambda value: value >= 1, ">= 1, got {}")),
        "displacement": (_parse_mode_map, ("", {}), None),
        "velocity": (_parse_mode_map, ("", {}), None),
        "detune": (float, 0.0, (lambda value: value >= 0, ">= 0, got {:g}")),
        "resonance": (_parse_resonance, None, None),
        "alpha": (float, None, None),  # None: the entry's alpha_res
    },
}


def _parse_config(path: str, declaration: dict) -> dict:
    """Each declared key's value, from the `key = value` lines of a config.

    A malformed line, an undeclared key or a repeated one fails, in line
    order. Then, key by key, an absent key takes its default and a given
    one is parsed (int and float errors get the key as prefix; the other
    parses name their value), checked finite and checked by its rule.
    """
    texts, first_line = {}, {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in declaration:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}; "
                             f"known keys: {', '.join(declaration)}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: config key {key!r} repeated "
                             f"(first at line {first_line[key]})")
        first_line[key] = lineno
        texts[key] = value.strip()
    values = {}
    for key, (parse, default, rule) in declaration.items():
        if key not in texts:
            if default is ...:
                raise ValueError(f"config key {key!r} is required")
            values[key] = default
            continue
        try:
            value = parse(texts[key])
        except ValueError as exc:
            if parse not in (int, float):
                raise
            raise ValueError(f"config key {key!r}: {exc}")
        # a NaN is left to the rule, or to the library's checks
        if isinstance(value, float) and math.isinf(value):
            raise ValueError(f"config key {key!r} must be finite, "
                             f"got {texts[key]}")
        if rule is not None and not rule[0](value):
            raise ValueError(f"config key {key!r} must be "
                             + rule[1].format(value))
        values[key] = value
    return values


# --- subcommands ----------------------------------------------------------

def cmd_equilibrium(args) -> int:
    u = resonances_mod._positions(args.n)
    headers = ["ion", "u"]
    notes = []
    params = {"n": args.n}
    ell = None
    if (args.species, args.mass_u, args.omega3) != (None, None, None):
        ion = _resolve_ion(args.species, args.mass_u)
        if args.omega3 is None:
            raise ValueError("--omega3 is required with a species")
        omega3 = 2.0 * np.pi * args.omega3
        ell = equilibrium_mod.length_scale(ion, omega3)
        headers.append("z_m")
        notes.append(f"length_scale_m = {_fmt(ell, args.precision)}")
        params.update(species=ion.name, omega3_hz=args.omega3,
                      length_scale_m=ell)
    rows = [(i, u_i) if ell is None else (i, u_i, u_i * ell)
            for i, u_i in enumerate(u.tolist(), start=1)]
    art = Artifact(f"equilibrium_n{args.n}", headers, rows, notes)
    return _emit([art], "equilibrium", params, args)


def cmd_modes(args) -> int:
    u = resonances_mod._positions(args.n)
    basis = modes_mod.mode_basis(u, args.alpha)
    headers = ["p", "mu", "gamma", "nu_over_omega3", "Omega_over_omega3"]
    headers += [f"b{i}" for i in range(1, args.n + 1)]
    rows = [(p + 1, float(basis.mu[p]), float(basis.gamma[p]),
             float(np.sqrt(basis.mu[p])), float(np.sqrt(basis.gamma[p])),
             *map(float, basis.vectors[:, p])) for p in range(args.n)]
    art = Artifact(f"modes_n{args.n}", headers, rows)
    return _emit([art], "modes", {"n": args.n, "alpha": args.alpha}, args)


def cmd_tables(args) -> int:
    lo, hi = args.n
    # fail on the first length past the cap before solving any chain
    for n_ions in range(lo, hi + 1):
        resonances_mod._check_length(n_ions)
    second_rows, first_rows, bound_rows = [], [], []
    for n_ions in range(lo, hi + 1):
        chain = resonances_mod._solve_chain(n_ions)
        bound_rows.append((n_ions,
                           float(resonances_mod.alpha_min(chain.probe.mu)),
                           float(chain.alpha_crit)))
        for entry in chain.resonances.values():
            row = (entry.n_ions, entry.m, entry.n, entry.p,
                   entry.coupling, entry.alpha_res)
            if entry.kind == resonances_mod.FIRST_KIND:
                first_rows.append(row)
            else:
                second_rows.append(row)
    res_headers = ["n_ions", "m", "n", "p", "coupling", "alpha"]
    artifacts = [
        Artifact("resonances_second_kind", res_headers, second_rows),
        Artifact("resonances_first_kind", res_headers, first_rows),
        Artifact("anisotropy_bounds", ["n_ions", "alpha_min", "alpha_crit"],
                 bound_rows),
    ]
    return _emit(artifacts, "tables", {"n_min": lo, "n_max": hi}, args)


def cmd_epsilon(args) -> int:
    if args.resonance is not None and args.n is None:
        raise ValueError("--n is required with --resonance")
    if args.n is not None and args.resonance is None:
        raise ValueError("--resonance is required with --n")
    ion = _resolve_ion(args.species, args.mass_u)
    omega3 = 2.0 * np.pi * args.omega3
    eps = quantum_mod.nonlinearity_epsilon(ion, omega3)
    headers = ["species", "omega3_hz", "epsilon", "eps_omega3_over_2pi_hz"]
    row = [ion.name, args.omega3, eps, eps * args.omega3]
    params = {"species": ion.name, "omega3_hz": args.omega3}
    if args.resonance is not None:
        m, n, p = _parse_resonance(args.resonance)
        chain = resonances_mod._solve_chain(args.n)
        entry = _find_entry(chain, m, n, p)
        coef = quantum_mod.rwa_coefficient(entry, chain.probe.mu)
        rate = eps * omega3 * coef
        headers += ["alpha_res", "rate_over_eps_omega3", "Gamma_over_2pi_hz"]
        row += [entry.alpha_res, float(coef),
                float(rate / (2.0 * np.pi))]
        params.update(n=args.n, resonance=[m, n, p])
    art = Artifact("nonlinearity_scale", headers, [tuple(row)])
    return _emit([art], "epsilon", params, args)


def cmd_simulate(args) -> int:
    cfg = _parse_config(args.config, _CONFIGS["simulate"])
    flavor = args.mode or cfg["mode"]
    if flavor not in ("rwa", "full", "both"):
        raise ValueError(f"mode must be rwa, full or both, got {flavor!r}")
    ion = _resolve_ion(cfg["species"], cfg["mass_u"])

    chain = resonances_mod._solve_chain(cfg["n"])
    entry = _find_entry(chain, *cfg["resonance"])
    alpha = entry.alpha_res if cfg["alpha"] is None else cfg["alpha"]
    omega3 = 2.0 * np.pi * cfg["omega3"]
    eps = quantum_mod.nonlinearity_epsilon(ion, omega3)

    # the mode tensor depends on the eigenvectors only, which do not
    # change with alpha, so the chain's probe tensors serve at any alpha
    basis = chain.basis_at(alpha)
    tensors = chain.tensors
    fock = quantum_mod.FockBasis.uniform(
        quantum_mod.resonance_mode_set(entry), cfg["cutoff"])
    rate_tau = abs(eps * quantum_mod.rwa_coefficient(entry, basis.mu))

    watched = quantum_mod.down_conversion_states(fock, entry)
    initial_text, initial = (cfg["initial"]
                             or _parse_occupations(f"z{entry.p}:1"))
    start = fock.number_state(initial)

    # no generator joins two symmetry sectors: each is built on the
    # sectors the initial state reaches only
    states = quantum_mod.sector_states(fock, tensors, start)
    hamiltonians = {}
    if flavor in ("rwa", "both"):
        hamiltonians["rwa"] = quantum_mod.build_rwa_interaction(
            fock, basis, tensors, eps, resonance=entry, states=states)
    if flavor in ("full", "both"):
        # counter-rotating terms only cancel through free evolution, so the
        # full run propagates under the complete generator
        hamiltonians["full"] = (
            quantum_mod.build_free_hamiltonian(fock, basis, states=states)
            + quantum_mod.build_full_interaction(fock, basis, tensors, eps,
                                                 states=states))

    x_modes = [mode for mode in fock.modes if mode[0] == "x"]
    samples = cfg["samples"]
    t_gamma = np.linspace(0.0, cfg["duration"], samples)
    d_tau = (t_gamma[1] - t_gamma[0]) / rate_tau
    headers = ["t_gamma", "pop_axial", "pop_y_pair", "pop_x_pair",
               "norm", "entropy_x"]
    artifacts = []
    top_fock, live_states = {}, {}
    for label, h in sorted(hamiltonians.items()):
        # all samples in one run from the initial state
        run = quantum_mod.propagate(h, start, np.arange(samples) * d_tau)
        top_fock[label] = run.top_fock_population()
        live_states[label] = int(run.states.size)
        # an array: the Artifact makes Python floats of one row block at a time
        rows = np.column_stack([t_gamma, run.populations(watched),
                                run.norms(), run.entropies(x_modes)])
        artifacts.append(Artifact(f"simulate_{label}", headers, rows))
    params = {
        "config": os.path.abspath(args.config), "n": cfg["n"],
        "species": ion.name, "omega3_hz": cfg["omega3"], "alpha": alpha,
        "resonance": list(cfg["resonance"]), "cutoff": cfg["cutoff"],
        "epsilon": eps, "rate_per_omega3_t": rate_tau,
        "initial": initial_text, "duration_gamma_t": cfg["duration"],
        "samples": samples, "mode": flavor,
    }
    return _emit(artifacts, "simulate", params, args,
                 diagnostics={"top_fock_population": top_fock,
                              "live_states": live_states})


def _reduce_blocks(u, bases, pair, *run) -> tuple:
    """Integrate a batch (`classical._sample_blocks`), reducing each block
    as it arrives to the first member's mode coordinates (z, x, y;
    samples, n) and energy table (t, z, x and y mode energies, total,
    drift) and to each member's pair gain, the largest rise of the
    transverse pair's mode energy.  Blocks are projected from contiguous
    per-member copies, as stored runs are, in the row blocks
    `mode_projection` uses, so the values are those of `mode_projection`
    over `integrate_batch`, bit for bit."""
    times, blocks = classical_mod._sample_blocks(u, bases, *run)
    samples, n = times.size, u.size
    coords = np.empty((3, samples, n))   # z, x, y
    table = np.empty((samples, 3 * n + 3))
    table[:, 0] = times
    series = [np.empty(samples) for _ in bases]
    reference = classical_mod._reference_pairs(  # the chain at rest
        classical_mod._assemble_initial(u, bases[0], None, None)[0])
    for start, pos, vel in blocks:
        rows = slice(start, start + len(pos))
        for b, basis in enumerate(bases):
            member = pos[:, :, b].copy(), vel[:, :, b].copy()
            proj = classical_mod._project(*member, basis, u)
            series[b][rows] = sum(proj.energies[d][:, p - 1]
                                  for d in ("x", "y") for p in pair)
            if not b:
                coords[:, rows] = [proj.coordinates[d] for d in "zxy"]
                table[rows, 1:-2] = np.hstack(
                    [proj.energies[d] for d in "zxy"])
                table[rows, -2] = classical_mod._energy(
                    *member, reference, basis.alpha)
    energy = table[:, -2]
    table[:, -1] = (energy - energy[0]) / max(abs(energy[0]), 1e-300)
    return coords, table, [float(np.max(s - s[0])) for s in series]


def cmd_classical(args) -> int:
    """Integrate the configured run and tabulate its energies and spectra.

    With `detune`, the resonant and detuned runs integrate as one batch
    and each adds one row to the transfer table. Only what the tables
    need outlives a sample block (see `_reduce_blocks`); `Artifact`
    formats and writes the energy table, one float array, in row blocks.
    """
    cfg = _parse_config(args.config, _CONFIGS["classical"])
    n_ions, dt, t_final, stride, detune = (
        cfg[key] for key in ("n", "dt", "t_final", "stride", "detune"))
    samples = classical_mod._time_grid(dt, t_final, stride)[1]
    if samples < classical_mod._MIN_SPECTRUM_SAMPLES:
        raise ValueError(
            f"config keys 't_final', 'dt' and 'stride' give {samples} "
            f"samples; the spectra need at least "
            f"{classical_mod._MIN_SPECTRUM_SAMPLES}")
    chain = entry = None
    if cfg["resonance"] is not None:
        chain = resonances_mod._solve_chain(n_ions)
        entry = _find_entry(chain, *cfg["resonance"])
    if cfg["alpha"] is None and entry is None:
        raise ValueError("config needs either 'alpha' or 'resonance'")
    alpha = entry.alpha_res if cfg["alpha"] is None else cfg["alpha"]
    transfer, pair = [], []
    if detune > 0.0:
        if entry is None:
            raise ValueError("'detune' needs a 'resonance' key to detune from")
        if detune >= 1.0:
            raise ValueError(
                f"config key 'detune' must be below 1, got {detune:g} "
                f"(the low detuned alpha is (1 - detune) * alpha_res)")
        pair = sorted({entry.m, entry.n})
        base_alpha = entry.alpha_res
        transfer = [("resonant", base_alpha),
                    ("detuned_low", (1.0 - detune) * base_alpha),
                    ("detuned_high", (1.0 + detune) * base_alpha)]

    # the main run and the transfer comparison integrate as one batch,
    # one member per distinct alpha
    alphas = list(dict.fromkeys([alpha] + [a for _, a in transfer]))
    if chain is None:
        u = resonances_mod._positions(n_ions)
        bases = [modes_mod.mode_basis(u, a) for a in alphas]
    else:
        u = chain.u
        bases = [chain.basis_at(a) for a in alphas]
    coords, energy_rows, member_gains = _reduce_blocks(
        u, bases, pair, cfg["displacement"][1], cfg["velocity"][1],
        dt, t_final, stride)
    gains = {label: member_gains[alphas.index(run_alpha)]
             for label, run_alpha in transfer}

    energy_headers = ["t", *(f"e_{direction}{p}" for direction in "zxy"
                             for p in range(1, n_ions + 1)),
                      "total", "energy_drift"]
    spectra_rows = []
    dt_sample = float(energy_rows[1, 0] - energy_rows[0, 0])
    basis = bases[0]
    for direction, q, eig in zip("zxy", coords,
                                 (basis.mu, basis.gamma, basis.gamma)):
        for p in range(n_ions):
            if float(np.max(np.abs(q[:, p]))) <= 1e-10:
                continue
            peak = float(classical_mod.spectrum(q[:, p], dt_sample)[0])
            linear = float(np.sqrt(eig[p]))
            spectra_rows.append((direction, p + 1, peak, linear,
                                 (peak - linear) / linear))
    artifacts = [
        Artifact("classical_energies", energy_headers, energy_rows),
        Artifact("classical_spectra",
                 ["direction", "p", "omega_peak", "omega_linear", "rel_diff"],
                 spectra_rows),
    ]

    params = {
        "config": os.path.abspath(args.config), "n": n_ions, "alpha": alpha,
        "dt": dt, "t_final": t_final, "stride": stride,
        "displacement": cfg["displacement"][0],
        "velocity": cfg["velocity"][0],
        "windowed_energy_drift": classical_mod._windowed_drift(
            energy_rows[:, -2]),
    }

    if transfer:
        resonant = gains["resonant"]
        transfer_rows = [
            (label, run_alpha, gains[label],
             resonant / gains[label] if gains[label] > 0.0 else float("inf"))
            for label, run_alpha in transfer]
        artifacts.append(Artifact(
            "classical_transfer",
            ["label", "alpha", "pair_energy_gain", "resonant_over_this"],
            transfer_rows))
        params["detune"] = detune
    return _emit(artifacts, "classical", params, args)


# --- parser wiring --------------------------------------------------------

# Every argument is declared once, as (flag or positional name,
# `add_argument` keywords), and stores one value: `build_parser` adds it to
# argparse and `_dispatch_table` reads the same entry.

# rendering flags, accepted before or after the subcommand
_OUTPUT_FLAGS = [
    ("--format", {"choices": tuple(_FORMATS), "default": "table",
                  "help": "output rendering"}),
    ("--precision", {"type": _positive_int, "default": 6,
                     "help": "significant digits for printed numbers"}),
    ("--output-dir", {"help": f"write files here instead of stdout "
                              f"(or set {OUTPUT_DIR_ENV})"}),
]

# per subcommand: its help, its function and its own arguments
_COMMANDS = {
    "equilibrium": ("equilibrium ion positions", cmd_equilibrium, [
        ("--n", {"type": _positive_int, "required": True}),
        ("--species", {}),
        ("--mass-u", {"type": _positive_float}),
        ("--omega3", {"type": _positive_float,
                      "help": "axial trap frequency in Hz"}),
    ]),
    "modes": ("normal-mode table", cmd_modes, [
        ("--n", {"type": _positive_int, "required": True}),
        ("--alpha", {"type": _positive_float, "required": True}),
    ]),
    "tables": ("resonance catalog and bounds", cmd_tables, [
        ("--n", {"type": _n_range, "required": True,
                 "help": "ion count or inclusive range like 2..10"}),
    ]),
    "simulate": ("quantum down-conversion run", cmd_simulate, [
        ("config", {"help": "flat key = value config file"}),
        ("--mode", {"choices": ("rwa", "full", "both")}),
    ]),
    "classical": ("classical trajectory run", cmd_classical, [
        ("config", {"help": "flat key = value config file"}),
    ]),
    "epsilon": ("nonlinearity scale report", cmd_epsilon, [
        ("--species", {}),
        ("--mass-u", {"type": _positive_float}),
        ("--omega3", {"type": _positive_float, "required": True,
                      "help": "axial trap frequency in Hz"}),
        ("--n", {"type": _positive_int}),
        ("--resonance", {"help": "m,n,p"}),
    ]),
}


def _dest(name_or_flag: str) -> str:
    """The namespace attribute argparse stores an argument under."""
    return name_or_flag.lstrip("-").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionchain",
        description="Linear ion-chain phonon coupling toolkit.")
    for flag, keywords in _OUTPUT_FLAGS:
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        # the trailing copies default to SUPPRESS so they only override
        # the top-level values when actually given
        for flag, keywords in _OUTPUT_FLAGS:
            sp.add_argument(flag, **keywords | {"default": argparse.SUPPRESS})
        for name_or_flag, keywords in arguments:
            sp.add_argument(name_or_flag, **keywords)
        sp.set_defaults(func=func)
    return parser


@functools.lru_cache(maxsize=1)
def _dispatch_table() -> dict:
    """Per subcommand name, what `_table_parse` needs to parse its lines:
    the slot (dest, type, choices) of each option string, the positional
    slots, the required dests, and the namespace argparse starts from.
    Built once per process; `main` reads it on every call.
    """
    top = {_dest(flag): keywords.get("default")
           for flag, keywords in _OUTPUT_FLAGS}
    table = {}
    for name, (_, func, arguments) in _COMMANDS.items():
        options, positionals, required = {}, [], set()
        for name_or_flag, keywords in _OUTPUT_FLAGS + arguments:
            dest, positional = _dest(name_or_flag), name_or_flag[:1] != "-"
            slot = (dest, keywords.get("type", str), keywords.get("choices"))
            if positional:
                positionals.append(slot)
            else:
                options[name_or_flag] = slot
            if positional or keywords.get("required"):
                required.add(dest)
        # the trailing output flags default to SUPPRESS: they set none
        defaults = {**top, "command": name, "func": func, **{
            _dest(n): keywords.get("default") for n, keywords in arguments}}
        table[name] = (options, tuple(positionals), frozenset(required),
                       defaults)
    return table


def _table_parse(table: dict, argv: list):
    """The namespace `parse_args(argv)` returns, or None to defer to it.

    Accepts only a subcommand name followed by exact option strings, each
    with a value that does not start with "-", and positionals while
    slots remain; every value must pass its type and choices, and every
    required argument must be given. Anything else (help, abbreviations,
    "--opt=value", "--", global options, a bad value) is declined.
    """
    if not argv or not isinstance(argv[0], str) or argv[0] not in table:
        return None
    options, positionals, required, defaults = table[argv[0]]
    values = dict(defaults)
    seen = set()
    n_pos = 0
    tokens = iter(argv[1:])
    for token in tokens:
        if not isinstance(token, str):
            return None
        if token[:1] == "-":
            slot = options.get(token)
            text = next(tokens, None)
            if slot is None or not isinstance(text, str) or text[:1] == "-":
                return None
        elif n_pos < len(positionals):
            slot, text = positionals[n_pos], token
            n_pos += 1
        else:
            return None
        dest, convert, choices = slot
        try:
            value = convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        seen.add(dest)
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _join_negative_values(argv: list) -> list:
    """argv with "--flag -2e6" as "--flag=-2e6": argparse reads a negative
    number in exponent or non-finite form as an option, not as a value."""
    out = []
    for token in argv:
        if out and re.match(r"-(\.?[0-9]|inf|nan)", str(token), re.I) and any(
                out[-1] in opts for opts, *_ in _dispatch_table().values()):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


@functools.lru_cache(maxsize=1)
def _main_parser() -> argparse.ArgumentParser:
    """The parser `main` falls back to, built once per process, on the
    first line the dispatch table declines.

    Parsing leaves a parser unchanged, so every call can share one. It is
    kept apart from what `build_parser` returns, so a caller that changes
    that parser does not change what `main` accepts.
    """
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a well-formed line is one table read; anything else goes through
    # argparse, which gives help, messages and exit codes
    args = _table_parse(_dispatch_table(), argv)
    if args is None:
        try:
            args = _main_parser().parse_args(_join_negative_values(argv))
        except SystemExit as exc:
            # argparse exits on --help (0) and on a usage error (2); return
            # the code so an in-process caller gets it like a shell does
            return exc.code
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except (IonChainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
