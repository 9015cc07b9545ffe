"""Seeded request streams for the benchmark workloads and their output checks.

A workload sends its requests in cycles.  Each cycle draws fresh
inputs from the seed and the cycle's index, so no request of a cycle
repeats one of an earlier cycle, except a small fixed set that every
cycle sends again: their artifacts must match their first, checked,
run byte for byte.  Each request carries a check that reads its
artifacts after the request has finished and raises ``CheckError``
when they are wrong.

The checks are oracles written here from the closed forms, not calls
back into the program, except where the acceptance criterion itself
defines the reference through the library (criterion 7's tabulated
objective values).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

C0 = 299_792_458.0
MU0 = 4.0e-7 * math.pi
W0 = 4.0
F_C = 2.45e9

# acceptance criterion 7: (termination, target angle in degrees, drive
# frequency, drive amplitude, element count)
STEERING_ROWS = (
    ("short", -4.0, 1.2e6, 7.3, 27),
    ("short", -8.0, 6.0e6, 2.9, 27),
    ("short", -12.0, 2.0e6, 10.8, 27),
    ("open", 4.0, 8.1e6, 1.8, 27),
    ("open", 8.0, 7.5e6, 2.7, 27),
    ("open", 12.0, 7.5e6, 3.7, 27),
    ("short", -2.0, 0.7e6, 6.2, 60),
    ("short", -4.0, 2.5e6, 3.23, 60),
    ("short", -6.0, 0.5e6, 10.4, 60),
    ("open", 2.0, 3.6e6, 1.9, 60),
    ("open", 4.0, 3.4e6, 2.9, 60),
    ("open", 6.0, 3.5e6, 4.0, 60),
)

# the CLI's default scan grid: 0.1 to 30 MHz by 0.1 MHz, 0 to 12 V by 0.1 V
SCAN_F_AXIS = 0.1e6 + np.arange(300) * 0.1e6
SCAN_W_AXIS = np.arange(121) * 0.1
THETA_DEG = (np.arange(3601) - 1800) * 0.05

# 9 significant digits in every artifact
REL_TOL = 1e-7


class CheckError(Exception):
    """An artifact is missing, malformed or numerically wrong."""


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``argv`` excludes ``--out``."""

    label: str
    argv: tuple
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    fresh: Callable  # (rng, directory, cycle index) -> this cycle's new requests
    repeated: tuple  # sent in every cycle
    warmups: tuple
    spans: tuple  # trace spans that must fire on this workload
    # Busy seconds of one cycle at the seed commit on a 2-core Xeon VM
    # (Python 3.11, numpy 2.4, one BLAS thread).  A run sends a whole
    # number of cycles sized from --seconds with it, so the sample count
    # and the tail percentile do not drift with the machine's speed.
    cycle_s: float

    def cycle(self, index, work):
        """Shuffled (key, request) pairs of cycle ``index``, inputs under ``work``.

        ``key`` names a repeated request and is None for a fresh one.
        """
        work = Path(work)
        work.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.name, self.seed, index + 1)
        pairs = [(None, r) for r in self.fresh(rng, work, index)]
        pairs += [(f"repeat{j}", r) for j, r in enumerate(self.repeated)]
        return _shuffled(rng, pairs)


def _rng(name, seed, stream):
    """Stream 0 draws the repeated requests, stream i + 1 cycle i."""
    return np.random.default_rng([seed, sum(map(ord, name)), stream])


def _fail(message):
    raise CheckError(message)


def _close(actual, expected, rel=REL_TOL, atol=1e-12):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= rel * np.abs(expected) + atol))


def _finite(values, what):
    values = np.asarray(values, dtype=float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        _fail(f"{what}: empty or not finite")
    return values


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise CheckError(f"{path.name}: {err}") from None


def _read_csv(path, header):
    """Numeric columns of a CSV artifact, one array per header name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
            if first != ",".join(header):
                _fail(f"{path.name}: header {first!r} is not {','.join(header)!r}")
            body = fh.read()
    except (OSError, ValueError) as err:
        raise CheckError(f"{path.name}: {err}") from None
    rows = body.count("\n")
    cells = body.replace("\n", ",").split(",")
    if cells.pop() != "" or len(cells) != rows * len(header):
        _fail(f"{path.name}: {rows} rows are not {len(header)} newline-terminated columns")
    try:
        data = np.array(cells, dtype=float).reshape(rows, len(header))
    except ValueError as err:
        raise CheckError(f"{path.name}: {err}") from None
    return {name: data[:, i] for i, name in enumerate(header)}


def _write_config(path, base, element_count, termination, excitation):
    design = {**base["design"], "element_count": int(element_count), "termination": termination}
    doc = {**base, "design": design, "excitation": excitation}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _shuffled(rng, items):
    order = rng.permutation(len(items))
    return tuple(items[i] for i in order)


# ----------------------------------------------------------------- steer

def _steer_request(wv, bundle, row, theta):
    term, _, f_b, w_b, count = row
    design = replace(bundle.design, termination=wv.Termination(term), element_count=count)
    rad = math.radians(theta)
    # the row's tabulated (f_b, W_b) lies in the search range, so its
    # value at the requested angle bounds the optimum from below
    target = float(wv.evaluate_operating_point(
        design, bundle.cell, bundle.varactors, f_b, w_b, W0, F_C,
        theta_grid=np.array([rad, rad + 1e-9])).magnitude[0])

    def check(out):
        doc = _read_json(out / "steer.json")
        value = doc.get("objective_value")
        if not isinstance(value, (int, float)) or not value >= 0.95 * target:
            _fail(f"steer {term} M={count} {theta:+} deg: objective {value} "
                  f"below 0.95 x tabulated point's {target:.6f}")
        mags = _finite(doc["pattern"]["magnitude_linear"], "steer pattern")
        if mags.size != THETA_DEG.size or mags.min() < 0 or mags.max() > 1.0 + REL_TOL:
            _fail("steer pattern: wrong length or outside [0, 1]")

    argv = ("steer", "--theta", repr(theta), "--termination", term, "--elements", str(count))
    return Request(f"steer-{count}", argv, check)


def _steer(seed, wv, work):
    bundle = wv.load_bundled_config()

    def fresh(rng, work, _index):
        # each tabulated row at an angle drawn within half a degree of
        # its own; the bundled 27-tap design's rows go twice, so the
        # median request falls inside the 27-tap class and not on the
        # edge between classes
        return [_steer_request(wv, bundle, row, round(row[1] + rng.uniform(-0.5, 0.5), 3))
                for row in STEERING_ROWS for _ in range(2 if row[4] == 27 else 1)]

    row = STEERING_ROWS[0]
    return Workload(
        name="steer",
        seed=seed,
        fresh=fresh,
        repeated=(_steer_request(wv, bundle, row, row[1]),),
        warmups=(_steer_request(wv, bundle, row, row[1]),),
        spans=("cli.main", "steering.optimize_single_beam",
               "numutil.golden_section_maximize", "btl.rectified_bias",
               "unitcell.reflection_profile", "radiation.array_factor",
               "serialize.write_json"),
        cycle_s=3.9,
    )


# ------------------------------------------------------------------ scan

def _scan_check_grid(name, probes, probe_col, cube):
    """cube has shape (P, Nf, Nw) of magnitudes; axes already checked."""
    if not _close(probe_col, probes, atol=1e-9):
        _fail(f"{name}: probe angles {probe_col} are not {probes}")
    _finite(cube, name)
    zero_drive = cube[:, :, 0]
    if not np.all(zero_drive == zero_drive[:, :1]):
        _fail(f"{name}: zero-drive column varies with frequency")


def _scan_request(probes, fmt):
    name = f"scan.{fmt}"
    shape = (len(probes), SCAN_F_AXIS.size, SCAN_W_AXIS.size)

    def check(out):
        path = out / name
        if fmt == "csv":
            cols = _read_csv(path, ("probe_deg", "frequency_hz", "amplitude_v", "magnitude"))
            if cols["magnitude"].size != math.prod(shape):
                _fail(f"{name}: {cols['magnitude'].size} rows for grid {shape}")
            f = cols["frequency_hz"].reshape(shape)
            w = cols["amplitude_v"].reshape(shape)
            if not (_close(f, np.broadcast_to(SCAN_F_AXIS[None, :, None], shape))
                    and _close(w, np.broadcast_to(SCAN_W_AXIS[None, None, :], shape),
                               atol=1e-9)):
                _fail(f"{name}: axes do not match the requested grid")
            probe_col = cols["probe_deg"].reshape(shape)[:, 0, 0]
            cube = cols["magnitude"].reshape(shape)
        else:
            doc = _read_json(path)
            if not isinstance(doc, list) or len(doc) != len(probes):
                _fail(f"{name}: expected {len(probes)} grids")
            for grid in doc:
                if not (_close(grid["f_hz"], SCAN_F_AXIS)
                        and _close(grid["w_volts"], SCAN_W_AXIS, atol=1e-9)):
                    _fail(f"{name}: axes do not match the requested grid")
            try:
                cube = np.array([grid["magnitude"] for grid in doc], dtype=float)
            except ValueError as err:
                raise CheckError(f"{name}: {err}") from None
            if cube.shape != shape:
                _fail(f"{name}: magnitude shape {cube.shape} is not {shape}")
            probe_col = [grid["probe_deg"] for grid in doc]
        _scan_check_grid(name, probes, probe_col, cube)

    # one token, so a leading minus sign is not read as an option
    argv = ("scan", "--probe=" + ",".join(repr(p) for p in probes), "--format", fmt)
    return Request(f"scan-{fmt}", argv, check)


def _probe_request(rng, count, fmt):
    probes = sorted(rng.choice(np.arange(-120, 121), size=count, replace=False) * 0.5)
    return _scan_request([float(p) for p in probes], fmt)


# (probe count, format) of the widest scan in each cycle, in turn
SCAN_WIDE = ((3, "csv"), (4, "json"), (4, "csv"), (3, "json"))


def _scan(seed, wv, work):
    def fresh(rng, work, index):
        # Latencies form three groups that stay apart on any machine:
        # one-probe JSON scans, two-probe JSON scans (with the repeated
        # request, half of all requests), and two-probe CSV scans with the
        # cycle's widest scan above them.  The median falls well inside
        # the middle group and the tail inside the top one, never on a
        # gap between groups, where they would jump with small shifts in
        # speed.  The widest scans take turns, so every four cycles send
        # each of them once.
        shapes = ([(1, "json")] * 2 + [(2, "json")] * 5 + [(2, "csv")] * 3
                  + [SCAN_WIDE[(index + seed) % len(SCAN_WIDE)]])
        return [_probe_request(rng, count, fmt) for count, fmt in shapes]

    return Workload(
        name="scan",
        seed=seed,
        fresh=fresh,
        repeated=(_probe_request(_rng("scan", seed, 0), 2, "json"),),
        warmups=(_scan_request([0.0], "csv"),),
        spans=("cli.main", "steering.specular_scan", "serialize.write_csv",
               "serialize.write_json"),
        cycle_s=6.0,
    )


# ------------------------------------------------------------- multitone

def _excitation(rng, n_modes):
    """Criterion 6's generator: mode indices 1-12, 0.5-5 V, random phases."""
    indices = np.sort(rng.choice(np.arange(1, 13), size=n_modes, replace=False))
    modes = [{"mode_index": int(n), "amplitude": float(rng.uniform(0.5, 5.0)),
              "phase": float(rng.uniform(-3.1, 3.1))} for n in indices]
    if n_modes == 1:
        modes[0]["mode_index"] = 1  # the CLI's --wb drives mode 1 at zero phase
        modes[0]["phase"] = 0.0
    return {
        "dc_offset": float(rng.uniform(0.0, 5.0)),
        "modes": modes,
        "fundamental_frequency": float(rng.uniform(1e6, 20e6)),
        "generator_voltage": 10.0,
        "generator_impedance": 50.0,
    }


def _bias_bounds(design, exc, samples_per_mode=64):
    """(coarse dense-sample lower bound, dc + sum of amplitudes) per tap."""
    x = np.arange(design["element_count"]) * design["spacing"]
    u = x + design["left_extension"]
    d_feed = (x[-1] + design["right_extension"]) - x
    modes = exc["modes"]
    coeff = np.zeros((x.size, len(modes)), dtype=complex)
    for j, mode in enumerate(modes):
        k = (2.0 * math.pi * mode["mode_index"] * exc["fundamental_frequency"]
             * design["slowness"] / C0)
        if design["termination"] == "short":
            env = mode["amplitude"] * np.sin(k * u)
        elif design["termination"] == "open":
            env = mode["amplitude"] * np.cos(k * u)
        else:
            env = mode["amplitude"] * np.exp(-1j * k * d_feed)
        coeff[:, j] = env * np.exp(1j * mode["phase"])
    n_max = max(m["mode_index"] for m in modes)
    tau = np.arange(samples_per_mode * n_max) * (2.0 * math.pi / (samples_per_mode * n_max))
    indices = np.array([m["mode_index"] for m in modes], dtype=float)
    lower = (coeff @ np.exp(1j * np.outer(indices, tau))).real.max(axis=1)
    dc = exc["dc_offset"]
    return dc + lower, dc + sum(m["amplitude"] for m in modes)


def _bias_request(config, design, exc, fmt):
    lower, upper = _bias_bounds(design, exc)
    name = f"bias.{fmt}"

    def check(out):
        if fmt == "csv":
            cols = _read_csv(out / name, ("element", "position_m", "bias_v"))
            bias = cols["bias_v"]
        else:
            bias = np.asarray(_read_json(out / name)["bias_v"], dtype=float)
        bias = _finite(bias, name)
        slack = REL_TOL * (1.0 + np.abs(bias))
        if bias.shape != lower.shape:
            _fail(f"{name}: {bias.size} taps, expected {lower.size}")
        if np.any(bias < lower - slack) or np.any(bias > upper + slack):
            _fail(f"{name}: bias outside [dense-sample peak, dc + sum of amplitudes]")

    argv = ["bias", "--config", str(config), "--format", fmt]
    if len(exc["modes"]) == 1:
        argv += ["--wb", repr(exc["modes"][0]["amplitude"])]
    return Request(f"bias-{fmt}", tuple(argv), check)


def _check_pattern_arrays(name, theta, mag, mag_db):
    if not _close(theta, THETA_DEG, atol=1e-9):
        _fail(f"{name}: theta grid is not -90..90 by 0.05 deg")
    mag = _finite(mag, name)
    if mag.min() < 0 or mag.max() > 1.0 + REL_TOL:
        _fail(f"{name}: magnitude outside [0, 1]")
    with np.errstate(divide="ignore"):
        expect_db = np.maximum(20.0 * np.log10(mag), -60.0)
    if not _close(mag_db, expect_db, rel=1e-6, atol=1e-6):
        _fail(f"{name}: magnitude_db disagrees with magnitude")
    return mag


def _pattern_request(config, fmt):
    name = f"pattern.{fmt}"

    def check(out):
        if fmt == "csv":
            cols = _read_csv(out / name, ("theta_deg", "magnitude", "magnitude_db"))
            theta, mag, mag_db = cols["theta_deg"], cols["magnitude"], cols["magnitude_db"]
        else:
            doc = _read_json(out / name)
            theta, mag, mag_db = doc["theta_deg"], doc["magnitude"], doc["magnitude_db"]
        mag = _check_pattern_arrays(name, theta, mag, mag_db)
        peak = _read_json(out / "pattern-metrics.json")["peak_value_linear"]
        if not peak >= mag.max() * (1.0 - REL_TOL):
            _fail(f"{name}: refined peak {peak} below the sampled maximum {mag.max()}")

    return Request(f"pattern-{fmt}", ("pattern", "--config", str(config), "--format", fmt),
                   check)


def _multitone(seed, wv, work):
    base = wv.load_bundled_config().to_dict()

    def config(path, count, term, exc):
        _write_config(path, base, count, term, exc)
        return {**base["design"], "element_count": count, "termination": term}

    def fresh(rng, work, _index):
        # every line length and termination sees each tone count 1..8
        # once, so the single-tone share is fixed at one request in eight
        requests = []
        for count in (27, 60):
            for term in ("short", "open", "matched"):
                for n_modes in range(1, 9):
                    exc = _excitation(rng, n_modes)
                    path = work / f"multitone-{count}-{term}-{n_modes}.json"
                    design = config(path, count, term, exc)
                    fmt_bias, fmt_pattern = rng.permutation(["csv", "json"])
                    requests.append(_bias_request(path, design, exc, str(fmt_bias)))
                    requests.append(_pattern_request(path, str(fmt_pattern)))
        return requests

    repeat_path = work / "multitone-repeated.json"
    repeat_exc = _excitation(_rng("multitone", seed, 0), 3)
    repeat_design = config(repeat_path, 60, "open", repeat_exc)
    warm_path = work / "multitone-warmup.json"
    warm_exc = _excitation(np.random.default_rng(0), 3)
    warm_design = config(warm_path, 27, "short", warm_exc)
    return Workload(
        name="multitone",
        seed=seed,
        fresh=fresh,
        repeated=(_bias_request(repeat_path, repeat_design, repeat_exc, "json"),
                  _pattern_request(repeat_path, "csv")),
        warmups=(_bias_request(warm_path, warm_design, warm_exc, "csv"),
                 _pattern_request(warm_path, "csv")),
        spans=("cli.main", "config.load_config", "btl.rectified_bias",
               "unitcell.reflection_profile", "radiation.array_factor",
               "serialize.write_csv", "serialize.write_json"),
        cycle_s=3.7,
    )


# ----------------------------------------------------------- fit-cascade

def _cell_impedance(cell, f):
    """Unloaded-cell impedance: (R_d + jwL_d + 1/jwC_d) in parallel with jwL_s."""
    w = 2.0 * math.pi * np.asarray(f, dtype=float)
    series = cell["R_d"] + 1j * w * cell["L_d"] + 1.0 / (1j * w * cell["C_d"])
    shunt = 1j * w * cell["L_s"]
    return series * shunt / (series + shunt)


def _write_sweep(path, f, z, fmt):
    if fmt == "csv":
        header, sep, columns = "f_hz,re_z,im_z", ",", (f, z.real, z.imag)
    else:
        gamma = (z - 50.0) / (z + 50.0)
        header, sep = "! synthesized one-port sweep\n# GHz S RI R 50", " "
        columns = (f / 1e9, gamma.real, gamma.imag)
    rows = map(f"{{!r}}{sep}{{!r}}{sep}{{!r}}".format, *(c.tolist() for c in columns))
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _random_cell(rng, reference):
    """Each circuit value of the bundled reference cell times 0.8 to 1.25."""
    return {key: float(reference[key] * rng.uniform(0.8, 1.25))
            for key in ("R_d", "C_d", "L_d", "L_s")}


def _fit_request(path, cell):
    def check(out):
        doc = _read_json(out / "cell.json")
        for key, want in cell.items():
            got = doc.get(key)
            if not isinstance(got, (int, float)) or not abs(got / want - 1.0) <= 0.01:
                _fail(f"fit {path.name}: {key} = {got}, synthesized {want}")

    argv = ("fit", "--input", str(path), "--thickness", repr(cell["L_s"] / MU0))
    return Request(f"fit-{path.suffix[1:]}", argv, check)


def _make_fit(rng, reference, path, points, fmt):
    cell = _random_cell(rng, reference)
    f_m = 1.0 / (2.0 * math.pi * math.sqrt(cell["C_d"] * (cell["L_d"] + cell["L_s"])))
    f_e = 1.0 / (2.0 * math.pi * math.sqrt(cell["C_d"] * cell["L_d"]))
    f = np.linspace(f_m * rng.uniform(0.8, 0.9), f_e * rng.uniform(1.1, 1.2), points)
    _write_sweep(path, f, _cell_impedance(cell, f), fmt)
    return _fit_request(path, cell)


def _ideal_bias(design, exc, f):
    """Single-tone ideal bias with the generator-chain amplitude (closed form)."""
    x = np.arange(design["element_count"]) * design["spacing"]
    total = x[-1] + design["left_extension"] + design["right_extension"]
    z0, z_g, v_g = design["characteristic_impedance"], exc["generator_impedance"], abs(
        exc["generator_voltage"])
    kappa = 2.0 * math.pi * f * design["slowness"] * total / C0
    k = 2.0 * math.pi * f * design["slowness"] / C0
    u = x + design["left_extension"]
    if design["termination"] == "short":
        amp = z0 * v_g / abs(1j * z0 * math.sin(kappa) + z_g * math.cos(kappa))
        return exc["dc_offset"] + amp * np.abs(np.sin(k * u))
    amp = z0 * v_g / abs(1j * z0 * math.cos(kappa) + z_g * math.sin(kappa))
    return exc["dc_offset"] + amp * np.abs(np.cos(k * u))


def _cascade_request(config, design, exc, f, zrect, loss_db, fmt):
    ideal_ref = _ideal_bias(design, exc, f)
    name = f"cascade.{fmt}"

    def check(out):
        if fmt == "csv":
            cols = _read_csv(out / name,
                             ("element", "position_m", "ideal_v", "tapped_v", "delta_v"))
            ideal, tapped = cols["ideal_v"], cols["tapped_v"]
            if not _close(cols["delta_v"], tapped - ideal, atol=1e-6):
                _fail(f"{name}: delta_v is not tapped_v - ideal_v")
        else:
            doc = _read_json(out / name)
            ideal = np.asarray(doc["ideal_v"], dtype=float)
            tapped = np.asarray(doc["tapped_v"], dtype=float)
        _finite(tapped, name)
        if not _close(ideal, ideal_ref, atol=1e-6):
            _fail(f"{name}: ideal bias disagrees with the closed form")
        if np.any(tapped < exc["dc_offset"] * (1.0 - REL_TOL)):
            _fail(f"{name}: rectified tap voltage below the dc offset")

    argv = ["cascade", "--config", str(config), "--fb", repr(f), "--format", fmt]
    if zrect is not None:
        argv += ["--zrect", zrect]
    if loss_db:
        argv += ["--loss-db", repr(loss_db)]
    return Request(f"cascade-{fmt}", tuple(argv), check)


# The sweeps span both resonances, about 10 GHz for these cells.  From
# 3001 points on, at least three of them fall inside the pole's
# half-power width for every drawn cell; sparser sweeps of the same
# cells under-resolve the pole and the fit misses 1%.
FIT_POINTS = (3001, 4001, 5001, 6001)


def _fit_cascade(seed, wv, work):
    base = wv.load_bundled_config().to_dict()
    reference = base["cell"]

    def config(path, count, term, exc):
        _write_config(path, base, count, term, exc)
        return {**base["design"], "element_count": count, "termination": term}

    def fresh(rng, work, _index):
        # sweep sizes and formats are fixed so that the seed moves
        # values, not the amount of work
        formats = rng.permutation(["csv", "csv", "s1p", "s1p"])
        requests = [_make_fit(rng, reference, work / f"sweep-{points}.{fmt}", points, str(fmt))
                    for points, fmt in zip(FIT_POINTS, formats)]
        for count in (27, 60):
            for term in ("short", "open"):
                exc = {**base["excitation"], "dc_offset": float(rng.uniform(0.0, 5.0))}
                path = work / f"cascade-{count}-{term}.json"
                design = config(path, count, term, exc)
                # default loading, unloaded taps with and without loss, a drawn load
                variants = ((None, False), ("inf", True), ("inf", False),
                            (repr(float(rng.uniform(100.0, 5000.0))), True))
                for i, (zrect, lossy) in enumerate(variants):
                    loss = float(rng.uniform(0.2, 3.0)) if lossy else 0.0
                    fmt = ("csv", "json")[(i + count) % 2]
                    requests.append(_cascade_request(path, design, exc,
                                                     float(rng.uniform(0.5e6, 20e6)),
                                                     zrect, loss, fmt))
        return requests

    exc = base["excitation"]
    repeat_rng = _rng("fit-cascade", seed, 0)
    repeat_config = work / "cascade-repeated.json"
    repeat_design = config(repeat_config, 60, "open", exc)
    warm_config = work / "cascade-warmup.json"
    warm_design = config(warm_config, 27, "short", exc)
    return Workload(
        name="fit-cascade",
        seed=seed,
        fresh=fresh,
        repeated=(_make_fit(repeat_rng, reference, work / "sweep-repeated.csv", 4001, "csv"),
                  _cascade_request(repeat_config, repeat_design, exc,
                                   float(repeat_rng.uniform(0.5e6, 20e6)), "inf", 1.0, "json")),
        warmups=(_make_fit(np.random.default_rng(0), reference, work / "sweep-warmup.csv",
                           4001, "csv"),
                 _cascade_request(warm_config, warm_design, exc, 7.18e6, None, 0.0, "csv")),
        spans=("cli.main", "config.load_config", "unitcell.ingest_impedance",
               "unitcell.fit_circuit_model", "cascade.build_network", "cascade.solve_taps",
               "btl.rectified_bias", "serialize.write_csv", "serialize.write_json"),
        cycle_s=0.2,
    )


GENERATORS = {
    "steer": _steer,
    "scan": _scan,
    "multitone": _multitone,
    "fit-cascade": _fit_cascade,
}


def build(name, seed, wv, work):
    """Generate the inputs of workload ``name`` under ``work`` from ``seed``."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, wv, work)
