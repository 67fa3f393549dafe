"""Workload decks: seeded request streams that drive biphoton's public API.

Every workload is a closed loop with one client: the next request starts
when the previous one returns. A deck yields *blocks* of requests with a
fixed composition; the harness runs whole blocks only, so every run of a
workload measures the same mix whatever its seed or length.

Functions are looked up on their modules at call time (``cli.cmd_purity``,
not a name bound at import), so the timing wrappers of a traced run see
every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import os
import random
import warnings
from pathlib import Path

import numpy as np
import yaml

from biphoton import cli, scenario, schmidt, squeezing
from biphoton.errors import BiphotonError

import checks

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

RINGS = ("sipic1_ring", "sipic2_ring")
VERBS = ("jsi", "purity", "schmidt", "fringe", "stats")
# Ring variants: Q lattice ("bundled" keeps the device's own Q) and pump-1
# resonance detuning in resonance linewidths; 12 is past the 10-linewidth
# RingOff warning of build_ring_jsa.
Q_CHOICES = ("bundled", 1.0e4, 2.0e4, 4.0e4)
DETUNE_CHOICES = (0, 3, 12)
GRID_CHOICES = (201, 401, 801)
# One ring_verbs block. 401 points is the default of every verb and of all
# bundled scenarios, so it carries the majority: every verb twice at 401.
# 201 and 801 are --grid-points overrides: every verb once at 201 and one
# 801-point purity. The weights are an assumption, not an observation.
# One error-path request per block: 1 in 17, about 5%.
RING_BLOCK = (
    [(verb, 401) for verb in VERBS] * 2
    + [(verb, 201) for verb in VERBS]
    + [("purity", 801), ("error", 201)]
)
# Error kinds rotate from block to block, starting at a seeded kind: each
# block holds one kind, and runs with different seeds see all three.
ERROR_KINDS = ("nonpositive_q", "nan_wavelength", "inf_linewidth")
ERROR_EXPECTED_CODE = 2  # a bad value in a scenario file is a config error
PHOTON_BLOCK = 16
MODE_CUTOFF = 1e-3  # Fock diagonals for every mode with r >= 1e-3 * r0
XI_RANGE = (0.1, 2.0)
ETA_RANGE = (0.3, 1.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Outcome:
    """What one request returned: a value, an exit code, or an exception."""

    def __init__(self, value=None, code=None, error=None, warnings_seen=0):
        self.value = value
        self.code = code
        self.error = error
        self.warnings_seen = warnings_seen


class Request:
    """One timed call. ``prepare`` and ``check`` run outside the timed region."""

    kind = "request"
    error_path = False
    path = None  # output or input file of the request, removed by cleanup

    def prepare(self):
        pass

    def call(self):
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list:
        raise NotImplementedError

    def cleanup(self):
        if self.path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path)


def run_request(request: Request) -> Outcome:
    """Run the timed part of a request, recording warnings and exceptions."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            value = request.call()
        except Exception as exc:  # any exception is a result to classify
            return Outcome(error=exc, warnings_seen=len(seen))
    if request.error_path:
        return Outcome(code=value, warnings_seen=len(seen))
    return Outcome(value=value, warnings_seen=len(seen))


def _untyped(outcome: Outcome) -> list:
    if outcome.error is None:
        return []
    typed = "typed" if isinstance(outcome.error, BiphotonError) else "untyped"
    return [f"{typed} exception {type(outcome.error).__name__}: {outcome.error}"]


# ---------------------------------------------------------------- references


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())["purity"]


def ring_key(ring: str, q, detune: int, n_points: int) -> str:
    return f"ring/{ring}/q={q}/detune={detune}/n={n_points}"


def ring_variant(ring: str, q, detune: int):
    """Bundled ring, or a scenario_from_dict variant of it with new Q / detuning."""
    base = scenario.load_bundled(ring)
    if q == "bundled" and detune == 0:
        return base
    data = copy.deepcopy(base.raw)
    src = data["source"]
    if q != "bundled":
        src["q_factor"] = float(q)
    q_eff = float(src["q_factor"])
    pump1_nm = src["resonance_nm"] - src.get("pump_comb_index", 2) * src["fsr_nm"]
    src["detuning_p1_nm"] = detune * pump1_nm / q_eff
    data["name"] = f"{ring}_q{q}_d{detune}"
    return scenario.scenario_from_dict(data, name_hint=data["name"])


def reference_cases():
    """(key, scenario factory, n_points) for every purity the decks can check."""
    for _, name, _ in cli.TABLE1_ROWS:
        yield f"table1/{name}", (lambda name=name: scenario.load_bundled(name)), None
    for ring in RINGS:
        for q in Q_CHOICES:
            for detune in DETUNE_CHOICES:
                for n in GRID_CHOICES:
                    yield ring_key(ring, q, detune, n), (
                        lambda ring=ring, q=q, detune=detune: ring_variant(ring, q, detune)
                    ), n


def record_reference(path: Path = REFERENCE_PATH):
    """Recompute every reference purity with the code under test and store it."""
    values = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for key, make, n in reference_cases():
            values[key] = cli.cmd_purity(make(), n_points=n)["purity"]
            print(f"{key} {values[key]!r}", flush=True)
    payload = {
        "note": "purities recorded by perfbench/run.py --record-reference; checked to 1e-9 relative",
        "purity": values,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------------- plans
#
# A plan function takes (seed, workdir) and does the workload's set-up:
# it loads and parses the scenarios. It returns (prologue, blocks): the
# prologue runs once at the start of the timed run, and blocks(state)
# yields the request blocks given the prologue's result.


def _no_prologue():
    return None


# ------------------------------------------------------------------- table1


class Table1Request(Request):
    kind = "table1"

    def __init__(self, reference):
        self.reference = reference

    def call(self):
        return cli.cmd_table1("csv")

    def check(self, outcome):
        if outcome.error is not None:
            return _untyped(outcome)
        rows = [line.split(",") for line in outcome.value.splitlines()[2:]]
        problems = []
        if len(rows) != len(cli.TABLE1_ROWS):
            return [f"table1 has {len(rows)} rows, expected {len(cli.TABLE1_ROWS)}"]
        for (_, name, _), row in zip(cli.TABLE1_ROWS, rows):
            v, p, n = (float(x) for x in row[1:])
            problems += checks.check_purity(p, self.reference.get(f"table1/{name}"), name)
            problems += checks.check_overlap_column(v, n, name)
        return problems


def table1_plan(seed: int, workdir: Path):
    """The paper's Table 1: five bundled scenarios, 401 points, filtered.

    cmd_table1 takes no inputs, so the seed changes nothing; it is recorded.
    """
    for _, name, _ in cli.TABLE1_ROWS:
        scenario.load_bundled(name)
    reference = load_reference()

    def blocks(_):
        while True:
            yield [Table1Request(reference)]

    return _no_prologue, blocks


# --------------------------------------------------------------- ring_verbs


class VerbRequest(Request):
    def __init__(self, verb, ring, q, detune, n_points, path, reference):
        self.kind = f"{verb}@{n_points}"
        self.verb, self.ring, self.q, self.detune = verb, ring, q, detune
        self.n_points, self.path, self.reference = n_points, path, reference

    def call(self):
        sc = ring_variant(self.ring, self.q, self.detune)
        n = self.n_points
        if self.verb == "jsi":
            cli.cmd_jsi(sc, str(self.path), n)
            return sc
        if self.verb == "schmidt":
            cli.cmd_schmidt(sc, str(self.path), n)
            return sc
        if self.verb == "fringe":
            return sc, cli.cmd_fringe(sc, str(self.path), n)
        if self.verb == "purity":
            return sc, cli.cmd_purity(sc, n)
        return sc, cli.cmd_stats(sc, n)

    def check(self, outcome):
        if outcome.error is not None:
            return _untyped(outcome)
        ref = self.reference.get(ring_key(self.ring, self.q, self.detune, self.n_points))
        label = f"{self.verb} {self.ring} q={self.q} detune={self.detune} n={self.n_points}"
        if self.verb == "jsi":
            grid = outcome.value.grid(self.n_points)
            return checks.check_jsi(cli.read_jsi(str(self.path)), grid.step, grid.step, label)
        if self.verb == "schmidt":
            return checks.check_schmidt_csv(self.path.read_text(), ref, label)
        sc, report = outcome.value
        if self.verb == "purity":
            return checks.check_purity_report(report, ref, label)
        if self.verb == "fringe":
            rows = [ln for ln in self.path.read_text().splitlines() if not ln.startswith("#")]
            return checks.check_fringe(report, sc.source2 is None, len(rows) - 1, sc.fringe.steps, label)
        return checks.check_stats(report, label)


class ErrorPathRequest(Request):
    """An invalid scenario file sent through cli.main; expects the documented exit code."""

    error_path = True

    def __init__(self, kind, data, n_points, path):
        self.kind = f"error:{kind}"
        self.data, self.n_points, self.path = data, n_points, path

    def prepare(self):
        self.path.write_text(yaml.safe_dump(self.data))

    def call(self):
        argv = ["purity", "--scenario", str(self.path), "--grid-points", str(self.n_points)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(self, outcome):
        if outcome.error is not None:
            return _untyped(outcome)
        if outcome.code != ERROR_EXPECTED_CODE:
            return [f"exited {outcome.code}, expected {ERROR_EXPECTED_CODE}"]
        return []


def invalid_ring(rng: random.Random, kind: str) -> dict:
    data = copy.deepcopy(scenario.load_bundled(rng.choice(RINGS)).raw)
    pump = data["pumps"][rng.randrange(2)]
    if kind == "nonpositive_q":
        data["source"]["q_factor"] = rng.choice((0.0, -rng.uniform(1.0e4, 4.0e4)))
    elif kind == "nan_wavelength":
        pump["wavelength_nm"] = float("nan")
    else:
        pump["linewidth_ghz"] = float("inf")
    return data


def ring_verbs_plan(seed: int, workdir: Path):
    """Seeded CLI-verb stream over the bundled rings and their variants."""
    rng = random.Random(seed)
    reference = load_reference()
    for ring in RINGS:
        scenario.load_bundled(ring)
    counter = itertools.count()
    start = rng.randrange(len(ERROR_KINDS))
    kinds = itertools.cycle(ERROR_KINDS[start:] + ERROR_KINDS[:start])

    def make_block():
        specs = list(RING_BLOCK)
        rng.shuffle(specs)
        block = []
        for verb, n in specs:
            path = workdir / f"req{next(counter)}"
            if verb == "error":
                kind = next(kinds)
                block.append(ErrorPathRequest(kind, invalid_ring(rng, kind), n, path.with_suffix(".yaml")))
            else:
                ring, q, detune = rng.choice(RINGS), rng.choice(Q_CHOICES), rng.choice(DETUNE_CHOICES)
                block.append(VerbRequest(verb, ring, q, detune, n, path.with_suffix(".csv"), reference))
        return block

    # parse the first block's variants now, as set-up does
    first = make_block()
    for req in first:
        if isinstance(req, VerbRequest):
            ring_variant(req.ring, req.q, req.detune)

    def blocks(_):
        yield first
        while True:
            yield make_block()

    return _no_prologue, blocks


# ------------------------------------------------------------- photon_stats


class PhotonRequest(Request):
    kind = "photon_stats"

    def __init__(self, coefficients, xi, eta):
        self.r, self.xi, self.eta = coefficients, xi, eta

    def call(self):
        spec = squeezing.SqueezingSpec(
            global_xi=self.xi,
            schmidt_coefficients=self.r,
            transmissions=np.full(self.r.shape, self.eta),
        )
        n_mean = squeezing.mean_photon_number(spec)
        p_click = squeezing.trigger_probability(spec)
        keep = spec.mode_xi[self.r >= MODE_CUTOFF * self.r[0]]
        fock = [squeezing.lossy_density_diagonal(float(x), self.eta) for x in keep]
        return n_mean, p_click, keep, fock

    def check(self, outcome):
        if outcome.error is not None:
            return _untyped(outcome)
        n_mean, p_click, keep, fock = outcome.value
        label = f"xi={self.xi!r} eta={self.eta!r}"
        problems = checks.check_moments(n_mean, p_click, self.xi, self.eta, float(self.r.sum()), label)
        for x, probs in zip(keep, fock):
            problems += checks.check_fock(probs, float(x), self.eta, f"{label} mode_xi={x!r}")
        return problems


def photon_stats_plan(seed: int, workdir: Path):
    """Seeded squeezing requests on the two rings' Schmidt spectra.

    xi follows a log-uniform golden-ratio sequence over [0.1, 2.0] with a
    seeded offset, so every run sees nearly the same spread of xi. The cost
    of lossy_density_diagonal steps up at mode xi ~ 0.72, 1.02, 1.37 and
    1.72 (the series length doubles), and a uniform draw would put the
    median request on the 1.02 step.
    """
    rng = random.Random(seed)
    scenarios = [scenario.load_bundled(ring) for ring in RINGS]
    offset = rng.random()
    lo, hi = XI_RANGE

    def prologue():
        # each ring's Schmidt spectrum, built once inside the timed run
        return [schmidt.schmidt_decompose(cli.build_jsa(sc)).coefficients for sc in scenarios]

    def blocks(spectra):
        j = 0
        while True:
            block = []
            for _ in range(PHOTON_BLOCK):
                u = (offset + j * GOLDEN) % 1.0
                xi = lo * (hi / lo) ** u
                eta = rng.uniform(*ETA_RANGE)
                block.append(PhotonRequest(spectra[j % len(spectra)], xi, eta))
                j += 1
            yield block

    return prologue, blocks


PLANS = {
    "table1": table1_plan,
    "ring_verbs": ring_verbs_plan,
    "photon_stats": photon_stats_plan,
}
