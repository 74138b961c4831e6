"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

Every workload draws its inputs from ``numpy.random.default_rng(seed)`` in
its constructor; the library only ever receives the generated inputs.
``run_pass`` runs the workload once over those inputs, times the library
calls, then checks each item against the library's own tolerances with
tracing paused, so that the checks count neither in the timings nor in
the per-layer spans.

Between items (between library calls on partial-wave) a pass times a
fixed reference kernel (hostspeed.py), so that each measured span can be
scaled to the nominal host speed.

Library functions are called through the package namespace
(``pc.name``) at call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import hostspeed
import poincare_cgc as pc
from poincare_cgc import cli as pc_cli

SPEC = pc.TwoParticleSpec.fermion_pair(1.0)
PAIR_S = 9.0
SCHEMES = ("spin-orbit", "helicity")

# Tolerances, as the library's verify suite uses them.
GRAM_TOL = 1e-8
PARSEVAL_TOL = 1e-6
COVARIANCE_TOL = 1e-10
MIXING_TOL = 1e-8
SYMBOLIC_TOL = 1e-12
# A slot conversion is a unitary map at every node; roundoff only.
CONVERSION_NORM_TOL = 1e-12
# A cli command that runs longer than this fails; every command takes a
# few seconds at most.
COMMAND_TIMEOUT = 60


@dataclass
class PassResult:
    """What one pass did: item latencies, failures and measured residuals.

    With ``host`` set, the reference kernel is timed before every timed
    segment and once more when the pass finishes, so ``refs`` holds one
    time more than ``segments``. A segment is one item, except on
    workloads whose items all complete with the pass (``whole_pass``).
    """

    host: bool = True
    whole_pass: bool = False
    latencies: list = field(default_factory=list)  # seconds, one per item
    failed: int = 0
    timed_s: float = 0.0  # wall time spent in the library calls of the pass
    segments: list = field(default_factory=list)  # seconds of each timed segment
    refs: list = field(default_factory=list)  # reference kernel seconds around the segments
    residuals: dict = field(default_factory=dict)  # check name -> worst residual
    info: dict = field(default_factory=dict)  # recorded, never gated
    errors: dict = field(default_factory=dict)  # exception name -> items it failed
    tracebacks: dict = field(default_factory=dict)  # exception name -> its first traceback

    @property
    def items(self) -> int:
        return len(self.latencies)

    def tick(self):
        if self.host:
            self.refs.append(hostspeed.time_kernel())

    def timed(self, compute):
        """Run one segment's library calls and count their wall time, also if they raise."""
        self.tick()
        start = time.perf_counter()
        try:
            return compute()
        finally:
            seconds = time.perf_counter() - start
            self.segments.append(seconds)
            self.timed_s += seconds

    def scaled_segments(self) -> list:
        """Segment times at the nominal host speed; raw without the kernel.

        Segment i lies between kernel times i and i + 1; it is scaled by the
        median of those two and the one on either side of them.
        """
        if not self.refs:
            return list(self.segments)
        return [
            hostspeed.scale(t, statistics.median(self.refs[max(0, i - 1):i + 3]))
            for i, t in enumerate(self.segments)
        ]

    def scaled_latencies(self) -> list:
        scaled = self.scaled_segments()
        return [sum(scaled)] * self.items if self.whole_pass else scaled

    def add(self, latency, ok, error=None):
        """Count one item; an item whose call or check raised fails, and its exception is named."""
        self.latencies.append(latency)
        if not ok:
            self.failed += 1
        if error is not None:
            name = type(error).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.tracebacks.setdefault(name, "".join(traceback.format_exception(error)))

    def worst(self, name, value, gated=True):
        """Keep the largest value seen, as a checked residual or as information."""
        into = self.residuals if gated else self.info
        into[name] = max(into.get(name, 0.0), float(value))


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def attempt(out, tracer, compute, check):
    """Time one item's library calls, then check their result with tracing paused.

    The item fails if its check fails or if either step raises.
    """
    try:
        result = out.timed(compute)
    except Exception as exc:
        out.add(out.segments[-1], False, exc)
        return
    latency = out.segments[-1]
    try:
        with _paused(tracer):
            ok = check(result)
    except Exception as exc:
        out.add(latency, False, exc)
        return
    out.add(latency, ok)


def sign_conjugated(j, matrix) -> np.ndarray:
    """S M S with S = diag((-1)^chi) over the components of spin j."""
    sign = np.array([(-1.0) ** int(c) for c in pc.components(j)])
    return sign[:, None] * matrix * sign[None, :]


def random_su2(rng) -> np.ndarray:
    """SU(2) matrix from a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def random_sl2c(rng, max_rapidity) -> np.ndarray:
    """Boost of random direction and rapidity up to max_rapidity, times a rotation."""
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    eta = rng.uniform(0.0, max_rapidity)
    n_sigma = np.array([[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]])
    boost = math.cosh(eta / 2) * np.eye(2) + math.sinh(eta / 2) * n_sigma
    return boost @ random_su2(rng)


def random_direction(rng) -> np.ndarray:
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


class PartialWave:
    """Both schemes' basis and Gram matrix, then a decomposition round trip.

    Heavy on the sphere grid and light on the Lorentz layer. An item is one
    basis state; every item of a pass completes when the pass does.
    """

    name = "partial-wave"

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        self.j_max = 1 if tiny else 6
        self.grid = pc.build_grid(*((8, 16) if tiny else (32, 64)))
        w = self.grid.weights
        amps = rng.normal(size=(self.grid.size, 2, 2)) + 1j * rng.normal(
            size=(self.grid.size, 2, 2)
        )
        amps /= math.sqrt(float(np.einsum("n,ncd->", w, np.abs(amps) ** 2)))
        self.grid_state = pc.GridProductState(self.grid, SPEC, amps, "spin-orbit")
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        self.delta_state = pc.DeltaProductState(
            SPEC,
            theta=math.acos(rng.uniform(-1.0, 1.0)),
            phi=rng.uniform(0.0, 2 * math.pi),
            coefficients=c / np.linalg.norm(c),
        )
        # basis states of both schemes, counted from the channel list
        self.n_items = sum(
            len(pc.coupling_channels(SPEC, j, scheme)) * len(pc.components(j))
            for scheme in SCHEMES
            for j in range(self.j_max + 1)
        )

    def sizes(self) -> dict:
        return {"j_max": self.j_max, "grid": [self.grid.n_theta, self.grid.n_phi]}

    def run_pass(self, tracer=None) -> PassResult:
        # the kernel runs between library calls, and not in a traced pass
        out = PassResult(host=tracer is None, whole_pass=True)
        oks, error = [], None
        try:
            grams = []
            for scheme in SCHEMES:
                basis = out.timed(
                    lambda: pc.all_basis_states(self.grid, SPEC, PAIR_S, self.j_max, scheme)
                )
                grams.append(out.timed(lambda: pc.gram_matrix(basis)))
                basis = None  # one basis alive at a time, as in a caller that keeps only the Gram matrix
            decompositions = [
                out.timed(lambda: pc.decompose_product_state(psi, SPEC, PAIR_S, self.j_max, "spin-orbit"))
                for psi in (self.grid_state, self.delta_state)
            ]
            rebuilt = [out.timed(lambda: pc.reconstruct(dec, self.grid, SPEC)) for dec in decompositions]
            out.tick()
            with _paused(tracer):
                oks = self._check(out, grams, decompositions, rebuilt)
        except Exception as exc:
            error = exc
        # Every item completes with the pass. If a call raised or a basis
        # came out with the wrong number of states, every item fails.
        if len(oks) != self.n_items:
            oks = [False] * self.n_items
        for ok in oks:
            out.add(out.timed_s, ok, None if ok else error)
        return out

    def _check(self, out, grams, decompositions, rebuilt) -> list:
        """Whether each basis state passes: its Gram row, and Parseval for the pass."""
        # Parseval: the grid image of the kept partial waves carries exactly
        # the coefficient norm.
        parseval = max(
            abs(
                sum(abs(e.coefficient) ** 2 for e in dec.entries)
                - float(np.einsum("n,ncd->", self.grid.weights, np.abs(img.amplitudes) ** 2))
            )
            for dec, img in zip(decompositions, rebuilt)
        )
        out.worst("parseval", parseval)
        oks = []
        for gram in grams:
            rows = np.abs(gram - np.eye(len(gram))).max(axis=1)
            out.worst("gram_deviation", rows.max())
            oks += [bool(dev <= GRAM_TOL and parseval <= PARSEVAL_TOL) for dev in rows]
        return oks


class FrameKinematics:
    """General-frame coupling tables for boosted pairs.

    Many small scalar calls (boosts, Wigner rotations, D^j, Clebsch-Gordan)
    and no grid. An item is one frame: a seeded pair direction at s = 9,
    boosted by a seeded SL(2,C) element, with every spin-orbit and helicity
    general-frame table for j <= j_max built there.
    """

    name = "frame-kinematics"

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        self.j_max = 1 if tiny else 2
        n_frames = 1 if tiny else 12
        self.kinematics = pc.Kinematics.for_spec(SPEC, PAIR_S)
        self.frames = [(random_direction(rng), random_sl2c(rng, 1.5)) for _ in range(n_frames)]

    def sizes(self) -> dict:
        return {"j_max": self.j_max, "frames": len(self.frames)}

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult(host=tracer is None)
        for direction, alpha in self.frames:
            attempt(out, tracer, lambda: self._tables(direction, alpha),
                    lambda result: self._check(out, alpha, *result))
        out.tick()
        return out

    def _tables(self, direction, alpha):
        p1, p2 = self.kinematics.momenta(direction)
        q1, q2 = pc.apply_lorentz(alpha, p1), pc.apply_lorentz(alpha, p2)
        # a list, not a dict: dict lookups would compare HalfInt keys and
        # add the benchmark's own HalfInt.of calls to the traced counts
        tables = []
        for scheme, table_fn in (
            ("spin-orbit", pc.spin_orbit_general_table),
            ("helicity", pc.helicity_general_table),
        ):
            for j in range(self.j_max + 1):
                for channel in pc.coupling_channels(SPEC, j, scheme):
                    for chi in pc.components(j):
                        tables.append(((scheme, j, channel, chi), table_fn(SPEC, j, channel, chi, q1, q2)))
        return p1, p2, tables

    def _check(self, out, alpha, p1, p2, tables) -> bool:
        residual = self._covariance(alpha, p1, p2, tables)
        out.worst("boosted_covariance", residual)
        return all(np.all(np.isfinite(t)) for _, t in tables) and residual <= COVARIANCE_TOL

    @staticmethod
    def _covariance(alpha, p1, p2, tables) -> float:
        """Boosted spin-orbit tables against rest-frame ones rotated slot by slot.

        A(q; chi) = sum_chi' [S D^j(W)^+ S]_{chi' chi} D^{j1}(W_1) (x) D^{j2}(W_2) A(p; chi'),
        with W_1, W_2 and W the Wigner rotations of alpha at p1, p2 and the
        pair rest momentum, and S = diag((-1)^chi). For a pure boost W = 1
        and this is the law verify's boosted-pair covariance check sweeps;
        the pair factor is the sign-conjugated rotation matrix that verify's
        rotation-mixing check establishes for the rotation part of alpha.
        """
        d1 = pc.rep_matrix(SPEC.j1, pc.wigner_rotation(alpha, p1).matrix)
        d2 = pc.rep_matrix(SPEC.j2, pc.wigner_rotation(alpha, p2).matrix)
        w_pair = pc.wigner_rotation(alpha, pc.FourMomentum.rest(PAIR_S)).matrix
        worst = 0.0
        rest = {}
        for (scheme, j, channel, chi), boosted in tables:
            if scheme != "spin-orbit":
                continue
            comps = pc.components(j)
            dj = sign_conjugated(j, pc.rep_matrix(j, w_pair).conj().T)
            want = np.zeros_like(boosted)
            for row, chi_p in enumerate(comps):
                key = (j, channel, chi_p)
                if key not in rest:
                    rest[key] = pc.spin_orbit_general_table(SPEC, j, channel, chi_p, p1, p2)
                want += dj[row, comps.index(chi)] * np.einsum("ac,bd,cd->ab", d1, d2, rest[key])
            worst = max(worst, float(np.abs(boosted - want).max()))
        return worst


class RotateSerialize:
    """JSON round trips and rotations of grid states, loaded and closed-form.

    An item is one j <= j_max basis state of either scheme: it is written to
    JSON, read back, and rotated twice by a seeded SU(2) element, once as
    loaded (spherical-harmonic interpolation) and once from its closed form.
    Helicity states are also converted to fixed-axis slots.
    """

    name = "rotate-serialize"

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        self.j_max = 0 if tiny else 1
        self.grid = pc.build_grid(*((6, 13) if tiny else (16, 33)))
        self.basis = {
            scheme: pc.all_basis_states(self.grid, SPEC, PAIR_S, self.j_max, scheme)
            for scheme in SCHEMES
        }
        self.spin_orbit_amplitudes = np.stack([st.amplitudes for st in self.basis["spin-orbit"]])
        self.rotations = [random_su2(rng) for _ in range(sum(map(len, self.basis.values())))]

    def sizes(self) -> dict:
        return {
            "j_max": self.j_max,
            "grid": [self.grid.n_theta, self.grid.n_phi],
            "states": sum(map(len, self.basis.values())),
        }

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult(host=tracer is None)
        rotations = iter(self.rotations)
        for scheme in SCHEMES:
            for k, state in enumerate(self.basis[scheme]):
                u = next(rotations)
                attempt(out, tracer, lambda: self._round_trip(scheme, state, u),
                        lambda result: self._check(out, scheme, k, state, u, *result))
        out.tick()
        return out

    @staticmethod
    def _round_trip(scheme, state, u):
        text = pc.state_to_json(state)
        loaded = pc.state_from_json(text, SPEC)
        turned_loaded = pc.apply_rotation(loaded, u)
        turned = pc.apply_rotation(state, u)
        converted = pc.convert_slots_to_canonical(loaded) if scheme == "helicity" else None
        return text, loaded, turned_loaded, turned, converted

    def _check(self, out, scheme, k, state, u, text, loaded, turned_loaded, turned, converted) -> bool:
        ok = pc.state_to_json(loaded) == text and np.array_equal(loaded.amplitudes, state.amplitudes)
        out.worst(
            f"loaded_vs_closed_gap.{scheme}",
            np.abs(turned_loaded.amplitudes - turned.amplitudes).max(),
            gated=False,
        )
        if scheme == "spin-orbit":
            mixing = self._mixing_residual(k, turned, u)
            out.worst("rotation_mixing", mixing)
            return ok and mixing <= MIXING_TOL
        drift = np.abs(
            (np.abs(converted.amplitudes) ** 2).sum(axis=(1, 2))
            - (np.abs(loaded.amplitudes) ** 2).sum(axis=(1, 2))
        ).max()
        out.worst("conversion_norm", drift)
        return ok and drift <= CONVERSION_NORM_TOL

    def _mixing_residual(self, k, turned, u) -> float:
        """Overlaps of a rotated spin-orbit state with every basis state.

        Within its (j, channel) block they must follow S D^j(u) S with
        S = diag((-1)^chi), the sign-conjugated law verify checks; outside
        the block they must vanish.
        """
        states = self.basis["spin-orbit"]
        overlaps = np.einsum(
            "n,incd,ncd->i", self.grid.weights, self.spin_orbit_amplitudes.conj(), turned.amplitudes
        )
        mine = states[k]
        comps = pc.components(mine.j)
        law = sign_conjugated(mine.j, pc.rep_matrix(mine.j, u))
        col = comps.index(mine.component)
        want = np.array(
            [
                law[comps.index(st.component), col]
                if (st.j, st.channel) == (mine.j, mine.channel)
                else 0.0
                for st in states
            ]
        )
        return float(np.abs(overlaps - want).max())


def _command_timed_out(signum, frame):
    raise TimeoutError(f"cli command ran longer than {COMMAND_TIMEOUT} s")


class Cli:
    """The command line, one fresh interpreter per command.

    Covers cli, verify and reference_tables, and pays the package import on
    every command. An item is one command. Commands run as
    ``python -m poincare_cgc.cli`` with the PYTHONPATH=src this process got
    from run.py. With in_process set, commands go through cli.main in this
    interpreter with stdout captured instead; the traced run uses that so
    that spans see the calls.
    """

    name = "cli"

    def __init__(self, seed, tiny=False, in_process=False):
        rng = np.random.default_rng(seed)
        self.in_process = in_process
        j, j_max, level = ("0", "1", "fast") if tiny else ("1", "6", "full")
        angles = [
            (repr(math.acos(rng.uniform(-1.0, 1.0))), repr(rng.uniform(0.0, 2 * math.pi)))
            for _ in range(2)
        ]
        self.commands = [
            ["table", "--j", j, "--symbolic-check", "--theta", angles[0][0], "--phi", angles[0][1]],
            ["table", "--scheme", "helicity", "--j", j, "--format", "json",
             "--theta", angles[1][0], "--phi", angles[1][1]],
            ["decompose", "psi11", "--j-max", j_max, "--scheme", "helicity"],
            ["verify", "--level", level],
        ]

    def sizes(self) -> dict:
        return {"commands": [" ".join(argv) for argv in self.commands]}

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult(host=tracer is None)
        out.info["stdout_bytes"] = 0
        for argv in self.commands:
            attempt(out, tracer, lambda: self._run(argv),
                    lambda result: self._check(out, argv[0], *result))
        out.tick()
        return out

    def _run(self, argv):
        if self.in_process:
            buf = io.StringIO()
            signal.signal(signal.SIGALRM, _command_timed_out)
            signal.alarm(COMMAND_TIMEOUT)
            try:
                with contextlib.redirect_stdout(buf):
                    code = pc_cli.main(argv)
            except SystemExit as exc:  # argparse exits on a bad command line
                code = exc.code
            finally:
                signal.alarm(0)
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "poincare_cgc.cli", *argv],
            capture_output=True, text=True, timeout=COMMAND_TIMEOUT,
        )
        return proc.returncode, proc.stdout

    def _check(self, out, command, code, text) -> bool:
        out.info["stdout_bytes"] += len(text.encode())
        return code == 0 and self._output_ok(command, text, out)

    @staticmethod
    def _output_ok(command, text, out) -> bool:
        """Whether a command's output passes; output that does not parse raises."""
        if command == "verify":
            tally = [line for line in text.splitlines() if line.endswith("checks passed")]
            passed, total = tally[-1].split()[0].split("/")
            return int(passed) == int(total) > 0
        if text.startswith("["):
            rows = json.loads(text)
            return bool(rows) and all(all(map(math.isfinite, r["value"])) for r in rows)
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return False
        if "residual" in rows[0]:
            worst = max(float(r["residual"]) for r in rows)
            out.worst("symbolic_residual", worst)
            return worst <= SYMBOLIC_TOL
        return all(math.isfinite(float(v)) for r in rows for v in r.values())


WORKLOADS = {wl.name: wl for wl in (PartialWave, FrameKinematics, RotateSerialize, Cli)}
