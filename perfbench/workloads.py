"""The benchmark's three seeded workloads.

Each workload makes item inputs from the seed and the item index, runs one
item through the public functions that its ``tnngrass`` CLI command calls,
and checks the item's output with ``oracle``.  Library functions are looked
up on the ``tnngrass.cli`` module at call time, so a tracer that rebinds
them sees every call.

Nothing from ``tnngrass`` is imported at module level: a fresh
interpreter that measures set-up time imports this module first and
``tnngrass`` inside ``setup``.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import oracle

NODE_LO, NODE_HI = Fraction(1), Fraction(10)


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


class Workload:
    """One workload; subclasses fill in the five steps below."""

    name = ""
    tail_pct = 90  # fixed per workload, so the tail compares across commits
    trace_items = 0  # fixed-size block of the traced run

    def __init__(self, seed: int, workdir: Path | None):
        self.seed = seed
        self.workdir = workdir
        self.cli = None
        if workdir is not None:
            workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Import ``tnngrass`` and do the workload's set-up (this is ``setup_s``)."""
        import tnngrass.cli

        self.cli = tnngrass.cli

    def make_input(self, i: int):
        """Inputs of item ``i``, made from the seed (untimed)."""
        raise NotImplementedError

    def run(self, inp):
        """One timed item."""
        raise NotImplementedError

    def check(self, inp, out) -> tuple[bool, bytes]:
        """Independent check of one output, plus the bytes that enter the digest."""
        raise NotImplementedError

    def finish(self) -> tuple[set[int], bool]:
        """End-of-run command: item indices it failed, and whether it succeeded."""
        return set(), True

    def counters(self) -> dict[str, int]:
        return {}


class Campaign(Workload):
    """``fiber-campaign`` trials at (k, m) = (3, 4), then ``report``.

    Every fourth trial zeroes one seeded column first, as ``--zero-col``
    does; its cell admits no nonzero displacement, so the sampler exhausts
    all of its shrinks.  A 25% share keeps the median inside the top-cell
    mode and the 95th percentile inside the proper-cell mode.

    The setup is the one ``fiber-campaign --seed 1`` draws, whatever the
    benchmark seed: the setup's kernel sets the rejection rate of every
    trial, so a setup drawn per seed would let one draw set a whole run.
    The benchmark seed drives the trials.
    """

    name = "campaign"
    tail_pct = 95
    trace_items = 300
    k, m = 3, 4
    n = k + m + 1
    proper_every = 4
    setup_seed = 1

    def setup(self) -> None:
        super().setup()
        cli = self.cli
        self.amp_setup = cli.random_positive_setup(
            cli.trial_rng(self.setup_seed, -1), self.k, self.m, self.n, NODE_LO, NODE_HI
        )
        self.stats = {"accepted": 0, "rejected": 0}
        self.degenerate = 0
        self.paths: dict[int, Path] = {}
        self.expected_cols = [list(c) for c in oracle.colex_subsets(self.n, self.k)]

    def make_input(self, t: int):
        if t % self.proper_every != self.proper_every - 1:
            return t, None
        return t, Random(f"campaign:{self.seed}:{t}").randint(1, self.n)

    def run(self, inp):
        t, zero_col = inp
        cli = self.cli
        rng = cli.trial_rng(self.seed, t)
        point = cli.random_top_cell_point(rng, self.k, self.n, NODE_LO, NODE_HI)
        if zero_col is None:
            cell = cli.PositroidCellSpec.top_cell(self.k, self.n)
        else:
            point = cli.TNNPoint.from_matrix(cli.zero_columns(point, cli.IndexSubset((zero_col,))))
            cell = cli.matroid_of(point)
        pair = cli.sample_fiber_partner(self.amp_setup, cell, point, rng, stats=self.stats)
        cert = cli.convexity_certificate(self.amp_setup, cell, pair.u, pair.v)
        if all(entry == 0 for entry in pair.x):
            self.degenerate += 1
        path = self.workdir / f"certificate_{t:05d}.json"
        cli.write_json(path, cert.to_json_dict())
        self.paths[t] = path
        return path, cert.verdict

    def check(self, inp, out):
        _, zero_col = inp
        path, verdict = out
        raw = path.read_bytes()
        obj = json.loads(raw)
        cols = [entry["cols"] for entry in obj["minors"]]
        nonbases = [c for c in self.expected_cols if zero_col in c]
        ok = verdict is True and obj["verdict"] is True
        # each colex subset exactly once, in colex order
        ok = ok and cols == self.expected_cols
        ok = ok and obj["cell"]["nonbases"] == nonbases
        for entry in obj["minors"]:
            alpha, beta = Fraction(entry["alpha"]), Fraction(entry["beta"])
            ok = ok and alpha >= 0 and alpha + beta >= 0
            if entry["cols"] in nonbases:
                ok = ok and alpha == 0 and beta == 0
        return ok, raw

    def finish(self):
        """``tnngrass report`` over every certificate; a FAIL line fails its trial."""
        order = sorted(self.paths)
        by_name = {str(self.paths[t]): t for t in order}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(["report", *(str(self.paths[t]) for t in order)])
        failed = set()
        for line in out.getvalue().splitlines():
            path, _, verdict = line.rpartition(": [")
            if not verdict.startswith("PASS"):
                failed.add(by_name.get(path, -1))
        return failed, rc == 0

    def counters(self):
        return {
            "fiber.accepted": self.stats["accepted"],
            "fiber.rejected": self.stats["rejected"],
            "fiber.degenerate_pairs": self.degenerate,
            "certificates": len(self.paths),
        }


class Image(Workload):
    """``z0`` once, then ``equivalence`` of seeded Vandermonde setups against it.

    Each item loads a setup file (re-running ``build_setup`` validation),
    builds the certificate ``Z' = C Z D`` and runs 10 transport spot
    checks; the run ends with one ``embed`` (d = 15).
    """

    name = "image"
    tail_pct = 95
    trace_items = 60
    k, m = 2, 4
    n = k + m + 1
    spot_checks = 10

    def setup(self) -> None:
        super().setup()
        self.z0 = self.cli.build_z0(self.k, self.m)

    def make_input(self, i: int):
        rng = Random(f"image:{self.seed}:{i}")
        nodes = sorted(Fraction(v, 64) for v in rng.sample(range(64, 641), self.n))
        z = [[x ** p for x in nodes] for p in range(self.k + self.m)]
        path = self.workdir / f"setup_{i:05d}.json"
        _write(path, {
            "k": self.k,
            "m": self.m,
            "n": self.n,
            "Z": oracle.matrix_json(z),
            "kernel": [oracle.to_string(x) for x in oracle.kernel_vector(z)],
            "allMinorsPositive": True,
        })
        return i, path, z

    def run(self, inp):
        i, path, _ = inp
        cli = self.cli
        setup_a = cli.load_setup(str(path))
        cert = cli.construct_equivalence(setup_a, self.z0)
        out = self.workdir / f"equivalence_{i:05d}.json"
        cli.write_json(out, cert.to_json_dict())
        rng = cli.trial_rng(self.seed, i)
        transports_ok = True
        for _ in range(self.spot_checks):
            point = cli.random_top_cell_point(rng, self.k, self.n, NODE_LO, NODE_HI)
            transports_ok = transports_ok and cli.equivalence_transport_check(cert, point)
        verdicts = [
            cert.z_prime == cert.c @ cert.z @ cert.d_matrix,
            cert.det_c > 0,
            all(x > 0 for x in cert.d_diag),
            transports_ok,
        ]
        return out, all(verdicts)

    def check(self, inp, out):
        _, _, z = inp
        path, verdict = out
        raw = path.read_bytes()
        obj = json.loads(raw)
        c = oracle.parse_matrix(obj["C"])
        d = [Fraction(s) for s in obj["D_diag"]]
        z_prime = oracle.parse_matrix(obj["Zprime"])
        det_c = Fraction(obj["detC"])
        zd = [[x * dj for x, dj in zip(row, d)] for row in z]
        ok = (
            verdict
            and oracle.parse_matrix(obj["Z"]) == z
            and z_prime == [list(r) for r in self.z0.Z.row_tuples()]
            and all(x > 0 for x in d)
            and oracle.matmul(c, zd) == z_prime
            and oracle.det(c) == det_c
            and det_c > 0
        )
        return ok, raw

    def finish(self):
        """One ``embed`` of a seeded point through z0, from files as the CLI reads them."""
        cli = self.cli
        setup_path = self.workdir / "z0.json"
        point_path = self.workdir / "point.json"
        cli.write_json(setup_path, self.z0.to_json_dict())
        point = cli.random_top_cell_point(cli.trial_rng(self.seed, -1), self.k, self.n, NODE_LO, NODE_HI)
        cli.write_json(point_path, point.matrix.to_json_dict())
        projection = cli.embed_point(cli.load_setup(str(setup_path)), cli.load_matrix(str(point_path)))
        cli.write_json(self.workdir / "embedding.json", projection.entries.to_json_dict())
        p = [list(r) for r in projection.entries.row_tuples()]
        d = len(p)
        ok = (
            d == 15
            and all(p[i][j] == p[j][i] for i in range(d) for j in range(d))
            and sum(p[i][i] for i in range(d)) == 1
        )
        return set(), ok


class Wide(Workload):
    """``check-tnn`` on seeded 12 x 15 matrices parsed from JSON files.

    Even items are column-scaled Vandermonde matrices at integer nodes, so
    the verdict is true.  Odd items negate one seeded column, so the verdict
    is false and the first violation is the colex-first subset holding it.
    """

    name = "wide"
    tail_pct = 90
    trace_items = 60
    k, n = 12, 15

    def make_input(self, i: int):
        rng = Random(f"wide:{self.seed}:{i}")
        nodes = [Fraction(x) for x in sorted(rng.sample(range(1, 61), self.n))]
        scales = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(self.n)]
        negated = rng.randint(1, self.n) if i % 2 else None
        signs = [-1 if j + 1 == negated else 1 for j in range(self.n)]
        rows = [
            [g * s * x ** p for g, s, x in zip(signs, scales, nodes)] for p in range(self.k)
        ]
        path = self.workdir / f"matrix_{i:05d}.json"
        _write(path, oracle.matrix_json(rows))
        return path, nodes, scales, negated

    def run(self, inp):
        matrix = self.cli.load_matrix(str(inp[0]))
        return self.cli.check_tnn(matrix)

    def check(self, inp, out):
        _, nodes, scales, negated = inp
        report = out.to_json_dict()
        if negated is None:
            ok = report["isTNN"] is True and report["firstViolation"] is None
        else:
            first = next(c for c in oracle.colex_subsets(self.n, self.k) if negated in c)
            violation = report["firstViolation"] or {}
            ok = (
                report["isTNN"] is False
                and violation.get("cols") == list(first)
                and Fraction(violation.get("minor", "0"))
                == -oracle.vandermonde_minor(nodes, scales, first)
            )
        return ok, json.dumps(report, sort_keys=True).encode()


WORKLOADS = {w.name: w for w in (Campaign, Image, Wide)}


def child_setup(name: str, seed: int) -> None:
    """Set-up alone, as a fresh interpreter runs it to measure ``setup_s``."""
    WORKLOADS[name](seed, None).setup()
