"""Command-line front end: JSON in, certificates and reports out.

Exit codes: 0 when every verdict in the report is true, 1 when a verdict
is false, 2 for usage and input errors, 3 when an exactly-checked
invariant was falsified.  Certificate and report files are canonical
JSON, so identical inputs (including the seed) produce byte-identical
output files.  Set AMP_LOG=INFO or DEBUG for progress logging; a level
other than DEBUG, INFO, WARNING, ERROR or CRITICAL is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import logging
import operator
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from random import Random
from typing import Iterator, Mapping, Sequence

from .amplituhedron_map import (
    AmplituhedronSetup,
    build_setup,
    build_z0,
    hat_map,
)
from .embeddings import embed_point
# equivalence_transport_check is unused here; perfbench's image workload calls it on this module
from .equivalence import construct_equivalence, equivalence_transport_check
from .errors import ConstructionError, InternalConsistencyError, UserInputError
from .exact_linalg import (
    IndexSubset,
    RationalMatrix,
    all_maximal_minors,
    as_int,
    as_list,
    as_rational,
    capped_comb,
    det,
    rational_to_string,
)
from .fiber import convexity_certificate, sample_fiber_partner, segment_in_cell
from .tnn_grassmannian import (
    PositroidCellSpec,
    TNNPoint,
    check_tnn,
    in_closed_cell,
    matroid_of,
    sample_top_cell,
    zero_columns,
)

log = logging.getLogger("tnngrass")

EXIT_OK = 0
EXIT_FALSE_VERDICT = 1
EXIT_USAGE = 2
EXIT_FALSIFIED = 3

# the levels AMP_LOG may name, in any case; any other is a usage error
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


@dataclass(frozen=True)
class CampaignConfig:
    """Reproducible fiber-campaign parameters; same config, same bytes out."""

    seed: int
    trials: int
    k: int
    m: int
    node_lo: Fraction
    node_hi: Fraction
    zero_cols: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 0:
            raise UserInputError(f"need k >= 1 and m >= 0, got k={self.k}, m={self.m}")
        if self.trials < 1:
            raise UserInputError("trials must be >= 1")
        if self.node_lo <= 0 or self.node_hi <= self.node_lo:
            raise UserInputError("node range must satisfy 0 < lo < hi")

    @property
    def n(self) -> int:
        return self.k + self.m + 1

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "k": self.k,
            "m": self.m,
            "nodeRange": [rational_to_string(self.node_lo), rational_to_string(self.node_hi)],
            "zeroCols": list(self.zero_cols),
        }


@dataclass
class Report:
    """Named verdicts plus counters; the exit code is derived from it."""

    command: str
    inputs_digest: str
    verdicts: list[tuple[str, bool]]
    counters: dict[str, int] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return bool(self.verdicts) and all(ok for _, ok in self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "inputsDigest": self.inputs_digest,
            "verdicts": [{"name": name, "ok": ok} for name, ok in self.verdicts],
            "counters": dict(sorted(self.counters.items())),
            "artifacts": list(self.artifacts),
        }

    def print_human(self) -> None:
        print(f"command:  {self.command}")
        print(f"inputs:   sha256:{self.inputs_digest[:16]}...")
        for name, ok in self.verdicts:
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        for name, value in sorted(self.counters.items()):
            print(f"  {name} = {value}")
        for path in self.artifacts:
            print(f"  wrote {path}")


# -- JSON plumbing -----------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def digest_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj), encoding="utf-8")


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers past Python's digit limit; RecursionError deep nesting.
        raise UserInputError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise UserInputError(f"{path}: top-level JSON object expected")
    return obj


# what a missing field, a mistyped value or a failed validation raises
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


@contextlib.contextmanager
def _loaded(path: str, kind: str) -> Iterator[dict]:
    """The JSON object in ``path``; a malformed field read from it is an input error."""
    obj = load_json(path)
    try:
        yield obj
    except _MALFORMED as exc:
        raise UserInputError(f"{path}: not a valid {kind} file: {exc}") from exc


def load_matrix(path: str) -> RationalMatrix:
    with _loaded(path, "matrix") as obj:
        return RationalMatrix.from_json_dict(obj)


def load_cell(path: str) -> PositroidCellSpec:
    with _loaded(path, "cell") as obj:
        return PositroidCellSpec.from_json_dict(obj)


def load_setup(path: str) -> AmplituhedronSetup:
    """Rebuild a setup from file, re-running all exact validation."""
    with _loaded(path, "setup") as obj:
        z = RationalMatrix.from_json_dict(obj["Z"])
        if "n" in obj and as_int(obj["n"]) != z.cols:
            raise UserInputError(f"{path}: stated n = {obj['n']} does not match the {z.cols} columns of Z")
        setup = build_setup(as_int(obj["k"]), as_int(obj["m"]), z)
        stored_kernel = obj.get("kernel")
        stated = None if stored_kernel is None else tuple(map(as_rational, as_list(stored_kernel)))
        positive = _flag(obj["allMinorsPositive"]) if "allMinorsPositive" in obj else None
    if stated is not None:
        if setup.kernel_gen is None or stated != setup.kernel_gen:
            raise UserInputError(f"{path}: stored kernel does not match the matrix")
    if positive is not None and positive != setup.all_minors_positive:
        raise UserInputError(f"{path}: stored positivity flag does not match the matrix")
    return setup


# -- deterministic sampling helpers ------------------------------------------


def trial_rng(seed: int, trial: int) -> Random:
    return Random(seed * 1_000_003 + trial + 1)


def draw_nodes(rng: Random, count: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Distinct increasing rationals in [lo, hi] on a fixed 64-step grid, drawn as indices."""
    step = (hi - lo) / 64
    return [lo + step * j for j in _grid_indices(rng, count, lo, hi)]


def _grid_indices(rng: Random, count: int, lo: Fraction, hi: Fraction) -> list[int]:
    """Distinct increasing j in 0..64, for the grid nodes lo + j (hi - lo) / 64."""
    if count > 65:
        raise UserInputError(f"cannot draw {count} distinct nodes from a 65-point grid")
    if hi <= lo:
        raise UserInputError(f"node range needs lo < hi, got [{lo}, {hi}]")
    picks: set[int] = set()
    while len(picks) < count:
        picks.add(rng.randint(0, 64))
    return sorted(picks)


def random_positive_setup(
    rng: Random, k: int, m: int, n: int, lo: Fraction, hi: Fraction
) -> AmplituhedronSetup:
    """Setup whose Z is a Vandermonde matrix at random increasing nodes."""
    nodes = draw_nodes(rng, n, lo, hi)
    z = RationalMatrix([[x ** i for x in nodes] for i in range(k + m)])
    return build_setup(k, m, z)


def random_top_cell_point(
    rng: Random, k: int, n: int, lo: Fraction, hi: Fraction
) -> TNNPoint:
    """Random totally positive representative: scaled Vandermonde columns.

    Positive column scales keep every maximal minor strictly positive,
    so the point stays in the top cell while varying more than the nodes
    alone allow (for k = 1 the bare Vandermonde row is constant).  On
    integers: with lo = a / L, hi = b / L, grid node j is t / (64 L) for
    t = 64 a + j (b - a), and scale p / q is (p Q / q) / Q, Q the scales' lcm.
    """
    indices = _grid_indices(rng, n, lo, hi)
    scales = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n)]
    base = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (base // lo.denominator), hi.numerator * (base // hi.denominator)
    nodes = [64 * a + j * (b - a) for j in indices]
    den = lcm(*(q for _, q in scales))
    ints = [p * (den // q) for p, q in scales]
    rows = []
    for _ in range(k):
        rows.append((ints, den))
        ints, den = list(map(operator.mul, ints, nodes)), den * 64 * base
    return TNNPoint.from_matrix(RationalMatrix.from_int_rows(rows))


# -- subcommands --------------------------------------------------------------


def _emit(report: Report, out: str | Path | None, artifact: dict | None = None, **extra) -> int:
    """Write a command's output, print its report and return its exit code.

    With ``artifact``, that payload goes to ``out`` (listed in the report)
    or else to stdout.  Without one, ``out`` receives the report itself
    plus any ``extra`` fields.
    """
    if artifact is not None:
        if out:
            write_json(Path(out), artifact)
            report.artifacts.append(str(out))
        else:
            sys.stdout.write(canonical_json(artifact))
    elif out:
        write_json(Path(out), {**report.to_json_dict(), **extra})
    report.print_human()
    return EXIT_OK if report.all_ok else EXIT_FALSE_VERDICT


def cmd_check_tnn(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    result = check_tnn(matrix)
    report = Report(
        command="check-tnn",
        inputs_digest=digest_of(matrix.to_json_dict()),
        verdicts=[("totally_nonnegative", result.is_tnn)],
        counters={"rows": matrix.rows, "cols": matrix.cols},
    )
    if result.first_violation is not None:
        subset, value = result.first_violation
        print(
            f"violation: minor on columns {list(subset.members)} = {rational_to_string(value)}"
        )
    return _emit(report, args.out, tnnReport=result.to_json_dict())


def cmd_cell_member(args: argparse.Namespace) -> int:
    matrix = load_matrix(args.matrix)
    cell = load_cell(args.cell)
    member = in_closed_cell(matrix, cell)
    report = Report(
        command="cell-member",
        inputs_digest=digest_of([matrix.to_json_dict(), cell.to_json_dict()]),
        verdicts=[("in_closed_cell", member)],
    )
    return _emit(report, args.out)


def cmd_sample(args: argparse.Namespace) -> int:
    # a range, so an oversized request is refused before any node is built
    nodes = args.nodes or range(1, args.n + 1)
    point = sample_top_cell(args.k, args.n, nodes)
    report = Report(
        command="sample",
        inputs_digest=digest_of({"k": args.k, "n": args.n, "nodes": [rational_to_string(x) for x in nodes]}),
        verdicts=[("sampled_point_totally_positive", min(point.minors.ints) > 0)],
    )
    return _emit(report, args.out, point.matrix.to_json_dict())


def cmd_map(args: argparse.Namespace) -> int:
    setup = load_setup(args.setup)
    matrix = load_matrix(args.matrix)
    mapped = hat_map(setup, matrix)
    report = Report(
        command="map",
        inputs_digest=digest_of([setup.to_json_dict(), matrix.to_json_dict()]),
        verdicts=[("image_rank_full", mapped.image_rank == setup.k)],
        counters={"imageRank": mapped.image_rank, "sourceRank": mapped.source_rank},
    )
    return _emit(report, args.out, mapped.to_json_dict())


def cmd_fiber_check(args: argparse.Namespace) -> int:
    setup = load_setup(args.setup)
    u = load_matrix(args.u)
    v = load_matrix(args.v)
    cell = load_cell(args.cell) if args.cell else PositroidCellSpec.top_cell(setup.k, setup.n)
    cert = convexity_certificate(setup, cell, u, v)
    report = Report(
        command="fiber-check",
        inputs_digest=digest_of(
            [setup.to_json_dict(), u.to_json_dict(), v.to_json_dict(), cell.to_json_dict()]
        ),
        verdicts=[("convexity_certificate_valid", cert.verdict)],
    )
    rc = _emit(report, args.out, cert.to_json_dict())
    if not cert.verdict:
        raise InternalConsistencyError(
            "convexity certificate verdict is false for same-cell, same-fiber inputs"
        )
    return rc


def cmd_fiber_campaign(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        seed=args.seed,
        trials=args.trials,
        k=args.k,
        m=args.m,
        node_lo=args.node_lo,
        node_hi=args.node_hi,
        zero_cols=tuple(sorted(set(args.zero_col or []))),
    )
    out_dir = Path(args.out_dir) if args.out_dir else None
    setup_rng = trial_rng(config.seed, -1)
    setup = random_positive_setup(
        setup_rng, config.k, config.m, config.n, config.node_lo, config.node_hi
    )
    artifacts: list[str] = []
    counters = {
        "trials": config.trials,
        "nontrivial_pairs": 0,
        "degenerate_pairs": 0,
        "accepted": 0,
    }
    for t in range(config.trials):
        rng = trial_rng(config.seed, t)
        point = random_top_cell_point(rng, config.k, config.n, config.node_lo, config.node_hi)
        if config.zero_cols:
            zeroed = zero_columns(point, IndexSubset(config.zero_cols))
            point = TNNPoint.from_matrix(zeroed)
            cell = matroid_of(point)
        else:
            cell = PositroidCellSpec.top_cell(config.k, config.n)
        pair = sample_fiber_partner(setup, cell, point, rng, stats=counters)
        cert = convexity_certificate(setup, cell, pair.u, pair.v)
        if any(entry != 0 for entry in pair.x):
            counters["nontrivial_pairs"] += 1
        else:
            counters["degenerate_pairs"] += 1
        if out_dir is not None:
            name = f"certificate_{t:05d}.json"
            write_json(out_dir / name, cert.to_json_dict())
            # recorded relative to out_dir so identical configs give
            # byte-identical reports regardless of where they are written
            artifacts.append(name)
        if not cert.verdict:
            raise InternalConsistencyError(f"trial {t}: convexity certificate verdict false")
        if (t + 1) % 100 == 0:
            log.info("fiber campaign: %d/%d trials done", t + 1, config.trials)
    report = Report(
        command="fiber-campaign",
        inputs_digest=digest_of(config.to_json_dict()),
        # a false certificate verdict raised inside the loop
        verdicts=[("all_certificates_valid", True)],
        counters=counters,
        artifacts=artifacts,
    )
    if out_dir is None:
        return _emit(report, None)
    print(f"artifacts in {out_dir}")
    return _emit(report, out_dir / "report.json")


def cmd_z0(args: argparse.Namespace) -> int:
    setup = build_z0(args.k, args.m, precision_digits=args.precision)
    report = Report(
        command="z0",
        inputs_digest=digest_of({"k": args.k, "m": args.m, "precision": args.precision}),
        verdicts=[
            ("all_minors_positive", setup.all_minors_positive),
            ("kernel_sign_alternating", bool(setup.kernel_alternating)),
        ],
    )
    return _emit(report, args.out, setup.to_json_dict())


def cmd_embed(args: argparse.Namespace) -> int:
    setup = load_setup(args.setup)
    matrix = load_matrix(args.matrix)
    projection = embed_point(setup, matrix)
    report = Report(
        command="embed",
        inputs_digest=digest_of([setup.to_json_dict(), matrix.to_json_dict()]),
        verdicts=[("embedding_computed", True)],
        counters={"d": projection.entries.rows},
    )
    return _emit(report, args.out, projection.entries.to_json_dict())


def cmd_equivalence(args: argparse.Namespace) -> int:
    setup_a = load_setup(args.setup_a)
    setup_b = load_setup(args.setup_b)
    cert = construct_equivalence(setup_a, setup_b)
    report = Report(
        command="equivalence",
        inputs_digest=digest_of([setup_a.to_json_dict(), setup_b.to_json_dict()]),
        verdicts=[
            ("certificate_exact", cert.exact),
            ("det_C_positive", cert.det_c > 0),
            ("D_diagonal_positive", cert.d_positive),
        ],
    )
    return _emit(report, args.out, cert.to_json_dict())


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"true or false expected, got {value!r}")
    return value


def _stored_verdicts(obj: Mapping) -> list[tuple[str, bool]]:
    stored = [(v["name"], _flag(v["ok"])) for v in as_list(obj["verdicts"])]
    # A file that lists no verdict shows nothing, so it fails instead of passing vacuously.
    return stored or [("lists_a_verdict", False)]


def _recheck_fiber_certificate(obj: Mapping) -> list[tuple[str, bool]]:
    """Recompute a stored convexity verdict from its own coefficients."""
    cell = PositroidCellSpec.from_json_dict(obj["cell"])
    supported = True
    listed = []
    for entry in as_list(obj["minors"]):
        alpha = as_rational(entry["alpha"])
        beta = as_rational(entry["beta"])
        subset = IndexSubset(tuple(as_list(entry["cols"])))
        listed.append(subset.members)
        if not segment_in_cell(alpha, beta, subset in cell.nonbases):
            supported = False
    # The count is compared first, with a capped C(n, k), so a forged
    # (n, k) costs neither a huge binomial nor an enumeration larger than
    # the certificate itself.
    count = len(listed)
    covered = capped_comb(cell.n, cell.k, count) == count and set(listed) == set(
        itertools.combinations(range(1, cell.n + 1), cell.k)
    )
    stored = _flag(obj["verdict"])
    return [
        ("verdict", stored),
        ("lists_every_subset_once", covered),
        ("coefficients_support_verdict", supported == stored),
    ]


def _recheck_equivalence_certificate(obj: Mapping) -> list[tuple[str, bool]]:
    """Re-verify the identity Z' = C Z D of a stored certificate exactly.

    The identity relates two setups only if both are positive setups of
    one shape r x (r + 1), so every maximal minor of Z and Z' is checked
    positive too.
    """
    z = RationalMatrix.from_json_dict(obj["Z"])
    z_prime = RationalMatrix.from_json_dict(obj["Zprime"])
    c = RationalMatrix.from_json_dict(obj["C"])
    d_diag = [as_rational(s) for s in as_list(obj["D_diag"])]
    det_c = as_rational(obj["detC"])
    verdicts = [
        ("identity_exact", c @ z.scale_columns(d_diag) == z_prime),
        ("det_C_matches", det(c) == det_c),
        ("det_C_positive", det_c > 0),
        ("D_diagonal_positive", all(x > 0 for x in d_diag)),
    ]
    shaped = z.cols == z.rows + 1 and (z_prime.rows, z_prime.cols) == (z.rows, z.cols)
    positive = shaped and all(min(all_maximal_minors(m).ints) > 0 for m in (z, z_prime))
    return [*verdicts, ("setups_positive_corank_one", positive)]


def _report_file(path: str, listed: bool = False) -> bool:
    """Print the re-checked verdicts of one file; whether all of them hold.

    A report file's artifacts are re-checked as well, each found relative
    to the report's directory.  A listed artifact that is missing, or is
    itself a report file, fails, so the check never recurses.
    """
    obj = load_json(path)
    is_report = "verdicts" in obj
    if is_report and listed:
        print(f"{path}: [FAIL] artifact_is_certificate")
        return False
    if is_report:
        recheck = _stored_verdicts
    elif "minors" in obj and "verdict" in obj:
        recheck = _recheck_fiber_certificate
    elif "detC" in obj:
        recheck = _recheck_equivalence_certificate
    else:
        raise UserInputError(f"{path}: no verdicts found")
    try:
        verdicts = recheck(obj)
        artifacts = as_list(obj.get("artifacts", [])) if is_report else []
        if not all(isinstance(name, str) for name in artifacts):
            raise TypeError("artifact names must be strings")
    except _MALFORMED as exc:
        raise UserInputError(f"{path}: missing or mistyped field: {exc!r}") from exc
    all_ok = True
    for name, ok in verdicts:
        print(f"{path}: [{'PASS' if ok else 'FAIL'}] {name}")
        all_ok = all_ok and ok
    for name in artifacts:
        artifact = os.path.join(os.path.dirname(path), name)
        if os.path.isfile(artifact):
            ok = _report_file(artifact, listed=True)
        else:
            print(f"{artifact}: [FAIL] artifact_exists")
            ok = False
        all_ok = all_ok and ok
    return all_ok


def cmd_report(args: argparse.Namespace) -> int:
    all_ok = True
    for path in args.files:
        all_ok = _report_file(path) and all_ok
    return EXIT_OK if all_ok else EXIT_FALSE_VERDICT


# -- parser -------------------------------------------------------------------


def _rational_list(text: str) -> list[Fraction]:
    return [as_rational(tok) for tok in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnngrass",
        description="Exact computations with totally nonnegative Grassmannians and their images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-tnn", help="test all maximal minors for nonnegativity")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_tnn)

    p = sub.add_parser("cell-member", help="closed-cell membership of a representative")
    p.add_argument("matrix")
    p.add_argument("cell")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cell_member)

    p = sub.add_parser("sample", help="write a totally positive Vandermonde representative")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nodes", type=_rational_list, help="comma-separated rationals, default 1..n")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("map", help="apply V -> V Z^T to a representative")
    p.add_argument("setup")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("fiber-check", help="convexity certificate for two same-fiber points")
    p.add_argument("setup")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--cell")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fiber_check)

    p = sub.add_parser("fiber-campaign", help="seeded batch of convexity certificates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--node-lo", type=as_rational, default="1")
    p.add_argument("--node-hi", type=as_rational, default="10")
    p.add_argument("--zero-col", type=int, action="append", help="column to zero (repeatable)")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_fiber_campaign)

    p = sub.add_parser("z0", help="cyclically symmetric setup, exactly verified")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--precision", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_z0)

    p = sub.add_parser("embed", help="projection-matrix embedding of a mapped point")
    p.add_argument("setup")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("equivalence", help="projective equivalence certificate of two setups")
    p.add_argument("setup_a")
    p.add_argument("setup_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("report", help="summarize verdicts of report or certificate files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("AMP_LOG", "WARNING")
    if level.upper() not in _LOG_LEVELS:
        print(f"error: AMP_LOG must be one of {', '.join(_LOG_LEVELS)}, got {level[:40]!r}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UserInputError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        print(
            "An exactly-checked identity that is mathematically guaranteed came out false.",
            file=sys.stderr,
        )
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
