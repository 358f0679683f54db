"""Command-line interface.

Subcommands: vertices, simulate, witness, bounds, optimize, decompose,
realize.  Every run is deterministic given its flags; all randomness flows
from --seed (default 1729).  Exit codes are a stable scripting contract:
0 success, 1 parameter out of range, an --out file that cannot be written
(one line, error: cannot write <path>: <reason>) or another library error,
2 size cap exceeded (vertices: vertex count above --cap, with --out or
--classify its count * n_contexts outcomes above errors.MAX_VERTEX_ENTRIES;
vertices --classify: the relabeling group's S! * (R!)^S elements, simulate:
behavior table or last step, R^L * (d + 1) on diagonals or R^L * K * d^2,
realize: Kraus entries, bounds: profile table, optimize: the restarts'
initial simplices of 6 * 5 entries each (over 34,952 restarts) or one row of
the functional's per-term table, each above errors.MAX_TABLE_ENTRIES; every
check runs before the allocation it guards), 3 schema violation,
or an input file that is missing, unreadable or not JSON, 4 behavior not
in the polytope, 5 outside the implemented scope (sequence length != 2),
64 usage error.

Arguments are parsed before numpy loads, so --help and usage errors never
load it.  bounds --which C1 and C3 never load it either: they run on the
standard-library module tempocorr.bounds alone, in about 70 and 77 ms of
process CPU (2 cores, Python 3.11, each module compiled as it loads), where
loading numpy and witness cost 170 and 185 ms.  Every other command loads
numpy (witness: about 190 ms of process CPU), and then runs with one
OpenBLAS thread: each further thread spins on the CPU as numpy loads, and
only the largest systems gain a little wall time from it.  A value of
OPENBLAS_NUM_THREADS set in the environment wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    NotAMember,
    SchemaError,
    TableTooLarge,
    TempocorrError,
    TooManyVertices,
    UnsupportedLength,
    exceeds_table_budget,
)

EXIT_OK = 0
EXIT_CAP = 2
EXIT_SCHEMA = 3
EXIT_MEMBERSHIP = 4
EXIT_SCOPE = 5
EXIT_USAGE = 64


def _fmt(v: float) -> str:
    return f"{v:.12g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write(path: str | None, text) -> None:
    """Write ``text``, a string or an iterable of strings written in turn,
    to ``path``, or to stdout when it is None or "-"."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w") as f:
            f.writelines(chunks)
    except OSError as exc:  # a directory, a missing parent, no permission
        raise TempocorrError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SchemaError(path, "file not found") from None
    except OSError as exc:  # a directory, no permission
        raise SchemaError(path, f"cannot read: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON, nested too deep, too many digits
        raise SchemaError(path, f"invalid JSON: {exc}") from None


# --- subcommands -----------------------------------------------------------------

def cmd_vertices(args) -> int:
    from . import correlations, serialize

    cap = correlations.DEFAULT_VERTEX_CAP if args.cap is None else args.cap
    scenario = correlations.Scenario(args.L, args.R, args.S)
    count = correlations.count_vertices(scenario)
    shown = correlations.vertex_count_text(scenario)
    if count > cap:
        raise TooManyVertices(count, cap, shown)
    # every size check runs before the first line is printed; the summary needs only the count
    classes = correlations.classify_vertices(scenario, cap=cap) if args.classify else None
    outcomes = correlations.enumerate_vertices(scenario, cap=cap) if args.out else None
    print(f"scenario (L={args.L}, R={args.R}, S={args.S}): {shown} vertices")
    if classes is not None:
        sizes = sorted((len(o) for o in classes.orbits), reverse=True)
        print(f"{classes.n_orbits} relabeling classes (sizes {sizes})")
    if args.out:
        _write(args.out, serialize.vertices_text(scenario, outcomes, classes.orbits if classes else None))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import correlations, realize, serialize

    if args.system:
        sys_model = serialize.system_model_from_json(_load_json(args.system))
    else:
        protocols = realize.canonical_protocols()
        if args.protocol not in protocols:
            raise SchemaError(
                "protocol", f"unknown protocol {args.protocol!r}; known: {sorted(protocols)}"
            )
        sys_model = protocols[args.protocol]
    behavior = realize.full_behavior(sys_model, args.L)
    report = correlations.check_membership(behavior)
    print(f"simulated behavior: L={args.L}, R={behavior.scenario.R}, S={behavior.scenario.S}")
    print("membership check:", report.summary())
    if args.out:
        _write(args.out, serialize.dumps(serialize.behavior_to_json(behavior)))
        print(f"wrote {args.out}")
    return EXIT_OK


_BUILTIN_NAMES = ("B1", "B2", "B3", "B4")


def cmd_witness(args) -> int:
    from . import correlations, serialize, witness

    behavior = serialize.behavior_from_json(_load_json(args.behavior))
    correlations.require_member(behavior)

    if args.functional in _BUILTIN_NAMES:
        cert = witness.certify(behavior)
        entry = next(e for e in cert.entries if e.name == args.functional)
        if args.format == "json":
            payload = serialize.report_to_json(cert)
            payload["requested"] = args.functional
            text = serialize.dumps(payload)
        else:
            lines = [
                f"functional: {entry.name}",
                f"value: {_fmt(entry.value)}",
                f"bound: {_fmt(entry.bound)} ({entry.bound_kind})",
                f"verdict: {entry.verdict}",
                f"epsilon lower bound: {_fmt(entry.epsilon_lower)} (cap {_fmt(entry.epsilon_cap)})",
                "",
                cert.to_text(),
            ]
            text = "\n".join(lines) + "\n"
    else:
        functional = serialize.functional_from_json(_load_json(args.functional))
        value = witness.evaluate(functional, behavior)
        if args.format == "json":
            text = serialize.dumps({"functional": functional.name, "value": value})
        else:
            text = f"functional: {functional.name}\nvalue: {_fmt(value)}\n(no builtin bound for custom functionals)\n"
    _write(args.out, text)
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import bounds

    which = args.which
    if which == "C1":
        res = bounds.c1_bound()
        text = (
            f"C1 = {_fmt(res.value)}\n"
            f"projective-effect maximum = {_fmt(res.projective_maximum)}\n"
        )
        _write(args.out, text)
        return EXIT_OK
    if which == "C3":
        res = bounds.c3_bound()
        text = (
            f"C3 = {_fmt(res.value)}\n"
            f"cos_gamma* = {_fmt(res.cos_gamma_star)}\n"
            f"certified: {res.certified}\n"
            f"polynomial roots in [-1,1]: {', '.join(_fmt(r) for r in res.polynomial_roots)}\n"
        )
        _write(args.out, text)
        return EXIT_OK

    import numpy as np

    from . import witness

    n = args.grid
    if n < 2:
        raise SchemaError("grid", f"profiles need --grid >= 2, got {n}")
    entries = n * n if which == "B4envelope" else n
    if exceeds_table_budget(entries):
        what = f"a {which} table of {entries} entries (--grid {n})"
        raise TableTooLarge(what)
    xs = np.linspace(-1.0, 1.0, n)
    profiles = {"B1profile": witness.b1_projective_profile, "B3profile": witness.b3_profile}
    if which in profiles:
        ys = np.empty(n)
        for i in range(0, n, _PROFILE_BLOCK):
            ys[i : i + _PROFILE_BLOCK] = profiles[which](xs[i : i + _PROFILE_BLOCK])
        print(f"max = {_fmt(ys.max())} at cos_gamma = {_fmt(xs[int(ys.argmax())])}")
        text = _profile_rows(xs, ys)
    else:  # B4envelope: evaluated and written one p-row at a time, so neither
        # the envelope's temporaries nor the text ever span the n x n table
        ps = np.linspace(0.0, 1.0, n)
        grid = np.empty((n, n))
        for i, p in enumerate(ps.tolist()):
            grid[i] = witness.b4_envelope(p, xs)
        k = int(grid.argmax())
        print(
            f"max = {_fmt(grid.max())} at p = {_fmt(ps[k // n])}, "
            f"cos_gamma = {_fmt(xs[k % n])}"
        )
        text = _envelope_rows(ps, xs, grid)
    _write(args.out, text)
    return EXIT_OK


_PROFILE_BLOCK = 4096  # rows of B1profile/B3profile evaluated, and written as text, at once


def _profile_rows(xs, ys):
    """The B1profile/B3profile CSV, one block of rows at a time."""
    yield "cos_gamma,value\n"
    for i in range(0, len(xs), _PROFILE_BLOCK):
        block = zip(xs[i : i + _PROFILE_BLOCK].tolist(), ys[i : i + _PROFILE_BLOCK].tolist())
        yield "".join([f"{_fmt(x)},{_fmt(y)}\n" for x, y in block])


def _envelope_rows(ps, xs, grid):
    """The B4envelope CSV, one block of text per p; each distinct p and
    cos_gamma is formatted once, not once per cell."""
    yield "p,cos_gamma,value\n"
    xs_text = [_fmt(x) for x in xs.tolist()]
    for p, values in zip(ps.tolist(), grid):
        p_text = _fmt(p) + ","
        yield "".join([f"{p_text}{x},{_fmt(v)}\n" for x, v in zip(xs_text, values.tolist())])


def cmd_optimize(args) -> int:
    from . import serialize, witness

    functionals = witness.builtin_functionals()
    if args.functional in functionals:
        functional = functionals[args.functional]
    else:
        functional = serialize.functional_from_json(_load_json(args.functional))
    cfg = witness.OptimizerConfig(
        restarts=args.restarts,
        seed=witness.DEFAULT_SEED if args.seed is None else args.seed,
        max_iterations=args.iterations,
    )
    result = witness.optimize_qubit(functional, cfg)
    print(f"best value: {_fmt(result.value)} (restart {result.restart_index})")
    payload = {
        "functional": functional.name,
        "value": result.value,
        "restart_index": result.restart_index,
        "config": {
            "restarts": cfg.restarts,
            "seed": cfg.seed,
            "max_iterations": cfg.max_iterations,
        },
        "strategy": serialize.strategy_to_json(result.strategy),
    }
    if args.out:
        _write(args.out, serialize.dumps(payload))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    import numpy as np

    from . import correlations, serialize

    behavior = serialize.behavior_from_json(_load_json(args.behavior))
    decomp = correlations.decompose_behavior(behavior)
    recon = correlations.mixture_behavior(decomp)
    dev = float(np.max(np.abs(recon.table - behavior.table)))
    print(f"{len(decomp.weights)} vertices, reconstruction max deviation {dev:.3e}")
    if args.out:
        _write(args.out, serialize.dumps(serialize.decomposition_to_json(decomp)))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_realize(args) -> int:
    import numpy as np

    from . import correlations, realize, serialize

    if args.L != 2:
        raise UnsupportedLength(f"realization is implemented for L=2 only, got L={args.L}")
    if args.decomposition:
        decomp = serialize.decomposition_from_json(_load_json(args.decomposition))
        system = realize.mixture_realization(decomp)
        target = correlations.mixture_behavior(decomp)
    else:
        scenario = correlations.Scenario(2, args.R, args.S)
        if args.vertex in correlations.QUBIT_UNREACHABLE_UNIT_ENTRIES:
            if scenario != correlations.Scenario(2, 2, 2):
                raise SchemaError("vertex", f"named vertex {args.vertex} lives in (2,2,2)")
            vertex = correlations.named_vertex(args.vertex)
        else:
            try:
                index = int(args.vertex)
            except ValueError:
                raise SchemaError(
                    "vertex", f"expected e1..e4 or an enumeration index, got {args.vertex!r}"
                ) from None
            if not 0 <= index < correlations.count_vertices(scenario):
                last = correlations.vertex_count_text(scenario, -1)
                raise SchemaError("vertex", f"index {index} outside 0..{last}")
            vertex = correlations.DeterministicVertex.from_index(scenario, index)
        system = realize.qutrit_vertex_realization(vertex)
        target = correlations.vertex_behavior(vertex)

    resim = realize.full_behavior(system, 2)
    dev = float(np.max(np.abs(resim.table - target.table)))
    print(f"system dimension {system.dim}; re-simulation max deviation {dev:.3e}")
    if args.out:
        _write(args.out, serialize.dumps(serialize.system_model_to_json(system)))
        print(f"wrote {args.out}")
    return EXIT_OK


# --- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tempocorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vertices", help="enumerate and classify polytope vertices")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--classify", action="store_true", help="partition into relabeling orbits")
    p.add_argument("--cap", type=int)
    p.add_argument("--out", help="write vertex list JSON here")
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("simulate", help="simulate a system model into a behavior")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--system", help="SystemModel JSON file")
    src.add_argument("--protocol", help="canonical protocol name (e.g. qutrit-e1)")
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--out", help="write behavior JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("witness", help="evaluate a witness on a behavior")
    p.add_argument("--behavior", required=True)
    p.add_argument("--functional", default="B1", help="B1..B4 or a functional JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bounds", help="qubit bounds and closed-form profiles")
    p.add_argument(
        "--which",
        required=True,
        choices=("C1", "C3", "B1profile", "B3profile", "B4envelope"),
    )
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--out", help="write profile CSV / bound text here")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("optimize", help="search qubit strategies for a witness")
    p.add_argument("--functional", default="B1", help="B1..B4 or a functional JSON file")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int)
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--out", help="write best value and strategy JSON here")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("decompose", help="decompose a behavior into vertices")
    p.add_argument("--behavior", required=True)
    p.add_argument("--out", help="write decomposition JSON here")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("realize", help="build a quantum system for a vertex or mixture")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--vertex", help="e1..e4 or an enumeration index")
    src.add_argument("--decomposition", help="ConvexDecomposition JSON file")
    p.add_argument("--R", type=int, default=2)
    p.add_argument("--S", type=int, default=2)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--out", help="write SystemModel JSON here")
    p.set_defaults(func=cmd_realize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "numpy" not in sys.modules:
        # OpenBLAS reads this once, as numpy loads, and starts that many
        # threads, each spinning for about 0.1 s of CPU; the commands'
        # matrix products are too small to gain much from them
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return args.func(args)
    except TooManyVertices as exc:
        print(f"vertex count {exc.shown} exceeds the cap {exc.cap}", file=sys.stderr)
        return EXIT_CAP
    except TableTooLarge as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NotAMember as exc:
        print(f"membership error: {exc}", file=sys.stderr)
        return EXIT_MEMBERSHIP
    except UnsupportedLength as exc:
        print(f"scope error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except TempocorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
