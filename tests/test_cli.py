import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tempocorr import errors, realize
from tempocorr import serialize as se
from tempocorr.cli import main
from tempocorr.correlations import (
    ConvexDecomposition,
    DeterministicVertex,
    Scenario,
    compose_from_conditionals,
    decompose_behavior,
    named_vertex,
    random_conditional_chain,
    relabel_vertex,
    vertex_behavior,
)
from tempocorr.realize import canonical_protocols
from tempocorr.witness import builtin_functionals

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_process(*argv):
    """Run the CLI in a fresh interpreter; numpy warnings reach its stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "tempocorr.cli", *argv], capture_output=True, text=True, env=env
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVertices:
    def test_count_and_classes(self, capsys, tmp_path):
        out_file = tmp_path / "v.json"
        code, out, _ = run(
            capsys, "vertices", "--L", "2", "--R", "2", "--S", "2", "--classify",
            "--out", str(out_file),
        )
        assert code == 0
        assert "64 vertices" in out
        assert "10 relabeling classes" in out
        data = json.loads(out_file.read_text())
        assert data["count"] == 64
        assert len(data["vertices"]) == 64
        assert len(data["orbits"]) == 10

    def test_length_one(self, capsys):
        code, out, _ = run(capsys, "vertices", "--L", "1", "--R", "2", "--S", "2")
        assert code == 0 and "4 vertices" in out

    def test_length_three(self, capsys):
        code, out, _ = run(capsys, "vertices", "--L", "3", "--R", "2", "--S", "2")
        assert code == 0 and "16384 vertices" in out

    def test_eleven_settings_written(self, capsys, tmp_path):
        # one digit per setting still gives (1,2,11) distinct context keys
        out_file = tmp_path / "v.json"
        code, out, _ = run(capsys, "vertices", "--L", "1", "--R", "2", "--S", "11", "--out", str(out_file))
        assert code == 0 and "2048 vertices" in out
        data = json.loads(out_file.read_text())
        assert len(data["vertices"]) == 2048 and all(len(a) == 11 for a in data["vertices"])

    def test_cap_breach_exit_code(self, capsys):
        code, out, err = run(
            capsys, "vertices", "--L", "3", "--R", "3", "--S", "3", "--cap", "1000"
        )
        assert code == 2 and out == ""
        # the formula count is still printed
        assert err == "vertex count 4052555153018976267 exceeds the cap 1000\n"

    @pytest.mark.parametrize(
        "dims, digest",
        [
            ((2, 2, 2), "bc2eb301e01bc4654e039922aea1a9ddf68989ad06a82e0088a94acaf7f53fd9"),
            ((3, 2, 2), "f6c5a95385905389dd18cb0da8c7adf5b8b98e5ac2cdcfdad729c2bc8c2c7bd1"),
            ((2, 2, 3), "bbbcd74ca28ec160cef82176e958d26b39094d55e66b476441cf69237bc2bea7"),
            ((2, 3, 3), "0adec4bbcccc1b01fcf7fa82ca5649278ee3079f20d9b328bd250e18a9580a94"),
        ],
    )
    def test_out_file_pinned(self, capsys, tmp_path, dims, digest):
        # sha256 of the --out file, pinned so a byte drift between commits fails
        out_file = tmp_path / "v.json"
        flags = [f for name, n in zip(("--L", "--R", "--S"), dims) for f in (name, str(n))]
        code, out, _ = run(capsys, "vertices", *flags, "--out", str(out_file))
        assert code == 0 and out.endswith(f"wrote {out_file}\n")
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    def test_vertex_set_past_the_budget_exits_2_before_allocation(self, capsys, tmp_path):
        # 2^132 vertices fit under a cap of 10^50; their 132 outcomes each do not fit the budget
        out_file = tmp_path / "v.json"
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "vertices", "--L", "2", "--R", "2", "--S", "11", "--cap", str(10**50), "--out", str(out_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "") and not out_file.exists()
        assert err == (
            "size cap exceeded: a vertex set of 5444517870735015415413993718908291383296 * 132 outcomes"
            " exceeds the cap 16777216\n"
        )
        assert peak < 1 << 20

    @pytest.mark.parametrize("flags", [(), ("--out", "{out}")])
    def test_relabeling_group_past_the_budget_exits_2_at_once(self, capsys, tmp_path, flags):
        # 256 vertices, but 8! * 2^8 = 10,321,920 group elements
        out_file = tmp_path / "v.json"
        t0 = time.process_time()
        flags = [f.format(out=out_file) for f in flags]
        code, out, err = run(capsys, "vertices", "--L", "1", "--R", "2", "--S", "8", "--classify", *flags)
        assert time.process_time() - t0 < 1.0
        assert (code, out) == (2, "") and not out_file.exists()
        assert err == "size cap exceeded: a relabeling group of S! * (R!)^S = 8! * 2!^8 elements exceeds the cap 1048576\n"

    def test_summary_enumerates_nothing(self, capsys, monkeypatch):
        from tempocorr import correlations

        def refuse(*args, **kwargs):
            raise AssertionError("the summary enumerated the vertices")

        monkeypatch.setattr(correlations, "enumerate_vertices", refuse)
        code, out, err = run(capsys, "vertices", "--L", "2", "--R", "3", "--S", "3")
        assert (code, out, err) == (0, "scenario (L=2, R=3, S=3): 531441 vertices\n", "")

    def test_count_past_int_str_limit_exits_2(self):
        # (2,2,500) has 2^250500 vertices, about 75,000 decimal digits
        proc = run_process("vertices", "--L", "2", "--R", "2", "--S", "500")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "vertex count 2^250500 exceeds the cap 1000000\n"


class TestSimulateAndWitness:
    @pytest.mark.parametrize("length", ["20", "40", "1000000"])
    def test_table_size_cap_exit_code(self, capsys, length):
        code, out, err = run(capsys, "simulate", "--protocol", "qutrit-e1", "--L", length)
        assert code == 2 and out == ""
        assert f"size cap exceeded: a behavior table of S^L * R^L = 2^{length} * 2^{length}" in err

    def test_walk_size_cap_exit_code(self, capsys, tmp_path):
        # a table of 4^9 entries fits; the last step's 2^9 states of 64 x 64 do not
        from tempocorr.qmath import random_system_model

        system_file = tmp_path / "dim64.json"
        system_file.write_text(
            se.dumps(se.system_model_to_json(random_system_model(np.random.default_rng(52), 64, 2, 2)))
        )
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "simulate", "--system", str(system_file), "--L", "9")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == (
            "size cap exceeded: a simulation step of R^L * K * d^2 = 2^9 * 1 * 64^2 entries"
            " exceeds the cap 1048576\n"
        )
        assert peak < 8 * 2**20

    def test_oversized_system_file_exit_code(self, tmp_path):
        # a valid qubit system whose outcome 1 of setting 0 lists 65,537 zero
        # Kraus operators: S * R * K * d^2 = 1,048,592 entries, refused from the
        # list lengths before any of them is parsed
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        zero = data["instruments"][0]["kraus"][1][0]
        data["instruments"][0]["kraus"][1] = [zero] * 65537
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(data))
        proc = run_process("simulate", "--system", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "size cap exceeded: a system of S * R * K * d^2 = 2 * 2 * 65537 * 2^2 Kraus entries"
            " exceeds the cap 1048576"
        ]

    def test_qutrit_e1_pipeline(self, capsys, tmp_path):
        behavior_file = tmp_path / "e1.json"
        code, out, _ = run(
            capsys, "simulate", "--protocol", "qutrit-e1", "--L", "2",
            "--out", str(behavior_file),
        )
        assert code == 0 and "member" in out

        code, out, _ = run(
            capsys, "witness", "--behavior", str(behavior_file), "--functional", "B1"
        )
        assert code == 0
        assert "value: 4" in out
        assert "dimension > 2" in out
        assert "0.0833333333333" in out

    def test_b1_protocol_saturates(self, capsys, tmp_path):
        behavior_file = tmp_path / "b.json"
        run(capsys, "simulate", "--protocol", "qubit-B1-3", "--out", str(behavior_file))
        code, out, _ = run(capsys, "witness", "--behavior", str(behavior_file))
        assert code == 0
        assert "value: 3" in out
        assert "qubit-compatible" in out

    def test_unknown_protocol_is_schema_error(self, capsys):
        code, _out, err = run(capsys, "simulate", "--protocol", "nope")
        assert code == 3 and "unknown protocol" in err

    def test_random_system_file_simulates_to_member(self, capsys, tmp_path):
        from tempocorr.qmath import random_system_model

        rng = np.random.default_rng(51)
        system_file = tmp_path / "random-seeded.json"
        system_file.write_text(
            se.dumps(se.system_model_to_json(random_system_model(rng, 3, 2, 2)))
        )
        out_file = tmp_path / "b.json"
        code, out, _ = run(
            capsys, "simulate", "--system", str(system_file), "--L", "2", "--out", str(out_file)
        )
        assert code == 0
        assert "arrow-of-time constraints all hold" in out

    @pytest.mark.parametrize("n_settings", [10, 11])
    def test_settings_beyond_one_digit_refused_before_writing(self, capsys, tmp_path, n_settings):
        # the behavior table is keyed by one digit per setting
        from tempocorr.qmath import random_system_model

        model = random_system_model(np.random.default_rng(5), 2, n_settings, 2)
        system_file, out_file = tmp_path / "system.json", tmp_path / "b.json"
        system_file.write_text(se.dumps(se.system_model_to_json(model)))
        code, _out, err = run(capsys, "simulate", "--system", str(system_file), "--L", "1", "--out", str(out_file))
        if n_settings == 10:
            assert code == 0
            back = se.behavior_from_json(json.loads(out_file.read_text()))
            assert np.array_equal(back.table, realize.full_behavior(model, 1).table)
            assert run(capsys, "decompose", "--behavior", str(out_file))[0] == 0
        else:
            assert code == 3 and "schema error: S: " in err
            assert not out_file.exists()

    def test_non_member_behavior_rejected(self, capsys, tmp_path):
        table = np.zeros((4, 4))
        table[0, 0] = table[1, 3] = table[2, 0] = table[3, 0] = 1.0
        data = {
            "L": 2, "R": 2, "S": 2,
            "table": {f"{x}{y}": list(table[x * 2 + y]) for x in (0, 1) for y in (0, 1)},
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _out, err = run(capsys, "witness", "--behavior", str(bad))
        assert code == 4
        assert "arrow-of-time" in err

    def test_json_format(self, capsys, tmp_path):
        behavior_file = tmp_path / "e1.json"
        run(capsys, "simulate", "--protocol", "qutrit-e1", "--out", str(behavior_file))
        code, out, _ = run(
            capsys, "witness", "--behavior", str(behavior_file), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "dimension > 2"

    @pytest.mark.parametrize(
        "system, L, digest",
        [
            ("qubit-B1-3 realized", 4, "2a9f8f6364c0398be13952ca22875b98b32fa985574602aaf86c733c5904636e"),
            ("dim-33 realized", 3, "d593598ba18f835e46232ae2cc049cd917d75ddecaeeea9783d9b7f2e95fd2cd"),
            ("dense, 2-3 Kraus operators", 3, "cc6d4f2ffd1f9ca9d835777a4ec44e01db66294ece4962593f651b3a7c32f419"),
            ("qubit-B1-3", 3, "feb6c70830ea5869eabec2c4c44f0c7f40c4a4005a81eac14ad16455f7d6f20e"),
            ("qubit-B2-3", 3, "1c1c13272d2face07724edc88e7de68a17ed352ba58fb715b9293561cc04150d"),
            ("qutrit-e1", 3, "5409f0751d1bd059ff10027490ad6b4ca25899ba0b4323b89723a66933869852"),
            ("qutrit-e2", 3, "3f8f26a599ffdcadec453e761b847f396b98170ebac98fe1fe62f89f7fc11f2b"),
            ("qutrit-e3", 3, "c8b71fbb0f22bf7d7e269299be264e98e9f3b6f7b9e54d74984eed52e94d2706"),
            ("qutrit-e4", 3, "de41d2d10a8b3aedfe6ef78f58ca228436083c7e3d090a3c24880f062fbe78c5"),
        ],
    )
    def test_simulated_table_pinned(self, capsys, tmp_path, system, L, digest):
        # sha256 of simulate --system --out, or of simulate --protocol --out
        # for a canonical protocol, pinned so a byte drift between commits fails
        system_file, out_file = tmp_path / "s.json", tmp_path / "b.json"
        source = ["--system", str(system_file)]
        if system in canonical_protocols():
            source = ["--protocol", system]
        elif system == "dense, 2-3 Kraus operators":
            from tempocorr.qmath import SystemModel, random_density_matrix, random_instrument

            rng = np.random.default_rng(53)
            rho = random_density_matrix(rng, 3)
            model = SystemModel(rho, tuple(random_instrument(rng, 3, 2, k) for k in (2, 3, 2)))
            system_file.write_text(se.dumps(se.system_model_to_json(model)))
        else:
            behavior_file, decomp_file = tmp_path / "member.json", tmp_path / "d.json"
            if system == "qubit-B1-3 realized":
                run(capsys, "simulate", "--protocol", "qubit-B1-3", "--out", str(behavior_file))
            else:
                chain = random_conditional_chain(np.random.default_rng(0), Scenario(2, 2, 2))
                behavior_file.write_text(se.dumps(se.behavior_to_json(compose_from_conditionals(chain))))
            run(capsys, "decompose", "--behavior", str(behavior_file), "--out", str(decomp_file))
            run(capsys, "realize", "--decomposition", str(decomp_file), "--out", str(system_file))
        code, _out, _err = run(capsys, "simulate", *source, "--L", str(L), "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestBounds:
    def test_c3(self, capsys):
        code, out, _ = run(capsys, "bounds", "--which", "C3")
        assert code == 0
        assert out == (
            "C3 = 3.1862278837\n"
            "cos_gamma* = 0.756285203496\n"
            "certified: True\n"
            "polynomial roots in [-1,1]: -0.938190915236, -0.763634988313, -0.294062441822,"
            " -0.160164559019, 0.0189980954742, 0.756285203496\n"
        )

    def test_c1(self, capsys):
        code, out, _ = run(capsys, "bounds", "--which", "C1")
        assert code == 0
        assert "C1 = 3" in out and "2.91421356237" in out

    def test_profile_csv(self, capsys, tmp_path):
        out_file = tmp_path / "b1.csv"
        code, out, _ = run(
            capsys, "bounds", "--which", "B1profile", "--grid", "101", "--out", str(out_file)
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "cos_gamma,value"
        assert len(lines) == 102
        assert "max = 2.91421356237" in out

    @pytest.mark.parametrize(
        "which, max_line, digest",
        [
            ("B1profile", "max = 2.91421356237 at cos_gamma = 0", "2eea87b0523f8a9e4e305b26345159e332dbed9ca40fa84228c67342c1e1c641"),
            ("B3profile", "max = 3.1862154063 at cos_gamma = 0.76", "7dcdcd34b83b63eeacb51afb68c6ab006e6a2d5d5849a12aa6f5a3c42c948e41"),
        ],
    )
    def test_profile_csv_pinned(self, capsys, tmp_path, which, max_line, digest):
        # sha256 of the grid-101 table, pinned so a byte drift between commits fails
        out_file = tmp_path / "profile.csv"
        code, out, _ = run(capsys, "bounds", "--which", which, "--grid", "101", "--out", str(out_file))
        assert code == 0 and out == max_line + "\n"
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest
        code, out, _ = run(capsys, "bounds", "--which", which, "--grid", "101")
        assert code == 0 and out.startswith(max_line + "\n")
        assert hashlib.sha256(out[len(max_line) + 1 :].encode()).hexdigest() == digest

    def test_envelope_csv(self, capsys, tmp_path):
        out_file = tmp_path / "b4.csv"
        code, out, _ = run(
            capsys, "bounds", "--which", "B4envelope", "--grid", "41", "--out", str(out_file)
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "p,cos_gamma,value"
        assert len(lines) == 1 + 41 * 41
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(values) <= 2 + 2**0.5 + 1e-9

    def test_envelope_csv_pinned(self, capsys, tmp_path):
        # sha256 of the grid-101 table, pinned so a byte drift between commits fails
        out_file = tmp_path / "b4.csv"
        code, out, _ = run(capsys, "bounds", "--which", "B4envelope", "--grid", "101", "--out", str(out_file))
        assert code == 0 and out == "max = 3.1862154063 at p = 1, cos_gamma = 0.76\n"
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == "85fea0ec4ab6e005afe0a728664d4acc059abb74f06f676b85943cc8f89b5d65"

    def test_envelope_on_stdout_follows_the_max_line(self, capsys):
        code, out, _ = run(capsys, "bounds", "--which", "B4envelope", "--grid", "101")
        max_line = "max = 3.1862154063 at p = 1, cos_gamma = 0.76\n"
        assert code == 0 and out.startswith(max_line)
        digest = hashlib.sha256(out[len(max_line):].encode()).hexdigest()
        assert digest == "85fea0ec4ab6e005afe0a728664d4acc059abb74f06f676b85943cc8f89b5d65"

    def test_envelope_written_row_by_row(self, capsys, tmp_path):
        # the grid-1001 table is a 26 MB file; its 8 MB of values are the
        # largest thing held, where joining all rows first peaked at 137 MB
        out_file = tmp_path / "b4.csv"
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "bounds", "--which", "B4envelope", "--grid", "1001", "--out", str(out_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out == "max = 3.18622781067 at p = 1, cos_gamma = 0.756\n"
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == "df03b003526000181582f9a04d9d47f353f63cef21c9e64f4a4560f83bf16f01"
        assert peak < 16 * 2**20

    def test_profile_written_in_row_blocks(self, capsys, tmp_path):
        # the grid-2^20 table is a 31 MB file; the profile is evaluated and
        # written in row blocks, so the grid and its values, 8 MB each, are
        # the largest things held
        out_file = tmp_path / "profile.csv"
        for which, max_line, digest in (
            (
                "B3profile",
                "max = 3.1862278837 at cos_gamma = 0.75628448132\n",
                "85edf140c3b0292fbc705f9663b1f25866bbbb00c279f1005a3f108d68d1638b",
            ),
            (
                "B1profile",
                "max = 2.91421356237 at cos_gamma = -9.53675225901e-07\n",
                "848de5439ada47e3fb230840f543d05c1335ccb65da8413da84921b03a52be66",
            ),
        ):
            tracemalloc.start()
            try:
                code, out, _ = run(capsys, "bounds", "--which", which, "--grid", str(2**20), "--out", str(out_file))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and out == max_line
            assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest
            assert peak < 32 * 2**20

    @pytest.mark.parametrize(
        "which, grid, entries",
        [("B4envelope", "100000", 10**10), ("B3profile", "1000000000", 10**9), ("B1profile", "1048577", 2**20 + 1)],
    )
    def test_grid_above_budget_exits_2(self, capsys, which, grid, entries):
        code, out, err = run(capsys, "bounds", "--which", which, "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"size cap exceeded: a {which} table of {entries} entries (--grid {grid}) exceeds the cap {2**20}\n"

    def test_grid_budget_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 100)
        for which, fits in (("B4envelope", 10), ("B3profile", 100), ("B1profile", 100)):
            assert run(capsys, "bounds", "--which", which, "--grid", str(fits))[0] == 0
            assert run(capsys, "bounds", "--which", which, "--grid", str(fits + 1))[0] == 2

    def test_grid_below_two_still_schema_error(self, capsys):
        code, _out, err = run(capsys, "bounds", "--which", "B4envelope", "--grid", "1")
        assert code == 3 and "--grid >= 2" in err


class TestOptimize:
    def test_deterministic_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["optimize", "--functional", "B1", "--restarts", "8", "--seed", "7"]
        code1, out1, _ = run(capsys, *args, "--out", str(f1))
        code2, out2, _ = run(capsys, *args, "--out", str(f2))
        assert code1 == code2 == 0
        assert out1.replace(str(f1), "") == out2.replace(str(f2), "")
        assert f1.read_bytes() == f2.read_bytes()

    def test_output_reusable(self, capsys, tmp_path):
        out_file = tmp_path / "opt.json"
        code, _out, _ = run(
            capsys, "optimize", "--functional", "B3", "--restarts", "8", "--seed", "7",
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        strategy = se.strategy_from_json(payload["strategy"])
        from tempocorr.witness import builtin_functionals, strategy_value

        assert strategy_value(builtin_functionals()["B3"], strategy) == pytest.approx(
            payload["value"], abs=1e-9
        )

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("B1", "79626def10867dedbfc887e32b75ce3252addd818527d640fce1aec9afa86f5a"),
            ("B2", "b604b2e337b4d3afa73f44626c2b74cb69e104f6d6edb72595c3bff3661d8e22"),
            ("B3", "e459df95244f849201e86f869c797944bf6dd620ee89a96dea91a42411e67df0"),
            ("B4", "26facdabfc0d161aaba7b9accf269b5eba6b127cd404869f9ca8a9dee492dd00"),
        ],
    )
    def test_out_file_pinned(self, capsys, tmp_path, name, digest):
        # sha256 of the --out file, pinned so a byte drift between commits fails
        out_file = tmp_path / "best.json"
        args = ["optimize", "--functional", name, "--restarts", "20", "--seed", "7", "--out", str(out_file)]
        assert run(capsys, *args)[0] == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("scale, printed", [(1e-20, "3.1862278837e-20"), (1e200, "3.1862278837e+200")])
    def test_scaled_functional_reaches_c3(self, capsys, tmp_path, scale, printed):
        # B3 times 1e-20 or 1e200: the search runs at unit scale, warns
        # nothing and reaches scale * C3
        path = tmp_path / "f.json"
        terms = [{"a": a, "x": x, "coeff": scale} for a, x in (("01", "00"), ("00", "11"), ("01", "01"), ("01", "10"))]
        path.write_text(json.dumps({"L": 2, "R": 2, "S": 2, "name": "B3 scaled", "terms": terms}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "optimize", "--functional", str(path), "--restarts", "20", "--seed", "7")
        assert (code, err) == (0, "")
        assert out.startswith(f"best value: {printed} (restart ")

    def test_negative_iterations_rejected(self, capsys):
        code, _out, err = run(capsys, "optimize", "--functional", "B1", "--iterations", "-5")
        assert code == 1 and "max_iterations must be >= 0" in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run(capsys, "optimize", "--functional", "B1", "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    def test_too_many_restarts_exit_2_before_allocation(self, capsys):
        # 34,953 initial simplices of 6 * 5 entries hold 1,048,590 > 2^20
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "optimize", "--functional", "B3", "--restarts", "34953")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == (
            "size cap exceeded: a simplex stack of restarts * (n+1) * n = 34953 * 6 * 5 entries"
            " exceeds the cap 1048576\n"
        )
        assert peak < 2**20

    def test_oversized_term_table_exit_2(self, capsys, tmp_path, monkeypatch):
        # nine terms in one slot: a row of 4 * 9 * 1 = 36 entries above a cap of 32
        monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 32)
        path = tmp_path / "f.json"
        terms = [{"a": "00", "x": "01", "coeff": 1.0}] * 9
        path.write_text(json.dumps({"L": 2, "R": 2, "S": 2, "name": "nine", "terms": terms}))
        code, out, err = run(capsys, "optimize", "--functional", str(path), "--restarts", "1")
        assert code == 2 and out == ""
        assert err == (
            "size cap exceeded: a per-term table row of 4 * depth * slots = 4 * 9 * 1 entries"
            " exceeds the cap 32\n"
        )


class TestDecomposeRealize:
    def test_round_trip(self, capsys, tmp_path):
        rng = np.random.default_rng(50)
        behavior = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 2, 2)))
        behavior_file = tmp_path / "b.json"
        behavior_file.write_text(se.dumps(se.behavior_to_json(behavior)))

        decomp_file = tmp_path / "d.json"
        code, out, _ = run(
            capsys, "decompose", "--behavior", str(behavior_file), "--out", str(decomp_file)
        )
        assert code == 0 and "reconstruction max deviation" in out

        system_file = tmp_path / "s.json"
        code, out, _ = run(
            capsys, "realize", "--decomposition", str(decomp_file), "--out", str(system_file)
        )
        assert code == 0
        deviation = float(out.split("re-simulation max deviation")[1].split()[0])
        assert deviation < 1e-9

        resim_file = tmp_path / "resim.json"
        code, _out, _ = run(
            capsys, "simulate", "--system", str(system_file), "--out", str(resim_file)
        )
        assert code == 0
        resim = se.behavior_from_json(json.loads(resim_file.read_text()))
        assert np.max(np.abs(resim.table - behavior.table)) < 1e-9

    def test_mixture_dimension_bounded_by_positive_entries(self, capsys, tmp_path):
        rng = np.random.default_rng(52)
        behavior_file, decomp_file = tmp_path / "b.json", tmp_path / "d.json"
        for _ in range(20):
            behavior = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 2, 2)))
            behavior_file.write_text(se.dumps(se.behavior_to_json(behavior)))
            run(capsys, "decompose", "--behavior", str(behavior_file), "--out", str(decomp_file))
            code, out, _ = run(capsys, "realize", "--decomposition", str(decomp_file))
            dim = int(out.split("system dimension ")[1].split(";")[0])
            assert code == 0 and dim <= 3 * np.count_nonzero(behavior.table > 0.0)
            assert float(out.split("re-simulation max deviation")[1].split()[0]) <= 1e-9

    def test_decompose_beyond_enumeration(self, capsys, tmp_path):
        rng = np.random.default_rng(51)
        behavior = compose_from_conditionals(random_conditional_chain(rng, Scenario(3, 2, 3)))
        behavior_file = tmp_path / "b.json"
        behavior_file.write_text(se.dumps(se.behavior_to_json(behavior)))
        code, out, _ = run(capsys, "decompose", "--behavior", str(behavior_file))
        assert code == 0
        assert float(out.split("reconstruction max deviation")[1].split()[0]) <= 1e-9

    def test_realize_named_vertex(self, capsys, tmp_path):
        system_file = tmp_path / "e1sys.json"
        code, out, _ = run(capsys, "realize", "--vertex", "e1", "--out", str(system_file))
        assert code == 0 and "system dimension 3" in out

        behavior_file = tmp_path / "e1b.json"
        run(capsys, "simulate", "--system", str(system_file), "--out", str(behavior_file))
        code, out, _ = run(capsys, "witness", "--behavior", str(behavior_file))
        assert "value: 4" in out

    def test_realize_by_index(self, capsys):
        code, out, _ = run(capsys, "realize", "--vertex", "6")  # e1's enumeration index
        assert code == 0 and "re-simulation max deviation 0.0" in out

    def test_realize_large_vertex_exits_2_quickly(self, capsys):
        # dimension 501: 1000 Kraus operators of 501^2 entries
        start = time.perf_counter()
        code, out, err = run(capsys, "realize", "--vertex", "0", "--S", "500")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("size cap exceeded: a system of dimension 501 with 251001000 Kraus entries exceeds")

    def test_index_past_int_str_limit_count_exits_3(self):
        proc = run_process("realize", "--vertex", "-1", "--S", "500")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "schema error: vertex: index -1 outside 0..2^250500-1\n"

    def test_too_many_terms_exit_2_before_allocation(self, capsys, tmp_path):
        # 1000 (2,2,2) terms would make 3000 x 3000 complex matrices of 144 MB each
        n = 1000
        outcomes = [DeterministicVertex.from_index(Scenario(2, 2, 2), k % 64).outcomes for k in range(n)]
        decomp_file = tmp_path / "d.json"
        decomp_file.write_text(se.dumps(se.decomposition_to_json(ConvexDecomposition(Scenario(2, 2, 2), [1.0 / n] * n, outcomes))))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "realize", "--decomposition", str(decomp_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("size cap exceeded: a system of dimension 3000 with 36000000 Kraus entries exceeds")
        assert peak < 32 * 2**20

    def test_realize_length_three_out_of_scope(self, capsys):
        code, _out, err = run(capsys, "realize", "--vertex", "e1", "--L", "3")
        assert code == 5 and "L=2 only" in err

    def test_realize_bad_vertex(self, capsys):
        code, _out, err = run(capsys, "realize", "--vertex", "e9")
        assert code == 3 and "e1..e4" in err

    def test_schema_error_file_missing(self, capsys):
        code, _out, err = run(capsys, "decompose", "--behavior", "/nonexistent.json")
        assert code == 3 and "file not found" in err


class TestInputBoundary:
    """Malformed numbers in input files end in exit 3 with the field path."""

    @staticmethod
    def member_json():
        rng = np.random.default_rng(60)
        behavior = compose_from_conditionals(random_conditional_chain(rng, Scenario(2, 2, 2)))
        return se.behavior_to_json(behavior)

    def run_file(self, capsys, tmp_path, data, *argv):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        return run(capsys, *[str(path) if a == "{file}" else a for a in argv])

    def test_bool_length_rejected(self, capsys, tmp_path):
        data = self.member_json()
        data["L"] = True
        code, _out, err = self.run_file(capsys, tmp_path, data, "decompose", "--behavior", "{file}")
        assert code == 3 and "schema error: L:" in err

    def test_nan_probability_rejected(self, capsys, tmp_path):
        data = self.member_json()
        data["table"]["01"][2] = float("nan")
        code, _out, err = self.run_file(capsys, tmp_path, data, "witness", "--behavior", "{file}")
        assert code == 3 and "schema error: table.01[2]:" in err

    @pytest.mark.parametrize("R", ["x", 1])
    def test_functional_bad_outcome_count(self, capsys, tmp_path, R):
        data = se.functional_to_json(builtin_functionals()["B1"])
        data["R"] = R
        code, _out, err = self.run_file(
            capsys, tmp_path, data, "optimize", "--functional", "{file}", "--restarts", "1"
        )
        assert code == 3 and "schema error: R:" in err

    def test_nan_weight_rejected(self, capsys, tmp_path):
        d = decompose_behavior(se.behavior_from_json(self.member_json()))
        data = se.decomposition_to_json(d)
        data["terms"][0]["weight"] = float("nan")
        code, _out, err = self.run_file(capsys, tmp_path, data, "realize", "--decomposition", "{file}")
        assert code == 3 and "schema error: terms[0].weight:" in err

    def test_short_table_of_long_scenario_rejected(self, capsys, tmp_path):
        # a full table of this scenario would need 8 TiB; the document has one row
        data = {"L": 20, "R": 2, "S": 2, "table": {"0" * 20: [1.0, 0.0]}}
        code, _out, err = self.run_file(capsys, tmp_path, data, "witness", "--behavior", "{file}")
        assert code == 3 and "schema error: table:" in err

    def test_huge_length_rejected(self, capsys, tmp_path):
        data = self.member_json()
        data["L"] = 10**6
        code, _out, err = self.run_file(capsys, tmp_path, data, "witness", "--behavior", "{file}")
        assert code == 3 and "schema error: L/R/S:" in err

    def test_overflowing_hermiticity_defect_warns_nothing(self, capsys, tmp_path):
        # 1e308 and -1e308 at transposed positions differ by more than the largest float
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        data["initial"][1], data["initial"][2] = [1e308, 0.0], [-1e308, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _out, err = self.run_file(capsys, tmp_path, data, "simulate", "--system", "{file}")
        assert code == 3
        assert err.splitlines() == ["schema error: initial: state deviates from Hermiticity by inf > 1e-09"]

    @pytest.mark.parametrize("command", ["witness", "decompose"])
    @pytest.mark.parametrize(
        "entries, report",
        [
            (
                (("00", 0, 1e308), ("00", 1, 1e308)),
                [
                    "setting block 0 sums to inf (deviation inf)",
                    "arrow-of-time violation at level 1, settings 0, outcomes 0: spread inf",
                ],
            ),
            (
                (("00", 0, 1e308), ("01", 0, -1e308)),
                [
                    "negative entry p[1,0] = -1.000000e+308",
                    "setting block 0 sums to 1e+308 (deviation 1.000e+308)",
                    "setting block 1 sums to -1e+308 (deviation 1.000e+308)",
                    "arrow-of-time violation at level 1, settings 0, outcomes 0: spread inf",
                ],
            ),
        ],
    )
    def test_overflowing_behavior_sums_warn_nothing(self, capsys, tmp_path, command, entries, report):
        # the row sums and the arrow-of-time spreads of these finite entries overflow
        data = self.member_json()
        for row, col, value in entries:
            data["table"][row][col] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _out, err = self.run_file(capsys, tmp_path, data, command, "--behavior", "{file}")
        assert code == 4
        assert err.splitlines() == ["membership error: behavior is not in the polytope:", *report]

    def test_overflowing_state_trace_warns_nothing(self, capsys, tmp_path):
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        data["initial"][0], data["initial"][3] = [1e308, 0.0], [1e308, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _out, err = self.run_file(capsys, tmp_path, data, "simulate", "--system", "{file}")
        assert code == 3
        assert err.splitlines() == ["schema error: initial: state trace inf deviates from 1 by inf > 1e-09"]

    @pytest.mark.parametrize(
        "instruments, path, message",
        [
            (1, "instruments", "need at least 2 settings, got 1"),
            (2, "instruments[0].kraus", "need at least 2 outcomes, got 1"),
        ],
    )
    def test_one_setting_or_outcome_exits_3_with_its_field(self, capsys, tmp_path, instruments, path, message):
        # one outcome of the identity is a valid instrument; only the count refuses it
        data = se.system_model_to_json(canonical_protocols()["qubit-B1-3"])
        data["instruments"] = data["instruments"][:instruments]
        if instruments == 2:
            data["instruments"][0]["kraus"] = [[se.matrix_to_json(np.eye(2))]]
        code, _out, err = self.run_file(capsys, tmp_path, data, "simulate", "--system", "{file}")
        assert code == 3
        assert err.splitlines() == [f"schema error: {path}: {message}"]

    def test_overflowing_kraus_entry_prints_one_line(self, tmp_path):
        data = se.system_model_to_json(canonical_protocols()["qutrit-e1"])
        data["instruments"][0]["kraus"][0][0][1] = [1e200, 0.0]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        proc = run_process("simulate", "--system", str(path))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "schema error: instruments[0]: matrix contains NaN or infinite entries"
        ]


def five_thousand_digit_behavior():
    """e1's vertex table with its first unit entry written as an integer of
    5,000 digits, past the default limit of int conversion."""
    text = json.dumps(se.behavior_to_json(vertex_behavior(named_vertex("e1"))))
    return text.replace("1.0", "1" + "0" * 4999, 1)


# Input files that cannot be read or parsed: how each is written at a path,
# and how its schema error goes on after the path
UNREADABLE_INPUTS = {
    "directory": (lambda path: path.mkdir(), "cannot read: "),
    "not UTF-8": (lambda path: path.write_bytes(b'\xff\xfe{"L": 2}'), "invalid JSON: "),
    "nested too deep": (lambda path: path.write_text("[" * 100_000), "invalid JSON: "),
    "5,000 digits": (lambda path: path.write_text(five_thousand_digit_behavior()), "invalid JSON: "),
}


class TestUnreadableFiles:
    """An input file that cannot be read or parsed ends in exit 3, and an
    --out that cannot be written in exit 1, each with one line on stderr."""

    @pytest.mark.parametrize(
        "kind, command",
        [
            ("directory", "witness --behavior"),
            ("directory", "simulate --system"),
            ("not UTF-8", "witness --behavior"),
            ("not UTF-8", "decompose --behavior"),
            ("not UTF-8", "optimize --functional"),
            ("nested too deep", "witness --behavior"),
            ("5,000 digits", "witness --behavior"),
        ],
    )
    def test_unreadable_input_exits_3(self, capsys, tmp_path, kind, command):
        write, reason = UNREADABLE_INPUTS[kind]
        path = tmp_path / "in.json"
        write(path)
        code, _out, err = run(capsys, *command.split(), str(path))
        assert code == 3
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"schema error: {path}: {reason}")

    @pytest.mark.parametrize(
        "command, target, reason",
        [
            ("simulate --protocol qubit-B1-3", "", "Is a directory"),
            ("bounds --which C3", "missing/bounds.txt", "No such file or directory"),
            ("bounds --which B4envelope --grid 11", "missing/b4.csv", "No such file or directory"),
        ],
    )
    def test_unwritable_out_exits_1(self, capsys, tmp_path, command, target, reason):
        path = tmp_path / target
        code, _out, err = run(capsys, *command.split(), "--out", str(path))
        assert code == 1
        assert err.splitlines() == [f"error: cannot write {path}: {reason}"]


class TestMembersAtTheTolerance:
    """A member's entries may each stray 1e-9 from the polytope, and its
    witness values as far from [0, 4]; certification still reports them."""

    def witness(self, capsys, tmp_path, data):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(data))
        return run(capsys, "witness", "--behavior", str(path))

    def test_value_below_zero_is_qubit_compatible(self, capsys, tmp_path):
        d = -0.9e-9  # B1 = 4 d
        table = {"00": [d, 0.5, 0.5, -d], "11": [d, 0.5, 0.5, -d], "01": [0.5, d, -d, 0.5], "10": [0.5, d, -d, 0.5]}
        code, out, err = self.witness(capsys, tmp_path, {"L": 2, "R": 2, "S": 2, "table": table})
        assert (code, err) == (0, "")
        assert "value: -3.6e-09" in out.splitlines()
        assert "verdict: qubit-compatible" in out.splitlines()
        assert out.splitlines()[-1].startswith("overall: qubit-compatible,")

    def test_value_above_four_is_dimension_above_2(self, capsys, tmp_path):
        # each unit entry of e1 raised by 0.9e-9, the entry of the same first
        # outcome lowered by as much: B1 = 4 + 4 * 0.9e-9
        data = se.behavior_to_json(vertex_behavior(named_vertex("e1")))
        for row in data["table"].values():
            unit = row.index(1.0)
            row[unit] += 0.9e-9
            row[unit ^ 1] -= 0.9e-9
        code, out, err = self.witness(capsys, tmp_path, data)
        assert (code, err) == (0, "")
        assert "value: 4.0000000036" in out.splitlines()
        assert "verdict: dimension > 2" in out.splitlines()
        assert out.splitlines()[-1].startswith("overall: dimension > 2,")

class TestWitnessUpToRelabeling:
    def test_relabeled_e1_is_dimension_above_2(self, capsys, tmp_path):
        # e1 with setting 1's outcomes swapped: no qubit reaches it, since
        # swapping that setting's Kraus operators back would reach e1
        swapped = relabel_vertex(named_vertex("e1"), ((0, 1), ((0, 1), (1, 0))))
        path = tmp_path / "b.json"
        path.write_text(se.dumps(se.behavior_to_json(vertex_behavior(swapped))))
        code, out, err = run(capsys, "witness", "--behavior", str(path), "--functional", "B1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        # the rows are the behavior's own; the overall verdict reads its images too
        assert lines[:4] == ["functional: B1", "value: 1", "bound: 3 (analytic)", "verdict: qubit-compatible"]
        # the overall verdict names the image and the witness that certify it
        assert lines[-2:] == [
            "overall: dimension > 2, certified epsilon >= 0.0833333333333",
            "certified by B1 = 4 on the image under relabeling ((0, 1), ((0, 1), (1, 0)))",
        ]
        code, out, err = run(capsys, "witness", "--behavior", str(path), "--functional", "B1", "--format", "json")
        assert (code, err) == (0, "")
        by = json.loads(out)["certified_by"]
        assert by["relabeling"] == {"settings": [0, 1], "outcomes": [[0, 1], [1, 0]]}
        assert (by["witness"]["name"], by["witness"]["value"], by["witness"]["verdict"]) == ("B1", 4.0, "dimension > 2")
        assert by["witness"]["epsilon_certified"] == json.loads(out)["epsilon_lower"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_only_relabeled_certificates_are_named(self, capsys, tmp_path, fmt):
        # the line and the key appear only when the certifying image is not the behavior itself
        named = {named_vertex(n).index for n in ("e1", "e2", "e3", "e4")}
        relabeled = set()
        for k in range(64):
            path = tmp_path / f"v{k}.json"
            path.write_text(se.dumps(se.behavior_to_json(vertex_behavior(DeterministicVertex.from_index(Scenario(2, 2, 2), k)))))
            code, out, err = run(capsys, "witness", "--behavior", str(path), "--functional", "B3", "--format", fmt)
            assert (code, err) == (0, "")
            if fmt == "text" and out.splitlines()[-1].startswith("certified by B"):
                relabeled.add(k)
            elif fmt == "json" and "certified_by" in json.loads(out):
                relabeled.add(k)
        assert len(relabeled) == 20 and not relabeled & named


# Edge values a mutated leaf of an input file may take.
EDGE_VALUES = (1e308, -1e308, 1e154, 5e-324, 0.0, -0.0, True, "1", [], {}, None)

# The file-reading commands, each with the argument its mutated file replaces
# ("{file}") and the seed document that file starts from; "{behavior}" is a
# valid behavior file.
FUZZED_COMMANDS = {
    "simulate --system": (("simulate", "--system", "{file}"), "system"),
    "simulate --system --L 3": (("simulate", "--system", "{file}", "--L", "3"), "system"),
    "witness --behavior": (("witness", "--behavior", "{file}"), "behavior"),
    "witness --functional": (("witness", "--behavior", "{behavior}", "--functional", "{file}"), "functional"),
    "decompose --behavior": (("decompose", "--behavior", "{file}"), "behavior"),
    "realize --decomposition": (("realize", "--decomposition", "{file}"), "decomposition"),
    "optimize --functional": (
        ("optimize", "--functional", "{file}", "--restarts", "2", "--iterations", "50"),
        "functional",
    ),
}


def seed_documents():
    """Small valid input files: a (2,2,2) member behavior, its 11-term
    decomposition, the qubit-B1-3 system and B3."""
    behavior = TestInputBoundary.member_json()
    return {
        "behavior": behavior,
        "decomposition": se.decomposition_to_json(decompose_behavior(se.behavior_from_json(behavior))),
        "system": se.system_model_to_json(canonical_protocols()["qubit-B1-3"]),
        "functional": se.functional_to_json(builtin_functionals()["B3"]),
    }


SEED_DOCUMENTS = seed_documents()


def leaf_paths(node, path=()):
    """Paths of the scalar leaves of a JSON document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def mutate(doc, index, op, value):
    """Replace, delete or duplicate the leaf ``index`` (modulo the leaf
    count) of ``doc`` in place; a duplicated list item is inserted again
    after itself, a duplicated object value becomes a list of two copies."""
    paths = list(leaf_paths(doc))
    *head, key = paths[index % len(paths)]
    parent = doc
    for step in head:
        parent = parent[step]
    if op == "replace":
        parent[key] = copy.deepcopy(value)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key] = [parent[key], parent[key]]


mutations = st.lists(
    st.tuples(st.integers(0, 10**4), st.sampled_from(("replace", "delete", "duplicate")), st.sampled_from(EDGE_VALUES)),
    min_size=1,
    max_size=3,
)


class TestMutatedInputFiles:
    """Every file-reading command ends a mutated seed file in an exit code of
    the README contract, with no traceback and no numpy warning."""

    # leaves 3 and 4 of the behavior are table["00"][0] and [1], leaf 7 is
    # table["01"][0]; leaves 1 and 7 of the system are the real parts of
    # initial[0] and initial[3], the diagonal of the initial state
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(FUZZED_COMMANDS)), mutations)
    @example("witness --behavior", [(3, "replace", 1e308), (4, "replace", 1e308)])
    @example("decompose --behavior", [(3, "replace", 1e308), (4, "replace", 1e308)])
    @example("witness --behavior", [(3, "replace", 1e308), (7, "replace", -1e308)])
    @example("decompose --behavior", [(3, "replace", 1e308), (7, "replace", -1e308)])
    @example("simulate --system", [(1, "replace", 1e308), (7, "replace", 1e308)])
    def test_documented_exit_and_clean_stderr(self, tmp_path, command, changes):
        argv, seed = FUZZED_COMMANDS[command]
        doc = copy.deepcopy(SEED_DOCUMENTS[seed])
        for index, op, value in changes:
            mutate(doc, index, op, value)
        mutated, behavior = tmp_path / "mutated.json", tmp_path / "behavior.json"
        mutated.write_text(json.dumps(doc))
        behavior.write_text(json.dumps(SEED_DOCUMENTS["behavior"]))
        argv = [a.format(file=mutated, behavior=behavior) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in range(6), err.getvalue()
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), err.getvalue()


PACKAGE_EXPORTS = {
    "correlations": (
        "Behavior ConvexDecomposition DeterministicVertex RelabelingGroup Scenario check_membership"
        " classify_vertices compose_from_conditionals count_vertices decompose_behavior"
        " enumerate_vertices factorize marginal named_vertex require_member vertex_behavior"
    ),
    "qmath": (
        "DensityMatrix Instrument SystemModel bloch_to_density"
        " density_to_bloch effect_from_params validate_effect validate_instrument"
    ),
    "realize": "canonical_protocols full_behavior mixture_realization qutrit_vertex_realization run_sequence",
    "witness": (
        "CertificationReport OptimizerConfig QubitStrategy WitnessFunctional b1_projective_profile"
        " b3_profile b4_envelope builtin_functionals c1_bound c3_bound certify epsilon_lower_bound"
        " evaluate optimize_qubit strategy_value system_epsilon"
    ),
}

# Runs in a fresh interpreter: prints, as JSON, the heavy packages loaded after
# each step, the exit codes of the CLI calls and the OpenBLAS thread setting.
START_UP_PROBE = """
import contextlib, io, json, os, sys
def heavy():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})
report = {}
if sys.argv[1] == "numpy-first":
    import numpy
    before = dict(os.environ)
import tempocorr
report["import tempocorr"] = heavy()
import tempocorr.cli
report["import tempocorr.cli"] = heavy()
for argv in (["--help"], ["simulate", "--L", "2"], ["bounds", "--which", "C1"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = tempocorr.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report[" ".join(argv)] = [code, heavy()]
report["threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
if sys.argv[1] == "numpy-first":
    report["environ untouched"] = dict(os.environ) == before
print(json.dumps(report))
"""


def test_cli_import_leaves_scipy_unloaded():
    """Start-up loads no numpy until a command runs, which then has one
    OpenBLAS thread unless the user set a count; scipy never loads; the lazy
    package resolves each of its public names to its home module."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

    def probe(mode, **env):
        proc = subprocess.run(
            [sys.executable, "-c", START_UP_PROBE, mode], capture_output=True, text=True,
            env={**base, **env}, check=True,
        )
        return json.loads(proc.stdout)

    assert probe("fresh") == {
        "import tempocorr": [],
        "import tempocorr.cli": [],
        "--help": [0, []],
        "simulate --L 2": [64, []],
        "bounds --which C1": [0, ["numpy"]],
        "threads": "1",
    }
    assert probe("fresh", OPENBLAS_NUM_THREADS="3")["threads"] == "3"
    numpy_first = probe("numpy-first")
    assert numpy_first["threads"] is None and numpy_first["environ untouched"]

    import tempocorr

    for module, names in PACKAGE_EXPORTS.items():
        home = importlib.import_module(f"tempocorr.{module}")
        assert getattr(tempocorr, module) is home
        for name in names.split():
            assert getattr(tempocorr, name) is getattr(home, name), name
            assert name in dir(tempocorr)
    assert tempocorr.errors is importlib.import_module("tempocorr.errors")
    assert tempocorr.serialize is importlib.import_module("tempocorr.serialize")
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        tempocorr.nonexistent


# Runs in a fresh interpreter inside a scratch directory: prints, as JSON, the
# exit code of each command and whether tempocorr.witness was loaded after it.
WITNESS_PROBE = """
import contextlib, io, json, sys
import tempocorr.cli
report = []
for argv in (
    ["vertices", "--L", "2", "--R", "2", "--S", "2", "--out", "v.json"],
    ["simulate", "--protocol", "qutrit-e1", "--out", "b.json"],
    ["decompose", "--behavior", "b.json", "--out", "d.json"],
    ["realize", "--decomposition", "d.json", "--out", "s.json"],
    ["simulate", "--system", "s.json", "--L", "3"],
    ["witness", "--behavior", "b.json"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = tempocorr.cli.main(argv)
    report.append([argv[0], code, "tempocorr.witness" in sys.modules])
print(json.dumps(report))
"""


def test_commands_without_witnesses_leave_witness_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", WITNESS_PROBE], capture_output=True, text=True, env=env, cwd=tmp_path, check=True
    )
    assert json.loads(proc.stdout) == [
        ["vertices", 0, False],
        ["simulate", 0, False],
        ["decompose", 0, False],
        ["realize", 0, False],
        ["simulate", 0, False],
        ["witness", 0, True],
    ]


# Runs in a fresh interpreter inside a scratch directory holding b.json: prints,
# as JSON, the exit code of each command and whether tempocorr.realize was
# loaded after it.
REALIZE_PROBE = """
import contextlib, io, json, sys
import tempocorr.cli
report = []
for argv in (
    ["witness", "--behavior", "b.json"],
    ["bounds", "--which", "C3"],
    ["optimize", "--restarts", "2"],
    ["decompose", "--behavior", "b.json"],
    ["vertices", "--L", "2", "--R", "2", "--S", "2"],
    ["simulate", "--protocol", "qutrit-e1"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = tempocorr.cli.main(argv)
    report.append([argv[0], code, "tempocorr.realize" in sys.modules])
print(json.dumps(report))
"""


def test_only_simulating_commands_load_realize(tmp_path):
    (tmp_path / "b.json").write_text(se.dumps(TestInputBoundary.member_json()))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", REALIZE_PROBE], capture_output=True, text=True, env=env, cwd=tmp_path, check=True
    )
    assert json.loads(proc.stdout) == [
        ["witness", 0, False],
        ["bounds", 0, False],
        ["optimize", 0, False],
        ["decompose", 0, False],
        ["vertices", 0, False],
        ["simulate", 0, True],
    ]
