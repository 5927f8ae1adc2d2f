import random

import pytest

from spgcd import polyfile
from spgcd.bench import CSV_HEADER, run_suite, write_csv
from spgcd.cli import main
from spgcd.instances import random_poly
from spgcd.oracle import divides_exactly, sparse_mul
from spgcd.sparse import SparsePoly, lex_monic, monomial_primitive


def run(argv):
    return main(argv)


@pytest.fixture
def triple(tmp_path):
    prefix = tmp_path / "inst"
    rc = run(
        ["gen", "--n", "3", "--terms", "4", "--deg", "5", "--seed", "11",
         "--out-prefix", str(prefix)]
    )
    assert rc == 0
    return {t: str(prefix) + f"_{t}.poly" for t in "ABG"}


class TestGcdCommand:
    def test_end_to_end(self, tmp_path, triple):
        out = tmp_path / "g.poly"
        rc = run(["gcd", triple["A"], triple["B"], "-o", str(out), "--seed", "1"])
        assert rc == 0
        field, got = polyfile.read(str(out))
        _, planted = polyfile.read(triple["G"])
        assert got == planted
        assert run(["verify", str(out), triple["A"], triple["B"]]) == 0

    def test_mismatched_moduli(self, tmp_path):
        a = tmp_path / "a.poly"
        b = tmp_path / "b.poly"
        a.write_text("p 7\nn 1\n1 1\n")
        b.write_text("p 11\nn 1\n1 1\n")
        assert run(["gcd", str(a), str(b)]) == 1

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("p 7\nn 2\n0 1 1\n")
        ok = tmp_path / "ok.poly"
        ok.write_text("p 7\nn 2\n1 1 1\n")
        assert run(["gcd", str(bad), str(ok)]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gcd", "a.poly", "b.poly", "--bogus"],
            ["gcd", "a.poly"],
            ["bench", "--suite", "sizes", "--csv", "out.csv"],
            ["gcd", "a.poly", "b.poly", "--term-strategy", "linear"],
        ],
        ids=["unknown-flag", "missing-operand", "bad-suite", "term-strategy"],
    )
    def test_argument_error_exit_code(self, argv, capsys):
        # 2 is the engine's failure code; a bad argument is a usage error
        assert run(argv) == 1
        assert "error: " in capsys.readouterr().err

    def test_linear_factor_file_output(self, tmp_path, capsys):
        # A = (x1 + x2)(x1 x2 + 1), B = (x1 + x2)(x1 + 2) over F_11
        a = tmp_path / "a.poly"
        b = tmp_path / "b.poly"
        a.write_text("p 11\nn 2\n1 0 1\n1 1 0\n1 1 2\n1 2 1\n")
        b.write_text("p 11\nn 2\n2 0 1\n2 1 0\n1 1 1\n1 2 0\n")
        assert run(["gcd", str(a), str(b), "--seed", "4"]) == 0
        assert capsys.readouterr().out == "p 11\nn 2\n1 0 1\n1 1 0\n"

    def test_coprime_gives_unit_file(self, tmp_path, capsys):
        a = tmp_path / "a.poly"
        b = tmp_path / "b.poly"
        a.write_text("p 10000019\nn 2\n1 0 0\n1 2 0\n")
        b.write_text("p 10000019\nn 2\n2 0 0\n1 0 1\n")
        assert run(["gcd", str(a), str(b), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out == "p 10000019\nn 2\n1 0 0\n"

    def test_determinism_byte_identical(self, tmp_path, triple):
        o1, o2 = tmp_path / "g1.poly", tmp_path / "g2.poly"
        for out in (o1, o2):
            assert run(["gcd", triple["A"], triple["B"], "-o", str(out), "--seed", "9"]) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestSeedsAndFailures:
    def test_env_seed_fallback(self, tmp_path, triple, monkeypatch):
        o1, o2 = tmp_path / "e1.poly", tmp_path / "e2.poly"
        monkeypatch.setenv("SPGCD_SEED", "321")
        assert run(["gcd", triple["A"], triple["B"], "-o", str(o1)]) == 0
        assert run(["gcd", triple["A"], triple["B"], "-o", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_bad_env_seed_is_a_usage_error(self, triple, monkeypatch, capsys):
        monkeypatch.setenv("SPGCD_SEED", "abc")
        assert run(["gcd", triple["A"], triple["B"]]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_failure_exit_code(self, triple, monkeypatch):
        import spgcd.cli as cli_mod
        from spgcd.errors import GcdFailure

        def boom(*args, **kwargs):
            raise GcdFailure("IV", "synthetic")

        monkeypatch.setattr(cli_mod, "gcd", boom)
        assert run(["gcd", triple["A"], triple["B"]]) == 2

    def test_pipeline_end_to_end(self, tmp_path):
        for seed in range(20):
            prefix = tmp_path / f"p{seed}"
            assert run(["gen", "--n", "3", "--terms", "5", "--deg", "6",
                        "--seed", str(seed), "--out-prefix", str(prefix)]) == 0
            out = tmp_path / f"g{seed}.poly"
            assert run(["gcd", f"{prefix}_A.poly", f"{prefix}_B.poly",
                        "-o", str(out), "--seed", str(seed)]) == 0
            assert run(["verify", str(out), f"{prefix}_A.poly", f"{prefix}_B.poly"]) == 0


class TestVerifyCommand:
    def test_rejects_non_divisor(self, tmp_path):
        g = tmp_path / "g.poly"
        a = tmp_path / "a.poly"
        b = tmp_path / "b.poly"
        g.write_text("p 7\nn 2\n1 1 0\n")  # G = x1
        a.write_text("p 7\nn 2\n1 0 1\n")  # A = x2
        b.write_text("p 7\nn 2\n1 1 0\n")
        assert run(["verify", str(g), str(a), str(b)]) == 3

    def test_rejects_proper_divisor(self, tmp_path):
        g = tmp_path / "g.poly"
        a = tmp_path / "a.poly"
        b = tmp_path / "b.poly"
        # A = B = x1 * (x1 + x2); claiming G = x1 misses the full gcd
        g.write_text("p 7\nn 2\n1 1 0\n")
        a.write_text("p 7\nn 2\n1 1 1\n1 2 0\n")
        b.write_text("p 7\nn 2\n1 1 1\n1 2 0\n")
        assert run(["verify", str(g), str(a), str(b)]) == 3

    def test_oracle_skip_beyond_budget(self, tmp_path, capsys):
        g = tmp_path / "g.poly"
        a = tmp_path / "a.poly"
        b = tmp_path / "b.poly"
        # five variables exceed the oracle budget: divisibility-only check
        g.write_text("p 7\nn 5\n1 1 0 0 0 0\n")
        a.write_text("p 7\nn 5\n1 2 0 0 0 0\n")
        b.write_text("p 7\nn 5\n1 1 1 0 0 0\n")
        assert run(["verify", str(g), str(a), str(b)]) == 0
        assert "oracle skipped" in capsys.readouterr().out


    @pytest.mark.parametrize("n, terms, deg", [(6, 30, 30), (25, 30, 50)])
    def test_image_check_rejects_proper_divisors(self, tmp_path, monkeypatch, capsys, n, terms, deg):
        # beyond the oracle's budget the constant 1 and a planted proper
        # divisor both divide A and B: only the image check rejects them
        monkeypatch.setenv("SPGCD_SEED", "3")
        prefix = tmp_path / "inst"
        assert run(["gen", "--n", str(n), "--terms", str(terms), "--deg", str(deg), "--seed", "5",
                    "--out-prefix", str(prefix)]) == 0
        field, _ = polyfile.read(f"{prefix}_G.poly")
        one = tmp_path / "one.poly"
        polyfile.write(str(one), field, SparsePoly.constant(field, n, 1))
        assert run(["verify", str(one), f"{prefix}_A.poly", f"{prefix}_B.poly"]) == 3
        assert run(["verify", f"{prefix}_G.poly", f"{prefix}_A.poly", f"{prefix}_B.poly"]) == 0
        rng = random.Random(5)
        G1, G2 = (lex_monic(field, monomial_primitive(random_poly(field, rng, n, 3, deg // 3))) for _ in "12")
        G = sparse_mul(field, G1, G2)
        paths = {}
        for tag, f in (("A", G), ("B", G), ("G", G), ("G1", G1)):
            if tag in "AB":
                f = sparse_mul(field, monomial_primitive(random_poly(field, rng, n, terms, deg)), G)
            paths[tag] = str(tmp_path / f"{tag}.poly")
            polyfile.write(paths[tag], field, f)
        assert run(["verify", paths["G1"], paths["A"], paths["B"]]) == 3
        assert run(["verify", paths["G"], paths["A"], paths["B"]]) == 0
        out = capsys.readouterr().out
        assert out.count("check: gcd image FAILED") == 2 and out.count("check: gcd image ok") == 2
        assert "oracle skipped" in out and "error bound" in out

    def test_image_check_over_an_extension(self, tmp_path, monkeypatch, capsys):
        # at p = 101 one image over F_p cannot bound the error: the images
        # are taken over an extension
        monkeypatch.setenv("SPGCD_SEED", "4")
        prefix = tmp_path / "inst"
        assert run(["gen", "--n", "5", "--terms", "6", "--deg", "8", "--p", "101", "--seed", "2",
                    "--out-prefix", str(prefix)]) == 0
        one = tmp_path / "one.poly"
        one.write_text("p 101\nn 5\n1 0 0 0 0 0\n")
        assert run(["verify", str(one), f"{prefix}_A.poly", f"{prefix}_B.poly"]) == 3
        assert run(["verify", f"{prefix}_G.poly", f"{prefix}_A.poly", f"{prefix}_B.poly"]) == 0
        assert "over F_101^" in capsys.readouterr().out


    def test_same_lines_on_every_run(self, tmp_path, monkeypatch, capsys):
        # the image check's points come from seed 0 when SPGCD_SEED is unset,
        # so the images taken and the printed error bound repeat
        monkeypatch.delenv("SPGCD_SEED", raising=False)
        prefix = tmp_path / "ef"
        assert run(["gen", "--n", "4", "--terms", "10", "--deg", "10", "--p", "1000003", "--seed", "1",
                    "--out-prefix", str(prefix)]) == 0
        capsys.readouterr()
        outs = []
        for _ in range(3):
            assert run(["verify", f"{prefix}_G.poly", f"{prefix}_A.poly", f"{prefix}_B.poly"]) == 0
            outs.append(capsys.readouterr().out)
        assert "error bound" in outs[0] and outs[1] == outs[0] and outs[2] == outs[0]


class TestGenCommand:
    def test_triple_is_consistent(self, triple):
        field, A = polyfile.read(triple["A"])
        _, B = polyfile.read(triple["B"])
        _, G = polyfile.read(triple["G"])
        assert G.lc == 1
        assert divides_exactly(field, G, A) is not None
        assert divides_exactly(field, G, B) is not None


class TestBench:
    def test_csv_schema_golden(self, tmp_path):
        rows = run_suite("terms", points=[2], per_point=1, seed=3)
        path = tmp_path / "out.csv"
        write_csv(str(path), rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "terms" and fields[1] == "6" and fields[2] == "2"
        assert fields[7] == "true"

    def test_rows_deterministic_modulo_timing(self):
        def stripped(rows):
            return [
                (r.suite, r.n, r.terms, r.degree, r.seed, r.retries, r.success)
                for r in rows
            ]

        r1 = run_suite("terms", points=[2, 5], per_point=2, seed=7)
        r2 = run_suite("terms", points=[2, 5], per_point=2, seed=7)
        assert stripped(r1) == stripped(r2)

    def test_empty_sweep(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(str(path), [])
        assert path.read_text().strip() == ",".join(CSV_HEADER)

    def test_degree_point_quick(self):
        rows = run_suite("degree", points=[5], per_point=1, seed=1)
        assert len(rows) == 1 and rows[0].success
        assert rows[0].wall_ms < 1000.0

    @pytest.mark.parametrize("p, omega", [(10000019, 6), (1000003, None)])
    def test_gcd_and_run_suite_pick_one_default_omega(self, tmp_path, monkeypatch, p, omega):
        import spgcd.bench as bench_mod
        import spgcd.cli as cli_mod

        picked = {}
        for owner in (cli_mod, bench_mod):
            def recording(field, A, B, cfg, name=owner.__name__, real=owner.gcd):
                picked[name] = cfg.omega
                return real(field, A, B, cfg)

            monkeypatch.setattr(owner, "gcd", recording)
        prefix = str(tmp_path / "inst")
        assert run(["gen", "--p", str(p), "--n", "2", "--terms", "3", "--deg", "4",
                    "--seed", "1", "--out-prefix", prefix]) == 0
        assert run(["gcd", prefix + "_A.poly", prefix + "_B.poly", "-o", prefix + "_got.poly",
                    "--seed", "1"]) == 0
        assert run_suite("terms", p=p, points=[2], per_point=1, seed=1)[0].success
        assert picked == {"spgcd.cli": omega, "spgcd.bench": omega}

    def test_time_limit_stops_sweep(self):
        rows = run_suite("terms", points=[2, 5, 10], per_point=1, seed=4, time_limit=0.0)
        assert {r.terms for r in rows} == {2}  # first point exceeded the limit

    def test_cli_bench(self, tmp_path):
        path = tmp_path / "bench.csv"
        rc = run(["bench", "--suite", "vars", "--points", "1,2", "--per-point", "1",
                  "--csv", str(path), "--seed", "2"])
        assert rc == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
