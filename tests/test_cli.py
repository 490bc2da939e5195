"""CLI contract: subcommands, exit codes, output files, determinism."""

import json
import math
import shlex
from pathlib import Path

import pytest

from powemb.cli import build_parser, main
from powemb.lpengine import load_field
from powemb.params import RangeError


SRC = '{"family":"B","s":1,"p":2,"q":1,"gamma":0,"dim":1}'
TGT = '{"family":"B","s":0,"p":4,"q":1,"gamma":0,"dim":1}'


def _readme_commands():
    """Every ``powemb ...`` line of README's fenced blocks, continuation
    lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("powemb ")]


def test_readme_commands_parse(capsys):
    commands = _readme_commands()
    assert len(commands) >= 8
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command rejected: {command}\n"
                        f"{capsys.readouterr().err}")


class TestDecide:
    def test_embeds_exit_zero(self, capsys):
        assert main(["decide", SRC, TGT]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcome"] == "embeds"
        assert out["trace"]

    def test_identity_trivial_rule(self, capsys):
        assert main(["decide", SRC, SRC]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trace"][0]["rule"] == "TRIVIAL_13"

    def test_does_not_embed_exit_one(self, capsys):
        assert main(["decide", TGT, SRC]) == 1

    def test_unknown_exit_two(self, capsys):
        h_out = '{"family":"H","s":2,"p":2,"gamma":1.5,"dim":1}'
        h_tgt = '{"family":"H","s":0,"p":2,"gamma":0,"dim":1}'
        assert main(["decide", h_out, h_tgt]) == 2

    def test_malformed_json_exit_64(self, capsys):
        assert main(["decide", "not json", TGT]) == 64

    def test_validation_error_exit_64(self, capsys):
        bad = '{"family":"B","s":1,"p":2,"q":1,"gamma":-1,"dim":1}'
        assert main(["decide", bad, TGT]) == 64

    @pytest.mark.parametrize("side", [0, 1])
    def test_boolean_dim_exit_64(self, capsys, side):
        bad = '{"family":"B","s":1,"p":2,"q":1,"gamma":0,"dim":true}'
        args = [bad, TGT] if side == 0 else [SRC, bad]
        assert main(["decide", *args]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension must be an integer, got True" in captured.err

    def test_oversized_number_exit_64(self, capsys):
        bad = '{"family":"B","s":1,"p":2,"q":1,"gamma":"1e999999","dim":1}'
        assert main(["decide", bad, TGT]) == 64
        assert "gamma: exponent 999999" in capsys.readouterr().err

    def test_rational_strings_accepted(self, capsys):
        a = '{"family":"B","s":"3/4","p":"3/2","q":"7/3","gamma":"-1/2","dim":1}'
        assert main(["decide", a, a]) == 0


class TestLattice:
    def _write(self, tmp_path, data):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_triangular_chain(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "out"))
        specs = [
            {"family": "B", "s": 1, "p": 2, "q": 1, "gamma": 0, "dim": 1},
            {"family": "B", "s": 0, "p": 4, "q": 1, "gamma": 0, "dim": 1},
            {"family": "B", "s": -1, "p": 8, "q": 1, "gamma": 0, "dim": 1},
        ]
        assert main(["lattice", self._write(tmp_path, specs)]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        outcomes = [[c["outcome"] for c in row] for row in payload["cells"]]
        assert outcomes == [
            ["embeds", "embeds", "embeds"],
            ["no", "embeds", "embeds"],
            ["no", "no", "embeds"],
        ]
        assert payload["transitivity_violations"] == []
        assert (tmp_path / "out" / "lattice.json").exists()

    def test_empty_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "out"))
        assert main(["lattice", self._write(tmp_path, [])]) == 0

    def test_mixed_dimension_exit_64(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "out"))
        specs = [
            {"family": "B", "s": 1, "p": 2, "q": 1, "gamma": 0, "dim": 1},
            {"family": "B", "s": 1, "p": 2, "q": 1, "gamma": 0, "dim": 2},
        ]
        assert main(["lattice", self._write(tmp_path, specs)]) == 64

    def test_invalid_entry_gets_diagnostics(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "out"))
        specs = [
            {"family": "B", "s": 1, "p": 2, "q": 1, "gamma": 0, "dim": 1},
            {"family": "B", "s": 1, "p": 0.5, "q": 1, "gamma": 0, "dim": 1},
        ]
        assert main(["lattice", self._write(tmp_path, specs)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[0])
        assert "p must lie in (1, inf]" in payload["cells"][0][1]["error"]
        assert "p must lie in (1, inf]" in payload["cells"][1][1]["error"]
        assert payload["cells"][0][0]["outcome"] == "embeds"
        assert payload["specs"][1]["dim"] == 1
        assert "got -1" not in out

    def test_unparseable_entry_exit_64(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "out"))
        specs = [
            {"family": "B", "s": 1, "p": 2, "q": 1, "gamma": 0, "dim": 1},
            {"family": "B", "s": "x", "p": 2, "q": 1, "gamma": 0, "dim": 1},
        ]
        assert main(["lattice", self._write(tmp_path, specs)]) == 64
        assert "entry 1: s:" in capsys.readouterr().err


class TestWitness:
    def test_peaks_family_files(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "w"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        code = main(["witness", "peaks", "--j", "0", "--n", "3..7"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "SpectralPeak"
        assert len(manifest["members"]) == 5
        member = load_field(out / manifest["members"][0]["file"])
        assert member.values.shape == (2 ** 14,)
        assert "config_hash" in manifest

    def test_logsing_profile_csv(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "w"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        code = main(["witness", "logsing", "--p0", "2", "--p1", "1.5",
                     "--gamma0", "0", "--eps", "1e-4"])
        assert code == 0
        lines = (out / "logsing.csv").read_text().splitlines()
        assert lines[0] == "r,value"
        r0, v0 = lines[1].split(",")
        assert float(r0) > 0 and float(v0) > 0

    def test_unknown_kind_exit_64(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "w"))
        assert main(["witness", "whatever"]) == 64
        assert not (tmp_path / "w").exists()

    def test_nyquist_error_exit_64(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "w"))
        assert main(["witness", "peaks", "--n", "3..20"]) == 64
        assert main(["witness", "peaks", "--n", "3..40"]) == 64
        assert main(["witness", "peaks", "--j", "5"]) == 64
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("argv,message", [
        (["translation", "--sigma", "0"], "sigma must be positive, got 0.0"),
        (["translation", "--sigma", "-1"], "sigma must be positive, got -1.0"),
        (["peaks", "--n", "5..3"], "--n must be a nonempty integer range a..b "
         "or a comma list of numbers, got '5..3'"),
        (["peaks", "--j", "0.5"], "--j must be an integer, got '0.5'"),
        (["translation", "--sigma", "abc"], "--sigma must be a number, got 'abc'"),
        (["translation", "--lam", ""], "--lam must be a nonempty integer range "
         "a..b or a comma list of numbers, got ''"),
        (["lacunary", "--coeffs", "1,x"], "--coeffs must be a nonempty integer "
         "range a..b or a comma list of numbers, got '1,x'"),
        (["peaks", "--n", "3..7.5"], "--n must be a nonempty integer range a..b "
         "or a comma list of numbers, got '3..7.5'"),
        (["logsing", "--dim", "1.5"], "--dim must be an integer, got '1.5'"),
        (["lacunary", "--n-terms", "x"], "--n-terms must be an integer, got 'x'"),
        (["logsing", "--dim", "-1"], "dimension must be >= 1, got -1"),
        (["logsing", "--dim", "0"], "dimension must be >= 1, got 0"),
        (["logsing", "--gamma0", "nan"], "--gamma0 must be a number, got 'nan'"),
        (["rieszlog", "--a", "nan"], "--a must be a number, got 'nan'"),
        (["lacunary", "--s0", "nan"], "--s0 must be a number, got 'nan'"),
        # Infinity passes the flag parser, so the witness rejects it.
        (["logsing", "--gamma0", "inf"], "gamma0 must be finite, got inf"),
        (["rieszlog", "--a", "inf"], "a must be finite, got inf"),
        (["rieszlog", "--b", "inf"], "b must be finite, got inf"),
        (["lacunary", "--gamma0", "inf"], "gamma0 must be finite, got inf"),
        (["lacunary", "--s0=-inf"], "s0 must be finite, got -inf"),
    ], ids=["sigma_zero", "sigma_negative", "n_empty_range", "j_not_int",
            "sigma_not_number", "lam_empty", "coeffs_not_number",
            "n_range_not_int", "dim_not_int", "n_terms_not_int", "dim_negative",
            "dim_zero", "gamma0_nan", "a_nan", "s0_nan", "logsing_gamma0_inf",
            "a_inf", "b_inf", "lacunary_gamma0_inf", "s0_inf"])
    def test_bad_value_exits_64_naming_its_flag(self, argv, message, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "w"))
        assert main(["witness", *argv]) == 64
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "w").exists()

    def test_infinite_p0_stays_accepted(self, tmp_path, monkeypatch):
        # NaN is rejected, infinity is not: lacunary_sum has a p0 = inf branch.
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "w"))
        assert main(["witness", "lacunary", "--p0", "inf"]) == 0
        assert (tmp_path / "w").exists()

    def test_infinite_p0_stays_accepted_by_logsing(self, tmp_path, monkeypatch):
        # p0 = inf is the power r^0; only p1 < p0 is asked of it.
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "w"))
        assert main(["witness", "logsing", "--p0", "inf"]) == 0
        assert (tmp_path / "w" / "logsing.csv").exists()

    def test_unread_witness_flags_exit_64(self, tmp_path, monkeypatch, capsys):
        # No kind reads --p or --gamma; neither may pass as a prefix of
        # --p0 or --gamma0 either.
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "w"))
        for flag in ("--p", "--gamma"):
            assert main(["witness", "peaks", flag, "7"]) == 64, flag
        assert not (tmp_path / "w").exists()


# Empty JSON values: a config key given one is not absent, so it must
# still hold a valid value.
EMPTY = [0, False, "", [], {}, None]


class TestVerify:
    def test_list_catalog(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("peaks", "translation", "dichotomy", "lacunary",
                     "oracle", "sharp", "coherence"):
            assert name in out

    def test_small_config_passes(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "v"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 0,
            "experiments": [
                {"id": "dichotomy"},
                {"id": "sharp", "overrides": {"count": 20}},
            ],
        }))
        assert main(["verify", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "ALL PASS" in text
        assert (out / "dichotomy_000.json").exists()
        assert (out / "dichotomy_000.csv").exists()
        csv_lines = (out / "dichotomy_000.csv").read_text().splitlines()
        assert csv_lines[0] == "parameter,src_norm,tgt_norm,ratio,config_hash"

    def test_unknown_experiment_exit_64(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "v"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": ["nonsense"]}))
        assert main(["verify", str(cfg)]) == 64

    def test_impossible_range_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "v"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 0,
            "experiments": [
                {"id": "peaks", "overrides": {"n_min": 3, "n_max": 30}},
            ],
        }))
        assert main(["verify", str(cfg)]) == 3
        assert "FAILURES PRESENT" in capsys.readouterr().out

    def test_outputs_deterministic(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3,
            "experiments": [{"id": "lacunary"}],
        }))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            monkeypatch.setenv("POWEMB_OUT", str(out))
            assert main(["verify", str(cfg)]) == 0
            outs.append((out / "lacunary_000.json").read_bytes()
                        + (out / "lacunary_000.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("payload, named, given", [*[(*row, {}) for row in [
        ({"experiments": [{"id": "translation",
                           "overrides": {"tolerence": 0.5, "gamma": [9]}}],
          "bogus_key": 1},
         ("translation", "tolerence", "gamma", "bogus_key", "tolerance")),
        ({"experiments": ["dichotomy"], "sede": 3}, ("sede",)),
        ({"experiments": [{"id": "dichotomy", "overide": {"p0": 3}}]},
         ("overide",)),
        ({"experiments": [{"overrides": {"p0": 3}}]}, ("'id'",)),
        ([1, 2], ("JSON object",)),
        ({"experiments": {"peaks": {"n_max": 5}}}, ("JSON array",)),
        ({"seed": "1", "experiments": ["dichotomy"]}, ("seed",)),
        ({"seed": 1.5, "experiments": ["dichotomy"]}, ("seed",)),
        ({"seed": True, "experiments": ["dichotomy"]}, ("seed",)),
        ({"experiments": [{"id": "sharp", "overrides": {"count": 3}},
                          {"id": "sharp", "overrides": {"count": 5}}]},
         ("'sharp' is listed more than once",)),
        ({"experiments": [{"id": ["sharp"]}]}, ("string 'id'",)),
        ({"experiments": ["dichotomy", {"id": "peaks", "overrides": {
            "grid": {"d": 1, "L": 16.0, "N": 1000}}}]},
         ("experiment 'peaks': N must be a power of two",)),
        ({"grid": {"d": 3, "L": 16.0, "N": 64}, "experiments": ["peaks", "nikolskij"]},
         ("experiment 'peaks': grid dimension", "experiment 'nikolskij': grid dimension")),
        # An empty value ran the whole catalog, the default grid or the
        # default directory.
        *[({"experiments": v}, (f"experiments must be a non-empty JSON "
                                f"array, got {json.dumps(v)}",))
          for v in EMPTY[:4]],
        *[({"grid": v, "experiments": ["dichotomy", "peaks"]},
           ("experiment 'peaks': grid",)) for v in EMPTY],
        *[({"experiments": [{"id": "peaks", "overrides": {"grid": v}}]},
           ("experiment 'peaks': grid",)) for v in EMPTY],
        ({"out": "", "experiments": ["dichotomy"]},
         ('out must be a non-empty path, got ""',)),
        ({"out": 5, "experiments": ["dichotomy"]},
         ("out must be a non-empty path, got 5",)),
        # A top-level grid that no listed experiment reads ran unchecked.
        ({"grid": 0, "experiments": ["dichotomy"]},
         ("top-level grid wants a {d, L, N} object, got 0",)),
    ]],
        # An empty --out or POWEMB_OUT wrote to ./powemb_out.
        ({"experiments": ["dichotomy"]},
         ('--out must be a non-empty path, got ""',), {"flags": ["--out", ""]}),
        ({"experiments": ["dichotomy"]},
         ('POWEMB_OUT must be a non-empty path, got ""',), {"env": ""}),
    ], ids=["misspelled_override", "top_level_key", "entry_key", "no_id",
            "not_object", "experiments_not_array", "seed_str", "seed_float", "seed_bool",
            "duplicate_id", "id_not_string", "grid_not_power_of_two", "top_level_grid_d",
            *[f"experiments={json.dumps(v)}" for v in EMPTY[:4]],
            *[f"top_level_grid={json.dumps(v)}" for v in EMPTY],
            *[f"override_grid={json.dumps(v)}" for v in EMPTY],
            "out_empty", "out_number", "unread_top_level_grid",
            "out_flag_empty", "out_env_empty"])
    def test_bad_config_exit_64(self, tmp_path, monkeypatch, capsys,
                                payload, named, given):
        # ``given`` holds global flags and a POWEMB_OUT other than ``out``.
        out = tmp_path / "v"
        monkeypatch.setenv("POWEMB_OUT", given.get("env", str(out)))
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert main([*given.get("flags", []), "verify", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert "internal error" not in err
        for word in named:
            assert word in err, (word, err)
        assert not out.exists()
        assert not (tmp_path / "powemb_out").exists()

    def test_run_experiments_rejects_duplicate_id(self):
        from powemb import suite

        with pytest.raises(RangeError, match="'sharp' is listed more than once"):
            suite.run_experiments(["sharp", "dichotomy", "sharp"])

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_subcommand_is_usage(self, capsys):
        assert main([]) == 64


class TestJobs:
    def test_jobs_2_matches_jobs_1(self, tmp_path, monkeypatch, capsys):
        # --jobs 2 runs each experiment in a worker process of its own,
        # --jobs 1 runs both in this one; the files must not differ.
        grid = {"d": 1, "L": 16.0, "N": 1024}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 0,
            "experiments": [
                {"id": "equivalences",
                 "overrides": {"grid": grid, "gammas": [0], "count": 3}},
                {"id": "gagliardo",
                 "overrides": {"grid": grid, "gammas": [0], "count": 3}},
            ],
        }))
        from powemb import verify

        outs = []
        for jobs in ("1", "2"):
            verify._sys_cache.clear()
            out = tmp_path / f"jobs{jobs}"
            monkeypatch.setenv("POWEMB_OUT", str(out))
            assert main(["--jobs", jobs, "verify", str(cfg)]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outs[0]) > 2
        assert outs[0] == outs[1]

    def test_workers_are_capped_by_the_experiment_count(
            self, tmp_path, monkeypatch, capsys):
        # The executor is replaced by one that records its size and runs
        # every call in this process, so no worker is started.
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recorder)
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "v"))
        cfg = tmp_path / "cfg.json"
        sharp = {"id": "sharp", "overrides": {"count": 2}}
        cfg.write_text(json.dumps({"experiments": ["dichotomy", sharp]}))
        assert main(["--jobs", "8", "verify", str(cfg)]) == 0
        assert sizes == [2]
        # One experiment runs in this process with no pool at all.
        cfg.write_text(json.dumps({"experiments": [sharp]}))
        assert main(["--jobs", "8", "verify", str(cfg)]) == 0
        assert sizes == [2]
        assert "[PASS] oracle_suite: sharp_case_fidelity" in capsys.readouterr().out

    def test_jobs_below_one_exit_64(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "v"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": ["dichotomy"]}))
        for jobs in ("0", "-4"):
            assert main(["--jobs", jobs, "verify", str(cfg)]) == 64, jobs
            assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


class TestGridFlag:
    def test_witness_honors_grid(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "w"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        code = main(["--grid", "1,16,4096", "witness", "peaks",
                     "--n", "3..6", "--j", "0"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        member = load_field(out / manifest["members"][0]["file"])
        assert member.values.shape == (4096,)

    @pytest.mark.parametrize("grid,message", [
        ("1,a,64", "--grid L must be a number, got 'a' in '1,a,64'"),
        ("1,16,x", "--grid N must be an integer, got 'x' in '1,16,x'"),
    ])
    def test_malformed_grid_is_a_usage_error(self, grid, message, tmp_path,
                                             monkeypatch, capsys):
        out = tmp_path / "w"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        assert main(["--grid", grid, "witness", "peaks"]) == 64
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_coherence_under_the_default_grid_written_out(
            self, tmp_path, monkeypatch, capsys):
        # The grid moves the peaks only; the failure translations stay on
        # the wide grid, as the bounded ones do.
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "v"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"d": 1, "L": 16.0, "N": 16384},
            "experiments": ["coherence"],
        }))
        assert main(["verify", str(cfg)]) == 0
        assert "ALL PASS" in capsys.readouterr().out

    def test_verify_config_grid_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "v"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 0,
            "grid": {"d": 1, "L": 16.0, "N": 8192},
            "experiments": [
                {"id": "peaks",
                 "overrides": {"combos": [{"p": 2, "gamma": 0}],
                               "j_values": [0], "n_max": 6}},
            ],
        }))
        assert main(["verify", str(cfg)]) == 0


class TestGlobalFlags:
    def test_unread_flags_rejected(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        cases = [
            (["--grid", "1,16,256", "verify", "--list"], "verify", "--grid"),
            (["--jobs", "7", "--seed", "3", "decide", SRC, TGT],
             "decide", "--jobs, --seed"),
            (["--seed", "3", "lattice", "specs.json"], "lattice", "--seed"),
            (["--grid", "1,16,256", "lattice", "specs.json"],
             "lattice", "--grid"),
            (["--jobs", "2", "witness", "peaks"], "witness peaks", "--jobs"),
            (["--seed", "3", "witness", "peaks"], "witness peaks", "--seed"),
            (["--seed", "3", "witness", "translation"],
             "witness translation", "--seed"),
            (["--seed", "3", "witness", "lacunary"],
             "witness lacunary", "--seed"),
            (["--grid", "2,8,64", "witness", "logsing"],
             "witness logsing", "--grid"),
            (["--grid", "1,16,256", "--seed", "1", "witness", "rieszlog"],
             "witness rieszlog", "--grid, --seed"),
            # each kind's own flags: a flag of another kind is not read
            (["witness", "peaks", "--n", "3..4", "--s0", "5", "--eps", "3",
              "--a", "9"], "witness peaks", "--s0, --a, --eps"),
            (["witness", "logsing", "--j", "4", "--lam", "2"],
             "witness logsing", "--j, --lam"),
            (["witness", "dilation", "--sigma", "2"], "witness dilation",
             "--sigma"),
            (["witness", "translation", "--t", "1"], "witness translation",
             "--t"),
            (["witness", "lacunary", "--n-terms", "4", "--dim", "2"],
             "witness lacunary", "--dim"),
            (["--seed", "3", "witness", "rieszlog", "--coeffs", "1,2",
              "--p1", "3"], "witness rieszlog", "--seed, --coeffs, --p1"),
            # a flag is given at any value, its default included
            (["witness", "dilation", "--n", "3..7"], "witness dilation",
             "--n"),
            (["witness", "peaks", "--t", "0.125,0.25,0.5,1"], "witness peaks",
             "--t"),
            (["witness", "logsing", "--lam", "4,8,16,32,64"],
             "witness logsing", "--lam"),
        ]
        for argv, what, named in cases:
            assert main(argv) == 64, argv
            err = capsys.readouterr().err
            assert f"error: {what} does not use {named}" in err, (argv, err)
        assert not out.exists()

    def test_read_flags_accepted(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "o"))
        assert main(["--jobs", "2", "--seed", "1", "verify", "--list"]) == 0
        assert main(["--seed", "3", "--grid", "1,16,1024", "witness",
                     "dilation", "--t", "0.5,1"]) == 0


class TestConfigGrid:
    BAD = {"d": 1, "L": 16.0, "N": 1000}  # not a power of two
    # Each grid with the words that must name its fault: an unknown key, a
    # d or N that is not an int (a float, even an integral one, or a bool),
    # an L that is not a finite int or float, a missing key, a list.
    REJECTED = [
        (BAD, "power of two"),
        ({"d": 1, "L": 16.0, "N": 4096, "bogus": 7}, "no key bogus"),
        ({"d": 1.9, "L": 16.0, "N": 4096}, "grid d must be an integer"),
        ({"d": 1, "L": 16.0, "N": 4096.5}, "grid N must be an integer"),
        ({"d": 1, "L": 16.0, "N": 4096.0}, "grid N must be an integer"),
        ({"d": True, "L": 16.0, "N": 4096}, "grid d must be an integer"),
        ({"d": 1, "L": 16.0}, "grid is missing 'N'"),
        ({"d": 1, "L": True, "N": 4096}, "grid L must be a finite number"),
        ({"d": 1, "L": "16", "N": 4096}, "grid L must be a finite number"),
        ({"d": 1, "L": math.inf, "N": 4096}, "grid L must be a finite number"),
        ({"d": 1, "N": 4096}, "grid is missing 'L'"),
        ([1, 16.0, 4096], "grid wants a {d, L, N} object"),
    ]

    def _cfg(self, tmp_path, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        return str(cfg)

    def test_every_lattice_runner_reads_its_grid(self):
        from powemb import suite

        lattice = [n for n in suite.CATALOG if "grid" in suite.parameters(n)]
        assert lattice == ["peaks", "translation", "nikolskij", "lacunary",
                           "equivalences", "gagliardo", "coherence"]
        # A bad grid is rejected before any experiment runs, and the one
        # message names the experiment and what is wrong with the grid.
        for grid, named in self.REJECTED:
            for name in lattice:
                with pytest.raises(RangeError) as exc:
                    suite.run_experiments([name, "dichotomy"],
                                          {name: {"grid": grid}})
                msg = str(exc.value)
                assert msg.startswith(f"experiment {name!r}: ")
                assert msg.count("experiment") == 1
                assert named in msg, (grid, name)

        # A good grid is built for the runner; a grid that raises when read
        # shows that each runner reads the one given.
        class Read(Exception):
            pass

        class Probe:
            def __getattr__(self, attr):
                raise Read(attr)

        for name in lattice:
            with pytest.raises(Read):
                suite.CATALOG[name][1](0, grid=Probe())

    def test_batch_runners_on_a_2d_grid(self):
        from powemb import suite

        # nikolskij's D^0 and d/dx_1 take the grid's d; on the default grid
        # they stay alpha=(0,) and alpha=(1,).
        grid = {"d": 2, "L": 8, "N": 64}
        sets = [{"p0": 2, "g0": 0.5, "p1": 2, "g1": 0},
                {"p0": 2, "g0": 0.5, "p1": 4, "g1": 1}]
        reps = suite.run_experiments(["nikolskij"], {"nikolskij": {
            "grid": grid, "bases": 1, "parameter_sets": sets,
            "t_values": [1, 2, 4, 8]}})["nikolskij"]
        assert [r.experiment_id[-13:] for r in reps] == [
            "alpha=(0, 0)]", "alpha=(1, 0)]"] * 2
        assert all(r.passed for r in reps)
        # Its one derivative makes equivalences' differentiation window an
        # equivalence in 1-D only, and the error report says so.
        [rep] = suite.run_experiments(["equivalences"], {"equivalences": {
            "grid": grid, "count": 1}})["equivalences"]
        assert rep.experiment_id == "equivalences[error]"
        assert rep.details["error"].startswith(
            "RangeError: equivalences needs a 1-D grid, got d = 2")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_top_level_grid_reaches_lattice_runners_only(
            self, tmp_path, monkeypatch, capsys, jobs):
        # A bad top-level grid exits 64 before any worker starts, naming
        # each lattice experiment it reaches and no other.
        out = tmp_path / "v"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        cfg = self._cfg(tmp_path, {"grid": self.BAD, "experiments": [
            {"id": "dichotomy"}, {"id": "gagliardo", "overrides": {"count": 1}},
        ]})
        assert main(["--jobs", jobs, "verify", cfg]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "experiment 'gagliardo': N must be a power of two" in captured.err
        assert "dichotomy" not in captured.err
        assert not out.exists()

    def test_config_hash_is_of_the_config_as_read(
            self, tmp_path, monkeypatch, capsys):
        # The top-level grid reaches the runner without entering the
        # entry's own overrides, so a config that spells out every key
        # hashes as written.
        from powemb.cli import _config_hash

        out = tmp_path / "v"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        payload = {"seed": 0, "grid": {"d": 1, "L": 16.0, "N": 1024},
                   "experiments": [{"id": "gagliardo",
                                    "overrides": {"count": 1, "gammas": [0]}}]}
        assert main(["verify", self._cfg(tmp_path, payload)]) == 0
        expected = _config_hash(payload)
        assert f"config_hash: {expected}" in capsys.readouterr().out
        report = json.loads((out / "gagliardo_000.json").read_text())
        assert report["config_hash"] == expected
        assert report["experiment_id"].startswith("gagliardo[")

    def test_grid_override_on_gridless_experiment_exit_64(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POWEMB_OUT", str(tmp_path / "v"))
        grid = {"d": 1, "L": 16.0, "N": 4096}
        for name in ("dichotomy", "oracle", "sharp"):
            cfg = self._cfg(tmp_path, {"experiments": [
                {"id": name, "overrides": {"grid": grid}}]})
            assert main(["verify", cfg]) == 64
            err = capsys.readouterr().err
            assert name in err and "grid" in err
        assert not (tmp_path / "v").exists()


class TestConfigValues:
    """A count or tolerance override is checked before any work starts."""

    @pytest.mark.parametrize("name,key,value,named", [
        ("sharp", "count", -5, "count must be an integer of at least 1, got -5"),
        ("sharp", "count", 0, "count must be an integer of at least 1, got 0"),
        ("sharp", "count", True,
         "count must be an integer of at least 1, got True"),
        ("sharp", "count", "abc",
         "count must be an integer of at least 1, got 'abc'"),
        ("peaks", "tolerance", "x",
         "tolerance must be a finite number above 0, got 'x'"),
        ("peaks", "tolerance", -1,
         "tolerance must be a finite number above 0, got -1"),
        # An empty list ran no check and read ALL PASS; a string was
        # iterated, so "24" ran p = "2" and p = "4".
        ("translation", "gammas", [],
         "gammas must be a non-empty list of numbers, got []"),
        ("translation", "ps", "24",
         "ps must be a non-empty list of numbers, got '24'"),
        ("equivalences", "gammas", [0, True],
         "gammas must be a non-empty list of numbers, got [0, True]"),
        ("translation", "lambdas", [4, "8"],
         "lambdas must be a non-empty list of numbers, got [4, '8']"),
        # [NaN] wrote five NaN FAIL reports and exited 3; a NaN lambda
        # failed with nonfinite_ratios.
        ("equivalences", "gammas", [math.nan],
         "gammas item must be a finite number, got nan"),
        ("translation", "lambdas", [4, 8, math.nan, 32],
         "lambdas item must be a finite number, got nan"),
        ("nikolskij", "t_values", [1, math.inf],
         "t_values item must be a finite number, got inf"),
        ("peaks", "combos", [{"p": 2, "gamma": 0}, 2],
         "combos must be a non-empty list of objects, "
         "got [{'p': 2, 'gamma': 0}, 2]"),
        # A combos item without gamma wrote a peaks[error] report reading
        # KeyError: 'gamma' and exited 3.
        ("peaks", "combos", [{"p": 2}],
         "combos item {'p': 2} is missing 'gamma'; an item takes p, gamma"),
        ("peaks", "combos", [{"p": 2, "gamma": 0, "q": 1}],
         "combos item {'p': 2, 'gamma': 0, 'q': 1} has no field 'q'; "
         "an item takes p, gamma"),
        ("peaks", "combos", [{"p": "2", "gamma": 0}],
         "combos item p must be a finite number, got '2'"),
        # A NaN p wrote peak_scaling[p=nan,...] and exited 3.
        ("peaks", "combos", [{"p": math.nan, "gamma": 0}],
         "combos item p must be a finite number, got nan"),
        ("peaks", "combos", [{"p": 2, "gamma": -math.inf}],
         "combos item gamma must be a finite number, got -inf"),
        ("nikolskij", "parameter_sets", [{"p0": 2, "g0": 0, "p1": 2}],
         "parameter_sets item {'p0': 2, 'g0': 0, 'p1': 2} is missing 'g1'; "
         "an item takes p0, g0, p1, g1"),
        ("nikolskij", "parameter_sets",
         [{"p0": 2, "g0": None, "p1": 2, "g1": 0}],
         "parameter_sets item g0 must be a finite number, got None"),
        # A NaN g0 raised a ConditionError comparing weight indices 0.0
        # and nan: exit 3.
        ("nikolskij", "parameter_sets",
         [{"p0": 2, "g0": math.nan, "p1": 2, "g1": 0}],
         "parameter_sets item g0 must be a finite number, got nan"),
        ("peaks", "j_values", [0, 2],
         "j_values item must be -1, 0 or 1, got 2"),
        ("peaks", "j_values", [0.5],
         "j_values item must be -1, 0 or 1, got 0.5"),
        ("peaks", "n_min", 1, "n_min must be an integer of at least 2, got 1"),
        ("peaks", "n_max", 6.0,
         "n_max must be an integer of at least 2, got 6.0"),
        ("lacunary", "n_values", [4, 0],
         "n_values item must be an integer of at least 1, got 0"),
        ("lacunary", "n_values", [4.5],
         "n_values item must be an integer of at least 1, got 4.5"),
        ("translation", "ps", [2, 0.5],
         "ps item must be a finite number of at least 1, got 0.5"),
        ("gagliardo", "p", 0.5,
         "p must be a finite number of at least 1, got 0.5"),
        ("dichotomy", "p0", "2",
         "p0 must be a finite number of at least 1, got '2'"),
        ("lacunary", "p1", math.inf,
         "p1 must be a finite number of at least 1, got inf"),
        ("gagliardo", "q", 0,
         "q must be a number of at least 1, or infinity, got 0"),
        ("lacunary", "q0", "inf",
         "q0 must be a number of at least 1, or infinity, got 'inf'"),
        ("lacunary", "q1", math.nan,
         "q1 must be a number of at least 1, or infinity, got nan"),
        ("gagliardo", "theta", 1.5, "theta must be a number in [0, 1], got 1.5"),
        ("dichotomy", "d", 0, "d must be an integer of at least 1, got 0"),
        ("dichotomy", "d", 1.0, "d must be an integer of at least 1, got 1.0"),
        ("dichotomy", "gamma0", "0", "gamma0 must be a finite number, got '0'"),
        ("dichotomy", "gamma1", math.nan,
         "gamma1 must be a finite number, got nan"),
        ("lacunary", "s0", True, "s0 must be a finite number, got True"),
        ("gagliardo", "s1", -math.inf, "s1 must be a finite number, got -inf"),
        # An integer no float holds raised an OverflowError: exit 70.
        ("gagliardo", "cap", 10 ** 400,
         f"cap must be a finite number above 0, got {10 ** 400!r}"),
    ], ids=["count=-5", "count=0", "count=true", "count=abc",
            "tolerance=x", "tolerance=-1", "gammas=[]", "ps=str",
            "gammas=bool-item", "lambdas=str-item", "gammas=nan-item",
            "lambdas=nan-item", "t_values=inf-item", "combos=number-item",
            "combos=missing-field", "combos=unknown-field",
            "combos=str-field", "combos=nan-field", "combos=inf-field",
            "parameter_sets=missing-field", "parameter_sets=null-field",
            "parameter_sets=nan-field", "j_values=2", "j_values=0.5",
            "n_min=1", "n_max=float", "n_values=0", "n_values=float",
            "ps=below-1", "p=0.5", "p0=str", "p1=inf", "q=0", "q0=str",
            "q1=nan", "theta=1.5", "d=0", "d=float", "gamma0=str",
            "gamma1=nan", "s0=bool", "s1=-inf", "cap=huge-int"])
    def test_rejected_value_exits_64(self, name, key, value, named, tmp_path,
                                     monkeypatch, capsys):
        out = tmp_path / "v"
        monkeypatch.setenv("POWEMB_OUT", str(out))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": [
            {"id": name, "overrides": {key: value}}]}))
        assert main(["verify", str(cfg)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("experiment") == 1
        assert f"experiment {name!r}: {named}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("name,key,value", [
        ("oracle", "triples", 0),
        ("oracle", "count", 2.0),
        ("nikolskij", "bases", 0),
        ("gagliardo", "cap", 0),
        ("gagliardo", "cap", math.inf),
        ("lacunary", "tolerance", math.nan),
        ("translation", "tolerance", False),
    ])
    def test_every_checked_key_rejected_before_work(self, name, key, value):
        from powemb import suite

        # Nikolskij with no bases ran no check and read ALL PASS.
        with pytest.raises(RangeError) as exc:
            suite.run_experiments([name], {name: {key: value}})
        assert str(exc.value).startswith(f"experiment {name!r}: {key} must be")

    def test_every_runner_parameter_has_one_row(self):
        # Each parameter a catalog runner declares is parsed by its one row,
        # every row is read by some runner, and every default (but an
        # absent grid) passes its row as it is.
        from powemb import suite

        declared = {}
        for name in suite.CATALOG:
            for key, default in suite.parameters(name).items():
                declared.setdefault(key, []).append(default)
        assert sorted(set(declared) - set(suite.OVERRIDES)) == []
        assert sorted(set(suite.OVERRIDES) - set(declared)) == []
        for key, defaults in declared.items():
            for default in defaults:
                if default is not None:
                    assert suite.OVERRIDES[key](default) == default, key

    def test_accepted_values_run(self):
        from powemb import suite

        reps = suite.run_experiments(
            ["sharp", "gagliardo"],
            {"sharp": {"count": 1},
             "gagliardo": {"count": 1, "cap": 10, "gammas": [0],
                           "grid": {"d": 1, "L": 16.0, "N": 1024}}})
        assert [r.experiment_id for r in reps["sharp"]] == [
            "sharp_case_fidelity[seed=0,count=1]"]
        assert len(reps["gagliardo"]) == 1


class TestMatrixRendering:
    def test_render_handles_errors_and_unknowns(self, capsys):
        from powemb.cli import _render_matrix
        from powemb.oracle import embedding_matrix
        from powemb.params import SpaceSpec
        from powemb.suite import S

        bad = SpaceSpec(family="B", d=1)  # missing p/gamma -> diagnostics
        rep = embedding_matrix([
            S("H", 2, 2, gamma="3/2"), S("H", 0, 2, gamma=0), bad,
        ])
        text = _render_matrix(rep)
        assert "?" in text and "!" in text and "transitivity" in text


class TestConfigOut:
    def test_config_out_field_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("POWEMB_OUT", raising=False)
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "from_config"
        cfg.write_text(json.dumps({
            "seed": 0,
            "out": str(out),
            "experiments": [{"id": "dichotomy"}],
        }))
        assert main(["verify", str(cfg)]) == 0
        assert (out / "dichotomy_000.json").exists()
