"""The ``python -m repro analyze`` subcommand."""

import json

from repro.__main__ import ANALYZE_SCHEMA_VERSION, main


class TestAnalyze:
    def test_app_target_reports_every_kernel(self, capsys):
        assert main(["analyze", "wavetoy"]) == 0
        out = capsys.readouterr().out
        for kernel in ("wt_step", "wt_init", "wt_norm", "wt_startup"):
            assert kernel in out
        assert "program AVF" in out

    def test_single_kernel_target(self, capsys):
        assert main(["analyze", "wt_norm"]) == 0
        out = capsys.readouterr().out
        assert "wt_norm" in out
        assert "wt_step" not in out

    def test_json_output_has_register_scores(self, capsys):
        assert main(["analyze", "wavetoy", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {f["name"] for f in payload["functions"]}
        assert "wt_step" in names
        step = next(f for f in payload["functions"] if f["name"] == "wt_step")
        assert set(step["register_avf"]) == {
            "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
        }
        assert 0.0 <= step["text_avf"] <= 1.0

    def test_lint_clean_apps_exit_zero(self, capsys):
        for target in ("wavetoy", "moldyn", "climate", "ablation"):
            assert main(["analyze", "--lint", target]) == 0
            assert "0 diagnostic(s)" in capsys.readouterr().out

    def test_lint_json_payload(self, capsys):
        assert main(["analyze", "--lint", "--json", "ablation"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []

    def test_unknown_target_is_an_error(self, capsys):
        assert main(["analyze", "nonesuch"]) == 2
        assert "unknown analysis target" in capsys.readouterr().err


class TestAnalyzeMpi:
    def test_shipped_apps_lint_clean(self, capsys):
        for target in ("wavetoy", "moldyn", "climate"):
            assert main(["analyze", "--mpi", "--lint", target]) == 0
            out = capsys.readouterr().out
            assert "0 diagnostic(s)" in out
            assert "dry run completed" in out

    def test_buggy_fixture_exits_nonzero(self, capsys):
        assert main(["analyze", "--mpi", "--lint", "buggy"]) == 1
        out = capsys.readouterr().out
        for code in ("SA103", "SA104", "SA106", "SA107"):
            assert code in out
        assert "0 diagnostic(s)" not in out

    def test_human_output_has_vulnerability_map(self, capsys):
        assert main(["analyze", "--mpi", "wavetoy"]) == 0
        out = capsys.readouterr().out
        assert "MPI events" in out
        assert "elided kernel calls" in out
        assert "header" in out  # the per-rank map mentions header bytes

    def test_json_schema(self, capsys):
        assert main(["analyze", "--mpi", "--json", "climate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "climate"
        assert payload["nprocs"] == 4
        assert payload["status"] == "completed"
        assert set(payload["skeleton"]) == {"events", "packets", "kernel_calls"}
        vuln = payload["vulnerability"]
        assert 0.0 < vuln["structural_score"] < 1.0
        assert vuln["total_bytes"] > 0
        assert len(vuln["ranks"]) == 4
        assert {r["rank"] for r in vuln["ranks"]} == {0, 1, 2, 3}
        assert "diagnostics" not in payload  # only present with --lint

    def test_json_lint_diagnostics(self, capsys):
        assert main(["analyze", "--mpi", "--lint", "--json", "buggy"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert codes == {"SA103", "SA104", "SA106", "SA107"}
        for d in payload["diagnostics"]:
            assert set(d) == {"code", "function", "insn_index", "message"}

    def test_nprocs_flag(self, capsys):
        assert main(["analyze", "--mpi", "--json", "--nprocs", "2", "wavetoy"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nprocs"] == 2
        assert len(payload["vulnerability"]["ranks"]) == 2

    def test_unknown_mpi_target_is_an_error(self, capsys):
        assert main(["analyze", "--mpi", "wt_step"]) == 2
        err = capsys.readouterr().err
        assert "unknown MPI analysis target" in err
        assert "buggy" in err  # the fixture is advertised


class TestAnalyzeOutcomes:
    def test_wavetoy_audit_is_clean(self, capsys):
        assert main(["analyze", "--outcomes", "--nprocs", "2", "wavetoy"]) == 0
        out = capsys.readouterr().out
        assert "audit: 0 finding(s)" in out
        assert "hang-bit floor" in out
        assert "regular_reg" in out and "message" in out

    def test_json_payload(self, capsys):
        assert (
            main(["analyze", "--outcomes", "--json", "--nprocs", "2", "wavetoy"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == ANALYZE_SCHEMA_VERSION
        assert payload["target"] == "wavetoy"
        assert payload["nprocs"] == 2
        assert payload["diagnostics"] == []
        regions = {r["region"] for r in payload["regions"]}
        assert regions == {"regular_reg", "text", "data", "bss", "message"}
        for r in payload["regions"]:
            # the masked stratum is oracle-proof-only, in the CLI too
            assert r["strata"].get("masked", 0) == r["masked_oracle_proven"]
        assert payload["windows"]["static"][0] < payload["windows"]["static"][1]

    def test_unknown_target_is_an_error(self, capsys):
        assert main(["analyze", "--outcomes", "nonesuch"]) == 2
        assert capsys.readouterr().err


class TestAnalyzeTranslate:
    def test_text_lists_bulk_loops(self, capsys):
        assert main(["analyze", "--translate", "wt_step"]) == 0
        out = capsys.readouterr().out
        assert "loop at insn 5: bulk entry" in out
        assert "8 stream(s)" in out

    def test_json_lists_bulk_loops(self, capsys):
        assert main(["analyze", "--translate", "--json", "climate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == ANALYZE_SCHEMA_VERSION
        loops = {
            k["name"]: k["bulk_loops"] for k in payload["kernels"]
        }
        assert len(loops["cam_physics"]) == 1
        assert len(loops["cam_dynamics"]) == 1
        assert loops["cam_diag"] == []


class TestSchemaVersion:
    def test_every_json_emitter_stamps_the_shared_version(self, capsys):
        emitters = (
            ["analyze", "--json", "wavetoy"],
            ["analyze", "--lint", "--json", "ablation"],
            ["analyze", "--mpi", "--json", "--nprocs", "2", "wavetoy"],
            ["analyze", "--propagation", "--json", "wavetoy"],
            ["analyze", "--outcomes", "--json", "--nprocs", "2", "wavetoy"],
            ["analyze", "--translate", "--json", "wavetoy"],
        )
        for argv in emitters:
            assert main(argv) == 0, argv
            payload = json.loads(capsys.readouterr().out)
            assert payload["schema_version"] == ANALYZE_SCHEMA_VERSION, argv
