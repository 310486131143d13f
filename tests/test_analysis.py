"""Tests for :mod:`repro.analysis` -- the ``repro-lint`` framework.

Each rule is exercised against positive (``bad``) and negative (``good``)
fixture trees under ``tests/fixtures/lint/``; the trees embed a ``repro/``
directory so the walker assigns them real package names and the
package-scoped rules (obs layering, dtype policy, concurrency entry
points) behave exactly as they do on ``src/``.  The suite also covers the
framework itself: suppressions, baseline semantics, import-graph
construction and the CLI, plus a self-lint smoke test over the real tree.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    RuleDriver,
    apply_suppressions,
    build_import_graph,
    default_rules,
    load_modules,
    main,
    module_name_for,
    rule_catalog,
)
from repro.analysis.findings import ERROR, WARNING
from repro.analysis.suppressions import SuppressionIndex
from repro.analysis.visitor import Rule

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).resolve().parents[1] / "src"

ALL_RULE_IDS = (
    "DET001",
    "KEY001",
    "SER001",
    "OBS001",
    "THR001",
    "DTY001",
)


def lint_tree(root, only=None):
    """Run the (sub)pack over a fixture tree; returns non-suppressed findings."""
    errors = []
    modules = load_modules([str(root)], errors=errors)
    assert not errors, [finding.render() for finding in errors]
    findings = RuleDriver(default_rules(only)).run(modules)
    kept, _suppressed = apply_suppressions(findings, modules)
    return kept


def by_file(findings):
    grouped = {}
    for finding in findings:
        grouped.setdefault(os.path.basename(finding.path), []).append(finding)
    return grouped


# ---------------------------------------------------------------------------
# Rule fixtures: every rule fires on its bad fixture, stays quiet on good.
# ---------------------------------------------------------------------------


class TestDeterminismRule:
    def test_bad_fixture_flags_rng_and_wallclock(self):
        grouped = by_file(lint_tree(FIXTURES / "det001", only=["DET001"]))
        messages = [f.message for f in grouped["bad.py"]]
        assert len(messages) == 5
        assert any("numpy.random.seed" in m for m in messages)
        assert any("numpy.random.rand" in m for m in messages)
        assert any("random.choice" in m for m in messages)
        assert any("time.time" in m for m in messages)
        assert any("datetime.datetime.now" in m for m in messages)
        assert all(f.severity == ERROR for f in grouped["bad.py"])

    def test_good_fixture_is_clean(self):
        grouped = by_file(lint_tree(FIXTURES / "det001", only=["DET001"]))
        assert "good.py" not in grouped

    def test_obs_module_may_read_wallclock(self):
        grouped = by_file(lint_tree(FIXTURES / "det001", only=["DET001"]))
        assert "clock.py" not in grouped


class TestCacheKeyHygieneRule:
    def test_bad_fixture_flags_leaked_field_and_stale_exemption(self):
        grouped = by_file(lint_tree(FIXTURES / "key001", only=["KEY001"]))
        messages = [f.message for f in grouped["bad.py"]]
        assert len(messages) == 2
        assert any("LeakySpec" in m and "label" in m for m in messages)
        assert any("StaleExempt" in m and "gone" in m for m in messages)

    def test_good_fixture_is_clean(self):
        # Direct reference, CACHE_KEY_EXEMPT, to_dict()/asdict() delegation
        # and a key-less dataclass must all pass.
        grouped = by_file(lint_tree(FIXTURES / "key001", only=["KEY001"]))
        assert "good.py" not in grouped


class TestSerdeContractRule:
    def test_bad_fixture_flags_unpaired_serde_and_non_json_payloads(self):
        grouped = by_file(lint_tree(FIXTURES / "ser001", only=["SER001"]))
        messages = [f.message for f in grouped["bad.py"]]
        assert len(messages) == 6
        assert any("WriteOnly" in m and "from_dict" in m for m in messages)
        assert any("ReadOnly" in m and "to_dict" in m for m in messages)
        assert sum("not JSON-encodable" in m for m in messages) == 3
        assert any("payload key" in m for m in messages)

    def test_good_fixture_is_clean(self):
        grouped = by_file(lint_tree(FIXTURES / "ser001", only=["SER001"]))
        assert "good.py" not in grouped


class TestObsLayeringRule:
    def test_bad_fixtures_flag_all_four_checks(self):
        grouped = by_file(lint_tree(FIXTURES / "obs001", only=["OBS001"]))
        obs_messages = [f.message for f in grouped["bad.py"]]
        assert len(obs_messages) == 2
        assert any("default_rng" in m for m in obs_messages)
        assert any("repro.utils.fingerprint" in m for m in obs_messages)
        chain_messages = [f.message for f in grouped["fingerprint.py"]]
        assert len(chain_messages) == 1
        assert "repro.utils.fingerprint -> repro.obs.metrics" in chain_messages[0]
        key_messages = [f.message for f in grouped["keys_bad.py"]]
        assert len(key_messages) == 1
        assert "cache_key" in key_messages[0] and "counter" in key_messages[0]

    def test_good_fixtures_are_clean(self):
        grouped = by_file(lint_tree(FIXTURES / "obs001", only=["OBS001"]))
        assert "good.py" not in grouped  # obs may observe, instrument, stamp
        assert "keys_good.py" not in grouped  # instrumented, obs-free cache_key
        assert "metrics.py" not in grouped


class TestConcurrencyRule:
    def test_bad_fixture_flags_unlocked_mutations_on_worker_path(self):
        grouped = by_file(lint_tree(FIXTURES / "thr001", only=["THR001"]))
        messages = [f.message for f in grouped["shared_bad.py"]]
        assert len(messages) == 2
        assert all("record()" in m for m in messages)
        assert any("'_RESULTS'" in m for m in messages)
        assert any("'_TOTAL'" in m for m in messages)
        assert all(f.severity == WARNING for f in grouped["shared_bad.py"])

    def test_locked_mutation_is_clean(self):
        grouped = by_file(lint_tree(FIXTURES / "thr001", only=["THR001"]))
        assert "shared_good.py" not in grouped

    def test_unreachable_module_is_clean(self):
        grouped = by_file(lint_tree(FIXTURES / "thr001", only=["THR001"]))
        assert "offpath.py" not in grouped


class TestDtypePolicyRule:
    def test_bad_fixture_flags_bare_dtype_literals(self):
        grouped = by_file(lint_tree(FIXTURES / "dty001", only=["DTY001"]))
        messages = [f.message for f in grouped["bad.py"]]
        assert len(messages) == 2
        assert any("np.float32" in m for m in messages)
        assert any("np.float64" in m for m in messages)

    def test_comparisons_policy_module_and_non_nn_code_are_clean(self):
        grouped = by_file(lint_tree(FIXTURES / "dty001", only=["DTY001"]))
        assert "good.py" not in grouped  # dtype *check* picks a fast path
        assert "dtype.py" not in grouped  # the policy module defines dtypes
        assert "elsewhere.py" not in grouped  # outside repro.nn


# ---------------------------------------------------------------------------
# Framework: walker, import graph, suppressions, baseline, driver.
# ---------------------------------------------------------------------------


class TestModuleNames:
    def test_anchored_at_repro(self):
        assert module_name_for("src/repro/obs/top.py") == "repro.obs.top"
        assert module_name_for("src/repro/__init__.py") == "repro"

    def test_anchored_at_last_repro_segment(self):
        path = os.path.join("tmp", "repro", "x", "repro", "obs", "m.py")
        assert module_name_for(path) == "repro.obs.m"

    def test_no_anchor_falls_back_to_stem(self):
        assert module_name_for("scripts/tool.py") == "tool"


class TestImportGraph:
    @pytest.fixture()
    def graph(self):
        modules = load_modules([str(FIXTURES / "obs001")])
        return build_import_graph(modules)

    def test_internal_edges(self, graph):
        assert "repro.utils.fingerprint" in graph.imports_of("repro.obs.bad")
        assert "repro.obs.metrics" in graph.imports_of("repro.utils.fingerprint")

    def test_external_imports_tracked_by_top_level_name(self, graph):
        assert graph.imports_external("repro.obs.bad", "numpy")
        assert not graph.imports_external("repro.obs.metrics", "numpy")

    def test_reachability_is_transitive(self, graph):
        reachable = graph.reachable_from("repro.utils.fingerprint")
        assert "repro.obs.metrics" in reachable
        # No edge back out of the stub metrics module.
        assert graph.reachable_from("repro.obs.metrics") == {"repro.obs.metrics"}

    def test_import_chain_is_shortest_path(self, graph):
        chain = graph.import_chain("repro.utils.fingerprint", "repro.obs.metrics")
        assert chain == ["repro.utils.fingerprint", "repro.obs.metrics"]
        assert graph.import_chain("repro.obs.metrics", "repro.obs.bad") == []

    def test_from_import_of_submodules_resolves_each_target(self):
        modules = load_modules([str(FIXTURES / "thr001")])
        graph = build_import_graph(modules)
        assert graph.imports_of("repro.engine.workers") == {
            "repro.engine.shared_bad",
            "repro.engine.shared_good",
        }


class TestSuppressions:
    def test_line_directive_with_justification(self):
        index = SuppressionIndex(
            ["x = 1", "y = bad()  # repro-lint: disable=DET001 -- fixture"]
        )
        assert index.is_suppressed("DET001", 2)
        assert not index.is_suppressed("DET001", 1)
        assert not index.is_suppressed("KEY001", 2)

    def test_multi_rule_and_all(self):
        index = SuppressionIndex(
            ["a()  # repro-lint: disable=DET001, KEY001", "b()  # repro-lint: disable=all"]
        )
        assert index.is_suppressed("DET001", 1)
        assert index.is_suppressed("KEY001", 1)
        assert not index.is_suppressed("SER001", 1)
        assert index.is_suppressed("SER001", 2)

    def test_file_wide_directive(self):
        index = SuppressionIndex(
            ["# repro-lint: disable-file=THR001 -- whole module is driver-only", "x()"]
        )
        assert index.is_suppressed("THR001", 1)
        assert index.is_suppressed("THR001", 2)
        assert not index.is_suppressed("DET001", 2)

    def test_driver_integration(self, tmp_path):
        target = tmp_path / "repro" / "engine" / "suppressed.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import numpy as np\n\n\n"
            "def draw():\n"
            "    return np.random.rand()  # repro-lint: disable=DET001 -- fixture\n"
        )
        modules = load_modules([str(tmp_path)])
        findings = RuleDriver(default_rules(["DET001"])).run(modules)
        kept, suppressed = apply_suppressions(findings, modules)
        assert kept == []
        assert len(suppressed) == 1
        assert suppressed[0].rule_id == "DET001"


class TestBaseline:
    @staticmethod
    def finding(message="boom", path="src/repro/x.py"):
        return Finding(
            rule_id="DET001",
            severity=ERROR,
            path=path,
            line=3,
            col=0,
            message=message,
        )

    def test_roundtrip_and_line_free_matching(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self.finding()]).save(str(path))
        loaded = Baseline.load(str(path))
        moved = Finding(
            rule_id="DET001",
            severity=ERROR,
            path="src/repro/x.py",
            line=99,  # unrelated edits moved the finding
            col=4,
            message="boom",
        )
        new, baselined, stale = loaded.split([moved])
        assert new == [] and baselined == [moved] and stale == []

    def test_new_and_stale_entries(self):
        baseline = Baseline.from_findings([self.finding("gone")])
        new, baselined, stale = baseline.split([self.finding("fresh")])
        assert [f.message for f in new] == ["fresh"]
        assert baselined == []
        assert stale == [("DET001", "src/repro/x.py", "gone")]

    def test_rewrite_keeps_prior_justifications(self):
        previous = Baseline({self.finding().baseline_key: "audited in PR 7"})
        rebuilt = Baseline.from_findings([self.finding()], previous=previous)
        assert rebuilt.entries[self.finding().baseline_key] == "audited in PR 7"

    def test_rejects_non_baseline_documents(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"not": "a baseline"}')
        with pytest.raises(ValueError):
            Baseline.load(str(path))

    def test_rejects_unknown_versions(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValueError):
            Baseline.load(str(path))


class TestDriver:
    def test_duplicate_rule_ids_rejected(self):
        class A(Rule):
            rule_id = "DUP001"

        with pytest.raises(ValueError):
            RuleDriver([A(), A()])

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Finding(
                rule_id="X", severity="fatal", path="p", line=1, col=0, message="m"
            )

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError):
            default_rules(["NOPE001"])

    def test_catalog_covers_the_full_pack(self):
        assert tuple(sorted(rule_catalog())) == tuple(sorted(ALL_RULE_IDS))


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


class TestCli:
    def test_findings_exit_one_with_json_report(self, capsys):
        rc = main(
            [str(FIXTURES / "dty001"), "--no-baseline", "--format", "json"]
        )
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["findings"] == 2
        assert document["summary"]["warnings"] == 2
        assert {row["rule"] for row in document["findings"]} == {"DTY001"}
        assert all(row["status"] == "new" for row in document["findings"])

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        target = tmp_path / "repro" / "clean.py"
        target.parent.mkdir(parents=True)
        target.write_text("VALUE = 1\n")
        assert main([str(tmp_path), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_rules_subset(self, capsys):
        rc = main(
            [
                str(FIXTURES / "det001"),
                "--no-baseline",
                "--format",
                "json",
                "--rules",
                "KEY001,SER001",
            ]
        )
        assert rc == 0  # the det001 tree only violates DET001
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["findings"] == 0

    def test_write_baseline_then_clean_then_stale(self, capsys, tmp_path):
        baseline = tmp_path / ".repro-lint-baseline.json"
        tree = str(FIXTURES / "dty001")
        assert main([tree, "--write-baseline", "--baseline", str(baseline)]) == 0
        capsys.readouterr()

        # Grandfathered findings no longer fail the build...
        rc = main([tree, "--baseline", str(baseline), "--format", "json"])
        out = json.loads(capsys.readouterr().out.split("\nrepro-lint:")[0])
        assert rc == 0
        assert out["summary"]["baselined"] == 2
        assert {row["status"] for row in out["findings"]} == {"baselined"}

        # ...but entries matching nothing (the debt was paid) fail as stale.
        rc = main(
            [str(FIXTURES / "key001"), "--baseline", str(baseline)]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "stale baseline entry" in captured.err

    def test_output_file_keeps_terminal_summary(self, capsys, tmp_path):
        report = tmp_path / "lint-report.json"
        rc = main(
            [
                str(FIXTURES / "dty001"),
                "--no-baseline",
                "--format",
                "json",
                "--output",
                str(report),
            ]
        )
        assert rc == 1
        document = json.loads(report.read_text())
        assert document["summary"]["findings"] == 2
        assert "repro-lint: 2 finding(s)" in capsys.readouterr().out

    def test_github_format_emits_workflow_commands(self, capsys):
        rc = main(
            [str(FIXTURES / "dty001"), "--no-baseline", "--format", "github"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "::warning file=" in out
        assert "title=DTY001" in out

    def test_list_rules_covers_the_pack(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["--rules", "NOPE001"]) == 2
        assert "NOPE001" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys, tmp_path):
        assert main([str(tmp_path / "does-not-exist")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_becomes_lint000(self, capsys, tmp_path):
        target = tmp_path / "repro" / "broken.py"
        target.parent.mkdir(parents=True)
        target.write_text("def broken(:\n")
        rc = main([str(tmp_path), "--no-baseline", "--format", "json"])
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert [row["rule"] for row in document["findings"]] == ["LINT000"]


# ---------------------------------------------------------------------------
# Self-lint: the real pack over the real tree must ship clean.
# ---------------------------------------------------------------------------


class TestSelfLint:
    def test_src_tree_is_clean(self, capsys):
        rc = main([str(SRC), "--no-baseline", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert rc == 0, document["findings"]
        assert document["summary"]["findings"] == 0
        # The first-run cleanup audited and suppressed real sites; the
        # directives must stay visible in the report rather than vanish.
        assert document["summary"]["suppressed"] > 0

    def test_checked_in_baseline_is_empty(self):
        baseline = Baseline.load(
            str(Path(__file__).resolve().parents[1] / ".repro-lint-baseline.json")
        )
        assert baseline.entries == {}
