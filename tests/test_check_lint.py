"""RPC lint rules against the fixture corpus, plus scoping and suppression."""

from __future__ import annotations

import os

import pytest

from repro.check import lint_file, lint_paths, lint_source, render_findings
from repro.check.lint import (
    ALL_RULES,
    RPC001FloatOnRawWords,
    RPC002BareWidthConstant,
    RPC003SilentFloatPromotion,
    RPC004BareBuiltinRaise,
    RPC005ModuleMutableState,
    RPC006BlockingCallInAsync,
    RPC007UnguardedGlobalMutation,
)
from repro.errors import LintError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def fixture_source(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return handle.read()


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestRPC001:
    RULES = [RPC001FloatOnRawWords()]

    def test_bad_fixture_flags_division_and_float_literal(self):
        findings = lint_source(fixture_source("rpc001_bad.py"), rules=self.RULES)
        assert rule_ids(findings) == ["RPC001", "RPC001"]
        assert "division" in findings[0].message
        assert "float literal" in findings[1].message

    def test_good_fixture_is_clean(self):
        assert lint_source(fixture_source("rpc001_good.py"), rules=self.RULES) == []


class TestRPC002:
    RULES = [RPC002BareWidthConstant()]

    def test_bad_fixture_flags_mod_and_mask(self):
        findings = lint_source(fixture_source("rpc002_bad.py"), rules=self.RULES)
        assert rule_ids(findings) == ["RPC002", "RPC002"]
        assert "%" in findings[0].message
        assert "&" in findings[1].message

    def test_good_fixture_is_clean(self):
        assert lint_source(fixture_source("rpc002_good.py"), rules=self.RULES) == []


class TestRPC003:
    RULES = [RPC003SilentFloatPromotion()]

    def test_bad_fixture_flags_astype_and_dtype(self):
        findings = lint_source(fixture_source("rpc003_bad.py"), rules=self.RULES)
        assert rule_ids(findings) == ["RPC003", "RPC003"]

    def test_good_fixture_is_clean(self):
        assert lint_source(fixture_source("rpc003_good.py"), rules=self.RULES) == []


class TestRPC004:
    RULES = [RPC004BareBuiltinRaise()]

    def test_bad_fixture_flags_public_raise(self):
        findings = lint_source(fixture_source("rpc004_bad.py"), rules=self.RULES)
        assert rule_ids(findings) == ["RPC004"]
        assert "'validate'" in findings[0].message

    def test_good_fixture_is_clean(self):
        assert lint_source(fixture_source("rpc004_good.py"), rules=self.RULES) == []

    def test_dunder_methods_are_public(self):
        # Regression: __post_init__ starts with "_" and was treated as a
        # private helper, exempting every dataclass validator from the rule.
        findings = lint_source(
            fixture_source("rpc004_dunder_bad.py"), rules=self.RULES
        )
        assert rule_ids(findings) == ["RPC004"]
        assert "__post_init__" in findings[0].message


class TestRPC005:
    RULES = [RPC005ModuleMutableState()]

    def test_bad_fixture_flags_every_mutable_binding(self):
        findings = lint_source(fixture_source("rpc005_bad.py"), rules=self.RULES)
        assert rule_ids(findings) == ["RPC005", "RPC005", "RPC005"]
        assert "CACHE" in findings[0].message
        assert "SESSIONS" in findings[1].message
        assert "ACTIVE" in findings[2].message

    def test_good_fixture_is_clean(self):
        # Tuples, frozensets, scalars, and dunder metadata are all exempt.
        assert lint_source(fixture_source("rpc005_good.py"), rules=self.RULES) == []

    def test_suppressed_fixture_is_clean(self):
        findings = lint_source(
            fixture_source("rpc005_suppressed.py"), rules=self.RULES
        )
        assert findings == []

    def test_scope_is_the_serving_plane(self):
        rule = RPC005ModuleMutableState()
        assert rule.applies_to("src/repro/serve/server.py")
        assert not rule.applies_to("src/repro/fixedpoint/quantize.py")


class TestRPC006:
    RULES = [RPC006BlockingCallInAsync()]

    def test_bad_fixture_flags_sleep_open_and_subprocess(self):
        findings = lint_source(fixture_source("rpc006_bad.py"), rules=self.RULES)
        assert rule_ids(findings) == ["RPC006", "RPC006", "RPC006"]
        blocked = " ".join(finding.message for finding in findings)
        assert "time.sleep" in blocked
        assert "open" in blocked
        assert "subprocess.run" in blocked

    def test_good_fixture_is_clean(self):
        # Blocking calls live in a nested sync def (a run_in_executor
        # target) or in plain sync entry points — both exempt.
        assert lint_source(fixture_source("rpc006_good.py"), rules=self.RULES) == []

    def test_suppressed_fixture_is_clean(self):
        findings = lint_source(
            fixture_source("rpc006_suppressed.py"), rules=self.RULES
        )
        assert findings == []


class TestRPC007:
    RULES = [RPC007UnguardedGlobalMutation()]

    def test_bad_fixture_flags_both_global_writes(self):
        findings = lint_source(fixture_source("rpc007_bad.py"), rules=self.RULES)
        assert rule_ids(findings) == ["RPC007", "RPC007"]
        assert "COUNTER" in findings[0].message
        assert "MODEL" in findings[1].message

    def test_good_fixture_is_clean(self):
        # The write sits inside `with _STATE_LOCK:` — guarded.
        assert lint_source(fixture_source("rpc007_good.py"), rules=self.RULES) == []

    def test_suppressed_fixture_is_clean(self):
        findings = lint_source(
            fixture_source("rpc007_suppressed.py"), rules=self.RULES
        )
        assert findings == []


class TestSuppression:
    def test_noqa_markers(self):
        findings = lint_source(fixture_source("suppressed.py"), rules=ALL_RULES)
        # Only the mismatched marker (noqa-RPC002 on an RPC001 site) leaks.
        assert rule_ids(findings) == ["RPC001"]
        assert findings[0].line == 8

    def test_bare_noqa_suppresses_every_rule(self):
        source = "def f(word_raw):\n    return word_raw / 2  # repro: noqa\n"
        assert lint_source(source, rules=ALL_RULES) == []

    def test_comma_list_suppresses_exactly_the_named_rules(self):
        # astype(float64) on a raw word trips both RPC001 (float math on
        # raws) and RPC003 (silent float promotion); one marker covers both.
        line = 'out = word_raw.astype("float64") / 2'
        both = lint_source(f"{line}\n", rules=ALL_RULES)
        assert sorted(set(rule_ids(both))) == ["RPC001", "RPC003"]
        assert (
            lint_source(f"{line}  # repro: noqa-RPC001,RPC003\n", rules=ALL_RULES)
            == []
        )
        # Naming only one rule must leave the other finding intact.
        partial = lint_source(f"{line}  # repro: noqa-RPC003\n", rules=ALL_RULES)
        assert set(rule_ids(partial)) == {"RPC001"}


class TestEngine:
    def test_path_scoping_rpc001_only_in_fixedpoint_scope(self):
        rule = RPC001FloatOnRawWords()
        assert rule.applies_to("src/repro/fixedpoint/quantize.py")
        assert rule.applies_to("src/repro/serve/engine.py")
        assert rule.applies_to("src/repro/signal/fxfir.py")
        assert not rule.applies_to("src/repro/signal/stream.py")
        assert not rule.applies_to("src/repro/stats/normal.py")

    def test_rpc004_scope_is_whole_package(self):
        rule = RPC004BareBuiltinRaise()
        assert rule.applies_to("src/repro/stats/normal.py")
        assert not rule.applies_to("somewhere/else.py")

    def test_lint_file_applies_path_scope(self, tmp_path):
        # Outside every scope: no rule applies, even with violations present.
        path = tmp_path / "free.py"
        path.write_text(fixture_source("rpc001_bad.py"))
        assert lint_file(str(path)) == []

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "repro" / "fixedpoint"
        package.mkdir(parents=True)
        (package / "words.py").write_text(fixture_source("rpc001_bad.py"))
        (package / "clean.py").write_text(fixture_source("rpc001_good.py"))
        findings = lint_paths([str(tmp_path)])
        assert rule_ids(findings) == ["RPC001", "RPC001"]
        assert all("words.py" in finding.path for finding in findings)

    def test_source_tree_is_clean(self):
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        assert lint_paths([repo_src]) == []

    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n")

    def test_missing_file_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_file("/nonexistent/nope.py")

    def test_non_python_path_raises_lint_error(self, tmp_path):
        path = tmp_path / "notes.md"
        path.write_text("not python")
        with pytest.raises(LintError):
            lint_paths([str(path)])

    def test_render_findings_format(self):
        findings = lint_source(
            fixture_source("rpc002_bad.py"), path="fix.py",
            rules=[RPC002BareWidthConstant()],
        )
        text = render_findings(findings)
        assert text.splitlines()[0].startswith("fix.py:5:")
        assert text.splitlines()[-1] == "2 findings"
        assert render_findings([]) == "0 findings"
