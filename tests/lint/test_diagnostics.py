"""Tests for the diagnostics core: spans, diagnostics, reports."""

import json

import pytest

from repro.lint import (CODES, RUNTIME_ERROR_CODES, Diagnostic, LintReport,
                        Severity, Span, default_severity, title)


class TestCodeRegistry:
    def test_every_code_has_severity_and_title(self):
        for code, info in CODES.items():
            assert code.startswith("AVD") and len(code) == 6
            assert isinstance(info.severity, Severity)
            assert info.title

    def test_runtime_error_codes_are_registered(self):
        assert RUNTIME_ERROR_CODES <= set(CODES)

    def test_degradation_event_codes_are_registered(self):
        from repro.resilience.events import EVENT_CODES
        assert set(EVENT_CODES.values()) <= set(CODES)

    def test_unknown_degradation_kind_has_no_code(self):
        from repro.resilience.events import DegradationEvent
        with pytest.raises(KeyError):
            DegradationEvent("no-such-kind").to_diagnostic()

    def test_default_severity_known_codes(self):
        assert default_severity("AVD104") is Severity.ERROR
        assert default_severity("AVD105") is Severity.WARNING
        assert default_severity("AVD210") is Severity.INFO

    def test_default_severity_unknown_code_is_error(self):
        assert default_severity("AVD999") is Severity.ERROR
        assert title("AVD999") == "unknown diagnostic"

    def test_title_lookup(self):
        assert title("AVD104") == "division by zero"


class TestSpan:
    def test_describe_line_only(self):
        assert Span(line=7).describe() == "line 7"

    def test_describe_offsets_and_excerpt(self):
        span = Span(line=3, start=4, end=9, source="100/(5-n)")
        assert span.describe() == "line 3, col 5-9, in '(5-n)'"

    def test_describe_empty_when_unknown(self):
        assert Span().describe() == ""

    def test_dict_round_trip(self):
        span = Span(line=2, start=1, end=4, source="a+b")
        assert Span.from_dict(span.to_dict()) == span


class TestDiagnostic:
    def test_new_uses_registry_severity(self):
        assert Diagnostic.new("AVD104", "boom").severity is Severity.ERROR
        assert Diagnostic.new("AVD105", "maybe").severity is Severity.WARNING

    def test_new_severity_override(self):
        upgraded = Diagnostic.new("AVD111", "always below 1",
                                  severity=Severity.ERROR)
        assert upgraded.severity is Severity.ERROR

    def test_legacy_text_with_and_without_context(self):
        with_ctx = Diagnostic.new("AVD201", "unknown resource type",
                                  context="tier 'web' option 'rZ'")
        assert with_ctx.legacy_text() == \
            "tier 'web' option 'rZ': unknown resource type"
        assert Diagnostic.new("AVD002", "bad model").legacy_text() == \
            "bad model"

    def test_format_includes_code_severity_span(self):
        diagnostic = Diagnostic.new("AVD104", "division by zero",
                                    span=Span(line=12), context="tier 'a'")
        text = diagnostic.format()
        assert text == ("AVD104 error: tier 'a': division by zero "
                        "[line 12]")

    def test_format_without_span(self):
        assert Diagnostic.new("AVD002", "oops").format() == \
            "AVD002 error: oops"

    def test_dict_round_trip(self):
        diagnostic = Diagnostic.new(
            "AVD105", "possible division by zero",
            span=Span(line=4, start=2, end=7, source="1/(n-2)"),
            context="tier 'web'")
        assert Diagnostic.from_dict(diagnostic.to_dict()) == diagnostic

    def test_dict_round_trip_spanless(self):
        diagnostic = Diagnostic.new("AVD208", "shared name")
        assert Diagnostic.from_dict(diagnostic.to_dict()) == diagnostic


def _report():
    return LintReport([
        Diagnostic.new("AVD210", "unused resource"),
        Diagnostic.new("AVD104", "division by zero", span=Span(line=2)),
        Diagnostic.new("AVD105", "possible division by zero"),
    ])


class TestLintReport:
    def test_counts_and_accessors(self):
        report = _report()
        assert report.counts() == (1, 1, 1)
        assert len(report) == 3
        assert [d.code for d in report.errors] == ["AVD104"]
        assert [d.code for d in report.warnings] == ["AVD105"]
        assert [d.code for d in report.infos] == ["AVD210"]
        assert report.has_errors

    def test_exit_codes(self):
        assert _report().exit_code() == 1
        warnings_only = LintReport([Diagnostic.new("AVD105", "w")])
        assert warnings_only.exit_code() == 0
        assert warnings_only.exit_code(strict=True) == 1
        infos_only = LintReport([Diagnostic.new("AVD210", "i")])
        assert infos_only.exit_code(strict=True) == 0
        assert LintReport().exit_code(strict=True) == 0

    def test_to_text_orders_errors_first(self):
        lines = _report().to_text().splitlines()
        assert lines[0].startswith("AVD104 error")
        assert lines[1].startswith("AVD105 warning")
        assert lines[2].startswith("AVD210 info")
        assert lines[3] == "1 error(s), 1 warning(s), 1 info(s)"

    def test_to_text_empty(self):
        assert LintReport().to_text() == "ok: no problems found"

    def test_json_round_trip(self):
        report = _report()
        payload = json.loads(report.to_json())
        assert payload["summary"] == {"errors": 1, "warnings": 1,
                                      "infos": 1}
        recovered = LintReport.from_json(report.to_json())
        assert recovered.diagnostics == report.diagnostics
        # Serializing again is a fixed point.
        assert recovered.to_json() == report.to_json()

    def test_add_and_extend(self):
        report = LintReport()
        report.add(Diagnostic.new("AVD104", "a"))
        report.extend([Diagnostic.new("AVD105", "b")])
        assert [d.code for d in report] == ["AVD104", "AVD105"]
