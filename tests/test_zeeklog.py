"""Zeek ssl.log export/import round-trip tests."""

import datetime as dt
import io

import pytest

from repro.notary.zeeklog import (
    export_ssl_log,
    import_ssl_log,
    read_ssl_log,
    write_ssl_log,
)


@pytest.fixture(scope="module")
def exported(small_window_store, tmp_path_factory):
    path = tmp_path_factory.mktemp("zeek") / "ssl.log"
    rows = export_ssl_log(small_window_store, path)
    return path, rows, small_window_store


class TestExport:
    def test_row_count_matches_store(self, exported):
        path, rows, store = exported
        assert rows == len(store)

    def test_header_structure(self, exported):
        path, _, _ = exported
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#separator")
        fields_line = next(l for l in lines if l.startswith("#fields"))
        types_line = next(l for l in lines if l.startswith("#types"))
        assert len(fields_line.split("\t")) == len(types_line.split("\t"))
        assert lines[-1] == "#close"

    def test_no_ground_truth_labels_in_log(self, exported):
        path, _, _ = exported
        text = path.read_text()
        # A real monitor would not know these; the log must not either.
        assert "GridFTP" not in text
        assert "Chrome" not in text.replace("TLS_", "")


@pytest.fixture(scope="module")
def restored(exported):
    """The exported log imported back once, shared read-only."""
    path, _, _ = exported
    return import_ssl_log(path)


class TestRoundTrip:
    def test_import_preserves_counts(self, exported, restored):
        _, rows, _ = exported
        assert len(restored) == rows

    def test_import_preserves_monthly_fractions(self, exported, restored):
        _, _, original = exported
        month = dt.date(2015, 1, 1)
        for predicate in (
            lambda r: r.negotiated_mode_class == "RC4",
            lambda r: r.negotiated_mode_class == "AEAD",
            lambda r: r.advertises("3des"),
            lambda r: r.heartbeat_negotiated,
        ):
            assert restored.fraction(month, predicate, lambda r: r.established) == (
                pytest.approx(
                    original.fraction(month, predicate, lambda r: r.established),
                    abs=1e-9,
                )
            )

    def test_import_preserves_fingerprints(self, exported, restored):
        _, _, original = exported
        month = dt.date(2015, 1, 1)
        original_fps = {
            r.fingerprint for r in original.records(month) if r.fingerprint
        }
        restored_fps = {
            r.fingerprint for r in restored.records(month) if r.fingerprint
        }
        assert original_fps == restored_fps

    def test_analysis_runs_on_imported_store(self, restored):
        from repro.core import figures

        series = figures.fig2_negotiated_modes(restored)
        assert series["AEAD"]


class TestParserErrors:
    def test_data_before_fields_rejected(self):
        bogus = io.StringIO("1.5\t-\t-\n")
        with pytest.raises(ValueError, match="before its #fields"):
            read_ssl_log(bogus)

    def test_malformed_row_rejected(self, exported):
        path, _, _ = exported
        lines = path.read_text().splitlines()
        fields_index = next(i for i, l in enumerate(lines) if l.startswith("#fields"))
        data_index = next(
            i for i, l in enumerate(lines) if i > fields_index and not l.startswith("#")
        )
        lines[data_index] = lines[data_index] + "\textra\tcells"
        with pytest.raises(ValueError, match="malformed"):
            read_ssl_log(io.StringIO("\n".join(lines)))

    def test_empty_log(self):
        header = (
            "#separator \\x09\n#fields\tts\tweight\n#types\ttime\tdouble\n#close\n"
        )
        store = read_ssl_log(io.StringIO(header))
        assert len(store) == 0
