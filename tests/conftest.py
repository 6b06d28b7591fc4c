from pathlib import Path

import pytest


@pytest.fixture
def crlf_text_mode(monkeypatch, tmp_path_factory):
    """``Path.open`` in text mode writes each "\\n" as "\\r\\n", as text mode does
    on a platform whose line end that is; binary mode is left as it is."""
    opened = Path.open

    def open_crlf(self, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
        if "b" not in mode:
            newline = "\r\n"
        return opened(self, mode, buffering, encoding, errors, newline)

    monkeypatch.setattr(Path, "open", open_crlf)
    probe = tmp_path_factory.mktemp("crlf") / "probe.txt"
    probe.write_text("a\n")
    assert probe.read_bytes() == b"a\r\n"  # Path.write_text goes through the patch
