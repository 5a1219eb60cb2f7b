"""Scratch volume prerequisites that can be checked without mounting anything."""
from seqbench import volumes


def test_mkfs_is_found_in_the_sbin_directories_when_path_is_empty(tmp_path, monkeypatch):
    fake = tmp_path / "mkfs.ext4"
    fake.write_text("#!/bin/sh\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", "")
    monkeypatch.setattr(volumes, "_MKFS_DIRS", (str(tmp_path / "missing"), str(tmp_path)))
    assert volumes._find_mkfs() == str(fake)
    fake.chmod(0o644)  # no execute bit, so not a tool even for root
    assert volumes._find_mkfs() is None
