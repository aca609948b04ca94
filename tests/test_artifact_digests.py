"""scripts/artifact_digests.py, with this checkout standing in for the parent."""


def test_checkout_against_itself_shows_no_difference(repo_root, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(repo_root / "scripts"))
    import artifact_digests

    monkeypatch.setattr(artifact_digests, "export", lambda ref, dest: dest.symlink_to(repo_root))
    assert artifact_digests.main(["HEAD"]) == 0
    assert capsys.readouterr().out == "15 commands, 26 artifacts: 0 differences\n"
