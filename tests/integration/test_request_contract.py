"""The per-request contract the performance harness relies on.

``perfbench`` instruments a ``repro protect PROGRAM --json`` request by
wrapping four lookup names and requires exactly one selection profile,
the baseline run before the protected run, and one ``Parallax.protect``
per request.  A refactor that breaks this fails here first.
"""

import json

import repro.core.protector as protector
import repro.core.selection as selection
import repro.corpus.program as corpus_program
from repro.cache import cache_session
from repro.cli import main


def test_cli_protect_request_contract(monkeypatch, capsys, small_wget):
    log = []

    def tap(owner, attr, label):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            log.append(label)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    tap(selection, "profile_run", "profile")
    tap(corpus_program, "run_image", "baseline")
    tap(protector, "run_image", "protected")
    tap(protector.Parallax, "protect", "protect")
    monkeypatch.setattr("repro.cli.build_program", lambda name: small_wget)

    # Selection profiles only on a protect-cache miss; perfbench runs
    # with caching off, and so does this request.
    with cache_session(enabled=False):
        assert main(["protect", "wget", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["behaviour_preserved"] is True
    assert log.count("profile") == 1
    assert log.count("protect") == 1
    assert [label for label in log if label in ("baseline", "protected")] == [
        "baseline",
        "protected",
    ]
