"""The git process layer: how its processes start and end, that no git it
starts can fetch, that git's messages do not follow the user's locale, and
that an object git dies on skips one commit."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

from slopscope import git
from slopscope.cli import main
from slopscope.history import GitExited, list_source_commits, measure_history

from conftest import HISTORY_COMMITS, build_history_repo

# Signal numbers, as /proc/<pid>/status masks count them.
SIGPIPE, SIGXFSZ = 13, 25


def _ignored(status: str) -> int:
    """The SigIgn mask of a /proc/<pid>/status text."""
    return int(re.search(r"^SigIgn:\s*([0-9a-f]+)$", status, re.M)[1], 16)


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True, check=True).stdout


def _missing(repo: Path) -> list[str]:
    """The objects a partial clone lacks, by ``git rev-list``'s ``?`` lines."""
    listed = _git(repo, "rev-list", "--objects", "--all", "--missing=print").splitlines()
    return sorted(line[1:] for line in listed if line.startswith("?"))


def _partial_clone(tmp_path: Path) -> Path:
    """A ``--filter=blob:none`` clone of the history fixture through a
    ``file://`` remote: the checkout has the last commit's blobs, and no
    other blob."""
    source = build_history_repo(tmp_path / "source")
    _git(source, "config", "uploadpack.allowFilter", "true")
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "-q", "--filter=blob:none", source.as_uri(), str(clone)],
                   capture_output=True, check=True)
    return clone


def _truncated_repo(tmp_path: Path) -> tuple[Path, list[str], str]:
    """The first two fixture commits, the first commit's ``main.py`` (which
    the second changes) stored as a loose object cut by 6 bytes: the repo,
    the two commits and that blob's id."""
    repo = build_history_repo(tmp_path / "repo", HISTORY_COMMITS[:2])
    shas = [c.sha for c in list_source_commits(repo)]
    blob = _git(repo, "rev-parse", f"{shas[0]}:main.py").strip()
    path = repo / ".git" / "objects" / blob[:2] / blob[2:]
    data = path.read_bytes()
    path.unlink()  # git writes loose objects read-only
    path.write_bytes(data[:-6])
    return repo, shas, blob


def test_a_spawned_child_has_default_signals_and_none_of_the_stores_pipes(history_repo):
    """Python ignores SIGPIPE and SIGXFSZ; a child of ``spawn`` does not.
    The store's pipe ends are not inheritable, so a process started while
    the store is open holds none of them."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc to read a process's signals and descriptors from")
    script = 'cat /proc/self/status; for fd in /proc/$$/fd/*; do echo "fd $(readlink "$fd")"; done'
    with git.ObjectStore(history_repo) as store, tempfile.TemporaryFile() as out:
        pipes = {os.readlink(f"/proc/{store.pid}/fd/{fd}") for fd in (0, 1)}
        pid = git.spawn(["sh", "-c", script], None, out.fileno(), out.fileno())
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        out.seek(0)
        report = out.read().decode()
    assert all(pipe.startswith("pipe:") for pipe in pipes)
    held = {line[3:] for line in report.splitlines() if line.startswith("fd ")}
    assert held and held.isdisjoint(pipes)
    signals = 1 << (SIGPIPE - 1) | 1 << (SIGXFSZ - 1)
    assert _ignored(Path("/proc/self/status").read_text()) & signals == signals  # this process ignores both
    assert _ignored(report) & signals == 0


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("run", ["clean", "skipped", "exited"])
def test_every_git_process_is_reaped(history_repo, tmp_path, run):
    """After a clean run, a run that skips a commit whose ``cat-file`` died
    on it, and a run that ``GitExited`` ends, this process has no child."""
    _assert_no_child_left()
    if run == "clean":
        assert len(measure_history(history_repo).checkpoints) == 5
    elif run == "skipped":
        result = measure_history(_truncated_repo(tmp_path)[0])
        assert len(result.skipped_commits) == 1 and len(result.checkpoints) == 1
    else:
        with pytest.raises(GitExited):
            measure_history(_partial_clone(tmp_path))
    _assert_no_child_left()


@pytest.mark.parametrize("remote", ["present", "deleted"])
def test_a_partial_clone_fetches_nothing(tmp_path, capsys, remote):
    """``cat-file`` is refused the fetch of the first blob the clone lacks,
    and exits: the run ends with git's reason and no report, and the clone
    lacks the same objects as before."""
    clone = _partial_clone(tmp_path)
    missing = _missing(clone)
    assert missing
    if remote == "deleted":
        shutil.rmtree(tmp_path / "source")
    out = tmp_path / "report.json"
    code = main(["history", str(clone), "--deterministic", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    said = re.fullmatch(r"slopscope: git cat-file exited mid-run: fatal: could not fetch ([0-9a-f]{40}) "
                        r"from promisor remote\n", captured.err)
    assert said and said[1] in missing
    assert _missing(clone) == missing


def test_gits_messages_do_not_follow_the_users_locale(tmp_path, capsys, monkeypatch):
    """A repository with no commits is recognised by git's English message,
    which a German locale would otherwise translate."""
    repo = tmp_path / "empty"
    repo.mkdir()
    _git(repo, "init", "-q")
    for name in ("LC_ALL", "LC_MESSAGES"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("LANGUAGE", "de")
    monkeypatch.setenv("LANG", "C.UTF-8")
    probe = subprocess.run(["git", "-C", str(repo), "log"], capture_output=True, text=True)
    if probe.stderr.startswith("fatal:"):
        pytest.skip("this git has no German message catalogue")
    assert main(["history", str(repo)]) == 0
    assert capsys.readouterr().err == "slopscope: no source-modifying commits found\n"


def test_a_truncated_object_skips_its_commit(tmp_path):
    """Git sends the blob's header, then dies on its cut-short content: the
    commit is skipped with git's reason, and a fresh ``cat-file`` reads the
    next commit, which is measured."""
    repo, shas, blob = _truncated_repo(tmp_path)
    out = tmp_path / "report.json"
    assert main(["history", str(repo), "--deterministic", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["skipped_commits"] == [
        {"sha": shas[0], "reason": f"blob {blob} unreadable: fatal: unable to stream {blob} to stdout"}]
    assert [cp["label"] for cp in payload["checkpoints"]] == shas[1:]


def test_a_store_reads_on_after_an_object_it_died_on(tmp_path):
    """The store reaps the process that died, starts a fresh one at the next
    request, and quotes each process's own stderr lines."""
    repo, shas, blob = _truncated_repo(tmp_path)
    with git.ObjectStore(repo) as store:
        first = store.pid
        with pytest.raises(git.GitError, match=f"^blob {blob} unreadable: fatal: unable to stream {blob} to stdout$"):
            store.read(blob)
        assert store.returncode == 128
        assert store.read_tree(f"{shas[1]}^{{tree}}")[0][1] == b"main.py"
        assert store.pid != first and store.returncode is None
        with pytest.raises(git.GitError, match=f"^blob {'0' * 40} missing$"):
            store.read("0" * 40)
