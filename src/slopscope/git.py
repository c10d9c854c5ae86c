"""The git layer: every line that knows git. It starts git's processes and
talks to them, reads the formats they print (the commit listing and tree
objects) and defines git's errors. ``history`` imports it inside the two
functions that run git (``sample_commits`` and ``measure_history``), so a
command that runs none (``scan``, ``rules``) neither loads nor compiles it.

A ``history`` run starts two processes: ``git log``, which lists the
commits (``list_source_commits``), and then ``git cat-file --batch``, which
reads every object (``ObjectStore``). Both start through
``os.posix_spawnp``: ``subprocess`` would load ``selectors``, ``signal``,
``fcntl`` and ``select`` to do the same.
"""

from __future__ import annotations

import os
import re
import stat
import tempfile
from _signal import SIGPIPE, SIGXFSZ  # built in and loaded at start-up, unlike ``signal``
from pathlib import Path
from typing import NamedTuple

from .scan import ALWAYS_SKIP_DIRS, MAX_FILE_BYTES, ScanConfig, _excluded, decode_path, is_eligible, is_python
from .trajectory import datetime, timezone

TEST_PATH_GLOBS = ("test_*.py", "*_test.py", "tests/*", "*/tests/*", "test/*", "*/test/*")

# One entry of a tree object, up to its raw object id: octal mode, name. A
# name holds no "/" and is not "." or "..", or a path built from it would
# leave the commit's tree; git never writes such an entry.
_TREE_ENTRY = re.compile(rb"([0-7]+) (?!\.\.?\0)([^\0/]+)\0")
_S_IFGITLINK = 0o160000  # the mode git gives a submodule's commit


class GitError(Exception):
    """Raised when a path is not a usable git repository."""


class GitExited(GitError):
    """Raised when the ``cat-file`` process has ended mid-run other than
    on one object's content (killed, say, or refused a fetch): the fault is
    not one object's, so the run ends, not one commit."""


class CommitRef(NamedTuple):
    sha: str
    committed_at: datetime | None  # committer date, UTC; None if git's cannot be read as one


class TreeListing(NamedTuple):
    """What one tree object adds to a commit's files: its eligible files as
    (path, blob id), a symbolic link's blob being None as it is skipped
    unread, and the subtrees below it that a scan would enter, as
    (path prefix, tree id)."""

    files: tuple[tuple[str, str | None], ...]
    subtrees: tuple[tuple[str, str], ...]


def spawn(argv: list[str], stdin: int | None, stdout: int, stderr: int) -> int:
    """Start ``argv[0]``, found on PATH, with ``stdout`` and ``stderr`` as
    its fds 1 and 2 and ``stdin`` (None: this process's own fd 0) as its
    fd 0; return its pid, for the caller to reap with ``os.waitpid``.
    GitError if it cannot start.

    Python opens every descriptor non-inheritable, so the child gets fds
    0-2 and nothing else, apart from an inheritable fd that slopscope was
    itself started with; git exits before slopscope does, so it never holds
    such an fd longer than slopscope holds it. SIGPIPE and SIGXFSZ, which
    Python ignores, are reset to their defaults, as ``subprocess``'s
    ``restore_signals`` does. The environment is this process's, plus:

    - ``GIT_ALLOW_PROTOCOL=`` (empty): git may use no transport, so it
      never fetches, not even the objects a partial clone lacks;
    - ``LC_ALL=C``: git's messages, which ``list_source_commits`` matches
      and skipped commits quote, do not depend on the user's locale.
    """
    actions = [(os.POSIX_SPAWN_DUP2, fd, target) for target, fd in enumerate((stdin, stdout, stderr)) if fd is not None]
    env = {**os.environ, "GIT_ALLOW_PROTOCOL": "", "LC_ALL": "C"}
    try:
        return os.posix_spawnp(argv[0], argv, env, file_actions=actions, setsigdef=(SIGPIPE, SIGXFSZ))
    except OSError as exc:  # no git on PATH, say
        raise GitError(f"cannot run git: {exc.strerror or exc}") from exc


def list_source_commits(repo: str | Path, exclude_tests: bool = False) -> list[CommitRef]:
    """All commits that modify at least one Python file, oldest first.

    The log is read NUL-separated, so git never quotes a path. A commit's
    header ends in a newline when file names follow it, and its file list
    ends in an empty name. Merge commits carry no file list in plain
    ``git log`` output and are therefore never counted as source-modifying.
    ``--root`` and ``--no-renames`` keep the user's git config from hiding
    the root commit's files or a renamed file's old path.
    """
    if not (Path(repo) / ".git").exists() and not (Path(repo) / "HEAD").exists():
        raise GitError(f"not a git repository: {repo}")
    args = ["log", "-z", "--root", "--no-renames", "--pretty=format:%H %ct", "--name-only"]
    with tempfile.TemporaryFile() as err:  # git's stderr
        stdout, child_out = os.pipe()
        try:
            pid = spawn(["git", "-C", str(repo), *args], None, child_out, err.fileno())
        except BaseException:
            os.close(stdout)
            raise
        finally:
            os.close(child_out)
        try:
            with open(stdout, "rb") as out:
                raw = out.read()
        finally:  # an early close of the pipe ends git by SIGPIPE
            status = os.waitpid(pid, 0)[1]
        if os.waitstatus_to_exitcode(status):
            err.seek(0)
            said = err.read().decode("utf-8", "replace").strip()
            if "does not have any commits" in said:
                return []
            raise GitError(said or f"git {' '.join(args)} failed")
    logged: list[tuple[str, str, list[str]]] = []  # newest first
    in_header = True
    for token in raw.split(b"\0"):
        if in_header:
            if token:
                header, newline, first = token.partition(b"\n")
                sha, _, epoch = header.decode().partition(" ")
                logged.append((sha, epoch, [decode_path(first)] if newline else []))
                in_header = not newline
        elif token:
            logged[-1][2].append(decode_path(token))
        else:
            in_header = True
    commits: list[CommitRef] = []
    for sha, epoch, paths in reversed(logged):
        if exclude_tests:
            paths = [p for p in paths if not _excluded(p, TEST_PATH_GLOBS)]
        if any(is_python(p) for p in paths):
            try:
                committed_at = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
            except (ValueError, OverflowError, OSError):  # empty, or out of range: listed, undated
                committed_at = None
            commits.append(CommitRef(sha, committed_at))
    return commits


class ObjectStore:
    """Reads the objects of one repository through one long-lived
    ``git cat-file --batch`` process, whose pid is ``pid``.

    Requests go one at a time: one object is named and its whole reply read
    before the next, so neither side can block on a full pipe. Git's stderr
    goes to a file, not a pipe, so no amount of it can block git either;
    it is read when an object cannot be read or the process has exited.
    Once the process has exited, ``returncode`` holds its exit code
    (negative: the signal that killed it), and the next request starts a
    fresh one, its stderr going to the same file. ``close`` (or leaving a
    ``with`` block) ends the process.
    """

    def __init__(self, repo: str | Path) -> None:
        self._argv = ["git", "-C", str(repo), "cat-file", "--batch"]
        self._stderr = tempfile.TemporaryFile()
        self._quoted = 0  # the bytes of git's stderr already put in an error
        try:
            self._start()
        except BaseException:
            self._stderr.close()
            raise

    def _start(self) -> None:
        child_in, stdin = os.pipe()
        stdout, child_out = os.pipe()
        try:
            self.pid = spawn(self._argv, child_in, child_out, self._stderr.fileno())
        except BaseException:
            os.close(stdin)
            os.close(stdout)
            raise
        finally:
            os.close(child_in)
            os.close(child_out)
        self.returncode: int | None = None
        self._stdin, self._stdout = stdin, open(stdout, "rb")

    def _read(self, kind: str, name: str, cap: float = float("inf")) -> tuple[str, bytes | None]:
        """The id and content of the object ``name`` names (an id, or any
        revision git resolves); GitError if it is missing or not a ``kind``.
        The content of more than ``cap`` bytes is read off the pipe a chunk
        at a time and dropped: it comes back as None.

        A process that ends before its reply's header (killed, unable to
        enter the repository, refused a fetch) raises GitExited. One that
        exits after the header, its content cut short, has died on this
        object alone (a truncated loose object, say): GitError, and the
        next request starts a fresh process."""
        if self.returncode is not None:
            self._start()
        stdout = self._stdout
        try:
            os.write(self._stdin, name.encode() + b"\n")
            line = stdout.readline()
            if not line.endswith(b"\n"):  # the process has closed its end
                raise self._exited()
            header = line.split()
            if len(header) != 3:  # "<name> missing", or "<name> ambiguous"
                reply = header[-1].decode(errors="replace") if header else "unreadable"
                said = self._git_said()
                raise GitError(f"{kind} {name} {reply}{': ' + '; '.join(said) if said else ''}")
            size = int(header[2])
            left = size + 1  # the content and a newline
            if size > cap:
                data = None
                while left and (chunk := stdout.read(min(left, 1 << 16))):
                    left -= len(chunk)
            else:
                data = stdout.read(left)
                left -= len(data)
        except OSError as exc:  # a broken pipe: the process has exited
            raise self._exited() from exc
        if left:  # the reply was cut short
            reason = self._end()
            if self.returncode < 0:  # killed: no fault of this object's
                raise GitExited(f"git cat-file exited mid-run: {reason}")
            raise GitError(f"{kind} {name} unreadable: {reason}")
        if header[1] != kind.encode():
            raise GitError(f"{kind} {name} is a {header[1].decode(errors='replace')}")
        return header[0].decode(), None if data is None else data[:size]

    def read(self, blob: str) -> bytes | str:
        """The bytes of one blob, or ``large`` for a blob of more than
        ``scan.MAX_FILE_BYTES``, which is never held whole; GitError if the
        repository lacks it."""
        data = self._read("blob", blob, MAX_FILE_BYTES)[1]
        return "large" if data is None else data

    def read_tree(self, name: str, prefix: str, config: ScanConfig) -> TreeListing:
        """The listing of the tree ``name`` names, at ``prefix`` ("" or a
        path ending in "/") of its commit; GitError if it is missing or
        malformed. A tree object is a run of ``<octal mode> <name>\\0<raw
        id>`` entries, a raw id as long as the reply header's (20 bytes
        under SHA-1, 32 under SHA-256). Eligibility and names are a scan's
        (``scan.is_eligible``, ``scan.decode_path``); a subtree in
        ``scan.ALWAYS_SKIP_DIRS`` is not entered, a gitlink (submodule) is
        passed by, as a checkout holds no file of its, and a link is listed
        with no blob."""
        tree, data = self._read("tree", name)
        size = len(tree) // 2
        files: list[tuple[str, str | None]] = []
        subtrees: list[tuple[str, str]] = []
        pos = 0
        while pos < len(data):
            entry = _TREE_ENTRY.match(data, pos)
            if entry is None or entry.end() + size > len(data):
                raise GitError(f"tree {tree} malformed")
            start, pos = entry.end(), entry.end() + size
            kind = int(entry[1], 8) & 0o170000  # stat.S_IFMT, for a mode of any size
            base = decode_path(entry[2])
            path = prefix + base
            if kind == stat.S_IFDIR:
                if base not in ALWAYS_SKIP_DIRS:
                    subtrees.append((path + "/", data[start:pos].hex()))
            elif kind != _S_IFGITLINK and is_eligible(path, config):
                files.append((path, None if kind == stat.S_IFLNK else data[start:pos].hex()))
        return TreeListing(tuple(files), tuple(subtrees))

    def _git_said(self) -> list[str]:
        """The lines git has written to stderr since an error last quoted
        them: a corrupt object is replied to as ``missing``, and only git's
        error lines tell it from an absent one. Git writes to stderr when a
        request fails, so these are the lines of the request that just
        failed. Git's fd 2 shares this file's offset, so they are read with
        ``os.pread``, which leaves that offset where git writes next."""
        fd = self._stderr.fileno()
        end = os.lseek(fd, 0, os.SEEK_CUR)
        text = os.pread(fd, end - self._quoted, self._quoted).decode("utf-8", "replace")
        self._quoted = end
        return [line.strip() for line in text.splitlines() if line.strip()]

    def _wait(self) -> int:
        """Close this side's pipe ends, which ends a process still running,
        and reap it; its exit code."""
        os.close(self._stdin)
        self._stdout.close()
        self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def _end(self) -> str:
        """Reap a process that has ended mid-run, once it has; why it
        ended: git's last new stderr line, or else its exit status."""
        code = self._wait()
        said = self._git_said()
        return said[-1] if said else f"killed by signal {-code}" if code < 0 else f"exit status {code}"

    def _exited(self) -> GitExited:
        return GitExited(f"git cat-file exited mid-run: {self._end()}")

    def close(self) -> None:
        if self.returncode is None:
            self._wait()
        self._stderr.close()

    def __enter__(self) -> ObjectStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
