"""The git process layer: every line that starts a git process or talks to
one. ``history`` imports it inside the two functions that run git, so a
command that runs none (``scan``, ``rules``) neither loads nor compiles it.

A ``history`` run starts two processes: ``git log``, which lists the
commits (``run``), and then ``git cat-file --batch``, which reads every
object (``ObjectStore``). Both start through ``os.posix_spawnp``:
``subprocess`` would load ``selectors``, ``signal``, ``fcntl`` and
``select`` to do the same.
"""

from __future__ import annotations

import os
import re
import tempfile
from _signal import SIGPIPE, SIGXFSZ  # built in and loaded at start-up, unlike ``signal``
from pathlib import Path

from .history import GitError, GitExited
from .scan import MAX_FILE_BYTES

# One entry of a tree object, up to its raw object id: octal mode, name. A
# name holds no "/" and is not "." or "..", or a path built from it would
# leave the commit's tree; git never writes such an entry.
_TREE_ENTRY = re.compile(rb"([0-7]+) (?!\.\.?\0)([^\0/]+)\0")


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


def run(repo: str | Path, *args: str) -> bytes:
    """The output of ``git -C <repo> <args>``; GitError with git's stderr,
    which goes to a temporary file, if git fails."""
    with tempfile.TemporaryFile() as err:
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
                data = out.read()
        finally:  # an early close of the pipe ends git by SIGPIPE
            status = os.waitpid(pid, 0)[1]
        if os.waitstatus_to_exitcode(status):
            err.seek(0)
            raise GitError(err.read().decode("utf-8", "replace").strip() or f"git {' '.join(args)} failed")
    return data


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

    def read_tree(self, name: str) -> list[tuple[int, bytes, str]]:
        """The entries of the tree ``name`` names, in git's order: each
        one's mode, raw name and object id. GitError if the tree is missing
        or malformed.

        A tree object is a run of ``<octal mode> <name>\\0<raw id>``
        entries. A raw id is as long as the id in the reply header: 20
        bytes in a SHA-1 repository, 32 in a SHA-256 one.
        """
        tree, data = self._read("tree", name)
        size = len(tree) // 2
        entries: list[tuple[int, bytes, str]] = []
        pos = 0
        while pos < len(data):
            entry = _TREE_ENTRY.match(data, pos)
            if entry is None or entry.end() + size > len(data):
                raise GitError(f"tree {tree} malformed")
            pos = entry.end() + size
            entries.append((int(entry[1], 8), entry[2], data[entry.end() : pos].hex()))
        return entries

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
