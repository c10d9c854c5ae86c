from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from slopscope import erosion, history
from slopscope.adapters import ADAPTERS
from slopscope.cli import main
from slopscope.history import (
    GitError,
    list_source_commits,
    measure_checkpoint,
    measure_history,
    sample_commits,
)
from slopscope.report import canonical_json, history_to_dict
from slopscope.rules import load_starter_rules
from slopscope.scan import ALWAYS_SKIP_DIRS, MAX_FILE_BYTES, ScanConfig, decode_path

from conftest import (
    DEEP_SUM,
    FIXTURES,
    HISTORY_COMMITS,
    MAIN_V1,
    SLOP,
    TOO_DEEP,
    build_history_repo,
    drop_blob,
    handler_source,
    padded_module,
    write_tree,
)


def _manifest() -> dict:
    with open(FIXTURES / "history_manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestCommitListing:
    def test_all_fixture_commits_qualify(self, history_repo):
        commits = list_source_commits(history_repo)
        assert len(commits) == 5

    def test_chronological_order(self, history_repo):
        commits = list_source_commits(history_repo)
        stamps = [c.committed_at for c in commits]
        assert stamps == sorted(stamps)
        assert all(c.committed_at.tzinfo == timezone.utc for c in commits)

    def test_docs_only_commit_ineligible(self, tmp_path):
        repo = build_history_repo(
            tmp_path / "repo",
            commits=[
                ({"main.py": MAIN_V1}, "2023-05-10T10:00:00+00:00"),
                ({"main.py": MAIN_V1, "README.md": "notes\n"}, "2023-05-11T10:00:00+00:00"),
            ],
        )
        assert len(list_source_commits(repo)) == 1

    def test_not_a_repo(self, tmp_path):
        with pytest.raises(GitError):
            list_source_commits(tmp_path)

    def test_names_git_quotes_are_listed(self, tmp_path):
        # Each commit after the first adds one file whose name plain
        # ``git log`` would quote; the last adds only a test file.
        names = ("caf\u00e9.py", "tab\there.py", 'say"hi".py', "back\\slash.py", "test_\u00fcn\u00ef.py")
        files = {"main.py": MAIN_V1}
        commits = [(dict(files), "2023-05-10T10:00:00+00:00")]
        for day, name in enumerate(names, start=11):
            files[name] = "x = 1\n"
            commits.append((dict(files), f"2023-05-{day}T10:00:00+00:00"))
        repo = build_history_repo(tmp_path / "repo", commits=commits)
        assert len(list_source_commits(repo)) == 6
        assert len(list_source_commits(repo, exclude_tests=True)) == 5

    def test_exclude_tests_changes_eligibility(self, tmp_path):
        repo = build_history_repo(
            tmp_path / "repo",
            commits=[
                ({"main.py": MAIN_V1}, "2023-05-10T10:00:00+00:00"),
                (
                    {"main.py": MAIN_V1, "test_main.py": "def test_ok():\n    pass\n"},
                    "2023-05-11T10:00:00+00:00",
                ),
                # A test file below the root: globs match the whole path or
                # the base name, as ``exclude`` globs do.
                (
                    {"main.py": MAIN_V1, "test_main.py": "def test_ok():\n    pass\n", "pkg/test_a.py": "x = 1\n"},
                    "2023-05-12T10:00:00+00:00",
                ),
            ],
        )
        assert len(list_source_commits(repo)) == 3
        assert len(list_source_commits(repo, exclude_tests=True)) == 1


class TestSampling:
    def test_small_history_returned_whole(self, history_repo):
        assert sample_commits(history_repo, max_commits=30) == list_source_commits(history_repo)

    def test_fixed_seed_is_deterministic(self, history_repo):
        a = sample_commits(history_repo, max_commits=3, seed=42)
        b = sample_commits(history_repo, max_commits=3, seed=42)
        assert a == b and len(a) == 3

    def test_sample_is_chronological_subset(self, history_repo):
        full = list_source_commits(history_repo)
        sampled = sample_commits(history_repo, max_commits=3, seed=7)
        assert set(sampled) <= set(full)
        stamps = [c.committed_at for c in sampled]
        assert stamps == sorted(stamps)


@pytest.fixture(scope="module")
def tied_repo(tmp_path_factory) -> Path:
    """Twelve source commits that all share one committer second, as
    ``git rebase`` and ``cherry-pick`` often leave them."""
    files: dict[str, str] = {}
    commits = []
    for i in range(12):
        files[f"m{i}.py"] = f"def f{i}(x):\n    return x + {i}\n"
        commits.append((dict(files), "2023-05-10T10:00:00+00:00"))
    return build_history_repo(tmp_path_factory.mktemp("tied"), commits)


def _rev_list_reverse(repo: Path) -> list[str]:
    done = subprocess.run(["git", "-C", str(repo), "rev-list", "--reverse", "HEAD"],
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


class TestTiedCommitDates:
    """Sampled commits keep history order when committer dates tie."""

    @pytest.mark.parametrize("max_commits", [30, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_labels_follow_rev_list(self, tied_repo, max_commits, seed):
        order = _rev_list_reverse(tied_repo)
        labels = [cp.label for cp in measure_history(tied_repo, max_commits=max_commits, seed=seed).checkpoints]
        assert len(labels) == min(max_commits, len(order))
        assert labels == [sha for sha in order if sha in set(labels)]

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_two_sample_sizes_keep_one_order(self, tied_repo, seed):
        small = [c.sha for c in sample_commits(tied_repo, max_commits=4, seed=seed)]
        large = [c.sha for c in sample_commits(tied_repo, max_commits=9, seed=seed)]
        whole = [c.sha for c in sample_commits(tied_repo, max_commits=30, seed=seed)]
        for sample in (small, large):
            assert sample == [sha for sha in whole if sha in set(sample)]
        assert [sha for sha in large if sha in set(small)] == [sha for sha in small if sha in set(large)]

    @pytest.mark.parametrize("seed", [0, 5, 42])
    def test_sample_picks_the_commits_a_date_sorted_sample_picked(self, tied_repo, seed):
        """Only the order changed: ``random.sample`` draws positions from
        the population's length alone."""
        listed = list_source_commits(tied_repo)
        assert set(sample_commits(tied_repo, max_commits=5, seed=seed)) == set(random.Random(seed).sample(listed, 5))


class TestMeasureCheckpoint:
    def test_single_snapshot(self, tmp_path):
        write_tree(tmp_path, {"main.py": MAIN_V1})
        analysis = measure_checkpoint(tmp_path)
        assert analysis.verbosity.loc == 2
        assert analysis.erosion.score == 0.0
        assert analysis.erosion.max_cc == 1


class TestMeasureHistory:
    def test_fixture_repo_matches_frozen_manifest(self, history_repo):
        result = measure_history(history_repo, max_commits=30, seed=0)
        manifest = _manifest()
        assert len(result.checkpoints) == len(manifest["checkpoints"])
        for got, want in zip(result.checkpoints, manifest["checkpoints"]):
            assert got.index == want["index"]
            assert got.verbosity.loc == want["loc"]
            assert got.phase == want["phase"]
            assert got.erosion.high_cc_count == want["high_cc_count"]
            assert got.erosion.max_cc == want["max_cc"]
            assert got.erosion.score == pytest.approx(want["erosion"], abs=1e-9)
            assert got.verbosity.score == pytest.approx(want["verbosity"], abs=1e-9)
        assert result.summary.rising_erosion is manifest["rising_erosion"]
        assert result.summary.rising_verbosity is manifest["rising_verbosity"]

    def test_era_ineligible_for_fixture(self, history_repo):
        # Three commits before 2024 but only two after: no era split.
        result = measure_history(history_repo)
        assert result.era is not None and result.era.eligible is False

    def test_repeated_runs_identical(self, history_repo):
        first = measure_history(history_repo, seed=0)
        second = measure_history(history_repo, seed=0)
        assert first == second

    def test_not_a_repository(self, tmp_path):
        with pytest.raises(GitError):
            measure_history(tmp_path)

    def test_empty_repo_yields_no_checkpoints(self, tmp_path):
        import subprocess

        repo = tmp_path / "empty"
        repo.mkdir()
        subprocess.run(["git", "-C", str(repo), "init", "-q"], check=True)
        result = measure_history(repo)
        assert result.checkpoints == [] and result.summary is None


def test_a_commit_with_a_missing_blob_is_reported_and_the_rest_measured(tmp_path, monkeypatch):
    commits = [({**files, "pkg/mod.py": "VALUE = 2\n" if k == 3 else "VALUE = 1\n"}, when)
               for k, (files, when) in enumerate(HISTORY_COMMITS)]
    repo = build_history_repo(tmp_path / "repo", commits=commits)
    shas = [c.sha for c in list_source_commits(repo)]
    blob = drop_blob(repo, f"{shas[2]}:util.py")  # UTIL_V1, in the third commit only
    # The fourth commit's pkg tree is its own. git log reads every tree a
    # commit changes, so the tree goes after the listing, as a concurrent
    # prune could remove it.
    trees = []
    sample = history.sample_commits

    def sample_then_prune(*args, **kwargs):
        sampled = sample(*args, **kwargs)
        trees.append(drop_blob(repo, f"{shas[3]}:pkg"))
        return sampled

    monkeypatch.setattr(history, "sample_commits", sample_then_prune)

    out = tmp_path / "report.json"
    code = main(["history", str(repo), "--deterministic", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["skipped_commits"] == [{"sha": shas[2], "reason": f"blob {blob} missing"},
                                          {"sha": shas[3], "reason": f"tree {trees[0]} missing"}]
    assert [cp["label"] for cp in payload["checkpoints"]] == shas[:2] + shas[4:]
    assert [cp["index"] for cp in payload["checkpoints"]] == [0, 1, 4]
    assert payload["summary"]["missing_checkpoints"] == [2, 3]


def _tree_object(repo: Path, data: bytes) -> str:
    """Write ``data`` as a tree object, well-formed or not; return its id."""
    return subprocess.run(["git", "-C", str(repo), "hash-object", "-t", "tree", "--literally", "-w", "--stdin"],
                          input=data, capture_output=True, check=True).stdout.decode().strip()


# The last three give names git never writes: a path built from one would
# leave the commit's tree or name a place in it twice.
@pytest.mark.parametrize("damage", [lambda d: d[:-3], lambda d: d[: d.rindex(b"\0")], lambda d: b"1x" + d[6:],
                                    lambda d: d.replace(b" main.py", b" .."), lambda d: d.replace(b" main.py", b" ."),
                                    lambda d: d.replace(b" main.py", b" pkg/main.py")],
                         ids=["id", "name", "mode", "dotdot", "dot", "slash"])
def test_a_malformed_tree_is_a_git_error(tmp_path, damage):
    repo = build_history_repo(tmp_path / "repo", commits=HISTORY_COMMITS[:1])
    root = subprocess.run(["git", "-C", str(repo), "cat-file", "tree", "HEAD^{tree}"],
                          capture_output=True, check=True).stdout
    bad = _tree_object(repo, damage(root))
    commit = subprocess.run(["git", "-C", str(repo), "commit-tree", bad, "-m", "bad"],
                            capture_output=True, text=True, check=True).stdout.strip()
    with history.ObjectStore(repo) as store:
        assert history.materialize_commit(store, "HEAD", ScanConfig()).blobs.keys() == {"main.py"}
        with pytest.raises(GitError, match=f"^tree {bad} malformed$"):
            history.materialize_commit(store, commit, ScanConfig())
        with pytest.raises(GitError, match="missing$"):
            history.materialize_commit(store, "0" * 40, ScanConfig())
        assert history.materialize_commit(store, "HEAD", ScanConfig()).blobs.keys() == {"main.py"}


def test_each_path_and_blob_is_analysed_once(history_repo, monkeypatch):
    parses = []
    parse = ADAPTERS["python"].parse
    monkeypatch.setattr(ADAPTERS["python"], "parse", lambda text: parses.append(text) or parse(text))
    temp_dirs = []
    mkdtemp = tempfile.mkdtemp
    monkeypatch.setattr(tempfile, "mkdtemp", lambda *a, **k: temp_dirs.append((a, k)) or mkdtemp(*a, **k))

    result = measure_history(history_repo, rules=load_starter_rules())
    assert len(result.checkpoints) == 5
    # main.py v1 and v2, util.py v1 and v2, slop.py.
    assert len(parses) == 5
    assert temp_dirs == []


# -- the object-store path against a checkout of every sampled commit ------

EXCLUDE_VENDOR = ScanConfig(exclude=("vendor/*",))

_TEMPLATES = (
    "def {f}(xs):\n    return [x for x in xs]\n",
    "def {f}(a):\n    if a == True:\n        return 1\n    return 2\n",
    "def {f}(d):\n    for k in d.keys():\n        print(k)\n",
    "def {f}(items):\n    try:\n        return items[0]\n    except:\n        pass\n",
    "def {f}(s):\n    if len(s) == 0:\n        return None\n    return s\n",
    "class {F}:\n    def get(self, key):\n        return self.data.get(key, None)\n",
)


def _module(rng: random.Random) -> bytes:
    parts = []
    for _ in range(rng.randint(1, 4)):
        name = "f" + "".join(rng.choice("abcdefgh") for _ in range(6))
        if rng.random() < 0.25:
            parts.append(handler_source(name, rng.choice("xyz")))  # complex, and a clone of its kin
        else:
            parts.append(rng.choice(_TEMPLATES).format(f=name, F=name.title()))
    return "\n\n".join(parts).encode()


# Committed at fixed points of the generated history and kept from then on.
_SPECIAL = {
    2: {"__pycache__/x.py": b"x = [a for a in b]\n", "pkg/__pycache__/y.py": b"y = 1\n"},
    3: {"vendor/lib.py": SLOP.encode(), "pkg/.hg/hooks.py": b"z = 2\n"},
    5: {"legacy.py": b"s = '\xe9t\xe9'\n", "broken.py": b"def broken(:\n    pass\n",
        "bom.py": b"\xef\xbb\xbf" + _TEMPLATES[0].format(f="b", F="B").encode(),  # decoded as Python does
        "latin.py": b"# -*- coding: latin-1 -*-\ns = '\xe9t\xe9'\n" + _TEMPLATES[3].format(f="c", F="C").encode()},
    6: {"packed.py": b"x = [" + b"1, " * 300 + b"]\n"},
    7: {"pkg/caf\u00e9.py": _TEMPLATES[0].format(f="f", F="F").encode(),
        os.fsdecode(b"pkg/caf\xe9.py"): _TEMPLATES[1].format(f="g", F="G").encode(),  # not UTF-8
        "pkg/caf\\xe9.py": _TEMPLATES[2].format(f="h", F="H").encode()},  # a backslash, reported doubled
    8: {"pkg/deep.py": DEEP_SUM.encode()},
    30: {"legacy.py": b"s = '\xe0'\nt = 1\n", "broken.py": b"def fixed():\n    pass\n"},
}


def _build_generated_repo(dest: Path, n_commits: int = 56, seed: int = 3, object_format: str = "sha1") -> Path:
    """A history of nested packages with every case the listing must get
    right: skipped directories, an excluded directory, a link, gitlinks,
    undecodable, unparsable and minified files, a name that is not UTF-8,
    renames of an unchanged blob, one blob at two paths, and a file deleted
    and later restored."""
    def git(*args: str, env: dict | None = None) -> None:
        subprocess.run(["git", "-C", str(dest), *args], check=True, capture_output=True, env=env)

    rng = random.Random(seed)
    dest.mkdir(parents=True)
    submodule_commit = ("0123456789abcdef" * 4)[: 64 if object_format == "sha256" else 40]
    git("init", "-q", "-b", "main", f"--object-format={object_format}")
    git("config", "user.email", "fixtures@example.com")
    git("config", "user.name", "Fixture Builder")
    modules = {"pkg/__init__.py": b"", "pkg/core.py": _module(rng), "pkg/sub/__init__.py": b"",
               "pkg/sub/deep/leaf.py": _module(rng), "app.py": _module(rng)}
    deleted: dict[str, bytes] = {}
    start = datetime(2023, 1, 1, tzinfo=timezone.utc)
    for i in range(n_commits):
        files = dict(_SPECIAL.get(i, {}))
        action = i % 6 if i > 8 else -1
        movable = sorted(p for p in modules if not p.endswith("__init__.py"))
        if action == 0:  # rename an unchanged blob
            old = rng.choice(movable)
            new = f"pkg/sub/moved_{i}.py" if "/" not in old else f"moved_{i}.py"
            modules[new] = modules.pop(old)
            (dest / old).unlink()
        elif action == 1:  # one blob at two paths
            src = rng.choice(movable)
            modules[f"pkg/copy_{i}.py"] = modules[src]
        elif action == 2 and not deleted:  # delete; restored four commits later
            path = rng.choice(movable)
            deleted[path] = modules.pop(path)
            (dest / path).unlink()
        elif action == 2 or (action == 3 and rng.random() < 0.5):
            modules[f"pkg/sub/new_{i}.py"] = _module(rng)
        else:
            path = rng.choice(movable)
            modules[path] = modules[path] + b"\n\n" + _module(rng)
        if i % 6 == 0 and deleted and i > 12:
            modules.update(deleted)
            deleted.clear()
        modules["pkg/core.py"] = modules.get("pkg/core.py", b"") + f"\nVERSION = {i}\n".encode()
        for path, data in {**modules, **files}.items():
            (dest / path).parent.mkdir(parents=True, exist_ok=True)
            (dest / path).write_bytes(data)
        if i == 4:
            os.symlink("pkg/core.py", dest / "link.py")
        git("add", "-A")  # drops the gitlinks, which have no directory here
        git("update-index", "--add", "--cacheinfo", f"160000,{submodule_commit},sub")
        git("update-index", "--add", "--cacheinfo", f"160000,{submodule_commit},pkg/ext.py")
        when = (start + timedelta(days=13 * i)).isoformat()
        git("commit", "-q", "-m", f"commit {i}", env=dict(os.environ, GIT_AUTHOR_DATE=when, GIT_COMMITTER_DATE=when))
    return dest


@pytest.fixture(scope="module")
def generated_repo(tmp_path_factory) -> Path:
    return _build_generated_repo(tmp_path_factory.mktemp("generated") / "repo")


@pytest.fixture(scope="module")
def generated_sha256_repo(tmp_path_factory) -> Path:
    return _build_generated_repo(tmp_path_factory.mktemp("generated256") / "repo", n_commits=20,
                                 object_format="sha256")


def _checkout(repo: Path, sha: str, dest: Path) -> Path:
    """The commit as ``git archive`` exports it: the old materialisation."""
    data = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", sha],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def _blob_ids(root: Path, paths, algorithm: str) -> set[tuple[str, str]]:
    on_disk = {decode_path(os.fsencode(os.path.relpath(os.path.join(d, n), root))): os.path.join(d, n)
               for d, _, names in os.walk(root) for n in names}  # reported path -> file
    out = set()
    for path in paths:
        data = Path(on_disk[path]).read_bytes()
        out.add((path, hashlib.new(algorithm, b"blob %d\0" % len(data) + data).hexdigest()))
    return out


def _assert_history_matches_checkouts(repo: Path, tmp_path: Path, monkeypatch, config: ScanConfig,
                                      max_commits: int, seed: int) -> list[tuple]:
    """Measure a history and check every checkpoint against a checkout of
    its commit; return each checkpoint's analysis and (path, blob) pairs."""
    analysed: list[list[str]] = []  # the paths each checkpoint analysed afresh
    analyse_file = history.analyse_file
    monkeypatch.setattr(history, "analyse_file",
                        lambda path, *a: analysed[-1].append(path) or analyse_file(path, *a))
    analyses = []
    measure = history.measure_checkpoint

    def measure_and_keep(*args, **kwargs):
        analysed.append([])
        analyses.append(measure(*args, **kwargs))
        return analyses[-1]

    monkeypatch.setattr(history, "measure_checkpoint", measure_and_keep)
    rules = load_starter_rules()
    result = measure_history(repo, max_commits=max_commits, seed=seed, config=config, rules=rules)
    monkeypatch.undo()

    commits = sample_commits(repo, max_commits, seed)
    assert result.skipped_commits == ()
    assert [cp.label for cp in result.checkpoints] == [c.sha for c in commits] and len(analyses) == len(commits)
    previous: set[tuple[str, str]] = set()
    checked = []
    for got, fresh, commit in zip(analyses, analysed, commits):
        root = _checkout(repo, commit.sha, tmp_path / commit.sha)
        want = measure_checkpoint(root, config, rules)
        assert got.inventory == want.inventory  # records, callables and skip reasons
        assert got.matches == want.matches
        assert [m.captures for m in got.matches] == [m.captures for m in want.matches]
        assert got.clones == want.clones
        assert (got.erosion, got.verbosity) == (want.erosion, want.verbosity)
        assert got.files == want.files

        regular = [p for p in got.files if (p, "symlink") not in want.inventory.skipped]
        pairs = _blob_ids(root, regular, "sha256" if len(commit.sha) == 64 else "sha1")
        # A blob over the size cap is a skip before any analysis.
        assert sorted(fresh) == sorted(p for p, _ in pairs - previous
                                       if (p, "large") not in want.inventory.skipped), commit.sha
        previous = pairs
        checked.append((got, pairs))
    return checked


def test_history_repo_matches_checkouts(history_repo, tmp_path, monkeypatch):
    _assert_history_matches_checkouts(history_repo, tmp_path, monkeypatch, ScanConfig(), 30, 0)


def test_a_file_too_deep_for_the_parser_is_a_parse_skip(tmp_path, monkeypatch):
    """Python refuses such a file with MemoryError; it is skipped, and the
    commit that adds it is measured with the rest."""
    repo = build_history_repo(tmp_path / "repo", [({"main.py": MAIN_V1}, "2024-01-01T10:00:00+00:00"),
                                                  ({"main.py": MAIN_V1, "deep.py": TOO_DEEP},
                                                   "2024-02-01T10:00:00+00:00")])
    (first, _), (second, _) = _assert_history_matches_checkouts(repo, tmp_path, monkeypatch, ScanConfig(), 30, 0)
    assert first.inventory.skipped == () and second.inventory.skipped == (("deep.py", "parse"),)
    assert [f.path for f in second.inventory.files] == ["main.py"]


def test_a_file_over_the_size_cap_is_a_large_skip(tmp_path, monkeypatch):
    """In history as in a scan of the commit's checkout; a file at the cap
    is measured."""
    files = {"main.py": MAIN_V1, "big.py": padded_module(MAX_FILE_BYTES + 1), "cap.py": padded_module(MAX_FILE_BYTES)}
    repo = build_history_repo(tmp_path / "repo", [(files, "2024-01-01T10:00:00+00:00")])
    ((analysis, _),) = _assert_history_matches_checkouts(repo, tmp_path, monkeypatch, ScanConfig(), 30, 0)
    assert analysis.inventory.skipped == (("big.py", "large"),)
    assert [f.path for f in analysis.inventory.files] == ["cap.py", "main.py"]


def test_the_size_cap_comes_before_decoding():
    undecodable = b"\xff" * (MAX_FILE_BYTES + 1)
    assert history.analyse_file("big.py", undecodable, ScanConfig(), load_starter_rules()).inventory.skipped == (
        ("big.py", "large"),)
    assert history.analyse_file("cap.py", undecodable[:MAX_FILE_BYTES], ScanConfig(),
                                load_starter_rules()).inventory.skipped == (("cap.py", "decode"),)


def test_an_oversized_blob_is_dropped_unheld_and_reported(tmp_path):
    """It is read off the pipe a bounded chunk at a time; the blobs after it
    still read whole, and the checkpoint lists it as ``large``."""
    files = {"main.py": MAIN_V1, "big.py": padded_module(MAX_FILE_BYTES + 1)}
    repo = build_history_repo(tmp_path / "repo", [(files, "2024-01-01T10:00:00+00:00")])
    blobs = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD:big.py", "HEAD:main.py"],
                           capture_output=True, text=True, check=True).stdout.split()

    class Reads:
        def __init__(self, pipe):
            self.pipe, self.sizes = pipe, []

        def readline(self):
            return self.pipe.readline()

        def read(self, n):
            self.sizes.append(n)
            return self.pipe.read(n)

    with history.ObjectStore(repo) as store:
        store._proc.stdout = reads = Reads(store._proc.stdout)
        assert store.read(blobs[0]) == "large"
        assert max(reads.sizes) <= 1 << 16
        assert store.read(blobs[1]) == MAIN_V1.encode()
        assert store.read(blobs[0]) == "large"
        store._proc.stdout = reads.pipe

    out = tmp_path / "report.json"
    assert main(["history", str(repo), "--deterministic", "--out", str(out)]) == 0
    (checkpoint,) = json.loads(out.read_text())["payload"]["checkpoints"]
    assert checkpoint["skipped"] == [{"path": "big.py", "reason": "large"}]
    assert checkpoint["loc"] == MAIN_V1.count("\n")


def test_a_link_to_a_directory_is_a_link_in_scan_and_history(tmp_path, monkeypatch):
    """The walk does not enter a linked directory, but offers its name, so a
    scan lists ``x.py -> pkg`` as a ``symlink`` skip, as history does."""
    repo = write_tree(tmp_path / "repo", {"pkg/a.py": MAIN_V1})
    os.symlink("pkg", repo / "x.py")
    os.symlink("pkg/a.py", repo / "y.py")
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "links"]):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)
    ((analysis, _),) = _assert_history_matches_checkouts(repo, tmp_path, monkeypatch, ScanConfig(), 30, 0)
    links = (("x.py", "symlink"), ("y.py", "symlink"))
    assert analysis.inventory.skipped == links
    assert measure_checkpoint(repo).inventory.skipped == links  # the working tree


def test_checkpoints_keep_only_the_reported_hotspots(generated_repo, monkeypatch):
    """Each checkpoint keeps its 20 heaviest callables, and the report is the
    one a full ranking, cut to 20 as it is serialized, gives."""
    limit = erosion.HOTSPOT_LIMIT
    kept = measure_history(generated_repo, max_commits=17, seed=5, config=EXCLUDE_VENDOR)
    monkeypatch.setattr(erosion, "HOTSPOT_LIMIT", sys.maxsize)  # every callable
    full = measure_history(generated_repo, max_commits=17, seed=5, config=EXCLUDE_VENDOR)
    assert limit == 20 and max(len(cp.erosion.hotspots) for cp in full.checkpoints) > limit
    assert all(len(cp.erosion.hotspots) <= limit for cp in kept.checkpoints)
    want = history_to_dict(full)
    for checkpoint in want["checkpoints"]:
        checkpoint["erosion"]["hotspots"] = checkpoint["erosion"]["hotspots"][:limit]
    assert canonical_json(history_to_dict(kept)) == canonical_json(want)


@pytest.mark.parametrize("max_commits,seed", [(100, 0), (17, 5)])
def test_generated_repo_matches_checkouts(generated_repo, tmp_path, monkeypatch, max_commits, seed):
    checked = _assert_history_matches_checkouts(generated_repo, tmp_path, monkeypatch, EXCLUDE_VENDOR,
                                                max_commits, seed)
    if max_commits == 100:  # every case of the generated history was met
        analyses = [a for a, _ in checked]
        pairs = [p for _, p in checked]
        empty = hashlib.sha1(b"blob 0\0").hexdigest()  # every __init__.py
        assert any(len({b for _, b in now if b != empty}) < len([b for _, b in now if b != empty])
                   for now in pairs)  # one blob at two paths
        assert any(p != q and b == c for before, after in zip(pairs, pairs[1:])
                   for p, b in after - before for q, c in before - after)  # an unchanged blob renamed
        assert any(pair not in pairs[k + 1] and any(pair in later for later in pairs[k + 2:])
                   for k in range(len(pairs) - 1) for pair in pairs[k])  # deleted, then restored
        reasons = {reason for a in analyses for _, reason in a.inventory.skipped}
        assert reasons == {"symlink", "decode", "parse", "minified"}
        paths = {p for a in analyses for p in a.files}
        assert {"pkg/caf\u00e9.py", "pkg/caf\\xe9.py", "pkg/caf\\\\xe9.py", "pkg/sub/deep/leaf.py"} <= paths
        measured = {f.path for a in analyses for f in a.inventory.files}
        assert {"pkg/deep.py", "bom.py", "latin.py"} <= measured  # measured, not skipped
        assert not any(p.startswith(("vendor/", "sub", "pkg/ext")) or "__pycache__" in p or ".hg" in p
                       for p in paths)
        assert any(a.clones for a in analyses) and any(m.captures for a in analyses for m in a.matches)


def test_sha256_repo_matches_checkouts(generated_sha256_repo, tmp_path, monkeypatch):
    checked = _assert_history_matches_checkouts(generated_sha256_repo, tmp_path, monkeypatch, EXCLUDE_VENDOR,
                                                100, 0)
    assert len(checked) == 20
    assert all(len(blob) == 64 for _, pairs in checked for _, blob in pairs)


@pytest.mark.parametrize("max_commits", [3, 100])
def test_a_run_starts_two_git_processes(generated_repo, monkeypatch, max_commits):
    started = []
    popen = subprocess.Popen  # subprocess.run starts its process through Popen too
    monkeypatch.setattr(subprocess, "Popen", lambda argv, *a, **k: started.append(argv) or popen(argv, *a, **k))
    result = measure_history(generated_repo, max_commits=max_commits, config=EXCLUDE_VENDOR)
    monkeypatch.undo()
    assert len(result.checkpoints) == min(max_commits, 56)
    assert [argv[3] for argv in started] == ["log", "cat-file"]


def test_each_unchanged_subtree_is_read_once(generated_repo, monkeypatch):
    """Every commit is sampled, so each commit's tree reads must be exactly
    the subtrees that ``git ls-tree`` shows it does not share with its
    parent at the same path, less those in ``__pycache__`` or ``.hg``,
    which are never read."""
    reads: list[list[str]] = []
    read_tree = history.ObjectStore.read_tree

    def record(store, name):
        if name.endswith("^{tree}"):
            reads.append([])  # a commit's root: its listing begins
        else:
            reads[-1].append(name)
        return read_tree(store, name)

    monkeypatch.setattr(history.ObjectStore, "read_tree", record)
    result = measure_history(generated_repo, max_commits=100, config=EXCLUDE_VENDOR)
    monkeypatch.undo()

    shas = [c.sha for c in sample_commits(generated_repo, 100)]
    assert [cp.label for cp in result.checkpoints] == shas
    before: set[tuple[str, str]] = set()
    visits = passed_by = 0
    for sha, read in zip(shas, reads):
        raw = subprocess.run(["git", "-C", str(generated_repo), "ls-tree", "-r", "-t", "-z", sha],
                             capture_output=True, check=True).stdout
        subtrees = {(name.decode(), meta.split()[2].decode()) for meta, _, name in
                    (entry.partition(b"\t") for entry in raw.split(b"\0") if entry) if meta.split()[1] == b"tree"}
        entered = {(name, tree) for name, tree in subtrees if ALWAYS_SKIP_DIRS.isdisjoint(name.split("/"))}
        assert sorted(read) == sorted(tree for _, tree in entered - before), sha
        visits += len(entered)
        passed_by += len(subtrees - entered)
        before = entered
    assert 0 < sum(map(len, reads)) < visits / 2  # most subtrees were taken from the last listing
    assert passed_by > 0  # the history holds __pycache__ and .hg directories
