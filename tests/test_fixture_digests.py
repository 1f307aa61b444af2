"""Byte identity on the fixture set, pinned as sha256 digests.

For each fixture the table ``fixture_digests.json`` holds the digest of
every input file, of the report and the three SVGs, of stdout (with the
output directory written as ``OUT``) and of stderr, and the exit code of
``assess``. A change that moves a byte fails here, naming the fixture and
the file; a change meant to move bytes rewrites the table with
``PYTHONPATH=src python tests/test_fixture_digests.py`` and names each
fixture whose digests moved. The bytes depend on the C library's ``log``,
so a failure also names the C library it ran on.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

import workloads  # noqa: E402
from fssfunnel.cli import main  # noqa: E402
from fssfunnel.synth import generate_synthetic_dataset  # noqa: E402
from test_cli import NON_DEFAULT_CONFIG, write_fixture  # noqa: E402

TABLE = Path(__file__).with_name("fixture_digests.json")
OUTPUTS = {
    "--report": "report.json",
    "--funnel-svg": "funnel.svg",
    "--qq-svg": "qq.svg",
    "--caterpillar-svg": "caterpillar.svg",
}
MODES = "grand_mean_mode=group_means\nskewness_target=institution_means\n"


def _cli_fixture(config_text):
    def write(directory: Path) -> dict[str, str]:
        paths = write_fixture(directory)
        if config_text is not None:
            paths["config"] = str(directory / "config.txt")
            Path(paths["config"]).write_text(config_text, encoding="utf-8")
        return paths

    return write


def _synth_fixture(extra_config):
    def write(directory: Path) -> dict[str, str]:
        paths = generate_synthetic_dataset(str(directory))
        config = Path(paths["config"])
        config.write_text(config.read_text(encoding="utf-8") + extra_config, encoding="utf-8")
        return paths

    return write


def _workload_fixture(name, seed):
    def write(directory: Path) -> dict[str, str]:
        paths, _ = workloads.generate(name, seed).write(directory)
        return {key: str(path) for key, path in paths.items()}

    return write


FIXTURES = {
    "cli-no-config": _cli_fixture(None),
    "cli-empty-config": _cli_fixture(""),
    "cli-non-default-config": _cli_fixture(NON_DEFAULT_CONFIG),
    "synth-default": _synth_fixture(""),
    "synth-group-means-institution-means": _synth_fixture(MODES),
    **{
        f"{name}-seed-{seed}": _workload_fixture(name, seed)
        for name in sorted(workloads.WORKLOADS)
        for seed in (1, 3, 7)
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(fixture: str, root: Path) -> dict[str, object]:
    """Write ``fixture``'s inputs under ``root``, assess them, and return the
    digest of each input and output by file name, of stdout and of stderr,
    and the exit code."""
    inputs, out = root / "inputs", root / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    paths = FIXTURES[fixture](inputs)
    args = ["assess"]
    for key, path in paths.items():
        args += [f"--{key}", path]
    for flag, name in OUTPUTS.items():
        args += [flag, str(out / name)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    found: dict[str, object] = {
        Path(path).name: _sha256(Path(path).read_bytes()) for path in paths.values()
    }
    for name in OUTPUTS.values():
        path = out / name
        found[name] = _sha256(path.read_bytes()) if path.exists() else None
    found["stdout"] = _sha256(stdout.getvalue().replace(str(out), "OUT").encode())
    found["stderr"] = _sha256(stderr.getvalue().encode())
    found["exit"] = code
    return found


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_fixture_bytes_match_the_table(fixture, tmp_path):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))[fixture]
    found = digests(fixture, tmp_path)
    moved = [
        f"{fixture}: {name}: expected {expected.get(name)}, got {found.get(name)}"
        for name in {**expected, **found}
        if expected.get(name) != found.get(name)
    ]
    assert not moved, "\n".join([*moved, f"C library: {platform.libc_ver()}"])


def test_the_table_names_every_fixture():
    assert sorted(json.loads(TABLE.read_text(encoding="utf-8"))) == sorted(FIXTURES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = {name: digests(name, Path(scratch) / name) for name in sorted(FIXTURES)}
    TABLE.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
