"""Fixtures resolving the registry's ExitCase placeholders.

Each :class:`~repro.cli.registry.ExitCase` argv may reference
``{dataset}``, ``{logs}``, ``{no_logs}``, ``{logs_file}``, ``{cut}``,
``{bad_slurm}``, ``{built_store}``, ``{demo_store}``, ``{traced}``,
``{tmp}`` and ``{absent}``; the
session-scoped fixtures here build the small shared artifacts once so
the contract suite stays fast.
"""

from __future__ import annotations

import gzip
import json
import shutil

import pytest

from repro.cli import main

#: The tiny dataset the contract cases run against.
SCALE, SEED = "0.004", "3"


@pytest.fixture(scope="session")
def contract_dataset(tmp_path_factory):
    """A synthesized dataset directory (logs + slurm.jsonl)."""
    directory = tmp_path_factory.mktemp("cli-contract") / "data"
    assert main(["synthesize", str(directory),
                 "--scale", SCALE, "--seed", SEED]) == 0
    return directory


@pytest.fixture(scope="session")
def contract_dataset_without_logs(contract_dataset, tmp_path_factory):
    """A dataset directory holding slurm.jsonl but no logs/."""
    directory = tmp_path_factory.mktemp("cli-contract-no-logs")
    shutil.copy(contract_dataset / "slurm.jsonl", directory)
    return directory


@pytest.fixture(scope="session")
def contract_dataset_logs_file(contract_dataset, tmp_path_factory):
    """A dataset directory whose ``logs`` is a regular file."""
    directory = tmp_path_factory.mktemp("cli-contract-logs-file")
    shutil.copy(contract_dataset / "slurm.jsonl", directory)
    (directory / "logs").write_text("not a directory\n")
    return directory


@pytest.fixture(scope="session")
def contract_cut_dataset(contract_dataset, tmp_path_factory):
    """A dataset whose logs/ holds three of the contract dataset's node
    logs and a fourth gzipped and cut in half."""
    directory = tmp_path_factory.mktemp("cli-contract-cut")
    shutil.copy(contract_dataset / "slurm.jsonl", directory)
    (directory / "logs").mkdir()
    paths = sorted((contract_dataset / "logs").iterdir(), key=lambda p: p.stat().st_size)
    for path in paths[-4:-1]:
        shutil.copy(path, directory / "logs")
    data = gzip.compress(paths[-1].read_bytes())
    (directory / "logs" / f"{paths[-1].name}.gz").write_bytes(data[: len(data) // 2])
    return directory


@pytest.fixture(scope="session")
def contract_bad_slurm(contract_dataset, tmp_path_factory):
    """Dataset directories sharing the contract dataset's logs, each with
    one defect in slurm.jsonl: ``cut`` ends mid-line, ``kind`` holds a row
    of an unknown kind, ``name`` a job row without a name, and in ``dir``
    slurm.jsonl is a directory."""
    base = tmp_path_factory.mktemp("cli-contract-bad-slurm")
    lines = (contract_dataset / "slurm.jsonl").read_text().splitlines(keepends=True)
    job = json.loads(lines[1])
    del job["name"]
    defects = {
        "cut": lines[:-1] + [lines[-1][: len(lines[-1]) // 2]],
        "kind": lines[:2] + ['{"kind": "???"}\n'] + lines[2:],
        "name": lines[:1] + [json.dumps(job) + "\n"] + lines[2:],
    }
    for name, text in defects.items():
        (base / name).mkdir()
        (base / name / "logs").symlink_to(contract_dataset / "logs")
        (base / name / "slurm.jsonl").write_text("".join(text))
    (base / "dir" / "slurm.jsonl").mkdir(parents=True)
    (base / "dir" / "logs").symlink_to(contract_dataset / "logs")
    return base


@pytest.fixture(scope="session")
def contract_store(contract_dataset, tmp_path_factory):
    """A store built from the contract dataset."""
    directory = tmp_path_factory.mktemp("cli-contract-store") / "events"
    assert main(["store", "build", str(contract_dataset), str(directory),
                 "--scale", SCALE, "--seed", SEED]) == 0
    return directory


@pytest.fixture(scope="session")
def contract_demo_store(tmp_path_factory):
    """The replay demo trace ingested into a columnar store."""
    base = tmp_path_factory.mktemp("cli-contract-demo")
    assert main(["replay", "demo", str(base / "logs"), "--seed", "11"]) == 0
    assert main(["store", "build", str(base / "logs"),
                 str(base / "events")]) == 0
    return base / "events"


@pytest.fixture(scope="session")
def contract_trace(contract_dataset, tmp_path_factory):
    """A --trace directory left behind by a traced study run."""
    directory = tmp_path_factory.mktemp("cli-contract-trace") / "spans"
    assert main(["study", "--dataset", str(contract_dataset),
                 "--scale", SCALE, "--seed", SEED,
                 "--trace", str(directory)]) == 0
    return directory


@pytest.fixture
def placeholders(contract_dataset, contract_dataset_without_logs,
                 contract_dataset_logs_file, contract_cut_dataset,
                 contract_bad_slurm, contract_store, contract_demo_store,
                 contract_trace, tmp_path):
    return {
        "dataset": contract_dataset,
        "logs": contract_dataset / "logs",
        "no_logs": contract_dataset_without_logs,
        "logs_file": contract_dataset_logs_file,
        "cut": contract_cut_dataset,
        "bad_slurm": contract_bad_slurm,
        "built_store": contract_store,
        "demo_store": contract_demo_store,
        "traced": contract_trace,
        "tmp": tmp_path,
        "absent": tmp_path / "absent",
    }
