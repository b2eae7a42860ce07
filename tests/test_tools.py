"""The scripts under ``tools/`` still run against the package and diff as documented."""

import difflib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
sys.path.insert(0, str(TOOLS))

from blas_core import header  # noqa: E402


def _tool(name, *args, stdout=subprocess.PIPE, env=None):
    return subprocess.run([sys.executable, str(TOOLS / name), *args],
                          stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=120)


def _assert_matches_contract(name: str, fresh: list[str], made_by: str):
    """``fresh`` is the committed ``tests/golden/NAME`` line for line, its kernel header first.

    On another OpenBLAS kernel the hashes may move in their last bits, so the
    message's first line names the kernel of each side.
    """
    committed = (ROOT / "tests" / "golden" / name).read_text().splitlines()
    assert fresh[0] == header()
    diff = "\n".join(difflib.unified_diff(committed, fresh, f"tests/golden/{name}", made_by,
                                          n=0, lineterm=""))
    assert diff == "", f"committed on {committed[0]!r}, run on {fresh[0]!r}\n{diff}"


def test_verdict_digest_writes_and_self_compares(tmp_path):
    digest = tmp_path / "digest.jsonl"
    run = _tool("verdict_digest.py", "--seeds", "1", "--out", str(digest))
    assert run.returncode == 0, run.stderr
    assert run.stderr == "164 records\n"
    records = [json.loads(line) for line in digest.read_text().splitlines()]
    assert len(records) == 164
    # an Indeterminate is digested from the verdict it carries
    undecided = [r for r in records if r["error"] == "Indeterminate"]
    assert undecided
    for record in undecided:
        assert record["decomposable"] is None and record["degenerate"] is True
        assert record["slice_ranks"] and record["max_residual"] is not None
        assert record["basis_sha256"] and record["values_sha256"]
    # an accepted check records how far its weights are from the constructed ones
    accepted = [r for r in records if r["decomposable"]]
    assert accepted
    assert all(0.0 <= r["weight_error"] <= 1e-14 for r in accepted)
    assert all(r["weight_error"] is None for r in records if not r["decomposable"])
    same = _tool("verdict_digest.py", "--compare", str(digest), str(digest))
    assert same.returncode == 0, same.stdout
    assert "verdict-level differences: 0; bit-level differences: 0" in same.stdout
    assert f"closer in 0, farther in 0 of {len(accepted)} accepted checks" in same.stdout
    # one weight moved away from the constructed one: a bit-level difference, farther in one
    moved = accepted[0]
    moved["weights"][0] += 1e-15
    moved["weight_error"] += 1e-15
    other = tmp_path / "other.jsonl"
    other.write_text("".join(json.dumps(r) + "\n" for r in records))
    diff = _tool("verdict_digest.py", "--compare", str(digest), str(other))
    assert diff.returncode == 1, diff.stdout
    assert "verdict-level differences: 0; bit-level differences: 1" in diff.stdout
    assert f"closer in 0, farther in 1 of {len(accepted)} accepted checks" in diff.stdout


def test_verdict_digest_hashes_match_the_committed_verdict_contract():
    # a change that moves a verdict, a flag, a number or a digested array regenerates the
    # file with --seeds 1 --hashes and names the moved records
    run = _tool("verdict_digest.py", "--seeds", "1", "--hashes")
    assert run.returncode == 0, run.stderr
    _assert_matches_contract("verdicts.sha256", run.stdout.splitlines(),
                             "verdict_digest.py --seeds 1 --hashes")


def test_cli_golden_compare_exits_one_on_a_differing_run(tmp_path):
    record = dict(run="check w.json", exit=1, stdout_sha256="a", stderr_sha256="e",
                  stdout='{"verdict": {"max_residual": 0.5}}')
    paths = {}
    for name, changes in (("a", {}), ("same", {}),
                          ("other", dict(stdout_sha256="b",
                                         stdout='{"verdict": {"max_residual": 0.25}}')),
                          ("null", dict(stdout_sha256="n",
                                        stdout='{"verdict": {"max_residual": null}}'))):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(json.dumps({**record, **changes}) + "\n")
    same = _tool("cli_golden.py", "--compare", str(paths["a"]), str(paths["same"]))
    assert same.returncode == 0, same.stdout
    assert "differing runs: 0" in same.stdout
    other = _tool("cli_golden.py", "--compare", str(paths["a"]), str(paths["other"]))
    assert other.returncode == 1, other.stdout
    assert "check w.json: stdout_sha256 differ; keys ['verdict']; 1 numbers changed" in other.stdout
    # a leaf that moves between null and a number is a changed leaf, though not a changed number
    null = _tool("cli_golden.py", "--compare", str(paths["null"]), str(paths["a"]))
    assert null.returncode == 1, null.stdout
    assert ("check w.json: stdout_sha256 differ; keys ['verdict']; 0 numbers changed, "
            "max |deviation| 0; 1 leaves changed") in null.stdout


def test_cli_golden_hashes_match_the_committed_byte_contract():
    # a change that moves report bytes regenerates the file with --hashes and names the moved runs
    run = _tool("cli_golden.py", "--hashes")
    assert run.returncode == 0, run.stderr
    _assert_matches_contract("cli.sha256", run.stdout.splitlines(), "cli_golden.py --hashes")


def test_cli_process_prints_the_one_thread_bytes_at_two_threads(tmp_path):
    """``python -m trischmidt`` pins one BLAS thread before numpy loads, so with two
    threads asked for in its environment it still prints the committed one-thread bytes
    of the golden 20x20x20 distinct-weight state, whose reports move with the thread count
    where BLAS runs two threads.  The golden child cannot show this: it loads numpy before
    trischmidt.  On a machine with one core BLAS runs one thread either way, and this
    passes with the pin or without it."""
    import cli_golden

    name = "distinct-20x20x20.json"
    state = cli_golden.three_party_states()["distinct-20x20x20"]
    (tmp_path / name).write_text(json.dumps(cli_golden._payload(state)) + "\n")
    contract = (ROOT / "tests" / "golden" / "cli.sha256").read_text().splitlines()
    expected = {line.split(" ", 3)[3]: line for line in contract[1:]}  # past the kernel header
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="2",
               OMP_NUM_THREADS="2")
    for cmd in cli_golden.THREE_PARTY_COMMANDS:
        command = f"{cmd} {name}"
        run = subprocess.run([sys.executable, "-m", "trischmidt", cmd, name], cwd=tmp_path,
                             env=env, capture_output=True, timeout=120)
        line = cli_golden.hash_line(dict(run=command, exit=run.returncode,
                                         stdout_sha256=hashlib.sha256(run.stdout).hexdigest(),
                                         stderr_sha256=hashlib.sha256(run.stderr).hexdigest()))
        assert line == expected[command]


def test_bench_pairs_smoke_appends_a_record(tmp_path):
    results = tmp_path / "results.json"
    read_end, closed_stdout = os.pipe()
    os.close(read_end)
    # the second run writes its summary, unbuffered, to a pipe nobody reads: the print
    # fails, and the record written before it stays
    for n, stdout in ((1, subprocess.PIPE), (2, closed_stdout)):
        run = _tool("bench_pairs.py", "--parent", str(ROOT), "--workload", "decide-generic",
                    "--pairs", "1", "--smoke", "--out", str(results),
                    stdout=stdout, env=dict(os.environ, PYTHONUNBUFFERED="1"))
        records = json.loads(results.read_text())
        assert len(records) == n
        # one side, twice: a bytecode warning for each side or for neither
        bytecode = records[-1]["sides"]["parent"]["bytecode"]
        assert records[-1]["sides"]["change"]["bytecode"] == bytecode
        warnings = [f"warning: {side} side holds bytecode in {', '.join(bytecode)}; its imports "
                    "skip compiling, so set-up and import times may not compare"
                    for side in ("parent", "change")] if bytecode else []
        progress = [*warnings, "pair 1/1: parent", "pair 1/1: change"]
        if stdout is subprocess.PIPE:
            assert run.returncode == 0, run.stderr
            assert run.stderr.splitlines() == progress
            printed = run.stdout
        else:
            os.close(closed_stdout)
            assert run.stderr.splitlines()[:len(progress)] == progress
            assert "BrokenPipeError" in run.stderr
    record = records[-1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    assert list(record["summary"]) == names
    for name in names:
        entry = record["summary"][name]
        assert entry["change_wins"] + entry["parent_wins"] <= 1
        assert entry["reading"] in ("gain", "worse", "-")
        for side in ("parent", "change"):
            value = record["runs"][side][0]["metrics"][name]["value"]
            assert entry[side] == {"median": value, "q1": value, "q3": value}
        assert name in printed
    assert all(r["correct"] for side in record["runs"].values() for r in side)
    assert record["sides"]["parent"]["src_lines"] == record["sides"]["change"]["src_lines"] > 0
    assert all(path.startswith("src/") for path in record["sides"]["parent"]["bytecode"])
    assert set(record["machine"]) == {"cores", "cpu", "blas", "blas_core", "blas_threads",
                                      "dont_write_bytecode", "numpy", "python"}
    # with no bytecode on either side, this says whether each start compiles src/
    assert record["machine"]["dont_write_bytecode"] is bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    assert record["machine"]["blas_core"]
