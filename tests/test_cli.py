"""End-to-end checks of the command-line interface.

Most tests drive main() in-process for speed; one subprocess test proves
the module entry point works from a cold start.
"""

import argparse
import hashlib
import json
import os
import shlex
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import syncrate
from syncrate import (
    EstimatorConfig,
    estimate_entropy_rate,
    lz78_entropy_estimate,
)
from syncrate.cli import _load_stream, main
from syncrate.pfsa import (
    analytical_entropy_rate,
    format_pfsa,
    simulate,
    two_state_synchronizable,
)
from syncrate.streams import SymbolStream, BINARY
from test_estimator import markov27_machine
from test_sync import solved  # noqa: F401 (fixture)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    machine = two_state_synchronizable()
    (root / "sync.pfsa").write_text(format_pfsa(machine))
    stream = simulate(machine, 30_000, seed=0)
    stream.data.astype(np.uint8).tofile(root / "sync.raw")
    return root


ESTIMATE_FLAGS = [
    "--epsilon", "0.05", "--ext-max", "4",
    "--nmin", "200", "--collect-min", "200", "--search-length", "1",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_human_output(self, workdir, capsys):
        code, out, _ = run(
            ["estimate", "--input", str(workdir / "sync.raw")] + ESTIMATE_FLAGS,
            capsys,
        )
        assert code == 0
        assert "entropy rate" in out
        assert "sync word" in out
        assert "bits/symbol" in out

    def test_tsv_matches_library(self, workdir, capsys):
        code, out, _ = run(
            ["estimate", "--input", str(workdir / "sync.raw"), "--tsv"]
            + ESTIMATE_FLAGS,
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# columns: h\tE\talpha")
        assert lines[1].startswith("# manifest: ")
        assert len(lines[1]) == len("# manifest: ") + 64
        fields = lines[2].split("\t")
        assert len(fields) == 8

        raw = np.fromfile(workdir / "sync.raw", dtype=np.uint8)
        stream = SymbolStream(raw.astype(np.int64), BINARY)
        cfg = EstimatorConfig(
            epsilon=0.05, alpha=0.95, sample_size=100_000,
            max_extension_length=4, min_count=200, seed=0,
        )
        report = estimate_entropy_rate(
            stream, cfg, collect_min_count=200, search_length=1
        )
        assert float(fields[0]) == pytest.approx(report.entropy_rate, abs=1e-10)
        assert float(fields[1]) == pytest.approx(report.bound, abs=1e-10)
        assert fields[4] == "0"
        assert int(fields[6]) == report.samples_used
        assert int(fields[7]) == 30_000

    def test_byte_identical_reruns(self, workdir, capsys):
        a = workdir / "a.tsv"
        b = workdir / "b.tsv"
        for path in (a, b):
            code, _, _ = run(
                ["estimate", "--input", str(workdir / "sync.raw"),
                 "--tsv", "--out", str(path)] + ESTIMATE_FLAGS,
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lz78_method(self, workdir, capsys):
        code, out, _ = run(
            ["estimate", "--input", str(workdir / "sync.raw"),
             "--method", "lz78", "--tsv"],
            capsys,
        )
        assert code == 0
        fields = out.splitlines()[2].split("\t")
        raw = np.fromfile(workdir / "sync.raw", dtype=np.uint8)
        stream = SymbolStream(raw.astype(np.int64), BINARY)
        assert float(fields[0]) == pytest.approx(
            lz78_entropy_estimate(stream), abs=1e-10
        )
        # no bound for the baseline
        assert fields[1] == ""
        assert fields[3] == ""


class TestSync:
    def test_human_summary(self, workdir, capsys):
        code, out, _ = run(
            ["sync", "--input", str(workdir / "sync.raw"),
             "--search-length", "1", "--collect-min", "200"],
            capsys,
        )
        assert code == 0
        word, frequency = out.splitlines()
        assert word == "sync word      0"
        assert frequency.startswith("frequency      ")

    def test_tsv_dump(self, workdir, capsys):
        code, out, err = run(
            ["sync", "--input", str(workdir / "sync.raw"), "--tsv",
             "--search-length", "2", "--collect-min", "200"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# columns: string\tcount\tp_0\tp_1"
        # the empty word's row renders with a blank first field
        first_row = lines[2].split("\t")
        assert first_row[0] == ""
        assert int(first_row[1]) == 30_000
        for line in lines[2:]:
            fields = line.split("\t")
            assert float(fields[2]) + float(fields[3]) == pytest.approx(1.0)
        # summary still reaches the terminal, via stderr
        assert "sync word" in err

    def test_epsilon_unread_with_search_length(self, workdir, capsys):
        code, out, _ = run(
            ["sync", "--input", str(workdir / "sync.raw"),
             "--epsilon", "0", "--search-length", "1"],
            capsys,
        )
        assert code == 0
        assert "sync word" in out


@pytest.fixture(scope="module")
def pick_inputs(workdir):
    raw, labels = workdir / "markov27.raw", workdir / "markov27.alphabet"
    stream = simulate(markov27_machine(), 100_000, seed=1)
    stream.data.astype(np.uint8).tofile(raw)
    labels.write_text("\n".join(string.ascii_lowercase + "_") + "\n")
    return {
        "fixture": ["--input", str(workdir / "sync.raw")],
        "markov27": ["--input", str(raw), "--alphabet-map", str(labels)],
    }


# sync runs Phase I alone, so its pick must be the one estimate reports
@pytest.mark.parametrize(
    "flags", [[], ["--search-length", "2", "--collect-min", "300"]],
    ids=["default", "set"],
)
@pytest.mark.parametrize("source", ["fixture", "markov27"])
def test_sync_and_estimate_pick_the_same_word(source, flags, pick_inputs, capsys):
    argv = pick_inputs[source] + flags
    code, table, summary = run(["sync", "--tsv"] + argv, capsys)
    assert code == 0
    word_line, frequency_line = summary.splitlines()[:2]
    code, out, _ = run(["estimate", "--tsv"] + argv, capsys)
    assert code == 0
    fields = out.splitlines()[2].split("\t")
    x0, p0, n = fields[4], fields[5], int(fields[7])
    assert word_line.removeprefix("sync word").strip() == (x0 or "<empty>")
    assert frequency_line.removeprefix("frequency").strip() == f"{float(p0):.6f}"
    counts = {
        row[0]: int(row[1])
        for row in (line.split("\t") for line in table.splitlines()[2:])
    }
    assert p0 == "%.12g" % (counts[x0] / n)


def test_sync_solves_as_many_programs_as_estimate(pick_inputs, solved, capsys):
    # both subcommands pick through find_sync_string, which stops at the
    # first vertex in selection order
    programs = []
    for subcommand in ("sync", "estimate"):
        code, _, _ = run([subcommand] + pick_inputs["markov27"], capsys)
        assert code == 0
        programs.append(len(solved))
        solved.clear()
    assert programs == [1, 1]


# --out takes the human summary too, exactly as stdout would show it
@pytest.mark.parametrize(
    "argv",
    [["estimate"] + ESTIMATE_FLAGS, ["sync", "--search-length", "1", "--collect-min", "200"]],
)
def test_out_takes_the_human_summary(argv, workdir, capsys):
    argv = argv + ["--input", str(workdir / "sync.raw")]
    code, printed, _ = run(argv, capsys)
    assert code == 0 and printed
    path = workdir / f"{argv[0]}-summary.txt"
    code, out, err = run(argv + ["--out", str(path)], capsys)
    assert code == 0
    assert out == err == ""
    assert path.read_text(encoding="utf-8") == printed


class TestBounds:
    def test_frozen_anchors_and_alpha_ordering(self, capsys):
        code, out, _ = run(
            ["bounds", "--alphabet-size", "27", "--alpha", "0.95,0.99",
             "--lengths", "1000000,5000000,10000000"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# columns: length\tE_alpha0.95\tE_alpha0.99"
        rows = [line.split("\t") for line in lines[2:]]
        by_length = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert by_length[5_000_000][0] == pytest.approx(
            0.888430506585853, abs=1e-9
        )
        for e95, e99 in by_length.values():
            assert e99 > e95

    def test_binary_anchor_uses_default_samples(self, capsys):
        # no --samples, no sampling term: the anchor was taken at the default
        # sample size, which was chosen to make that term vanish
        code, out, _ = run(
            ["bounds", "--alphabet-size", "2", "--lengths", "5000000"],
            capsys,
        )
        assert code == 0
        value = float(out.splitlines()[2].split("\t")[1])
        assert value == pytest.approx(0.22076931065228933, abs=1e-9)

    @pytest.mark.parametrize("k", ["1", "0"])
    def test_alphabet_below_two_symbols_rejected(self, k, capsys):
        code, out, err = run(
            ["bounds", "--alphabet-size", k, "--lengths", "5000000"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "alphabet_size must be an integer of at least 2" in err


class TestBenchmark:
    def test_columns_and_values(self, workdir, capsys):
        code, out, _ = run(
            ["benchmark", "--input", str(workdir / "sync.raw"),
             "--checkpoints", "10000,30000"] + ESTIMATE_FLAGS,
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# columns: length\th_main\tE_main\th_lz"
        rows = {int(r[0]): r for r in (line.split("\t") for line in lines[2:])}
        truth = analytical_entropy_rate(two_state_synchronizable())
        h_main = float(rows[30_000][1])
        h_lz = float(rows[30_000][3])
        assert abs(h_main - truth) < 0.05
        assert abs(h_main - truth) < abs(h_lz - truth)


def _layout_digest(flags, symbols, labels):
    run = {
        "flags": flags,
        "labels": labels,
        "symbols": symbols,
        "version": syncrate.__version__,
    }
    blob = json.dumps(run, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


ESTIMATE_PARSED = {
    "text": False, "epsilon": 0.05, "alpha": 0.95,
    "ext_max": 4, "nmin": 200, "search_length": 1, "collect_min": 200,
}


@pytest.mark.parametrize(
    "argv,flags,reads_input",
    [
        (["estimate", "--tsv"] + ESTIMATE_FLAGS,
         dict(ESTIMATE_PARSED, command="estimate", method="paper", tsv=True),
         True),
        (["sync", "--tsv", "--search-length", "2", "--collect-min", "200"],
         {"command": "sync", "text": False, "epsilon": 0.05,
          "search_length": 2, "collect_min": 200, "tsv": True},
         True),
        (["bounds", "--alphabet-size", "27", "--alpha", "0.95,0.99",
          "--lengths", "1000000,5000000"],
         {"command": "bounds", "alphabet_size": 27, "alpha_list": "0.95,0.99",
          "samples": None, "p0": None, "lengths": "1000000,5000000"},
         False),
        (["benchmark", "--checkpoints", "10000,30000"] + ESTIMATE_FLAGS,
         dict(ESTIMATE_PARSED, command="benchmark", checkpoints="10000,30000"),
         True),
    ],
    ids=["estimate", "sync", "bounds", "benchmark"],
)
def test_manifest_digest_layout(argv, flags, reads_input, workdir, capsys):
    # the flags as parsed, less input and output paths, plus the symbols,
    # their labels and the version
    raw = workdir / "sync.raw"
    if reads_input:
        symbols, labels = hashlib.sha256(raw.read_bytes()).hexdigest(), ["0", "1"]
    else:
        symbols, labels = None, None
    code, out, _ = run(argv + (["--input", str(raw)] if reads_input else []), capsys)
    assert code == 0
    expected = _layout_digest(flags, symbols, labels)
    assert out.splitlines()[1] == f"# manifest: {expected}"


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--tsv"] + ESTIMATE_FLAGS,
     ["sync", "--tsv", "--search-length", "2", "--collect-min", "200"]],
    ids=["estimate", "sync"],
)
def test_manifest_covers_the_labels(argv, workdir, capsys, tmp_path):
    # one stream under two maps that differ only in their labels
    outputs = []
    for labels in ("a\nb\n", "x\ny\n"):
        path = tmp_path / "labels.txt"
        path.write_text(labels)
        code, out, _ = run(
            argv + ["--input", str(workdir / "sync.raw"), "--alphabet-map", str(path)],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        outputs.append((lines[1], lines[:1] + lines[2:]))
    (manifest_ab, table_ab), (manifest_xy, table_xy) = outputs
    assert table_ab != table_xy
    assert manifest_ab != manifest_xy


class TestGenerate:
    def test_pfsa_source(self, workdir, capsys):
        out_path = workdir / "g.raw"
        code, _, err = run(
            ["generate", "--source", "pfsa", "--model",
             str(workdir / "sync.pfsa"), "--n", "5000", "--seed", "3",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "wrote 5000 symbols" in err
        assert out_path.stat().st_size == 5000
        assert (workdir / "g.raw.alphabet").read_text() == "0\n1\n"
        # deterministic in the seed
        expected = simulate(two_state_synchronizable(), 5000, seed=3)
        assert np.array_equal(
            np.fromfile(out_path, dtype=np.uint8).astype(np.int64),
            expected.data,
        )

    def test_text_source_and_text_flag_agree(self, workdir, capsys):
        doc = workdir / "doc.txt"
        doc.write_text("The quick brown fox; the quick brown fox. JUMPS!")
        out_path = workdir / "doc.raw"
        code, _, _ = run(
            ["generate", "--source", "text", "--input", str(doc),
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        _, via_raw, _ = run(
            ["sync", "--input", str(out_path), "--alphabet-map",
             str(out_path) + ".alphabet", "--search-length", "1",
             "--collect-min", "1"],
            capsys,
        )
        _, via_text, _ = run(
            ["sync", "--input", str(doc), "--text", "--search-length", "1",
             "--collect-min", "1"],
            capsys,
        )
        assert via_raw == via_text

    def test_chaos_and_iid_sources(self, workdir, capsys):
        code, _, _ = run(
            ["generate", "--source", "chaos", "--r", "1.7499", "--n", "2000",
             "--out", str(workdir / "c.raw")],
            capsys,
        )
        assert code == 0
        data = np.fromfile(workdir / "c.raw", dtype=np.uint8)
        assert set(np.unique(data)) <= {0, 1}
        code, _, _ = run(
            ["generate", "--source", "iid", "--probs", "0.2,0.3,0.5",
             "--n", "2000", "--out", str(workdir / "i.raw")],
            capsys,
        )
        assert code == 0
        assert (workdir / "i.raw.alphabet").read_text() == "0\n1\n2\n"

    @pytest.mark.parametrize(
        "source",
        [["iid"], ["pfsa", "--model", "{workdir}/sync.pfsa"]],
        ids=["iid", "pfsa"],
    )
    def test_negative_seed_is_one(self, source, workdir, tmp_path, capsys):
        argv = ["generate", "--source"] + [a.format(workdir=workdir) for a in source]
        code, _, err = run(argv + ["--seed", "-1", "--out", str(tmp_path / "x.raw")], capsys)
        assert code == 1
        assert err.startswith("syncrate: ") and "seed" in err
        assert "Traceback" not in err


class TestExitCodes:
    def test_missing_input_names_path(self, capsys):
        code, _, err = run(["estimate", "--input", "/nope/missing.raw"], capsys)
        assert code == 1
        assert "/nope/missing.raw" in err

    def test_insufficient_data_is_two(self, workdir, capsys):
        code, _, err = run(
            ["estimate", "--input", str(workdir / "sync.raw"),
             "--collect-min", "100000"],
            capsys,
        )
        assert code == 2
        assert "insufficient data" in err

    @pytest.mark.parametrize("command", ["estimate", "sync", "benchmark"])
    def test_negative_count_floor_is_one(self, command, workdir, capsys):
        extra = ["--checkpoints", "1000,30000"] if command == "benchmark" else []
        code, out, err = run(
            [command, "--input", str(workdir / "sync.raw"), "--collect-min", "-3"] + extra,
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "count floor" in err

    def test_bad_flag_is_one(self, capsys):
        # --samples sets the sampling term, which only `bounds` has
        for argv in (
            ["estimate", "--no-such-flag"],
            ["estimate", "--samples", "10"],
            ["benchmark", "--checkpoints", "100", "--samples", "10"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--input", "unused.raw"])
            assert exc.value.code == 1

    def test_empty_checkpoints(self, workdir, capsys):
        code, _, _ = run(
            ["benchmark", "--input", str(workdir / "sync.raw"),
             "--checkpoints", ""],
            capsys,
        )
        assert code == 1

    def test_pfsa_without_model(self, workdir, capsys):
        code, _, _ = run(
            ["generate", "--source", "pfsa", "--n", "10",
             "--out", str(workdir / "x.raw")],
            capsys,
        )
        assert code == 1

    def test_text_without_input(self, workdir, capsys):
        code, _, err = run(
            ["generate", "--source", "text", "--out", str(workdir / "x.raw")],
            capsys,
        )
        assert code == 1
        assert "--source text needs --input" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("automaton 2 0 1\n", "line 1: header"),
            ("# a machine\n\npfsa 2 0\n", "line 3: header"),
            ("pfsa two 0 1\n", "line 1: state count 'two' is not an integer"),
            ("pfsa 0 0 1\n", "line 1: state count must be positive"),
            ("pfsa 10000000000000 0 1\n0 0 0 0.5\n0 1 0 0.5\n",
             "line 1: 10000000000000 states declared but 2 arc lines"),
            ("pfsa 1 0 1\n0 0 0\n", "line 2: arc must read"),
            ("pfsa 1 0 1\n0 0 0 0.5 x\n", "line 2: arc must read"),
            ("pfsa 1 0 1\n0 0 zero 1.0\n", "line 2: state indices must be integers"),
            ("pfsa 2 0 1\n0 0 2 1.0\n", "line 2: state index out of range"),
            ("pfsa 2 0 1\n-1 0 0 1.0\n", "line 2: state index out of range"),
            ("pfsa 1 0 1\n0 0 0 half\n", "line 2: probability 'half' is not a number"),
            ("", "line 1: empty machine description"),
            ("# only a comment\n\n", "line 1: empty machine description"),
        ],
    )
    def test_bad_model_names_its_line(self, text, message, tmp_path, capsys):
        model = tmp_path / "bad.pfsa"
        model.write_text(text)
        code, _, err = run(
            ["generate", "--source", "pfsa", "--model", str(model), "--n", "10",
             "--out", str(tmp_path / "x.raw")],
            capsys,
        )
        assert code == 1
        assert err.startswith("syncrate: ") and message in err
        assert "Traceback" not in err

    def test_undecodable_model_is_one(self, tmp_path, capsys):
        model = tmp_path / "bad.pfsa"
        model.write_bytes(b"\xff\xfe")
        code, _, err = run(
            ["generate", "--source", "pfsa", "--model", str(model), "--n", "10",
             "--out", str(tmp_path / "x.raw")],
            capsys,
        )
        assert code == 1
        assert err.startswith("syncrate: ") and str(model) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["x", "nan", "inf", ","])
    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--lengths", ["bounds", "--alphabet-size", "2"]),
            ("--alpha", ["bounds", "--alphabet-size", "2", "--lengths", "1000"]),
            ("--checkpoints", ["benchmark", "--input", "{workdir}/sync.raw"]),
            ("--probs", ["generate", "--source", "iid", "--n", "10", "--out", "{tmp}/x"]),
        ],
    )
    def test_bad_number_list_is_one(self, flag, argv, value, workdir, tmp_path, capsys):
        argv = [a.format(workdir=workdir, tmp=tmp_path) for a in argv] + [flag, value]
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith(f"syncrate: {flag} ")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--lengths", ["bounds", "--alphabet-size", "2", "--lengths", "1.7,2.5e3"]),
            ("--checkpoints", ["benchmark", "--input", "{workdir}/sync.raw",
                               "--checkpoints", "1000.9,30000"]),
        ],
    )
    def test_fractional_length_is_one(self, flag, argv, workdir, capsys):
        argv = [a.format(workdir=workdir) for a in argv]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"syncrate: {flag} ")

EDGE_STREAMS = {
    "empty": np.zeros(0, dtype=np.uint8),
    "constant": np.zeros(5_000, dtype=np.uint8),
    "one-symbol": np.ones(1, dtype=np.uint8),
    "ternary": np.random.default_rng(0).integers(0, 3, 2_000).astype(np.uint8),
    "octal": np.random.default_rng(0).integers(0, 8, 20_000).astype(np.uint8),
}


class TestEdgeInputs:
    @pytest.mark.parametrize(
        "name, argv, expected",
        [
            ("empty", ["estimate", "--method", "lz78", "--tsv"], 1),
            ("empty", ["estimate", "--tsv"], 2),
            ("empty", ["benchmark", "--checkpoints", "1"], 1),
            ("constant", ["estimate", "--method", "lz78", "--tsv"], 0),
            ("constant", ["estimate", "--tsv"], 0),
            ("constant", ["benchmark", "--checkpoints", "1000,5000"], 0),
            ("one-symbol", ["estimate", "--method", "lz78", "--tsv"], 0),
            ("one-symbol", ["estimate", "--tsv"], 2),
            ("one-symbol", ["benchmark", "--checkpoints", "1"], 0),
            ("empty", ["sync"], 2),
            ("empty", ["sync", "--tsv"], 2),
            ("constant", ["sync"], 0),
            ("constant", ["sync", "--tsv"], 0),
            ("one-symbol", ["sync"], 2),
            ("one-symbol", ["sync", "--tsv"], 2),
            # words too long for int64 codes
            ("ternary", ["sync", "--search-length", "40"], 1),
            ("ternary", ["estimate", "--ext-max", "60"], 1),
            # 684 distinct derivatives, more than the hull test takes
            ("octal", ["sync", "--search-length", "4", "--collect-min", "10"], 1),
        ],
    )
    def test_documented_exit_code(self, name, argv, expected, tmp_path, capsys):
        path = tmp_path / f"{name}.raw"
        EDGE_STREAMS[name].tofile(path)
        code, out, err = run(argv + ["--input", str(path)], capsys)
        assert code == expected
        assert "Traceback" not in err
        if code:
            assert err.startswith("syncrate: ")
            return
        if argv[0] == "sync":
            summary = err if "--tsv" in argv else out
            assert summary.startswith("sync word")
            return
        rows = [line.split("\t") for line in out.splitlines()[2:]]
        assert rows
        if argv[0] == "benchmark":
            h_lz = [float(row[3]) for row in rows]
        elif "lz78" in argv:
            h_lz = [float(rows[0][0])]
        else:
            assert float(rows[0][1]) == 1.0  # bound capped at log2(2)
            return
        assert all(np.isfinite(h) and h >= 0.0 for h in h_lz)

    @pytest.mark.parametrize(
        "argv, labels",
        [
            (["sync"], b"a\nb\n"),  # fewer labels than the stream's symbols
            (["estimate"], b"a\nb\na\n"),  # duplicate labels
            (["estimate"], b"a\n\xff\xfe\nc\n"),  # not UTF-8
            (["sync"], b"a\n\nc\n"),  # an empty label line
            (["estimate"], "\n".join(map(str, range(257))).encode()),  # 257 labels
            # a tab would split the label across TSV columns
            (["sync", "--tsv"], b"a\tx\nb\nc\n"),
            (["estimate", "--tsv"], b"a\tx\nb\nc\n"),
        ],
    )
    def test_bad_alphabet_map_is_one(self, argv, labels, tmp_path, capsys):
        path = tmp_path / "ternary.raw"
        EDGE_STREAMS["ternary"].tofile(path)
        (tmp_path / "labels.txt").write_bytes(labels)
        code, _, err = run(
            argv + ["--input", str(path), "--alphabet-map", str(tmp_path / "labels.txt")],
            capsys,
        )
        assert code == 1
        assert err.startswith("syncrate: ")
        assert "Traceback" not in err


def test_load_stream_holds_one_byte_per_symbol(tmp_path):
    n = 2_000_000
    path = tmp_path / "big.raw"
    np.random.default_rng(0).integers(0, 2, n).astype(np.uint8).tofile(path)
    args = argparse.Namespace(input=str(path), alphabet_map=None, text=False)
    tracemalloc.start()
    try:
        stream = _load_stream(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stream) == n and peak / n < 2


@pytest.mark.parametrize(
    "symbols, labels",
    [
        ([], ("0", "1")),
        ([0, 0, 0], ("0", "1")),
        ([0, 1, 1, 0], ("0", "1")),
        ([0, 2, 1], ("0", "1", "2")),
    ],
)
def test_load_stream_alphabet_rule(symbols, labels, tmp_path):
    # labels 0..max symbol, never fewer than two: binary files read as BINARY
    path = tmp_path / "in.raw"
    np.array(symbols, dtype=np.uint8).tofile(path)
    args = argparse.Namespace(input=str(path), alphabet_map=None, text=False)
    stream = _load_stream(args)
    assert stream.alphabet.labels == labels
    assert (stream.alphabet == BINARY) == (len(labels) == 2)


def test_module_entry_point():
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(syncrate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "syncrate.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("syncrate ")


def readme_commands():
    """The ``syncrate ...`` lines of the README's "Command line" sh block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("syncrate ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "book.txt").write_text("It was the best of times, it was the worst of times. " * 50)
    commands = readme_commands()
    assert len(commands) == 8
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)
