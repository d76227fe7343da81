import argparse
import json
import os
import resource
import threading
import time

import numpy as np
import pytest
from conftest import ALLOWED_CPUS, misstate_layout, needs_two_cpus

from dialoglm import corpus, fileio, numeric, synthetic, topics
from dialoglm.cli import (KIND_FLAGS, _parse_candidate_file, build_parser, main,
                          render_heatmap_pgm)
from dialoglm.errors import DataError
from dialoglm.generator import AttentionTrace, Candidate, continuation_log_likelihood
from dialoglm.models import RnnLm, load_checkpoint, make_model, save_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A prepared corpus plus a small trained checkpoint, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    tc = synthetic.topical(80, seed=13, n_topics=2, generic_prob=0.3,
                           templates_per_topic=4)
    raw = root / "raw.txt"
    corpus.write_corpus_words(raw, tc.dialogues)
    prep = root / "prep"
    assert main(["prepare", "--corpus", str(raw), "--out", str(prep),
                 "--vocab-size", "100", "--ratios", "0.7,0.15,0.15",
                 "--seed", "5"]) == 0
    run = root / "run"
    assert main(["train", "--train", str(prep / "train.txt"),
                 "--dev", str(prep / "dev.txt"),
                 "--vocab", str(prep / "vocab.txt"), "--out", str(run),
                 "--kind", "arnn", "--d", "10", "--d-e", "8",
                 "--lr", "0.003", "--epochs", "3", "--seed", "2"]) == 0
    return {"root": root, "raw": raw, "prep": prep, "run": run,
            "vocab": prep / "vocab.txt", "ckpt": run / "model.ckpt"}


class TestPrepare:
    def test_outputs_and_manifest(self, workspace):
        prep = workspace["prep"]
        for name in ("vocab.txt", "train.txt", "dev.txt", "test.txt",
                     "manifest.json"):
            assert (prep / name).exists()
        manifest = json.loads((prep / "manifest.json").read_text())
        assert manifest["subcommand"] == "prepare"
        assert manifest["seed"] == 5
        assert manifest["config"]["vocab_size"] == 100
        assert manifest["numerics"] == 4
        assert manifest["started"] <= manifest["ended"]

    def test_manifest_records_numpy_blas_and_thread_settings(self, workspace, tmp_path,
                                                             monkeypatch):
        # what a run's bytes depend on besides its inputs and flags
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "")
        out = tmp_path / "prep"
        assert main(["prepare", "--corpus", str(workspace["raw"]), "--out", str(out),
                     "--vocab-size", "100", "--ratios", "0.7,0.15,0.15", "--seed", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == blas.get("openblas configuration",
                                            f"{blas['name']} {blas['version']}")
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                            "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": ""}
        for name in ("vocab.txt", "train.txt", "dev.txt", "test.txt"):
            assert (out / name).read_bytes() == (workspace["prep"] / name).read_bytes()

    def test_split_arithmetic(self, workspace):
        prep = workspace["prep"]
        sizes = {name: len((prep / f"{name}.txt").read_text().splitlines())
                 for name in ("train", "dev", "test")}
        assert sizes["train"] == 56 and sizes["dev"] == 12 and sizes["test"] == 12

    def test_deterministic(self, workspace, tmp_path):
        out2 = tmp_path / "prep2"
        assert main(["prepare", "--corpus", str(workspace["raw"]),
                     "--out", str(out2), "--vocab-size", "100",
                     "--ratios", "0.7,0.15,0.15", "--seed", "5"]) == 0
        for name in ("vocab.txt", "train.txt", "dev.txt", "test.txt"):
            assert (out2 / name).read_text() == \
                (workspace["prep"] / name).read_text()

    def test_unk_rate_reported(self, workspace, tmp_path, capsys):
        out = tmp_path / "prep3"
        assert main(["prepare", "--corpus", str(workspace["raw"]),
                     "--out", str(out), "--vocab-size", "10",
                     "--ratios", "0.7,0.15,0.15", "--seed", "5"]) == 0
        stdout = capsys.readouterr().out
        assert "unk rate" in stdout
        # a 10-token vocabulary over this corpus must leave unknowns
        rates = [float(line.rsplit(" ", 1)[1]) for line in stdout.splitlines()
                 if "unk rate" in line]
        assert any(r > 0 for r in rates)

    def test_all_train_ratio(self, workspace, tmp_path):
        out = tmp_path / "all"
        assert main(["prepare", "--corpus", str(workspace["raw"]),
                     "--out", str(out), "--vocab-size", "100",
                     "--ratios", "1,0,0", "--seed", "1"]) == 0
        assert len((out / "train.txt").read_text().splitlines()) == 80

    def test_malformed_line_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b | c\nonly one turn\n", encoding="utf-8")
        code = main(["prepare", "--corpus", str(bad), "--out",
                     str(tmp_path / "o"), "--vocab-size", "50"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["prepare", "--nonsense"]) == 1


class TestTrain:
    def test_artifacts(self, workspace):
        run = workspace["run"]
        assert (run / "model.ckpt").exists()
        assert (run / "train_log.txt").exists()
        lines = (run / "train_log.txt").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            fields = line.split(", ")
            assert len(fields) == 5

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("d=10\nd_e=8\nepochs=1\nlr=0.003\n", encoding="utf-8")
        out = tmp_path / "cfgrun"
        assert main(["train", "--config", str(cfg),
                     "--train", str(workspace["prep"] / "train.txt"),
                     "--dev", str(workspace["prep"] / "dev.txt"),
                     "--vocab", str(workspace["vocab"]),
                     "--out", str(out), "--kind", "rnn", "--seed", "3",
                     "--epochs", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2  # flag beats config file
        assert manifest["config"]["d"] == 10

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]])
    def test_config_file_any_spelling(self, workspace, tmp_path, spelling):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr=0\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", *[s.format(cfg) for s in spelling],
                     "--train", str(workspace["prep"] / "train.txt"),
                     "--dev", str(workspace["prep"] / "dev.txt"),
                     "--vocab", str(workspace["vocab"]), "--out", str(out),
                     "--kind", "rnn", "--d", "4", "--epochs", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["lr"] == 0.0

    def test_config_file_gives_required_flags(self, workspace, tmp_path):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "run"
        cfg.write_text(f"train={workspace['prep'] / 'train.txt'}\n"
                       f"dev={workspace['prep'] / 'dev.txt'}\n"
                       f"vocab={workspace['vocab']}\nout={out}\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--kind", "rnn", "--d", "4",
                     "--epochs", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["out"] == str(out)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, workspace, tmp_path, capsys):
        # an absurd learning rate drives the forward pass non-finite -> exit 3
        code = main(["train", "--train", str(workspace["prep"] / "train.txt"),
                     "--dev", str(workspace["prep"] / "dev.txt"),
                     "--vocab", str(workspace["vocab"]),
                     "--out", str(tmp_path / "diverge"), "--kind", "rnn",
                     "--d", "8", "--d-e", "6", "--lr", "1e200",
                     "--epochs", "3", "--seed", "0"])
        assert code == 3
        assert "sequence" in capsys.readouterr().err

    def test_checkpoint_vocab_binding(self, workspace, tmp_path):
        # a vocabulary with different content must be refused
        other_vocab = tmp_path / "other_vocab.txt"
        other_vocab.write_text("zzz\nyyy\n", encoding="utf-8")
        code = main(["eval", "--checkpoint", str(workspace["ckpt"]),
                     "--vocab", str(other_vocab),
                     "--corpus", str(workspace["prep"] / "test.txt"),
                     "--out", str(tmp_path / "e")])
        assert code == 2


class TestEval:
    def test_uniform_checkpoint_ppl_equals_vocab_size(self, workspace, tmp_path):
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        model = RnnLm(8, 6, vocab.size, seed=0)
        model.params["O"][:] = 0.0
        ckpt = tmp_path / "uniform.ckpt"
        save_checkpoint(ckpt, model, vocab.sha256())
        out = tmp_path / "eval_uniform"
        assert main(["eval", "--checkpoint", str(ckpt), "--vocab",
                     str(workspace["vocab"]),
                     "--corpus", str(workspace["prep"] / "test.txt"),
                     "--out", str(out), "--recall-n", "10"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["values"]["ppl"] - vocab.size) < vocab.size * 1e-6
        assert report["values"]["recall_at_10"] == 1.0

    def test_text_mode_bleu(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b c\nd e\n", encoding="utf-8")
        ref.write_text("a b c\nd e\n", encoding="utf-8")
        out = tmp_path / "txteval"
        assert main(["eval", "--hyp", str(hyp), "--ref", str(ref),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["values"]["bleu"] == pytest.approx(1.0)
        assert report["values"]["distinct_1"] == 1.0

    def test_model_mode_needs_inputs(self, tmp_path):
        assert main(["eval", "--out", str(tmp_path / "x")]) == 2

    def _eval_manifest(self, workspace, out):
        assert main(["eval", "--checkpoint", str(workspace["ckpt"]), "--vocab",
                     str(workspace["vocab"]), "--corpus", str(workspace["prep"] / "test.txt"),
                     "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    def test_manifest_lane_cpus_is_null_without_a_hand_off(self, workspace, tmp_path,
                                                           fresh_worker):
        # the workspace's model is below LANE_MIN: every piece runs inline
        assert self._eval_manifest(workspace, tmp_path / "e")["lane_cpus"] is None
        assert fresh_worker == []

    @needs_two_cpus
    def test_manifest_lane_cpus_names_the_workers_cpus(self, workspace, tmp_path,
                                                       fresh_worker, monkeypatch):
        monkeypatch.setattr(numeric, "LANE_MIN", 0)
        manifest = self._eval_manifest(workspace, tmp_path / "e")
        # one read of the calling thread's CPU per hand-off; the worker keeps
        # off the CPU of one of them
        assert {tid for _, tid in fresh_worker} == {threading.get_native_id()}
        assert manifest["lane_cpus"] in [sorted(ALLOWED_CPUS - {cpu})
                                         for cpu, _ in fresh_worker]
        assert numeric.lane_cpus() == manifest["lane_cpus"]


@pytest.fixture(scope="module")
def generated(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert main(["generate", "--checkpoint", str(workspace["ckpt"]),
                 "--vocab", str(workspace["vocab"]),
                 "--histories", str(workspace["prep"] / "test.txt"),
                 "--out", str(out), "--beam-width", "4", "--n-best", "4",
                 "--max-len", "6", "--trace"]) == 0
    return out


@pytest.fixture(scope="module")
def lda_model(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("lda")
    assert main(["lda", "--corpus", str(workspace["prep"] / "train.txt"),
                 "--vocab", str(workspace["vocab"]), "--out", str(out),
                 "--topics-k", "2", "--sweeps", "15", "--xi", "0.5",
                 "--seed", "4"]) == 0
    return out / "topics.bin"


class TestGenerateRerankTune:
    def test_generate_artifacts(self, workspace, generated):
        n = len((workspace["prep"] / "test.txt").read_text().splitlines())
        assert (generated / "generations.txt").exists()
        for i in range(n):
            assert (generated / f"candidates_{i:04d}.txt").exists()
            assert (generated / f"trace_{i:04d}.txt").exists()
        first = (generated / "candidates_0000.txt").read_text().splitlines()
        assert len(first) == 4
        head, _, _ = first[0].partition("\t")
        rank, norm, raw = head.split(" ")
        assert rank == "1"
        float(norm), float(raw)

    def test_lda_artifacts(self, lda_model):
        assert lda_model.exists()
        top = lda_model.parent / "topwords.txt"
        assert top.read_text().startswith("topic 0: ")

    def test_lda_log(self, workspace, lda_model, tmp_path):
        lines = (lda_model.parent / "lda_log.txt").read_text().splitlines()
        assert lines[:2] == ["lda-log 1", "skipped_empty 0"]
        assert [line.split("\t")[0] for line in lines[2:]] == [str(i) for i in range(1, 16)]
        # the values are the sampler's own, written in repr form
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        docs = [topics.dialogue_bow(d) for d in
                corpus.load_corpus(workspace["prep"] / "train.txt", vocab, min_turns=1)]
        tm = topics.lda_train(docs + [[]], 2, vocab.size, xi=np.full(2, 0.5),
                              sweeps=15, seed=4)
        assert [float(line.split("\t")[1]) for line in lines[2:]] == tm.ll_history
        assert topics.format_lda_log(tm).splitlines()[1] == "skipped_empty 1"

    def test_rerank_lambda_zero_matches_generation_order(
            self, workspace, generated, lda_model, tmp_path):
        out = tmp_path / "rr"
        assert main(["rerank", "--histories", str(workspace["prep"] / "test.txt"),
                     "--candidates-dir", str(generated),
                     "--topic-model", str(lda_model),
                     "--vocab", str(workspace["vocab"]),
                     "--out", str(out), "--lambda", "0.0"]) == 0
        top1 = (out / "rerank_top1.txt").read_text().splitlines()
        gen_top1 = (generated / "generations.txt").read_text().splitlines()
        assert top1 == gen_top1
        # rank SP combined SP similarity SP loglik_zscore TAB text, as plain numbers
        for path in sorted(out.glob("reranked_*.txt")):
            for line in path.read_text().splitlines():
                fields = line.partition("\t")[0].split(" ")
                assert len(fields) == 4 and all(np.isfinite(float(x)) for x in fields), line

    def test_tune_grid(self, workspace, generated, lda_model, tmp_path):
        out = tmp_path / "tune"
        assert main(["tune", "--histories", str(workspace["prep"] / "test.txt"),
                     "--candidates-dir", str(generated),
                     "--topic-models", str(lda_model),
                     "--vocab", str(workspace["vocab"]),
                     "--out", str(out), "--lambdas", "0.0,0.5,1.0"]) == 0
        grid = (out / "grid.tsv").read_text().splitlines()
        assert len(grid) == 3
        best = json.loads((out / "best.json").read_text())
        assert best["K"] == 2 and best["lambda"] in (0.0, 0.5, 1.0)

    def test_tune_best_does_not_depend_on_grid_order(self, workspace, generated, lda_model,
                                                     tmp_path):
        # every candidate of a history has the same text, so every grid point
        # ties and best.json must name the smallest lambda however it is listed
        tied = tmp_path / "tied"
        tied.mkdir()
        for path in sorted(generated.glob("candidates_*.txt")):
            lines = path.read_text().splitlines()
            text = lines[0].partition("\t")[2]
            (tied / path.name).write_text(
                "".join(line.partition("\t")[0] + "\t" + text + "\n" for line in lines))
        for cands in (generated, tied):
            runs = {}
            for grid in ("0.0,0.5,1.0", "1.0,0.5,0.0"):
                out = tmp_path / f"tune_{cands.name}_{grid}"
                assert main(["tune", "--histories", str(workspace["prep"] / "test.txt"),
                             "--candidates-dir", str(cands), "--topic-models", str(lda_model),
                             "--vocab", str(workspace["vocab"]), "--out", str(out),
                             "--lambdas", grid]) == 0
                rows = [line.split("\t") for line in (out / "grid.tsv").read_text().splitlines()]
                assert [lam for _, lam, _ in rows] == grid.split(",")  # visit order
                runs[grid] = (out / "best.json").read_bytes(), sorted(rows)
            assert runs["0.0,0.5,1.0"] == runs["1.0,0.5,0.0"]
        assert json.loads(runs["1.0,0.5,0.0"][0]) == {"K": 2, "lambda": 0.0}
        assert len({value for _, _, value in runs["1.0,0.5,0.0"][1]}) == 1


class TestAttviz:
    def test_single_token_trace(self, workspace, tmp_path):
        out = tmp_path / "viz"
        assert main(["attviz", "--checkpoint", str(workspace["ckpt"]),
                     "--vocab", str(workspace["vocab"]),
                     "--history", str(workspace["prep"] / "test.txt"),
                     "--out", str(out), "--continuation", "s0"]) == 0
        trace_lines = (out / "trace.txt").read_text().splitlines()
        assert len(trace_lines) == 3 + 1  # header, prefix, generated, one row
        _, _, weights = trace_lines[3].split("\t")
        row = [float(x) for x in weights.split()]
        assert abs(sum(row) - 1.0) < 1e-6

    def test_image_metadata_equals_export(self, workspace, tmp_path):
        out = tmp_path / "viz2"
        assert main(["attviz", "--checkpoint", str(workspace["ckpt"]),
                     "--vocab", str(workspace["vocab"]),
                     "--history", str(workspace["prep"] / "test.txt"),
                     "--out", str(out), "--max-len", "4"]) == 0
        trace_rows = []
        for line in (out / "trace.txt").read_text().splitlines()[3:]:
            _, _, weights = line.split("\t")
            trace_rows.append(weights)
        pgm_rows = []
        for line in (out / "heatmap.pgm").read_text().splitlines():
            if line.startswith("# row "):
                pgm_rows.append(line.split(": ", 1)[1])
        assert pgm_rows == trace_rows

    def test_non_attention_checkpoint_rejected(self, workspace, tmp_path):
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        model = RnnLm(8, 6, vocab.size, seed=0)
        ckpt = tmp_path / "rnn.ckpt"
        save_checkpoint(ckpt, model, vocab.sha256())
        code = main(["attviz", "--checkpoint", str(ckpt),
                     "--vocab", str(workspace["vocab"]),
                     "--history", str(workspace["prep"] / "test.txt"),
                     "--out", str(tmp_path / "v")])
        assert code == 2

    @pytest.mark.parametrize("continuation", ["", "  "])
    def test_empty_continuation_rejected(self, workspace, tmp_path, capsys, continuation):
        # an empty --continuation is a continuation to trace, not "decode one"
        out = tmp_path / "v"
        code = main(["attviz", "--checkpoint", str(workspace["ckpt"]),
                     "--vocab", str(workspace["vocab"]),
                     "--history", str(workspace["prep"] / "test.txt"),
                     "--out", str(out), "--continuation", continuation])
        assert code == 2
        assert "cannot trace an empty continuation" in capsys.readouterr().err
        assert not (out / "trace.txt").exists()

    def test_pgm_structure(self):
        trace = AttentionTrace(
            rows=[np.array([0.25, 0.75]), np.array([0.1, 0.2, 0.7])],
            prefix_labels=["a", "b"], generated_labels=["x", "y"],
        )
        pgm = render_heatmap_pgm(trace, cell_size=2)
        lines = pgm.splitlines()
        assert lines[0] == "P2"
        dims = lines[3].split()
        assert dims == ["6", "4"]  # width 3*2, height 2*2
        assert lines[4] == "255"
        first_pixel_row = [int(v) for v in lines[5].split()]
        assert first_pixel_row[:2] == [255 - round(255 * 0.25)] * 2
        assert first_pixel_row[-2:] == [255, 255]  # beyond the row's scope


class TestHygiene:
    def test_no_temp_files_left(self, workspace):
        leftovers = [p for p in os.listdir(workspace["run"])
                     if p.startswith(".tmp-")]
        assert leftovers == []

    def test_smoke_pipeline_under_five_minutes(self, tmp_path):
        t0 = time.time()
        tc = synthetic.topical(60, seed=21, n_topics=2)
        raw = tmp_path / "raw.txt"
        corpus.write_corpus_words(raw, tc.dialogues)
        prep = tmp_path / "p"
        run = tmp_path / "r"
        ev = tmp_path / "e"
        assert main(["prepare", "--corpus", str(raw), "--out", str(prep),
                     "--vocab-size", "100"]) == 0
        assert main(["train", "--train", str(prep / "train.txt"),
                     "--dev", str(prep / "dev.txt"),
                     "--vocab", str(prep / "vocab.txt"), "--out", str(run),
                     "--kind", "rnn", "--d", "8", "--d-e", "6",
                     "--epochs", "2", "--seed", "0"]) == 0
        assert main(["eval", "--checkpoint", str(run / "model.ckpt"),
                     "--vocab", str(prep / "vocab.txt"),
                     "--corpus", str(prep / "test.txt"),
                     "--out", str(ev)]) == 0
        assert time.time() - t0 < 300

    def test_checkpoint_loads_back(self, workspace):
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        model = load_checkpoint(workspace["ckpt"],
                                expect_vocab_sha256=vocab.sha256())
        assert model.kind == "arnn"
        assert model.V == vocab.size


class TestBadInput:
    def test_missing_input_file_exit_code(self, tmp_path, capsys):
        code = main(["prepare", "--corpus", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_undecodable_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"caf\xe9 au lait | oui\n")
        code = main(["prepare", "--corpus", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_malformed_candidate_line(self, workspace, tmp_path):
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        dump = tmp_path / "candidates_0000.txt"
        dump.write_text("1 -0.5 -1.0\ts0\n1 0.5\thello\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"candidates_0000\.txt: line 2"):
            _parse_candidate_file(str(dump), vocab)

    @pytest.mark.parametrize("score", ["nan", "inf", "+inf"])
    def test_non_finite_candidate_score(self, workspace, tmp_path, score):
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        dump = tmp_path / "candidates_0000.txt"
        dump.write_text(f"1 -0.5 -1.0\ts0\n1 {score} {score}\thello\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"candidates_0000\.txt: line 2: .*inf"):
            _parse_candidate_file(str(dump), vocab)

    def test_underflowed_candidate_score_is_accepted(self, workspace, tmp_path):
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        dump = tmp_path / "candidates_0000.txt"
        dump.write_text("1 -inf -inf\thello\n", encoding="utf-8")
        assert _parse_candidate_file(str(dump), vocab)[0].loglik == -np.inf

    @pytest.mark.parametrize("damage", ["malformed", "missing"])
    def test_bad_last_dump_writes_no_reranked_file(self, workspace, generated, lda_model,
                                                   tmp_path, capsys, damage):
        # rerank reads every dump and infers every bag before it writes the
        # first reranked_NNNN.txt, so a bad last dump leaves no output behind
        dumps = tmp_path / "cands"
        dumps.mkdir()
        names = sorted(p.name for p in generated.glob("candidates_*.txt"))
        assert len(names) >= 2
        for name in names:
            (dumps / name).write_bytes((generated / name).read_bytes())
        if damage == "malformed":
            (dumps / names[-1]).write_text("1 0.5\thello\n", encoding="utf-8")
        else:
            (dumps / names[-1]).unlink()
        out = tmp_path / "rr"
        assert main(["rerank", "--histories", str(workspace["prep"] / "test.txt"),
                     "--candidates-dir", str(dumps), "--topic-model", str(lda_model),
                     "--vocab", str(workspace["vocab"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert names[-1] in err
        assert not out.exists() or not list(out.glob("reranked_*.txt"))

    @pytest.mark.parametrize("edit", ["duplicate", "swap", "rename"])
    def test_checkpoint_layout_exit_code(self, workspace, tmp_path, capsys, edit):
        bad = tmp_path / "model.ckpt"
        bad.write_bytes(misstate_layout(workspace["ckpt"].read_bytes(), edit))
        assert main(["eval", "--checkpoint", str(bad), "--vocab", str(workspace["vocab"]),
                     "--corpus", str(workspace["prep"] / "test.txt"),
                     "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and len(err.strip().splitlines()) == 1

    def test_checkpoint_dims_disagreeing_with_payload(self, workspace, tmp_path, capsys):
        # only d changes; the model's arena was allocated (a MemoryError
        # traceback) before its size was compared with the payload's
        head, payload = workspace["ckpt"].read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["dims"]["d"] = 100000000
        bad = tmp_path / "model.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert main(["eval", "--checkpoint", str(bad), "--vocab", str(workspace["vocab"]),
                     "--corpus", str(workspace["prep"] / "test.txt"),
                     "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "parameters, expected" in err
        assert len(err.strip().splitlines()) == 1

    def test_model_too_large_to_allocate(self, workspace, tmp_path, capsys):
        # 10^16 parameters: an allocation that fails at once, not lazily
        prep = workspace["prep"]
        assert main(["train", "--train", str(prep / "train.txt"), "--dev", str(prep / "dev.txt"),
                     "--vocab", str(workspace["vocab"]), "--out", str(tmp_path / "tr"),
                     "--kind", "arnn", "--d", "100000000", "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "do not fit in memory" in err
        assert len(err.strip().splitlines()) == 1

    def test_model_beyond_numpy_size_limit(self, workspace, tmp_path, capsys):
        # 10^20 parameters: numpy refuses the shape (ValueError) before allocating
        prep = workspace["prep"]
        assert main(["train", "--train", str(prep / "train.txt"), "--dev", str(prep / "dev.txt"),
                     "--vocab", str(workspace["vocab"]), "--out", str(tmp_path / "tr"),
                     "--kind", "arnn", "--d", "10000000000", "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "do not fit in memory" in err
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_binary_headers(self, workspace, lda_model, tmp_path):
        for good, load in ((workspace["ckpt"], load_checkpoint),
                           (lda_model, topics.TopicModel.load)):
            body = good.read_bytes().split(b"\n", 1)[1]
            for header in (b"\xff\xfe garbage", b"[1, 2]"):
                bad = tmp_path / good.name
                bad.write_bytes(header + b"\n" + body)
                with pytest.raises(DataError, match="header"):
                    load(bad)


    @pytest.mark.parametrize("spoil", [
        lambda h: {"format": 1},
        lambda h: {**h, "dims": {k: v for k, v in h["dims"].items() if k != "V"}},
        lambda h: {**h, "kind": 7},
        lambda h: {**h, "arrays": [[h["arrays"][0][0], [-1]]] + h["arrays"][1:]},
        lambda h: {**h, "arrays": [[h["arrays"][0][0], [10 ** 15]]] + h["arrays"][1:]},
    ], ids=["format_only", "no_V", "kind_not_str", "negative_shape", "huge_shape"])
    def test_eval_on_bad_checkpoint_header(self, workspace, tmp_path, capsys, spoil):
        head, body = workspace["ckpt"].read_bytes().split(b"\n", 1)
        header = spoil(json.loads(head))
        bad = tmp_path / "model.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
        code = main(["eval", "--checkpoint", str(bad), "--vocab", str(workspace["vocab"]),
                     "--corpus", str(workspace["prep"] / "test.txt"),
                     "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("spoil", [
        lambda h: {"format": 1},
        lambda h: {k: v for k, v in h.items() if k != "K"},
        lambda h: {k: v for k, v in h.items() if k != "vocab_sha256"},
        lambda h: {**h, "infer_sweeps": -1},
        lambda h: {**h, "xi": h["xi"][1:]},
        lambda h: {**h, "V": 10 ** 15},
    ], ids=["format_only", "no_K", "no_vocab_sha256", "negative_sweeps", "short_xi",
            "huge_V"])
    def test_rerank_on_bad_topic_model_header(self, workspace, generated, lda_model,
                                              tmp_path, capsys, spoil):
        head, body = lda_model.read_bytes().split(b"\n", 1)
        header = spoil(json.loads(head))
        bad = tmp_path / "topics.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
        code = main(["rerank", "--histories", str(workspace["prep"] / "test.txt"),
                     "--candidates-dir", str(generated), "--topic-model", str(bad),
                     "--vocab", str(workspace["vocab"]), "--out", str(tmp_path / "rr")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("fmt", [2, "1", True, 1.0], ids=["two", "string", "true", "float"])
    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_format_must_be_the_integer_one(self, workspace, generated, lda_model, tmp_path,
                                            capsys, command, fmt):
        # true and 1.0 equal 1 in Python, and both loaders once took them for format 1
        good = workspace["ckpt"] if command == "eval" else lda_model
        head, body = good.read_bytes().split(b"\n", 1)
        bad = tmp_path / good.name
        bad.write_bytes(json.dumps({**json.loads(head), "format": fmt}).encode() + b"\n" + body)
        vocab, test = str(workspace["vocab"]), str(workspace["prep"] / "test.txt")
        argv = {
            "eval": ["--checkpoint", str(bad), "--vocab", vocab, "--corpus", test],
            "rerank": ["--histories", test, "--candidates-dir", str(generated),
                       "--topic-model", str(bad), "--vocab", vocab],
        }[command]
        assert main([command, "--out", str(tmp_path / command), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and len(err.strip().splitlines()) == 1
        assert f"format {fmt!r}" in err

    @pytest.mark.parametrize("command", ["generate", "eval"])
    def test_topic_model_K_differs_from_tarnn(self, workspace, lda_model, tmp_path, capsys,
                                              command):
        # the mismatch once surfaced mid-run as a numerical error naming neither file
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, make_model("tarnn", 4, 3, len(vocab), n_topics=3, seed=1),
                        vocab.sha256())
        test = str(workspace["prep"] / "test.txt")
        argv = {"generate": ["--histories", test], "eval": ["--corpus", test]}[command]
        assert main([command, "--checkpoint", str(ckpt), "--vocab", str(workspace["vocab"]),
                     "--topic-model", str(lda_model), "--out", str(tmp_path / command),
                     *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lda_model}: ") and len(err.strip().splitlines()) == 1
        assert "K=2" in err and "K=3" in err and str(ckpt) in err

    @pytest.mark.parametrize("command", ["train", "generate", "eval", "attviz", "tune"])
    def test_tarnn_without_topic_model(self, workspace, generated, lda_model, tmp_path,
                                       capsys, command):
        # every command that builds or loads a tarnn refuses it the same way
        vocab = corpus.Vocabulary.load(workspace["vocab"])
        ckpt = tmp_path / "tarnn.ckpt"
        save_checkpoint(ckpt, make_model("tarnn", 4, 3, len(vocab), n_topics=2, seed=1),
                        vocab.sha256())
        prep, test = workspace["prep"], str(workspace["prep"] / "test.txt")
        loaded = ["--checkpoint", str(ckpt)]
        argv = {
            "train": ["--train", str(prep / "train.txt"), "--dev", str(prep / "dev.txt"),
                      "--kind", "tarnn", "--d", "4", "--epochs", "1"],
            "generate": ["--histories", test, *loaded],
            "eval": ["--corpus", test, *loaded],
            "attviz": ["--history", test, *loaded],
            "tune": ["--histories", test, "--candidates-dir", str(generated),
                     "--topic-models", str(lda_model), "--objective", "recall", *loaded],
        }[command]
        out = tmp_path / command
        assert main([command, "--vocab", str(workspace["vocab"]), "--out", str(out),
                     *argv]) == 2
        err = capsys.readouterr().err
        assert err == "error: a tarnn model needs --topic-model for its topic features\n"
        assert list(out.iterdir()) == []

    def test_infer_sweeps_too_many_to_allocate(self, workspace, generated, lda_model, tmp_path,
                                               capsys):
        # an inference chain's uniforms are one allocation, which fails at once
        # at this size (8 * 10^15 bytes per token): lda refuses the count before
        # it writes anything, and rerank and tune refuse a header that carries it
        vocab, test = str(workspace["vocab"]), str(workspace["prep"] / "test.txt")
        out = tmp_path / "lda"
        assert main(["lda", "--corpus", str(workspace["prep"] / "train.txt"), "--vocab", vocab,
                     "--out", str(out), "--topics-k", "2", "--sweeps", "1",
                     "--infer-sweeps", str(10 ** 15)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "do not fit in memory" in err
        assert not out.exists() or not any(out.iterdir())
        head, body = lda_model.read_bytes().split(b"\n", 1)
        bad = tmp_path / "topics.bin"
        bad.write_bytes(json.dumps({**json.loads(head), "infer_sweeps": 10 ** 15}).encode()
                        + b"\n" + body)
        assert main(["rerank", "--histories", test, "--candidates-dir", str(generated),
                     "--topic-model", str(bad), "--vocab", vocab,
                     "--out", str(tmp_path / "rr")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "do not fit in memory" in err
        # tune infers every item's candidates in one call per topic model
        assert main(["tune", "--histories", test, "--candidates-dir", str(generated),
                     "--topic-models", str(bad), "--vocab", vocab,
                     "--out", str(tmp_path / "tune")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "do not fit in memory" in err

    def test_infer_sweeps_check_fills_nothing(self, workspace, tmp_path):
        # 10^8 sweeps are 800 MB of uniforms per token: lda's check must not
        # draw or fill them (it exits 0 where the allocation fits, else 2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert main(["lda", "--corpus", str(workspace["prep"] / "train.txt"),
                     "--vocab", str(workspace["vocab"]), "--out", str(tmp_path / "lda"),
                     "--topics-k", "2", "--sweeps", "1",
                     "--infer-sweeps", str(10 ** 8)]) in (0, 2)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 128 * 1024  # KB

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_header_V_off_by_one(self, workspace, generated, lda_model, tmp_path, capsys,
                                 command, delta):
        # the vocabulary hash matches; only the declared size is wrong
        good = workspace["ckpt"] if command == "eval" else lda_model
        head, body = good.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        dims = header["dims"] if command == "eval" else header
        dims["V"] += delta
        bad = tmp_path / good.name
        bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
        vocab, test = str(workspace["vocab"]), str(workspace["prep"] / "test.txt")
        argv = {
            "eval": ["--checkpoint", str(bad), "--vocab", vocab, "--corpus", test],
            "rerank": ["--histories", test, "--candidates-dir", str(generated),
                       "--topic-model", str(bad), "--vocab", vocab],
        }[command]
        assert main([command, "--out", str(tmp_path / command), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert f"V={dims['V']}" in err

    @pytest.mark.parametrize("grid", ["abc", "0:1:0", "0:1:-0.5", "1:0:0.5", "1.5", "0,nan",
                                      "0:1:1e-6", "0:1:1e-12", "0:1:1e-320"],
                             ids=["not_a_number", "zero_step", "negative_step",
                                  "empty_grid", "above_one", "nan", "huge_grid",
                                  "huger_grid", "infinite_grid"])
    def test_tune_on_bad_lambda_grid(self, workspace, generated, lda_model, tmp_path,
                                     capsys, grid):
        code = main(["tune", "--histories", str(workspace["prep"] / "test.txt"),
                     "--candidates-dir", str(generated), "--topic-models", str(lda_model),
                     "--vocab", str(workspace["vocab"]), "--out", str(tmp_path / "tune"),
                     "--lambdas", grid])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("lam", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("empty", [False, True], ids=["histories", "no_histories"])
    def test_rerank_on_bad_lambda(self, workspace, generated, lda_model, tmp_path, capsys,
                                  lam, empty):
        # the command's own check refuses the weight, with or without
        # histories, and a valid one then succeeds
        histories = workspace["prep"] / "test.txt"
        if empty:
            histories = tmp_path / "none.txt"
            histories.write_text("", encoding="utf-8")
        argv = ["rerank", "--histories", str(histories), "--candidates-dir", str(generated),
                "--topic-model", str(lda_model), "--vocab", str(workspace["vocab"])]
        out = tmp_path / "rr"
        assert main(argv + ["--out", str(out), f"--lambda={lam}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        # the one weight, named by its flag and given without list brackets
        assert err == f"error: --lambda must lie in [0, 1], got {float(lam)}\n"
        assert not (out / "rerank_top1.txt").exists()
        assert main(argv + ["--out", str(tmp_path / "ok"), "--lambda=0.5"]) == 0

    def test_train_nonpositive_dimension(self, workspace, tmp_path, capsys):
        code = main(["train", "--train", str(workspace["prep"] / "train.txt"),
                     "--dev", str(workspace["prep"] / "dev.txt"),
                     "--vocab", str(workspace["vocab"]), "--out", str(tmp_path / "t"),
                     "--d", "0"])
        assert code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prepare", "train", "lda", "eval"])
    def test_negative_seed_is_a_usage_error(self, workspace, lda_model, tmp_path, capsys,
                                            command):
        prep, vocab = workspace["prep"], str(workspace["vocab"])
        argv = {
            "prepare": ["--corpus", str(workspace["raw"]), "--seed", "-1"],
            "train": ["--train", str(prep / "train.txt"), "--dev", str(prep / "dev.txt"),
                      "--vocab", vocab, "--kind", "rnn", "--d", "4", "--epochs", "1",
                      "--seed", "-1"],
            "lda": ["--corpus", str(prep / "train.txt"), "--vocab", vocab,
                    "--sweeps", "1", "--seed", "-2"],
            "eval": ["--checkpoint", str(workspace["ckpt"]), "--vocab", vocab,
                     "--corpus", str(prep / "test.txt"), "--recall-n", "1",
                     "--recall-seed", "-1"],
        }[command]
        assert main([command, "--out", str(tmp_path / command)] + argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("error: argument --")


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["generate", "eval", "tune", "attviz"])
    def test_non_finite_len_norm_is_a_usage_error(self, workspace, generated, lda_model,
                                                   tmp_path, capsys, command, value):
        test, vocab = str(workspace["prep"] / "test.txt"), str(workspace["vocab"])
        ckpt = ["--checkpoint", str(workspace["ckpt"]), "--vocab", vocab]
        argv = {
            "generate": [*ckpt, "--histories", test],
            "eval": [*ckpt, "--corpus", test, "--recall-n", "1"],
            "tune": ["--histories", test, "--candidates-dir", str(generated),
                     "--topic-models", str(lda_model), "--vocab", vocab,
                     "--objective", "recall", "--checkpoint", str(workspace["ckpt"])],
            "attviz": [*ckpt, "--history", test],
        }[command]
        code = main([command, "--out", str(tmp_path / command), *argv,
                     f"--len-norm={value}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("error: argument --len-norm")

    @pytest.mark.parametrize("value", ["1000", "-1000"])
    @pytest.mark.parametrize("command", ["generate", "eval"])
    def test_len_norm_out_of_float_range_is_a_data_error(self, workspace, tmp_path, capsys,
                                                         command, value):
        # finite, but length ** len_norm overflows (1000) or underflows to 0 (-1000)
        test, vocab = str(workspace["prep"] / "test.txt"), str(workspace["vocab"])
        ckpt = ["--checkpoint", str(workspace["ckpt"]), "--vocab", vocab]
        argv = {
            "generate": [*ckpt, "--histories", test],
            "eval": [*ckpt, "--corpus", test, "--recall-n", "1"],
        }[command]
        code = main([command, "--out", str(tmp_path / command), *argv,
                     f"--len-norm={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "len_norm" in err

    @pytest.mark.parametrize("value", ["nan", "-1.0", "inf", "unnormalized"])
    @pytest.mark.parametrize("command", ["rerank", "tune"])
    def test_corrupt_phi_values(self, workspace, generated, lda_model, tmp_path, capsys,
                                command, value):
        # every 7th entry of an lda-written phi spoiled (or every row scaled
        # by 1 + 1e-6): a bisect past the last topic raised IndexError before
        head, body = lda_model.read_bytes().split(b"\n", 1)
        phi = np.frombuffer(body, dtype="<f8").copy()
        if value == "unnormalized":
            phi *= 1.0 + 1e-6
        else:
            phi[::7] = float(value)
        bad = tmp_path / "topics.bin"
        bad.write_bytes(head + b"\n" + phi.tobytes())
        test, vocab = str(workspace["prep"] / "test.txt"), str(workspace["vocab"])
        argv = {
            "rerank": ["--topic-model", str(bad)],
            "tune": ["--topic-models", str(bad)],
        }[command]
        code = main([command, "--histories", test, "--candidates-dir", str(generated),
                     "--vocab", vocab, "--out", str(tmp_path / command), *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert str(bad) in err

    @pytest.mark.parametrize("flag, value", [
        ("--eta", "nan"), ("--eta", "inf"), ("--eta", "0"),
        ("--xi", "nan"), ("--xi", "inf"), ("--xi", "0"),
        ("--sweeps", "-1"), ("--infer-sweeps", "-1"),
    ])
    def test_lda_hyperparameter_out_of_range(self, workspace, tmp_path, capsys, flag,
                                             value):
        # each of these raised IndexError in the sampler, silently used the
        # default xi (0), or wrote a topics.bin that rerank refused (-1)
        out = tmp_path / "lda"
        code = main(["lda", "--corpus", str(workspace["prep"] / "train.txt"),
                     "--vocab", str(workspace["vocab"]), "--out", str(out),
                     "--topics-k", "2", "--sweeps", "1", f"{flag}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not (out / "topics.bin").exists()

    def test_tune_two_models_with_one_K(self, workspace, generated, lda_model, tmp_path,
                                        capsys):
        # the later model of a repeated K used to replace the earlier one
        other = tmp_path / "other"
        assert main(["lda", "--corpus", str(workspace["prep"] / "train.txt"),
                     "--vocab", str(workspace["vocab"]), "--out", str(other),
                     "--topics-k", "2", "--sweeps", "2", "--seed", "9"]) == 0
        capsys.readouterr()
        code = main(["tune", "--histories", str(workspace["prep"] / "test.txt"),
                     "--candidates-dir", str(generated), "--vocab", str(workspace["vocab"]),
                     "--topic-models", f"{lda_model},{other / 'topics.bin'}",
                     "--out", str(tmp_path / "tune"), "--lambdas", "0,0.5,1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "K=2" in err
        assert not (tmp_path / "tune" / "grid.tsv").exists()

    @pytest.mark.parametrize("n", ["0", "-1", "11"])
    def test_eval_recall_n_out_of_range(self, workspace, tmp_path, capsys, n):
        code = main(["eval", "--checkpoint", str(workspace["ckpt"]),
                     "--vocab", str(workspace["vocab"]),
                     "--corpus", str(workspace["prep"] / "test.txt"),
                     "--out", str(tmp_path / "ev"), "--recall-n", n])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "recall@N" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("prepare", "--ratios", "nan,1,1"), ("prepare", "--ratios", "inf,1,1"),
        ("train", "--clip", "nan"), ("train", "--lr", "nan"), ("train", "--lr", "inf"),
        ("eval", "--max-n", "0"), ("eval", "--max-n", "-2"),
        ("attviz", "--cell-size", "-1"), ("attviz", "--cell-size", "0"),
        ("attviz", "--cell-size", "1000000"),
        ("tune", "--recall-n", "0"),
    ])
    def test_number_out_of_range(self, workspace, generated, lda_model, tmp_path, capsys,
                                 command, flag, value):
        # these ended in a traceback (ratios), turned clipping off (clip), failed
        # only inside the first epoch (lr), reported the brevity penalty as BLEU
        # (max-n), wrote an image with a negative or zero size or built one of
        # terabytes in memory (cell-size), or scored every grid point 0.0 (recall-n)
        prep, vocab = workspace["prep"], str(workspace["vocab"])
        test = str(prep / "test.txt")
        argv = {
            "prepare": ["--corpus", str(workspace["raw"])],
            "train": ["--train", str(prep / "train.txt"), "--dev", str(prep / "dev.txt"),
                      "--vocab", vocab, "--kind", "rnn", "--d", "4", "--epochs", "1"],
            "eval": ["--hyp", test, "--ref", test],
            "attviz": ["--checkpoint", str(workspace["ckpt"]), "--vocab", vocab,
                       "--history", test, "--max-len", "2"],
            "tune": ["--histories", test, "--candidates-dir", str(generated),
                     "--topic-models", str(lda_model), "--vocab", vocab,
                     "--objective", "recall", "--checkpoint", str(workspace["ckpt"])],
        }[command]
        code = main([command, "--out", str(tmp_path / command), *argv, f"{flag}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestFrontEnd:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_second_call_sees_its_own_flags_and_defaults(self, workspace, tmp_path):
        ckpt, vocab = str(workspace["ckpt"]), str(workspace["vocab"])
        test = str(workspace["prep"] / "test.txt")
        assert main(["generate", "--checkpoint", ckpt, "--vocab", vocab, "--histories", test,
                     "--out", str(tmp_path / "gen"), "--beam-width", "3", "--max-len", "4",
                     "--len-norm", "0.5", "--n-best", "2"]) == 0
        out = str(tmp_path / "viz")
        assert main(["attviz", "--checkpoint", ckpt, "--vocab", vocab, "--history", test,
                     "--out", out, "--max-len", "3"]) == 0
        config = json.loads((tmp_path / "viz" / "manifest.json").read_text())["config"]
        assert config == {
            "command": "attviz", "checkpoint": ckpt, "vocab": vocab, "history": test,
            "out": out, "max_len": 3, "history_index": 0, "beam_width": 1, "len_norm": 1.0,
            "continuation": None, "cell_size": 12, "topic_model": None, "stopwords": None,
        }

    @pytest.mark.parametrize("exists", [False, True])
    def test_config_is_train_only(self, workspace, tmp_path, capsys, exists):
        # generate used to splice the file's pairs into its own flags
        cfg = tmp_path / "c.cfg"
        if exists:
            cfg.write_text("epochs=1\n", encoding="utf-8")
        code = main(["generate", "--checkpoint", str(workspace["ckpt"]),
                     "--vocab", str(workspace["vocab"]),
                     "--histories", str(workspace["prep"] / "test.txt"),
                     "--out", str(tmp_path / "gen"), "--config", str(cfg)])
        assert code == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_shared_flags_parse_alike(self):
        # a flag that several subcommands take converts and checks its value
        # the same way in each, so --len-norm refuses nan in all four
        specs = {}
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for sub in subparsers.choices.values():
            for action in sub._actions:
                for flag in action.option_strings:
                    specs.setdefault(flag, []).append((action.type, action.choices))
        shared = {flag: s for flag, s in specs.items() if len(s) > 1 and flag != "-h"}
        assert len(shared["--len-norm"]) == 4 and len(shared) >= 11
        for flag, s in shared.items():
            assert all(spec == s[0] for spec in s), flag


def test_tune_recall_scores_truth_with_provider_theta(workspace, generated, lda_model,
                                                      tmp_path, monkeypatch):
    # a tarnn model scores the reference under the history's inferred topics,
    # the same theta that generate and eval --recall-n use
    vocab_path = str(workspace["vocab"])
    assert main(["train", "--train", str(workspace["prep"] / "train.txt"),
                 "--dev", str(workspace["prep"] / "dev.txt"), "--vocab", vocab_path,
                 "--out", str(tmp_path / "tarnn"), "--kind", "tarnn",
                 "--topic-model", str(lda_model), "--d", "6", "--d-e", "4",
                 "--epochs", "1", "--seed", "3"]) == 0
    seen = {}
    real_tune = topics.tune_rerank

    def capture(items, *args, **kwargs):
        seen["items"] = items
        return real_tune(items, *args, **kwargs)

    monkeypatch.setattr(topics, "tune_rerank", capture)
    histories = workspace["prep"] / "test.txt"
    assert main(["tune", "--histories", str(histories), "--candidates-dir", str(generated),
                 "--topic-models", str(lda_model), "--vocab", vocab_path,
                 "--out", str(tmp_path / "tune"), "--objective", "recall",
                 "--checkpoint", str(tmp_path / "tarnn" / "model.ckpt"),
                 "--topic-model", str(lda_model), "--lambdas", "0.0,1.0"]) == 0
    vocab = corpus.Vocabulary.load(vocab_path)
    tm = topics.TopicModel.load(lda_model)
    ckpt = tmp_path / "tarnn" / "model.ckpt"
    model = load_checkpoint(ckpt)
    model.theta_provider = lambda history: topics.infer_theta(tm, topics.dialogue_bow(history))
    uniform = load_checkpoint(ckpt)
    dialogues = corpus.load_corpus(histories, vocab, min_turns=2)
    assert len(seen["items"]) == len(dialogues)
    for item, dlg in zip(seen["items"], dialogues):
        history = dlg.history()
        seq = list(dlg.last_utterance()) + [corpus.EOU_ID]
        lp = continuation_log_likelihood(model, history, seq)
        truth = item.candidates[item.truth_index]
        assert truth.norm_score == lp / len(seq)
        assert lp != continuation_log_likelihood(uniform, history, seq)  # not uniform


def test_tune_recall_pairs_write_the_per_history_bytes(workspace, generated, lda_model,
                                                       tmp_path, monkeypatch, two_cpus):
    # tune scores its references two histories at a time; on two lanes its
    # grid.tsv and best.json are byte for byte what one reference scored per
    # history gives; five histories leave the last one without a partner
    monkeypatch.setattr(numeric, "LANE_MIN", 0)
    vocab_path = workspace["vocab"]
    lines = (workspace["prep"] / "test.txt").read_text(encoding="utf-8").splitlines(True)
    histories = tmp_path / "hist.txt"
    histories.write_text("".join(lines[:5]), encoding="utf-8")
    out = tmp_path / "tune"
    assert main(["tune", "--histories", str(histories), "--candidates-dir", str(generated),
                 "--topic-models", str(lda_model), "--vocab", str(vocab_path),
                 "--out", str(out), "--objective", "recall", "--recall-n", "2",
                 "--checkpoint", str(workspace["ckpt"]), "--lambdas", "0.0:1.0:0.5"]) == 0
    assert two_cpus, "numeric.lanes never handed off"
    vocab = corpus.Vocabulary.load(vocab_path)
    model = load_checkpoint(workspace["ckpt"])
    items = []
    for i, dlg in enumerate(corpus.load_corpus(histories, vocab, min_turns=2)):
        cands = _parse_candidate_file(generated / f"candidates_{i:04d}.txt", vocab)
        reference = list(dlg.last_utterance())
        seq = reference + [corpus.EOU_ID]
        lp = continuation_log_likelihood(model, dlg.history(), seq)
        cands.append(Candidate(tokens=reference, loglik=lp, norm_score=lp / len(seq)))
        items.append(topics.RerankItem(history=dlg.history(), candidates=cands,
                                       reference=reference, truth_index=len(cands) - 1))
    assert len(items) == 5
    best_k, best_lam, table = topics.tune_rerank(
        items, {2: topics.TopicModel.load(lda_model)}, lambdas=[0.0, 0.5, 1.0],
        objective="recall", recall_n=2)
    assert (out / "grid.tsv").read_text(encoding="utf-8") == topics.format_grid(table)
    fileio.write_json_atomic(tmp_path / "best.json", {"K": best_k, "lambda": best_lam})
    assert (out / "best.json").read_bytes() == (tmp_path / "best.json").read_bytes()


def run_pipeline(root, n_dialogues=40, d=6, epochs=2, sweeps=5, seed=7):
    """Every subcommand over a fixed synthetic corpus, written under ``root``.

    Covers the five kinds, a tarnn with a topic model, --pretrain, generate
    --trace, eval --recall-n, rerank at two K, tune with both objectives and
    attviz in both modes. Returns the number of CLI calls made.
    """
    calls = []

    def run(*argv):
        calls.append(argv)
        assert main([str(a) for a in argv]) == 0, argv

    tc = synthetic.topical(n_dialogues, seed=seed, n_topics=2, generic_prob=0.3,
                           templates_per_topic=3)
    corpus.write_corpus_words(root / "raw.txt", tc.dialogues)
    pre = synthetic.topical(n_dialogues // 2, seed=seed + 1, n_topics=2)
    corpus.write_corpus_words(root / "pre.txt", pre.dialogues)
    (root / "stop.txt").write_text("\n".join(tc.function_words) + "\n", encoding="utf-8")
    prep = root / "prep"
    run("prepare", "--corpus", root / "raw.txt", "--out", prep, "--vocab-size", 60,
        "--ratios", "0.6,0.2,0.2", "--seed", seed)
    common = ["--vocab", prep / "vocab.txt", "--stopwords", root / "stop.txt"]
    test = prep / "test.txt"
    for k in (2, 3):
        run("lda", "--corpus", prep / "train.txt", "--out", root / f"lda{k}",
            "--topics-k", k, "--sweeps", sweeps, "--infer-sweeps", sweeps,
            "--seed", seed, *common)
    topic = ["--topic-model", root / "lda2" / "topics.bin"]
    for flag in sorted(KIND_FLAGS):
        run("train", "--train", prep / "train.txt", "--dev", prep / "dev.txt",
            "--out", root / f"train_{flag}", "--kind", flag, "--d", d, "--d-e", d - 2,
            "--epochs", epochs, "--seed", seed, *common, *topic)
    run("train", "--train", prep / "train.txt", "--dev", prep / "dev.txt",
        "--out", root / "train_pre", "--kind", "tarnn", "--d", d, "--epochs", epochs,
        "--seed", seed, "--pretrain", root / "pre.txt", *common, *topic)
    for flag in sorted(KIND_FLAGS) + ["pre"]:
        ckpt = ["--checkpoint", root / f"train_{flag}" / "model.ckpt", *common, *topic]
        trace = ["--trace"] if flag in ("arnn", "tarnn", "seq2seq-attn", "pre") else []
        run("generate", "--histories", test, "--out", root / f"gen_{flag}",
            "--beam-width", 3, "--n-best", 3, "--max-len", 5, *trace, *ckpt)
        run("eval", "--corpus", test, "--out", root / f"eval_{flag}",
            "--recall-n", 2, "--recall-seed", seed, *ckpt)
    replies = [" ".join(dlg[-1]) + "\n" for dlg in corpus.read_corpus_words(test)]
    (root / "replies.txt").write_text("".join(replies), encoding="utf-8")
    run("eval", "--hyp", root / "replies.txt", "--ref", root / "gen_tarnn" / "generations.txt",
        "--out", root / "eval_text")
    for k in (2, 3):
        run("rerank", "--histories", test, "--candidates-dir", root / "gen_tarnn",
            "--topic-model", root / f"lda{k}" / "topics.bin", "--out", root / f"rerank{k}",
            "--lambda", 0.5, *common)
    models = f"{root / 'lda2' / 'topics.bin'},{root / 'lda3' / 'topics.bin'}"
    run("tune", "--histories", test, "--candidates-dir", root / "gen_tarnn",
        "--topic-models", models, "--out", root / "tune_bleu", "--lambdas", "0:1:0.25",
        *common)
    run("tune", "--histories", test, "--candidates-dir", root / "gen_tarnn",
        "--topic-models", models, "--out", root / "tune_recall", "--objective", "recall",
        "--checkpoint", root / "train_tarnn" / "model.ckpt", "--lambdas", "0.0,0.5,1.0",
        *common, *topic)
    for flag in ("arnn", "tarnn", "seq2seq-attn"):
        viz = ["--checkpoint", root / f"train_{flag}" / "model.ckpt", "--history", test,
               "--history-index", 1, *common, *topic]
        run("attviz", "--out", root / f"viz_{flag}", "--max-len", 4, *viz)
        run("attviz", "--out", root / f"vizc_{flag}", "--continuation", "s0 s1 s2", *viz)
    return len(calls)


def tree_bytes(root):
    """{relative path: bytes} of every file under ``root`` but the manifests."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_pipeline_is_bit_reproducible(tmp_path):
    trees = []
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        assert run_pipeline(root) == 32
        trees.append(tree_bytes(root))
    assert len(trees[0]) > 150
    assert trees[0].keys() == trees[1].keys()
    differ = [path for path in trees[0] if trees[0][path] != trees[1][path]]
    assert differ == []
    manifests = list(tmp_path.rglob("manifest.json"))
    assert len(manifests) == 64
    assert all(json.loads(p.read_text())["numerics"] == 4 for p in manifests)
