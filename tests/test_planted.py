"""The planted truth of ``tests/synth.py`` as the pipeline's oracle.

Each planted doculect's realized words are read back from the corpus
files. Counted over a run's core points, they go through the same
pruning rule and classification as the run's kriged areas, and they are
what every alignment must link.
"""

from synth import all_schemes, build_corpus, planted_words

from semmap import tsv
from semmap.align import NULL_MARKER
from semmap.pipeline import PipelineConfig, run
from semmap.typology import GROUPS, classify_pattern, prune_dictionary

SWEEP_SEEDS = range(400, 420)


def data_rows(path, header=True):
    """The rows of a stored table, behind its header line if it has one."""
    return [line.split("\t") for _, line in tsv.data_lines(path)][int(header):]


def test_planted_words_decide_every_pattern_and_alignment(tmp_path):
    # the benchmark's testscale shape; seed 403 is the one whose planted
    # hhh reads pattern C without subpattern CxE: 9 of its 30 BL core
    # points draw "ha", too few to keep next to "hb"
    for seed in SWEEP_SEEDS:
        corpus, out = tmp_path / f"corpus{seed}", tmp_path / f"out{seed}"
        _, anchors, _ = build_corpus(corpus, n_verses=90, seed=seed)
        config = PipelineConfig(corpus_dir=str(corpus), metadata=str(corpus / "meta.tsv"),
                                out_dir=str(out), gmm_ks=(3,), grid=32, core_k=30,
                                group_anchors=anchors)
        run(config)
        words = planted_words(corpus)
        cores = {row[0]: [rid.split("#")[0] for rid in row[4].split(",")]
                 for row in data_rows(out / "core_points.tsv")}
        classified = {row[0]: row[1:3] for row in data_rows(out / "classification.tsv")}
        # the noise doculects pick between two words at random in every
        # group, so their kriged areas are not their core points' counts
        for iso in all_schemes(n_noise=0):
            counts = {g: {} for g in GROUPS}
            for g, verses in cores.items():
                for vid in verses:
                    word = words[iso][vid] or NULL_MARKER
                    counts[g][word] = counts[g].get(word, 0) + 1
            want = classify_pattern(prune_dictionary(counts, config.core_k, config.alpha))
            assert classified[iso] == [want.pattern, want.subpattern or "_"], (seed, iso, counts)
        for iso, planted in words.items():
            rows = data_rows(out / "alignments" / f"{iso}.tsv", header=False)
            assert [(vid, form) for vid, _, form in rows] == \
                sorted((vid, word or NULL_MARKER) for vid, word in planted.items()), (seed, iso)
