"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s``).
Criterion 1 is split per reference table. The large-table case checks
the Yates chi-square, Cramer's V and odds ratio of the 8225-token table
against an exact oracle (``chi2_yates_oracle``) computed from the counts
themselves, after the oracle has reproduced the gospel table's printed
figures; the thesis's printed 1924.52 / 8.69 do not follow from those
counts and are recorded in the test's docstring, not asserted.
"""

import hashlib
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from conftest import make_config
from fixture_treebank import EXPECTED as TB_EXPECTED
from fixture_treebank import FIXTURE as TB_FIXTURE
from synth import EXPECTED_PATTERNS

from semmap.align import NULL_MARKER
from semmap.balltree import BallTree
from semmap.corpstats import TopicCandidate, mattr, ten_mfl, topic_score
from semmap.mixture import fit_gmm, select_k
from semmap.pipeline import run
from semmap.pivot import ParallelUsageMatrix, classical_mds, hamming
from semmap.stats import binomial_test, chi_square_2x2, fisher_exact
from semmap.treebank import extract_all, parse_treebank
from semmap.typology import AreaDictionary, build_dictionary, classify_pattern


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS  {description}")


# -- criterion 1: reproduction of reference chi-square values ---------------

def test_criterion_01_reference_chi_square_gospel_table():
    with criterion(1, "chi-square/V/odds-ratio on the 1196-token table"):
        t0 = time.perf_counter()
        res = chi_square_2x2(121, 806, 216, 53)
        assert abs(res.statistic - 462.54) <= 0.5
        assert abs(res.cramers_v - 0.62) <= 0.01
        assert abs(res.odds_ratio - 27.15) <= 0.01
        assert time.perf_counter() - t0 < 1.0


def chi2_yates_oracle(a, b, c, d):
    """Yates chi-square, Cramer's V and odds ratio of [[a, b], [c, d]].

    Exact in ``Fraction``: the statistic is the cell-by-cell sum of
    (max(0, |O - E| - 1/2))^2 / E over the expected counts E = row * col / N;
    V = sqrt(chi2 / N) (a 2x2 table has min(rows, cols) - 1 = 1); the odds
    ratio is (b/a) / (d/c), the orientation ``chi_square_2x2`` documents.
    """
    n = a + b + c + d
    rows = [a + b, c + d]
    cols = [a + c, b + d]
    obs = [[a, b], [c, d]]
    chi2 = Fraction(0)
    for i in range(2):
        for j in range(2):
            e = Fraction(rows[i] * cols[j], n)
            dev = max(Fraction(0), abs(obs[i][j] - e) - Fraction(1, 2))
            chi2 += dev * dev / e
    odds = Fraction(b, a) / Fraction(d, c)
    return float(chi2), math.sqrt(chi2 / n), float(odds)


def test_criterion_01_reference_chi_square_large_table():
    """Counts (1334, 3598, 2518, 775), N = 8225, against the exact oracle.

    The thesis prints chi-square 1924.52 and odds ratio 8.69 for this
    table, but its counts give Yates 1934.64 (uncorrected 1936.62) and
    an odds ratio of 8.763 (0.114 in the other orientation), so the
    printed pair cannot hold for these counts. Which of the table or the
    printed figures was mistyped cannot be settled without the thesis
    table, so the test asserts what the counts determine instead.
    """
    with criterion(1, "chi-square/V/odds-ratio on the 8225-token table"):
        # The oracle first reproduces the gospel table's printed figures.
        gospel = chi2_yates_oracle(121, 806, 216, 53)
        assert [round(x, 2) for x in gospel] == [462.54, 0.62, 27.15]
        want_chi2, want_v, want_odds = chi2_yates_oracle(1334, 3598, 2518, 775)
        t0 = time.perf_counter()
        res = chi_square_2x2(1334, 3598, 2518, 775)
        assert res.statistic == pytest.approx(want_chi2, rel=1e-9)
        assert res.cramers_v == pytest.approx(want_v, rel=1e-9)
        assert res.odds_ratio == pytest.approx(want_odds, rel=1e-9)
        assert abs(res.cramers_v - 0.48) <= 0.01
        assert abs(res.statistic - 1934.64) <= 1.0
        assert abs(res.odds_ratio - 8.76) <= 0.01
        assert time.perf_counter() - t0 < 1.0


# -- criterion 2: fisher exact vs full enumeration ----------------------------

def fisher_oracle(a, b, c, d):
    n = a + b + c + d
    row1, col1 = a + b, a + c
    lo = max(0, col1 - (n - row1))
    hi = min(row1, col1)
    denom = math.comb(n, col1)
    pmf = {
        x: Fraction(math.comb(row1, x) * math.comb(n - row1, col1 - x), denom)
        for x in range(lo, hi + 1)
    }
    obs = pmf[a]
    return float(sum(p for p in pmf.values() if p <= obs))


def test_criterion_02_fisher_exact():
    with criterion(2, "fisher exact: enumeration agreement and the 26/30 vs 21/30 call"):
        t0 = time.perf_counter()
        checked = 0
        for a in range(13):
            for b in range(13 - a):
                for c in range(13):
                    for d in range(13 - c):
                        if min(a + b, c + d, a + c, b + d) == 0:
                            continue
                        if a + c > 12 or b + d > 12:
                            continue
                        got = fisher_exact(a, b, c, d).p_value
                        assert abs(got - fisher_oracle(a, b, c, d)) <= 1e-12, (a, b, c, d)
                        checked += 1
        assert checked > 5000
        patep = fisher_exact(26, 4, 21, 9)
        assert patep.p_value > 0.01  # not significant at alpha = 0.01
        assert time.perf_counter() - t0 < 10.0


# -- criterion 3: binomial test ------------------------------------------------

def binomial_oracle(k, n, p0_frac):
    pmf = [
        Fraction(math.comb(n, x)) * p0_frac ** x * (1 - p0_frac) ** (n - x)
        for x in range(n + 1)
    ]
    obs = pmf[k]
    return float(sum(p for p in pmf if p <= obs))


def test_criterion_03_binomial():
    with criterion(3, "binomial: 101/171 two-tailed near 0.01 plus enumeration"):
        res = binomial_test(101, 171, 0.5)
        assert res.p_value <= 0.05
        assert abs(res.p_value - 0.01) <= 0.02
        for k, n, p0 in [(0, 1, 0.5), (3, 9, 0.25), (101, 171, 0.5),
                         (250, 500, 0.5), (400, 1000, 0.5), (520, 1000, 0.5)]:
            got = binomial_test(k, n, p0).p_value
            want = binomial_oracle(k, n, Fraction(p0).limit_denominator(100))
            assert abs(got - want) <= 1e-9, (k, n, p0)


# -- criterion 4: hamming and classical scaling --------------------------------

def test_criterion_04_hamming_mds():
    with criterion(4, "hamming equals naive recount; planted 2D geometry recovered"):
        t0 = time.perf_counter()
        import random

        rng = random.Random(40)
        forms = ["a", "b", "c", NULL_MARKER]
        cells = [[rng.choice(forms) for _ in range(20)] for _ in range(50)]
        matrix = ParallelUsageMatrix.from_rows(
            [f"r{i}" for i in range(50)], [f"L{j}" for j in range(20)], cells)
        dense = hamming(matrix)
        for i in range(50):
            for j in range(50):
                want = sum(1 for a, b in zip(cells[i], cells[j]) if a != b)
                assert dense[i, j] == want
        pts = np.random.default_rng(41).normal(size=(100, 2))
        dm = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        emb = classical_mds(dm, 5)
        got = np.sqrt(((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2))
        assert np.abs(got - dm).max() <= 1e-6
        assert np.all(np.abs(emb.eigenvalues[2:]) < 1e-8 * emb.eigenvalues[0])
        assert time.perf_counter() - t0 < 5.0


# -- criterion 5: gmm selection and purity --------------------------------------

def planted_blobs(seed):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    pts = np.vstack([rng.normal(c, 0.35, size=(200, 2)) for c in centers])
    labels = np.repeat(np.arange(3), 200)
    perm = rng.permutation(600)
    return pts[perm], labels[perm]


def test_criterion_05_gmm_selection_and_purity():
    with criterion(5, "BIC picks K=3 in >= 19/20 seeds; purity >= 0.98; monotone loglik"):
        t0 = time.perf_counter()
        k_hits = 0
        for seed in range(20):
            pts, truth = planted_blobs(1000 + seed)
            report = select_k(pts, range(2, 9), seed=seed)
            k_hits += report.chosen_k == 3
            model = fit_gmm(pts, 3, seed=seed)
            for prev, cur in zip(model.loglik, model.loglik[1:]):
                assert cur >= prev - 1e-9
            best = 0
            for perm in permutations(range(3)):
                mapped = np.array([perm[a] for a in model.assignments])
                best = max(best, float((mapped == truth).mean()))
            assert best >= 0.98
        assert k_hits >= 19
        assert time.perf_counter() - t0 < 30.0


# -- criterion 6: ball tree exactness -------------------------------------------

def test_criterion_06_balltree_exact():
    with criterion(6, "ball-tree kNN equals linear scan, k=30, 1000 points, 100 queries"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(60)
        pts = rng.uniform(-10, 10, size=(1000, 2))
        tree = BallTree(pts)
        for q in rng.uniform(-10, 10, size=(100, 2)):
            got = [i for _, i in tree.query(q, 30)]
            d = np.sqrt(((pts - q) ** 2).sum(axis=1))
            want = sorted(range(1000), key=lambda i: (d[i], i))[:30]
            assert got == want
        assert time.perf_counter() - t0 < 2.0


# -- criterion 7: dictionary and pattern classifier -----------------------------

def rect(x0, y0, x1, y1):
    return [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)]


def line_setup():
    pts = np.array(
        [[i, 0.0] for i in range(30)]
        + [[i, 10.0] for i in range(30)]
        + [[i, 20.0] for i in range(30)]
    )
    return {"TL": pts[:30], "ML": pts[30:60], "BL": pts[60:]}


def test_criterion_07_worked_examples():
    with criterion(7, "worked dictionary examples classify as C, B+null, A, B"):
        t0 = time.perf_counter()
        # stored dictionary shaped like Doyayo: pattern C
        res = classify_pattern(AreaDictionary(
            groups={"TL": ["go"], "ML": ["yo"], "BL": ["yo"]}))
        assert res.pattern == "C"
        # stored dictionary shaped like Hills Karbi: B with null in BL
        res = classify_pattern(AreaDictionary(
            groups={"TL": ["ahut"], "ML": ["ahut"], "BL": ["NULL"]}))
        assert res.pattern == "B" and res.null_flags == ["BL"]
        # Manam-shaped containment: NULL dropped everywhere, pattern A
        cores = line_setup()
        areas = {"bong": rect(-1, -1, 30, 21), "NULL": rect(-1, -1, 30, 21)}
        adict = build_dictionary(cores, areas)
        assert adict.groups == {"TL": ["bong"], "ML": ["bong"], "BL": ["bong"]}
        assert classify_pattern(adict).pattern == "A"
        # Yucatec-shaped counts: ken significantly richer in ML, pattern B
        areas = {"ken": rect(-1, -1, 30, 11), "ka": rect(-1, 9.5, 7.5, 21)}
        adict = build_dictionary(cores, areas)
        assert adict.groups == {"TL": ["ken"], "ML": ["ken"], "BL": ["ka"]}
        assert classify_pattern(adict).pattern == "B"
        assert time.perf_counter() - t0 < 1.0


# -- criteria 8 and 11: end-to-end recovery and determinism ----------------------

def test_criterion_08_end_to_end_recovery(synth_run):
    with criterion(8, "full pipeline recovers >= 7/8 planted coexpression patterns"):
        rows = {}
        for line in (synth_run["out"] / "classification.tsv").read_text().splitlines():
            if line.startswith("#") or line.startswith("iso\t"):
                continue
            parts = line.split("\t")
            rows[parts[0]] = parts[1]
        hits = sum(rows[iso] == want for iso, want in EXPECTED_PATTERNS.items())
        assert hits >= 7, rows


def test_criterion_11_determinism(synth_run, synth_corpus):
    with criterion(11, "re-run with identical seeds is byte-identical (and under 3 min)"):
        out2 = synth_corpus["root"] / "out2"
        config2 = make_config(synth_corpus, out2)
        t0 = time.perf_counter()
        manifest2 = run(config2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 180.0  # criterion 8 runtime bound, measured on a fresh run
        def manifest_lines(text):
            # config.json legitimately differs between the two runs: it
            # records out_dir; everything else must match bit for bit
            return [
                ln for ln in text.splitlines()
                if ln and not ln.startswith("#") and not ln.endswith("\tconfig.json")
            ]

        lines1 = manifest_lines(synth_run["manifest"].read_text(encoding="utf-8"))
        lines2 = manifest_lines(manifest2.read_text(encoding="utf-8"))
        assert lines1 == lines2  # hashes and paths identical
        for line in lines2:
            digest, rel = line.split("\t")
            b1 = (synth_run["out"] / rel).read_bytes()
            b2 = (out2 / rel).read_bytes()
            assert b1 == b2, rel
            assert hashlib.sha256(b2).hexdigest() == digest


# -- criterion 9: treebank fixture ------------------------------------------------

def test_criterion_09_treebank_fixture():
    with criterion(9, "12-sentence dependency fixture yields the exact construction rows"):
        sentences = parse_treebank(TB_FIXTURE)
        assert len(sentences) == 12
        got = [
            (c.sentence_id, c.kind, c.trigger_ids[0], c.matrix_id, c.position,
             c.subject, c.subject_position, c.aspect)
            for c in extract_all(sentences)
        ]
        want = [(s, k, t, m, p, subj, sp, asp)
                for s, k, t, m, p, subj, sp, asp, _ in TB_EXPECTED]
        assert got == want
        by_key = {(c.sentence_id, c.trigger_ids[0]): c for c in extract_all(sentences)}
        assert "non-canonical" in by_key[("s09", 1)].flags


# -- criterion 10: corpus metrics ---------------------------------------------------

def test_criterion_10_metrics():
    with criterion(10, "MATTR/10MFL exact values and hand-summed topic scores"):
        assert mattr(["x"] * 100, window=40).value == 0.025
        assert mattr([f"l{i}" for i in range(100)], window=40).value == 1.0
        assert ten_mfl(["a", "b", "c"] * 7).value == 1.0
        high = TopicCandidate(givenness="old", animacy="human",
                              realization="null", relation="sub",
                              saliency=4, antecedent_outranks=True)
        assert topic_score(high) == 92
        first = TopicCandidate(givenness="old", animacy="human",
                               realization="null", relation="sub", saliency=9)
        low = TopicCandidate(givenness="new", animacy="time",
                             realization="common-noun", relation="obl", saliency=0)
        assert topic_score(low, [first, low]) == 2
