"""Job plans, check counts and the failure path of the verification suites."""

import hashlib
import itertools

import pytest

from supercrystals import crystal, pbw, sweeps
from supercrystals.cli import main
from supercrystals.weights import build_context, residue_vectors

ACCEPTANCE = dict(max_rank=4, coeff_window=4, p_list=(0, 2, 3, 5), processes=1)


def planned_jobs(monkeypatch, suite, **overrides):
    """(worker name, job) pairs that run_suite hands to _run_sharded."""
    recorded = []

    def record(worker, jobs, processes):
        recorded.extend((worker.__name__, job) for job in jobs)
        return []

    monkeypatch.setattr(sweeps, "_run_sharded", record)
    params = dict(ACCEPTANCE)
    params.update(overrides)
    sweeps.run_suite(suite, **params)
    return recorded


def test_pinned_runs_stay_inside_the_gate(monkeypatch):
    for suite in sweeps.SUITES:
        gate = set(planned_jobs(monkeypatch, suite))
        for rank in (2, 3, 4):
            for pin in itertools.product((0, 1), repeat=rank):
                for p_list in ((0, 2, 3, 5), (0,), (3,)):
                    pinned = planned_jobs(
                        monkeypatch, suite, parities_pin=pin, p_list=p_list
                    )
                    assert set(pinned) <= gate, (suite, pin, p_list)


def test_job_plans_are_pinned(monkeypatch):
    # the suite table must hand _run_sharded the same shards, in the same order
    text = "".join(
        repr(planned_jobs(monkeypatch, name)) for name in sweeps.SUITES + ("all",)
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "1c47aeb76c7bf9e4"


def test_the_lowering_part_runs_at_the_positive_characteristics_given(monkeypatch):
    def lowering_ps(**overrides):
        jobs = planned_jobs(monkeypatch, "verma-scalars", **overrides)
        return {job[0][3] for name, job in jobs if name == "lowering_scalar_worker"}

    assert lowering_ps() == {2, 3, 5}
    assert lowering_ps(p_list=(0, 3)) == {3}
    assert lowering_ps(p_list=(0,)) == set()
    assert lowering_ps(p_list=(0,), parities_pin=(1, 0)) == set()
    assert lowering_ps(p_list=(5,), parities_pin=(1, 0)) == {5}


def test_odd_reflection_and_linkage_check_counts():
    # a kernel swap must not drop checks
    counts = {
        suite: [rep.checks for rep in sweeps.run_suite(suite, max_rank=3, processes=1)]
        for suite in ("odd-reflection", "linkage")
    }
    assert counts == {"odd-reflection": [188288, 118120], "linkage": [11760, 15406]}


def test_pbw_and_verma_check_counts():
    # the integer coefficients and the closed-form Z_r must not drop checks
    counts = {
        suite: [rep.checks for rep in sweeps.run_suite(suite, max_rank=3, processes=1)]
        for suite in ("pbw-identities", "verma-scalars")
    }
    assert counts == {
        "pbw-identities": [712, 288, 288, 148, 8, 8, 48, 36, 36, 2136, 264],
        "verma-scalars": [11760, 26388, 5400],
    }


def test_crystal_suite_check_counts():
    # the one-kernel crystal routes must not drop checks
    counts = {
        suite: [rep.checks for rep in sweeps.run_suite(suite, max_rank=3, processes=1)]
        for suite in ("oracle-equivalence", "crystal-axioms", "normal-criteria")
    }
    assert counts == {
        "oracle-equivalence": [190340, 95170],
        "crystal-axioms": [95170, 88032, 88032, 88032],
        "normal-criteria": [72576, 72576, 72576, 145152],
    }


def test_central_worker_follows_max_r_up_to_3(monkeypatch):
    for max_r, central_r in ((1, 1), (2, 2), (3, 3), (4, 3), (9, 3)):
        jobs = planned_jobs(monkeypatch, "pbw-identities", max_r=max_r)
        assert {job[1] for name, job in jobs if name == "central_worker"} == {central_r}


def test_a_wrong_star_kernel_fails_the_oracle_suite(monkeypatch, capsys):
    bad = (0, 0)
    real = crystal.read_moves

    def read_moves(lam, minus, plus):
        e, f, (e_cnt, f_cnt) = real(lam, minus, plus)
        return (f, e, (e_cnt + 1, f_cnt)) if lam == bad else (e, f, (e_cnt, f_cnt))

    monkeypatch.setattr(crystal, "read_moves", read_moves)
    spec = (1, 1, (1, 0), 0)
    down, up = residue_vectors(build_context(*spec), bad)
    r = sweeps._residue_candidates(0, crystal.reduced_table(0, down, up))[0]
    ops, counts = sweeps.oracle_worker((spec, 1))
    assert ops.failures > 0 and counts.failures > 0
    assert counts.counterexample.startswith(f"ctx={spec} lam={bad} r={r} ")
    assert ops.counterexample.startswith(f"e*: ctx={spec} lam={bad} r={r} ")

    code = main(
        ["--p", "0", "--parities", "1,0", "verify", "oracle-equivalence",
         "--max-rank", "2", "--coeff-window", "1", "--pin-parities", "--processes", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert f"first counterexample: ctx={spec} lam={bad} r={r} " in out


def test_a_wrong_reduction_kernel_fails_the_axioms_and_normality_suites(
    monkeypatch, capsys
):
    spec = (1, 1, (1, 0), 0)
    bad = (0, 0)
    down, up = residue_vectors(build_context(*spec), bad)
    real = crystal.reduced_table

    def reduced_table(p, d, u):
        # at the one weight bad, the - and + positions trade places
        table = real(p, d, u)
        if (list(d), list(u)) == (down, up):
            return {r: (plus, minus) for r, (minus, plus) in table.items()}
        return table

    monkeypatch.setattr(crystal, "reduced_table", reduced_table)
    for suite, worker, var in (
        ("crystal-axioms", sweeps.axioms_worker, "r"),
        ("normal-criteria", sweeps.normal_worker, "i"),
    ):
        # a check that steps down onto bad fails at a neighbour of bad
        cexs = [rep.counterexample for rep in worker((spec, 1)) if rep.failures]
        assert any(f"ctx={spec} lam={bad} {var}=" in cex for cex in cexs), suite
        code = main(
            ["--p", "0", "--parities", "1,0", "verify", suite, "--max-rank", "2",
             "--coeff-window", "1", "--pin-parities", "--processes", "1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "first counterexample: " in out
        assert f"ctx={spec} lam={bad} {var}=" in out


def test_a_wrong_matching_pass_fails_the_normality_suite(monkeypatch, capsys):
    spec = (1, 1, (1, 0), 0)
    bad = (0, 0)
    down, up = residue_vectors(build_context(*spec), bad)
    real = crystal.matching_flags

    def matching_flags(p, d, u):
        # at the one weight bad, every normal and good flag is inverted
        normal, good = real(p, d, u)
        if (list(d), list(u)) == (down, up):
            return [not f for f in normal], [not g for g in good]
        return normal, good

    monkeypatch.setattr(crystal, "matching_flags", matching_flags)
    crit, goodcrit, npc, flip = sweeps.normal_worker((spec, 1))
    cex = f"ctx={spec} lam={bad} i=1"
    assert crit.counterexample == goodcrit.counterexample == cex
    assert crit.failures == goodcrit.failures == 2
    assert npc.failures == flip.failures == 0
    code = main(
        ["--p", "0", "--parities", "1,0", "verify", "normal-criteria", "--max-rank", "2",
         "--coeff-window", "1", "--pin-parities", "--processes", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] signature normality equals the matching criterion" in out
    assert "[FAIL] signature goodness equals the matching criterion" in out
    assert out.count(f"first counterexample: {cex}") == 2


def test_a_residue_defect_fails_the_oracle_suite(monkeypatch):
    # the tensor rule reads its own letters, so residues shifted by one at
    # position 1 reach the signature rule only and the two routes disagree
    real = sweeps.residue_vectors

    def residue_vectors(ctx, lam):
        down, up = real(ctx, lam)
        down[0] += 1
        up[0] += 1
        return down, up

    monkeypatch.setattr(sweeps, "residue_vectors", residue_vectors)
    ops, counts = sweeps.run_suite(
        "oracle-equivalence", max_rank=3, coeff_window=2, processes=1
    )
    assert ops.failures > 0 and counts.failures > 0


def test_a_wrong_raised_element_fails_the_verma_suite(monkeypatch, capsys):
    def raised_s_element(ctx, i, j, a_set):
        # E_i is dropped: E_{i+1} ... E_{j-1} S_{i,j}(A) leaves the highest weight
        elt = pbw.s_element(ctx, i, j, a_set)
        for t in range(j - 1, i, -1):
            elt = (pbw.SuperElt.gen(ctx, t, t + 1) * elt).reduce_mod_J()
        return elt

    monkeypatch.setattr(pbw, "raised_s_element", raised_s_element)
    spec = (1, 1, (1, 0), 3)
    (lowered,) = sweeps.lowering_scalar_worker((spec, 1))
    (witness,) = sweeps.witness_worker((spec, 1))
    assert lowered.failures > 0 and witness.failures > 0
    assert lowered.counterexample.startswith(f"ctx={spec} i=1 j=2 A=[] B=[] lam=")
    assert witness.counterexample.startswith(f"ctx={spec} lam=")
    code = main(
        ["--p", "3", "--parities", "1,0", "verify", "verma-scalars", "--max-rank", "2",
         "--pin-parities", "--processes", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] raised lowered vectors give the predicted scalar" in out
    assert "[FAIL] every normal index certifies a nonzero scalar" in out


def _odd_odd_negated(real):
    # every bracket of two odd generators changes sign: the relation table
    # stays self-consistent, so only the lemmas built on it can fail
    def bracket_gens(parities, x, y):
        odd = pbw.gen_parity(parities, x) and pbw.gen_parity(parities, y)
        return [(-c if odd else c, g) for c, g in real(parities, x, y)]

    return bracket_gens


X_ELEMENT_REPORTS = {
    "brackets of generators with the x elements",
    "the summed x elements are central",
}

# (suite, module, kernel, mutant of the real kernel, characteristic of the
# CLI run, the reports that fail), for reports no other test shows can fail
PLANTED = [
    ("crystal-axioms", sweeps, "alpha_pairing",
     lambda real: lambda p, key, r: real(p, key, r + 1 if p == 3 else r),
     3, {"phi* - eps* equals the coroot pairing of wt"}),
    ("odd-reflection", crystal, "odd_weight",
     lambda real: lambda p, signs, lam, i: lam[: i - 1] + (lam[i], lam[i - 1]) + lam[i + 1 :],
     0, {"odd reflections commute with the star operators",
         "odd reflections preserve the counters and wt"}),
    ("linkage", sweeps, "wt_key",  # at p > 0 the key loses its delta coefficient
     lambda real: lambda p, signs, down: real(p, signs, down)[1 if p else 0 :],
     3, {"wt equality matches length plus A-B data"}),
    ("verma-scalars", sweeps, "z_scalar",
     lambda real: lambda ctx, lam, r: -real(ctx, lam, r) if r == 3 else real(ctx, lam, r),
     0, {"central elements act on the Verma line by Z_r"}),
    ("crystal-axioms", crystal, "star_moves",  # eps* one too large
     lambda real: lambda *a: (lambda e, f, cnt: (e, f, (cnt[0] + 1, cnt[1])))(*real(*a)),
     0, {"e*/f* shift the counters by one"}),
    ("crystal-axioms", crystal, "star_moves",  # e* and f* trade places
     lambda real: lambda *a: (lambda e, f, cnt: (f, e, cnt))(*real(*a)),
     3, {"e* and f* are mutually inverse where defined"}),
    ("crystal-axioms", sweeps, "alpha_of",
     lambda real: lambda p, r: real(p, r + 1),
     0, {"e*/f* shift wt by the simple root"}),
    ("crystal-axioms", sweeps, "wt_key",  # at p > 0 the delta coefficient reads 0
     lambda real: lambda p, signs, down: (
         (0,) + real(p, signs, down)[1:] if p else real(p, signs, down)),
     3, {"e*/f* shift wt by the simple root"}),
    ("normal-criteria", crystal, "reduced_positions",  # returns (plus, minus)
     lambda real: lambda *a: real(*a)[::-1],
     3, {"good equals normal plus conormal one step down"}),
    ("normal-criteria", sweeps, "flip_weight",  # reverses without negating
     lambda real: lambda lam: lam[::-1],
     0, {"normal maps to conormal through the flip"}),
    ("linkage", sweeps, "series_coeffs",  # drops the last position
     lambda real: lambda down, up, n: real(down[:-1], up[:-1], n),
     3, {"residue series equality matches the A-B data"}),
    ("verma-scalars", crystal, "bc_positions",  # adds j to B
     lambda real: lambda p, d, u, i, j: (lambda c, b: (c, b | {j}))(*real(p, d, u, i, j)),
     0, {"every normal index certifies a nonzero scalar"}),
    ("pbw-identities", pbw, "_bracket_gens", _odd_odd_negated,
     3, {"E_l commutation lemma, all four cases",
         "L reduction and annihilation identities mod J",
         "lowering-operator recurrence",
         "the L elements commute pairwise and with H"} | X_ELEMENT_REPORTS),
]

# the reports of a row that its rank-2 CLI run fails, where they are fewer
RANK_2_FAILING = {"_bracket_gens": X_ELEMENT_REPORTS}


def _row_id(row):
    # the kernel, and the suite too when an earlier row plants the kernel in
    # another suite; pytest numbers the ids that still repeat
    suite, _, kernel = row[:3]
    first = next(other[0] for other in PLANTED if other[2] == kernel)
    return kernel if first == suite else f"{kernel}-{suite}"


@pytest.mark.parametrize(
    "suite, module, kernel, mutant, p, failing", PLANTED, ids=[_row_id(row) for row in PLANTED]
)
def test_a_planted_defect_fails_its_reports(
    monkeypatch, capsys, suite, module, kernel, mutant, p, failing
):
    monkeypatch.setattr(module, kernel, mutant(getattr(module, kernel)))
    # the PBW elements are built afresh under the mutant and dropped after it
    monkeypatch.setattr(pbw, "_LOWERING_CACHE", {})
    monkeypatch.setattr(pbw, "_RAISED_CACHE", {})
    reports = sweeps.run_suite(suite, max_rank=3, coeff_window=2, processes=1)
    assert {rep.name for rep in reports if rep.failures} == failing
    assert all(rep.failures <= rep.checks for rep in reports)
    code = main(
        ["--p", str(p), "--parities", "1,0", "verify", suite, "--max-rank", "2",
         "--coeff-window", "2", "--pin-parities", "--processes", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    for name in RANK_2_FAILING.get(kernel, failing):
        assert f"[FAIL] {name}" in out


def test_a_plan_with_no_shard_is_rejected():
    for suite in ("linkage", "all"):
        with pytest.raises(ValueError, match=f"suite {suite} plans no shard at max_rank 1$"):
            sweeps.run_suite(suite, max_rank=1, processes=1)
    with pytest.raises(ValueError) as exc:
        sweeps.run_suite("pbw-identities", parities_pin=(1, 0, 0, 1, 0), processes=1)
    assert str(exc.value) == (
        "suite pbw-identities plans no shard at max_rank 4"
        " with parities pinned to (1, 0, 0, 1, 0)"
    )


@pytest.mark.parametrize("suite", ["crystal-axioms", "verma-scalars"])
def test_a_process_pool_gives_the_single_process_reports(suite):
    def rows(processes):
        reports = sweeps.run_suite(suite, max_rank=2, coeff_window=1, processes=processes)
        return [(r.name, r.checks, r.failures, r.counterexample) for r in reports]

    assert rows(2) == rows(1)


def test_shards_merge_report_by_report_in_job_order():
    def worker(job):
        return [
            sweeps.PropertyReport("a", 2, job, f"a{job}" if job else None),
            sweeps.PropertyReport("b", 1, 1, f"b{job}"),
        ]

    a, b = sweeps._run_sharded(worker, [0, 2, 1], processes=1)
    assert (a.name, a.checks, a.failures, a.counterexample) == ("a", 6, 3, "a2")
    assert (b.name, b.checks, b.failures, b.counterexample) == ("b", 3, 3, "b0")
    assert sweeps._run_sharded(worker, [], processes=1) == []
