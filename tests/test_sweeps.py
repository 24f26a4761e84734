"""Job plans, check counts and the failure path of the verification suites."""

import collections
import hashlib
import itertools
import re
from fractions import Fraction

import pytest

from supercrystals import crystal, pbw, sweeps, tensorrule
from supercrystals.affine import wt_key
from supercrystals.cli import main
from supercrystals.weights import build_context, iter_window, residue_vectors

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
    # the suite table must hand _run_sharded the same shards, in the same
    # order; every job starts with its context spec, so a mismatch also
    # shows the shards per (worker, p)
    plans = [planned_jobs(monkeypatch, name) for name in sweeps.SUITES + ("all",)]
    digest = hashlib.sha256("".join(map(repr, plans)).encode()).hexdigest()[:16]
    shards = collections.Counter((name, job[0][3]) for plan in plans for name, job in plan)
    assert digest == "0b71e263cf409c7e", sorted(shards.items())


def test_the_lowering_part_runs_at_every_characteristic_given(monkeypatch):
    def planned_ps(worker, **overrides):
        jobs = planned_jobs(monkeypatch, "verma-scalars", **overrides)
        return {job[0][3] for name, job in jobs if name == worker}

    assert planned_ps("lowering_scalar_worker") == {0, 2, 3, 5}
    assert planned_ps("lowering_scalar_worker", p_list=(0, 3)) == {0, 3}
    assert planned_ps("lowering_scalar_worker", p_list=(0,)) == {0}
    assert planned_ps("lowering_scalar_worker", p_list=(0,), parities_pin=(1, 0)) == {0}
    assert planned_ps("lowering_scalar_worker", p_list=(5,), parities_pin=(1, 0)) == {5}
    # the Z_r part runs at p = 0 whatever the run's characteristics
    assert planned_ps("verma_z_worker", p_list=(5,), parities_pin=(1, 0)) == {0}


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
        "verma-scalars": [11760, 34864, 5400],
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


def test_an_odd_reflection_moves_the_residues_at_its_two_positions_only():
    # C5 compares wt on the letters at i and i+1 alone; that is sound because
    # every other residue is unchanged and wt is a sum over positions
    for m, n, parities, p in sweeps.context_specs((2, 3), (0, 2, 3, 5)):
        ctx = build_context(m, n, parities, p)
        for i in range(1, ctx.rank):
            if ctx.parity(i) == ctx.parity(i + 1):
                continue
            octx = crystal.s_i_map(ctx, (0,) * ctx.rank, i)[0]
            moved = slice(i - 1, i + 1)
            for lam in iter_window(ctx.rank, 2):
                down, up = residue_vectors(ctx, lam)
                odown, oup = residue_vectors(octx, crystal.odd_weight(p, ctx.signs, lam, i))
                for vec, ovec in ((down, odown), (up, oup)):
                    assert vec[: i - 1] == ovec[: i - 1] and vec[i + 1 :] == ovec[i + 1 :]
                full = wt_key(p, ctx.signs, down) == wt_key(p, octx.signs, odown)
                local = wt_key(p, ctx.signs[moved], down[moved]) == wt_key(
                    p, octx.signs[moved], odown[moved]
                )
                assert full == local, (ctx.parities, p, lam, i)


def test_the_odd_reflection_sweep_compares_wt_once_per_letter_pair(monkeypatch):
    # per adjacent i, the letters at i and i+1 take (2w+1)^2 values in the
    # window w, and each needs one wt_key call per side
    spec, window = (2, 1, (1, 0, 0), 0), 2
    calls = []
    real = sweeps.wt_key

    def wt_key_counted(p, signs, down):
        calls.append(len(down))
        return real(p, signs, down)

    monkeypatch.setattr(sweeps, "wt_key", wt_key_counted)
    reports = sweeps.oddrefl_worker((spec, window))
    parities = spec[2]
    adjacents = sum(a != b for a, b in zip(parities, parities[1:]))
    assert len(calls) <= 2 * adjacents * (2 * window + 1) ** 2
    assert all(rep.failures == 0 for rep in reports)


def test_central_worker_follows_max_r_up_to_3(monkeypatch):
    for max_r, central_r in ((1, 1), (2, 2), (3, 3), (4, 3), (9, 3)):
        jobs = planned_jobs(monkeypatch, "pbw-identities", max_r=max_r)
        assert {job[1] for name, job in jobs if name == "central_worker"} == {central_r}


def test_suite_options_are_the_options_each_job_plan_reads(monkeypatch):
    # two values of an option give two plans exactly when the suite reads it
    values = {
        "coeff_window": (1, 2),
        "p_list": ((0, 2, 3, 5), (0, 3)),
        "seed": (0, 1),
        "max_r": (1, 2),
    }
    for suite in sweeps.SUITES:
        read = {
            name
            for name, (a, b) in values.items()
            if planned_jobs(monkeypatch, suite, **{name: a})
            != planned_jobs(monkeypatch, suite, **{name: b})
        }
        assert read == set(sweeps.SUITE_OPTIONS[suite]), suite


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


def _doubled_e12_e21(real):
    # [e_12, e_21] comes out twice its value; every other bracket is right
    def bracket_gens(parities, x, y):
        terms = real(parities, x, y)
        return [(2 * c, g) for c, g in terms] if (x, y) == ((1, 2), (2, 1)) else terms

    return bracket_gens


def _unit_product_copied(real):
    # 1 * right keeps the terms of right as they come, normal-ordered or not,
    # so S normal-ordered in alt never reaches the default basis
    def accumulate(out, parities, order, left, right, scale=1):
        if left != {(): 1}:
            return real(out, parities, order, left, right, scale)
        for mono, c in right.items():
            out[mono] = out.get(mono, 0) + scale * c
        return out

    return accumulate


BRACKET_TABLE_REPORT = "generator brackets match the defining relation"
X_ELEMENT_REPORTS = {"brackets of generators with the x elements",
                     "the summed x elements are central"}
TECH_LEMMA = "L reduction and annihilation identities mod J"
COMMUTATION_LEMMA = "E_l commutation lemma, all four cases"

# (suite, kernel owner, kernel, mutant of the real kernel, p and parities of
# the pinned CLI run, the reports the rank <= 3, window 2 sweep fails, the
# reports the CLI run fails where they are fewer, else None)
PLANTED = [
    pytest.param(
        "crystal-axioms", sweeps, "alpha_pairing",
        lambda real: lambda p, key, r: real(p, key, r + 1 if p == 3 else r),
        3, (1, 0), {"phi* - eps* equals the coroot pairing of wt"}, None, id="alpha_pairing"),
    pytest.param(
        "odd-reflection", crystal, "odd_weight",
        lambda real: lambda p, signs, lam, i: lam[: i - 1] + (lam[i], lam[i - 1]) + lam[i + 1 :],
        0, (1, 0), {"odd reflections commute with the star operators",
                    "odd reflections preserve the counters and wt"}, None, id="odd_weight"),
    pytest.param(
        "linkage", sweeps, "wt_key",  # at p > 0 the key loses its delta coefficient
        lambda real: lambda p, signs, down: real(p, signs, down)[1 if p else 0 :],
        3, (1, 0), {"wt equality matches length plus A-B data"}, None, id="wt_key"),
    pytest.param(
        "odd-reflection", sweeps, "wt_key",  # reads the first letter only
        lambda real: lambda p, signs, down: real(p, signs, down[:1]),
        0, (1, 0), {"odd reflections preserve the counters and wt"}, None,
        id="wt_key-odd-reflection"),
    pytest.param(
        "verma-scalars", sweeps, "z_scalars",  # Z_3 negated
        lambda real: lambda ctx, lam, max_r: [
            -z if r == 3 else z for r, z in enumerate(real(ctx, lam, max_r), 1)],
        0, (1, 0), {"central elements act on the Verma line by Z_r"}, None, id="z_scalars"),
    pytest.param(
        "crystal-axioms", crystal, "star_moves",  # eps* one too large
        lambda real: lambda *a: (lambda e, f, cnt: (e, f, (cnt[0] + 1, cnt[1])))(*real(*a)),
        0, (1, 0), {"e*/f* shift the counters by one"}, None, id="star_moves0"),
    pytest.param(
        "crystal-axioms", crystal, "star_moves",  # e* and f* trade places
        lambda real: lambda *a: (lambda e, f, cnt: (f, e, cnt))(*real(*a)),
        3, (1, 0), {"e* and f* are mutually inverse where defined"}, None, id="star_moves1"),
    pytest.param(
        "crystal-axioms", sweeps, "alpha_of",
        lambda real: lambda p, r: real(p, r + 1),
        0, (1, 0), {"e*/f* shift wt by the simple root"}, None, id="alpha_of"),
    pytest.param(
        "crystal-axioms", sweeps, "wt_key",  # at p > 0 the delta coefficient reads 0
        lambda real: lambda p, signs, down: (
            (0,) + real(p, signs, down)[1:] if p else real(p, signs, down)),
        3, (1, 0), {"e*/f* shift wt by the simple root"}, None, id="wt_key-crystal-axioms"),
    pytest.param(
        "normal-criteria", crystal, "reduced_positions",  # returns (plus, minus)
        lambda real: lambda *a: real(*a)[::-1],
        3, (1, 0), {"good equals normal plus conormal one step down"}, None,
        id="reduced_positions"),
    pytest.param(
        "normal-criteria", sweeps, "flip_weight",  # reverses without negating
        lambda real: lambda lam: lam[::-1],
        0, (1, 0), {"normal maps to conormal through the flip"}, None, id="flip_weight"),
    pytest.param(
        "linkage", sweeps, "series_coeffs",  # drops the last position
        lambda real: lambda down, up, n: real(down[:-1], up[:-1], n),
        3, (1, 0), {"residue series equality matches the A-B data"}, None, id="series_coeffs"),
    pytest.param(
        "verma-scalars", crystal, "bc_positions",  # adds j to B
        lambda real: lambda p, d, u, i, j: (lambda c, b: (c, b | {j}))(*real(p, d, u, i, j)),
        0, (1, 0), {"every normal index certifies a nonzero scalar"}, None, id="bc_positions"),
    pytest.param(
        "pbw-identities", pbw, "_bracket_gens", _odd_odd_negated,
        0, (1, 0), {BRACKET_TABLE_REPORT, COMMUTATION_LEMMA, TECH_LEMMA,
                    "lowering-operator recurrence",
                    "the L elements commute pairwise and with H"} | X_ELEMENT_REPORTS,
        {BRACKET_TABLE_REPORT} | X_ELEMENT_REPORTS, id="_bracket_gens"),
    # the raised scalar one off, then negated: lowering_scalar_check pins the
    # sign, which only p = 2, where -1 = 1, cannot see
    pytest.param(
        "verma-scalars", pbw, "raised_s_element",
        lambda real: lambda ctx, i, j, a: real(ctx, i, j, a) + pbw.SuperElt.const(ctx, 1),
        3, (1, 0), {"raised lowered vectors give the predicted scalar",
                    "every normal index certifies a nonzero scalar"}, None, id="raised_s_element"),
    pytest.param(
        "verma-scalars", pbw, "raised_s_element",
        lambda real: lambda ctx, i, j, a: -real(ctx, i, j, a),
        3, (1, 0), {"raised lowered vectors give the predicted scalar",
                    "every normal index certifies a nonzero scalar"}, None,
        id="raised_s_element-negated"),
    # super Jacobi, associativity, order independence and integrality: each
    # CLI run is pinned at rank 3, since at parities 1,0 the one S is F_21,
    # which neither the change of basis nor the factors reach
    pytest.param(
        "pbw-identities", pbw, "_bracket_gens", _doubled_e12_e21,
        0, (1, 0, 0), {BRACKET_TABLE_REPORT, "super Jacobi identity on random triples",
                       TECH_LEMMA, COMMUTATION_LEMMA} | X_ELEMENT_REPORTS, None,
        id="_bracket_gens-doubled"),
    pytest.param(
        "pbw-identities", pbw, "_expand",  # drops exponents
        lambda real: lambda mono: tuple(g for g, _ in mono),
        0, (0, 0, 0), {"normal ordering is associative on random triples",
                       TECH_LEMMA} | X_ELEMENT_REPORTS, None, id="_expand"),
    pytest.param(
        "pbw-identities", pbw, "_accumulate", _unit_product_copied,
        0, (1, 0, 0), {"S is independent of the order within its class"}, None,
        id="_accumulate-unit"),
    pytest.param(
        "pbw-identities", pbw, "_lowering_factor",  # every factor of S halved
        lambda real: lambda ctx, i, t: real(ctx, i, t).scale(Fraction(1, 2)),
        0, (1, 0, 0), {"lowering-operator recurrence", COMMUTATION_LEMMA,
                       "lowering operators have integer coefficients"}, None,
        id="_lowering_factor"),
    # the tensor rule reads its own letters, so residues shifted by one at
    # position 1 reach the signature rule only and the two routes disagree
    pytest.param(
        "oracle-equivalence", sweeps, "residue_vectors",
        lambda real: lambda ctx, lam: tuple([v[0] + 1] + v[1:] for v in real(ctx, lam)),
        0, (1, 0), {"star operators match the tensor-rule oracle",
                    "star counters match the tensor-rule oracle"}, None, id="residue_vectors"),
    # the oracle side of C2: each bucket folds only its last letter
    pytest.param(
        "oracle-equivalence", tensorrule, "_fold",
        lambda real: lambda lam, bucket: real(lam, bucket[-1:]),
        0, (1, 0), {"star operators match the tensor-rule oracle",
                    "star counters match the tensor-rule oracle"}, None, id="_fold"),
]
assert len({row.id for row in PLANTED}) == len(PLANTED)  # pytest renumbers repeated ids


@pytest.mark.parametrize(
    "suite, owner, kernel, mutant, p, parities, failing, cli_failing", PLANTED
)
def test_a_planted_defect_fails_its_reports(
    monkeypatch, capsys, suite, owner, kernel, mutant, p, parities, failing, cli_failing
):
    monkeypatch.setattr(owner, kernel, mutant(getattr(owner, kernel)))
    # the PBW elements are built afresh under the mutant and dropped after it
    monkeypatch.setattr(pbw, "_LOWERING_CACHE", {})
    monkeypatch.setattr(pbw, "_RAISED_CACHE", {})
    reports = sweeps.run_suite(suite, max_rank=3, coeff_window=2, processes=1)
    assert {rep.name for rep in reports if rep.failures} == failing
    assert all(rep.failures <= rep.checks for rep in reports)
    # verify rejects a window given to a suite that sweeps none
    window = ["--coeff-window", "2"] if "coeff_window" in sweeps.SUITE_OPTIONS[suite] else []
    code = main(
        ["--p", str(p), "--parities", ",".join(map(str, parities)), "verify", suite,
         "--max-rank", str(len(parities)), "--pin-parities", "--processes", "1"] + window
    )
    out = capsys.readouterr().out
    assert code == 1
    assert set(re.findall(r"^\[FAIL\] (.+?): \d+ checks", out, re.M)) == (cli_failing or failing)


def test_a_wrong_ab_key_fails_the_linkage_suite_in_each_direction(monkeypatch):
    def linkage_reports(key):
        monkeypatch.setattr(sweeps, "ab_key", key)
        return sweeps.run_suite("linkage", max_rank=3, coeff_window=2, processes=1)

    # a key finer than wt splits the weights of one wt
    wt_rep, series_rep = linkage_reports(lambda p, down, up: tuple(down))
    assert wt_rep.failures == series_rep.failures == 2564
    assert wt_rep.counterexample.startswith("wt equal, data differ: ctx=")
    # the final loop names the two keys whose series collide
    assert series_rep.counterexample == (
        "series equal, data differ: ctx=(2, 0, (0, 0), 0) data=(0, (1, 0)) other=(0, (0, 1))"
    )
    # a key coarser than wt joins weights of different wt
    wt_rep, series_rep = linkage_reports(lambda p, down, up: ())
    assert wt_rep.failures == series_rep.failures == 2384
    assert wt_rep.counterexample.startswith("data equal, wt differ: ctx=")
    assert series_rep.counterexample.startswith("data equal, series differ: ctx=")


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


@pytest.mark.parametrize("suite", ["oracle-equivalence", "crystal-axioms", "verma-scalars"])
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
