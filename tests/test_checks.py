import hashlib
import json
import multiprocessing
import os
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest

import hardsphere.dynamics as dyn
from hardsphere import checks as C
from hardsphere.config import CHECK_IDS, check_params, dump_config, load_config, loads_config
from hardsphere.geometry import Domain, Vec3
from hardsphere.hierarchy import PhaseBox, SeriesParams
from hardsphere.measures import GrandCanonicalEq, InitialMeasure, ModulatedProduct, get_measure
from hardsphere.cli import default_experiment, main
from marking_kernel import marking_kernel

SMALL_INI = """
[experiment]
schema_version = 1
seed = 424242
workers = 1
out = "{out}"
norm_proposals = 150000
chunk_size = 5000

[domain]
box = [0, 0, 0, 5, 5, 5]
a = 1.0

[density]
variant = "modulated"
n = 2
beta = 1.0

[check.special_flow]

[check.lemma2_rate]
trajectories = 2500
t = 10.0
rate_samples = 300000
n_list = [2]

[check.series_identity]
samples = 5000
t = 8.0
deltas = ["bulk"]
"""


def small_exp(out="report.jsonl"):
    return loads_config(SMALL_INI.format(out=out))


def test_config_parse_fields():
    exp = small_exp()
    assert exp.seed == 424242
    assert exp.domain.a == 1.0
    assert isinstance(exp.density, ModulatedProduct)
    assert [cid for cid, _, _ in exp.checks] == [
        "special_flow", "lemma2_rate", "series_identity"]
    assert exp.validate() == []


def test_config_dump_roundtrip():
    exp = small_exp()
    text = dump_config(exp)
    back = loads_config(text)
    assert back.canonical_dict() == exp.canonical_dict()
    assert back.config_hash == exp.config_hash
    # a grand-canonical density keeps its occupancy cap, which the hash sees
    exp.density = GrandCanonicalEq(2.0, 1.0, n_cap=3)
    back = loads_config(dump_config(exp))
    assert back.density == exp.density
    assert back.config_hash == exp.config_hash
    exp.density = GrandCanonicalEq(2.0, 1.0)
    assert exp.config_hash != back.config_hash


def test_config_validation_catches_problems():
    exp = small_exp()
    exp.checks.append(("no_such_check", "", {}))
    exp.checks.append(("series_identity", "bad", {"samples": -1}))
    exp.checks.append(("lemma2_rate", "typo", {"sampels": 10}))
    problems = exp.validate()
    assert any("no_such_check" in p for p in problems)
    assert any("samples" in p for p in problems)
    assert any("lemma2_rate" in p and "'sampels'" in p for p in problems)
    for cid, key in (("lemma2_rate", "rate_samples"), ("map_roundtrip", "outer_samples"),
                     ("map_roundtrip", "points"), ("special_flow", "resolution"),
                     ("reversibility", "events_target")):
        exp = small_exp()
        exp.checks = [(cid, "", {key: 0})]
        assert exp.validate() == [f"{cid}: {key} must be positive"]
    # values of the wrong JSON type; derived defaults also take null, and a
    # delta preset name also takes an explicit box
    for cid, key, value, kinds in (("reversibility", "n_list", 2, "array"),
                                   ("series_identity", "samples", "many", "number"),
                                   ("series_identity", "antithetic", 1, "boolean"),
                                   ("liouville", "times", 4.0, "array or null"),
                                   ("liouville", "delta", 3, "object or string")):
        exp = small_exp()
        exp.checks = [(cid, "", {key: value})]
        assert exp.validate() == [f"{cid}: {key} must be {kinds}"]
    exp = small_exp()
    exp.checks = [("series_identity", "", {"m_max": None, "beta0": 1, "t": 6}),
                  ("liouville", "", {"delta": {"q_lo": [[1, 1, 1]], "q_hi": [[2, 2, 2]],
                                               "p_lo": [[-1, -1, -1]], "p_hi": [[1, 1, 1]]}})]
    assert exp.validate() == []
    for key in ("chunk_size", "norm_proposals"):
        exp = small_exp()
        setattr(exp, key, 0)
        assert exp.validate() == [f"{key} must be positive"]
    # misspelled keys and sections outside the check sections
    text = (SMALL_INI.format(out="r.jsonl").replace("workers = 1", "worker = 4")
            .replace("a = 1.0", "a = 1.0\nsigm = 1.0")
            .replace("beta = 1.0", "beta = 1.0\ng_amplitud = 0.3")
            .replace("[check.series_identity]", "[chek.series_identity]"))
    with pytest.raises(ValueError) as err:
        loads_config(text)
    for problem in ("unknown section [chek.series_identity]",
                    "unknown key 'worker' in [experiment]", "unknown key 'sigm' in [domain]",
                    "unknown key 'g_amplitud' in [density]"):
        assert problem in str(err.value)
    # the grand-canonical block has its own keys
    grand = SMALL_INI.format(out="r.jsonl").replace('variant = "modulated"\nn = 2',
                                                   'variant = "grand_canonical"\nz = 2.0')
    assert loads_config(grand.replace("beta = 1.0", "beta = 1.0\nn_cap = 3")).density.n_cap == 3
    with pytest.raises(ValueError, match="unknown key 'g_choice' in \\[density\\]"):
        loads_config(grand.replace("beta = 1.0", 'beta = 1.0\ng_choice = "cos_x"'))


def test_nonpositive_count_exits_2(tmp_path, capsys):
    # bad counts and sizes, a wrong JSON type and misspellings outside the
    # check sections are config errors, never "config ok" or a traceback
    cfg_path = tmp_path / "exp.ini"
    for old, new, message in (
            ("rate_samples = 300000", "rate_samples = 0",
             "config error: lemma2_rate: rate_samples must be positive"),
            ("chunk_size = 5000", "chunk_size = 0", "config error: chunk_size must be positive"),
            ("n_list = [2]", "n_list = 2", "config error: lemma2_rate: n_list must be array"),
            ("workers = 1", "worker = 4", "error: unknown key 'worker' in [experiment]"),
            ("[check.lemma2_rate]", "[chek.lemma2_rate]",
             "error: unknown section [chek.lemma2_rate]"),
            # integer settings and parameters were truncated by int()
            ("workers = 1", "workers = 2.5",
             "error: key 'workers' in [experiment] must be integer"),
            ("chunk_size = 5000", "chunk_size = 1000.7",
             "error: key 'chunk_size' in [experiment] must be integer"),
            ("workers = 1", 'workers = 1\nsigma = "three"',
             "error: key 'sigma' in [experiment] must be number"),
            ("samples = 5000", "samples = 300.5",
             "config error: series_identity: samples must be integer")):
        cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl").replace(old, new))
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert main(["run", "--config", str(cfg_path), "--check", "lemma2_rate"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_vacuous_or_mistyped_lists_exit_2(tmp_path, capsys):
    # an empty case list would pass having tested nothing, and a wrongly
    # typed entry would end in an error naming no key: both are config errors
    cfg_path = tmp_path / "exp.ini"
    for section, key, value, message in (
            ("liouville", "times", "[]", "times must not be empty"),
            ("prop1_decomposition", "deltas", "[]", "deltas must not be empty"),
            ("lemma2_rate", "n_list", "[]", "n_list must not be empty"),
            ("prop1_decomposition", "deltas", "[3]", "deltas entries must be object or string"),
            ("reversibility", "n_list", "[2, 2.5]", "n_list entries must be integer"),
            ("reversibility", "n_list", "[true]", "n_list entries must be integer"),
            ("liouville", "times", '[1.0, "2"]', "times entries must be number"),
            ("series_identity", "allocation", "[0.5, null, 0.2]",
             "allocation entries must be number"),
            ("map_roundtrip", "micro_box", "[2.5, [1.2], 1.2]",
             "micro_box entries must be number"),
            # one sphere never collides, and reversibility with no sphere
            # (or a negative count) crashed after "config ok"
            ("lemma2_rate", "n_list", "[1]", "n_list entries must be at least 2"),
            ("lemma2_rate", "n_list", "[3, 1]", "n_list entries must be at least 2"),
            ("reversibility", "n_list", "[0]", "n_list entries must be at least 1"),
            ("reversibility", "n_list", "[-1]", "n_list entries must be at least 1")):
        cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl")
                            + f"\n[check.{section}.bad]\n{key} = {value}\n")
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {section}: {message}" in err
    box = {"q_lo": [[1, 1, 1]], "q_hi": [[2, 2, 2]], "p_lo": [[-1] * 3], "p_hi": [[1] * 3]}
    exp = small_exp()
    exp.checks = [("liouville", "", {"times": [3, 6.0]}), ("reversibility", "", {"n_list": [2]}),
                  ("prop5_onestep", "", {"deltas": ["bulk", box]})]
    assert exp.validate() == []


def test_direction_draws_and_m_max_out_of_range_exit_2(tmp_path, capsys):
    # direction_draws below 1 ran silently as one draw, 1.5 as one draw, a
    # negative or fractional m_max ended in an error that names no key, and
    # so did an unknown preset name
    cfg_path = tmp_path / "exp.ini"
    for section, key, value, message in (
            ("series_identity", "direction_draws", "0", "direction_draws must be positive"),
            ("grand_canonical_identity", "direction_draws", "-3",
             "direction_draws must be positive"),
            ("series_identity", "m_max", "-1", "m_max must not be negative"),
            ("series_identity", "direction_draws", "1.5", "direction_draws must be integer"),
            ("series_identity", "m_max", "0.5", "m_max must be integer"),
            ("liouville", "delta", '"nowhere"', "unknown delta preset 'nowhere'"),
            # a short allocation crashed on a tuple index, all zeros on a
            # division, and a negative share ran and passed
            ("series_identity", "allocation", "[1.0]", "allocation must be three positive numbers"),
            ("series_identity", "allocation", "[0, 0, 0]",
             "allocation must be three positive numbers"),
            ("series_identity", "allocation", "[0.5, -0.3, 0.2]",
             "allocation must be three positive numbers"),
            ("grand_canonical_identity", "allocation", "[0.35, 0.45, 0.2, 0.1]",
             "allocation must be three positive numbers"),
            # one outer sample reported a NaN error bar and passed
            ("map_roundtrip", "outer_samples", "1", "outer_samples must be at least 2"),
            # one rate sample gave both cases z = NaN from a one-sample std
            ("lemma2_rate", "rate_samples", "1", "rate_samples must be at least 2"),
            # a non-positive beta0 raised from the proposal Maxwellian, a
            # negative z ran and failed, and a side of one diameter or less
            # raised from Domain, each after "config ok"
            ("series_identity", "beta0", "0", "beta0 must be positive"),
            ("prop5_onestep", "beta0", "-1.0", "beta0 must be positive"),
            ("grand_canonical_identity", "z", "-5", "z must be positive"),
            ("map_roundtrip", "z", "0", "z must be positive"),
            ("grand_canonical_identity", "micro_box", "[2.5, 1.0, 1.2]",
             "micro_box must be three sides above 1"),
            ("map_roundtrip", "micro_box", "[0.5, 1.2, 1.2]",
             "micro_box must be three sides above 1"),
            ("map_roundtrip", "micro_box", "[2.5, 1.2]", "micro_box must be three sides above 1")):
        cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl")
                            + f"\n[check.{section}.bad]\n{key} = {value}\n")
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"config error: {section}: {message}" in capsys.readouterr().err
    exp = small_exp()
    exp.checks = [("series_identity", "", {"m_max": 0, "direction_draws": 2, "beta0": 0.5}),
                  ("map_roundtrip", "", {"z": 0.5, "micro_box": [1.1, 1.1, 1.1]}),
                  ("lemma2_rate", "", {"rate_samples": 2})]
    assert exp.validate() == []
    for draws in (0, -3):
        with pytest.raises(ValueError, match=f"^direction_draws must be at least 1, got {draws}$"):
            SeriesParams(direction_draws=draws)
    for allocation in ((1.0,), (0, 0, 0), (0.5, -0.3, 0.2)):
        message = f"allocation must be three positive numbers, got {list(allocation)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SeriesParams(allocation=allocation)


def test_empty_or_inverted_box_exits_2(tmp_path, capsys):
    # an inverted interval passed liouville at 0 against 0 and failed
    # series_identity at z = 80; a flat one passed at 0 against 0
    cfg_path = tmp_path / "exp.ini"
    good = {"q_lo": [[1, 1, 1]], "q_hi": [[3, 3, 3]], "p_lo": [[-1] * 3], "p_hi": [[1] * 3]}
    for section, key, field, row, reason in (
            ("liouville", "delta", "q_lo", [3, 1, 1], "q_lo.x = 3.0 must be finite and below "
                                                      "q_hi.x = 3.0"),
            ("liouville", "delta", "q_hi", [0.5, 3, 3], "q_lo.x = 1.0 must be finite and below "
                                                        "q_hi.x = 0.5"),
            ("series_identity", "deltas", "p_hi", [1, 1, -1], "p_lo.z = -1.0 must be finite "
                                                              "and below p_hi.z = -1.0")):
        box = {**good, field: [row]}
        value = json.dumps([box] if key == "deltas" else box)
        cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl")
                            + f"\n[check.{section}.bad]\n{key} = {value}\n")
        assert main(["validate", "--config", str(cfg_path)]) == 2
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert (f"config error: {section}: {key} entry {box!r} is not a phase box: "
                f"particle 0: {reason}") in capsys.readouterr().err
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be finite and below"):
            PhaseBox.of([[1, 1, bad]], [[3, 3, 3]], [[-1] * 3], [[1] * 3])


def test_prop5_rejects_more_than_n_plus_1_particles(tmp_path, capsys):
    # at N > n + 1 the collision term is the series cut after one
    # insertion, so the check would pass on a truncation
    cfg_path = tmp_path / "exp.ini"
    text = SMALL_INI.format(out=tmp_path / "r.jsonl").replace("n = 2\nbeta", "n = 3\nbeta")
    cfg_path.write_text(text + "\n[check.prop5_onestep]\nsamples = 100\n")
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert ("config error: prop5_onestep: the collision term is exact only at N = n + 1, "
            "at N = 3 > n + 1 = 2 it is the series truncated after m = 1") in err
    # run_check refuses it with validate's words
    exp = loads_config(cfg_path.read_text())
    with pytest.raises(ValueError, match=r"^prop5_onestep: the collision term is exact only "
                                         r"at N = n \+ 1, at N = 3 > n \+ 1 = 2 it is the "
                                         r"series truncated after m = 1$"):
        C.run_check(exp, "prop5_onestep", params={"samples": 100})
    pair = {"q_lo": [[1] * 3] * 2, "q_hi": [[2] * 3] * 2, "p_lo": [[-1] * 3] * 2,
            "p_hi": [[1] * 3] * 2}
    exp.checks = [("prop5_onestep", "", {"n": 2, "deltas": [pair]})]
    assert exp.validate() == []


def test_box_must_hold_the_checks_n_particles(tmp_path, capsys, monkeypatch):
    # a one-particle preset box with n = 2 would compare particle 0's
    # intervals against both particles; validate refuses it, and so does
    # run_check for every check, before any chunk runs
    ran = []
    monkeypatch.setattr(C, "_map_ordered", lambda *args: ran.append(args))
    exp = small_exp()
    exp.density = ModulatedProduct(3, 1.0)
    for cid, params in (("liouville", {"n": 2, "delta": "bulk", "samples": 10}),
                        ("prop1_decomposition", {"n": 2, "samples": 10, "deltas": ["bulk"]}),
                        ("prop5_onestep", {"n": 2, "samples": 10, "deltas": ["bulk"]}),
                        ("series_identity", {"n": 2, "samples": 10, "deltas": ["bulk"]}),
                        ("grand_canonical_identity", {"n": 2, "samples": 10})):
        with pytest.raises(ValueError, match=f"^{cid}: the box is 1-particle, the check's n is 2$"):
            C.run_check(exp, cid, params=params)
    cfg_path = tmp_path / "exp.ini"
    for section in ('liouville]\ndelta = "bulk"', 'prop1_decomposition]\ndeltas = ["bulk"]',
                    'prop5_onestep]\ndeltas = ["bulk"]', 'series_identity.two]',
                    'grand_canonical_identity]'):
        cid = section.split("]")[0].split(".")[0]
        cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl")
                            + f"\n[check.{section}\nn = 2\nsamples = 30\n")
        for cmd in ("validate", "run"):
            assert main([cmd, "--config", str(cfg_path)]) == 2
            assert (f"config error: {cid}: the box is 1-particle, the check's n is 2"
                    in capsys.readouterr().err)
    assert ran == []
    # a box dict holds as many particles as it has intervals
    pair = {"q_lo": [[1] * 3] * 2, "q_hi": [[2] * 3] * 2, "p_lo": [[-1] * 3] * 2,
            "p_hi": [[1] * 3] * 2}
    exp = small_exp()
    exp.checks = [("liouville", "", {"n": 2, "delta": pair}),
                  ("series_identity", "", {"n": 2, "deltas": [pair]}),
                  ("prop1_decomposition", "", {"deltas": [pair]}),
                  ("liouville", "", {"delta": {"q_lo": [[1] * 3]}})]
    assert exp.validate() == [
        "prop1_decomposition: the box is 2-particle, the check's n is 1",
        "liouville: delta entry {'q_lo': [[1, 1, 1]]} is not a phase box"]


def test_run_without_reports_exits_2(tmp_path, capsys):
    # a --check the config does not hold selects nothing
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl"))
    assert main(["run", "--config", str(cfg_path), "--check", "conservation"]) == 2
    assert "error: the selected checks produced no report" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


def test_density_box_mismatch_rejected():
    bad = SMALL_INI.format(out="x.jsonl") + "\n"
    bad = bad.replace('box = [0, 0, 0, 5, 5, 5]',
                      'box = [0, 0, 0, 5, 5, 5]\n', 1)
    bad += "\n"
    text = bad.replace("[density]", "[density]\nbox = [0, 0, 0, 4, 4, 4]")
    with pytest.raises(ValueError):
        loads_config(text)


def test_delta_presets_cover_named_regions():
    dom = Domain(Vec3(0, 0, 0), Vec3(5, 5, 5), 1.0)
    for name in ("bulk", "near_wall", "high_momentum"):
        box = C.delta_preset(name, dom, 1.0)
        assert box.n == 1 and box.volume > 0
    with pytest.raises(ValueError):
        C.delta_preset("nope", dom, 1.0)


def test_default_experiment_covers_all_checks():
    exp = default_experiment()
    assert sorted({cid for cid, _, _ in exp.checks}) == sorted(CHECK_IDS)
    assert exp.validate() == []


def test_run_all_writes_deterministic_report(tmp_path):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    exp = small_exp()
    reports1 = C.run_all(exp)
    C.write_report(reports1, str(out1))
    reports2 = C.run_all(exp)
    C.write_report(reports2, str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert all(r.passed for r in reports1)
    # canonical records are runtime-free and json-parsable
    for line in out1.read_text().splitlines():
        rec = json.loads(line)
        assert "runtime" not in rec and "runtime_s" not in rec
        assert rec["config_hash"] == exp.config_hash


def test_worker_count_changes_nothing_but_scheduling(tmp_path):
    exp = small_exp()
    exp.checks = [c for c in exp.checks if c[0] == "series_identity"]
    lines1 = [r.to_json_line() for r in C.run_all(exp)]
    exp.workers = 2
    lines2 = [r.to_json_line() for r in C.run_all(exp)]
    assert lines1 == lines2


def test_check_filter_keeps_seeds_stable(tmp_path):
    exp = small_exp()
    all_reports = {r.check + r.case: r.to_json_line() for r in C.run_all(exp)}
    only = {r.check + r.case: r.to_json_line()
            for r in C.run_all(exp, only=["lemma2_rate"])}
    for k, v in only.items():
        assert all_reports[k] == v


def test_run_check_refuses_what_validate_refuses(monkeypatch):
    # run_check and run_all call the same per-entry rules as validate and
    # raise with its words before any runner starts
    ran = []
    monkeypatch.setattr(C, "_map_ordered", lambda *args: ran.append(args))
    exp = small_exp()
    for cid, params, problem in (
            ("grand_canonical_identity", {"z": -5.0, "samples": 300}, "z must be positive"),
            ("liouville", {"samples": 0}, "samples must be positive"),
            ("liouville", {"bogus": 1}, "unknown parameter 'bogus'"),
            ("series_identity", {"beta0": -1.0}, "beta0 must be positive")):
        with pytest.raises(ValueError, match=f"^{cid}: {re.escape(problem)}$"):
            C.run_check(exp, cid, params=params)
        exp.checks = [(cid, "", params)]
        assert exp.validate() == [f"{cid}: {problem}"]
        with pytest.raises(ValueError, match=f"^{cid}: {re.escape(problem)}$"):
            C.run_all(exp)
    with pytest.raises(ValueError, match="^unknown check id 'bogus'$"):
        C.run_check(exp, "bogus")
    assert ran == []


def test_run_check_refuses_bad_run_wide_settings(monkeypatch):
    # a negative sigma was scored as a failed case and a zero chunk size
    # divided by zero: run_check and run_all check the run-wide settings
    # with validate's words before any runner starts
    ran = []
    monkeypatch.setattr(C, "_map_ordered", lambda *args: ran.append(args))
    for key, value, problem in (("sigma", -1.0, "sigma must be positive"),
                                ("chunk_size", 0, "chunk_size must be positive")):
        exp = small_exp()
        setattr(exp, key, value)
        assert exp.validate() == [problem]
        for cid in ("lemma2_rate", "liouville"):
            with pytest.raises(ValueError, match=f"^{problem}$"):
                C.run_check(exp, cid, params={})
        with pytest.raises(ValueError, match=f"^{problem}$"):
            C.run_all(exp)
    assert ran == []


def test_validate_refuses_what_the_runners_refuse(tmp_path, capsys):
    # each of these said "config ok": run then exited 2 with a message
    # naming no key, or passed at 0 +- 0 (canonical n = 0 with liouville)
    base = SMALL_INI.format(out=tmp_path / "r.jsonl").split("[check.")[0]
    grand = 'variant = "grand_canonical"\nz = 2.0\nbeta = 1.0'
    cfg_path = tmp_path / "exp.ini"
    for density, section, problem in (
            (grand, "liouville", "liouville: needs a fixed particle number, the density "
                                 "variant is grand_canonical"),
            (grand, "prop1_decomposition", "prop1_decomposition: needs a fixed particle "
                                           "number, the density variant is grand_canonical"),
            (grand, "prop5_onestep", "prop5_onestep: needs a fixed particle number, the "
                                     "density variant is grand_canonical"),
            (grand, "series_identity", "series_identity: needs a fixed particle number, the "
                                       "density variant is grand_canonical"),
            ('variant = "modulated"\nn = 1\nbeta = 1.0', "prop1_decomposition",
             "prop1_decomposition: needs at least n + 1 = 2 particles, the density's n is 1"),
            ('variant = "modulated"\nn = 1\nbeta = 1.0', "prop5_onestep",
             "prop5_onestep: needs at least n + 1 = 2 particles, the density's n is 1"),
            ('variant = "canonical"\nn = 0\nbeta = 1.0', "liouville",
             "density: n must be at least 1"),
            ('variant = "canonical"\nn = 0\nbeta = 1.0', "liouville",
             "liouville: n = 1 exceeds the density's n = 0"),
            ('variant = "modulated"\nn = 2\nbeta = -1.0', "liouville",
             "density: beta must be positive"),
            ('variant = "grand_canonical"\nz = -2.0\nbeta = 1.0', "conservation",
             "density: z must be positive")):
        text = base.replace('variant = "modulated"\nn = 2\nbeta = 1.0', density)
        cfg_path.write_text(f"{text}\n[check.{section}]\nsamples = 30\n")
        for cmd in ("validate", "run"):
            assert main([cmd, "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert f"config error: {problem}\n" in err and "Traceback" not in err
        exp = loads_config(cfg_path.read_text())
        with pytest.raises(ValueError, match=re.escape(problem)):
            C.run_check(exp, section, params={"samples": 30})


@pytest.mark.parametrize("source", ["configs/quick.ini", "configs/spec_default.ini",
                                    "perfbench/suite.ini", "default_experiment"])
def test_shipped_configs_validate(source):
    # run_check now refuses what validate refuses, so a shipped config
    # with a problem would stop a run or the benchmark's suite pass
    root = Path(__file__).resolve().parent.parent
    exp = default_experiment() if source == "default_experiment" else load_config(
        str(root / source))
    assert exp.checks
    assert exp.validate() == []


@pytest.mark.parametrize("check", ["reversibility", "liouville", "lemma2_rate",
                                   "prop1_decomposition", "prop5_onestep", "series_identity"])
def test_infeasible_box_exits_2(check, tmp_path, capsys):
    # a box that fits no configuration of the density's spheres is an
    # error in every check that draws from it: exit 2 with an error line,
    # not a failed check and not a traceback
    root = Path(__file__).resolve().parent.parent
    quick = (root / "configs/quick.ini").read_text()
    text = (quick.replace("box = [0, 0, 0, 5, 5, 5]", "box = [0, 0, 0, 1.4, 1.4, 1.4]")
            .replace("norm_proposals = 1000000", "norm_proposals = 20000"))
    assert text.count("1.4") == 3 and "20000" in text
    cfg_path = tmp_path / "tight.ini"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.jsonl"),
                 "--check", check]) == 2
    err = capsys.readouterr().err
    assert re.search(r"^error: \S", err, re.M) and "Traceback" not in err


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    out_path = tmp_path / "rep.jsonl"
    cfg_path.write_text(SMALL_INI.format(out=out_path))
    assert main(["validate", "--config", str(cfg_path)]) == 0
    code = main(["run", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "0 failed" in captured.out
    assert out_path.exists()
    assert main(["report", str(out_path)]) == 0
    # filtering by check id works and exits cleanly
    assert main(["run", "--config", str(cfg_path), "--check", "special_flow",
                 "--out", str(tmp_path / "one.jsonl")]) == 0


def test_cli_error_paths(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nschema_version = 99\n")
    assert main(["validate", "--config", str(bad)]) == 2
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 2


def test_prop1_collision_free_regime():
    # with a time far below the mean free time the cross-collision sums
    # vanish and the box mass reduces to the pullback term
    exp = small_exp()
    reports = C.run_check(exp, "prop1_decomposition",
                          params={"samples": 4000, "t": 0.01,
                                  "deltas": ["bulk"]})
    rep = reports[0]
    assert rep.passed
    assert abs(rep.detail["collision_gain"]) + abs(rep.detail["collision_loss"]) < 0.005
    assert abs(rep.detail["pullback_term"] - rep.rhs) < 0.005


@pytest.mark.parametrize("perturb", [0.0, 1e-9])
def test_map_roundtrip_top_level_is_deterministic(monkeypatch, perturb):
    # the top level of the inverse map has no outer integral and returns
    # the density up to rounding: a deterministic case at a rounding
    # tolerance, which an inverse off by 1e-9 relative fails
    from hardsphere.measures import InverseDensity

    real = InverseDensity.eval_arrays

    def eval_arrays(self, q, p, rng):
        value, se = real(self, q, p, rng)
        return value * (1.0 + perturb), se

    monkeypatch.setattr(InverseDensity, "eval_arrays", eval_arrays)
    reports = C.run_check(small_exp(), "map_roundtrip",
                          params={"z": 50.0, "inner_samples": 16, "outer_samples": 8,
                                  "points": 3})
    *below, top = reports
    assert [r.mode for r in below] == ["statistical"] * len(below) and len(below) >= 2
    assert (top.case, top.mode, top.z, top.samples) == (f"level{len(below)}", "deterministic",
                                                        None, 3)
    assert top.tolerance == 1e-12 * abs(top.rhs) > 0.0
    assert top.passed == (perturb == 0.0)


def test_series_identity_with_a_pair_box():
    # the series at n = 2 end to end: N = 3 on the two-particle box of the
    # golden prop5 case, strata m = 0 and m = 1, the first insertion
    # summed over both particles of the box
    exp = small_exp()
    exp.density = ModulatedProduct(3, 1.0)
    exp.seed = 20250810
    pair = {"name": "pair", "q_lo": [[1.0, 1.5, 1.5], [2.5, 1.5, 1.5]],
            "q_hi": [[2.5, 3.5, 3.5], [4.0, 3.5, 3.5]],
            "p_lo": [[-1.2] * 3] * 2, "p_hi": [[1.2] * 3] * 2}
    (rep,) = C.run_check(exp, "series_identity",
                         params={"samples": 20_000, "t": 6.0, "n": 2, "deltas": [pair]})
    assert set(rep.detail) == {"stratum_m0", "stratum_m1", "blocked"}
    assert rep.detail["stratum_m1"]["value"] != 0.0 and rep.detail["blocked"] > 0
    assert rep.passed, rep.table_row()


def test_summary_table_flags_failures():
    rep = C.CheckReport(
        check="series_identity", case="bulk", mode="statistical",
        lhs=1.0, lhs_err=0.01, rhs=2.0, rhs_err=0.01, z=70.0, tolerance=None,
        sigma=3.0, passed=False, samples=10, degenerate_rate=0.0,
    )
    table = C.summary_table([rep])
    assert "FAIL" in table and "1 failed" in table


def test_exit_code_on_failure(tmp_path, monkeypatch):
    # doctor a runner to fail and confirm the CLI reports exit code 1
    def fake_run_all(exp, only=None):
        return [C.CheckReport(
            check="conservation", case="pair_energy", mode="deterministic",
            lhs=1.0, lhs_err=0.0, rhs=0.0, rhs_err=0.0, z=None,
            tolerance=1e-12, sigma=0.0, passed=False, samples=1,
            degenerate_rate=0.0)]

    monkeypatch.setattr(C, "run_all", fake_run_all)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl"))
    assert main(["run", "--config", str(cfg_path)]) == 1


def test_runtime_error_exits_2(tmp_path, monkeypatch, capsys):
    # any exception a check raises is an error (exit 2), not a failed check
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl"))
    for exc in (RuntimeError("excessive degenerate-trajectory rate"),
                ZeroDivisionError("division by zero")):
        def raising_runner(exp, label, params, key):
            raise exc

        monkeypatch.setitem(C._RUNNERS, "special_flow", raising_runner)
        assert main(["run", "--config", str(cfg_path), "--check", "special_flow"]) == 2
        assert f"error: {exc}" in capsys.readouterr().err


def test_reversibility_pilot_without_usable_trajectory(monkeypatch):
    # every trajectory the lockstep kernel runs, the 32 pilot ones
    # included, is degenerate
    monkeypatch.setattr(dyn, "_lockstep", marking_kernel(dyn._lockstep, lambda x: True))
    with pytest.raises(RuntimeError, match=r"reversibility.*n=2"):
        C.run_check(small_exp(), "reversibility", params={"trajectories": 4, "n_list": [2]})


def test_checks_reach_the_flow_only_through_evolve_batch(monkeypatch):
    # every trajectory a check runs, reversibility's and the redrawn
    # degenerate rows' included, is flowed by evolve_batch on the lockstep
    # kernel: the scalar engine is never called.  A fixed subset of starts
    # is degenerate, so forward runs redraw rows
    forced = lambda x: int(abs(float(x)) * 1e4) % 97 == 0
    flows, callers = [], []
    flow, kernel = dyn._flow, marking_kernel(dyn._lockstep, forced)
    monkeypatch.setattr(dyn, "_flow", lambda *args: flows.append(args) or flow(*args))
    monkeypatch.setattr(dyn, "_lockstep", lambda *args: callers.append(
        sys._getframe(1).f_code.co_name) or kernel(*args))
    exp = small_exp()
    exp.checks += [("reversibility", "", {"trajectories": 60, "n_list": [2, 3]}),
                   ("prop1_decomposition", "", {"samples": 400, "t": 4.0, "deltas": ["bulk"]})]
    reports = C.run_all(exp)
    assert {r.check for r in reports} >= {"reversibility", "lemma2_rate",
                                          "prop1_decomposition", "series_identity"}
    assert all(r.degenerate_rate > 0 for r in reports if r.check == "lemma2_rate")
    assert flows == [] and callers and set(callers) == {"evolve_batch"}


def test_conservation_certifies_the_engines_pair_law(monkeypatch):
    # conservation applies the pair exchange the lockstep kernel applies,
    # so a non-conserving exchange in its place fails pair_momentum
    assert C.pair_exchange is dyn.pair_exchange
    params = {"samples": 4000}
    assert all(r.passed for r in C.run_check(small_exp(), "conservation", params=params))

    def leaky(o, p_i, p_j):
        new_i, new_j = dyn.pair_exchange(o, p_i, p_j)
        return new_i, tuple(1.001 * c for c in new_j)

    monkeypatch.setattr(C, "pair_exchange", leaky)
    failed = {r.case for r in C.run_check(small_exp(), "conservation", params=params)
              if not r.passed}
    assert "pair_momentum" in failed


def test_series_identity_passes_direction_draws():
    # the draws of every series chunk among the estimators the runner yields
    seen = []
    for extra in ({"direction_draws": 3}, {}):
        params = check_params("series_identity", {"samples": 10, "deltas": ["bulk"], **extra})
        estimators = next(C._run_series_identity(small_exp(), "", params, 0))
        seen.append({c.draws for e in estimators if e.worker is C._w_series
                     for group in e.groups for c in group})
    assert seen == [{3}, {1}]


def test_forward_workers_run_once_per_chunk_for_all_boxes(monkeypatch):
    # a forward chunk's trajectories do not depend on the box, so a
    # three-delta prop1_decomposition runs each forward worker once per
    # chunk, with every box in it, not once per box
    calls = []
    for name in ("_w_empirical", "_w_prop1_forward"):
        def counting(c, real=getattr(C, name), name=name):
            calls.append((name, len(c.boxes)))
            return real(c)

        monkeypatch.setattr(C, name, counting)
    exp = small_exp()
    exp.chunk_size = 50
    reports = C.run_check(exp, "prop1_decomposition", params={"samples": 120, "t": 2.0})
    assert [r.case for r in reports] == ["bulk", "near_wall", "high_momentum"]
    assert sorted(calls) == [("_w_empirical", 3)] * 3 + [("_w_prop1_forward", 3)] * 3


def test_one_job_or_one_worker_opens_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was opened")

    monkeypatch.setattr(C, "ProcessPoolExecutor", no_pool)
    params = {"trajectories": 40, "rate_samples": 1000}
    exp = small_exp()
    exp.workers = 2
    C.run_check(exp, "lemma2_rate", params={**params, "n_list": [2]})     # one job
    exp.workers = 1
    C.run_check(exp, "lemma2_rate", params={**params, "n_list": [2, 3]})  # one worker


def test_run_all_maps_every_chunk_over_one_pool(monkeypatch):
    # the chunks of every check of a run go through one pool, and the
    # reports do not depend on it; the pool's workers have ended by the
    # time the last check with chunks finishes in this process
    opened = []
    real = C.ProcessPoolExecutor

    def counting(*args, **kwargs):
        opened.append(kwargs)
        return real(*args, **kwargs)

    children = []
    rate = C.pair_collision_rate
    monkeypatch.setattr(C, "ProcessPoolExecutor", counting)
    monkeypatch.setattr(C, "pair_collision_rate",
                        lambda *args: children.append(multiprocessing.active_children())
                        or rate(*args))
    exp = small_exp()
    exp.chunk_size = 20
    exp.checks = [("conservation", "", {"samples": 100}),
                  ("liouville", "", {"samples": 40, "t": 2.0}),
                  ("lemma2_rate", "", {"trajectories": 40, "rate_samples": 1000,
                                       "n_list": [2, 3]})]
    serial = [r.to_json_line() for r in C.run_all(exp)]
    assert opened == []
    exp.workers = 2
    assert [r.to_json_line() for r in C.run_all(exp)] == serial
    assert opened == [{"max_workers": 2}]
    assert children == [[]] * 4


def test_run_all_refuses_every_entry_before_any_runner_starts(monkeypatch):
    # the second entry is refused before the first one's runner starts
    ran = []
    real = C._RUNNERS["conservation"]
    monkeypatch.setitem(C._RUNNERS, "conservation", lambda *args: ran.append(args) or real(*args))
    monkeypatch.setattr(C, "_map_ordered", lambda *args: ran.append(args))
    exp = small_exp()
    exp.checks = [("conservation", "", {"samples": 100}), ("liouville", "", {"samples": 0})]
    assert exp.validate() == ["liouville: samples must be positive"]
    with pytest.raises(ValueError, match="^liouville: samples must be positive$"):
        C.run_all(exp)
    assert ran == []


def test_check_that_raises_cancels_the_other_checks_chunks(monkeypatch, tmp_path):
    # the first check raises in this process after its chunk is in, while
    # the twelve chunks of the second check run and wait in the pool: the
    # error reaches the caller after the few chunks the workers already
    # hold, and the pool's processes have ended by then
    real = C.evolve_sampled

    def slow(measure, *args, **kwargs):
        if measure.spec.n_particles == 3:
            tempfile.NamedTemporaryFile(dir=tmp_path, delete=False).close()
        time.sleep(0.2)
        return real(measure, *args, **kwargs)

    def failing(*args):
        raise RuntimeError("rate failed")

    monkeypatch.setattr(C, "evolve_sampled", slow)   # forked workers inherit it
    monkeypatch.setattr(C, "pair_collision_rate", failing)
    exp = small_exp()
    exp.workers = 2
    exp.chunk_size = 1
    params = {"trajectories": 12, "t": 1.0, "rate_samples": 1000}
    exp.checks = [("lemma2_rate", "a", {**params, "trajectories": 1, "n_list": [2]}),
                  ("lemma2_rate", "b", {**params, "n_list": [3]})]
    try:
        C.run_all(exp)
    except RuntimeError as exc:
        assert str(exc) == "rate failed"
        assert multiprocessing.active_children() == []
    else:
        raise AssertionError("the failed check did not end the run")
    assert 1 <= len(list(tmp_path.iterdir())) < 12


def test_error_in_pooled_chunk_exits_2(tmp_path, monkeypatch, capsys):
    # every trajectory is degenerate (the forked pool workers inherit the
    # patched kernel), so each forward chunk passes its resample cap inside
    # a worker; the error must end the run with exit 2, not come back as a
    # failed check
    pooled = []
    map_ordered = C._map_ordered

    def spy(fn, payloads, workers):
        pooled.append(workers > 1 and len(payloads) > 1)
        return map_ordered(fn, payloads, workers)

    monkeypatch.setattr(dyn, "_lockstep", marking_kernel(dyn._lockstep, lambda x: True))
    monkeypatch.setattr(C, "_map_ordered", spy)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(SMALL_INI.format(out=tmp_path / "r.jsonl")
                        .replace("workers = 1", "workers = 2")
                        .replace("chunk_size = 5000", "chunk_size = 40")
                        + "\n[check.liouville]\nsamples = 80\nt = 4.0\n")
    assert main(["run", "--config", str(cfg_path), "--check", "liouville"]) == 2
    assert "error: excessive degenerate-trajectory rate" in capsys.readouterr().err
    assert pooled == [True]


def test_checks_normalize_only_what_they_read(normalizations):
    # reversibility and liouville only sample; lemma2_rate reads each
    # N's partition function in its collision rate
    exp = small_exp()
    exp.chunk_size = 40
    C.run_check(exp, "reversibility", params={"trajectories": 20, "n_list": [2, 3]})
    C.run_check(exp, "liouville", params={"samples": 80, "t": 2.0})
    assert normalizations == []
    C.run_check(exp, "lemma2_rate", params={"trajectories": 80, "rate_samples": 1000,
                                            "n_list": [2, 3]})
    assert normalizations == [2, 3]


ALL_CHECKS_INI = """
[experiment]
schema_version = 1
seed = 5150
workers = 2
norm_proposals = 20000
chunk_size = 100

[domain]
box = [0, 0, 0, 5, 5, 5]
a = 1.0

[density]
variant = "modulated"
n = 2
beta = 1.0

[check.conservation]
samples = 400

[check.reversibility]
trajectories = 20
n_list = [2, 3]

[check.special_flow]
resolution = 256

[check.lemma2_rate]
trajectories = 200
t = 4.0
rate_samples = 20000

[check.liouville]
samples = 200
t = 4.0

[check.prop1_decomposition]
samples = 200
t = 4.0
inner_samples = 16
deltas = ["bulk"]

[check.prop5_onestep]
samples = 200
t = 4.0
inner_samples = 16

[check.series_identity]
samples = 200
t = 4.0
inner_samples = 16
deltas = ["bulk"]

[check.grand_canonical_identity]
samples = 200
inner_samples = 16

[check.map_roundtrip]
inner_samples = 16
outer_samples = 16
points = 2
"""


def test_no_pool_worker_normalizes(normalizations, monkeypatch):
    # every measure a worker reads the partition function of is
    # normalized in this process before the pool forks
    parent = os.getpid()
    counted = InitialMeasure._position_integral

    def here_only(self, *args):
        if os.getpid() != parent:
            raise AssertionError("a pool worker normalized a measure")
        return counted(self, *args)

    monkeypatch.setattr(InitialMeasure, "_position_integral", here_only)
    exp = loads_config(ALL_CHECKS_INI)
    reports = C.run_all(exp)
    assert sorted({r.check for r in reports}) == sorted(CHECK_IDS)
    assert all(r.passed for r in reports)
    assert normalizations
    # each check alone, so that no other check's setup has normalized
    # its measure before the fork
    for cid in CHECK_IDS:
        get_measure.cache_clear()
        assert all(r.passed for r in C.run_all(exp, only=[cid]))


def _assert_digest(ini, sha256, out):
    # the bytes must not depend on the worker count: each digest is
    # checked in one process and with a pool of two
    exp = loads_config(ini)
    for workers in (1, 2):
        exp.workers = workers
        C.write_report(C.run_all(exp), str(out))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256, f"workers={workers}"


GOLDEN_INI = """
[experiment]
schema_version = 1
seed = 20250810
workers = 1
norm_proposals = 100000
chunk_size = 1000

[domain]
box = [0, 0, 0, 5, 5, 5]
a = 1.0

[density]
variant = "modulated"
n = 3
beta = 1.0
g_choice = "cos_x"
g_amplitude = 0.5

[check.conservation]
samples = 4000

[check.lemma2_rate]
trajectories = 1500
t = 12.0
n_list = [2, 3]
rate_samples = 100000

[check.series_identity]
samples = 1500
t = 6.0
deltas = ["bulk"]
"""

# SHA-256 of the canonical report of GOLDEN_INI (numpy 2.4, x86-64
# Linux), recorded when the terminals' inner samples moved to their own
# spawned generator; the conservation and lemma2_rate lines are those of
# the scalar per-trajectory engine.  Any change to the arithmetic of the
# dynamics, the conservation check or the order of random draws shows up
# here as a different digest.
GOLDEN_SHA256 = "0d009a90d28a2a5f92afe3d1328bfbd4a170bf057f552ed39d535d41ae445049"


def test_golden_report_bytes(tmp_path):
    _assert_digest(GOLDEN_INI, GOLDEN_SHA256, tmp_path / "golden.jsonl")


GOLDEN_SERIES_INI = """
[experiment]
schema_version = 1
seed = 31415926
workers = 1
norm_proposals = 100000
chunk_size = 700

[domain]
box = [0, 0, 0, 5, 5, 5]
a = 1.0

[density]
variant = "modulated"
n = 3
beta = 1.0
g_choice = "cos_x"
g_amplitude = 0.5

[check.series_identity]
samples = 2000
t = 8.0
inner_samples = 64
deltas = ["bulk", "near_wall"]

[check.grand_canonical_identity]
samples = 1500
direction_draws = 24
"""

# SHA-256 of the canonical report of GOLDEN_SERIES_INI (numpy 2.4, x86-64
# Linux), recorded when the terminals' inner samples moved to their own
# spawned generator.  It covers the N = 3 strata m = 0, 1, 2 on two boxes
# and the grand-canonical micro-box with 24 direction draws, so any
# change to the history arithmetic, the correlation evaluation or the
# order of random draws in the series shows up as a different digest.
GOLDEN_SERIES_SHA256 = "9de0d26526f69765540cbf147ee3c89038fbc46cd2766368b4bd4812146cc133"


def test_golden_series_report_bytes(tmp_path):
    _assert_digest(GOLDEN_SERIES_INI, GOLDEN_SERIES_SHA256, tmp_path / "golden_series.jsonl")


GOLDEN_OTHER_INI = """
[experiment]
schema_version = 1
seed = 27182818
workers = 1
norm_proposals = 100000
chunk_size = 250

[domain]
box = [0, 0, 0, 5, 5, 5]
a = 1.0

[density]
variant = "modulated"
n = 3
beta = 1.0
g_choice = "cos_x"
g_amplitude = 0.5

[check.reversibility]
trajectories = 40
n_list = [2, 3]

[check.liouville]
samples = 900
t = 6.0
times = [3.0, 6.0]

[check.special_flow]
resolution = 256

[check.prop1_decomposition]
samples = 600
t = 6.0
deltas = ["bulk", "near_wall"]

[check.prop5_onestep]
samples = 600
t = 6.0
n = 2
deltas = [{"name": "pair", "q_lo": [[1.0, 1.5, 1.5], [2.5, 1.5, 1.5]], "q_hi": [[2.5, 3.5, 3.5], [4.0, 3.5, 3.5]], "p_lo": [[-1.2, -1.2, -1.2], [-1.2, -1.2, -1.2]], "p_hi": [[1.2, 1.2, 1.2], [1.2, 1.2, 1.2]]}]

[check.map_roundtrip]
z = 50.0
inner_samples = 64
outer_samples = 96
points = 3
"""

# SHA-256 of the canonical report of GOLDEN_OTHER_INI (numpy 2.4, x86-64
# Linux), recorded when prop5's collision term became the series' m = 1
# stratum and map_roundtrip's top level a deterministic identity.  It
# covers the checks the other two digests leave out, each over several
# chunks, so a change to their seeds, chunking, order of random draws or
# report fields shows up as a different digest.  Its
# prop5_onestep case runs at N = n + 1 on a two-particle box, the only
# particle number the check accepts.
GOLDEN_OTHER_SHA256 = "dd065549f8f06ceaf54c7a21be58c25391156215471b055585ea04383e159e43"


def test_golden_other_report_bytes(tmp_path):
    _assert_digest(GOLDEN_OTHER_INI, GOLDEN_OTHER_SHA256, tmp_path / "golden_other.jsonl")


GOLDEN_MULTIBOX_INI = """
[experiment]
schema_version = 1
seed = 16180339
workers = 1
norm_proposals = 100000
chunk_size = 5000

[domain]
box = [0, 0, 0, 5, 5, 5]
a = 1.0

[density]
variant = "modulated"
n = 2
beta = 1.0
g_choice = "cos_x"
g_amplitude = 0.5

[check.prop5_onestep]
samples = 6000
t = 6.0
inner_samples = 32
deltas = ["bulk", "high_momentum"]

[check.series_identity]
samples = 6000
t = 6.0
inner_samples = 32
deltas = ["bulk", "near_wall"]
"""

# SHA-256 of the canonical report of GOLDEN_MULTIBOX_INI (numpy 2.4,
# x86-64 Linux), recorded when prop5's collision term became the series'
# m = 1 stratum; its forward lines are those of one forward estimator per
# box.  Both checks have two boxes on one forward run, and the first forward
# chunk of 5000 trajectories crosses the 4096-row sampling batch, so a
# change to the per-box tallies or to the batch boundary shows up here.
GOLDEN_MULTIBOX_SHA256 = "6280805636c1b99ed0b389fff485c5dacac3f73018c10b4749d8f386c2fa8c28"


def test_golden_multibox_report_bytes(tmp_path):
    _assert_digest(GOLDEN_MULTIBOX_INI, GOLDEN_MULTIBOX_SHA256, tmp_path / "golden_multibox.jsonl")
