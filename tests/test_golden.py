"""Golden digests of the JSON reports, and a byte-identical rerun of each.

``decompose --json --order=24`` runs every operator on the representatives
of ``scripts/show_class_decompositions.py``; its digests were taken before
the basis change and the extraction moved to integer kernels.  The moment
commands (``classify --max-moment=24``, ``characterize --max-moment=40`` and
``verify --suite=gramschmidt --degree=16``, the sizes the benchmark uses)
were pinned before the moment kernels moved to integers, and
``classify --max-moment=60`` before its oracles moved to integer pairs, and
``verify --suite=pmd --degree=48`` before ``decompose`` moved to one integer
pipeline.  The ``universal``, ``doublecomm`` and ``limit`` suites at degree 12
were pinned before the suites moved out of the CLI into ``meixnerops.suites``.
``characterize`` and ``classify`` at ``--max-moment=200`` and
``verify --suite=gramschmidt --degree=64`` were pinned before the moment
kernels moved to Pascal's rule and small divisors.  ``translation_form`` at
degree 48 was pinned while it still applied each form to every X^m.
"""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path
from random import Random

import pytest

from meixnerops.cli import OPS, main
from meixnerops.exact import rational_sqrt
from meixnerops.meixner import MeixnerParams, translation_form
from meixnerops.sampling import sample_params, sample_params_delta0

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "show_class_decompositions.py"
REPRESENTATIVES = runpy.run_path(str(SCRIPT))["REPRESENTATIVES"]

GOLDEN = {
    ("Gaussian", "U"): "952fc849d5a8bf39c9e7f3dd8f558d58e705467129ee28aa1b18b85ed90bb72f",
    ("Gaussian", "V"): "411897c5e64b908b92c56844b07588b748dfa99cf4da4799903acf6e46186971",
    ("Gaussian", "N"): "7b060c8a0172da0165eb856eb9c4da4fcd082c52d63372a6621029597ff3d97e",
    ("Gaussian", "a0"): "ef3f34a369fb7be3442c7a7790d1d334d6d529a11821678392fddb249b7fcb23",
    ("Gaussian", "a-"): "ed861ecc2087bb49c3a1275722719b84d740c069eb6e6393506197d122366132",
    ("Gaussian", "a+"): "5caba4a2c00b5d050d8f0c8cd9ebde33daa9fffe766abb4463902e7f8e9acb2f",
    ("Poisson", "U"): "83a488feb8e980ed470bbe4c9a7a7f59326a62332e643009ceebf4aa95920192",
    ("Poisson", "V"): "91db8ce29c45bf1d08130c1c07debd0429ad13a5a45e5de503e37d6173479c21",
    ("Poisson", "N"): "69154e866e6cbd8778b59ff45658e4705c15ec83f2cfc0afed6d32a1ef70a5c4",
    ("Poisson", "a0"): "9512f777ff98651aadc570d0e6eb6ba58e2256aa121d684fdff03ba83880f619",
    ("Poisson", "a-"): "e5e3dba2a5db70fcbcc1b1fdd6a2ab5dafff456aafca3873c4714dcd0183a43a",
    ("Poisson", "a+"): "d97ec5d4d2ad8b57c0918adc1ba5dfc3b0134e6f045423b978a4e4c9cb7b720e",
    ("Pascal", "U"): "9a009557c2ef3d49d87a516c73047aa02049eaf8dd7ca4a6ad59f63d97fb272b",
    ("Pascal", "V"): "9629b2189b8cd3ea374f35f7ce1c29052cfc99ae90fadd4c00d892f79edec3b4",
    ("Pascal", "N"): "31c27e97fa8129de3c90f60d6d0f0e3c63aa8bbeee1b26943b266b0814895477",
    ("Pascal", "a0"): "3ed2644798d7a1f8054b9b3f87fe64577255701efbfccc79cf5ce7539f79f7b4",
    ("Pascal", "a-"): "8d599b8e625d7993e284c360d7f3444fad3bb21ce5462b82bca21f882fd8ac16",
    ("Pascal", "a+"): "651e8270071d124939cbf6f4182b156f403b4b28620b0001c2d796ed859093c6",
    ("Gamma", "U"): "edf4265b32137c208e36e51f5367b2c9eddc48c466caf0da7b00f7f8e54a5111",
    ("Gamma", "V"): "02ff122fb5439afa1603fc6480111a43d92f382ae1fd3da8408c7932f64b242f",
    ("Gamma", "N"): "163a70ea37a0bb8f9c4403c17d2467fea0be2a6a6e24646a677a6d750360380c",
    ("Gamma", "a0"): "9352f4d947d3200047e077cdde3b5e9b61bcc5d388ed4c2a3bfcb398f499eb67",
    ("Gamma", "a-"): "e82242c13033d43ae60250f16429386a6c2de20f42f380545b75bfca9b1ac98a",
    ("Gamma", "a+"): "a914bd88677bafd70467fdf1b59ceeea6bca12f86c43c68347fc13a4ce2fd938",
    ("hyperbolic secant", "U"): "7cd5d60adfb32110959ec11cd2b852414757b1867885d74adf86494b1c893456",
    ("hyperbolic secant", "V"): "79932bc52c9e1cbdb70f9bd2630c962aa43dd737c71c6da4f189f6484b9b4f90",
    ("hyperbolic secant", "N"): "56ad84e02092effa1a0036fe61e472014975e531d587847aac7b73483b690c04",
    ("hyperbolic secant", "a0"): "8afe0b15bd1f7054cd47e48b7c426c5ff4c6faf9a2936e7785c5ebc23941a3ae",
    ("hyperbolic secant", "a-"): "8a2056707f69f83f0567e156fff48a28e181ed6f7eafcdf8c1e8d83bb395e66e",
    ("hyperbolic secant", "a+"): "b46b034ae18807c2207c3efcfff1121cc254e6947a5089125b5c03fe2c30e0ca",
    ("Binomial", "U"): "697be259311dd83f11279c3cefe3929cae6ea44451b7fe76bbb3219d88b124b8",
    ("Binomial", "V"): "08dc3aa510154cd4d4d7a92cb0d6f1ce964cdefc1527ce9c475b3136a9332e37",
    ("Binomial", "N"): "32b7b39d7cdfb24b6e29610bd27eb0ee14bdfe07496ad189377e600b1f7fd170",
    ("Binomial", "a0"): "babb78762aad1f944eff0d90e9dee8e257fc6fcd4bdffe73030930f5b5cacf1c",
    ("Binomial", "a-"): "8217e8857f60ba1d5a63f303b2fb287da5a0401f0798a7386a4f70c525e77854",
    ("Binomial", "a+"): "fd353dec52e835d4847bf8ffb75ca3308d96c64259575e8da39c6ea3b5fd0056",
}


def _json_run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _decompose_json(p, op: str) -> tuple[int, str]:
    return _json_run([
        "decompose", f"--alpha={p.alpha}", f"--alpha0={p.alpha0}", f"--beta={p.beta}",
        f"--t={p.t}", f"--op={op}", "--order=24", "--json",
    ])


def test_golden_covers_every_class_and_operator():
    assert set(GOLDEN) == {(label, op) for label, _ in REPRESENTATIVES for op in OPS}


@pytest.mark.parametrize("label,p", REPRESENTATIVES, ids=[label for label, _ in REPRESENTATIVES])
def test_decompose_json_golden_and_deterministic(label, p):
    for op in OPS:
        code, out = _decompose_json(p, op)
        assert code == 0, (label, op)
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(label, op)], (label, op)
        assert _decompose_json(p, op) == (code, out), (label, op)


# (alpha, alpha0, beta, t); Pascal with a rational and an irrational sqrt(Delta),
# Binomial with Delta = 4 and with Delta = 7/3 (surds that must cancel).
CLASSIFY_GOLDEN = {
    ("0", "1/2", "0", "3/2"): "943ad7bde4a7002eb0bbf2570fd832a1463f1ee0329ec4d40ff3c140644e47e0",
    ("1", "1", "0", "1"): "ea49481068e87a7d7fa6ea510dea9a8a7570281801b1e17103943ec8f25e0277",
    ("3", "0", "2", "2"): "2f277a6af061941e6a1b4d7dda63a58616915afe638116bee3acb7270a519952",
    ("2", "1/3", "1/2", "5/4"): "4a7f9facc15724e8b1ecd9cbe1764944494bc21eee2904f81dbf111ab1637189",
    ("2", "1", "1", "1"): "8cc27bb8ab1e19ffcb5d78da5fddba65f5e2f4eaf7f168735b70087cea31c21f",
    ("0", "0", "1", "1"): "627bd4135ef10224b9af811bebcf392245227e048a9a8a7497c3c6f2372ca194",
    ("0", "0", "-1", "2"): "2a9938614009ea0c6bc25ceef20e555a12b183081ed084fe1726951a962c526c",
    ("1", "-1/2", "-1/3", "2"): "42890dfebea77e95c04b69504b2e0daf57309af4c4995afa4a2ce5e3b226b4dd",
}

# At --max-moment=60 the integers run far past the benchmark's m = 24: a Binomial
# law on 201 points and one on 2 points, both with an irrational sqrt(Delta),
# Poisson, Gamma, Pascal with a rational sqrt(Delta) = 3/2, and Gaussian.
CLASSIFY_GOLDEN_60 = {
    ("1", "1/3", "-1/200", "1"): "6a47ea72fef330c7024d3d36b3b2169d70fce95ed78d1e2d30912a7553d14c2c",
    ("1", "1/3", "-1", "1"): "1ba2f6d22342ef6ae348f6effab4de8548589b7ce75cb66b76cabbd3906af6cb",
    ("2/3", "1/5", "0", "3/7"): "7e71e0a5f1b8830baa2592a7537299cbff68a227853ab01a04bf5a1b294fbe69",
    ("1", "-1/2", "1/4", "3/2"): "3f271028a23e776328bf4e1803848b68d8dae58bd2e51bb5b9a2bbde60af0105",
    ("5/2", "1/7", "1", "2/3"): "d1b0fa5aaf576cc61b71d9342a895291bfc03f1afc85d61f34b8d080beb8c5d9",
    ("0", "-2/3", "0", "5/3"): "2c81c4b9dd04bf7508c5c19283731323acc89fd48a90e483f745b4e2dd3b0ccd",
}

# Mixed denominators, a zero-shift term in three of them, none in two.
CHARACTERIZE_GOLDEN = {
    "1:1,-1:0": "52ea2db482f0bbc153912e515a19366186fbb52e2581ec6cd2cae0e9e9bbf869",
    "1:1,-1:-1": "cb40028d3177ae65b178911e2bbe635d83424e584f04f9f81734bb9762c95b60",
    "3/2:1/2,-1/3:-2/3,-7/6:0": "cddbbedd11eb2e67b24279fde31197c2798452d7671f545c992187e7e2b805dc",
    "5/4:5/2,-3/4:-3/4,-1/2:0": "9b5662fde79aaf19ddcf530153a018931e790b08e679764ab89b8c841b288f87",
    "2:3/2,-2:-5/3": "0dc6e9b71224a065aac07aa078caa37ac068f454378ca97295c4b7a4260358f8",
}

# Seed 2 draws a Binomial law on 6 points, so the finite-support branch runs.
GRAMSCHMIDT_GOLDEN = {
    1: "5bb574bd770bc1150d326f6c933296098ecd7148864ac773aab6b27cb34827a8",
    2: "3a0fd019eaa3a41da15032493021fd44823754e6fc0d29566c327ce7be3104bb",
}


def _assert_golden(argv: list[str], digest: str) -> None:
    code, out = _json_run(argv)
    assert code == 0, argv
    assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    assert _json_run(argv) == (code, out), argv


@pytest.mark.parametrize("params", list(CLASSIFY_GOLDEN), ids="/".join)
def test_classify_json_golden_and_deterministic(params):
    flags = [f"--{k}={v}" for k, v in zip(("alpha", "alpha0", "beta", "t"), params)]
    _assert_golden(["classify", *flags, "--max-moment=24", "--json"], CLASSIFY_GOLDEN[params])


@pytest.mark.parametrize("params", list(CLASSIFY_GOLDEN_60), ids="/".join)
def test_classify_json_golden_at_60_moments(params):
    flags = [f"--{k}={v}" for k, v in zip(("alpha", "alpha0", "beta", "t"), params)]
    _assert_golden(["classify", *flags, "--max-moment=60", "--json"], CLASSIFY_GOLDEN_60[params])


@pytest.mark.parametrize("combo", list(CHARACTERIZE_GOLDEN))
def test_characterize_json_golden_and_deterministic(combo):
    argv = ["characterize", f"--combo={combo}", "--max-moment=40", "--json"]
    _assert_golden(argv, CHARACTERIZE_GOLDEN[combo])


@pytest.mark.parametrize("seed", list(GRAMSCHMIDT_GOLDEN))
def test_gramschmidt_json_golden_and_deterministic(seed):
    argv = [
        "verify", "--suite=gramschmidt", "--degree=16", "--trials=3", f"--seed={seed}", "--json",
    ]
    _assert_golden(argv, GRAMSCHMIDT_GOLDEN[seed])


# Taken before ``decompose`` moved to one integer pipeline: six operators on a
# Poisson and a Gamma draw at degree 48, each extracted at truncation 51.
PMD_SUITE_GOLDEN = "4bbeb18b95ccc3bb3958ac478eaf9edb531d88412677ebadb53a90c15cb4124f"


def test_pmd_suite_json_golden_and_deterministic():
    argv = ["verify", "--suite=pmd", "--degree=48", "--trials=2", "--seed=1", "--json"]
    _assert_golden(argv, PMD_SUITE_GOLDEN)


# Taken before the suite runners moved into ``meixnerops.suites``.
SUITE_GOLDEN = {
    "universal": "017686ce4adf7dc817ec45ce5d4fd96df6c230e2d564d8b4495f0521e03d6d7c",
    "doublecomm": "cad688fe323462dc74aaf851e90150aef6fd0b59fc73b04396a43357051ed109",
    "limit": "3cc24ca3e994f3c1ce1d2a63fe31586a556739775586f521ea49562a045b0503",
}


@pytest.mark.parametrize("suite", list(SUITE_GOLDEN))
def test_suite_json_golden_and_deterministic(suite):
    argv = ["verify", f"--suite={suite}", "--degree=12", "--trials=3", "--seed=1", "--json"]
    _assert_golden(argv, SUITE_GOLDEN[suite])


# Taken before the moment kernels moved to Pascal's rule and small divisors.
# characterize: a zero-shift pair, three terms with mixed denominators and a
# zero shift, two nonzero shifts.
CHARACTERIZE_GOLDEN_200 = {
    "1:1,-1:0": "93a717f9b0e025447963f7539161f34bf3e6d8cad6efdd0dfaccf8ac303af16c",
    "3/2:1/2,-1/3:-2/3,-7/6:0": "352140d220f648794b506a4e00877fa16c4179326338519547a8f0a8fe669a3d",
    "2:3/2,-2:-5/3": "a85d0dde0adb0c0708a8fb8c6968b25bcd416d11b0f5b5362f3f23194a7a2103",
}
# classify: a Binomial law on 7 points with Delta = 7/3, so p is irrational; a
# Pascal law with sqrt(Delta) = 3/2; a Gamma law.
CLASSIFY_GOLDEN_200 = {
    ("1", "-1/2", "-1/3", "2"): "bbbf0e7a1c2982b429c2a251eae7e80c7913f1da58444d85101dc360cbfa592f",
    ("5/2", "1/7", "1", "2/3"): "b922cac8d1343b02948bf10f086e609be28277429f1de263c4909f0a5e2a75f9",
    ("1", "-1/2", "1/4", "3/2"): "8495e8a828160ea737bea64de570eb6b432063ab3fd12680cb0849ac554f2a1c",
}
GRAMSCHMIDT_GOLDEN_64 = "bcaa0cf5a0ff85fe14e160e2e772bc6f3f84fb0bfb5ccfa2373dd1ac5e534b00"


@pytest.mark.parametrize("combo", list(CHARACTERIZE_GOLDEN_200))
def test_characterize_json_golden_at_200_moments(combo):
    argv = ["characterize", f"--combo={combo}", "--max-moment=200", "--json"]
    _assert_golden(argv, CHARACTERIZE_GOLDEN_200[combo])


@pytest.mark.parametrize("params", list(CLASSIFY_GOLDEN_200), ids="/".join)
def test_classify_json_golden_at_200_moments(params):
    flags = [f"--{k}={v}" for k, v in zip(("alpha", "alpha0", "beta", "t"), params)]
    _assert_golden(["classify", *flags, "--max-moment=200", "--json"], CLASSIFY_GOLDEN_200[params])


def test_gramschmidt_json_golden_at_degree_64():
    argv = [
        "verify", "--suite=gramschmidt", "--degree=64", "--trials=3", "--seed=1", "--json",
    ]
    _assert_golden(argv, GRAMSCHMIDT_GOLDEN_64)


# ``translation_form(p, 48).to_json_dict()``, dumped with sorted keys: the first
# five Delta > 0 draws of ``sample_params(Random(1))`` (all with a rational
# sqrt(Delta)), its first draw with an irrational one, and the first two draws
# of ``sample_params_delta0(Random(1))``.
TRANSLATION_GOLDEN = {
    ("2/3", "-8/5", "0", "2"): "64460f258eab385b1483052e63c2d3de1854e87d06b4c4f7a0687cc1d3159f53",
    ("4/5", "-2", "0", "2"): "d01c5a3e80bc6fcc24773093dc1754ed42788f43ddb562a4fcd05027b689a858",
    ("11/4", "0", "0", "3/2"): "10dd169e87fbe55da09202c672f9eed79bd05eac2ae9cfa532e2458ab8c0ef66",
    ("1", "-3/5", "0", "3"): "8ee5fb06089b976b03f6359cf4187d18f1551e5862b042105e58144b78200351",
    ("1/3", "2", "0", "1/2"): "294924615934d7530b320c11fbae10123249cef5480197d9ac2ccd79de263989",
    ("7/6", "0", "49/576", "1/2"): "64e3bee7be4bfd5a3e4de105c18ef0028c6192c4407cde8219bc721746cb4f46",
    ("2", "0", "1", "2"): "dd5c63f2f473589a98bf1cb56d37a60259cbe94b2ae35c59a63d51722e77d8da",
    ("7/4", "0", "49/64", "1/2"): "a821ab8698d1031df8b25d68577da0d464460e48063b5af1201b49db5c23ed36",
}


def _fields(p: MeixnerParams) -> tuple[str, ...]:
    return tuple(str(v) for v in (p.alpha, p.alpha0, p.beta, p.t))


def test_translation_golden_holds_the_sampled_draws():
    rng = Random(1)
    positive = [p for p in (sample_params(rng) for _ in range(26)) if p.delta > 0]
    irrational = [p for p in positive if rational_sqrt(p.delta) is None]
    rng = Random(1)
    flat = [sample_params_delta0(rng) for _ in range(2)]
    draws = positive[:5] + irrational[:1] + flat
    assert [_fields(p) for p in draws] == list(TRANSLATION_GOLDEN)


@pytest.mark.parametrize("params", list(TRANSLATION_GOLDEN), ids="/".join)
def test_translation_form_json_golden_at_degree_48(params):
    p = MeixnerParams.from_strings(*params)
    out = json.dumps(translation_form(p, 48).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSLATION_GOLDEN[params]
    assert json.dumps(translation_form(p, 48).to_json_dict(), sort_keys=True) == out
