"""Byte-identity pins: what the command line prints, as sha256 digests.

Speed work must leave every report byte for byte as it was.  The digests
were taken from the command line's stdout before the group and orbit layers
moved integral values from `Fraction` to `int`; a change that alters any of
them changes a published report and needs a reason of its own.  The scenario
reports come from the session fixtures (the same strings the command line
writes), the other calls run `cli.main` in-process.
"""

import hashlib
import json

import pytest

from stratify.cli import main

SCENARIO_DIGESTS = {
    ("cubic3fold", "json"): "ca526b72bb9d983446c6f5c95a0255d89be8d791344ac52645f9355f92a1b286",
    ("cubic3fold", "latex"): "955dcb1c33343dac9c4afbcf95d77c0a87a905145ded7f4c4a1dca253b7f5103",
    ("cubic3fold", "text"): "d7f471436a79c892bba102a18d46d7305a5b550face0ce203bd092256687fca2",
    ("cubic3fold", "csv"): "fb41bf6286b81bac2c49b7fa281f840c5105559efe46cb54967b4b888f67289e",
    ("cubicsurf", "json"): "9e8dc27d171a1cf751b6527a63f707193a818eeee29b6193e212a5409d368b3e",
    ("cubicsurf", "latex"): "bdec3be9a73509b13a81174485930448a18a92265d9a5119232410e774a42362",
    ("cubicsurf", "text"): "1243e9958c8e584f0b3a19745e1252341f98191cdbe90e5b4b6dcbd326d39482",
    ("cubicsurf", "csv"): "7c687eb7e9548d30099b741273d15eb6095bb928701b2327f40ce91dd1dd8e0e",
    ("cubiccurve", "json"): "53a547450f78e854660aae3ae8b9c80a6841cd9c1201d28ed976e2fd0825ecf3",
    ("cubiccurve", "latex"): "a69e4117fc986e1f1ce1ce9323594842033cde9e732b5b5154cd26949b5e6ca0",
    ("cubiccurve", "text"): "5bc7b048c9b574a5fe31bdc8caee131974baf9276f60eea4a35cd9747ef6fec4",
    ("cubiccurve", "csv"): "a21097f658a845b3a805a28ba60e474c6175d7c1444899ec3895924bffd31443",
    ("binary12", "json"): "9b15dab83eb5274e2203a7f15313e84bda113001d24c39788ede083b0ddc8abf",
    ("binary12", "latex"): "b74972917191b03265c3e1b250d1fa87aa0abbf2a4c89d7c6738d0b7388bd003",
    ("binary12", "text"): "84e9cefcb907e4689e87e2b6c1de7118c7b1ec2bf0b9df2785354d2a7d58df8d",
    ("binary12", "csv"): "8d3b4e5cf9b8cba82d1ae868307f6b8ba5e374038ca98c1dc7ad10a5e33dd9e6",
}

# an integral rational group (S3 on its 2-dim representation), a rational
# one with non-integral entries and one over the Eisenstein integers
MOLIEN_GENS = {
    "s3": "[[[0,1],[1,0]],[[-1,1],[-1,0]]]",
    "rational": '[[[0,"-1/2"],[2,0]],[[-1,0],[0,1]]]',
    "eis": '{"ring":"E","generators":[[[[0,1],0,0],[0,[-1,-1],0],[0,0,1]],'
           '[[0,1,0],[0,0,1],[1,0,0]]]}',
}
MOLIEN_DIGESTS = {
    ("s3", 8): "087ba3c9d666fe295cae23504a5b3c1f1d9eb9f817b1253704552df89ed52552",
    ("s3", 12): "aae7561525f85785939d97212e6b9802858f1ed6262b633bb163f619d79232f1",
    ("rational", 8): "55ebf326e7870479c958a292359ba707238f91fd5bdd3a272b6ed9952bcb8ec1",
    ("rational", 12): "e6a2fe61f1ac7b245fef9d32764388532ff66fc44270eb0c6e852a63317534d1",
    ("eis", 8): "b3fcf6b4eb63b55c739d1bb68acf9df144961c9f5f363a12f24de9e7741ed193",
    ("eis", 12): "0edba758c5e33a4b558356e6a7e38a78b45f85980ac23f60ed621d44e773eef8",
}

BOUNDARY_DIGESTS = {
    1: "31dcd4fae24cfca6dc4ac1055f7e33503aeaf229258d042d5f4a51e768e40931",
    2: "ca28afed8874a90f128a07b60b65ccc528887ab22118f6263c501cae1985b1eb",
    3: "198d2aedf87dbbe94b89d9b79e3bb0b72d1616dc371cddacea696094c089e943",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_text(report, fmt: str) -> str:
    return {"json": report.to_json, "latex": report.to_latex, "csv": report.to_csv,
            "text": report.to_text}[fmt]()


@pytest.mark.parametrize("name, fmt", sorted(SCENARIO_DIGESTS))
def test_scenario_report_bytes(request, name, fmt):
    report = request.getfixturevalue(f"{name}_report")
    assert sha256(report_text(report, fmt)) == SCENARIO_DIGESTS[name, fmt]


def cli_stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("gens, order", sorted(MOLIEN_DIGESTS))
def test_molien_bytes(capsys, gens, order):
    out = cli_stdout(capsys, "molien", "--gens", MOLIEN_GENS[gens], "--truncate", str(order))
    assert sha256(out) == MOLIEN_DIGESTS[gens, order]


@pytest.mark.parametrize("count", sorted(BOUNDARY_DIGESTS))
def test_boundary_bytes(capsys, count):
    spec = json.dumps({"factors": [{"lattice": "E3", "count": count}]})
    assert sha256(cli_stdout(capsys, "boundary", spec)) == BOUNDARY_DIGESTS[count]


def _floats(value, path="$"):
    if isinstance(value, float):
        yield path
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _floats(v, f"{path}[{i}]")
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _floats(v, f"{path}.{k}")


@pytest.mark.parametrize("name", ["cubic3fold", "cubicsurf", "cubiccurve", "binary12"])
def test_no_float_in_scenario_reports(request, name):
    report = request.getfixturevalue(f"{name}_report")
    assert list(_floats(report.to_jsonable())) == []
    assert list(_floats(json.loads(report.to_json()))) == []
