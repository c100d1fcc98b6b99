"""`verify` against its frozen output.

FROZEN_CSV holds the CSV that `verify` wrote, per grid resolution, before
the oracle's grid search and relaxation probes became array programs. The
probe seed only decides which random points the relaxation check tries,
so seeds 0, 1 and 123 share one CSV at resolution 1e-3. The array routes
must reproduce every byte: same grid optima, same verdicts.
"""

import pytest

from quantstab.cli import main

FROZEN_STDOUT = "verify: 59/59 checks passed\n"

FROZEN_CSV = {
    "1e-3": """\
case,closed_form,oracle,abs_diff,pass
boundary_synthesis lam=2.0 eps=0.2 N=2,1.1,1.1,4.4408920985e-16,1
boundary_synthesis lam=2.0 eps=0.2 N=3,0.78064516129,0.78064526,9.8709677876e-08,1
boundary_synthesis lam=2.0 eps=0.2 N=4,0.605,0.605,3.33066907388e-16,1
boundary_synthesis lam=2.0 eps=0.2 N=5,0.51094049904,0.51094062,1.20959692929e-07,1
equalization_optimal lam=2.0 eps=0.2,1,1,0,1
equalization_uniform lam=2.0 eps=0.2,0,0,0,1
boundary_synthesis lam=2.0 eps=0.35 N=2,1.175,1.175,4.4408920985e-16,1
boundary_synthesis lam=2.0 eps=0.35 N=3,0.86968503937,0.869685155,1.15629921749e-07,1
boundary_synthesis lam=2.0 eps=0.35 N=4,0.6903125,0.6903125,4.4408920985e-16,1
boundary_synthesis lam=2.0 eps=0.35 N=5,0.602991055872,0.6029912,1.44128238122e-07,1
equalization_optimal lam=2.0 eps=0.35,1,1,0,1
equalization_uniform lam=2.0 eps=0.35,0,0,0,1
boundary_synthesis lam=2.0 eps=0.5 N=2,1.25,1.25,0,1
boundary_synthesis lam=2.0 eps=0.5 N=3,0.961538461538,0.9615385,3.84615385096e-08,1
boundary_synthesis lam=2.0 eps=0.5 N=4,0.78125,0.78125,0,1
boundary_synthesis lam=2.0 eps=0.5 N=5,0.702247191011,0.70224725,5.89887640956e-08,1
equalization_optimal lam=2.0 eps=0.5,1,1,0,1
equalization_uniform lam=2.0 eps=0.5,0,0,0,1
boundary_synthesis lam=2.5 eps=0.2 N=2,1.35,1.35,8.881784197e-16,1
boundary_synthesis lam=2.5 eps=0.2 N=3,0.946753246753,0.94675338,1.33246753298e-07,1
boundary_synthesis lam=2.5 eps=0.2 N=4,0.729,0.729,3.33066907388e-16,1
boundary_synthesis lam=2.5 eps=0.2 N=5,0.609569526169,0.60956965,1.2383090775e-07,1
equalization_optimal lam=2.5 eps=0.2,1,1,0,1
equalization_uniform lam=2.5 eps=0.2,0,0,0,1
boundary_synthesis lam=2.5 eps=0.35 N=2,1.425,1.425,6.66133814775e-16,1
boundary_synthesis lam=2.5 eps=0.35 N=3,1.0347133758,1.03471351,1.34203822055e-07,1
boundary_synthesis lam=2.5 eps=0.35 N=4,0.81225,0.81225,3.33066907388e-16,1
boundary_synthesis lam=2.5 eps=0.35 N=5,0.69889425617,0.69889431,5.38297235675e-08,1
equalization_optimal lam=2.5 eps=0.35,1,1,0,1
equalization_uniform lam=2.5 eps=0.35,0,0,0,1
boundary_synthesis lam=2.5 eps=0.5 N=2,1.5,1.5,2.22044604925e-16,1
boundary_synthesis lam=2.5 eps=0.5 N=3,1.125,1.125,0,1
boundary_synthesis lam=2.5 eps=0.5 N=4,0.9,0.9,1.11022302463e-16,1
boundary_synthesis lam=2.5 eps=0.5 N=5,0.794117647059,0.7941178,1.5294117639e-07,1
equalization_optimal lam=2.5 eps=0.5,1,1,0,1
equalization_uniform lam=2.5 eps=0.5,0,0,0,1
boundary_synthesis lam=3.0 eps=0.2 N=2,1.6,1.6,1.33226762955e-15,1
boundary_synthesis lam=3.0 eps=0.2 N=3,1.11304347826,1.1130436,1.21739131886e-07,1
boundary_synthesis lam=3.0 eps=0.2 N=4,0.853333333333,0.85333344,1.06666667499e-07,1
boundary_synthesis lam=3.0 eps=0.2 N=5,0.708650519031,0.70865064,1.20968858708e-07,1
equalization_optimal lam=3.0 eps=0.2,1,1,0,1
equalization_uniform lam=3.0 eps=0.2,0,0,0,1
boundary_synthesis lam=3.0 eps=0.35 N=2,1.675,1.675,4.4408920985e-16,1
boundary_synthesis lam=3.0 eps=0.35 N=3,1.20026737968,1.20026748,1.00320856067e-07,1
boundary_synthesis lam=3.0 eps=0.35 N=4,0.935208333333,0.935208445,1.11666667024e-07,1
boundary_synthesis lam=3.0 eps=0.35 N=5,0.796132669808,0.7961328,1.30192175707e-07,1
equalization_optimal lam=3.0 eps=0.35,1,1,0,1
equalization_uniform lam=3.0 eps=0.35,0,0,0,1
boundary_synthesis lam=3.0 eps=0.5 N=2,1.75,1.75,0,1
boundary_synthesis lam=3.0 eps=0.5 N=3,1.28947368421,1.28947375,6.57894736467e-08,1
boundary_synthesis lam=3.0 eps=0.5 N=4,1.02083333333,1.02083345,1.16666666772e-07,1
boundary_synthesis lam=3.0 eps=0.5 N=5,0.888601036269,0.8886011,6.37305699325e-08,1
equalization_optimal lam=3.0 eps=0.5,1,1,0,1
equalization_uniform lam=3.0 eps=0.5,0,0,0,1
relaxation_kkt lam=3.0 eps=0.35 m=2,1,1,0,1
relaxation_kkt lam=3.0 eps=0.35 m=3,1,1,0,1
relaxation_kkt lam=3.0 eps=0.35 m=5,1,1,0,1
encode_decode N=8 eps=0.5,1,1,0,1
encode_decode N=7 eps=0.0,1,1,0,1
""",
    "5e-3": """\
case,closed_form,oracle,abs_diff,pass
boundary_synthesis lam=2.0 eps=0.2 N=2,1.1,1.1,4.4408920985e-16,1
boundary_synthesis lam=2.0 eps=0.2 N=3,0.78064516129,0.7806458,6.38709677925e-07,1
boundary_synthesis lam=2.0 eps=0.2 N=4,0.605,0.605,3.33066907388e-16,1
boundary_synthesis lam=2.0 eps=0.2 N=5,0.51094049904,0.510941,5.00959693062e-07,1
equalization_optimal lam=2.0 eps=0.2,1,1,0,1
equalization_uniform lam=2.0 eps=0.2,0,0,0,1
boundary_synthesis lam=2.0 eps=0.35 N=2,1.175,1.175,4.4408920985e-16,1
boundary_synthesis lam=2.0 eps=0.35 N=3,0.86968503937,0.86968565,6.10629921738e-07,1
boundary_synthesis lam=2.0 eps=0.35 N=4,0.6903125,0.6903125,4.4408920985e-16,1
boundary_synthesis lam=2.0 eps=0.35 N=5,0.602991055872,0.6029912,1.44128238233e-07,1
equalization_optimal lam=2.0 eps=0.35,1,1,0,1
equalization_uniform lam=2.0 eps=0.35,0,0,0,1
boundary_synthesis lam=2.0 eps=0.5 N=2,1.25,1.25,0,1
boundary_synthesis lam=2.0 eps=0.5 N=3,0.961538461538,0.96153875,2.88461538545e-07,1
boundary_synthesis lam=2.0 eps=0.5 N=4,0.78125,0.78125,0,1
boundary_synthesis lam=2.0 eps=0.5 N=5,0.702247191011,0.7022475,3.08988764242e-07,1
equalization_optimal lam=2.0 eps=0.5,1,1,0,1
equalization_uniform lam=2.0 eps=0.5,0,0,0,1
boundary_synthesis lam=2.5 eps=0.2 N=2,1.35,1.35,8.881784197e-16,1
boundary_synthesis lam=2.5 eps=0.2 N=3,0.946753246753,0.94675365,4.03246753211e-07,1
boundary_synthesis lam=2.5 eps=0.2 N=4,0.729,0.729,3.33066907388e-16,1
boundary_synthesis lam=2.5 eps=0.2 N=5,0.609569526169,0.6095702,6.73830907738e-07,1
equalization_optimal lam=2.5 eps=0.2,1,1,0,1
equalization_uniform lam=2.5 eps=0.2,0,0,0,1
boundary_synthesis lam=2.5 eps=0.35 N=2,1.425,1.425,6.66133814775e-16,1
boundary_synthesis lam=2.5 eps=0.35 N=3,1.0347133758,1.034713725,3.49203822081e-07,1
boundary_synthesis lam=2.5 eps=0.35 N=4,0.81225,0.81225,3.33066907388e-16,1
boundary_synthesis lam=2.5 eps=0.35 N=5,0.69889425617,0.698894475,2.18829723453e-07,1
equalization_optimal lam=2.5 eps=0.35,1,1,0,1
equalization_uniform lam=2.5 eps=0.35,0,0,0,1
boundary_synthesis lam=2.5 eps=0.5 N=2,1.5,1.5,2.22044604925e-16,1
boundary_synthesis lam=2.5 eps=0.5 N=3,1.125,1.125,0,1
boundary_synthesis lam=2.5 eps=0.5 N=4,0.9,0.9,1.11022302463e-16,1
boundary_synthesis lam=2.5 eps=0.5 N=5,0.794117647059,0.794118,3.52941176618e-07,1
equalization_optimal lam=2.5 eps=0.5,1,1,0,1
equalization_uniform lam=2.5 eps=0.5,0,0,0,1
boundary_synthesis lam=3.0 eps=0.2 N=2,1.6,1.6,1.33226762955e-15,1
boundary_synthesis lam=3.0 eps=0.2 N=3,1.11304347826,1.1130436,1.21739131886e-07,1
boundary_synthesis lam=3.0 eps=0.2 N=4,0.853333333333,0.8533338,4.66666667642e-07,1
boundary_synthesis lam=3.0 eps=0.2 N=5,0.708650519031,0.7086508,2.80968858624e-07,1
equalization_optimal lam=3.0 eps=0.2,1,1,0,1
equalization_uniform lam=3.0 eps=0.2,0,0,0,1
boundary_synthesis lam=3.0 eps=0.35 N=2,1.675,1.675,4.4408920985e-16,1
boundary_synthesis lam=3.0 eps=0.35 N=3,1.20026737968,1.20026815,7.70320856214e-07,1
boundary_synthesis lam=3.0 eps=0.35 N=4,0.935208333333,0.935208775,4.41666666906e-07,1
boundary_synthesis lam=3.0 eps=0.35 N=5,0.796132669808,0.796133225,5.55192175566e-07,1
equalization_optimal lam=3.0 eps=0.35,1,1,0,1
equalization_uniform lam=3.0 eps=0.35,0,0,0,1
boundary_synthesis lam=3.0 eps=0.5 N=2,1.75,1.75,0,1
boundary_synthesis lam=3.0 eps=0.5 N=3,1.28947368421,1.28947375,6.57894736467e-08,1
boundary_synthesis lam=3.0 eps=0.5 N=4,1.02083333333,1.02083375,4.16666666725e-07,1
boundary_synthesis lam=3.0 eps=0.5 N=5,0.888601036269,0.88860125,2.13730569798e-07,1
equalization_optimal lam=3.0 eps=0.5,1,1,0,1
equalization_uniform lam=3.0 eps=0.5,0,0,0,1
relaxation_kkt lam=3.0 eps=0.35 m=2,1,1,0,1
relaxation_kkt lam=3.0 eps=0.35 m=3,1,1,0,1
relaxation_kkt lam=3.0 eps=0.35 m=5,1,1,0,1
encode_decode N=8 eps=0.5,1,1,0,1
encode_decode N=7 eps=0.0,1,1,0,1
""",
}


@pytest.mark.parametrize(
    "seed,resolution", [(0, "1e-3"), (1, "1e-3"), (123, "1e-3"), (0, "5e-3")]
)
def test_verify_reproduces_frozen_bytes(tmp_path, capsys, seed, resolution):
    cfg = tmp_path / "verify.ini"
    cfg.write_text(f"[verify]\nresolution = {resolution}\nseed = {seed}\n")
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == FROZEN_CSV[resolution].encode()
    assert capsys.readouterr().out == FROZEN_STDOUT
