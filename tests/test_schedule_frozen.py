"""Schedule sweeps against their frozen output.

FROZEN_CSV and FROZEN_NOTES are the CSV and the stdout notes that the
frontier-sweep scalar search printed for ``schedule --m-max 32 --n-max 64``
on the criterion-9 grid (n = 1, eps = 0.35, lambda = 1.40 ... 4.00 in steps
of 0.05). The branch-and-bound search must reproduce them byte for byte:
same schedules, same tie-breaks, same average-rate floats.

HIGHER_ORDER_CASES pin the heuristic search for n = 2..6 the same way: nine
plants, two of them near-cyclic (zero lower coefficients, tiny eps_1), at
margin 0 and 0.02 and with ``--m-max`` 4 to 6, recorded with the search that
pruned only on the radius product. The margin-0.02 cases were re-recorded
when the margin became a contraction per step, rho(P) < 0.98^m over an
m-slot period, for the search as for the N_suf columns.
"""

import pytest

from quantstab.cli import main

CONFIG = """\
[plant]
n = 1
a_star = 2.0
eps = 0.35

[sweep]
lambda_min = 1.40
lambda_max = 4.00
lambda_step = 0.05
"""

FROZEN_CSV = """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
1.4,0.35,0.754130142324,0.807354922058,2,2,,1.10691520392,1,1
1.45,0.35,0.806906196874,0.847996906555,2,2,,1.15754127699,1,1
1.5,0.35,0.857747223046,0.887525270742,2,2,,1.20645087747,1,1
1.55,0.35,0.906794674193,0.925999418556,2,2,,1.25375659225,1,1
1.6,0.35,0.954174631574,0.963474123975,2,2,,1.29956028186,1,1
1.65,0.35,1,1,3,3,,1.34395440122,1.01828007815,32
1.7,0.35,1.04437231873,1.03562390973,3,3,,1.38702312311,1.04953007815,32
1.75,0.35,1.08738326677,1.07038932789,3,3,,1.4288432988,1.09677419355,31
1.8,0.35,1.12911592323,1.10433665981,3,3,,1.4694852833,1.14285714286,7
1.85,0.35,1.16964582945,1.13750352375,3,3,,1.50901364749,1.18518518519,27
1.9,0.35,1.20904188989,1.16992500144,3,3,,1.5474877953,1.22580645161,31
1.95,0.35,1.24736714029,1.20163386117,3,3,,1.58496250072,1.26595059527,21
2,0.35,1.28467940642,1.23266075679,3,3,,1.62148837675,1.30434782609,23
2.05,0.35,1.32103187168,1.26303440583,3,3,,1.65711228648,1.34145040325,31
2.1,0.35,1.35647356843,1.29278174923,3,3,,1.69187770464,1.37803437503,28
2.15,0.35,1.39104980526,1.32192809489,3,3,,1.72582503656,1.41176470588,17
2.2,0.35,1.42480253992,1.35049724708,3,3,,1.7589919005,1.44679700006,25
2.25,0.35,1.45777070621,1.37851162325,3,3,,1.79141337819,1.47924812504,20
2.3,0.35,1.4899905015,1.40599235968,3,4,,1.82312223792,1.51307115396,26
2.35,0.35,1.52149564046,1.43295940728,3,4,,1.85414913354,1.54166666667,24
2.4,0.35,1.55231757979,1.45943161864,4,4,,1.88452278258,1.57692307692,26
2.45,0.35,1.58248571776,1.48542682717,4,4,,1.91427012597,1.60381025297,32
2.5,0.35,1.612027572,1.51096191928,4,4,,1.94341647163,1.63157894737,19
2.55,0.35,1.6409689383,1.53605290024,4,4,,1.97198562383,1.65956195658,23
2.6,0.35,1.66933403285,1.56071495447,4,4,,2,1.68616541669,30
2.65,0.35,1.6971456199,1.58496250072,4,4,,2.02748073642,1.71428571429,7
2.7,0.35,1.72442512675,1.60880924268,4,4,,2.05444778402,1.73913043478,23
2.75,0.35,1.75119274741,1.6322682155,4,4,,2.08091999538,1.76470588235,17
2.8,0.35,1.77746753634,1.65535182861,4,4,,2.10691520392,1.79131025297,32
2.85,0.35,1.80326749335,1.67807190511,4,4,,2.13245029602,1.81481481481,27
2.9,0.35,1.82860964076,1.70043971814,4,4,,2.15754127699,1.83870967742,31
2.95,0.35,1.85351009345,1.72246602447,4,5,,2.18220333122,1.86206896552,29
3,0.35,1.87798412281,1.74416109557,4,5,,2.20645087747,1.88616541669,30
3.05,0.35,1.90204621504,1.76553474636,4,5,,2.23029761942,1.90870725811,31
3.1,0.35,1.92571012449,1.78659636189,4,5,,2.25375659225,1.93103448276,29
3.15,0.35,1.94898892253,1.80735492206,4,5,,2.27684020536,1.95238095238,21
3.2,0.35,1.97189504233,1.82781902462,4,5,,2.29956028186,1.97558602945,17
3.25,0.35,1.99444032005,1.84799690655,4,5,,2.32192809489,1.99678933088,29
3.3,0.35,2.01663603274,1.86789646399,5,5,,2.34395440122,2.01828007815,32
3.35,0.35,2.03849293322,1.88752527074,5,5,,2.36564947232,2.04096062302,30
3.4,0.35,2.06002128232,1.90689059561,5,5,,2.38702312311,2.06438561898,5
3.45,0.35,2.08123087858,1.92599941856,5,5,,2.40808473864,2.08566941757,28
3.5,0.35,2.10213108585,1.94485844581,5,5,,2.4288432988,2.10822468662,30
3.55,0.35,2.12273085873,1.96347412397,5,5,,2.44930740136,2.12796054703,32
3.6,0.35,2.14303876624,1.98185265329,5,6,,2.4694852833,2.14963833801,26
3.65,0.35,2.16306301377,2,5,6,,2.48938484074,2.16982782279,31
3.7,0.35,2.18281146347,2.017921908,5,6,,2.50901364749,2.19012700698,14
3.75,0.35,2.20229165325,2.03562390973,5,6,,2.52837897235,2.20891517883,14
3.8,0.35,2.22151081445,2.05311133646,5,6,,2.5474877953,2.22857604082,27
3.85,0.35,2.24047588834,2.07038932789,5,6,,2.56634682255,2.24748413492,26
3.9,0.35,2.2591935415,2.08746284125,5,6,,2.58496250072,2.26782177481,32
3.95,0.35,2.2776701802,2.10433665981,5,6,,2.60334103004,2.2856765598,30
4,0.35,2.29591196383,2.12101540096,5,6,,2.62148837675,2.30321218686,30
"""

FROZEN_NOTES = """\
lambda=1.4 schedule=[2] (exact)
lambda=1.45 schedule=[2] (exact)
lambda=1.5 schedule=[2] (exact)
lambda=1.55 schedule=[2] (exact)
lambda=1.6 schedule=[2] (exact)
lambda=1.65 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3] (exact)
lambda=1.7 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4] (exact)
lambda=1.75 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4] (exact)
lambda=1.8 schedule=[2, 2, 2, 2, 2, 2, 4] (exact)
lambda=1.85 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4] (exact)
lambda=1.9 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=1.95 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4] (exact)
lambda=2 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.05 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.1 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.15 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.2 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.25 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.3 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.35 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.4 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.45 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5] (exact)
lambda=2.5 schedule=[2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.55 schedule=[2, 2, 2, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.6 schedule=[2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.65 schedule=[2, 2, 4, 4, 4, 4, 4] (exact)
lambda=2.7 schedule=[2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.75 schedule=[2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.8 schedule=[2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5] (exact)
lambda=2.85 schedule=[2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.9 schedule=[2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=2.95 schedule=[2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=3 schedule=[2, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=3.05 schedule=[2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=3.1 schedule=[2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=3.15 schedule=[2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=3.2 schedule=[3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] (exact)
lambda=3.25 schedule=[3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5] (exact)
lambda=3.3 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6] (exact)
lambda=3.35 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 6] (exact)
lambda=3.4 schedule=[4, 4, 4, 4, 5] (exact)
lambda=3.45 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 6, 6, 6] (exact)
lambda=3.5 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 6, 6, 6, 6, 6] (exact)
lambda=3.55 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6] (exact)
lambda=3.6 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6] (exact)
lambda=3.65 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6, 6, 6] (exact)
lambda=3.7 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 6, 6, 6, 6] (exact)
lambda=3.75 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6] (exact)
lambda=3.8 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6] (exact)
lambda=3.85 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6] (exact)
lambda=3.9 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6] (exact)
lambda=3.95 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6] (exact)
lambda=4 schedule=[4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6] (exact)
"""


def test_criterion_9_sweep_matches_frozen_output(tmp_path, capsys):
    cfg = tmp_path / "c9.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    out = tmp_path / "c9.csv"
    argv = ["schedule", "--config", str(cfg), "--out", str(out), "--m-max", "32", "--n-max", "64"]
    assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == FROZEN_CSV
    captured = capsys.readouterr()
    assert captured.out == FROZEN_NOTES
    assert captured.err == ""


# id: (plant and sweep config, schedule flags, CSV, stdout notes)
HIGHER_ORDER_CASES = {
    "n2_regular": (
        """\
[plant]
n = 2
a_star = 0.3, 2.2
eps = 0.02, 0.2

[sweep]
lambda_min = 1.9
lambda_max = 2.5
lambda_step = 0.3
""",
        ("--m-max", "6"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
1.9,0.2,1.0786172595,1.07038932789,3,3,,,1.33333333333,3
2.2,0.2,1.29148696581,1.26303440583,3,3,,,1.51699250014,5
2.5,0.2,1.47681389056,1.43295940728,4,4,,,1.69837061927,5
""",
        """\
lambda=1.9 schedule=[2, 2, 4] (heuristic)
lambda=2.2 schedule=[2, 2, 3, 4, 4] (heuristic)
lambda=2.5 schedule=[2, 2, 3, 5, 6] (heuristic)
""",
    ),
    "n2_cyclic": (
        """\
[plant]
n = 2
a_star = 0.0, 2.0
eps = 0.005, 0.25

[sweep]
lambda_min = 1.7
lambda_max = 2.3
lambda_step = 0.3
""",
        ("--m-max", "6"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
1.7,0.25,0.957583144823,0.963474123975,2,2,,,1,1
2,0.25,1.19498181857,1.16992500144,3,3,,,1.23398500029,5
2.3,0.25,1.39847009305,1.35049724708,3,3,,,1.43398500029,5
""",
        """\
lambda=1.7 schedule=[2] (heuristic)
lambda=2 schedule=[2, 2, 2, 3, 3] (heuristic)
lambda=2.3 schedule=[2, 2, 3, 3, 4] (heuristic)
""",
    ),
    "n2_margin": (
        """\
[plant]
n = 2
a_star = -0.5, -1.8
eps = 0.05, 0.3

[sweep]
lambda_min = 1.8
lambda_max = 2.2
lambda_step = 0.4
""",
        ("--m-max", "5", "--margin", "0.02"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
1.8,0.3,1.08412240301,1.07038932789,4,4,,,1.6,5
2.2,0.3,1.37813568171,1.32192809489,4,4,,,1.83398500029,5
""",
        """\
lambda=1.8 schedule=[2, 2, 4, 4, 4] (heuristic)
lambda=2.2 schedule=[3, 3, 4, 4, 4] (heuristic)
""",
    ),
    "n3_regular": (
        """\
[plant]
n = 3
a_star = 0.4, -0.3, 2.5
eps = 0.05, 0.03, 0.3

[sweep]
lambda_min = 2.1
lambda_max = 2.5
lambda_step = 0.4
""",
        ("--m-max", "5", "--margin", "0.02"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
2.1,0.3,1.31013455234,1.26303440583,4,5,,,1.96275623824,5
2.5,0.3,1.56460693251,1.48542682717,5,5,,,2.11699250014,5
""",
        """\
lambda=2.1 schedule=[3, 3, 4, 5, 5] (heuristic)
lambda=2.5 schedule=[4, 4, 4, 4, 6] (heuristic)
""",
    ),
    "n3_cyclic": (
        """\
[plant]
n = 3
a_star = 0.0, 0.0, 1.9
eps = 0.003, 0.0, 0.15

[sweep]
lambda_min = 1.6
lambda_max = 1.9
lambda_step = 0.3
""",
        ("--m-max", "4"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
1.6,0.15,0.789474340693,0.807354922058,2,2,,,1,1
1.9,0.15,1.0386392695,1.03562390973,3,3,,,1.14624062518,4
""",
        """\
lambda=1.6 schedule=[2] (heuristic)
lambda=1.9 schedule=[2, 2, 2, 3] (heuristic)
""",
    ),
    "n4": (
        """\
[plant]
n = 4
a_star = 0.2, 0.5, -0.1, -2.6
eps = 0.02, 0.05, 0.01, 0.3

[sweep]
lambda_min = 2.2
lambda_max = 2.6
lambda_step = 0.4
""",
        ("--m-max", "4", "--margin", "0.02"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
2.2,0.3,1.37813568171,1.32192809489,5,5,,,2.10730936496,3
2.6,0.3,1.62171925946,1.53605290024,5,6,,,2.26911830735,3
""",
        """\
lambda=2.2 schedule=[4, 4, 5] (heuristic)
lambda=2.6 schedule=[4, 4, 7] (heuristic)
""",
    ),
    "n5": (
        """\
[plant]
n = 5
a_star = -0.3, 0.1, 0.6, -0.2, 2.1
eps = 0.01, 0.04, 0.02, 0.05, 0.12

[sweep]
lambda_min = 1.8
lambda_max = 2.1
lambda_step = 0.3
""",
        ("--m-max", "5"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
1.8,0.12,0.937085555012,0.941106310946,4,4,,,1.86165416691,3
2.1,0.12,1.16004692325,1.15055967658,4,5,,,1.9767226489,4
""",
        """\
lambda=1.8 schedule=[3, 4, 4] (heuristic)
lambda=2.1 schedule=[3, 4, 4, 5] (heuristic)
""",
    ),
    "n6": (
        """\
[plant]
n = 6
a_star = 0.1, -0.4, 0.3, 0.2, -0.6, 2.9
eps = 0.03, 0.01, 0.06, 0.02, 0.04, 0.35

[sweep]
lambda_min = 2.9
lambda_max = 2.9
lambda_step = 0.05
""",
        ("--m-max", "6", "--margin", "0.02"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
2.9,0.35,1.82860964076,1.70043971814,8,11,,,3,1
""",
        """\
lambda=2.9 schedule=[8] (heuristic)
""",
    ),
    "n6_m4": (
        """\
[plant]
n = 6
a_star = 0.5, 0.0, -0.2, 0.1, 0.3, -2.3
eps = 0.02, 0.02, 0.0, 0.05, 0.01, 0.2

[sweep]
lambda_min = 2.0
lambda_max = 2.3
lambda_step = 0.3
""",
        ("--m-max", "4"),
        """\
lambda,eps,R_nec,R_known_max,N_suf_opt,N_suf_uni,R_suf_phat,R_suf_martins,avg_rate_best,m_best
2,0.2,1.15314216332,1.13750352375,4,5,,,2,1
2.3,0.2,1.35595772289,1.32192809489,5,5,,,2.10730936496,3
""",
        """\
lambda=2 schedule=[4] (heuristic)
lambda=2.3 schedule=[4, 4, 5] (heuristic)
""",
    ),
}


@pytest.mark.parametrize("case", sorted(HIGHER_ORDER_CASES))
def test_higher_order_schedule_matches_frozen_output(case, tmp_path, capsys):
    config, flags, frozen_csv, frozen_notes = HIGHER_ORDER_CASES[case]
    cfg = tmp_path / "plant.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "schedule.csv"
    assert main(["schedule", "--config", str(cfg), "--out", str(out), *flags]) == 0
    assert out.read_text(encoding="utf-8") == frozen_csv
    captured = capsys.readouterr()
    assert captured.out == frozen_notes
    assert captured.err == ""
