"""Golden digests for tree- and rule-based learners with no frozen oracle.

``repro.learners._reference`` freezes the pre-kernel trees and forests, but
not the meta ensembles built on top of them (Bagging, AdaBoostM1,
RandomSubSpace) nor the sequential-covering rule learners (JRip, PART,
Ridor).  Their fitted members still run the tree split search and the rule
threshold search, so any drift in either shows up in their probabilities.

Each case fits on the three ``test_kernel_equivalence`` datasets (dense,
tie-heavy, mean-imputed) and compares a SHA-256 digest of the
``predict_proba`` bytes with a recorded value, so a kernel rewrite must keep
every probability bit-identical.  The tree ensembles are also pinned on a
nine-class dataset: from eight entries up numpy sums a class axis pairwise,
so a kernel that reshapes or widens that axis could round differently.  To
re-record after an *intended* change, run this module as a script and paste
its output over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.learners.ensemble import AdaBoostM1, Bagging, RandomCommittee, RandomSubSpace
from repro.learners.forest import RandomForest
from repro.learners.rules import PART, JRip, Ridor
from repro.learners.tree import RandomTree
from test_kernel_equivalence import DATASETS, _split


def _nine_classes(seed=3, n=240, d=6, k=9):
    # Nine roughly equal classes cut from a noisy linear score.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    score = X[:, 0] + 0.7 * X[:, 1] - 0.5 * X[:, 2] + 0.3 * rng.normal(size=n)
    y = np.searchsorted(np.quantile(score, np.linspace(0, 1, k + 1)[1:-1]), score)
    return X, y


ALL_DATASETS = {**DATASETS, "nine-class": _nine_classes}

CASES = {
    "Bagging": lambda: Bagging(n_estimators=6, random_state=4),
    "Bagging-RandomTree": lambda: Bagging(
        base_estimator=RandomTree(random_state=1), n_estimators=6, random_state=4
    ),
    "AdaBoostM1": lambda: AdaBoostM1(n_estimators=12, random_state=4),
    "RandomSubSpace": lambda: RandomSubSpace(n_estimators=6, random_state=4),
    "RandomCommittee": lambda: RandomCommittee(n_estimators=6, random_state=4),
    "RandomForest": lambda: RandomForest(n_estimators=8, random_state=4),
    "JRip": lambda: JRip(),
    "PART": lambda: PART(),
    "Ridor": lambda: Ridor(),
}

# RandomForest has a frozen oracle on the three equivalence datasets, so it is
# pinned here on the nine-class data only; the other tree ensembles on all.
NINE_CLASS_CASES = ("Bagging", "Bagging-RandomTree", "RandomCommittee", "RandomForest",
                    "RandomSubSpace")
PAIRS = sorted(
    [(case, dataset) for case in CASES if case != "RandomForest" for dataset in DATASETS]
    + [(case, "nine-class") for case in NINE_CLASS_CASES]
)

GOLDEN = {
    "AdaBoostM1/dense": "6c9b561856fe5e3e45baf1eb",
    "AdaBoostM1/imputed": "56a4689bde639e6a7d994bb8",
    "AdaBoostM1/ties": "8b23a328ecaee07da3f78ea9",
    "Bagging/dense": "0820cff0030ea40e92a533a6",
    "Bagging/imputed": "60b510abe9c9cf11f7f22ccf",
    "Bagging/nine-class": "e4019f5dc9a0005695304a4d",
    "Bagging/ties": "9fbb282b7956ec8607381d50",
    "Bagging-RandomTree/dense": "a40e19c43e7d3f27cdcc453c",
    "Bagging-RandomTree/imputed": "8afd58200184a7e1e9719bc4",
    "Bagging-RandomTree/nine-class": "e003edf13eedff743835afad",
    "Bagging-RandomTree/ties": "665751bc2b46e7404572ac1f",
    "JRip/dense": "03e35037e70ee957246aec62",
    "JRip/imputed": "79f5da8d4bf8dab8336384dd",
    "JRip/ties": "70fe49e9f26e93b6c6a76d4c",
    "PART/dense": "34a4f08f04aa1231c1caddf8",
    "PART/imputed": "970e37a78b635b1468e7ccc7",
    "PART/ties": "c076a91058f0a3356004906e",
    "RandomCommittee/dense": "99a742ad2277aa52e84019f3",
    "RandomCommittee/imputed": "bbd9c5e40d28f7b18daf7f28",
    "RandomCommittee/nine-class": "16da89dcf1331760e7f90599",
    "RandomCommittee/ties": "2154844664e4ca061fbd9d09",
    "RandomForest/nine-class": "7d121f7d0bde30baee9a0ef1",
    "RandomSubSpace/dense": "0d31d18d044f885d4770183d",
    "RandomSubSpace/imputed": "d519e9fad9078d0b29e9c7a9",
    "RandomSubSpace/nine-class": "6eb3fed3f60e74e0011168a8",
    "RandomSubSpace/ties": "de647b6289bb03bf340cf3f9",
    "Ridor/dense": "3962e8ef87e99988f4ca3783",
    "Ridor/imputed": "996551e214a83904a3f77f43",
    "Ridor/ties": "8746498186bad2da6f738f8a",
}


def _digest(case: str, dataset: str) -> str:
    X, y, Xq = _split(ALL_DATASETS[dataset])
    proba = CASES[case]().fit(X, y).predict_proba(Xq)
    payload = np.ascontiguousarray(proba, dtype=np.float64)
    return hashlib.sha256(repr(payload.shape).encode() + payload.tobytes()).hexdigest()[:24]


@pytest.mark.parametrize("case,dataset", PAIRS, ids=lambda v: v)
def test_predict_proba_matches_golden_digest(case, dataset):
    assert _digest(case, dataset) == GOLDEN[f"{case}/{dataset}"]


if __name__ == "__main__":
    for case, dataset in sorted(PAIRS):
        print(f'    "{case}/{dataset}": "{_digest(case, dataset)}",')
