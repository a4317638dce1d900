"""Additional study-orchestration behaviours."""

import pytest

from repro.core import MLaaSStudy, StudyScale
from repro.exceptions import ValidationError
from repro.platforms import Google, LocalLibrary


def test_study_accepts_platform_instances():
    google = Google(random_state=9)
    study = MLaaSStudy(
        scale=StudyScale.tiny(),
        platforms=[google, LocalLibrary],
        random_state=3,
    )
    # The instance is used as-is; the class is instantiated with the
    # study's seed.
    assert study.platform("google") is google
    assert study.platform("local").random_state == 3


def test_corpus_is_cached():
    study = MLaaSStudy(scale=StudyScale.tiny())
    assert study.corpus is study.corpus


def test_different_seeds_select_different_corpora():
    a = MLaaSStudy(scale=StudyScale(max_datasets=6, size_cap=100,
                                    feature_cap=5), random_state=1)
    b = MLaaSStudy(scale=StudyScale(max_datasets=6, size_cap=100,
                                    feature_cap=5), random_state=2)
    assert {d.name for d in a.corpus} != {d.name for d in b.corpus}


def test_baseline_store_statuses_ok():
    study = MLaaSStudy(scale=StudyScale.tiny(), random_state=0)
    store = study.run_baseline()
    assert all(result.ok for result in store)


def test_per_control_rejects_unknown_dimension():
    study = MLaaSStudy(scale=StudyScale.tiny())
    with pytest.raises(Exception):
        study.run_per_control("IMPL")


def test_campaign_plan_naming_a_platform_twice_is_rejected():
    study = MLaaSStudy(scale=StudyScale.tiny(), random_state=0, workers=2)
    feat, clf = study.protocol_plan("FEAT"), study.protocol_plan("CLF")
    both = sorted({p.name for p, _ in feat} & {p.name for p, _ in clf})
    assert both  # the concatenation really repeats platforms
    uploads = []
    for platform, _ in feat + clf:
        platform.upload_dataset = lambda *a, **k: uploads.append(a)
    with pytest.raises(ValidationError) as caught:
        study.run_campaign_plan(feat + clf)
    for name in both:
        assert repr(name) in str(caught.value)
    assert uploads == []  # rejected before any backend ran
