"""Per-rule unit tests: a violating fixture and a clean fixture each."""

import textwrap

from repro.platforms.table1_spec import (
    ClassifierEntry,
    ParameterEntry,
    PlatformEntry,
)
from repro.tools.lint import lint_source
from repro.tools.lint.rules import (
    DeterminismRule,
    EstimatorContractRule,
    ExceptionHygieneRule,
    ExportSyncRule,
    Table1ConformanceRule,
)


def _codes(source, rule):
    result = lint_source(textwrap.dedent(source), rules=[rule])
    return [v.code for v in result.unsuppressed]


# -- R001 determinism --------------------------------------------------------

def test_r001_flags_legacy_np_random():
    assert _codes("""
        import numpy as np
        x = np.random.rand(3)
    """, DeterminismRule()) == ["R001"]


def test_r001_flags_argless_default_rng():
    assert _codes("""
        import numpy as np
        rng = np.random.default_rng()
    """, DeterminismRule()) == ["R001"]


def test_r001_flags_stdlib_random():
    assert _codes("""
        import random
        x = random.random()
    """, DeterminismRule()) == ["R001"]


def test_r001_resolves_import_aliases():
    assert _codes("""
        from numpy import random as npr
        x = npr.shuffle([1, 2])
    """, DeterminismRule()) == ["R001"]


def test_r001_clean_seeded_generator():
    assert _codes("""
        import numpy as np
        rng = np.random.default_rng(7)
        seeded = np.random.default_rng(seed=0)
    """, DeterminismRule()) == []


# -- R002 estimator contract -------------------------------------------------

def test_r002_flags_init_logic_and_missing_fit_contract():
    codes = _codes("""
        from repro.learn.base import BaseEstimator

        class Bad(BaseEstimator):
            def __init__(self, alpha=1.0):
                self.alpha = alpha * 2

            def fit(self, X, y):
                self.coef = X.mean()
                return None
    """, EstimatorContractRule())
    # init logic, alpha never stored verbatim, non-self return, missing
    # validation, unfitted attribute name
    assert codes == ["R002"] * 5


def test_r002_flags_missing_param_assignment_and_varargs():
    codes = _codes("""
        from repro.learn.base import BaseEstimator

        class Bad(BaseEstimator):
            def __init__(self, alpha=1.0, **kwargs):
                pass
    """, EstimatorContractRule())
    assert len(codes) == 3  # **kwargs, 'pass' is not verbatim, alpha unstored


def test_r002_clean_estimator():
    assert _codes("""
        from repro.learn.base import BaseEstimator
        from repro.learn.validation import check_X_y

        class Good(BaseEstimator):
            def __init__(self, alpha=1.0):
                self.alpha = alpha

            def fit(self, X, y):
                X, y = check_X_y(X, y)
                self.coef_ = X.mean()
                return self
    """, EstimatorContractRule()) == []


def test_r002_fit_may_delegate_to_subestimator():
    assert _codes("""
        from repro.learn.base import BaseEstimator

        class Wrapper(BaseEstimator):
            def __init__(self, base=None):
                self.base = base

            def fit(self, X, y):
                self.model_ = self.base.fit(X, y)
                return self
    """, EstimatorContractRule()) == []


def test_r002_ignores_classes_outside_hierarchy():
    assert _codes("""
        class Unrelated:
            def __init__(self, alpha=1.0):
                self.alpha = alpha * 2
    """, EstimatorContractRule()) == []


# -- R003 Table 1 conformance ------------------------------------------------

_DEMO_SPEC = {
    "demo": PlatformEntry(
        name="demo",
        complexity=2,
        dimensions=frozenset({"CLF", "PARA"}),
        feature_selectors=("kbest",),
        classifiers=(
            ClassifierEntry("LR", "Logistic Regression", (
                ParameterEntry("C", 1.0, (0.01, 1.0, 100.0)),
            )),
        ),
    ),
}

_DEMO_MODULE = """
    from repro.platforms.base import (
        ClassifierOption, ControlSurface, MLaaSPlatform, ParameterSpec,
    )

    class DemoPlatform(MLaaSPlatform):
        name = "demo"
        complexity = {complexity}
        controls = ControlSurface(
            feature_selectors=("kbest",),
            classifiers=(
                ClassifierOption("LR", "Logistic Regression", (
                    ParameterSpec("{param}", 1.0, (0.01, 1.0, 100.0)),
                )),
            ),
            supports_parameter_tuning=True,
        )
"""


def test_r003_clean_when_declaration_matches_spec():
    source = _DEMO_MODULE.format(complexity=2, param="C")
    assert _codes(source, Table1ConformanceRule(spec=_DEMO_SPEC)) == []


def test_r003_flags_complexity_drift():
    source = _DEMO_MODULE.format(complexity=5, param="C")
    result = lint_source(
        textwrap.dedent(source), rules=[Table1ConformanceRule(spec=_DEMO_SPEC)]
    )
    [violation] = result.unsuppressed
    assert violation.code == "R003"
    assert "complexity 5" in violation.message


def test_r003_flags_renamed_parameter():
    source = _DEMO_MODULE.format(complexity=2, param="regularization")
    result = lint_source(
        textwrap.dedent(source), rules=[Table1ConformanceRule(spec=_DEMO_SPEC)]
    )
    assert any(
        v.code == "R003" and "regularization" in v.message
        for v in result.unsuppressed
    )


def test_r003_flags_platform_missing_from_spec():
    source = _DEMO_MODULE.format(complexity=2, param="C").replace(
        '"demo"', '"unknown"'
    )
    result = lint_source(
        textwrap.dedent(source), rules=[Table1ConformanceRule(spec=_DEMO_SPEC)]
    )
    assert any("no entry" in v.message for v in result.unsuppressed)


def test_r003_live_spec_matches_vendor_modules():
    """The shipped spec and the shipped platforms must agree at runtime too."""
    from repro.platforms import ALL_PLATFORMS
    from repro.platforms.table1_spec import TABLE1_SPEC

    for cls in ALL_PLATFORMS:
        platform = cls()
        entry = TABLE1_SPEC[platform.name]
        assert platform.complexity == entry.complexity
        assert tuple(platform.controls.feature_selectors) == \
            tuple(entry.feature_selectors)
        assert platform.classifier_abbrs() == [c.abbr for c in entry.classifiers]


def test_r003_reads_the_spec_without_importing_the_platforms():
    """R003 loads ``table1_spec.py`` by file: no simulators, no numpy."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    drifted = textwrap.dedent(_DEMO_MODULE.format(complexity=7, param="C")
                              .replace('"demo"', '"google"'))
    script = textwrap.dedent(f"""
        import json, sys
        from repro.tools.check import run_check
        from repro.tools.lint import lint_source

        report = run_check([{str(src / "repro" / "platforms")!r}])
        drift = lint_source({drifted!r}).unsuppressed
        print(json.dumps({{
            "crashed": sorted(report.crashes),
            "lint": report.results["lint"].exit_code,
            "drift": [v.message for v in drift if v.code == "R003"],
            "loaded": [name for name in ("repro.platforms.base",
                                         "repro.learn", "numpy")
                       if name in sys.modules],
        }}))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout)
    assert outcome["crashed"] == [] and outcome["lint"] == 0
    assert any("complexity 7" in message for message in outcome["drift"])
    assert outcome["loaded"] == []


# -- R004 exception hygiene --------------------------------------------------

def test_r004_flags_bare_except():
    assert _codes("""
        try:
            x = 1
        except:
            pass
    """, ExceptionHygieneRule()) == ["R004"]


def test_r004_flags_silent_broad_swallow():
    assert _codes("""
        for item in ():
            try:
                x = 1
            except Exception:
                continue
    """, ExceptionHygieneRule()) == ["R004"]


def test_r004_allows_broad_catch_that_records_failure():
    assert _codes("""
        failures = []
        try:
            x = 1
        except Exception as exc:
            failures.append(str(exc))
    """, ExceptionHygieneRule()) == []


def test_r004_flags_foreign_exception_hierarchy():
    codes = _codes("""
        class HomegrownError(object):
            pass

        def fail():
            raise HomegrownError("nope")
    """, ExceptionHygieneRule())
    assert codes == ["R004"]


def test_r004_allows_repro_and_stdlib_raises():
    assert _codes("""
        from repro.exceptions import ValidationError

        def fail(flag):
            if flag:
                raise ValidationError("bad input")
            raise ValueError("stdlib is fine")
    """, ExceptionHygieneRule()) == []


# -- R005 export sync --------------------------------------------------------

def test_r005_requires_all_declaration():
    result = lint_source(
        "def public():\n    pass\n",
        filename="mod.py", rules=[ExportSyncRule()],
    )
    assert [v.code for v in result.unsuppressed] == ["R005"]


def test_r005_flags_phantom_and_missing_exports():
    result = lint_source(textwrap.dedent("""
        __all__ = ["ghost"]

        def visible():
            pass
    """), filename="mod.py", rules=[ExportSyncRule()])
    messages = " | ".join(v.message for v in result.unsuppressed)
    assert "ghost" in messages       # exported but undefined
    assert "visible" in messages     # defined but unexported


def test_r005_flags_duplicate_entries():
    result = lint_source(
        '__all__ = ["a", "a"]\n\ndef a():\n    pass\n',
        filename="mod.py", rules=[ExportSyncRule()],
    )
    assert any("more than once" in v.message for v in result.unsuppressed)


def test_r005_clean_module():
    assert _codes("""
        __all__ = ["CONSTANT", "helper"]

        CONSTANT = 3

        def helper():
            pass

        def _private():
            pass
    """, ExportSyncRule()) == []


def test_r005_skips_private_modules():
    result = lint_source(
        "def anything():\n    pass\n",
        filename="_internal.py", rules=[ExportSyncRule()],
    )
    assert result.unsuppressed == []
