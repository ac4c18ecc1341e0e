"""JustInTime — personal temporal insights for altering model decisions.

Reproduction of Boer, Deutch, Frost & Milo (ICDE 2019, demo track).  The
public API mirrors the paper's architecture:

* :mod:`repro.ml` — from-scratch model classes (Definition II.1 scorers);
* :mod:`repro.data` — schemas and the synthetic drifting lending data;
* :mod:`repro.constraints` — the constraints language (Definition II.2);
* :mod:`repro.temporal` — temporal update functions (Definition II.4) and
  the models generator (future model sequence, §II.B);
* :mod:`repro.core` — the candidates generator (Definition II.3, §II.A),
  insights, and the :class:`~repro.core.system.JustInTime` facade;
* :mod:`repro.db` — the relational candidate store and Figure-2 queries.

Quickstart::

    from repro import (AdminConfig, JustInTime, lending_schema,
                       lending_update_function, make_lending_dataset)

    schema = lending_schema()
    system = JustInTime(schema, lending_update_function(schema),
                        AdminConfig(T=5, strategy="last"))
    system.fit(make_lending_dataset())
    session = system.create_session(
        "john", {"age": 29, "household": 1, "annual_income": 52_000,
                 "monthly_debt": 2_600, "seniority": 4,
                 "loan_amount": 30_000},
        user_constraints=["annual_income <= base_annual_income * 1.2"])
    for insight in session.all_insights():
        print(insight.text)

See the README's Architecture section for the full system inventory.
The paper's figures and ablations are reproduced by the ``bench_*``
functions in ``benchmarks/``::

    PYTHONPATH=src python -m pytest benchmarks -q -o python_files='bench_*.py' -o python_functions='bench_*' --benchmark-disable
"""

__version__ = "1.0.0"

from repro.constraints import (
    ConstraintsFunction,
    ScopedConstraint,
    bounds,
    freeze,
    lending_domain_constraints,
    max_changes,
    max_effort,
    max_increase_pct,
    min_confidence,
    no_decrease,
    no_increase,
    parse_constraint,
    schema_domain_constraints,
)
from repro.core import (
    AdminConfig,
    Candidate,
    CandidateGenerator,
    CandidateSetReport,
    Insight,
    InsightEngine,
    JustInTime,
    Objective,
    Plan,
    UserSession,
    build_plan,
    brute_force_tree_candidates,
    evaluate_session,
)
from repro.data import (
    DatasetSchema,
    FeatureSpec,
    LendingGenerator,
    LendingPolicy,
    TemporalDataset,
    john_profile,
    lending_schema,
    load_csv,
    make_lending_dataset,
    save_csv,
)
from repro.db import CandidateStore
from repro.ml import (
    DecisionTreeClassifier,
    DesiredClassModel,
    GradientBoostingClassifier,
    LogisticRegression,
    OneVsRestClassifier,
    RandomForestClassifier,
)
from repro.temporal import (
    EDDPredictor,
    FutureModels,
    ModelsGenerator,
    TemporalUpdateFunction,
    lending_update_function,
    make_strategy,
)

__all__ = [
    "AdminConfig",
    "Candidate",
    "CandidateGenerator",
    "CandidateSetReport",
    "CandidateStore",
    "ConstraintsFunction",
    "DatasetSchema",
    "DecisionTreeClassifier",
    "DesiredClassModel",
    "OneVsRestClassifier",
    "evaluate_session",
    "EDDPredictor",
    "FeatureSpec",
    "FutureModels",
    "GradientBoostingClassifier",
    "Insight",
    "InsightEngine",
    "JustInTime",
    "LendingGenerator",
    "LendingPolicy",
    "LogisticRegression",
    "ModelsGenerator",
    "Objective",
    "Plan",
    "RandomForestClassifier",
    "ScopedConstraint",
    "TemporalDataset",
    "TemporalUpdateFunction",
    "UserSession",
    "__version__",
    "bounds",
    "brute_force_tree_candidates",
    "build_plan",
    "freeze",
    "john_profile",
    "lending_domain_constraints",
    "lending_schema",
    "lending_update_function",
    "load_csv",
    "make_lending_dataset",
    "make_strategy",
    "max_changes",
    "max_effort",
    "max_increase_pct",
    "min_confidence",
    "no_decrease",
    "no_increase",
    "parse_constraint",
    "save_csv",
    "schema_domain_constraints",
]
