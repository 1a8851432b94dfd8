"""Flow-layer behaviors: ProjectIndex, CDR009/CDR010/CDR011 precision.

The fixture pair per rule (``tests/checks/fixtures/cdr009..011``)
pins the headline true-positive/true-negative contract; these tests
pin the *inference* machinery — cross-module resolution, the
generator-returning fixpoint, held-on-entry lock analysis, and the
specific real-code shapes the rules must not flag (the patterns in
``DistributionTracker``, ``WaitTableCache``, and the shard watchdog).
"""

import ast
import pathlib

from repro.checks import lint_source
from repro.checks.flow import (
    ImportResolver,
    ProjectIndex,
    infer_lock_discipline,
)

REPO_ROOT = pathlib.Path(__file__).parents[2]


def build_index(*modules):
    """Index ``(module_name, source)`` pairs."""
    return ProjectIndex.build(
        [
            (name, f"{name.replace('.', '/')}.py", ast.parse(source))
            for name, source in modules
        ]
    )


# ----------------------------------------------------------------------
# ProjectIndex


def test_fixpoint_marks_wrapper_functions_generator_returning():
    index = build_index(
        (
            "pkg.rngutil",
            "from repro.rng import resolve_rng\n"
            "def make_rng(seed):\n"
            "    return resolve_rng(seed)\n"
            "def make_rng_2(seed):\n"
            "    return make_rng(seed)\n"
            "def not_a_rng(seed):\n"
            "    return seed\n",
        )
    )
    assert "pkg.rngutil.make_rng" in index.generator_returning
    assert "pkg.rngutil.make_rng_2" in index.generator_returning
    assert "pkg.rngutil.not_a_rng" not in index.generator_returning


def test_index_tracks_generator_attrs_across_classes():
    index = build_index(
        (
            "pkg.holder",
            "from repro.rng import resolve_rng\n"
            "class Holder:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = resolve_rng(seed)\n"
            "        self.seed = seed\n",
        )
    )
    assert index.generator_attrs == {"pkg.holder.Holder.rng"}


def test_cross_module_producer_resolves_through_import():
    """A producer defined in one module is recognized when called from
    another — the property the per-file rules fundamentally lack."""
    index = build_index(
        (
            "pkg.factory",
            "from repro.rng import resolve_rng\n"
            "def shared_stream(seed):\n"
            "    return resolve_rng(seed)\n",
        ),
        (
            "pkg.consumer",
            "from pkg.factory import shared_stream\n"
            "def use(seed):\n"
            "    rng = shared_stream(seed)\n"
            "    return rng.normal()\n",
        ),
    )
    assert "pkg.factory.shared_stream" in index.generator_returning
    info = index.modules["pkg.consumer"]
    call = info.tree.body[1].body[0].value
    assert info.resolver.resolve(call.func) == "pkg.factory.shared_stream"


# ----------------------------------------------------------------------
# CDR009


def test_cdr009_spawn_before_draw_is_clean():
    source = (
        "from repro.rng import resolve_rng, spawn\n"
        "def ok(seed):\n"
        "    rng = resolve_rng(seed)\n"
        "    kids = spawn(rng, 3)\n"
        "    return kids, rng.normal()\n"
    )
    assert [f.rule_id for f in lint_source(source)] == []


def test_cdr009_flags_bit_generator_seed_seq_spawn_after_draw():
    source = (
        "from repro.rng import resolve_rng\n"
        "def bad(seed):\n"
        "    rng = resolve_rng(seed)\n"
        "    x = rng.random()\n"
        "    kids = rng.bit_generator.seed_seq.spawn(2)\n"
        "    return kids, x\n"
    )
    assert "CDR009" in {f.rule_id for f in lint_source(source)}


def test_cdr009_flags_executor_submit_with_generator():
    source = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from repro.rng import resolve_rng\n"
        "def bad(seed, work):\n"
        "    rng = resolve_rng(seed)\n"
        "    with ThreadPoolExecutor() as pool:\n"
        "        return pool.submit(work, rng).result()\n"
    )
    assert "CDR009" in {f.rule_id for f in lint_source(source)}


def test_cdr009_spawned_child_per_worker_is_clean():
    source = (
        "import threading\n"
        "from repro.rng import resolve_rng, spawn\n"
        "def ok(seed, work):\n"
        "    children = spawn(resolve_rng(seed), 4)\n"
        "    threads = [\n"
        "        threading.Thread(target=work, args=(s,))\n"
        "        for s in range(4)\n"
        "    ]\n"
        "    return children, threads\n"
    )
    assert lint_source(source) == []


def test_cdr009_annotated_generator_param_crossing_boundary():
    source = (
        "import threading\n"
        "import numpy as np\n"
        "def bad(rng: np.random.Generator, work):\n"
        "    t = threading.Thread(target=work, args=(rng,))\n"
        "    t.start()\n"
    )
    assert "CDR009" in {f.rule_id for f in lint_source(source)}


def test_cdr009_exempts_repro_rng_itself():
    source = (
        "import numpy as np\n"
        "def fork(rng):\n"
        "    return np.random.default_rng(\n"
        "        rng.bit_generator.seed_seq.spawn(1)[0]\n"
        "    )\n"
    )
    assert lint_source(source, module="repro.rng") == []


# ----------------------------------------------------------------------
# CDR010


TRACKER_SHAPE = (
    "import threading\n"
    "class Tracker:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.RLock()\n"
    "        self._samples = []\n"
    "    def observe(self, x):\n"
    "        with self._lock:\n"
    "            self._observe_locked(x)\n"
    "    def _observe_locked(self, x):\n"
    "        self._samples.append(x)\n"
    "        if len(self._samples) > 8:\n"
    "            self._refit()\n"
    "    def _refit(self):\n"
    "        self._samples = self._samples[-4:]\n"
    "    def snapshot(self):\n"
    "        with self._lock:\n"
    "            return list(self._samples)\n"
)


def test_cdr010_held_on_entry_methods_are_not_flagged():
    """The _observe_locked/_refit call-under-lock shape used by
    DistributionTracker must be recognized via the call-graph fixpoint."""
    assert lint_source(TRACKER_SHAPE) == []


def test_cdr010_flags_minority_unguarded_read_with_lock_named():
    source = TRACKER_SHAPE + (
        "    def peek(self):\n"
        "        return len(self._samples)\n"
    )
    findings = [f for f in lint_source(source) if f.rule_id == "CDR010"]
    assert len(findings) == 1
    assert "_lock" in findings[0].message
    assert "_samples" in findings[0].message


def test_cdr010_construction_only_attributes_are_exempt():
    source = (
        "import threading\n"
        "class Cache:\n"
        "    def __init__(self, config):\n"
        "        self._lock = threading.RLock()\n"
        "        self.config = config\n"
        "        self._memo = {}\n"
        "    def get(self, key):\n"
        "        with self._lock:\n"
        "            self._memo[key] = self.config\n"
        "            return self._memo[key]\n"
        "    def bucket(self, key):\n"
        "        return key % self.config\n"  # immutable read: no lock
    )
    assert lint_source(source) == []


def test_cdr010_needs_majority_evidence():
    """One guarded and one unguarded access is not a discipline."""
    source = (
        "import threading\n"
        "class Half:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n"
        "    def a(self):\n"
        "        with self._lock:\n"
        "            self.n = 1\n"
        "    def b(self):\n"
        "        self.n = 2\n"
    )
    assert [f.rule_id for f in lint_source(source)] == []


def test_infer_lock_discipline_reports_guard_counts():
    tree = ast.parse(TRACKER_SHAPE)
    resolver = ImportResolver(tree, "demo")
    (discipline,) = infer_lock_discipline(tree, "demo", resolver)
    assert discipline.qualname == "demo.Tracker"
    assert discipline.lock_attrs == ("_lock",)
    lock, guarded, total = discipline.guarded_attrs["_samples"]
    assert lock == "_lock"
    assert guarded == total
    assert discipline.violations == []


def test_real_tracker_and_wait_cache_are_discipline_clean():
    """The shipped classes the rule was designed around stay clean and
    are actually *covered* (inference finds their disciplines)."""
    for rel, module, cls_name in (
        ("src/repro/estimation/tracker.py", "repro.estimation.tracker",
         "DistributionTracker"),
        ("src/repro/core/waitbatch.py", "repro.core.waitbatch",
         "WaitTableCache"),
    ):
        tree = ast.parse((REPO_ROOT / rel).read_text())
        resolver = ImportResolver(tree, module)
        disciplines = {
            d.qualname.rsplit(".", 1)[1]: d
            for d in infer_lock_discipline(tree, module, resolver)
        }
        assert cls_name in disciplines
        discipline = disciplines[cls_name]
        assert discipline.guarded_attrs, f"{cls_name}: nothing inferred"
        assert discipline.violations == []


# ----------------------------------------------------------------------
# CDR011


def test_cdr011_flags_wall_vs_virtual_compare():
    source = (
        "import time\n"
        "def bad(request):\n"
        "    if time.perf_counter() > request.deadline:\n"
        "        return None\n"
    )
    assert "CDR011" in {f.rule_id for f in lint_source(source)}


def test_cdr011_wall_interval_reporting_is_clean():
    source = (
        "import time\n"
        "def ok():\n"
        "    start = time.perf_counter()\n"
        "    elapsed = time.perf_counter() - start\n"
        "    return elapsed\n"
    )
    assert lint_source(source) == []


def test_cdr011_watchdog_dict_of_wall_instants_is_clean():
    """The shard watchdog shape: perf_counter values stored in a dict,
    compared against other perf_counter reads and a unitless timeout."""
    source = (
        "import time\n"
        "def watchdog(shards, timeout):\n"
        "    last = {}\n"
        "    for s in shards:\n"
        "        last[s] = time.perf_counter()\n"
        "    return [\n"
        "        s for s in shards\n"
        "        if time.perf_counter() - last[s] > timeout\n"
        "    ]\n"
    )
    assert lint_source(source) == []


def test_cdr011_virtual_assignment_propagates():
    source = (
        "import time\n"
        "def bad(clock):\n"
        "    due = clock.now + 1.0\n"
        "    t0 = time.perf_counter()\n"
        "    return due - t0\n"
    )
    assert "CDR011" in {f.rule_id for f in lint_source(source)}


def test_cdr011_wall_attr_domain_is_class_wide():
    source = (
        "import time\n"
        "class Meter:\n"
        "    def start(self):\n"
        "        self.t0 = time.perf_counter()\n"
        "    def check(self, request):\n"
        "        return self.t0 > request.deadline\n"
    )
    assert "CDR011" in {f.rule_id for f in lint_source(source)}


def test_cdr011_exempts_the_clock_module():
    source = (
        "import time\n"
        "def to_virtual(origin, deadline):\n"
        "    return time.perf_counter() - origin + deadline\n"
    )
    assert lint_source(source, module="repro.service.clock") == []


# ----------------------------------------------------------------------
# whole-tree acceptance


def test_flow_rules_are_clean_over_src_at_head():
    """Acceptance: the CDR009..CDR011 sweep over src finds nothing."""
    from repro.checks import LintConfig, lint_paths

    config = LintConfig(select=frozenset({"CDR009", "CDR010", "CDR011"}))
    findings = lint_paths([str(REPO_ROOT / "src")], config=config)
    assert findings == []
