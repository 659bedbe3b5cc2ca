#!/usr/bin/env python3
"""Domain linter for the ATM reproduction: repo invariants the compiler
cannot see.

Rules (each can be waived on a specific line by putting
``atm-lint: allow(<rule>)`` in a comment on that line or the line above,
followed by a reason):

  nvi-private-final     Backend NVI hooks (do_run_*, do_generate_radar,
                        on_terrain_attached) overridden outside
                        src/atm/backend.hpp must sit in a private section
                        and be sealed: declared `final` (or the class is).
                        Callers must go through the public run_* entry
                        points, which carry the timing + tracing side
                        channel; a public or re-overridable hook reopens
                        the bypass the NVI redesign closed.
  units-suffix          `double` function parameters in public headers
                        must say their unit in the name (_nm, _ms,
                        _periods, _feet, ...) or be a recognized
                        dimensionless/coordinate name. The paper's tasks
                        mix nm, feet, knots, periods, and three time
                        units; an unlabeled double is how nm/hour reaches
                        an nm/period slot without a conversion.
  no-nondeterminism     std::rand, srand, time(...), std::random_device
                        are forbidden in src/: all randomness goes
                        through core::Rng with an explicit seed so every
                        run (and every cross-backend equivalence test) is
                        reproducible.
  backend-registration  Every `class XxxBackend final : public Backend`
                        must be reachable from src/atm/platforms.cpp, the
                        single factory surface benches and the CLI use.
  nolint-reason         NOLINT comments must name the suppressed check
                        and give a reason: `NOLINT(<check>): <why>`.
  scenario-configs      examples/ must not default-construct
                        PipelineConfig / FullSystemConfig and hand-fill
                        the workload fields; instantiate through
                        make_pipeline_config / make_full_config (the
                        scenario registry) so every example states *what*
                        it simulates and picks up scenario-wide knobs
                        (broadphase, sharding, governor, faults) from the
                        single surface. Additionally, neither examples/
                        nor bench/ may assign into cfg.task1.* /
                        cfg.task23.* directly: those bundles are owned by
                        Scenario::policy (and, at run time, by the
                        degradation ladder) — poking them from a driver
                        silently diverges from what `--scenario` claims
                        to run. Tests are exempt (they probe params on
                        purpose).
  sync-wrapper          raw std::mutex / std::lock_guard /
                        std::unique_lock / std::scoped_lock are forbidden
                        in src/ outside src/core/sync/: a raw mutex is
                        invisible to the Clang thread-safety analysis
                        (docs/STATIC_ANALYSIS.md, layer 5), so data it
                        guards can be touched lock-free without any
                        build breaking. Lock through atm::sync::Mutex /
                        MutexLock instead.
  intrinsics-containment
                        raw vector intrinsics (<immintrin.h> and
                        friends, _mm*_* calls, __m128/__m256 types) are
                        forbidden outside src/core/kern/: the batch
                        kernels are the one seam where lane-level code
                        lives, with a scalar twin and bit-exactness
                        tests. An intrinsic sprinkled elsewhere has
                        neither, and silently breaks non-x86 or
                        ATM_HOST_SIMD=OFF builds. Call the kernel API
                        (src/core/kern/kernels.hpp) instead.
  outcome-strip         no code in src/, tests/ or bench/ may assign the
                        literal 0 to a work counter (.box_tests,
                        .pair_tests, .pair_candidates, .rescans,
                        .halo_candidates, .lanes_masked, .sectors) or -1
                        to .kernel: that is the shape of a hand-written
                        "same outcome" list, which goes stale the day a
                        field is added. Compare `stats.outcome()`, the
                        one definition of the outcome (task_types.hpp).

Usage:
  lint_atm.py [ROOT]    lint ROOT (default: repo root containing tools/)
  lint_atm.py --self-test
                        run the built-in fixture test: a synthetic tree
                        with one seeded violation per rule must yield
                        exactly those violations, and a clean tree none.

Exit status: 0 = clean, 1 = violations found, 2 = usage/setup error.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

RULES = (
    "nvi-private-final",
    "units-suffix",
    "no-nondeterminism",
    "backend-registration",
    "nolint-reason",
    "scenario-configs",
    "sync-wrapper",
    "intrinsics-containment",
    "outcome-strip",
)

# --- units-suffix vocabulary -------------------------------------------------

#: A parameter name passes when any underscore-separated token names a unit.
UNIT_TOKENS = {
    "nm", "ms", "us", "ns", "s", "sec", "seconds", "minutes", "hours",
    "periods", "cycles", "deg", "degrees", "rad", "feet", "ft", "knots",
    "hz", "mhz", "ghz", "gbps", "bytes", "bits", "frac", "fraction",
    "ratio", "probability", "alpha", "efficiency", "coeff", "ops",
}

#: Dimensionless or locally-conventional names (coordinates are nm by
#: repo-wide convention; generic math helpers take unitless scalars).
ALLOWED_NAMES = {
    "x", "y", "z", "dx", "dy", "dz", "xi", "yi", "x0", "x1", "y0", "y1",
    "rx", "ry", "px", "py", "cx", "cy", "vx", "vy", "vxi", "vyi",
    "alt", "alti", "alt_a", "alt_b",
    "speed", "v", "p", "c", "r", "d", "lo", "hi", "tol", "value", "w",
    "weight", "mean", "sse", "rmse", "r2", "adj_r2", "a", "b", "n", "t",
}

NVI_HOOK = re.compile(r"\b(do_run_\w+|do_generate_radar|on_terrain_attached)\b")
FORBIDDEN_CALLS = (
    re.compile(r"\bstd::rand\b"),
    re.compile(r"(?<![\w:])srand\s*\("),
    re.compile(r"(?<![\w:.])rand\s*\(\s*\)"),
    re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|&)"),
    re.compile(r"\bstd::time\s*\("),
    re.compile(r"\brandom_device\b"),
)
DOUBLE_PARAM = re.compile(
    r"(?<![\w.])double\s+(\w+)\s*(?:=\s*[^,;()]+)?\s*[,)]")
NOLINT = re.compile(r"NOLINT(NEXTLINE)?(\(([^)]*)\))?(.*)")
BACKEND_CLASS = re.compile(r"class\s+(\w+Backend)[\w\s]*:\s*public\s+Backend")
HANDROLLED_CONFIG = re.compile(
    r"\b(?:\w+::)*(PipelineConfig|FullSystemConfig)\s+\w+\s*;")
#: Assignment into a task-parameter bundle (`cfg.task1.x = ...`). The
#: trailing [^=] keeps comparisons (`==`) out.
TASK_PARAM_POKE = re.compile(r"\.(task1|task23)(?:\.\w+)+\s*=(?!=)")
#: Raw standard lock types (sync-wrapper). Matched on code with line
#: comments stripped, so prose mentioning std::mutex stays legal.
RAW_SYNC_TYPE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
#: Raw x86 vector intrinsics (intrinsics-containment). Matched on code
#: with line comments stripped, so prose mentioning _mm256_min_pd stays
#: legal. Covers the intrinsic headers, _mm*_* calls, and __m### types.
SIMD_INTRINSIC = re.compile(
    r"#\s*include\s*<\w*intrin\.h>"
    r"|\b_mm\d{0,3}_\w+"
    r"|\b__m\d{2,3}[di]?\b")

#: A work counter reset to its default (outcome-strip): the shape of every
#: hand-written outcome projection. `==` and `<=` do not match.
OUTCOME_STRIP = re.compile(
    r"\.(box_tests|pair_tests|pair_candidates|rescans|halo_candidates|"
    r"lanes_masked|sectors)\s*=\s*0(?![\w.])"
    r"|\.kernel\s*=\s*-1(?![\w.])")


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _waived(lines: list[str], idx: int, rule: str) -> bool:
    """True when line idx (0-based) or the line above carries a waiver."""
    tag = f"atm-lint: allow({rule})"
    if tag in lines[idx]:
        return True
    return idx > 0 and tag in lines[idx - 1]


# --- rules -------------------------------------------------------------------

def check_nvi_private_final(path: Path, text: str) -> list[Violation]:
    if path.name == "backend.hpp":
        return []
    out: list[Violation] = []
    lines = text.splitlines()
    access = "private"  # class bodies start private; structs don't override
    class_final = False
    # Join continuation lines so a hook's trailing `final`/`override` on the
    # next physical line still counts as part of its declaration.
    for i, line in enumerate(lines):
        stripped = line.strip()
        m = re.search(r"class\s+\w+[^;{]*", stripped)
        if m and ("{" in line or ":" in stripped):
            class_final = bool(re.search(r"class\s+\w+\s+final\b", stripped))
            access = "private"
        for spec in ("public", "protected", "private"):
            if re.match(rf"{spec}\s*:", stripped):
                access = spec
        hook = NVI_HOOK.search(line)
        if not hook or "=" in stripped.split("(")[0]:
            continue
        # Only declarations (not calls): require a type before the name or
        # the name at the start of the line.
        decl = re.search(rf"[\w>&\]]\s+{hook.group(1)}\s*\(", line) or \
            re.match(rf"\s*{hook.group(1)}\s*\(", line)
        if not decl:
            continue
        if _waived(lines, i, "nvi-private-final"):
            continue
        block = " ".join(lines[i:i + 6])
        decl_text = block.split("{")[0].split(";")[0]
        is_final = class_final or re.search(r"\bfinal\b", decl_text)
        if access != "private":
            out.append(Violation(
                "nvi-private-final", path, i + 1,
                f"{hook.group(1)} override must be private "
                f"(found in {access} section)"))
        elif not is_final:
            out.append(Violation(
                "nvi-private-final", path, i + 1,
                f"{hook.group(1)} override must be final "
                "(or the class must be)"))
    return out


def check_units_suffix(path: Path, text: str) -> list[Violation]:
    out: list[Violation] = []
    lines = text.splitlines()
    for m in DOUBLE_PARAM.finditer(text):
        name = m.group(1)
        if name.endswith("_") or re.match(r"k[A-Z]", name):
            continue  # members / constants, not parameters
        if name in ALLOWED_NAMES:
            continue
        if UNIT_TOKENS.intersection(name.lower().split("_")):
            continue
        line_no = text.count("\n", 0, m.start()) + 1
        # Prose like "4-wide double lanes" in a comment is not a
        # parameter: skip matches at or past a line comment marker.
        line_start = text.rfind("\n", 0, m.start()) + 1
        comment_col = lines[line_no - 1].find("//")
        if comment_col != -1 and m.start() - line_start >= comment_col:
            continue
        if _waived(lines, line_no - 1, "units-suffix"):
            continue
        out.append(Violation(
            "units-suffix", path, line_no,
            f"double parameter '{name}' has no unit suffix "
            "(use _nm/_ms/_periods/_feet/... or a units.hpp constant)"))
    return out


def check_no_nondeterminism(path: Path, text: str) -> list[Violation]:
    out: list[Violation] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        for pat in FORBIDDEN_CALLS:
            if pat.search(line) and not _waived(lines, i, "no-nondeterminism"):
                out.append(Violation(
                    "no-nondeterminism", path, i + 1,
                    f"forbidden nondeterminism source: "
                    f"'{pat.search(line).group(0).strip()}' "
                    "(use core::Rng with an explicit seed)"))
    return out


def check_nolint_reason(path: Path, text: str) -> list[Violation]:
    out: list[Violation] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        for m in NOLINT.finditer(line):
            if _waived(lines, i, "nolint-reason"):
                continue
            checks, trailer = m.group(3), (m.group(4) or "").strip()
            trailer = trailer.lstrip("*/ ").strip()  # close of /* */ comments
            if not checks:
                out.append(Violation(
                    "nolint-reason", path, i + 1,
                    "bare NOLINT: name the suppressed check, "
                    "NOLINT(<check>): <reason>"))
            elif not trailer.lstrip(":- "):
                out.append(Violation(
                    "nolint-reason", path, i + 1,
                    f"NOLINT({checks}) has no reason: "
                    "append ': <why this is safe>'"))
    return out


def check_scenario_configs(path: Path, text: str,
                           handrolled: bool = True) -> list[Violation]:
    out: list[Violation] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if handrolled:
            m = HANDROLLED_CONFIG.search(line)
            if m and not _waived(lines, i, "scenario-configs"):
                maker = ("make_pipeline_config"
                         if m.group(1) == "PipelineConfig"
                         else "make_full_config")
                out.append(Violation(
                    "scenario-configs", path, i + 1,
                    f"hand-rolled {m.group(1)} in an example: instantiate "
                    f"via {maker}(<scenario>, ...) and override fields "
                    "after"))
        poke = TASK_PARAM_POKE.search(line)
        if poke and not _waived(lines, i, "scenario-configs"):
            out.append(Violation(
                "scenario-configs", path, i + 1,
                f"direct write into {poke.group(1)} params: route this "
                "knob through Scenario::policy (scenarios.hpp) so the "
                "scenario name still describes the run"))
    return out


def check_sync_wrapper(path: Path, text: str) -> list[Violation]:
    # src/core/sync/ is the annotated wrapper layer itself — the one
    # place allowed to name the raw standard types.
    if "core/sync" in path.as_posix():
        return []
    out: list[Violation] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        m = RAW_SYNC_TYPE.search(code)
        if m and not _waived(lines, i, "sync-wrapper"):
            out.append(Violation(
                "sync-wrapper", path, i + 1,
                f"raw {m.group(0)} in src/: the thread-safety analysis "
                "cannot see it — use atm::sync::Mutex / MutexLock "
                "(src/core/sync/mutex.hpp)"))
    return out


def check_intrinsics_containment(path: Path, text: str) -> list[Violation]:
    # src/core/kern/ is the SIMD kernel layer itself — the one place
    # allowed to name raw vector intrinsics.
    if "core/kern" in path.as_posix():
        return []
    out: list[Violation] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        m = SIMD_INTRINSIC.search(code)
        if m and not _waived(lines, i, "intrinsics-containment"):
            out.append(Violation(
                "intrinsics-containment", path, i + 1,
                f"raw SIMD intrinsic '{m.group(0).strip()}' outside "
                "src/core/kern/: route lane-level code through the "
                "batch-kernel API (src/core/kern/kernels.hpp)"))
    return out


def check_outcome_strip(path: Path, text: str) -> list[Violation]:
    out: list[Violation] = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        m = OUTCOME_STRIP.search(code)
        if m and not _waived(lines, i, "outcome-strip"):
            out.append(Violation(
                "outcome-strip", path, i + 1,
                f"work counter reset '{m.group(0).strip()}': compare "
                "stats.outcome() instead of stripping the work fields"))
    return out


def check_backend_registration(src: Path) -> list[Violation]:
    platforms = src / "atm" / "platforms.cpp"
    if not platforms.is_file():
        return []
    registry = platforms.read_text(encoding="utf-8")
    out: list[Violation] = []
    for header in sorted((src / "atm").glob("*_backend.hpp")):
        text = header.read_text(encoding="utf-8")
        lines = text.splitlines()
        for m in BACKEND_CLASS.finditer(text):
            line_no = text.count("\n", 0, m.start()) + 1
            if _waived(lines, line_no - 1, "backend-registration"):
                continue
            if m.group(1) not in registry:
                out.append(Violation(
                    "backend-registration", header, line_no,
                    f"{m.group(1)} is not constructed anywhere in "
                    "src/atm/platforms.cpp: register a make_* factory"))
    return out


# --- driver ------------------------------------------------------------------

def lint(root: Path) -> list[Violation]:
    src = root / "src"
    if not src.is_dir():
        print(f"lint_atm: no src/ under {root}", file=sys.stderr)
        sys.exit(2)
    violations: list[Violation] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h"):
            continue
        text = path.read_text(encoding="utf-8")
        if path.suffix in (".hpp", ".h"):
            violations += check_nvi_private_final(path, text)
            violations += check_units_suffix(path, text)
        violations += check_no_nondeterminism(path, text)
        violations += check_nolint_reason(path, text)
        violations += check_sync_wrapper(path, text)
        violations += check_intrinsics_containment(path, text)
        violations += check_outcome_strip(path, text)
    violations += check_backend_registration(src)
    tests = root / "tests"
    if tests.is_dir():
        for path in sorted(tests.rglob("*.cpp")):
            violations += check_outcome_strip(
                path, path.read_text(encoding="utf-8"))
    examples = root / "examples"
    if examples.is_dir():
        for path in sorted(examples.rglob("*.cpp")):
            text = path.read_text(encoding="utf-8")
            violations += check_scenario_configs(path, text)
            violations += check_intrinsics_containment(path, text)
    bench = root / "bench"
    if bench.is_dir():
        # Benches may hand-assemble configs (they sweep axes on purpose)
        # but must not poke task-parameter bundles past the scenario.
        for path in sorted(bench.rglob("*.cpp")):
            text = path.read_text(encoding="utf-8")
            violations += check_scenario_configs(path, text,
                                                 handrolled=False)
            violations += check_intrinsics_containment(path, text)
            violations += check_outcome_strip(path, text)
    return violations


# --- self test ---------------------------------------------------------------

_FIXTURE_CLEAN = {
    "src/atm/platforms.cpp": """
#include "src/atm/good_backend.hpp"
std::unique_ptr<Backend> make_good() {
  return std::make_unique<GoodBackend>();
}
""",
    "src/atm/good_backend.hpp": """
class GoodBackend final : public Backend {
 public:
  void load() override;
 private:
  Task1Result do_run_task1(RadarFrame& frame,
                           const Task1Params& params) final;
};
double fly(double range_nm, double wait_periods = 2.0);
int i = foo();  // NOLINT(bugprone-thing): fixture needs the raw call
""",
    "examples/good_example.cpp": """
int main() {
  tasks::PipelineConfig cfg = tasks::make_pipeline_config(scenario);
  cfg.aircraft = 42;
}
""",
    "bench/good_bench.cpp": """
int main() {
  tasks::Scenario s = tasks::dense_en_route();
  s.policy.governor.enabled = true;
  tasks::PipelineConfig cfg = tasks::make_pipeline_config(s);
  bool brute = cfg.task1.broadphase == core::spatial::kBruteForce;
}
""",
    # Comparing or counting work is fine; only a reset to the default is
    # the shape of an outcome strip.
    "tests/good_equivalence_test.cpp": """
TEST(Good, SameOutcome) {
  EXPECT_EQ(a.stats.outcome(), b.stats.outcome());
  EXPECT_EQ(b.stats.sectors == 0, true);
  work.box_tests = eligible;
}
""",
    # The wrapper layer itself may (must) name the raw types...
    "src/core/sync/mutex.hpp": """
#include <mutex>
namespace atm::sync {
class Mutex {
 private:
  std::mutex m_;
};
}
""",
    # ...elsewhere a comment mention is fine, and a waiver silences a use.
    "src/rt/good_waiter.cpp": """
// interop shim over a std::mutex owned by the embedding app
void pump(App& app) {
  // atm-lint: allow(sync-wrapper): foreign lock owned by the host app
  std::lock_guard<std::mutex> lk(app.mu);
  app.drain();
}
""",
    # The kernel layer itself may (must) use raw intrinsics...
    "src/core/kern/good_kernels.cpp": """
#include <immintrin.h>
__m256d splat(double v) { return _mm256_set1_pd(v); }
""",
    # ...elsewhere a comment mention is fine, and a waiver silences a use.
    "src/rt/good_pause.cpp": """
// spin hint comparable to _mm_pause on x86
void spin() {
  // atm-lint: allow(intrinsics-containment): pause hint, no lane math
  _mm_pause();
}
""",
}

_FIXTURE_VIOLATIONS = {
    # one seeded violation per rule, each on a known line
    "src/atm/bad_backend.hpp": """
class BadBackend final : public Backend {
 public:
  Task1Result do_run_task1(RadarFrame& frame,
                           const Task1Params& params) override;
};
class OrphanBackend final : public Backend {};
double climb(double rate);
""",
    "src/core/clock.cpp": """
#include <ctime>
static long stamp() { return time(nullptr); }
static int noise() { return std::rand(); }  // NOLINT
""",
    "examples/bad_example.cpp": """
int main() {
  tasks::PipelineConfig cfg;
  cfg.aircraft = 42;
}
""",
    "bench/bad_bench.cpp": """
int main() {
  tasks::PipelineConfig cfg = tasks::make_pipeline_config(scenario);
  cfg.task23.resolution.turn_step_deg = 6.0;
}
""",
    "src/obs/bad_sink.hpp": """
#pragma once
#include <mutex>
class BadSink {
 private:
  std::mutex m_;
};
""",
    "tests/bad_equivalence_test.cpp": """
Task1Stats strip(Task1Stats s) {
  s.box_tests = 0;
  return s;
}
""",
    "src/atm/bad_simd.cpp": """
#include <immintrin.h>
double sum4(const double* p) {
  __m256d v = _mm256_loadu_pd(p);
  return v[0] + v[1] + v[2] + v[3];
}
""",
}


def self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="lint_atm_fixture_") as tmp:
        root = Path(tmp)
        for rel, content in {**_FIXTURE_CLEAN, **_FIXTURE_VIOLATIONS}.items():
            dest = root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(content, encoding="utf-8")
        got = lint(root)
        by_rule: dict[str, int] = {}
        for v in got:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        want = {
            "nvi-private-final": 1,   # do_run_task1 public, not final
            "units-suffix": 1,        # 'rate' unlabeled
            "no-nondeterminism": 2,   # time(nullptr), std::rand
            "backend-registration": 2,  # BadBackend + OrphanBackend
            "nolint-reason": 1,       # bare NOLINT
            # hand-rolled PipelineConfig + bench task-param poke
            "scenario-configs": 2,
            "sync-wrapper": 1,        # raw std::mutex outside core/sync
            # immintrin.h include + __m256d use, outside core/kern
            "intrinsics-containment": 2,
            "outcome-strip": 1,       # s.box_tests = 0 in a test
        }
        ok = by_rule == want
        if not ok:
            print(f"self-test FAILED: want {want}, got {by_rule}",
                  file=sys.stderr)
            for v in got:
                print(f"  {v}", file=sys.stderr)
            return 1

        # The clean fixture alone must produce nothing.
        for rel in _FIXTURE_VIOLATIONS:
            (root / rel).unlink()
        leftover = lint(root)
        if leftover:
            print("self-test FAILED: clean fixture not clean:",
                  file=sys.stderr)
            for v in leftover:
                print(f"  {v}", file=sys.stderr)
            return 1
    print("lint_atm self-test: ok")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test()
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    violations = lint(root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_atm: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_atm: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
