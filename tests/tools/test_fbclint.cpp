// Regression tests pinning fbclint's L001 view-lifetime rule against a
// minimized reconstruction of the PR 1 dangling-span bug (a temporary
// degrees() vector bound to OptCacheSelect's stored span parameter).
// These drive the rule engine directly through fbclint_lib so a refactor
// of the linter cannot silently lose the one bug class it was built for.
#include "fbclint/lexer.hpp"
#include "fbclint/model.hpp"
#include "fbclint/rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fbclint {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Lexes the PR 1 fixture pair (API header + bug translation unit) into a
/// project model, exactly as `fbclint src` would.
ProjectModel pr1_model() {
  const std::string root = std::string(FBCLINT_FIXTURE_DIR) + "/case1";
  std::vector<SourceFile> files;
  for (const char* rel : {"/src/core/select.hpp", "/src/core/dangling.cpp"}) {
    const std::string path = root + rel;
    files.push_back(lex_file(path, slurp(path)));
  }
  return build_model(std::move(files));
}

bool has_diag_at(const std::vector<Diagnostic>& diags, const char* rule,
                 const char* path_suffix, int line) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == rule && d.line == line &&
           d.path.size() >= std::string(path_suffix).size() &&
           d.path.compare(d.path.size() - std::string(path_suffix).size(),
                          std::string::npos, path_suffix) == 0;
  });
}

TEST(FbclintL001, ModelSeesOwningDegreesAndViewSignatures) {
  const ProjectModel model = pr1_model();
  // degrees() returns std::vector by value -> owning returner.
  EXPECT_TRUE(model.owning_returners.count("degrees"));
  // OptCacheSelect's ctor takes the span in parameter slot 1, run_select
  // in slot 0.
  ASSERT_TRUE(model.view_sigs.count("OptCacheSelect"));
  EXPECT_TRUE(model.view_sigs.at("OptCacheSelect").count(1));
  ASSERT_TRUE(model.view_sigs.count("run_select"));
  EXPECT_TRUE(model.view_sigs.at("run_select").count(0));
}

TEST(FbclintL001, FlagsPr1ConstructorShape) {
  // The exact PR 1 shape: `OptCacheSelect selector(catalog,
  // history.degrees());` -- a temporary bound to a stored span.
  const ProjectModel model = pr1_model();
  const std::vector<Diagnostic> diags = rule_view_lifetime(model);
  EXPECT_TRUE(has_diag_at(diags, "L001", "src/core/dangling.cpp", 10))
      << "L001 no longer catches the PR 1 constructor shape";
}

TEST(FbclintL001, FlagsDirectCallShape) {
  const ProjectModel model = pr1_model();
  const std::vector<Diagnostic> diags = rule_view_lifetime(model);
  EXPECT_TRUE(has_diag_at(diags, "L001", "src/core/dangling.cpp", 15))
      << "L001 no longer catches a temporary passed straight to a "
         "span-taking function";
}

TEST(FbclintL001, DoesNotFlagTheShippedFix) {
  // PR 1's fix binds the owning value to a named local first; flagging it
  // would make the rule unusable.
  const ProjectModel model = pr1_model();
  const std::vector<Diagnostic> diags = rule_view_lifetime(model);
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.line, 21) << d.message;
    EXPECT_NE(d.line, 22) << d.message;
    EXPECT_NE(d.line, 23) << d.message;
  }
  // And exactly the two seeded sites fire -- no noise.
  EXPECT_EQ(diags.size(), 2u);
}

TEST(FbclintL001, AmbiguousNamesAreNotFlagged) {
  // A name declared BOTH as owning-returning and view-returning (the
  // production RequestHistory::degrees() returns a span while a test
  // generator returns a vector) must drop out of owning_returners --
  // otherwise safe call sites get flagged through name collision.
  const std::string header =
      "#pragma once\n"
      "#include <span>\n"
      "#include <vector>\n"
      "std::vector<int> degrees();\n"
      "std::span<const int> degrees2();\n"
      "struct Other { std::span<const int> degrees(); };\n"
      "void consume(std::span<const int> values);\n";
  const std::string unit =
      "#include \"api.hpp\"\n"
      "void f() { consume(degrees()); }\n";
  std::vector<SourceFile> files;
  files.push_back(lex_file("src/api.hpp", header));
  files.push_back(lex_file("src/use.cpp", unit));
  const ProjectModel model = build_model(std::move(files));
  EXPECT_FALSE(model.owning_returners.count("degrees"));
  EXPECT_TRUE(rule_view_lifetime(model).empty());
}

TEST(FbclintL001, SuppressionCommentSilencesTheRule) {
  const std::string header =
      "#pragma once\n"
      "#include <span>\n"
      "#include <vector>\n"
      "std::vector<int> make();\n"
      "void consume(std::span<const int> values);\n";
  const std::string unit =
      "#include \"api.hpp\"\n"
      "// fbclint:ignore(L001) -- consume() copies before returning\n"
      "void f() { consume(make()); }\n";
  std::vector<SourceFile> files;
  files.push_back(lex_file("src/api.hpp", header));
  files.push_back(lex_file("src/use.cpp", unit));
  const ProjectModel model = build_model(std::move(files));

  std::vector<Diagnostic> diags = rule_view_lifetime(model);
  ASSERT_EQ(diags.size(), 1u);  // fires before suppression is applied

  const Markers markers = collect_markers(model);
  EXPECT_TRUE(apply_suppressions(std::move(diags), markers).empty());
}

/// Lexes the case3 lock-discipline fixture pair into a project model.
ProjectModel case3_model() {
  const std::string root = std::string(FBCLINT_FIXTURE_DIR) + "/case3";
  std::vector<SourceFile> files;
  for (const char* rel : {"/src/grid/locks.hpp", "/src/grid/hier.hpp"}) {
    const std::string path = root + rel;
    files.push_back(lex_file(path, slurp(path)));
  }
  return build_model(std::move(files));
}

/// Lexes the case2 service fixture (anchors + codec + wire docs on disk)
/// into a project model, as `fbclint <fixture>/case2` would.
ProjectModel case2_model() {
  const std::string root = std::string(FBCLINT_FIXTURE_DIR) + "/case2";
  std::vector<SourceFile> files;
  for (const char* rel :
       {"/src/service/server.hpp", "/src/service/server.cpp",
        "/src/service/protocol.hpp"}) {
    const std::string path = root + rel;
    files.push_back(lex_file(path, slurp(path)));
  }
  return build_model(std::move(files));
}

TEST(FbclintL007, ModelParsesLockAnnotations) {
  const ProjectModel model = case3_model();
  const LockInfo* table = nullptr;
  const LockInfo* stats = nullptr;
  const LockInfo* journal = nullptr;
  for (const LockInfo& lock : model.locks) {
    if (lock.name == "table_mu_") table = &lock;
    if (lock.name == "stats_mu_") stats = &lock;
    if (lock.name == "journal_mu_") journal = &lock;
  }
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->level, 10);
  EXPECT_EQ(table->owner, "Store");
  ASSERT_EQ(table->guards.size(), 1u);
  EXPECT_EQ(table->guards[0], "items_");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->level, 40);
  // journal_mu_ carries both the annotation level and the drifted
  // OrderedMutex constructor literal.
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->level, 20);
  EXPECT_EQ(journal->ctor_level, 30);

  ASSERT_TRUE(model.fn_locks.count("count_locked"));
  EXPECT_TRUE(model.fn_locks.at("count_locked").needs.count("table_mu_"));
  ASSERT_TRUE(model.fn_locks.count("compact"));
  EXPECT_TRUE(model.fn_locks.at("compact").excludes.count("table_mu_"));
  ASSERT_TRUE(model.fn_locks.count("flush_all"));
  EXPECT_TRUE(model.fn_locks.at("flush_all").blocking);
}

TEST(FbclintL007, CatchesEverySeededDisciplineViolation) {
  const ProjectModel model = case3_model();
  const std::vector<Diagnostic> diags = rule_lock_discipline(model);
  // locks.hpp: inversion, recursion, guard-coverage gap, sleep under
  // lock, requires violation, excludes violation.
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/grid/locks.hpp", 49));
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/grid/locks.hpp", 57));
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/grid/locks.hpp", 63));
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/grid/locks.hpp", 70));
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/grid/locks.hpp", 78));
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/grid/locks.hpp", 87));
  // hier.hpp: fbc:blocking call under a lock, annotation/initializer
  // drift.
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/grid/hier.hpp", 29));
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/grid/hier.hpp", 36));
  // ...and nothing else: the clean methods (put, wait_nonempty,
  // merge_stats, size) stay silent.
  EXPECT_EQ(diags.size(), 8u);
}

TEST(FbclintL007, FlagsRepoStyleOrderedMutexInversion) {
  // The repo idiom: fbc::OrderedMutex members with matching
  // fbc:lock-level annotations. bad() acquires 40 then 10 -- exactly the
  // obs_mu_ -> mu_ inversion the rule exists to catch; good() is the
  // same pair in hierarchy order and must not fire.
  const std::string header =
      "#pragma once\n"
      "#include <mutex>\n"
      "#include \"util/ordered_mutex.hpp\"\n"
      "struct S {\n"
      "  void good() {\n"
      "    std::lock_guard<fbc::OrderedMutex> a(mu_);\n"
      "    std::lock_guard<fbc::OrderedMutex> b(obs_mu_);\n"
      "  }\n"
      "  void bad() {\n"
      "    std::lock_guard<fbc::OrderedMutex> a(obs_mu_);\n"
      "    std::lock_guard<fbc::OrderedMutex> b(mu_);\n"
      "  }\n"
      "  // fbc:lock-level(10)\n"
      "  mutable fbc::OrderedMutex mu_{10, \"S::mu_\"};\n"
      "  // fbc:lock-level(40)\n"
      "  mutable fbc::OrderedMutex obs_mu_{40, \"S::obs_mu_\"};\n"
      "};\n";
  std::vector<SourceFile> files;
  files.push_back(lex_file("src/s.hpp", header));
  const ProjectModel model = build_model(std::move(files));
  const std::vector<Diagnostic> diags = rule_lock_discipline(model);
  ASSERT_EQ(diags.size(), 1u) << (diags.empty() ? "" : diags[0].message);
  EXPECT_TRUE(has_diag_at(diags, "L007", "src/s.hpp", 11));
}

TEST(FbclintL007, UnlockRelockKeepsTrackingTheGuard) {
  // The BundleServer::acquire() shape that produced the rule's only two
  // repo false positives during bring-up: unique_lock, explicit
  // unlock(), a sleep while NOT holding the lock, relock(), then a call
  // requiring the lock. All four steps are legal and must stay silent.
  const std::string header =
      "#pragma once\n"
      "#include <mutex>\n"
      "#include <thread>\n"
      "struct S {\n"
      "  void drain() {\n"
      "    std::unique_lock<std::mutex> lock(mu_);\n"
      "    step_locked();\n"
      "    lock.unlock();\n"
      "    std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "    lock.lock();\n"
      "    step_locked();\n"
      "  }\n"
      "  // fbc:requires(mu_)\n"
      "  void step_locked();\n"
      "  // fbc:lock-level(10)\n"
      "  std::mutex mu_;\n"
      "};\n";
  std::vector<SourceFile> files;
  files.push_back(lex_file("src/s.hpp", header));
  const ProjectModel model = build_model(std::move(files));
  const std::vector<Diagnostic> diags = rule_lock_discipline(model);
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags[0].message);
}

TEST(FbclintL008, CatchesEverySeededCoherenceGap) {
  const ProjectModel model = case2_model();
  const std::vector<Diagnostic> diags = rule_wire_coherence(model);
  // protocol.hpp: missing | 2 | Pong | doc row, StatsReply row-count
  // drift at the #define line, and the evictions row unset by stats().
  EXPECT_TRUE(has_diag_at(diags, "L008", "service/protocol.hpp", 10));
  EXPECT_TRUE(has_diag_at(diags, "L008", "service/protocol.hpp", 18));
  EXPECT_TRUE(has_diag_at(diags, "L008", "service/protocol.hpp", 21));
  // server.cpp: the undocumented svc.hold_us metric literal.
  EXPECT_TRUE(has_diag_at(diags, "L008", "service/server.cpp", 24));
  // server.hpp: the undocumented svc.drain_us histogram row.
  EXPECT_TRUE(has_diag_at(diags, "L008", "service/server.hpp", 12));
  EXPECT_EQ(diags.size(), 5u);
}

}  // namespace
}  // namespace fbclint
