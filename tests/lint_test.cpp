// Tests for shlint, the determinism-contract static analyzer.
//
// Two layers: unit tests over the lexer/rule engine (linked directly from
// sh_lint_core), and end-to-end CLI tests that execute the shlint binary
// over the seeded fixtures in tests/lint_fixtures/ and assert exact rule
// IDs, line numbers, escape-hatch behavior, and exit codes.  The fixture
// directory carries a `.shlint-skip` marker, so repo-wide scans prune it
// and only these explicit-path invocations ever lint the seeded files.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "shlint/allowlist.h"
#include "shlint/include_graph.h"
#include "shlint/lexer.h"
#include "shlint/rules.h"
#include "shlint/sarif.h"
#include "shlint/semantic.h"

namespace {

using sh::lint::Diagnostic;
using sh::lint::FileScan;
using sh::lint::scan_source;

struct RunResult {
  int exit_code = -1;
  std::string out;
};

RunResult run_shlint(const std::string& args) {
  const std::string cmd =
      std::string(SHLINT_BIN) + " " + args + " 2>/dev/null";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) r.out.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(SHLINT_FIXTURE_DIR) + "/" + name;
}

/// Run shlint with the fixture directory as the working directory, so
/// fixture-relative paths (and the paths embedded in SARIF output) are
/// stable no matter where the test binary runs.
RunResult run_shlint_in_fixture_dir(const std::string& args) {
  const std::string cmd = std::string("cd ") + SHLINT_FIXTURE_DIR + " && " +
                          SHLINT_BIN + " " + args + " 2>/dev/null";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) r.out.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out;
  char c;
  while (in.get(c)) out += c;
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

int count_lines(const std::string& s) {
  int lines = 0;
  for (char c : s) {
    if (c == '\n') ++lines;
  }
  return lines;
}

// ---- Lexer unit tests ---------------------------------------------------

TEST(LexerTest, BlanksStringAndCommentContents) {
  const FileScan scan = scan_source(
      "int x = f(\"std::rand()\");  // std::random_device here\n"
      "/* time(nullptr) */ int y = 0;\n");
  ASSERT_EQ(scan.line_count(), 3);  // Trailing newline yields an empty line.
  EXPECT_EQ(scan.code[0].find("rand"), std::string::npos);
  EXPECT_EQ(scan.code[1].find("time"), std::string::npos);
  EXPECT_NE(scan.comments[0].find("std::random_device"), std::string::npos);
  EXPECT_NE(scan.comments[1].find("time(nullptr)"), std::string::npos);
  // Delimiters survive so columns still line up.
  EXPECT_NE(scan.code[0].find('"'), std::string::npos);
}

TEST(LexerTest, DigitSeparatorIsNotACharLiteral) {
  const FileScan scan = scan_source("constexpr long k = 1'000'000; f(k);\n");
  EXPECT_NE(scan.code[0].find("f(k)"), std::string::npos);
}

TEST(LexerTest, RawStringsAreBlanked) {
  const FileScan scan =
      scan_source("auto s = R\"(getenv(\"HOME\") and time(0))\";\ng();\n");
  EXPECT_EQ(scan.code[0].find("getenv"), std::string::npos);
  EXPECT_NE(scan.code[1].find("g()"), std::string::npos);
}

TEST(LexerTest, MultiLineBlockCommentKeepsLineStructure) {
  const FileScan scan = scan_source("/* a\nb\nc */ int z;\n");
  ASSERT_GE(scan.line_count(), 3);
  EXPECT_NE(scan.code[2].find("int z"), std::string::npos);
  EXPECT_NE(scan.comments[1].find('b'), std::string::npos);
}

TEST(LexerTest, QualifiedIdentifierExtraction) {
  const FileScan scan =
      scan_source("auto t = std::chrono::steady_clock::now();\nsim.time();\n");
  const auto tokens = sh::lint::qualified_identifiers(scan);
  bool found_clock = false;
  bool time_is_member = false;
  for (const auto& tok : tokens) {
    if (tok.text == "std::chrono::steady_clock::now") {
      found_clock = true;
      EXPECT_TRUE(tok.followed_by_call);
      EXPECT_FALSE(tok.member_access);
      EXPECT_EQ(tok.line, 1);
    }
    if (tok.text == "time") time_is_member = tok.member_access;
  }
  EXPECT_TRUE(found_clock);
  EXPECT_TRUE(time_is_member);
}

TEST(LexerTest, SplitSegments) {
  const auto segs = sh::lint::split_segments("std::chrono::steady_clock");
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], "std");
  EXPECT_EQ(segs[2], "steady_clock");
}

// ---- Rule engine unit tests ---------------------------------------------

TEST(RulesTest, RuleTableIsStable) {
  const auto& rules = sh::lint::all_rules();
  ASSERT_EQ(rules.size(), 12u);
  const char* expected[] = {"D1", "D2", "D3", "D4", "D5", "L1",
                            "L2", "L3", "T1", "T2", "F1", "F2"};
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(rules[i].id, expected[i]);
  }
}

TEST(RulesTest, AllowCommentParsing) {
  EXPECT_TRUE(sh::lint::allows_in_comment("plain comment").empty());
  const auto one = sh::lint::allows_in_comment(" shlint:allow(D1)");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], "D1");
  const auto two = sh::lint::allows_in_comment("shlint:allow(D1, D3) rest");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], "D1");
  EXPECT_EQ(two[1], "D3");
}

TEST(RulesTest, HeaderWithoutPragmaOnceIsD4) {
  const FileScan scan = scan_source("#ifndef X\n#define X\n#endif\n");
  const auto diags = sh::lint::check_file("foo/bar.h", scan);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D4");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(RulesTest, RngModuleIsExemptFromD1D2) {
  const FileScan scan = scan_source(
      "#pragma once\n"
      "#include <random>\n"
      "inline unsigned boot() { return std::mt19937(1)(); }\n");
  EXPECT_TRUE(sh::lint::check_file("src/util/rng.h", scan).empty());
  const auto diags = sh::lint::check_file("src/core/hints.h", scan);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D2");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(RulesTest, AllowlistSuffixMatching) {
  std::vector<std::string> errors;
  const auto list = sh::lint::Allowlist::parse(
      "# comment\nD1 tests/exp_test.cpp\n* tools/generated/\n", &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(list.size(), 2u);
  Diagnostic d{"/abs/repo/tests/exp_test.cpp", 10, "D1", "m"};
  EXPECT_TRUE(list.covers(d));
  d.rule = "D2";
  EXPECT_FALSE(list.covers(d));
  Diagnostic dir{"repo/tools/generated/x.cpp", 1, "D5", "m"};
  EXPECT_TRUE(list.covers(dir));
  Diagnostic other{"tests/unrelated_test.cpp", 1, "D1", "m"};
  EXPECT_FALSE(list.covers(other));
  // A same-named file in a different directory must not match.
  Diagnostic cousin{"other/exp_test.cpp", 1, "D1", "m"};
  EXPECT_FALSE(list.covers(cousin));
}

TEST(RulesTest, AllowlistRejectsUnknownRule) {
  std::vector<std::string> errors;
  sh::lint::Allowlist::parse("D9 foo.cpp\n", &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("line 1"), std::string::npos);
}

// ---- Lexer regressions: line-desync bugs --------------------------------

// A backslash-newline splice continues a // comment onto the next physical
// line ([lex.phases] p2); the spliced line must land in the comment view,
// not the code view.
TEST(LexerTest, BackslashContinuationExtendsLineComment) {
  const FileScan scan = scan_source(
      "// comment that continues \\\n"
      "int hidden = std::rand();\n"
      "int visible = 1;\n");
  ASSERT_GE(scan.line_count(), 3);
  EXPECT_EQ(scan.code[1].find("rand"), std::string::npos);
  EXPECT_NE(scan.comments[1].find("rand"), std::string::npos);
  EXPECT_NE(scan.code[2].find("visible"), std::string::npos);
}

// `R"` followed by an invalid delimiter (stringized macro bodies produce
// `R")`) is an ordinary string, not a raw string; treating it as raw used
// to swallow everything to EOF and blank later violations.
TEST(LexerTest, InvalidRawDelimiterFallsBackToOrdinaryString) {
  const FileScan scan = scan_source(
      "const char* s = SHOW(R\"); // rebalanced: \"\n"
      "int next = std::rand();\n");
  ASSERT_GE(scan.line_count(), 2);
  EXPECT_NE(scan.code[1].find("rand"), std::string::npos);
}

// A valid raw string still blanks across lines with line numbers intact.
TEST(LexerTest, ValidRawDelimiterStillScansAsRawString) {
  const FileScan scan = scan_source(
      "auto s = R\"x(line one\nstd::rand()\n)x\"; int after = 1;\n");
  ASSERT_GE(scan.line_count(), 3);
  EXPECT_EQ(scan.code[1].find("rand"), std::string::npos);
  EXPECT_NE(scan.code[2].find("after"), std::string::npos);
}

TEST(LexerTest, IncludesAreRecordedWithLines) {
  const FileScan scan = scan_source(
      "#pragma once\n"
      "#include \"util/rng.h\"\n"
      "#include <vector>\n"
      "#include \"exp/sweep.h\"\n");
  ASSERT_EQ(scan.includes.size(), 2u);
  EXPECT_EQ(scan.includes[0].path, "util/rng.h");
  EXPECT_EQ(scan.includes[0].line, 2);
  EXPECT_EQ(scan.includes[1].path, "exp/sweep.h");
  EXPECT_EQ(scan.includes[1].line, 4);
}

// ---- Layer manifest unit tests ------------------------------------------

TEST(LayerManifestTest, ParsesLayersAndKernelTus) {
  std::vector<std::string> errors;
  const auto m = sh::lint::LayerManifest::parse(
      "# comment\n"
      "layer util\n"
      "layer core transport\n"
      "kernel-tu src/util/detmath_portable.cpp\n",
      &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(m.layers.size(), 2u);
  EXPECT_EQ(m.layer_of.at("util"), 0);
  EXPECT_EQ(m.layer_of.at("core"), 1);
  EXPECT_EQ(m.layer_of.at("transport"), 1);
  ASSERT_EQ(m.kernel_tus.size(), 1u);
  EXPECT_EQ(m.kernel_tus[0], "src/util/detmath_portable.cpp");
}

TEST(LayerManifestTest, RejectsDuplicateModuleAndUnknownDirective) {
  std::vector<std::string> errors;
  sh::lint::LayerManifest::parse("layer util\nlayer util\nbogus x\n",
                                 &errors);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(errors[1].find("line 3"), std::string::npos);
}

TEST(LayerManifestTest, SrcRelativeAndModule) {
  EXPECT_EQ(sh::lint::src_relative("src/util/rng.h"), "util/rng.h");
  EXPECT_EQ(sh::lint::src_relative("/abs/repo/src/exp/sweep.cpp"),
            "exp/sweep.cpp");
  EXPECT_EQ(sh::lint::src_relative("my_src/x.h"), "");
  EXPECT_EQ(sh::lint::module_of("util/rng.h"), "util");
  EXPECT_EQ(sh::lint::module_of("toplevel.h"), "");
}

// ---- CLI end-to-end over the seeded fixtures ----------------------------

TEST(ShlintCliTest, D1FixtureReportsExactLines) {
  const auto r = run_shlint("--quiet " + fixture("d1_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 5);
  for (int line : {10, 15, 22, 26, 30}) {
    EXPECT_NE(
        r.out.find("d1_violation.cpp:" + std::to_string(line) + ": [D1]"),
        std::string::npos)
        << "missing line " << line << " in:\n" << r.out;
  }
}

TEST(ShlintCliTest, D2FixtureReportsEngineAndDistribution) {
  const auto r = run_shlint("--quiet " + fixture("d2_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 2);
  EXPECT_NE(r.out.find("d2_violation.cpp:5: [D2]"), std::string::npos);
  EXPECT_NE(r.out.find("d2_violation.cpp:6: [D2]"), std::string::npos);
  EXPECT_NE(r.out.find("std::mt19937"), std::string::npos);
  EXPECT_NE(r.out.find("std::uniform_real_distribution"),
            std::string::npos);
}

TEST(ShlintCliTest, D3FixtureFlagsRangeForAndBegin) {
  const auto r = run_shlint("--quiet " + fixture("d3_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 2);
  EXPECT_NE(r.out.find("d3_violation.cpp:10: [D3]"), std::string::npos);
  EXPECT_NE(r.out.find("d3_violation.cpp:16: [D3]"), std::string::npos);
}

TEST(ShlintCliTest, D4FixtureFlagsHeader) {
  const auto r = run_shlint("--quiet " + fixture("d4_violation.h"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 1);
  EXPECT_NE(r.out.find("d4_violation.h:1: [D4]"), std::string::npos);
}

TEST(ShlintCliTest, D5FixtureFlagsFloatingAccumulate) {
  const auto r = run_shlint("--quiet " + fixture("d5_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 1);
  EXPECT_NE(r.out.find("d5_violation.cpp:8: [D5]"), std::string::npos);
}

TEST(ShlintCliTest, CleanCounterpartsPass) {
  for (const char* name :
       {"d1_clean.cpp", "d2_clean.cpp", "d3_clean.cpp", "d4_clean.h",
        "d5_clean.cpp"}) {
    const auto r = run_shlint("--quiet " + fixture(name));
    EXPECT_EQ(r.exit_code, 0) << name << " output:\n" << r.out;
    EXPECT_TRUE(r.out.empty()) << name << " output:\n" << r.out;
  }
}

TEST(ShlintCliTest, InlineAllowSuppresses) {
  const auto r = run_shlint("--quiet " + fixture("allow_inline.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

// exp::SweepRunner's timing pattern: wall-clock reads sanctioned per call
// site.
TEST(ShlintCliTest, BenchTimerInlineAllowPasses) {
  const auto r = run_shlint("--quiet " + fixture("d1_bench_timer.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ShlintCliTest, FileAllowSuppressesOnlyNamedRule) {
  const auto r = run_shlint("--quiet " + fixture("allow_file.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
}

TEST(ShlintCliTest, AllowlistFileSuppresses) {
  const auto bare = run_shlint("--quiet " + fixture("allowlisted.cpp"));
  EXPECT_EQ(bare.exit_code, 1);
  EXPECT_NE(bare.out.find("allowlisted.cpp:6: [D1]"), std::string::npos);

  const std::string list_path =
      ::testing::TempDir() + "/shlint_allowlist.txt";
  {
    std::ofstream out(list_path);
    out << "# temporary, written by lint_test\n"
        << "D1 lint_fixtures/allowlisted.cpp\n";
  }
  const auto allowed = run_shlint("--quiet --allowlist " + list_path + " " +
                                  fixture("allowlisted.cpp"));
  EXPECT_EQ(allowed.exit_code, 0) << allowed.out;
  EXPECT_TRUE(allowed.out.empty()) << allowed.out;
}

TEST(ShlintCliTest, ListRulesPrintsTable) {
  const auto r = run_shlint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* id : {"D1", "D2", "D3", "D4", "D5"}) {
    EXPECT_NE(r.out.find(id), std::string::npos) << r.out;
  }
}

TEST(ShlintCliTest, MissingPathIsUsageError) {
  EXPECT_EQ(run_shlint("--quiet no/such/path.cpp").exit_code, 2);
  EXPECT_EQ(run_shlint("").exit_code, 2);
}

// ---- Layering (L-rules) --------------------------------------------------

TEST(ShlintCliTest, LayeringFixtureReportsBackEdgeCycleAndUnknownModule) {
  const auto r = run_shlint_in_fixture_dir(
      "--quiet --layers layering_layers.txt layering_bad");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 3) << r.out;
  EXPECT_NE(r.out.find("layering_bad/src/util/low.h:4: [L1]"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("layering_bad/src/util/a.h:4: [L2]"),
            std::string::npos)
      << r.out;
  EXPECT_NE(
      r.out.find("include cycle: util/a.h -> util/b.h -> util/a.h"),
      std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("layering_bad/src/rogue/thing.h:1: [L3]"),
            std::string::npos)
      << r.out;
}

TEST(ShlintCliTest, LayeringCleanTreePasses) {
  const auto r = run_shlint_in_fixture_dir(
      "--quiet --layers layering_layers.txt layering_clean");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

// ---- Thread-shard mutation (T-rules) -------------------------------------

TEST(ShlintCliTest, T1FixtureFlagsGlobalsAndMutableStatics) {
  const auto r = run_shlint("--quiet " + fixture("t1_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 5) << r.out;
  for (int line : {6, 9, 13, 17, 22}) {
    EXPECT_NE(
        r.out.find("t1_violation.cpp:" + std::to_string(line) + ": [T1]"),
        std::string::npos)
        << "missing line " << line << " in:\n" << r.out;
  }
}

TEST(ShlintCliTest, T1CleanConstantsAndSanctionedGlobalPass) {
  const auto r = run_shlint("--quiet " + fixture("t1_clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ShlintCliTest, T2FixtureFlagsMutatedRefCaptures) {
  const auto r = run_shlint("--quiet " + fixture("t2_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 3) << r.out;
  for (int line : {16, 24, 32}) {
    EXPECT_NE(
        r.out.find("t2_violation.cpp:" + std::to_string(line) + ": [T2]"),
        std::string::npos)
        << "missing line " << line << " in:\n" << r.out;
  }
}

TEST(ShlintCliTest, T2PerShardSlotsAndShardSafeCommentPass) {
  const auto r = run_shlint("--quiet " + fixture("t2_clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

// ---- FP-contract (F-rules) -----------------------------------------------

TEST(ShlintCliTest, F1FixtureFlagsRawMulAddsInKernelTu) {
  const auto r = run_shlint_in_fixture_dir(
      "--quiet --layers kernel_layers.txt f1_kernel.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 3) << r.out;
  for (int line : {6, 10, 16}) {
    EXPECT_NE(
        r.out.find("f1_kernel.cpp:" + std::to_string(line) + ": [F1]"),
        std::string::npos)
        << "missing line " << line << " in:\n" << r.out;
  }
}

// The same expressions outside a kernel TU are nobody's business.
TEST(ShlintCliTest, F1DoesNotFireOutsideKernelTus) {
  const auto r =
      run_shlint_in_fixture_dir("--quiet f1_kernel.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ShlintCliTest, F1FmaSpellingsAndUnfusedCommentsPass) {
  const auto r = run_shlint_in_fixture_dir(
      "--quiet --layers kernel_layers.txt f1_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ShlintCliTest, F2FlagsKernelTuWithoutContractOff) {
  const auto r = run_shlint_in_fixture_dir(
      "--quiet --layers kernel_layers.txt "
      "--compile-commands f2_compile_commands.json f2_kernel.cpp");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 1) << r.out;
  EXPECT_NE(r.out.find("f2_kernel.cpp:1: [F2]"), std::string::npos)
      << r.out;
}

TEST(ShlintCliTest, F2PassesWhenContractOffIsPresent) {
  const auto r = run_shlint_in_fixture_dir(
      "--quiet --layers kernel_layers.txt "
      "--compile-commands f2_compile_commands_good.json f2_kernel.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

// ---- Lexer regressions, end to end ---------------------------------------

// Comment splices and invalid raw-string delimiters used to desynchronize
// line numbers; the fixture pins the one real violation to its true line.
TEST(ShlintCliTest, TrickyLexingKeepsLineNumbersInSync) {
  const auto r = run_shlint("--quiet " + fixture("lexer_tricky.cpp"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(count_lines(r.out), 1) << r.out;
  EXPECT_NE(r.out.find("lexer_tricky.cpp:15: [D1]"), std::string::npos)
      << r.out;
}

// ---- SARIF output --------------------------------------------------------

TEST(ShlintCliTest, SarifOutputMatchesGolden) {
  const std::string out_path = ::testing::TempDir() + "/shlint_test.sarif";
  std::remove(out_path.c_str());
  const auto r = run_shlint_in_fixture_dir("--quiet --sarif " + out_path +
                                           " sarif_input.cpp");
  EXPECT_EQ(r.exit_code, 1);
  const std::string got = read_file_or_empty(out_path);
  const std::string golden = read_file_or_empty(fixture("sarif_golden.sarif"));
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(got, golden);
}

// A clean run still writes a (result-free) report, so CI can upload the
// artifact unconditionally.
TEST(ShlintCliTest, SarifIsWrittenOnCleanRuns) {
  const std::string out_path =
      ::testing::TempDir() + "/shlint_clean.sarif";
  std::remove(out_path.c_str());
  const auto r = run_shlint("--quiet --sarif " + out_path + " " +
                            fixture("d1_clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.out;
  const std::string got = read_file_or_empty(out_path);
  EXPECT_NE(got.find("\"results\": []"), std::string::npos) << got;
  EXPECT_NE(got.find("sarif-2.1.0.json"), std::string::npos);
}

// ---- --fix / --fix-allow -------------------------------------------------

TEST(ShlintCliTest, FixInsertsPragmaOnceAndIsIdempotent) {
  const std::string copy = ::testing::TempDir() + "/fixme.h";
  write_file(copy, read_file_or_empty(fixture("d4_violation.h")));

  const auto fixed = run_shlint("--quiet --fix " + copy);
  EXPECT_EQ(fixed.exit_code, 0) << fixed.out;
  const std::string once = read_file_or_empty(copy);
  EXPECT_NE(once.find("#pragma once"), std::string::npos) << once;

  const auto again = run_shlint("--quiet --fix " + copy);
  EXPECT_EQ(again.exit_code, 0) << again.out;
  EXPECT_EQ(read_file_or_empty(copy), once);  // byte-identical round trip

  const auto plain = run_shlint("--quiet " + copy);
  EXPECT_EQ(plain.exit_code, 0) << plain.out;
}

TEST(ShlintCliTest, FixAllowAppendsInlineAnnotation) {
  const std::string copy = ::testing::TempDir() + "/allow_me.cpp";
  write_file(copy, read_file_or_empty(fixture("allowlisted.cpp")));

  const auto fixed = run_shlint("--quiet --fix-allow D1 " + copy);
  EXPECT_EQ(fixed.exit_code, 0) << fixed.out;
  EXPECT_NE(read_file_or_empty(copy).find("// shlint:allow(D1)"),
            std::string::npos);

  const auto plain = run_shlint("--quiet " + copy);
  EXPECT_EQ(plain.exit_code, 0) << plain.out;

  // Idempotent: a second pass adds nothing.
  const std::string once = read_file_or_empty(copy);
  run_shlint("--quiet --fix-allow D1 " + copy);
  EXPECT_EQ(read_file_or_empty(copy), once);
}

// ---- Repo acceptance gate ------------------------------------------------

// The acceptance gate: the repo's own sources satisfy the full D+L+T+F
// contract.  The fixture directory is pruned via its .shlint-skip marker;
// sanctioned escapes go through inline annotations, `shlint:shard-safe`
// justifications, and the checked-in allowlist.
TEST(ShlintCliTest, RepositoryIsClean) {
  const std::string repo(SHLINT_REPO_DIR);
  const auto r = run_shlint(
      "--quiet --allowlist " + repo + "/tools/shlint/allowlist.txt" +
      " --layers " + repo + "/tools/shlint/layers.txt" +
      " --compile-commands " + std::string(SHLINT_COMPILE_COMMANDS) + " " +
      repo + "/src " + repo + "/tools " + repo + "/bench " + repo +
      "/tests " + repo + "/examples");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

}  // namespace
