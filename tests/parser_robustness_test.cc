/**
 * @file
 * Adversarial parser tests for ir::deserializeProgram and
 * replay::ScheduleTrace::deserialize, seeded with shapes the fuzzing
 * subsystem surfaced: truncated lines, duplicate names, out-of-range
 * sizes and operands, trailing junk. Malformed input must fail with
 * nullopt/error — never crash, never OOM, never yield a program that
 * is unsafe to execute. A deterministic mutation fuzz over valid
 * serializations backstops the hand-written cases.
 *
 * The PIL codec sweep pins the text format itself: every shipped and
 * generated program round-trips byte for byte, and a fixed set of
 * token-shape mutants (whitespace, line ends, integer spellings,
 * operands, quoting) keeps its recorded accept/reject outcome and,
 * when accepted, its re-serialized bytes.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "ir/serialize.h"
#include "ir/verifier.h"
#include "replay/trace.h"
#include "support/rng.h"
#include "support/str.h"
#include "workloads/registry.h"

namespace portend {
namespace {

std::string
validProgramText()
{
    return ir::serializeProgram(
        workloads::buildWorkload("dcl").program);
}

/** Expect a parse failure and a non-empty diagnostic. */
void
expectReject(const std::string &text, const char *why)
{
    std::string error;
    std::optional<ir::Program> p =
        ir::deserializeProgram(text, &error);
    EXPECT_FALSE(p.has_value()) << why;
    EXPECT_FALSE(error.empty()) << why;
}

TEST(ProgramParserRobustness, RejectsStructuralGarbage)
{
    expectReject("", "empty input");
    expectReject("pil v1 \"x\"\n", "missing end");
    expectReject("global \"g\" 1\npil v1 \"x\"\nend\n",
                 "content before header");
    expectReject("pil v1 \"x\"\npil v1 \"y\"\nend\n",
                 "duplicate header");
    expectReject("pil v2 \"x\"\nend\n", "unsupported version");
    expectReject("pil v1 \"x\"\nwat \"z\"\nend\n", "unknown tag");
    expectReject("pil v1 \"x\"\nend\ntrailing junk\n",
                 "content after end");
    expectReject("pil v1 \"x\"\nend\n", "no main function");
}

TEST(ProgramParserRobustness, RejectsBadDeclarations)
{
    const std::string h = "pil v1 \"x\"\n";
    expectReject(h + "global \"g\" 0\nend\n", "zero-size global");
    expectReject(h + "global \"g\" -4\nend\n", "negative global");
    expectReject(h + "global \"g\" 9999999999\nend\n",
                 "huge global");
    expectReject(h + "global \"g\" 1 1 2 3\nend\n",
                 "more init values than cells");
    expectReject(h + "global \"g\" 2 1 x\nend\n",
                 "non-numeric init value");
    expectReject(h + "global \"g\" 1\nglobal \"g\" 1\nend\n",
                 "duplicate global");
    expectReject(h + "mutex \"m\"\nmutex \"m\"\nend\n",
                 "duplicate mutex");
    expectReject(h + "cond \"c\"\ncond \"c\"\nend\n",
                 "duplicate cond");
    expectReject(h + "barrier \"b\" 0\nend\n", "zero barrier count");
    expectReject(h + "barrier \"b\" 2\nbarrier \"b\" 2\nend\n",
                 "duplicate barrier");
    expectReject(h + "input \"n\"\nend\n", "input missing domain");
    expectReject(h + "input \"n\" 0\nend\n", "input missing hi");
    expectReject(h + "input \"n\" 0 x\nend\n",
                 "non-numeric input bound");
    expectReject(h + "input \"n\" 5 2\nend\n", "empty input domain");
    expectReject(h + "input \"n\" 0 4\ninput \"n\" 0 4\nend\n",
                 "duplicate input");
    expectReject(h + "input \"n\" 0 4 9\nend\n",
                 "trailing tokens after input");
    expectReject(h + "func \"f\" 2 1\nend\n",
                 "params exceed registers");
    expectReject(h + "func \"f\" -1 4\nend\n", "negative params");
    expectReject(h + "func \"f\" 0 99999999\nend\n", "huge regs");
    expectReject(h + "func \"f\" 0 1\nfunc \"f\" 0 1\nend\n",
                 "duplicate func");
    expectReject(h + "block \"b\"\nend\n", "block outside func");
    expectReject(h + "inst Nop -1 _ _ _ add 64\nend\n",
                 "inst outside block");
}

TEST(ProgramParserRobustness, RejectsBadInstructions)
{
    const std::string pre = "pil v1 \"x\"\nglobal \"g\" 1\n"
                            "func \"main\" 0 2\nblock \"entry\"\n";
    expectReject(pre + "inst Halt\nend\n", "truncated inst line");
    expectReject(pre + "inst Bogus -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "unknown opcode");
    expectReject(pre + "inst Halt -1 _ _ _ add 63 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "bad width");
    expectReject(pre + "inst Halt -1 _ _ _ wat 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "unknown ALU kind");
    expectReject(pre + "inst Halt -5 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "bad dst register");
    expectReject(pre + "inst Halt -1 q7 _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "bad operand token");
    expectReject(pre + "inst Halt -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0 junk\nend\n",
                 "trailing tokens");
    // Structurally invalid but syntactically fine: the embedded
    // verifier must reject it (out-of-range register / global).
    expectReject(pre + "inst Load 9 i0 _ _ add 64 0 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\n"
                       "inst Halt -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "verifier: dst out of range");
    expectReject(pre + "inst Load 1 i0 _ _ add 64 7 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\n"
                       "inst Halt -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "verifier: dangling global id");
    expectReject(pre + "inst Jmp -1 _ _ _ add 64 -1 -1 -1 -1 5 -1 "
                       "0 0 \"\" \"\" 0\nend\n",
                 "verifier: dangling block target");
}

TEST(ProgramParserRobustness, AcceptsItsOwnOutput)
{
    std::string text = validProgramText();
    std::string error;
    std::optional<ir::Program> p =
        ir::deserializeProgram(text, &error);
    ASSERT_TRUE(p.has_value()) << error;
    EXPECT_EQ(ir::serializeProgram(*p), text);
}

TEST(ProgramParserRobustness, SurvivesDeterministicMutationFuzz)
{
    // 400 mutants of three valid serializations (a paper workload,
    // a generated fuzz program, and an input-declaring extension
    // workload): every parse must either fail cleanly or produce a
    // verifier-clean program that round-trips.
    std::vector<std::string> bases = {
        validProgramText(),
        ir::serializeProgram(
            fuzz::generateProgram(42, 2, fuzz::GeneratorOptions{})
                .program),
        ir::serializeProgram(
            workloads::buildWorkload("ibuf").program),
    };
    Rng rng(6);
    for (int iter = 0; iter < 400; ++iter) {
        std::string text = bases[iter % bases.size()];
        switch (rng.below(4)) {
          case 0: // truncate
            text = text.substr(0, rng.below(text.size() + 1));
            break;
          case 1: { // delete a line
            std::vector<std::string> lines = split(text, '\n');
            lines.erase(lines.begin() +
                        static_cast<std::ptrdiff_t>(
                            rng.below(lines.size())));
            text = join(lines, "\n");
            break;
          }
          case 2: { // duplicate a line
            std::vector<std::string> lines = split(text, '\n');
            std::size_t i = rng.below(lines.size());
            lines.insert(lines.begin() +
                             static_cast<std::ptrdiff_t>(i),
                         lines[i]);
            text = join(lines, "\n");
            break;
          }
          default: { // clobber a character
            if (!text.empty()) {
                std::size_t i = rng.below(text.size());
                text[i] = static_cast<char>('!' + rng.below(90));
            }
            break;
          }
        }
        std::string error;
        std::optional<ir::Program> p =
            ir::deserializeProgram(text, &error);
        if (p) {
            // Anything accepted must be safe: verifier-clean (the
            // parser runs it) and serializable again.
            EXPECT_TRUE(ir::verifyProgram(*p).empty());
            EXPECT_FALSE(ir::serializeProgram(*p).empty());
        } else {
            EXPECT_FALSE(error.empty());
        }
    }
}

// -- PIL codec sweep --------------------------------------------------

/** Parse @p text, serialize the result, expect the same bytes. */
void
expectIdentityRoundTrip(const std::string &text, const std::string &what)
{
    std::string error;
    std::optional<ir::Program> p = ir::deserializeProgram(text, &error);
    ASSERT_TRUE(p.has_value()) << what << ": " << error;
    EXPECT_EQ(ir::serializeProgram(*p), text) << what;
}

TEST(PilCodecSweep, EveryShippedAndGeneratedProgramRoundTrips)
{
    std::vector<std::string> names = workloads::workloadNames();
    for (const std::string &n : workloads::extensionWorkloadNames())
        names.push_back(n);
    for (const std::string &n : names)
        expectIdentityRoundTrip(
            ir::serializeProgram(workloads::buildWorkload(n).program), n);

    const std::string dir = PORTEND_CORPUS_SEED_DIR;
    const std::vector<std::string> entries = fuzz::listEntries(dir);
    EXPECT_EQ(entries.size(), 16u) << dir;
    for (const std::string &e : entries) {
        std::ifstream in(dir + "/" + e + "/program.pil",
                         std::ios::binary);
        ASSERT_TRUE(in) << e;
        std::ostringstream text;
        text << in.rdbuf();
        expectIdentityRoundTrip(text.str(), e);
    }

    int generated = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        fuzz::GeneratedProgram g =
            fuzz::generateProgram(42, i, fuzz::GeneratorOptions{});
        if (!g.verify_errors.empty())
            continue; // the parser rightly rejects these
        expectIdentityRoundTrip(ir::serializeProgram(g.program),
                                g.recipe.name);
        generated += 1;
    }
    EXPECT_GT(generated, 190);
}

/** A small verifier-clean program using every PIL line kind. */
const char *const kCodecBase =
    "pil v1 \"codec\"\n"
    "global \"g\" 2 5 -3\n"
    "mutex \"m\"\n"
    "cond \"c\"\n"
    "barrier \"b\" 2\n"
    "input \"n\" 0 4\n"
    "func \"main\" 0 3\n"
    "block \"entry\"\n"
    "inst const 1 i7 _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" \"codec.c\" 1\n"
    "inst mov 2 r1 _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" \"codec.c\" 2\n"
    "inst store -1 i0 r2 _ add 64 0 -1 -1 -1 -1 -1 0 0 \"\" \"codec.c\" 3\n"
    "inst output_str -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"hi\" "
    "\"codec.c\" 4\n"
    "inst ret -1 _ _ _ add 64 -1 -1 -1 -1 -1 -1 0 0 \"\" \"codec.c\" 5\n"
    "end\n";

/** @p s with every occurrence of @p from replaced by @p to. */
std::string
replaceAll(std::string s, const std::string &from, const std::string &to)
{
    for (std::size_t at = s.find(from); at != std::string::npos;
         at = s.find(from, at + to.size()))
        s.replace(at, from.size(), to);
    return s;
}

/** @p s with the first occurrence of @p from replaced by @p to. */
std::string
replaceFirst(std::string s, const std::string &from, const std::string &to)
{
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        s.replace(at, from.size(), to);
    return s;
}

/**
 * kCodecBase with its first `from` replaced by `to`. A mutant with a
 * null `canonical` is rejected; otherwise it parses, and serializing
 * the result gives kCodecBase with `from` replaced by `canonical`.
 */
struct TokenMutant
{
    const char *what;
    const char *from;
    const char *to;
    const char *canonical;
};

const TokenMutant kTokenMutants[] = {
    // Whitespace between tokens: any run of ' ', \t, \v, \f, \r.
    {"space runs", "global \"g\" 2 5 -3", "global  \"g\"   2 5    -3",
     "global \"g\" 2 5 -3"},
    {"tab runs", "inst store -1 i0", "inst\tstore\t-1 \t i0",
     "inst store -1 i0"},
    {"vertical tab and form feed", "cond \"c\"", "cond\v\f\"c\"",
     "cond \"c\""},
    {"leading whitespace", "mutex \"m\"", " \t mutex \"m\"",
     "mutex \"m\""},
    {"trailing whitespace", "end\n", "end \t\n", "end\n"},
    {"blank lines", "mutex", "\n\nmutex", "mutex"},
    {"line of spaces", "mutex", "  \nmutex", nullptr},
    {"line holding only \\r", "mutex", "\r\nmutex", nullptr},
    {"\\r-only line after end", "end\n", "end\n\r\n", nullptr},

    // Integers: optional sign, decimal digits, range-checked.
    {"leading + on int", "barrier \"b\" 2", "barrier \"b\" +2",
     "barrier \"b\" 2"},
    {"leading + on int64", "2 5 -3", "2 +5 -3", "2 5 -3"},
    {"leading zeros", "\"main\" 0 3", "\"main\" 00 003",
     "\"main\" 0 3"},
    {"negative leading zeros", "5 -3", "5 -003", "5 -3"},
    {"+- sign", "5 -3", "5 +-3", nullptr},
    {"bare sign", "5 -3", "5 - -3", nullptr},
    // A malformed last init value is an error like any other; it is
    // not silently dropped.
    {"bare sign ending a line", "5 -3", "5 -", nullptr},
    {"INT64 max and min init", "2 5 -3",
     "2 9223372036854775807 -9223372036854775808",
     "2 9223372036854775807 -9223372036854775808"},
    {"INT64 min and max input", "\"n\" 0 4",
     "\"n\" -9223372036854775808 9223372036854775807",
     "\"n\" -9223372036854775808 9223372036854775807"},
    {"INT64 min and max inst bounds", "-1 -1 0 0 \"hi\"",
     "-1 -1 -9223372036854775808 9223372036854775807 \"hi\"",
     "-1 -1 -9223372036854775808 9223372036854775807 \"hi\""},
    {"int64 above max", "2 5 -3", "2 9223372036854775808 -3", nullptr},
    {"int64 below min", "2 5 -3", "2 -9223372036854775809 -3", nullptr},
    {"int64 below min ending a line", "2 5 -3",
     "2 5 -9223372036854775809", nullptr},
    {"int above max", "barrier \"b\" 2", "barrier \"b\" 2147483648",
     nullptr},
    {"int line above max", "\"codec.c\" 5", "\"codec.c\" 4294967301",
     nullptr},
    {"int dst below min", "inst ret -1", "inst ret -2147483649", nullptr},

    // Operands.
    {"operand r+1", "i0 r2", "i0 r+2", "i0 r2"},
    {"operand i007", "i7", "i007", "i7"},
    {"operand INT64 min", "i7", "i-9223372036854775808",
     "i-9223372036854775808"},
    {"operand int64 above max", "i7", "i9223372036854775808", nullptr},
    {"operand int above max", "i0 r2", "i0 r2147483648", nullptr},
    // An operand's digits run to the end of its token.
    {"operand r1x", "mov 2 r1", "mov 2 r1x", nullptr},
    {"operand i7q", "i7", "i7q", nullptr},
    {"operand without digits", "i7", "i", nullptr},

    // Glued tokens: a number is a whole token, and a closing quote
    // ends one.
    {"number glued to next token", "mov 2 r1", "mov 2r1", nullptr},
    {"number glued to a quote", "0 0 \"hi\"", "0 0\"hi\"", nullptr},
    {"quote glued to a number", "\"codec.c\" 5", "\"codec.c\"5", nullptr},

    // Quoted strings.
    {"escaped quote and backslash", "\"codec\"",
     "\"co\\\"d\\\\ec\"", "\"co\\\"d\\\\ec\""},
    {"escaped quote before a space", "\"m\"", "\"a\\\" b\"",
     "\"a\\\" b\""},
    {"empty name", "\"m\"", "\"\"", "\"\""},
    {"unescaped quote inside a name", "\"codec\"", "\"co\"dec\"",
     nullptr},
    // The bytes between the quotes are kept exactly.
    {"space run inside a name", "\"m\"", "\"a  b\"", "\"a  b\""},
    {"tab inside a name", "\"m\"", "\"a\tb\"", "\"a\tb\""},
    {"edge spaces inside a name", "\"m\"", "\" m \"", "\" m \""},
    {"missing closing quote at line end", "mutex \"m\"", "mutex \"m",
     nullptr},
    {"missing closing quote mid-line", "\"hi\"", "\"hi", nullptr},
    {"escaped closing quote", "mutex \"m\"", "mutex \"m\\\"", nullptr},
    {"name without quotes", "mutex \"m\"", "mutex m", nullptr},

    // Trailing tokens.
    {"trailing token after inst", "\"codec.c\" 5", "\"codec.c\" 5 x",
     nullptr},
    {"trailing token after input", "\"n\" 0 4", "\"n\" 0 4 9", nullptr},
    {"trailing token after global", "2 5 -3", "2 5 -3 x", nullptr},
    {"trailing token after mutex", "mutex \"m\"", "mutex \"m\" x",
     "mutex \"m\""},
    {"trailing token after header", "\"codec\"\n", "\"codec\" x\n",
     "\"codec\"\n"},
    {"trailing token after end", "end\n", "end x\n", "end\n"},
};

TEST(PilCodecSweep, TokenShapeMutantsKeepTheirOutcome)
{
    expectIdentityRoundTrip(kCodecBase, "base");
    for (const TokenMutant &m : kTokenMutants) {
        const std::string text = replaceFirst(kCodecBase, m.from, m.to);
        std::string error;
        std::optional<ir::Program> p =
            ir::deserializeProgram(text, &error);
        if (m.canonical == nullptr) {
            EXPECT_FALSE(p.has_value()) << m.what << " was accepted";
            EXPECT_FALSE(error.empty()) << m.what;
            continue;
        }
        if (!p) {
            ADD_FAILURE() << m.what << " was rejected: " << error;
            continue;
        }
        EXPECT_EQ(ir::serializeProgram(*p),
                  replaceFirst(kCodecBase, m.from, m.canonical))
            << m.what;
    }
}

TEST(PilCodecSweep, CrlfLineEndsParseLikeLf)
{
    const std::string crlf = replaceAll(kCodecBase, "\n", "\r\n");
    std::string error;
    std::optional<ir::Program> p = ir::deserializeProgram(crlf, &error);
    ASSERT_TRUE(p.has_value()) << error;
    EXPECT_EQ(ir::serializeProgram(*p), kCodecBase);
}

TEST(TraceParserRobustness, RejectsMalformedTraces)
{
    using replay::ScheduleTrace;
    EXPECT_FALSE(ScheduleTrace::deserialize("").has_value());
    EXPECT_FALSE(ScheduleTrace::deserialize("not a trace").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize("trace v2\n").has_value());
    const std::string h = "trace v1\n";
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "z 1 2 3").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d 1 2").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d 1 2 3 4").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d -1 2 3").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d 1 -7 3").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "d x 2 3").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "i 1 0").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "i 7 0 5").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "i 1 -9 5").has_value());
    EXPECT_FALSE(
        ScheduleTrace::deserialize(h + "i 0 0 5 9").has_value());
}

TEST(TraceParserRobustness, AcceptsItsOwnOutput)
{
    replay::ScheduleTrace t;
    t.decisions.push_back({2, 17, 5});
    t.decisions.push_back({0, -1, 9});
    rt::VmState::EnvRead r;
    r.symbolic = true;
    r.sym_id = 0;
    r.value = 3;
    t.inputs.push_back(r);
    auto back = replay::ScheduleTrace::deserialize(t.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == t);
}

} // namespace
} // namespace portend
