// Tests for the property specification language: lexer, parser, AST
// round-trip, and semantic validation.
#include <gtest/gtest.h>

#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/spec/lexer.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

// ---------------------------------------------------------------- lexer --

TEST(LexerTest, PunctuationAndIdentifiers) {
  Lexer lexer("send: { maxTries: 10; }");
  const std::vector<Token> tokens = lexer.Tokenize();
  ASSERT_EQ(tokens.size(), 9u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "send");
  EXPECT_EQ(tokens[1].kind, TokenKind::kColon);
  EXPECT_EQ(tokens[2].kind, TokenKind::kLBrace);
  EXPECT_EQ(tokens[4].kind, TokenKind::kColon);
  EXPECT_EQ(tokens[5].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[5].number, 10.0);
  EXPECT_EQ(tokens[6].kind, TokenKind::kSemicolon);
  EXPECT_EQ(tokens[8].kind, TokenKind::kEndOfInput);
}

TEST(LexerTest, DurationLiteralsGlueUnits) {
  const std::vector<Token> tokens = Lexer("5min 100ms 2s 1.5s").Tokenize();
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kDuration);
  EXPECT_EQ(tokens[0].duration, 5 * kMinute);
  EXPECT_EQ(tokens[1].duration, 100 * kMillisecond);
  EXPECT_EQ(tokens[2].duration, 2 * kSecond);
  EXPECT_EQ(tokens[3].duration, 1500 * kMillisecond);
}

TEST(LexerTest, CommentsAreSkipped) {
  const std::vector<Token> tokens =
      Lexer("// line\n# hash\n/* block\n comment */ send").Tokenize();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "send");
}

TEST(LexerTest, RangeBrackets) {
  const std::vector<Token> tokens = Lexer("[36, 38]").Tokenize();
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kLBracket);
  EXPECT_DOUBLE_EQ(tokens[1].number, 36.0);
  EXPECT_EQ(tokens[2].kind, TokenKind::kComma);
  EXPECT_EQ(tokens[4].kind, TokenKind::kRBracket);
}

TEST(LexerTest, TracksLineAndColumn) {
  const std::vector<Token> tokens = Lexer("a\n  b").Tokenize();
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(LexerTest, BadCharacterProducesErrorToken) {
  const std::vector<Token> tokens = Lexer("send @").Tokenize();
  EXPECT_EQ(tokens.back().kind, TokenKind::kError);
  EXPECT_EQ(tokens.back().text, "@");
}

TEST(LexerTest, BadUnitProducesErrorToken) {
  const std::vector<Token> tokens = Lexer("5lightyears").Tokenize();
  EXPECT_EQ(tokens.back().kind, TokenKind::kError);
}

// --------------------------------------------------------------- parser --

TEST(ParserTest, ParsesFigure5Spec) {
  auto parsed = SpecParser::Parse(HealthAppSpec());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const SpecAst& spec = parsed.value();
  ASSERT_EQ(spec.blocks.size(), 4u);
  EXPECT_EQ(spec.blocks[0].task, "micSense");
  EXPECT_EQ(spec.blocks[1].task, "send");
  EXPECT_EQ(spec.blocks[1].properties.size(), 4u);
  EXPECT_EQ(spec.PropertyCount(), 8u);
}

TEST(ParserTest, MitdWithMaxAttemptBindsTwoActions) {
  auto parsed = SpecParser::Parse(
      "send: { MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 "
      "onFail: skipPath Path: 2; }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const PropertyAst& p = parsed.value().blocks[0].properties[0];
  EXPECT_EQ(p.kind, PropertyKind::kMitd);
  EXPECT_EQ(p.duration, 5 * kMinute);
  EXPECT_EQ(p.dp_task, "accel");
  EXPECT_EQ(p.on_fail, ActionType::kRestartPath);
  EXPECT_EQ(p.max_attempt, 3u);
  EXPECT_EQ(p.max_attempt_action, ActionType::kSkipPath);
  EXPECT_EQ(p.path, 2u);
}

TEST(ParserTest, DpDataWithRange) {
  auto parsed = SpecParser::Parse(
      "calcAvg: { dpData: avgTemp Range: [36, 38] onFail: completePath; }");
  ASSERT_TRUE(parsed.ok());
  const PropertyAst& p = parsed.value().blocks[0].properties[0];
  EXPECT_EQ(p.kind, PropertyKind::kDpData);
  EXPECT_EQ(p.dp_data_var, "avgTemp");
  EXPECT_TRUE(p.has_range);
  EXPECT_DOUBLE_EQ(p.range_lo, 36.0);
  EXPECT_DOUBLE_EQ(p.range_hi, 38.0);
  EXPECT_EQ(p.on_fail, ActionType::kCompletePath);
}

TEST(ParserTest, ColonAfterTaskNameIsOptional) {
  // Figure 5 writes both "send: {" and "calcAvg {".
  auto parsed = SpecParser::Parse("calcAvg { collect: 10 dpTask: b onFail: restartPath; }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().blocks[0].task, "calcAvg");
}

TEST(ParserTest, BareNumberDurationIsMilliseconds) {
  auto parsed = SpecParser::Parse("t: { maxDuration: 250 onFail: skipTask; }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().blocks[0].properties[0].duration, 250 * kMillisecond);
}

TEST(ParserTest, PeriodWithJitter) {
  auto parsed = SpecParser::Parse("t: { period: 2s jitter: 500ms onFail: restartTask; }");
  ASSERT_TRUE(parsed.ok());
  const PropertyAst& p = parsed.value().blocks[0].properties[0];
  EXPECT_EQ(p.kind, PropertyKind::kPeriod);
  EXPECT_EQ(p.duration, 2 * kSecond);
  EXPECT_EQ(p.jitter, 500 * kMillisecond);
}

TEST(ParserTest, MinEnergyExtension) {
  auto parsed = SpecParser::Parse("t: { minEnergy: 0.25 onFail: skipTask; }");
  ASSERT_TRUE(parsed.ok());
  const PropertyAst& p = parsed.value().blocks[0].properties[0];
  EXPECT_EQ(p.kind, PropertyKind::kMinEnergy);
  EXPECT_DOUBLE_EQ(p.min_energy, 0.25);
}

struct BadSpec {
  const char* source;
  const char* why;
};

class ParserRejectTest : public ::testing::TestWithParam<BadSpec> {};

TEST_P(ParserRejectTest, RejectsWithDiagnostic) {
  auto parsed = SpecParser::Parse(GetParam().source);
  EXPECT_FALSE(parsed.ok()) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Syntax, ParserRejectTest,
    ::testing::Values(
        BadSpec{"send: { maxTries 10; }", "missing colon after key"},
        BadSpec{"send: { maxTries: ten; }", "count must be a number"},
        BadSpec{"send: { frobnicate: 1; }", "unknown property"},
        BadSpec{"send: { maxTries: 10 onFail: explode; }", "unknown action"},
        BadSpec{"send: { maxTries: 10 onFail: skipPath }", "missing semicolon"},
        BadSpec{"send: maxTries: 10;", "missing braces"},
        BadSpec{"send: { maxTries: 3.5; }", "fractional count"},
        BadSpec{"send: { MITD: fast; }", "not a duration"},
        BadSpec{"send: { dpData: v Range: [5, ] onFail: skipTask; }", "bad range"},
        BadSpec{"send: { maxTries: 10 onFail: skipPath onFail: skipTask; }",
                "duplicate onFail without maxAttempt"},
        BadSpec{"{ maxTries: 1; }", "missing task name"},
        BadSpec{"send: { maxTries: 10 wat: 2; }", "unknown modifier"}));

TEST(PrettyTest, RoundTripsThroughParser) {
  auto parsed = SpecParser::Parse(HealthAppSpec());
  ASSERT_TRUE(parsed.ok());
  const std::string pretty = parsed.value().Pretty();
  auto reparsed = SpecParser::Parse(pretty);
  ASSERT_TRUE(reparsed.ok()) << pretty << "\n" << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().PropertyCount(), parsed.value().PropertyCount());
  EXPECT_EQ(reparsed.value().Pretty(), pretty);  // Fixed point.
}

TEST(ActionNameTest, AllTableOneActionsParse) {
  ActionType action;
  EXPECT_TRUE(ParseActionName("restartPath", &action));
  EXPECT_EQ(action, ActionType::kRestartPath);
  EXPECT_TRUE(ParseActionName("skipPath", &action));
  EXPECT_TRUE(ParseActionName("restartTask", &action));
  EXPECT_TRUE(ParseActionName("skipTask", &action));
  EXPECT_TRUE(ParseActionName("completePath", &action));
  EXPECT_FALSE(ParseActionName("halt", &action));
}

// ------------------------------------------------------------ validator --

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest() : app_(BuildHealthApp()) {}

  ValidationResult Validate(const std::string& source) {
    auto parsed = SpecParser::Parse(source);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return SpecValidator::Validate(parsed.value(), app_.graph);
  }

  HealthApp app_;
};

TEST_F(ValidatorTest, AcceptsFigure5Spec) {
  const ValidationResult result = Validate(HealthAppSpec());
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_TRUE(result.warnings.empty());
}

TEST_F(ValidatorTest, RejectsUnknownTask) {
  const ValidationResult result = Validate("ghost: { maxTries: 1 onFail: skipPath; }");
  EXPECT_FALSE(result.ok());
}

TEST_F(ValidatorTest, RejectsMissingDpTask) {
  const ValidationResult result = Validate("send: { collect: 1 onFail: restartPath; }");
  EXPECT_FALSE(result.ok());
}

TEST_F(ValidatorTest, RejectsUnknownDpTask) {
  const ValidationResult result =
      Validate("send: { collect: 1 dpTask: ghost onFail: restartPath; }");
  EXPECT_FALSE(result.ok());
}

TEST_F(ValidatorTest, RejectsDpTaskOnWrongProperty) {
  const ValidationResult result =
      Validate("send: { maxTries: 1 dpTask: accel onFail: skipPath; }");
  EXPECT_FALSE(result.ok());
}

TEST_F(ValidatorTest, RejectsMissingOnFail) {
  const ValidationResult result = Validate("send: { maxTries: 3; }");
  EXPECT_FALSE(result.ok());
}

TEST_F(ValidatorTest, RejectsMaxAttemptWithoutSecondAction) {
  const ValidationResult result = Validate(
      "send: { MITD: 1min dpTask: accel onFail: restartPath maxAttempt: 3 Path: 2; }");
  EXPECT_FALSE(result.ok());
}

TEST_F(ValidatorTest, RejectsNonexistentPath) {
  const ValidationResult result = Validate(
      "send: { collect: 1 dpTask: accel onFail: restartPath Path: 9; }");
  EXPECT_FALSE(result.ok());
}

TEST_F(ValidatorTest, RejectsPathNotContainingTask) {
  // Path 1 does not contain accel.
  const ValidationResult result =
      Validate("accel: { maxTries: 2 onFail: skipPath Path: 1; }");
  EXPECT_FALSE(result.ok());
}

TEST_F(ValidatorTest, RejectsZeroCounts) {
  EXPECT_FALSE(Validate("send: { maxTries: 0 onFail: skipPath; }").ok());
  EXPECT_FALSE(
      Validate("send: { collect: 0 dpTask: accel onFail: restartPath Path: 2; }").ok());
}

TEST_F(ValidatorTest, RejectsDpDataWithoutRange) {
  EXPECT_FALSE(Validate("calcAvg: { dpData: avgTemp onFail: completePath; }").ok());
}

TEST_F(ValidatorTest, RejectsInvertedRange) {
  EXPECT_FALSE(
      Validate("calcAvg: { dpData: avgTemp Range: [40, 36] onFail: completePath; }").ok());
}

TEST_F(ValidatorTest, RejectsDpDataOnUnmonitoredTask) {
  EXPECT_FALSE(Validate("send: { dpData: x Range: [0, 1] onFail: skipTask; }").ok());
}

TEST_F(ValidatorTest, RejectsDpDataVariableMismatch) {
  EXPECT_FALSE(
      Validate("calcAvg: { dpData: wrongVar Range: [0, 1] onFail: completePath; }").ok());
}

TEST_F(ValidatorTest, RejectsMinEnergyOutOfRange) {
  EXPECT_FALSE(Validate("send: { minEnergy: 0 onFail: skipTask; }").ok());
  EXPECT_FALSE(Validate("send: { minEnergy: 1.5 onFail: skipTask; }").ok());
}

TEST_F(ValidatorTest, WarnsOnMaxAttemptForNonTimeProperty) {
  const ValidationResult result = Validate(
      "send: { collect: 1 dpTask: accel onFail: restartPath maxAttempt: 2 "
      "onFail: skipPath Path: 2; }");
  EXPECT_TRUE(result.ok());
  ASSERT_FALSE(result.warnings.empty());
  EXPECT_NE(result.warnings[0].find("maxAttempt"), std::string::npos);
}

TEST_F(ValidatorTest, WarnsWhenDependencyNeverPrecedes) {
  // send never completes before bodyTemp anywhere.
  const ValidationResult result =
      Validate("bodyTemp: { collect: 1 dpTask: send onFail: restartPath; }");
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.warnings.empty());
}

TEST_F(ValidatorTest, GreenhouseSpecValidatesAgainstItsApp) {
  GreenhouseApp greenhouse = BuildGreenhouseApp();
  auto parsed = SpecParser::Parse(GreenhouseSpec());
  ASSERT_TRUE(parsed.ok());
  const ValidationResult result = SpecValidator::Validate(parsed.value(), greenhouse.graph);
  EXPECT_TRUE(result.ok()) << result.status.ToString();
}

}  // namespace
}  // namespace artemis
