#include "common/contracts.hpp"

#include <gtest/gtest.h>

namespace propane {
namespace {

int checked_divide(int num, int den) {
  PROPANE_REQUIRE_MSG(den != 0, "division by zero");
  return num / den;
}

TEST(Contracts, PassingRequireIsSilent) {
  EXPECT_EQ(checked_divide(6, 2), 3);
}

TEST(Contracts, FailingRequireThrowsContractViolation) {
  EXPECT_THROW(checked_divide(1, 0), ContractViolation);
}

TEST(Contracts, MessageContainsExpressionAndHint) {
  try {
    checked_divide(1, 0);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("den != 0"), std::string::npos) << what;
    EXPECT_NE(what.find("division by zero"), std::string::npos) << what;
    EXPECT_NE(what.find("contracts_test.cpp"), std::string::npos) << what;
  }
}

TEST(Contracts, MessageIsTheCheckMessageAlone) {
  try {
    checked_divide(1, 0);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& err) {
    EXPECT_EQ(err.message(), "division by zero");
  }
  try {
    PROPANE_CHECK(false);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& err) {
    EXPECT_TRUE(err.message().empty());
  }
}

TEST(Contracts, EnsureAndCheckThrowOnFailure) {
  EXPECT_THROW(PROPANE_ENSURE(false), ContractViolation);
  EXPECT_THROW(PROPANE_CHECK(false), ContractViolation);
  EXPECT_THROW(PROPANE_CHECK_MSG(false, "boom"), ContractViolation);
  EXPECT_NO_THROW(PROPANE_ENSURE(true));
  EXPECT_NO_THROW(PROPANE_CHECK(true));
}

TEST(Contracts, ViolationIsALogicError) {
  try {
    PROPANE_REQUIRE(false);
    FAIL();
  } catch (const std::logic_error&) {
    SUCCEED();
  }
}

}  // namespace
}  // namespace propane
