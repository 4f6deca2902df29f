// CgConfig tests: canonical designs, validation (partition + containment),
// group queries, rendering.

#include <gtest/gtest.h>

#include "laser/cg_config.h"

namespace laser {
namespace {

TEST(CgConfigTest, RowOnlyHasOneGroupEverywhere) {
  CgConfig config = CgConfig::RowOnly(30, 8);
  ASSERT_EQ(config.num_levels(), 8);
  for (int level = 0; level < 8; ++level) {
    EXPECT_EQ(config.num_groups(level), 1);
    EXPECT_EQ(config.groups(level)[0], MakeColumnRange(1, 30));
  }
  EXPECT_TRUE(config.Validate(30).ok());
}

TEST(CgConfigTest, ColumnOnlyHasSingletons) {
  CgConfig config = CgConfig::ColumnOnly(5, 4);
  EXPECT_EQ(config.num_groups(0), 1);  // level 0 stays row format
  for (int level = 1; level < 4; ++level) {
    ASSERT_EQ(config.num_groups(level), 5);
    for (int g = 0; g < 5; ++g) {
      EXPECT_EQ(config.groups(level)[g], (ColumnSet{g + 1}));
    }
  }
  EXPECT_TRUE(config.Validate(5).ok());
}

TEST(CgConfigTest, EquiWidthSplitsEvenly) {
  CgConfig config = CgConfig::EquiWidth(30, 8, 6);
  for (int level = 1; level < 8; ++level) {
    ASSERT_EQ(config.num_groups(level), 5);
    EXPECT_EQ(config.groups(level)[0], MakeColumnRange(1, 6));
    EXPECT_EQ(config.groups(level)[4], MakeColumnRange(25, 30));
  }
  EXPECT_TRUE(config.Validate(30).ok());
}

TEST(CgConfigTest, EquiWidthLastGroupMayBeNarrow) {
  CgConfig config = CgConfig::EquiWidth(10, 3, 4);
  ASSERT_EQ(config.num_groups(1), 3);
  EXPECT_EQ(config.groups(1)[2], MakeColumnRange(9, 10));
  EXPECT_TRUE(config.Validate(10).ok());
}

TEST(CgConfigTest, HtapSimpleSwitchesLayout) {
  CgConfig config = CgConfig::HtapSimple(30, 8, 6);
  for (int level = 0; level < 6; ++level) EXPECT_EQ(config.num_groups(level), 1);
  for (int level = 6; level < 8; ++level) EXPECT_EQ(config.num_groups(level), 30);
  EXPECT_TRUE(config.Validate(30).ok());
}

TEST(CgConfigTest, ValidateRejectsNonRowLevel0) {
  std::vector<std::vector<ColumnSet>> levels = {
      {MakeColumnRange(1, 2), MakeColumnRange(3, 4)},  // level 0 split: invalid
      {MakeColumnRange(1, 4)},
  };
  CgConfig config(std::move(levels));
  EXPECT_FALSE(config.Validate(4).ok());
}

TEST(CgConfigTest, ValidateRejectsIncompletePartition) {
  std::vector<std::vector<ColumnSet>> levels = {
      {MakeColumnRange(1, 4)},
      {MakeColumnRange(1, 3)},  // column 4 missing
  };
  CgConfig config(std::move(levels));
  EXPECT_FALSE(config.Validate(4).ok());
}

TEST(CgConfigTest, ValidateRejectsOverlappingGroups) {
  std::vector<std::vector<ColumnSet>> levels = {
      {MakeColumnRange(1, 4)},
      {MakeColumnRange(1, 2), MakeColumnRange(2, 4)},  // 2 appears twice
  };
  CgConfig config(std::move(levels));
  EXPECT_FALSE(config.Validate(4).ok());
}

TEST(CgConfigTest, ValidateRejectsContainmentViolation) {
  // Level 1: <1,2> <3,4>; level 2: <2,3> spans two parents (the paper's
  // example of an invalid choice).
  std::vector<std::vector<ColumnSet>> levels = {
      {MakeColumnRange(1, 4)},
      {MakeColumnRange(1, 2), MakeColumnRange(3, 4)},
      {{1}, {2, 3}, {4}},
  };
  CgConfig config(std::move(levels));
  Status s = config.Validate(4);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(CgConfigTest, GroupOfAndOverlap) {
  CgConfig config = CgConfig::EquiWidth(30, 4, 15);
  EXPECT_EQ(config.GroupOf(1, 1), 0);
  EXPECT_EQ(config.GroupOf(1, 15), 0);
  EXPECT_EQ(config.GroupOf(1, 16), 1);
  EXPECT_EQ(config.GroupOf(0, 30), 0);

  const auto overlapping = config.OverlappingGroups(1, {10, 20});
  EXPECT_EQ(overlapping, (std::vector<int>{0, 1}));
  EXPECT_EQ(config.OverlappingGroups(1, {1, 2, 3}), (std::vector<int>{0}));
}

TEST(CgConfigTest, OverlappingChildGroupsFollowContainment) {
  // L1: <1-15><16-30>; L2: <1-15><16-20><21-30>. Under containment the
  // groups one level down that intersect a parent group are the ones inside
  // it, which is how the picker finds an overflow job's children.
  std::vector<std::vector<ColumnSet>> levels = {
      {MakeColumnRange(1, 30)},
      {MakeColumnRange(1, 15), MakeColumnRange(16, 30)},
      {MakeColumnRange(1, 15), MakeColumnRange(16, 20), MakeColumnRange(21, 30)},
  };
  CgConfig config(std::move(levels));
  ASSERT_TRUE(config.Validate(30).ok());
  EXPECT_EQ(config.OverlappingGroups(1, config.groups(0)[0]), (std::vector<int>{0, 1}));
  EXPECT_EQ(config.OverlappingGroups(2, config.groups(1)[0]), (std::vector<int>{0}));
  EXPECT_EQ(config.OverlappingGroups(2, config.groups(1)[1]), (std::vector<int>{1, 2}));
}

TEST(CgConfigTest, ToStringMatchesFigure9Format) {
  CgConfig config = CgConfig::EquiWidth(30, 2, 15);
  const std::string rendered = config.ToString();
  EXPECT_NE(rendered.find("L0:<1-30>"), std::string::npos);
  EXPECT_NE(rendered.find("L1:<1-15><16-30>"), std::string::npos);
}

TEST(CgConfigTest, DOptDesignFromPaperValidates) {
  // Figure 9(b)'s design D-opt.
  std::vector<std::vector<ColumnSet>> levels = {
      {MakeColumnRange(1, 30)},
      {MakeColumnRange(1, 30)},
      {MakeColumnRange(1, 15), MakeColumnRange(16, 30)},
      {MakeColumnRange(1, 15), MakeColumnRange(16, 30)},
      {MakeColumnRange(1, 15), MakeColumnRange(16, 20), MakeColumnRange(21, 30)},
      {MakeColumnRange(1, 15), MakeColumnRange(16, 20), MakeColumnRange(21, 30)},
      {MakeColumnRange(1, 15), MakeColumnRange(16, 20), MakeColumnRange(21, 27),
       MakeColumnRange(28, 30)},
      {MakeColumnRange(1, 15), MakeColumnRange(16, 20), MakeColumnRange(21, 27),
       MakeColumnRange(28, 30)},
  };
  CgConfig config(std::move(levels));
  EXPECT_TRUE(config.Validate(30).ok());
}

}  // namespace
}  // namespace laser
