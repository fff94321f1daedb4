// Unit tests for the architecture model: Table I defaults, derived
// geometry, config validation, JSON round trip, mesh/hop math and the
// energy model.
#include <gtest/gtest.h>

#include "cimflow/arch/arch_config.hpp"
#include "cimflow/arch/energy_model.hpp"
#include "cimflow/support/status.hpp"

namespace cimflow::arch {
namespace {

TEST(ArchConfigTest, Table1Defaults) {
  const ArchConfig arch = ArchConfig::cimflow_default();
  EXPECT_EQ(arch.chip().core_count, 64);
  EXPECT_EQ(arch.chip().noc_flit_bytes, 8);
  EXPECT_EQ(arch.chip().global_mem_bytes, 16ll << 20);
  EXPECT_EQ(arch.core().mg_per_unit, 16);
  EXPECT_EQ(arch.core().local_mem_bytes, 512 * 1024);
  EXPECT_EQ(arch.unit().macros_per_group, 8);
  EXPECT_EQ(arch.unit().macro_rows, 512);
  EXPECT_EQ(arch.unit().macro_cols, 64);
  EXPECT_EQ(arch.unit().element_rows, 32);
  EXPECT_EQ(arch.unit().element_cols, 8);
}

TEST(ArchConfigTest, DerivedGeometry) {
  const ArchConfig arch = ArchConfig::cimflow_default();
  EXPECT_EQ(arch.weights_per_macro_row(), 8);          // 64 cols / 8-bit weights
  EXPECT_EQ(arch.mg_rows(), 512);
  EXPECT_EQ(arch.mg_cols(), 64);                       // 8 macros x 8 weights
  EXPECT_EQ(arch.macro_weight_bytes(), 512 * 8);
  EXPECT_EQ(arch.mg_weight_bytes(), 512 * 64);         // 32 KB
  EXPECT_EQ(arch.core_weight_bytes(), 512 * 1024);     // 16 MGs = 512 KB
  EXPECT_EQ(arch.chip_weight_bytes(), 32ll << 20);     // 64 cores = 32 MB
  EXPECT_EQ(arch.mvm_interval_cycles(), 8);            // INT8 bit-serial
  EXPECT_EQ(arch.mvm_latency_cycles(), 12);
  EXPECT_GT(arch.peak_tops(), 0);
}

TEST(ArchConfigTest, AreaEstimateGrowsWithMacroCount) {
  const ArchConfig arch = ArchConfig::cimflow_default();
  EXPECT_GT(arch.area_mm2(), 0);

  // Doubling macros_per_group doubles the chip's CIM array; memories are
  // unchanged, so area grows but less than 2x.
  UnitParams wide = arch.unit();
  wide.macros_per_group *= 2;
  const ArchConfig wider(arch.chip(), arch.core(), wide, arch.energy());
  EXPECT_GT(wider.area_mm2(), arch.area_mm2());
  EXPECT_LT(wider.area_mm2(), 2 * arch.area_mm2());

  // Pure function of the configuration — identical configs, identical area.
  EXPECT_EQ(arch.area_mm2(), ArchConfig::cimflow_default().area_mm2());
}

TEST(ArchConfigTest, MeshAndHops) {
  const ArchConfig arch = ArchConfig::cimflow_default();
  EXPECT_EQ(arch.mesh_rows(), 8);
  EXPECT_EQ(arch.core_x(9), 1);
  EXPECT_EQ(arch.core_y(9), 1);
  EXPECT_EQ(arch.hops_between(0, 0), 0);
  EXPECT_EQ(arch.hops_between(0, 9), 2);
  EXPECT_EQ(arch.hops_between(0, 63), 14);
  EXPECT_EQ(arch.hops_between(9, 0), arch.hops_between(0, 9));  // symmetric
  EXPECT_EQ(arch.hops_to_global(0), 1);
}

struct BadConfigCase {
  const char* name;
  std::function<void(ChipParams&, CoreParams&, UnitParams&)> mutate;
};

// gtest would otherwise print the case as raw bytes, which include the
// address of `name`; that address changes with every run, and so would the
// test names that ctest discovers.
void PrintTo(const BadConfigCase& c, std::ostream* os) { *os << c.name; }

class ArchValidationTest : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(ArchValidationTest, RejectsInvalid) {
  ChipParams chip;
  CoreParams core;
  UnitParams unit;
  GetParam().mutate(chip, core, unit);
  EXPECT_THROW(ArchConfig(chip, core, unit, EnergyParams{}), Error);
}

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, ArchValidationTest,
    ::testing::Values(
        BadConfigCase{"zero_cores", [](auto& c, auto&, auto&) { c.core_count = 0; }},
        BadConfigCase{"ragged_mesh", [](auto& c, auto&, auto&) { c.core_count = 63; }},
        BadConfigCase{"zero_flit", [](auto& c, auto&, auto&) { c.noc_flit_bytes = 0; }},
        BadConfigCase{"too_many_banks", [](auto& c, auto&, auto&) { c.global_mem_banks = 99; }},
        BadConfigCase{"tiny_local", [](auto&, auto& k, auto&) { k.local_mem_bytes = 100; }},
        BadConfigCase{"too_many_gregs", [](auto&, auto& k, auto&) { k.num_gregs = 64; }},
        BadConfigCase{"macro_row_mismatch",
                      [](auto&, auto&, auto& u) { u.element_rows = 31; }},
        BadConfigCase{"weight_bits_mismatch",
                      [](auto&, auto&, auto& u) { u.weight_bits = 7; }},
        BadConfigCase{"zero_macros", [](auto&, auto&, auto& u) { u.macros_per_group = 0; }}),
    [](const auto& info) { return info.param.name; });

TEST(ArchConfigTest, JsonRoundTrip) {
  const ArchConfig arch = ArchConfig::cimflow_default();
  const ArchConfig back = ArchConfig::from_json(arch.to_json());
  EXPECT_EQ(back.chip().core_count, arch.chip().core_count);
  EXPECT_EQ(back.core().local_mem_bytes, arch.core().local_mem_bytes);
  EXPECT_EQ(back.unit().macros_per_group, arch.unit().macros_per_group);
  EXPECT_DOUBLE_EQ(back.energy().macro_mac_pj, arch.energy().macro_mac_pj);
}

TEST(ArchConfigTest, JsonPartialOverride) {
  const Json doc = Json::parse(R"({"unit": {"macros_per_group": 16},
                                   "chip": {"noc_flit_bytes": 16}})");
  const ArchConfig arch = ArchConfig::from_json(doc);
  EXPECT_EQ(arch.unit().macros_per_group, 16);
  EXPECT_EQ(arch.chip().noc_flit_bytes, 16);
  EXPECT_EQ(arch.chip().core_count, 64);  // untouched default
  EXPECT_EQ(arch.mg_cols(), 128);         // derived from the override
}

TEST(ArchConfigTest, SummaryMentionsKeyNumbers) {
  const std::string text = ArchConfig::cimflow_default().summary();
  EXPECT_NE(text.find("64 cores"), std::string::npos);
  EXPECT_NE(text.find("512 KB"), std::string::npos);
}

// --- energy model -------------------------------------------------------------------

TEST(EnergyModelTest, MvmScalesWithActivity) {
  const ArchConfig arch = ArchConfig::cimflow_default();
  const EnergyModel model(arch);
  const double full = model.mvm_pj(512, 64);
  const double half_rows = model.mvm_pj(256, 64);
  const double half_cols = model.mvm_pj(512, 32);
  EXPECT_GT(full, half_rows);
  EXPECT_GT(full, half_cols);
  // Depthwise block-diagonal tiles price only their active MACs.
  EXPECT_LT(model.mvm_pj_macs(9 * 56, 56), model.mvm_pj(504, 56));
}

TEST(EnergyModelTest, TransfersScaleLinearly) {
  const ArchConfig arch = ArchConfig::cimflow_default();
  const EnergyModel model(arch);
  EXPECT_DOUBLE_EQ(model.local_mem_pj(200), 2 * model.local_mem_pj(100));
  EXPECT_DOUBLE_EQ(model.global_mem_pj(200), 2 * model.global_mem_pj(100));
  EXPECT_GT(model.noc_pj(64, 4), model.noc_pj(64, 1));
  // Flit quantization: 1 byte still costs a full flit.
  EXPECT_DOUBLE_EQ(model.noc_pj(1, 1), model.noc_pj(8, 1));
}

TEST(EnergyModelTest, LeakageScalesWithTime) {
  const ArchConfig arch = ArchConfig::cimflow_default();
  const EnergyModel model(arch);
  EXPECT_DOUBLE_EQ(model.leakage_pj(64, 2000), 2 * model.leakage_pj(64, 1000));
  EXPECT_GT(model.global_leakage_pj(1000), 0);
}

}  // namespace
}  // namespace cimflow::arch
