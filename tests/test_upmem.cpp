#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "upmem/system.hpp"

namespace pimwfa::upmem {
namespace {

TEST(SystemConfig, PaperSystemShape) {
  const SystemConfig config = SystemConfig::paper();
  EXPECT_EQ(config.nr_dpus(), 2560u);
  EXPECT_EQ(config.nr_ranks(), 40u);
  EXPECT_EQ(config.max_tasklets, 24u);
  EXPECT_DOUBLE_EQ(config.clock_hz, 425e6);
  EXPECT_EQ(config.mram_bytes, 64ull * 1024 * 1024);
  EXPECT_EQ(config.wram_bytes, 64ull * 1024);
}

TEST(SystemConfig, TinyShape) {
  const SystemConfig config = SystemConfig::tiny(4);
  EXPECT_EQ(config.nr_dpus(), 4u);
  EXPECT_EQ(config.nr_ranks(), 1u);
}

TEST(SystemConfig, ValidateRejectsBadValues) {
  SystemConfig config = SystemConfig::tiny(1);
  config.max_tasklets = 25;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = SystemConfig::tiny(1);
  config.dma_align = 7;  // not a power of two
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = SystemConfig::tiny(1);
  config.wram_reserved_bytes = config.wram_bytes;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

static_assert(!std::is_copy_constructible_v<Mram>);

TEST(Mram, WriteReadRoundTrip) {
  const u8 data[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  // Low in a small bank, and the last 8 bytes of a full 64 MB bank.
  struct Case {
    u64 capacity;
    u64 addr;
    usize bytes;
  };
  constexpr u64 kBank = 64ull << 20;
  for (const Case& c : {Case{1 << 20, 4096, 16}, Case{kBank, kBank - 8, 8}}) {
    Mram mram(c.capacity);
    mram.write(c.addr, data, c.bytes);
    u8 out[16] = {};
    mram.read(c.addr, out, c.bytes);
    EXPECT_EQ(std::memcmp(data, out, c.bytes), 0) << "addr " << c.addr;
  }
}

TEST(Mram, UntouchedReadsZero) {
  Mram mram(1 << 20);
  u8 out[8] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  mram.read(512 * 1024, out, sizeof(out));
  for (u8 b : out) EXPECT_EQ(b, 0);
  // The gap between two far-apart writes reads as zero too.
  const u64 ones = ~u64{0};
  mram.write_pod(64, ones);
  mram.write_pod((1 << 20) - 64, ones);
  std::vector<u8> gap((1 << 20) - 64 - 72, 0xff);
  mram.read(72, gap.data(), gap.size());
  EXPECT_EQ(std::count(gap.begin(), gap.end(), 0), std::ssize(gap));
}

TEST(Mram, LazyBackingGrowsWithWrites) {
  Mram mram(64ull << 20);
  EXPECT_EQ(mram.touched(), 0u);
  const u64 value = 42;
  mram.write_pod(128, value);
  EXPECT_GT(mram.touched(), 0u);
  EXPECT_LT(mram.touched(), 1ull << 20);  // far below capacity
  // touched() is the highest written end, whatever the write order.
  mram.write_pod(40ull << 20, value);
  mram.write_pod(8ull << 20, value);
  mram.write_pod(4096, value);
  EXPECT_EQ(mram.touched(), (40ull << 20) + sizeof(value));
}

TEST(Mram, BoundsFault) {
  Mram mram(1024);
  u8 byte = 0;
  EXPECT_THROW(mram.write(1024, &byte, 1), HardwareFault);
  EXPECT_THROW(mram.read(1020, &byte, 8), HardwareFault);
  EXPECT_NO_THROW(mram.read(1016, &byte, 8));
}

TEST(Mram, UnmappableCapacityThrows) {
  EXPECT_THROW(Mram(u64{1} << 62), Error);  // beyond any address space
}

TEST(Mram, PodHelpers) {
  Mram mram(4096);
  mram.write_pod<u32>(16, 0xdeadbeef);
  EXPECT_EQ(mram.read_pod<u32>(16), 0xdeadbeefu);
}

TEST(Wram, LoadStore) {
  Wram wram(65536);
  wram.store<u32>(128, 77);
  EXPECT_EQ(wram.load<u32>(128), 77u);
}

TEST(Wram, BoundsFault) {
  Wram wram(1024);
  EXPECT_THROW(wram.at(1020, 8), HardwareFault);
  EXPECT_NO_THROW(wram.at(1016, 8));
}

class DmaTest : public ::testing::Test {
 protected:
  SystemConfig config_ = SystemConfig::tiny(1);
  Mram mram_{1 << 20};
  Wram wram_{65536};
  DmaEngine dma_{config_};
};

TEST_F(DmaTest, TransfersData) {
  const u64 value = 0x0123456789abcdefull;
  mram_.write_pod(64, value);
  const u64 cycles = dma_.mram_to_wram(mram_, 64, wram_, 256, 8);
  EXPECT_EQ(wram_.load<u64>(256), value);
  EXPECT_EQ(cycles, config_.dma_setup_cycles + 4);  // 8 bytes * 0.5
}

TEST_F(DmaTest, RoundTripWramToMram) {
  wram_.store<u64>(0, 99);
  dma_.wram_to_mram(wram_, 0, mram_, 1024, 8);
  EXPECT_EQ(mram_.read_pod<u64>(1024), 99u);
}

TEST_F(DmaTest, RejectsMisalignedMramAddress) {
  EXPECT_THROW(dma_.mram_to_wram(mram_, 4, wram_, 0, 8), HardwareFault);
}

TEST_F(DmaTest, RejectsMisalignedWramOffset) {
  EXPECT_THROW(dma_.mram_to_wram(mram_, 0, wram_, 4, 8), HardwareFault);
}

TEST_F(DmaTest, RejectsBadSizes) {
  EXPECT_THROW(dma_.mram_to_wram(mram_, 0, wram_, 0, 4), HardwareFault);
  EXPECT_THROW(dma_.mram_to_wram(mram_, 0, wram_, 0, 12), HardwareFault);
  EXPECT_THROW(dma_.mram_to_wram(mram_, 0, wram_, 0, 4096), HardwareFault);
  EXPECT_NO_THROW(dma_.mram_to_wram(mram_, 0, wram_, 0, 2048));
}

TEST_F(DmaTest, CyclesGrowWithSize) {
  EXPECT_LT(dma_.cycles(8), dma_.cycles(2048));
}

TEST(CostModel, PipelineSaturation) {
  const SystemConfig config = SystemConfig::tiny(1);
  const CostModel model(config);
  // 11+ equally busy tasklets: throughput-bound = sum of work.
  std::vector<TaskletStats> tasklets(12);
  for (auto& t : tasklets) t.instructions = 1000;
  EXPECT_EQ(model.dpu_cycles(tasklets), 12000u);
  // A single tasklet: latency-bound = 11x its work.
  tasklets.assign(1, TaskletStats{});
  tasklets[0].instructions = 1000;
  EXPECT_EQ(model.dpu_cycles(tasklets), 11000u);
}

TEST(CostModel, MoreTaskletsNeverSlower) {
  const SystemConfig config = SystemConfig::tiny(1);
  const CostModel model(config);
  const u64 total_work = 240000;
  u64 prev = ~u64{0};
  for (usize t = 1; t <= 24; ++t) {
    std::vector<TaskletStats> tasklets(t);
    for (usize i = 0; i < t; ++i) {
      tasklets[i].instructions = total_work / t + (i < total_work % t ? 1 : 0);
    }
    const u64 cycles = model.dpu_cycles(tasklets);
    EXPECT_LE(cycles, prev) << "tasklets=" << t;
    prev = cycles;
  }
  // And at 11+ tasklets the pipeline is saturated: no further gain.
  std::vector<TaskletStats> eleven(11);
  for (auto& s : eleven) s.instructions = total_work / 11;
  std::vector<TaskletStats> twenty_four(24);
  for (auto& s : twenty_four) s.instructions = total_work / 24;
  EXPECT_NEAR(static_cast<double>(model.dpu_cycles(eleven)),
              static_cast<double>(model.dpu_cycles(twenty_four)),
              static_cast<double>(total_work) * 0.01);
}

TEST(CostModel, DmaCyclesCountTowardTaskletBusy) {
  TaskletStats t;
  t.instructions = 100;
  t.dma_cycles = 50;
  EXPECT_EQ(t.busy_cycles(), 150u);
}

TEST(CostModel, TransferBandwidthScalesThenCaps) {
  const SystemConfig config = SystemConfig::paper();
  const CostModel model(config);
  EXPECT_DOUBLE_EQ(model.transfer_bandwidth(1), config.host_bw_per_rank);
  EXPECT_DOUBLE_EQ(model.transfer_bandwidth(2), 2 * config.host_bw_per_rank);
  EXPECT_DOUBLE_EQ(model.transfer_bandwidth(40), config.host_bw_cap);
  // Time is monotone in bytes and antitone in ranks.
  EXPECT_GT(model.transfer_seconds(1 << 30, 1),
            model.transfer_seconds(1 << 30, 8));
  EXPECT_GT(model.transfer_seconds(1 << 30, 8),
            model.transfer_seconds(1 << 20, 8));
}

// A trivial kernel for DPU/launch plumbing tests: each tasklet copies an
// 8-byte slot from MRAM to MRAM via WRAM, incrementing it.
class IncrementKernel final : public DpuKernel {
 public:
  void run(TaskletCtx& ctx) override {
    const u64 buf = ctx.wram_alloc(8);
    const u64 addr = 64 + 8 * static_cast<u64>(ctx.me());
    ctx.mram_read(addr, buf, 8);
    u64 value;
    std::memcpy(&value, ctx.wram_ptr(buf, 8), 8);
    ++value;
    std::memcpy(ctx.wram_ptr(buf, 8), &value, 8);
    ctx.account(10);
    ctx.mram_write(buf, addr, 8);
  }
};

TEST(Dpu, LaunchRunsAllTasklets) {
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  for (usize t = 0; t < 8; ++t) {
    dpu.mram().write_pod<u64>(64 + 8 * t, 100 * t);
  }
  IncrementKernel kernel;
  const DpuRunStats stats = dpu.launch(kernel, 8);
  for (usize t = 0; t < 8; ++t) {
    EXPECT_EQ(dpu.mram().read_pod<u64>(64 + 8 * t), 100 * t + 1);
  }
  EXPECT_EQ(stats.tasklets.size(), 8u);
  EXPECT_GT(stats.cycles, 0u);
  const TaskletStats combined = stats.combined();
  EXPECT_EQ(combined.instructions, 80u);
  EXPECT_EQ(combined.dma_calls, 16u);
  EXPECT_EQ(combined.dma_bytes, 128u);
}

TEST(Dpu, WramHeapExhaustionFaults) {
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  class GreedyKernel final : public DpuKernel {
   public:
    void run(TaskletCtx& ctx) override {
      ctx.wram_alloc(32 * 1024);
      ctx.wram_alloc(32 * 1024);  // second 32KB cannot fit with the reserve
    }
  };
  GreedyKernel kernel;
  EXPECT_THROW(dpu.launch(kernel, 1), HardwareFault);
}

TEST(Dpu, WramHeapResetsBetweenLaunches) {
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  class HalfKernel final : public DpuKernel {
   public:
    void run(TaskletCtx& ctx) override { ctx.wram_alloc(40 * 1024); }
  };
  HalfKernel kernel;
  EXPECT_NO_THROW(dpu.launch(kernel, 1));
  EXPECT_NO_THROW(dpu.launch(kernel, 1));  // would fault without the reset
}

TEST(Dpu, RejectsBadTaskletCount) {
  const SystemConfig config = SystemConfig::tiny(1);
  Dpu dpu(config, 0);
  IncrementKernel kernel;
  EXPECT_THROW(dpu.launch(kernel, 0), InvalidArgument);
  EXPECT_THROW(dpu.launch(kernel, 25), InvalidArgument);
}

TEST(PimSystem, ScatterGatherRoundTrip) {
  PimSystem system(SystemConfig::tiny(4));
  const std::vector<u8> data = {1, 2, 3, 4, 5, 6, 7, 8};
  for (usize d = 0; d < 4; ++d) system.copy_to_mram(d, 128, data);
  std::vector<u8> out(8);
  system.copy_from_mram(2, 128, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(system.to_device().bytes, 32u);
  EXPECT_EQ(system.to_device().dpus_touched, 4u);
  EXPECT_EQ(system.from_device().bytes, 8u);
}

TEST(PimSystem, SubsetSimulation) {
  PimSystem system(SystemConfig::paper(), 8);
  EXPECT_EQ(system.nr_dpus(), 8u);
  EXPECT_EQ(system.logical_dpus(), 2560u);
  system.account_to_device(1000);
  EXPECT_EQ(system.to_device().bytes, 1000u);
}

TEST(PimSystem, LaunchAllAggregates) {
  PimSystem system(SystemConfig::tiny(4));
  for (usize d = 0; d < 4; ++d) {
    for (usize t = 0; t < 4; ++t) {
      system.dpu(d).mram().write_pod<u64>(64 + 8 * t, 0);
    }
  }
  const LaunchStats stats = system.launch_all(
      [](usize) { return std::make_unique<IncrementKernel>(); }, 4);
  EXPECT_EQ(stats.dpus, 4u);
  EXPECT_GT(stats.max_cycles, 0u);
  EXPECT_GE(stats.total_cycles, stats.max_cycles * 4);  // uniform work
  EXPECT_EQ(stats.combined.dma_calls, 4u * 4u * 2u);
}

TEST(PimSystem, LaunchAllParallelHostMatchesSerial) {
  ThreadPool pool(3);
  PimSystem serial(SystemConfig::tiny(6));
  PimSystem parallel(SystemConfig::tiny(6));
  const auto factory = [](usize) { return std::make_unique<IncrementKernel>(); };
  const LaunchStats a = serial.launch_all(factory, 4);
  const LaunchStats b = parallel.launch_all(factory, 4, &pool);
  EXPECT_EQ(a.max_cycles, b.max_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

}  // namespace
}  // namespace pimwfa::upmem
