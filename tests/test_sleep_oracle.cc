/**
 * @file
 * The sleep oracle on the six fingerprinted Figure 10
 * configurations: every box the scheduler skips while it holds work
 * is clocked anyway and must do nothing (no write, no statistic
 * change, no step due before the stored one), and the run must
 * still reach its pinned cycle count.
 */

#include <gtest/gtest.h>

#include "fig10_scenes.hh"

using namespace attila;

TEST(SleepOracle, Fig10ConfigsSleepOnlyWhenBlocked)
{
    for (const fig10::Config& scene : fig10::configs()) {
        const gpu::CommandList commands = fig10::commands(scene.scene);
        const std::unique_ptr<gpu::Gpu> gpu = fig10::makeGpu(scene.gpu);
        gpu->simulator().setSleepOracle(true);
        gpu->submit(commands);
        EXPECT_TRUE(gpu->runUntilIdle(2'000'000'000ull))
            << scene.label << ": pipeline did not drain";
        EXPECT_EQ(gpu->cycle(), scene.expected.cycles) << scene.label;
    }
}
