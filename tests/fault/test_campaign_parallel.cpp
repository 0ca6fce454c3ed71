/** Host-parallel campaign tests: the trial cycle-budget fix (max, not
 *  min), byte-identical reports across --jobs, per-trial seeding from
 *  (campaign seed, trial index) only, and the per-trial narration. */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault/campaign.hpp"

using namespace diag;
using namespace diag::fault;

namespace
{

CampaignSpec
stuckLudSpec()
{
    CampaignSpec spec;
    spec.workload = "lud";
    spec.seed = 7;
    spec.trials = 16;
    spec.site_mask = siteBit(FaultSite::PeStuck);
    return spec;
}

} // namespace

TEST(CampaignBudget, UserCeilingNeverShrinksTheBudget)
{
    // Regression for the serial-era min(): the default 2e9 user
    // ceiling used to *cap* the budget at the baseline-derived floor;
    // both bounds must act as floors.
    EXPECT_EQ(trialCycleBudget(2'000'000'000, 1000), 2'000'000'000u);
    EXPECT_EQ(trialCycleBudget(10'000, 50'000'000), 400'100'000u);
    EXPECT_EQ(trialCycleBudget(0, 0), 100'000u);
    // Never below either bound, whichever dominates.
    EXPECT_GE(trialCycleBudget(123, 456), 123u);
    EXPECT_GE(trialCycleBudget(123, 456), 456u * 8 + 100'000);
}

TEST(CampaignBudget, StrikeOutTrialBetweenTheBoundsStillCompletes)
{
    // A PE-stuck strike-out degrades the ring, so the trial finishes
    // *slower* than the fault-free baseline. Pin the user ceiling
    // between that trial's cycles and the baseline-derived floor: the
    // old min() would have truncated the budget at the ceiling and
    // misclassified the trial as a hang; max() lets it complete.
    const CampaignSpec spec = stuckLudSpec();
    const CampaignReport ref = runCampaign(spec);

    // Find the slowest completed trial that the generous floor covers.
    const u64 floor_budget =
        ref.baseline_cycles * 8 + 100'000;
    const TrialRecord *slow = nullptr;
    for (const TrialRecord &t : ref.trials) {
        if (t.outcome == Outcome::Hang || t.cycles >= floor_budget)
            continue;
        if (t.cycles > ref.baseline_cycles &&
            (!slow || t.cycles > slow->cycles))
            slow = &t;
    }
    ASSERT_NE(slow, nullptr)
        << "no stuck trial ran past the baseline; pick another seed";

    CampaignSpec pinned = spec;
    pinned.config.max_cycles =
        (ref.baseline_cycles + slow->cycles) / 2;
    ASSERT_GT(pinned.config.max_cycles, ref.baseline_cycles);
    ASSERT_LT(pinned.config.max_cycles, slow->cycles);

    const CampaignReport rep = runCampaign(pinned);
    const TrialRecord &again = rep.trials[slow->index];
    EXPECT_NE(again.outcome, Outcome::Hang);
    EXPECT_EQ(again.outcome, slow->outcome);
    EXPECT_EQ(again.cycles, slow->cycles);
    EXPECT_GT(again.cycles, pinned.config.max_cycles);
    EXPECT_LT(again.cycles, floor_budget);
    EXPECT_EQ(rep.total.hang, ref.total.hang);
}

TEST(CampaignParallel, JsonByteIdenticalAcrossJobs)
{
    CampaignSpec spec;
    spec.workload = "lud";
    spec.seed = 3;
    spec.trials = 12;
    spec.site_mask = siteBit(FaultSite::RegLaneValue) |
                     siteBit(FaultSite::PeResult) |
                     siteBit(FaultSite::PeStuck);
    spec.jobs = 1;
    const std::string serial = runCampaign(spec).renderJson();
    for (unsigned jobs : {4u, 16u}) {
        spec.jobs = jobs;
        EXPECT_EQ(runCampaign(spec).renderJson(), serial)
            << "jobs=" << jobs;
    }
}

TEST(CampaignParallel, TrialSeedsDependOnlyOnCampaignSeedAndIndex)
{
    // Satellite (c): identical plans for jobs=1 and jobs=8. Would
    // fail if per-trial randomness came from any shared RNG whose
    // draw order depends on worker scheduling.
    CampaignSpec spec = stuckLudSpec();
    spec.site_mask = kAllSites;
    spec.trials = 10;
    spec.jobs = 1;
    const CampaignReport a = runCampaign(spec);
    spec.jobs = 8;
    const CampaignReport b = runCampaign(spec);
    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (size_t i = 0; i < a.trials.size(); ++i) {
        EXPECT_EQ(a.trials[i].seed, b.trials[i].seed) << "trial " << i;
        EXPECT_EQ(a.trials[i].planned, b.trials[i].planned)
            << "trial " << i;
        EXPECT_EQ(a.trials[i].site, b.trials[i].site) << "trial " << i;
    }
}

TEST(CampaignVerbose, NarratesEveryTrial)
{
    // diag-fault --verbose promises one line per trial. At jobs = 1
    // every trial runs on this thread, so all of them are captured.
    CampaignSpec spec;
    spec.workload = "nn";
    spec.trials = 4;
    spec.jobs = 1;
    const auto infoLines = [&](bool verbose) {
        testing::internal::CaptureStderr();
        runCampaign(spec, verbose);
        const std::string err = testing::internal::GetCapturedStderr();
        size_t n = 0;
        for (size_t at = err.find("info: trial "); at != std::string::npos;
             at = err.find("info: trial ", at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(infoLines(true), spec.trials);
    EXPECT_EQ(infoLines(false), 0u);
}
