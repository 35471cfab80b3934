// Deterministic mutation fuzzing of every loader that reads user-supplied
// text: `.scn` scenario scripts, flow-size CDF files, shard journals and
// sweep manifests.
//
// Each target starts from valid seed texts and applies seeded mutations —
// byte edits, dictionary tokens (time suffixes, distribution prefixes,
// numbers at the edge of their type) and splices of two seeds. Whatever a
// parser accepts must be usable: scenarios pass ValidateScenario and draw
// their down-times, CDFs are sampled, manifests are sliced into shards.
// Whatever it rejects must say why. No libFuzzer: the same mutants run in
// every build, so the sanitizer CI job checks them under ASan and UBSan.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment_service/journal.h"
#include "src/experiment_service/manifest.h"
#include "src/scenario/scenario_script.h"
#include "src/sim/random.h"
#include "src/workload/flow_size_cdf.h"

namespace themis {
namespace {

constexpr int kMutantsPerTarget = 10000;
// The journal and manifest loaders read a file, so each mutant costs a file
// write and read; fewer of them keep the suite fast.
constexpr int kFileMutantsPerTarget = 1000;

// Tokens the parsers give meaning to, plus numbers at the edge of their type.
const std::vector<std::string> kDictionary = {
    "ps", "ns", "us", "ms", "s", "exp:", "uniform:", "uniform:1us:", "18446744073709551616",
    "18446744073709551615", "9223372036854775808", "4294967296", "-1", "0", "nan", "inf",
    "1e-400", "1e400", "=", " ", "\n", "#", ":", "*", "begin", "row", "end", "point",
    "points", "repeat=", "period=", "at=", "down=", "target=",
};

// Seeded mutator over a fixed set of seed texts.
class Mutator {
 public:
  Mutator(std::vector<std::string> seeds, uint64_t rng_seed)
      : seeds_(std::move(seeds)), rng_(rng_seed) {}

  std::string Next() {
    std::string text = Pick(seeds_);
    const int edits = 1 + static_cast<int>(rng_.Below(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng_.Below(text.size() + 1);
      switch (rng_.Below(5)) {
        case 0:  // overwrite one byte
          if (!text.empty()) {
            text[rng_.Below(text.size())] = static_cast<char>(rng_.Below(256));
          }
          break;
        case 1:  // delete a short range
          text.erase(pos, 1 + rng_.Below(8));
          break;
        case 2:
        case 3:  // insert a dictionary token
          text.insert(pos, Pick(kDictionary));
          break;
        default: {  // splice: this text's prefix, another seed's suffix
          const std::string& other = Pick(seeds_);
          text = text.substr(0, pos) + other.substr(rng_.Below(other.size() + 1));
          break;
        }
      }
    }
    return text;
  }

 private:
  const std::string& Pick(const std::vector<std::string>& from) {
    return from[rng_.Below(from.size())];
  }

  std::vector<std::string> seeds_;
  Rng rng_;
};

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/parser_fuzz_" + name;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ParserFuzzTest, ScenarioTextParsesOrNamesTheLine) {
  Mutator mutator(
      {
          "seed 11\nsample-period 20us\n"
          "flap target=tor0:up0 at=400us down=150us repeat=2 period=700us\n",
          "seed 13\nsample-period 20us\n"
          "gray target=spine0:* at=300us duration=900us drop=2e-3 corrupt=2e-3\n",
          "restore-fraction 0.9\nreboot target=spine1 at=5ms down=1ms\n"
          "degrade target=tor1:up1 at=1ms duration=3ms factor=0.25\n",
          "flap target=spine* at=2ms down=uniform:50us:150us repeat=3 period=500us\n"
          "flap target=tor0:p1 at=1ms down=exp:100us\n# comment\n",
      },
      1);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerTarget; ++i) {
    const std::string text = mutator.Next();
    ScenarioScript script;
    std::string error;
    if (!ParseScenario(text, &script, &error)) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(ValidateScenario(script, &error)) << error << "\n" << text;
    Rng rng(static_cast<uint64_t>(i));
    for (const ScenarioEvent& event : script.events) {
      const TimePs down = event.down.Draw(rng);
      EXPECT_GE(down, 0) << text;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerTarget);
}

TEST(ParserFuzzTest, FlowSizeCdfParsesOrRejectsAndSamplesInRange) {
  Mutator mutator(
      {
          "# DCTCP-style web-search flow sizes\n6000 0.15\n13000 0.20\n19000 0.30\n"
          "33000 0.40\n53000 0.53\n133000 0.60\n667000 0.70\n1333000 0.80\n"
          "3333000 0.90\n6667000 0.97\n20000000 1.00\n",
          "100 0.5\n1000000 1.0\n",
          "0 0.0\n1 0.25 # knee\n\n18446744073709549568 1.0\n",
      },
      2);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerTarget; ++i) {
    const std::string text = mutator.Next();
    FlowSizeCdf cdf;
    std::string error;
    if (!FlowSizeCdf::Parse("fuzz", text, &cdf, &error)) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    ASSERT_FALSE(cdf.points().empty()) << text;
    EXPECT_GT(cdf.MeanBytes(), 0.0) << text;
    uint64_t largest = 1;
    for (const FlowSizeCdf::Point& p : cdf.points()) {
      largest = std::max(largest, p.bytes);
    }
    Rng rng(static_cast<uint64_t>(i));
    for (int s = 0; s < 16; ++s) {
      const uint64_t bytes = cdf.Sample(rng);
      EXPECT_GE(bytes, 1u) << text;
      EXPECT_LE(bytes, largest) << text;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerTarget);
}

TEST(ParserFuzzTest, JournalLoaderKeepsOnlyFramedRecords) {
  const std::string seed_path = TempPath("seed.journal");
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(seed_path, /*append=*/false, &error)) << error;
    ASSERT_TRUE(writer.Append(JournalRecord{0, 0x0123456789ABCDEFu, {"a,b,c", " 1,2,3"}}));
    ASSERT_TRUE(writer.Append(JournalRecord{1, 0xFFFFFFFFFFFFFFFFu, {}}));
    ASSERT_TRUE(writer.Append(JournalRecord{7, 42, {"x"}}));
  }
  const std::string framed = ReadFile(seed_path);
  ASSERT_EQ(LoadJournal(seed_path).size(), 3u);
  Mutator mutator({framed, framed + "begin 9 0000000000000009 2\nrow half-written\n"}, 3);
  const std::string path = TempPath("mutant.journal");
  size_t records = 0;
  for (int i = 0; i < kFileMutantsPerTarget; ++i) {
    const std::string text = mutator.Next();
    WriteFile(path, text);
    const std::vector<JournalRecord> loaded = LoadJournal(path);
    // A record is committed only by its own `end` line.
    size_t ends = 0;
    for (size_t at = text.find("end"); at != std::string::npos; at = text.find("end", at + 1)) {
      ++ends;
    }
    EXPECT_LE(loaded.size(), ends) << text;
    records += loaded.size();
  }
  EXPECT_GT(records, 0u);
  std::filesystem::remove(seed_path);
  std::filesystem::remove(path);
}

TEST(ParserFuzzTest, ManifestLoaderAcceptsOnlySliceableManifests) {
  SweepManifest seed;
  seed.grid = "fct-smoke";
  seed.csv_header = "dist,load,scheme,p50,p99";
  for (uint32_t i = 0; i < 6; ++i) {
    seed.points.push_back(ManifestPoint{i, 0x9E3779B97F4A7C15u * (i + 1), 100 + i,
                                        "websearch load 0." + std::to_string(i + 3)});
  }
  const std::string seed_path = TempPath("seed.manifest");
  std::string error;
  ASSERT_TRUE(seed.Write(seed_path, &error)) << error;
  Mutator mutator({ReadFile(seed_path)}, 4);
  const std::string path = TempPath("mutant.manifest");
  int accepted = 0;
  for (int i = 0; i < kFileMutantsPerTarget; ++i) {
    const std::string text = mutator.Next();
    WriteFile(path, text);
    SweepManifest manifest;
    if (!SweepManifest::Load(path, &manifest, &error)) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    // Every shard count partitions the points: each position in one slice.
    for (const int shards : {1, 2, 3, 7}) {
      std::vector<size_t> all;
      for (int index = 0; index < shards; ++index) {
        const std::vector<size_t> slice = manifest.ShardSlice(shards, index);
        all.insert(all.end(), slice.begin(), slice.end());
      }
      std::sort(all.begin(), all.end());
      ASSERT_EQ(all.size(), manifest.points.size()) << text;
      for (size_t p = 0; p < all.size(); ++p) {
        ASSERT_EQ(all[p], p) << text;
      }
    }
    EXPECT_TRUE(manifest.ShardSlice(0, 0).empty());
    EXPECT_TRUE(manifest.ShardSlice(3, 3).empty());
    EXPECT_TRUE(manifest.ShardSlice(3, -1).empty());
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kFileMutantsPerTarget);
  std::filesystem::remove(seed_path);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace themis
