// Seeded mutation fuzz of the campaign checkpoint loader. Starts from
// checkpoints save_checkpoint wrote (hand-built ones with awkward doubles
// and a decision trace, and one a real adaptive campaign left behind) and
// applies byte flips, truncations, corrupted trailers and hashes, and
// duplicated, dropped or swapped lines. Whatever the mutant,
// load_checkpoint must not crash; it either refuses the file or loads
// data that save_checkpoint writes back byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"

namespace seg {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string scratch(const std::string& name) {
  return ::testing::TempDir() + "seg_ck_fuzz_" + name;
}

std::string saved_bytes(const CheckpointData& data, const std::string& name) {
  const std::string path = scratch(name);
  EXPECT_TRUE(save_checkpoint(path, data));
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

std::vector<std::string> corpus() {
  std::vector<std::string> texts;
  CheckpointData plain;
  plain.seed = 1234567890123456789ULL;
  plain.spec_hash = 987654321ULL;
  plain.metric_count = 3;
  plain.done = {1, 0, 1, 1, 0};
  plain.values = {{1.0 / 3.0, -0.0, 1e-308},
                  {},
                  {std::numeric_limits<double>::quiet_NaN(), 2.0, -7.5e300},
                  {std::numeric_limits<double>::infinity(), 0.0, 5e-324},
                  {}};
  texts.push_back(saved_bytes(plain, "plain"));

  CheckpointData traced = plain;
  traced.trace = {{0, 16, StopRule::kBernstein, 0.0125},
                  {3, 40, StopRule::kHoeffding, 0.5}};
  texts.push_back(saved_bytes(traced, "traced"));

  CheckpointData empty;
  empty.metric_count = 2;
  empty.done.assign(4, 0);
  empty.values.assign(4, {});
  texts.push_back(saved_bytes(empty, "empty"));

  // What an adaptive campaign leaves on disk mid-run.
  ScenarioSpec spec;
  spec.name = "ck_fuzz";
  spec.n = {16};
  spec.w = {1};
  spec.tau = {0.35, 0.45};
  spec.metrics = {"flips", "majority", "terminated"};
  spec.stop.rule = StopRule::kBernstein;
  spec.stop.min_replicas = 4;
  spec.stop.max_replicas = 12;
  spec.stop.metric = "majority";
  std::string why;
  EXPECT_TRUE(spec.valid(&why)) << why;
  CampaignOptions options;
  options.checkpoint_path = scratch("campaign");
  options.checkpoint_every = 1;
  options.max_new_replicas = 14;
  run_campaign(spec, 5, options);
  texts.push_back(read_file(options.checkpoint_path));
  std::remove(options.checkpoint_path.c_str());
  for (const std::string& text : texts) EXPECT_FALSE(text.empty());
  return texts;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

// Characters a corrupted checkpoint plausibly holds: digits, hex letters
// in both cases, separators, signs, and bytes from the tags.
constexpr char kAlphabet[] = "0123456789abcdefABCDEFx +-\n\trsend\0\xff";

enum Mutation {
  kFlipByte,
  kTruncate,
  kCorruptTrailer,
  kCorruptHash,
  kDuplicateLines,
  kDropLine,
  kSwapLines,
  kMutationCount,
};

std::string mutate(const std::string& text, Mutation kind,
                   std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::string out = text;
  std::vector<std::string> lines = split_lines(text);
  switch (kind) {
    case kFlipByte: {
      const std::size_t flips = 1 + pick(3);
      for (std::size_t i = 0; i < flips; ++i) {
        char& c = out[pick(out.size())];
        c = pick(2) ? kAlphabet[pick(sizeof(kAlphabet) - 1)]
                    : static_cast<char>(c ^ (1 << pick(8)));
      }
      return out;
    }
    case kTruncate:
      return out.substr(0, pick(out.size()));
    case kCorruptTrailer: {
      std::string& last = lines.back();
      switch (pick(4)) {
        case 0: last = "end " + std::to_string(pick(64)) + "\n"; break;
        case 1: last.pop_back(); break;  // drop the final newline
        case 2: last += "end 0\n"; break;
        default: last.insert(pick(last.size()), 1, ' '); break;
      }
      return join(lines);
    }
    case kCorruptHash: {
      // The header's spec hash, or the decision trace's hash when there
      // is one.
      std::size_t line = 1;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].rfind("trace ", 0) == 0 && pick(2)) line = i;
      }
      std::string& l = lines[line];
      const std::size_t at = l.find(line == 1 ? "hash " : "trace ");
      const std::size_t digit = l.find(' ', at) + 1;
      l[digit + pick(l.find_first_of(" \n", digit) - digit)] =
          "0123456789abcdef"[pick(16)];
      return join(lines);
    }
    case kDuplicateLines: {
      const std::size_t from = pick(lines.size());
      const std::size_t len =
          1 + pick(std::min<std::size_t>(3, lines.size() - from));
      const std::vector<std::string> block(lines.begin() + from,
                                           lines.begin() + from + len);
      lines.insert(lines.begin() + pick(lines.size() + 1), block.begin(),
                   block.end());
      return join(lines);
    }
    case kDropLine:
      lines.erase(lines.begin() + pick(lines.size()));
      return join(lines);
    case kSwapLines:
      std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
      return join(lines);
    case kMutationCount:
      break;
  }
  return out;
}

TEST(CheckpointFuzz, CorpusRoundTripsBitExact) {
  const std::string path = scratch("corpus");
  for (const std::string& text : corpus()) {
    write_file(path, text);
    CheckpointData data;
    ASSERT_TRUE(load_checkpoint(path, &data)) << text;
    EXPECT_EQ(saved_bytes(data, "corpus_back"), text);
  }
  std::remove(path.c_str());
}

TEST(CheckpointFuzz, MutantsAreRejectedOrRoundTripBitExact) {
  const std::vector<std::string> texts = corpus();
  const std::string path = scratch("mutant");
  std::mt19937_64 rng(20261017);
  constexpr int kPerKind = 150;
  int accepted[kMutationCount] = {}, rejected[kMutationCount] = {};
  for (int kind = 0; kind < kMutationCount; ++kind) {
    for (int i = 0; i < kPerKind; ++i) {
      const std::string& text =
          texts[static_cast<std::size_t>(i) % texts.size()];
      const std::string mutant = mutate(text, Mutation(kind), rng);
      write_file(path, mutant);
      CheckpointData data;
      if (!load_checkpoint(path, &data)) {
        ++rejected[kind];
        continue;
      }
      ++accepted[kind];
      ASSERT_EQ(saved_bytes(data, "mutant_back"), mutant)
          << "mutation " << kind << " of:\n" << text;
    }
  }
  std::remove(path.c_str());
  // Every mutation class finds refusals; byte flips inside stored values
  // and spec hashes are well-formed and load.
  for (int kind = 0; kind < kMutationCount; ++kind) {
    EXPECT_GT(rejected[kind], 0) << "mutation " << kind;
  }
  EXPECT_GT(accepted[kFlipByte], 0);
  EXPECT_GT(accepted[kCorruptHash], 0);
}

// Spellings the scanf-based parse would read back as the same data, each
// refused because it is not the form save_checkpoint writes.
TEST(CheckpointFuzz, NonCanonicalSpellingsAreRejected) {
  const std::string header =
      "seg-campaign-checkpoint v1\nseed 1 hash 2 replicas 3 metrics 1\n";
  const std::string row0 = "r 0 3ff0000000000000\n";
  const std::string row2 = "r 2 4000000000000000\n";
  const std::string path = scratch("canonical");
  CheckpointData data;
  write_file(path, header + row0 + row2 + "end 2\n");
  ASSERT_TRUE(load_checkpoint(path, &data));
  for (const std::string& bad : {
           header + row0 + row0 + row2 + "end 2\n",  // duplicated row
           header + row2 + row0 + "end 2\n",         // rows out of order
           header + "r 0 3FF0000000000000\n" + row2 + "end 2\n",
           header + "r  0 3ff0000000000000\n" + row2 + "end 2\n",
           header + "r 00 3ff0000000000000\n" + row2 + "end 2\n",
           header + row0 + row2 + "end 02\n",
           header + row0 + row2 + "end 2\nend 2\n",  // trailing bytes
           header + row0 + row2 + "end 3\n",         // stale count
           header + row0 + row2 + "end 2",           // torn trailer
           header + row0 + row2,                     // no trailer
       }) {
    write_file(path, bad);
    EXPECT_FALSE(load_checkpoint(path, &data)) << bad;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seg
